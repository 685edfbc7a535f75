"""Incrementally-maintained materialized views over a Replayer table,
driven by the change-data feed.

Every view is a :class:`_View`, which owns the one commit protocol;
the concrete classes supply only their kernels:

* ``AggView(root, rp, keys, sums)`` materializes
  ``GROUP BY keys → (n_rows, <col>_sum ...)`` over the CURRENT state for
  any key/sum columns the change feed carries (``source``, ``status`` /
  ``n_tok``, ``last_lsn``);
* ``PostingsView`` (token → doc_ids), ``ScalarIndexView`` (scalar
  column → doc_ids) and ``MinHashIndexView`` (banded MinHash signature
  → doc_ids) are SET-valued indexes (:class:`_SignedSetView`).

Refresh (``_View.refresh``), one path for every kind:

* full build (first refresh, or when compaction swallowed or a rollback
  invalidated the last refreshed epoch): the view's full kernel runs
  per batch over the fold output, then its ``_build`` hook;
* incremental refresh: the delta kernel runs per batch over
  ``changes_between`` alone — the base table is never re-folded. Each
  change row contributes SIGNED deltas — ``+after`` for inserts,
  ``-before`` for deletes, both for updates (so a key-changing update
  moves the row between groups) — which ``_build`` merges with the
  stored version. Work is O(changes), not O(table): the scale property
  that makes a 100-TB view cheap to keep fresh under a trickle of
  updates.

Only count/sum aggregates are supported — they are the self-maintainable
ones (a min/max view cannot be maintained under deletes without
re-reading the group; that is a rebuild, not a view refresh).

Null sum values contribute 0 on both paths (sum skips nulls on the full
path; explicit fill on the incremental path), so the two paths are
exactly equivalent — asserted in tests.

Storage and commit protocol: ``META.json`` records the view's ``kind``
and parameters (sticky across reopen; ``open_view`` reconstructs any
view from it). Each refresh builds its version in a ``_tmp_*`` dir,
renames it to a version dir no earlier refresh used (``v{epoch}``, or
``v{epoch}_{k}`` when that name is taken), and swaps in a JSON
``CURRENT`` marker via tmp-file + ``os.replace`` (atomic on POSIX) —
the same crash discipline as the table manifest. The dir ``CURRENT``
names is never deleted or overwritten, so a reader sees either the old
version or the new one and a torn refresh leaves the previous version
current. Single-writer by design (views are derived data; rebuild is
always safe).
"""

from __future__ import annotations

import json
import os
import re
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data
from ray.data.aggregate import Sum

#: columns the change feed carries before/after images for (replay._diff_bucket_task)
FEED_KEY_COLS = ("source", "status")
FEED_SUM_COLS = ("n_tok", "last_lsn")


def _write_json(path: str, obj: dict) -> None:
    """Atomic JSON write: tmp file + ``os.replace``."""
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        f.write(json.dumps(obj))
    os.replace(tmp, path)


def _current(root: str) -> dict | None:
    """The view's ``CURRENT`` marker, or None before the first refresh."""
    p = os.path.join(root, "CURRENT")
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


class _View:
    """The view protocol shared by every kind: sticky ``META.json``,
    the ``CURRENT`` marker, ``refresh`` and the version publish.

    Subclasses set ``KIND`` and supply:

    * ``_full_kernel(t)`` — per-batch map over fold-output rows;
    * ``_delta_kernel(t)`` — per-batch map over change-feed rows
      (``changes_between(**_feed_kwargs())``);
    * ``_build(rows, stored, out)`` — consume the mapped Dataset (merged
      with the version dir ``stored`` on an incremental refresh, None on
      a full build), write the new version into ``out`` and return the
      refresh stats;
    * ``_noop_stats(vdir)`` — the same stats for a refresh with nothing
      to do, read from the current version dir.
    """

    KIND = ""

    def __init__(self, root: str, replayer, defaults: dict,
                 explicit: dict):
        """``defaults`` seeds a NEW view's META; ``explicit`` holds only
        the params the caller actually passed — on reopen these are
        validated against the stored META (mismatch raises; silently
        maintaining a different view than asked for is a correctness
        trap). Omitted params adopt the stored definition. Subclasses
        validate their params BEFORE calling this: META that lands with
        bad params poisons the root for every reopen."""
        self.root = root
        self.rp = replayer
        os.makedirs(root, exist_ok=True)
        meta_p = os.path.join(root, "META.json")
        if os.path.exists(meta_p):
            with open(meta_p) as f:
                self.meta = json.load(f)
            got_kind = self.meta.get("kind")
            if got_kind != self.KIND:
                raise ValueError(
                    f"{root}: stored view kind is {got_kind!r}, not "
                    f"{self.KIND!r} — refreshing it as this class would "
                    "overwrite another view's data")
            for k, want in explicit.items():
                got = self.meta.get(k)
                if want != got:
                    raise ValueError(
                        f"{root}: view was built with {k}={got!r}, caller "
                        f"passed {k}={want!r} — reopen with matching args "
                        "(or omit them) or use a new root"
                    )
        else:
            self.meta = {"kind": self.KIND, **defaults, **explicit}
            _write_json(meta_p, self.meta)

    # ------------------------------------------------------ subclass API --
    def _full_kernel(self, t: pa.Table) -> pa.Table:
        raise NotImplementedError

    def _delta_kernel(self, t: pa.Table) -> pa.Table:
        raise NotImplementedError

    def _feed_kwargs(self) -> dict:
        return {}

    def _build(self, rows: ray.data.Dataset, stored: str | None,
               out: str) -> dict:
        raise NotImplementedError

    def _noop_stats(self, vdir: str) -> dict:
        raise NotImplementedError

    # ------------------------------------------------------------- state --
    def last_epoch(self) -> int | None:
        cur = _current(self.root)
        return None if cur is None else cur["epoch"]

    def vacuum_versions(self, retain: int = 1) -> dict:
        return vacuum_view_versions(self.root, retain)

    def _version_dir(self) -> str:
        """Path of the version ``CURRENT`` names."""
        cur = _current(self.root)
        if cur is None:
            raise ValueError("view was never refreshed")
        return os.path.join(self.root, cur["dir"])

    def _unused_version(self, epoch: int) -> str:
        """``v{epoch}``, or ``v{epoch}_{k}`` when a dir of that name
        exists — a full rebuild to the epoch ``CURRENT`` already names
        (epoch number reused after a rollback), or a superseded version
        left from before one. Publishing never deletes or overwrites a
        version a reader may hold; vacuum reclaims the superseded ones."""
        name, k = f"v{epoch}", 0
        while os.path.exists(os.path.join(self.root, name)):
            k += 1
            name = f"v{epoch}_{k}"
        return name

    # ----------------------------------------------------------- refresh --
    def refresh(self, to_epoch: int | None = None) -> dict:
        cur = _current(self.root)
        to_epoch, last = _refresh_target(self.rp, cur, to_epoch)
        if last == to_epoch:
            return {"epoch": to_epoch, "mode": "noop",
                    **self._noop_stats(self._version_dir())}

        if last is None or last < self.rp.manifest.last_compacted_epoch():
            # full build (first refresh, or the incremental base epoch was
            # compacted away / rolled back and can no longer be diffed).
            # Reads the raw fold rows — CANONICAL column names, pre-policy
            # — because that is exactly what the change feed carries;
            # building from read_state would bake policy/rename transforms
            # into the full path that incremental refreshes could never
            # reproduce.
            rows = self.rp.fold_output(up_to_epoch=to_epoch)
            kernel, stored, mode = self._full_kernel, None, "full"
        else:
            rows = self.rp.changes_between(last, to_epoch,
                                           **self._feed_kwargs())
            kernel, mode = self._delta_kernel, "incremental"
            stored = os.path.join(self.root, cur["dir"])

        vdir = self._unused_version(to_epoch)
        tmp = os.path.join(self.root, f"_tmp_{vdir}")
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        stats = self._build(
            rows.map_batches(kernel, batch_format="pyarrow",
                             zero_copy_batch=True),
            stored, tmp)
        os.rename(tmp, os.path.join(self.root, vdir))
        _write_json(os.path.join(self.root, "CURRENT"),
                    {"epoch": to_epoch, "dir": vdir,
                     "fp": _epoch_fp(self.rp, to_epoch)})
        return {"epoch": to_epoch, "mode": mode, **stats}


def _epoch_fp(rp, epoch: int) -> list:
    """Identity of a committed epoch beyond its NUMBER: a rollback
    followed by re-ingest can re-commit the same epoch number with
    DIFFERENT data, which a number-only check cannot see (code-review
    r5) — the view would then silently maintain from a stale base.
    (max_lsn, rows, processed) pins the entry's content for practical
    purposes; identical re-commits of identical binlogs keep the view
    valid by construction."""
    e = rp.manifest.epoch_entry(epoch) or {}
    return [e.get("max_lsn"), e.get("rows"), e.get("processed")]


def _refresh_target(rp, cur: dict | None, to_epoch: int | None):
    """View-refresh preconditions: resolve the target epoch,
    invalidate a rolled-back OR rolled-back-and-reused base epoch
    (→ full rebuild), reject a backwards refresh. ``cur`` is the view's
    CURRENT marker dict (or None). Returns (to_epoch, last)."""
    last = None if cur is None else cur["epoch"]
    committed = rp.manifest.committed_epochs()
    if not committed:
        raise ValueError("table has no committed epochs")
    if to_epoch is None:
        to_epoch = max(committed)
    if not rp.manifest.is_committed(to_epoch):
        raise ValueError(f"epoch {to_epoch} is not committed")
    if last is not None and not rp.manifest.is_committed(last):
        # the view's base epoch was rolled back: the stored state reflects
        # data that no longer exists — full rebuild
        last = None
    if last is not None:
        fp = cur.get("fp")
        if fp is not None and fp != _epoch_fp(rp, last):
            # same epoch NUMBER, different data: rolled back and re-
            # ingested since the last refresh — full rebuild
            last = None
    if last is not None and to_epoch < last:
        raise ValueError(f"view is already at epoch {last} > {to_epoch}")
    return to_epoch, last


class AggView(_View):
    """Materialized ``GROUP BY keys → (n_rows, <sum>_sum...)`` view,
    stored as one ``agg.parquet`` per version."""

    KIND = "agg"

    def __init__(self, root: str, replayer, keys=None, sums=None):
        explicit = {k: list(v) for k, v in (("keys", keys), ("sums", sums))
                    if v is not None}
        params = {"keys": ["source"], "sums": ["n_tok"], **explicit}
        for k in params["keys"]:
            if k not in FEED_KEY_COLS:
                raise ValueError(f"key {k!r} not in change feed {FEED_KEY_COLS}")
        for s in params["sums"]:
            if s not in FEED_SUM_COLS:
                raise ValueError(f"sum {s!r} not in change feed {FEED_SUM_COLS}")
        if not params["keys"]:
            raise ValueError("need at least one key column")
        super().__init__(root, replayer, params, explicit)
        self.keys = tuple(self.meta["keys"])
        self.sums = tuple(self.meta["sums"])
        self.out_cols = [f"{s}_sum" for s in self.sums]
        self.schema = pa.schema(
            [(k, pa.string()) for k in self.keys]
            + [("n_rows", pa.int64())]
            + [(c, pa.int64()) for c in self.out_cols]
        )

    # ------------------------------------------------------------ kernels --
    def _full_kernel(self, t: pa.Table) -> pa.Table:
        cols = {k: t[k] for k in self.keys}
        cols["one"] = pa.array([1] * t.num_rows, pa.int64())
        for s in self.sums:
            cols[s] = pc.fill_null(pc.cast(t[s], pa.int64()), 0)
        aggs = [("one", "sum")] + [(s, "sum") for s in self.sums]
        return pa.table(cols).group_by(list(self.keys)).aggregate(aggs)

    def _delta_kernel(self, t: pa.Table) -> pa.Table:
        """Signed per-change deltas: -before for delete/update, +after for
        insert/update (vectorized: one concat of the two signed halves)."""
        has_after = pc.is_in(t["change"], value_set=pa.array(["insert", "update"]))
        has_before = pc.is_in(t["change"], value_set=pa.array(["delete", "update"]))

        def _half(rows: pa.Table, suffix: str, sign: int) -> pa.Table:
            cols = {k: rows[f"{k}{suffix}"] for k in self.keys}
            cols["one"] = pa.array([sign] * rows.num_rows, pa.int64())
            for s in self.sums:
                v = pc.fill_null(pc.cast(rows[f"{s}{suffix}"], pa.int64()), 0)
                cols[s] = v if sign > 0 else pc.multiply(v, pa.scalar(-1, pa.int64()))
            return pa.table(cols)

        parts = pa.concat_tables(
            [
                _half(t.filter(has_after), "_after", 1),
                _half(t.filter(has_before), "_before", -1),
            ]
        )
        aggs = [("one", "sum")] + [(s, "sum") for s in self.sums]
        return parts.group_by(list(self.keys)).aggregate(aggs)

    def _finish(self, partials: ray.data.Dataset) -> pa.Table:
        final = partials.groupby(list(self.keys)).aggregate(
            Sum("one_sum", alias_name="n_rows"),
            *[Sum(f"{s}_sum", alias_name=c)
              for s, c in zip(self.sums, self.out_cols)],
        )
        batches = list(final.iter_batches(batch_format="pyarrow"))
        if batches:
            t = pa.concat_tables(batches)
        else:
            # a changeless refresh range (empty committed epoch, no-op
            # merge) yields ZERO aggregate batches — publish an empty
            # version instead of crashing concat (code-review r5)
            t = self.schema.empty_table()
        cols = {k: pc.cast(t[k], pa.string()) for k in self.keys}
        cols["n_rows"] = pc.cast(t["n_rows"], pa.int64())
        for c in self.out_cols:
            cols[c] = pc.cast(t[c], pa.int64())
        return pa.table(cols).sort_by([(k, "ascending") for k in self.keys])

    def _merge(self, stored: pa.Table, delta: pa.Table) -> pa.Table:
        """Stored aggregate + signed delta aggregate; groups whose row
        count cancels to 0 drop out."""
        sum_cols = ["n_rows"] + self.out_cols
        both = pa.concat_tables([stored, delta]).group_by(
            list(self.keys)
        ).aggregate([(c, "sum") for c in sum_cols])
        both = both.filter(pc.not_equal(both["n_rows_sum"], 0))
        cols = {k: pc.cast(both[k], pa.string()) for k in self.keys}
        for c in sum_cols:
            cols[c] = pc.cast(both[f"{c}_sum"], pa.int64())
        return pa.table(cols).sort_by([(k, "ascending") for k in self.keys])

    def _build(self, partials: ray.data.Dataset, stored: str | None,
               out: str) -> dict:
        agg = self._finish(partials)
        if stored is not None:
            agg = self._merge(
                pq.read_table(os.path.join(stored, "agg.parquet")), agg)
        pq.write_table(agg.cast(self.schema), os.path.join(out, "agg.parquet"))
        return {"rows": len(agg)}

    def _noop_stats(self, vdir: str) -> dict:
        return {"rows": pq.read_metadata(
            os.path.join(vdir, "agg.parquet")).num_rows}

    def read(self) -> pa.Table:
        return pq.read_table(os.path.join(self._version_dir(), "agg.parquet"))


class _SignedSetView(_View):
    """Shared machinery for SET-valued incremental views: bucketed
    ``(value, doc_id)`` parquet maintained by SIGNED membership deltas
    from the change feed. Per touched bucket: stored entries (weight 1)
    ∪ deltas, keep ``sum > 0`` — a kept membership of an updated doc
    cancels to 1 (1+1-1), a dropped one to 0, a new one appears at 1.
    Untouched bucket files are HARDLINKED forward. Work is O(changes +
    touched bucket bytes), never O(table) — the property that keeps a
    100-TB secondary index fresh under a trickle of updates.

    Storage: ``v{epoch}/bucket=<b>.parquet`` under the :class:`_View`
    commit protocol. Full build: fold-output rows → exploded pairs →
    ONE shuffle (``groupby(bucket)``) → one sorted file per bucket.

    Subclasses define ``VALUE_COL``, ``_value_type()`` and the pair
    kernels ``_full_kernel`` / ``_delta_kernel`` (emitting
    (bucket:int64, VALUE_COL, doc_id, sign)).

    Multi-node note: bucket-merge tasks read the stored bucket file by
    path, so the view root must be on storage every worker can read —
    the same assumption the table root itself carries.
    """

    VALUE_COL = "value"

    def _value_type(self) -> pa.DataType:
        raise NotImplementedError

    def _pairs_schema(self) -> pa.Schema:
        return pa.schema(
            [("bucket", pa.int64()), (self.VALUE_COL, self._value_type()),
             ("doc_id", pa.string()), ("sign", pa.int64())]
        )

    def _bucket_files(self, d: str | None = None) -> dict[int, str]:
        """bucket → file of version dir ``d`` (default: the current one)."""
        d = self._version_dir() if d is None else d
        out = {}
        for f in os.listdir(d):
            if f.startswith("bucket=") and f.endswith(".parquet"):
                out[int(f[len("bucket="):-len(".parquet")])] = os.path.join(d, f)
        return out

    def read(self) -> pa.Table:
        """Full index table, sorted by (value, doc_id)."""
        files = sorted(self._bucket_files().items())
        if not files:
            return pa.table(
                {self.VALUE_COL: pa.array([], self._value_type()),
                 "doc_id": pa.array([], pa.string())}
            )
        t = pa.concat_tables([pq.read_table(f) for _, f in files])
        return t.sort_by(
            [(self.VALUE_COL, "ascending"), ("doc_id", "ascending")]
        )

    def _build(self, pairs: ray.data.Dataset, stored: str | None,
               out: str) -> dict:
        vcol = self.VALUE_COL

        def _merge_bucket(g: pa.Table, stored=stored, out=out,
                          vcol=vcol) -> pa.Table:
            b = int(g["bucket"][0].as_py())
            parts = [g.select([vcol, "doc_id", "sign"])]
            if stored is not None:
                f = os.path.join(stored, f"bucket={b}.parquet")
                if os.path.exists(f):
                    st = pq.read_table(f)
                    parts.append(
                        st.append_column(
                            "sign", pa.array([1] * st.num_rows, pa.int64())
                        )
                    )
            allt = pa.concat_tables(parts)
            agg = allt.group_by([vcol, "doc_id"]).aggregate([("sign", "sum")])
            keep = agg.filter(pc.greater(agg["sign_sum"], 0))
            keep = keep.select([vcol, "doc_id"]).sort_by(
                [(vcol, "ascending"), ("doc_id", "ascending")]
            )
            # retries may re-run a bucket: unique tmp name + atomic replace
            out_f = os.path.join(out, f"bucket={b}.parquet")
            tmp_f = f"{out_f}.{os.getpid()}.tmp"
            pq.write_table(keep, tmp_f)
            os.replace(tmp_f, out_f)
            return pa.table(
                {"bucket": pa.array([b], pa.int64()),
                 "rows": pa.array([keep.num_rows], pa.int64())}
            )

        markers = pairs.groupby("bucket").map_groups(
            _merge_bucket, batch_format="pyarrow"
        )
        touched = {int(r["bucket"]) for r in markers.take_all()}
        if stored is not None:
            # forward untouched buckets by hardlink — no data movement;
            # copy on filesystems without hardlink support (network /
            # object-store mounts), mirroring Replayer.clone
            for b, f in self._bucket_files(stored).items():
                if b not in touched:
                    dst = os.path.join(out, f"bucket={b}.parquet")
                    try:
                        os.link(f, dst)
                    except OSError:
                        shutil.copy2(f, dst)
        return {"touched_buckets": len(touched)}

    def _noop_stats(self, vdir: str) -> dict:
        return {"touched_buckets": 0}


class PostingsView(_SignedSetView):
    """Incrementally-maintained inverted token index over a Replayer table
    — the SET-valued analog of :class:`AggView`: token → the doc_ids whose
    CURRENT token array contains it (a secondary index on the payload).

    Buckets: ``token mod n_buckets``. Incremental refresh rides the
    PAYLOAD change feed (``with_payload + with_before_payload``): +1 per
    distinct token of an insert/update after-image, -1 per distinct token
    of a delete/update before-image (cancel arithmetic in
    :class:`_SignedSetView`)."""

    KIND = "postings"
    VALUE_COL = "token"

    def __init__(self, root: str, replayer, n_buckets: int | None = None):
        if n_buckets is not None and n_buckets < 1:
            raise ValueError("n_buckets must be >= 1")
        explicit = {} if n_buckets is None else {"n_buckets": int(n_buckets)}
        super().__init__(root, replayer, {"n_buckets": 16}, explicit)
        self.n_buckets = int(self.meta["n_buckets"])

    def _value_type(self) -> pa.DataType:
        return pa.int32()

    def _feed_kwargs(self) -> dict:
        return {"with_payload": True, "with_before_payload": True}

    # ------------------------------------------------------------ kernels --
    def _explode(self, df, tok_col: str, sign: int):
        import polars as pl

        B = self.n_buckets
        d = (
            df.select(
                pl.col("doc_id"),
                pl.col(tok_col).list.unique().alias("token"),
            )
            .explode("token")
            .drop_nulls("token")
        )
        return d.select(
            ((pl.col("token").cast(pl.Int64) % B + B) % B).alias("bucket"),
            pl.col("token").cast(pl.Int32),
            pl.col("doc_id"),
            pl.lit(sign).cast(pl.Int64).alias("sign"),
        )

    def _full_kernel(self, t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(t.select(["doc_id", "tokens"]))
        return self._explode(df, "tokens", 1).to_arrow().cast(
            self._pairs_schema())

    def _delta_kernel(self, t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(
            t.select(["doc_id", "change", "tokens_before", "tokens_after"])
        )
        add = self._explode(
            df.filter(pl.col("change").is_in(["insert", "update"])),
            "tokens_after", 1,
        )
        rem = self._explode(
            df.filter(pl.col("change").is_in(["update", "delete"])),
            "tokens_before", -1,
        )
        return pl.concat([add, rem]).to_arrow().cast(self._pairs_schema())

    def docs_for_tokens(self, tokens, mode: str = "and") -> list[str]:
        """Boolean retrieval over the index: doc_ids containing ALL
        (``mode="and"``) or ANY (``mode="or"``) of ``tokens`` — reads only
        the buckets the query tokens hash to."""
        if mode not in ("and", "or"):
            raise ValueError("mode must be 'and' or 'or'")
        files = self._bucket_files()
        toks = sorted({int(x) for x in tokens})
        if not toks:
            return []
        sets: list[set] = []
        for tok in toks:
            f = files.get(tok % self.n_buckets)
            if f is None:
                sets.append(set())
                continue
            t = pq.read_table(f, filters=[("token", "==", tok)])
            sets.append(set(t["doc_id"].to_pylist()))
        out = set.intersection(*sets) if mode == "and" else set.union(*sets)
        return sorted(out)


#: scalar state columns the token-free change feed carries images for
_INDEXABLE_INT = {"n_tok": pa.int32, "last_lsn": pa.int64}
_INDEXABLE_STR = ("source", "status")


class ScalarIndexView(_SignedSetView):
    """Incrementally-maintained secondary index on a SCALAR state column
    (``n_tok`` / ``last_lsn`` / ``source`` / ``status``) — the lakehouse
    "index on a column" accelerator, maintained from the TOKEN-FREE
    change feed (before/after scalar images only; token arrays never
    move for a refresh).

    Buckets: integer columns are RANGE-binned (``value // bin_width``,
    so ``docs_in_range`` reads only the overlapping bins — a range
    predicate over a 100-TB table touches O(range/bin_width) files);
    string columns are hash-bucketed with the engine's own partitioner
    (equality lookups only). Rows whose column value is null are absent
    from the index (and retracted when an update nulls the value).

    The index binds to the PHYSICAL column name the change feed carries
    (the pre-DDL storage name) — a later ``rename_column`` changes the
    PUBLIC state name but not the feed images, so the index keeps
    maintaining under its original name."""

    KIND = "scalar_index"
    VALUE_COL = "value"

    def __init__(self, root: str, replayer, column: str | None = None,
                 n_buckets: int | None = None, bin_width: int | None = None):
        if column is not None and (
            column not in _INDEXABLE_INT and column not in _INDEXABLE_STR
        ):
            raise ValueError(
                f"column {column!r} not indexable; feed carries "
                f"{sorted(_INDEXABLE_INT) + list(_INDEXABLE_STR)}"
            )
        for v, name in ((n_buckets, "n_buckets"), (bin_width, "bin_width")):
            if v is not None and v < 1:
                raise ValueError(f"{name} must be >= 1")
        explicit = {
            k: v for k, v in (
                ("column", column),
                ("n_buckets", None if n_buckets is None else int(n_buckets)),
                ("bin_width", None if bin_width is None else int(bin_width)),
            ) if v is not None
        }
        super().__init__(root, replayer, {
            "column": "n_tok", "n_buckets": 16, "bin_width": 16,
        }, explicit)
        self.column = self.meta["column"]
        self.n_buckets = int(self.meta["n_buckets"])
        self.bin_width = int(self.meta["bin_width"])

    def _value_type(self) -> pa.DataType:
        if self.column in _INDEXABLE_INT:
            return _INDEXABLE_INT[self.column]()
        return pa.string()

    @property
    def is_int(self) -> bool:
        return self.column in _INDEXABLE_INT

    # ------------------------------------------------------------ kernels --
    def _buckets_of(self, values: pa.ChunkedArray | pa.Array) -> pa.Array:
        if self.is_int:
            v = pc.cast(values, pa.int64()).to_numpy(zero_copy_only=False)
            return pa.array(np.floor_divide(v, self.bin_width), pa.int64())
        from marc_data_migration_ray.functions.keys import hash_partition

        return pc.cast(hash_partition(values, self.n_buckets), pa.int64())

    def _pairs(self, t: pa.Table, val_col: str, sign: int) -> pa.Table:
        keep = t.filter(pc.is_valid(t[val_col]))
        vals = pc.cast(keep[val_col], self._value_type())
        return pa.table(
            {"bucket": self._buckets_of(vals),
             self.VALUE_COL: vals,
             "doc_id": keep["doc_id"],
             "sign": pa.array([sign] * keep.num_rows, pa.int64())}
        ).cast(self._pairs_schema())

    def _full_kernel(self, t: pa.Table) -> pa.Table:
        return self._pairs(t.select(["doc_id", self.column]), self.column, 1)

    def _delta_kernel(self, t: pa.Table) -> pa.Table:
        add = self._pairs(
            t.filter(pc.is_in(t["change"],
                              value_set=pa.array(["insert", "update"])))
             .select(["doc_id", f"{self.column}_after"]),
            f"{self.column}_after", 1,
        )
        rem = self._pairs(
            t.filter(pc.is_in(t["change"],
                              value_set=pa.array(["update", "delete"])))
             .select(["doc_id", f"{self.column}_before"]),
            f"{self.column}_before", -1,
        )
        return pa.concat_tables([add, rem])

    # ------------------------------------------------------------ queries --
    def docs_where_eq(self, value) -> list[str]:
        """doc_ids whose current column value equals ``value`` — reads one
        bucket file."""
        files = self._bucket_files()
        b = self._buckets_of(pa.array([value], self._value_type()))[0].as_py()
        f = files.get(b)
        if f is None:
            return []
        t = pq.read_table(f, filters=[("value", "==", value)])
        return sorted(t["doc_id"].to_pylist())

    def docs_in_range(self, lo: int, hi: int) -> list[tuple]:
        """(value, doc_id) pairs with ``lo <= value <= hi`` (integer
        columns only) — reads only the overlapping range bins."""
        if not self.is_int:
            raise ValueError("range queries need an integer column")
        if hi < lo:
            return []
        files = self._bucket_files()
        out = []
        for b in range(lo // self.bin_width, hi // self.bin_width + 1):
            f = files.get(b)
            if f is None:
                continue
            t = pq.read_table(
                f, filters=[("value", ">=", lo), ("value", "<=", hi)]
            )
            out.extend(zip(t["value"].to_pylist(), t["doc_id"].to_pylist()))
        return sorted(out)


#: a version dir: ``v{epoch}``, or ``v{epoch}_{k}`` (see _View._unused_version)
_VERSION_DIR = re.compile(r"v(-?\d+)(?:_(\d+))?")


def vacuum_view_versions(root: str, retain: int = 1) -> dict:
    """Reclaim superseded view versions: every refresh publishes a new
    version dir and swaps ``CURRENT`` — old dirs stay for concurrent
    stale readers (same discipline as the table's snapshot retention).
    Keeps the CURRENT version plus the ``retain`` most recent superseded
    ones, and clears crashed refreshes' ``_tmp_*`` dirs. Views are
    single-writer by design — don't vacuum concurrently with a refresh."""
    marker = _current(root)
    cur = None if marker is None else marker["dir"]
    vdirs = sorted(
        (d for d in os.listdir(root)
         if _VERSION_DIR.fullmatch(d) and d != cur),
        key=lambda d: tuple(
            int(x or 0) for x in _VERSION_DIR.fullmatch(d).groups()),
    )
    drop_v = vdirs[:-retain] if retain else vdirs
    tmps = [d for d in os.listdir(root)
            if d.startswith("_tmp_") and os.path.isdir(os.path.join(root, d))]
    freed = 0
    for d in drop_v + tmps:
        p = os.path.join(root, d)
        freed += sum(
            os.path.getsize(os.path.join(dp, f))
            for dp, _, fs in os.walk(p) for f in fs
        )
        shutil.rmtree(p)
    return {"removed": len(drop_v), "tmp_removed": len(tmps),
            "kept": len(vdirs) - len(drop_v) + (1 if cur else 0),
            "bytes_freed": freed}


_MH_SIG_MASK = (1 << 59) - 1


def _token_sigs_with(mh, tokens) -> tuple["np.ndarray", "np.ndarray"]:
    """ListArray of int tokens → (row_index, packed ``band<<59|bucket``
    sig) pairs for rows with ≥1 token; fully vectorized. Shared by the
    view's maintenance kernels and the distributed batch prober (the
    probe stage must hash EXACTLY like maintenance or candidates are
    silently lost)."""
    if isinstance(tokens, pa.ChunkedArray):
        tokens = tokens.combine_chunks()
    lens = np.asarray(
        pc.fill_null(pc.list_value_length(tokens), 0)
    ).astype(np.int64)
    flat_pa = tokens.flatten()
    vmask = (pc.is_valid(flat_pa).to_numpy(zero_copy_only=False)
             if len(flat_pa) else np.empty(0, bool))
    if not vmask.all():
        # null ELEMENTS inside token lists: np.asarray would go float64
        # and NaN→uint64 is platform-dependent C-cast UB (code-review
        # r5) — drop them like PostingsView._explode does and re-base
        # the per-row lengths so signatures stay deterministic
        cum = np.zeros(len(vmask) + 1, np.int64)
        np.cumsum(vmask, out=cum[1:])
        off0 = np.zeros(len(lens) + 1, np.int64)
        np.cumsum(lens, out=off0[1:])
        lens = cum[off0[1:]] - cum[off0[:-1]]
        flat_pa = flat_pa.drop_null()
    keep = np.flatnonzero(lens > 0)
    if not keep.size:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    flat = np.asarray(flat_pa).astype(np.uint64)
    all_off = np.zeros(len(lens) + 1, np.int64)
    np.cumsum(lens, out=all_off[1:])
    with np.errstate(over="ignore"):
        wh = (flat ^ np.uint64(0xCBF29CE484222325)) \
            * np.uint64(0x100000001B3)
    # compact to kept docs only (empty docs contribute no flat values,
    # so offsets just need re-basing over the kept segments) — one
    # repeat/cumsum gather, no per-doc Python
    klens = lens[keep]
    koff = np.zeros(keep.size + 1, np.int64)
    np.cumsum(klens, out=koff[1:])
    if keep.size == len(lens):
        kvals = wh
    else:
        within = np.arange(int(koff[-1]), dtype=np.int64) - np.repeat(
            koff[:-1], klens)
        kvals = wh[np.repeat(all_off[keep], klens) + within]
    buckets = mh.band_buckets(kvals, koff)  # (kept, n_bands)
    nb = buckets.shape[1]
    bands = np.tile(np.arange(nb, dtype=np.uint64), keep.size)
    sig = ((bands << np.uint64(59))
           | (buckets.reshape(-1) & np.uint64(_MH_SIG_MASK)))
    return np.repeat(keep, nb), sig.view(np.int64)


def _probe_sig_buckets(files: dict[int, str], n_buckets: int,
                       idx: np.ndarray, sig: np.ndarray) -> dict[int, set]:
    """Row index → the index doc_ids sharing ≥1 signature entry with
    that row, for the (row, sig) pairs of :func:`_token_sigs_with`.
    Reads ONLY the buckets the sigs land in, filtered to those sigs at
    the parquet scan. Shared by the point and the batch probe."""
    by_bucket: dict[int, list[tuple[int, int]]] = {}
    for i, s in zip(idx.tolist(), sig.tolist()):
        by_bucket.setdefault(int(s % n_buckets), []).append((i, s))
    hits: dict[int, set] = {}
    for b, entries in sorted(by_bucket.items()):
        f = files.get(b)
        if f is None:
            continue
        want = sorted({s for _, s in entries})
        t = pq.read_table(f, filters=[("sig", "in", want)])
        sig_to_docs: dict[int, set] = {}
        for s, d in zip(t["sig"].to_pylist(), t["doc_id"].to_pylist()):
            sig_to_docs.setdefault(s, set()).add(d)
        for i, s in entries:
            if s in sig_to_docs:
                hits.setdefault(i, set()).update(sig_to_docs[s])
    return hits


def _sig_collision_pairs(t: pa.Table, cap: int) -> tuple[list, int]:
    """Pairs from one sorted (sig, doc_id) bucket table (shared by the
    Ray task below and any in-process caller)."""
    sig = np.asarray(t["sig"].to_numpy(zero_copy_only=False))
    ids = t["doc_id"].to_pylist()
    pairs: list = []
    dropped = 0
    # bucket files are sorted by (sig, doc_id): group by run
    bounds = np.flatnonzero(np.r_[1, sig[1:] != sig[:-1], 1]) \
        if len(sig) else np.zeros(1, np.int64)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        n = hi - lo
        if n < 2:
            continue
        grp = ids[lo:hi]
        if n > cap:
            dropped += n * (n - 1) // 2 - cap * (cap - 1) // 2
            grp = grp[:cap]
        for i in range(len(grp)):
            for j in range(i + 1, len(grp)):
                pairs.append((grp[i], grp[j]))
    return pairs, dropped


@ray.remote(num_cpus=1)
def _sig_bucket_pairs_task(path: str, cap: int):
    return _sig_collision_pairs(pq.read_table(path), cap)


class MinHashIndexView(_SignedSetView):
    """Incrementally-maintained MinHash-LSH near-dup index over a
    Replayer table's TOKEN payloads — the streaming form of
    ``pipelines/dedup.dedup_minhash``: instead of re-shingling the corpus
    per run, the banded signature entries live as a SET-valued secondary
    index maintained by signed deltas from the PAYLOAD change feed
    (+sigs of an insert/update after-image, −sigs of a delete/update
    before-image — the exact :class:`PostingsView` arithmetic). A 100-TB
    table under a trickle of updates keeps near-dup candidates fresh at
    O(changes) per epoch, not O(corpus).

    value = one int64 per (band, bucket-key) signature entry:
    ``band << 59 | (bucket & (2^59-1))`` (16 bands ⇒ 4 bits; bucket keys
    are 63-bit FNV — the 4 dropped bits only merge LSH buckets, which can
    add candidates, never lose them). Docs with NULL/empty token arrays
    emit no entries (an empty doc is no one's near-duplicate, and a
    shared "empty" signature would be a pathological bucket).

    Token hashing mirrors the text pipeline: per-token 64-bit mix, then
    :meth:`MinHasher.band_buckets` (rolling k-shingles → permutations →
    banded FNV) — so a pair's candidate-probability curve is the
    documented 16×4 banding one."""

    KIND = "minhash_index"
    VALUE_COL = "sig"

    def __init__(self, root: str, replayer, n_buckets: int | None = None,
                 num_perm: int | None = None, n_bands: int | None = None,
                 shingle: int | None = None):
        explicit = {
            k: int(v) for k, v in
            (("n_buckets", n_buckets), ("num_perm", num_perm),
             ("n_bands", n_bands), ("shingle", shingle))
            if v is not None
        }
        defaults = {"n_buckets": 16, "num_perm": 64, "n_bands": 16,
                    "shingle": 3}
        params = {**defaults, **explicit}
        for k in ("n_buckets", "num_perm", "n_bands", "shingle"):
            if params[k] < 1:
                raise ValueError(f"{k} must be >= 1, got {params[k]}")
        if params["num_perm"] % params["n_bands"]:
            raise ValueError(
                f"n_bands ({params['n_bands']}) must divide num_perm "
                f"({params['num_perm']})")
        super().__init__(root, replayer, defaults, explicit)
        self.n_buckets = int(self.meta["n_buckets"])
        from marc_data_migration_ray.pipelines.dedup import MinHasher

        self._mh = MinHasher(
            num_perm=int(self.meta["num_perm"]),
            n_bands=int(self.meta["n_bands"]),
            shingle=int(self.meta["shingle"]),
        )

    def _value_type(self) -> pa.DataType:
        return pa.int64()

    def _feed_kwargs(self) -> dict:
        return {"with_payload": True, "with_before_payload": True}

    # ------------------------------------------------------------ kernels --
    def _token_sigs(self, tokens) -> tuple[np.ndarray, np.ndarray]:
        """ListArray of int tokens → (doc_index, packed sig) pairs for
        docs with ≥1 token; fully vectorized."""
        return _token_sigs_with(self._mh, tokens)

    def _sig_table(self, doc_ids, tokens, sign: int) -> pa.Table:
        idx, sig = self._token_sigs(tokens)
        ids = pc.cast(doc_ids, pa.string())
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        return pa.table(
            {
                "bucket": pa.array(sig % self.n_buckets, pa.int64()),
                "sig": pa.array(sig, pa.int64()),
                "doc_id": ids.take(pa.array(idx, pa.int64())),
                "sign": pa.array(np.full(len(idx), sign, np.int64)),
            }
        )

    def _full_kernel(self, t: pa.Table) -> pa.Table:
        return self._sig_table(t["doc_id"], t["tokens"], 1).cast(
            self._pairs_schema())

    def _delta_kernel(self, t: pa.Table) -> pa.Table:
        ch = t["change"]
        ta = t.filter(pc.is_in(
            ch, value_set=pa.array(["insert", "update"], pa.string())))
        tr = t.filter(pc.is_in(
            ch, value_set=pa.array(["update", "delete"], pa.string())))
        out = [
            self._sig_table(ta["doc_id"], ta["tokens_after"], 1),
            self._sig_table(tr["doc_id"], tr["tokens_before"], -1),
        ]
        return pa.concat_tables(out).cast(self._pairs_schema())

    # ------------------------------------------------------------- probes --
    def candidate_pairs(self, cap: int = 256) -> tuple[set, int]:
        """All candidate near-dup pairs the index implies: every sig held
        by ≥2 docs yields its doc pairs (the LSH-dedup read). Sig groups
        over ``cap`` docs contribute their first ``cap`` (sorted) with the
        skipped pair count returned — no silent drops. One Ray task per
        bucket file (the driver only merges output-sized pair sets).
        Returns (set of (doc_a, doc_b) with doc_a < doc_b, n_dropped)."""
        refs = [
            _sig_bucket_pairs_task.remote(f, cap)
            for _, f in sorted(self._bucket_files().items())
        ]
        pairs: set = set()
        dropped = 0
        for p, d in ray.get(refs):
            pairs.update(p)
            dropped += d
        return pairs, dropped

    def candidates_for_tokens(self, token_lists: list) -> list[set]:
        """Point probes: for each token array, the doc_ids sharing ≥1
        signature entry with it — reads ONLY the probed sigs' buckets."""
        arr = pa.array(
            [list(x) if x is not None else [] for x in token_lists],
            pa.list_(pa.int64()),
        )
        idx, sig = self._token_sigs(arr)
        hits = _probe_sig_buckets(self._bucket_files(), self.n_buckets,
                                  idx, sig)
        return [hits.get(i, set()) for i in range(len(token_lists))]

    def candidate_pairs_ds(self, cap: int = 65536) -> ray.data.Dataset:
        """Distributed form of :meth:`candidate_pairs`: one Ray task per
        bucket file emits its sig-collision pairs, a pair-sized
        ``groupby`` dedupes across bands/files, and NOTHING rides the
        driver — the shape the 100-TB dedup read needs (the set-returning
        variant funnels every pair through one process). A sig group over
        ``cap`` docs RAISES instead of silently dropping pairs (ADVICE
        r3: a capped drop surfaces downstream as a generic oracle
        mismatch, not a recall diagnosis); the default cap is high
        because verification no longer bottlenecks on the driver — it
        only fences a pathological mega-bucket (cap² pair blowup).
        Returns Dataset[(doc_a: string, doc_b: string)], doc_a < doc_b,
        deduplicated.

        Snapshot contract: the lazy Dataset binds to the CURRENT view
        version's bucket files at call time — consume (or materialize)
        it before a later ``refresh`` + ``vacuum_view_versions`` may
        reclaim that version, exactly like any snapshot reader vs
        ``vacuum`` (keep ``retain ≥ 1`` superseded versions while
        deferred readers exist)."""
        paths = [f for _, f in sorted(self._bucket_files().items())]

        def _file_pairs(t: pa.Table, cap=cap) -> pa.Table:
            out_a: list = []
            out_b: list = []
            for p in t["path"].to_pylist():
                pairs, dropped = _sig_collision_pairs(pq.read_table(p), cap)
                if dropped:
                    raise RuntimeError(
                        f"minhash index bucket {p}: {dropped} candidate "
                        f"pairs over cap={cap} — raise cap or add bands; "
                        "refusing to silently lose recall")
                out_a.extend(a for a, _ in pairs)
                out_b.extend(b for _, b in pairs)
            return pa.table({"doc_a": pa.array(out_a, pa.string()),
                             "doc_b": pa.array(out_b, pa.string())})

        from ray.data.aggregate import Count

        raw = ray.data.from_items(
            [{"path": p} for p in paths]
        ).map_batches(_file_pairs, batch_format="pyarrow", batch_size=1)
        return raw.groupby(["doc_a", "doc_b"]).aggregate(
            Count(alias_name="_nb")
        ).map_batches(lambda t: t.select(["doc_a", "doc_b"]),
                      batch_format="pyarrow", zero_copy_batch=True)

    def probe_candidates_ds(self, probes: ray.data.Dataset,
                            id_col: str = "doc_id",
                            tok_col: str = "tokens") -> ray.data.Dataset:
        """Distributed form of :meth:`candidates_for_tokens`: a stateless
        task pool probes the index per BATCH of incoming docs — each task
        hashes its batch's tokens (the exact maintenance kernel), then
        reads ONLY the buckets its sigs land in, filtered to those sigs
        at the parquet scan. Incoming tokens never visit the driver and
        probe cost is O(incoming + touched buckets), not O(corpus).
        Returns Dataset[(probe_id: string, match_id: string)], distinct
        (each probe id must appear in exactly one input batch)."""
        prober = _MinHashBatchProber(
            self._bucket_files(), self.n_buckets, self._mh, id_col, tok_col)
        return probes.map_batches(
            prober, batch_format="pyarrow", batch_size=4096)


class _MinHashBatchProber:
    """Per-batch index probe (see ``probe_candidates_ds``). A plain
    callable instance (stateless task pool, not an actor pool): the
    MinHasher permutation state is ~1 KiB of seeded arrays — cheap to
    ship per task, and an actor pool would only add cold-start latency
    (the ninth-session task-pool-sweep rule)."""

    def __init__(self, files: dict[int, str], n_buckets: int, mh,
                 id_col: str, tok_col: str):
        self.files = dict(files)
        self.n_buckets = int(n_buckets)
        self._mh = mh
        self.id_col = id_col
        self.tok_col = tok_col

    def __call__(self, t: pa.Table) -> pa.Table:
        idx, sig = _token_sigs_with(self._mh, t[self.tok_col])
        ids = pc.cast(t[self.id_col], pa.string())
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        id_list = ids.to_pylist()
        hits = _probe_sig_buckets(self.files, self.n_buckets, idx, sig)
        pairs = sorted({(id_list[i], d) for i, ds in hits.items() for d in ds})
        probe, match = [p for p, _ in pairs], [m for _, m in pairs]
        return pa.table({"probe_id": pa.array(probe, pa.string()),
                         "match_id": pa.array(match, pa.string())})


#: ``META.json`` kind → the class that reopens it
_VIEW_CLASSES = {cls.KIND: cls for cls in
                 (AggView, PostingsView, ScalarIndexView, MinHashIndexView)}


def open_view(root: str, replayer) -> _View:
    """Reopen ANY materialized view from its ``META.json`` ``kind`` tag
    (agg / postings / scalar_index / minhash_index) — what
    ``follow --refresh-view`` uses to keep a set of heterogeneous views
    fresh during streaming ingest without being told their types."""
    meta_p = os.path.join(root, "META.json")
    if not os.path.exists(meta_p):
        raise ValueError(
            f"{root}: no META.json — create the view once with its "
            "concrete class ("
            + " / ".join(c.__name__ for c in _VIEW_CLASSES.values())
            + ") first"
        )
    with open(meta_p) as f:
        kind = json.load(f).get("kind")
    if kind not in _VIEW_CLASSES:
        raise ValueError(f"{root}: unknown view kind {kind!r}")
    return _VIEW_CLASSES[kind](root, replayer)


#: backward-compatible (source, n_rows, n_tok_sum) view
class SourceCountsView(AggView):
    """Materialized (source, n_rows, n_tok_sum) view of a Replayer table."""

    def __init__(self, root: str, replayer):
        super().__init__(root, replayer, keys=("source",), sums=("n_tok",))
