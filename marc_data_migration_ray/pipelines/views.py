"""Incrementally-maintained materialized aggregate views over a Replayer
table, driven by the change-data feed.

``AggView(root, rp, keys, sums)`` materializes
``GROUP BY keys → (n_rows, <col>_sum ...)`` over the CURRENT state for any
key/sum columns the change feed carries (``source``, ``status`` /
``n_tok``, ``last_lsn``). After the first build it is maintained from
``changes_between`` alone — the base table is never re-folded:

* full build (first refresh, or when compaction swallowed the last
  refreshed epoch): distributed per-batch partial aggregation over the
  fold output → one tiny ``groupby(keys).sum``;
* incremental refresh: each change row contributes SIGNED deltas —
  ``+after`` for inserts, ``-before`` for deletes, both for updates (so
  a key-changing update moves the row between groups) — aggregated per
  batch, then merged with the stored aggregate. Work is O(changes),
  not O(table): the scale property that makes a 100-TB view cheap to
  keep fresh under a trickle of updates.

Only count/sum aggregates are supported — they are the self-maintainable
ones (a min/max view cannot be maintained under deletes without
re-reading the group; that is a rebuild, not a view refresh).

Null sum values contribute 0 on both paths (sum skips nulls on the full
path; explicit fill on the incremental path), so the two paths are
exactly equivalent — asserted in tests.

Commit protocol: the aggregate parquet lands in ``v{epoch}/`` and a JSON
``CURRENT`` marker is swapped in via tmp-file + ``os.replace`` (atomic
on POSIX) — same crash discipline as the table manifest; a torn refresh
leaves the previous version current. Single-writer by design (views are
derived data; rebuild is always safe).
"""

from __future__ import annotations

import json
import os
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


class AggView:
    """Materialized ``GROUP BY keys → (n_rows, <sum>_sum...)`` view."""

    def __init__(self, root: str, replayer, keys=None, sums=None):
        # sticky meta: a reopened view keeps the keys/sums it was built
        # with (and records its kind so ``open_view`` can reconstruct it).
        # Omitted args (None) adopt the stored definition; EXPLICIT args
        # that mismatch the stored META raise — silently refreshing a
        # different view than the caller asked for is a correctness trap.
        meta_p = os.path.join(root, "META.json")
        if os.path.exists(meta_p):
            meta = json.loads(open(meta_p).read())
            if meta.get("kind") != "agg":
                raise ValueError(
                    f"{root}: stored view kind is {meta.get('kind')!r}, "
                    "not 'agg' — refreshing it as AggView would overwrite "
                    "another view's data")
            stored = (tuple(meta["keys"]), tuple(meta["sums"]))
            for name, want in (("keys", keys), ("sums", sums)):
                got = stored[0] if name == "keys" else stored[1]
                if want is not None and tuple(want) != got:
                    raise ValueError(
                        f"{root}: view was built with {name}={got}, "
                        f"caller passed {name}={tuple(want)} — reopen with "
                        "matching args (or omit them) or use a new root"
                    )
            keys, sums = stored
        else:
            keys = ("source",) if keys is None else keys
            sums = ("n_tok",) if sums is None else sums
        for k in keys:
            if k not in FEED_KEY_COLS:
                raise ValueError(f"key {k!r} not in change feed {FEED_KEY_COLS}")
        for s in sums:
            if s not in FEED_SUM_COLS:
                raise ValueError(f"sum {s!r} not in change feed {FEED_SUM_COLS}")
        if not keys:
            raise ValueError("need at least one key column")
        self.root = root
        self.rp = replayer
        self.keys = tuple(keys)
        self.sums = tuple(sums)
        if not os.path.exists(meta_p):
            os.makedirs(root, exist_ok=True)
            tmp = meta_p + ".tmp"
            with open(tmp, "w") as f:
                f.write(json.dumps({"kind": "agg", "keys": list(self.keys),
                                    "sums": list(self.sums)}))
            os.replace(tmp, meta_p)
        self.out_cols = [f"{s}_sum" for s in self.sums]
        self.schema = pa.schema(
            [(k, pa.string()) for k in self.keys]
            + [("n_rows", pa.int64())]
            + [(c, pa.int64()) for c in self.out_cols]
        )
        os.makedirs(root, exist_ok=True)

    # ------------------------------------------------------------ kernels --
    def _partial(self, t: pa.Table) -> pa.Table:
        cols = {k: t[k] for k in self.keys}
        cols["one"] = pa.array([1] * t.num_rows, pa.int64())
        for s in self.sums:
            cols[s] = pc.fill_null(pc.cast(t[s], pa.int64()), 0)
        aggs = [("one", "sum")] + [(s, "sum") for s in self.sums]
        return pa.table(cols).group_by(list(self.keys)).aggregate(aggs)

    def _delta_partial(self, t: pa.Table) -> pa.Table:
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
            t = pa.table({
                **{k: pa.array([], pa.string()) for k in self.keys},
                "n_rows": pa.array([], pa.int64()),
                **{c: pa.array([], pa.int64()) for c in self.out_cols},
            })
        cols = {k: pc.cast(t[k], pa.string()) for k in self.keys}
        cols["n_rows"] = pc.cast(t["n_rows"], pa.int64())
        for c in self.out_cols:
            cols[c] = pc.cast(t[c], pa.int64())
        return pa.table(cols).sort_by([(k, "ascending") for k in self.keys])

    # ------------------------------------------------------------- state --
    def _current(self) -> dict | None:
        p = os.path.join(self.root, "CURRENT")
        if not os.path.exists(p):
            return None
        return json.loads(open(p).read())

    def last_epoch(self) -> int | None:
        cur = self._current()
        return None if cur is None else cur["epoch"]

    def vacuum_versions(self, retain: int = 1) -> dict:
        return vacuum_view_versions(self.root, retain)

    def read(self) -> pa.Table:
        cur = self._current()
        if cur is None:
            raise ValueError("view was never refreshed")
        return pq.read_table(os.path.join(self.root, cur["dir"], "agg.parquet"))

    # ----------------------------------------------------------- refresh --
    def refresh(self, to_epoch: int | None = None) -> dict:
        to_epoch, last = _refresh_target(self.rp, self._current(), to_epoch)
        if last == to_epoch:
            cur = self._current()
            n = pq.read_metadata(os.path.join(
                self.root, cur["dir"], "agg.parquet")).num_rows
            return {"epoch": to_epoch, "mode": "noop", "rows": n}

        floor = self.rp.manifest.last_compacted_epoch()
        if last is None or last < floor:
            # full build (first refresh, or the incremental base epoch was
            # compacted away and can no longer be folded). Reads the raw
            # fold rows — CANONICAL column names, pre-policy — because
            # that is exactly what the change feed carries; building from
            # read_state would bake policy/rename transforms into the full
            # path that incremental refreshes could never reproduce.
            partials = self.rp.fold_output(up_to_epoch=to_epoch).map_batches(
                self._partial, batch_format="pyarrow", zero_copy_batch=True
            )
            agg = self._finish(partials)
            mode = "full"
        else:
            deltas = self.rp.changes_between(last, to_epoch).map_batches(
                self._delta_partial, batch_format="pyarrow", zero_copy_batch=True
            )
            merged = self._finish(deltas)
            stored = self.read()
            sum_cols = ["n_rows"] + self.out_cols
            both = pa.concat_tables([stored, merged]).group_by(
                list(self.keys)
            ).aggregate([(c, "sum") for c in sum_cols])
            both = both.filter(pc.not_equal(both["n_rows_sum"], 0))
            cols = {k: pc.cast(both[k], pa.string()) for k in self.keys}
            for c in sum_cols:
                cols[c] = pc.cast(both[f"{c}_sum"], pa.int64())
            agg = pa.table(cols).sort_by(
                [(k, "ascending") for k in self.keys]
            )
            mode = "incremental"

        vdir = f"v{to_epoch}"
        tmp = os.path.join(self.root, f"_tmp_{vdir}")
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        pq.write_table(agg.cast(self.schema), os.path.join(tmp, "agg.parquet"))
        final = os.path.join(self.root, vdir)
        shutil.rmtree(final, ignore_errors=True)
        os.rename(tmp, final)
        marker_tmp = os.path.join(self.root, "_CURRENT.tmp")
        with open(marker_tmp, "w") as f:
            f.write(json.dumps({"epoch": to_epoch, "dir": vdir,
                                "fp": _epoch_fp(self.rp, to_epoch)}))
        os.replace(marker_tmp, os.path.join(self.root, "CURRENT"))
        return {"epoch": to_epoch, "mode": mode, "rows": len(agg)}


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
    """Shared view-refresh preconditions: resolve the target epoch,
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


class _SignedSetView:
    """Shared machinery for SET-valued incremental views: bucketed
    ``(value, doc_id)`` parquet maintained by SIGNED membership deltas
    from the change feed. Per touched bucket: stored entries (weight 1)
    ∪ deltas, keep ``sum > 0`` — a kept membership of an updated doc
    cancels to 1 (1+1-1), a dropped one to 0, a new one appears at 1.
    Untouched bucket files are HARDLINKED forward. Work is O(changes +
    touched bucket bytes), never O(table) — the property that keeps a
    100-TB secondary index fresh under a trickle of updates.

    Storage: ``v{epoch}/bucket=<b>.parquet`` + the same atomic tmp-dir +
    ``CURRENT``-marker commit protocol as :class:`AggView` (a torn
    refresh leaves the previous version current). Full build (first
    refresh, or the base epoch was compacted away / rolled back):
    fold-output rows → exploded pairs → ONE shuffle
    (``groupby(bucket)``) → one sorted file per bucket.

    Subclasses define ``VALUE_COL``, ``_value_type()``, the pair kernels
    ``_full_pairs`` / ``_delta_pairs`` (emitting
    (bucket:int64, VALUE_COL, doc_id, sign)) and ``_feed_kwargs()``.

    Multi-node note: bucket-merge tasks read the stored bucket file by
    path, so the view root must be on storage every worker can read —
    the same assumption the table root itself carries.
    """

    VALUE_COL = "value"

    def __init__(self, root: str, replayer, meta_defaults: dict,
                 explicit: dict | None = None):
        """``meta_defaults`` seeds a NEW view's META; ``explicit`` holds
        only the params the caller actually passed — on reopen these are
        validated against the stored META (mismatch raises; silently
        maintaining a different index than asked for is a correctness
        trap). Omitted params adopt the stored definition."""
        self.root = root
        self.rp = replayer
        os.makedirs(root, exist_ok=True)
        meta_p = os.path.join(root, "META.json")
        if os.path.exists(meta_p):
            self.meta = json.loads(open(meta_p).read())
            want_kind = meta_defaults.get("kind")
            got_kind = self.meta.get("kind")
            if want_kind is not None and got_kind != want_kind:
                raise ValueError(
                    f"{root}: stored view kind is {got_kind!r}, not "
                    f"{want_kind!r} — refreshing it as this class would "
                    "overwrite another view's data")
            for k, want in (explicit or {}).items():
                got = self.meta.get(k)
                if want != got:
                    raise ValueError(
                        f"{root}: view was built with {k}={got!r}, caller "
                        f"passed {k}={want!r} — reopen with matching args "
                        "(or omit them) or use a new root"
                    )
        else:
            self.meta = dict(meta_defaults)
            tmp = meta_p + ".tmp"
            with open(tmp, "w") as f:
                f.write(json.dumps(self.meta))
            os.replace(tmp, meta_p)

    # ------------------------------------------------------ subclass API --
    def _value_type(self) -> pa.DataType:
        raise NotImplementedError

    def _full_pairs(self, t: pa.Table) -> pa.Table:
        raise NotImplementedError

    def _delta_pairs(self, t: pa.Table) -> pa.Table:
        raise NotImplementedError

    def _feed_kwargs(self) -> dict:
        return {}

    def _pairs_schema(self) -> pa.Schema:
        return pa.schema(
            [("bucket", pa.int64()), (self.VALUE_COL, self._value_type()),
             ("doc_id", pa.string()), ("sign", pa.int64())]
        )

    # ------------------------------------------------------------- state --
    def _current(self) -> dict | None:
        p = os.path.join(self.root, "CURRENT")
        if not os.path.exists(p):
            return None
        return json.loads(open(p).read())

    def last_epoch(self) -> int | None:
        cur = self._current()
        return None if cur is None else cur["epoch"]

    def vacuum_versions(self, retain: int = 1) -> dict:
        return vacuum_view_versions(self.root, retain)

    def _bucket_files(self, vdir: str) -> dict[int, str]:
        d = os.path.join(self.root, vdir)
        out = {}
        for f in os.listdir(d):
            if f.startswith("bucket=") and f.endswith(".parquet"):
                out[int(f[len("bucket="):-len(".parquet")])] = os.path.join(d, f)
        return out

    def read(self) -> pa.Table:
        """Full index table, sorted by (value, doc_id)."""
        cur = self._current()
        if cur is None:
            raise ValueError("view was never refreshed")
        files = sorted(self._bucket_files(cur["dir"]).items())
        if not files:
            return pa.table(
                {self.VALUE_COL: pa.array([], self._value_type()),
                 "doc_id": pa.array([], pa.string())}
            )
        t = pa.concat_tables([pq.read_table(f) for _, f in files])
        return t.sort_by(
            [(self.VALUE_COL, "ascending"), ("doc_id", "ascending")]
        )

    # ----------------------------------------------------------- refresh --
    def refresh(self, to_epoch: int | None = None) -> dict:
        to_epoch, last = _refresh_target(self.rp, self._current(), to_epoch)
        if last == to_epoch:
            return {"epoch": to_epoch, "mode": "noop",
                    "touched_buckets": 0}

        floor = self.rp.manifest.last_compacted_epoch()
        stored_dir = None
        if last is None or last < floor:
            # full build from the raw fold rows (canonical names, as the
            # change feed carries them)
            pairs = self.rp.fold_output(up_to_epoch=to_epoch).map_batches(
                self._full_pairs, batch_format="pyarrow", zero_copy_batch=True
            )
            mode = "full"
        else:
            feed = self.rp.changes_between(
                last, to_epoch, **self._feed_kwargs()
            )
            pairs = feed.map_batches(
                self._delta_pairs, batch_format="pyarrow", zero_copy_batch=True
            )
            stored_dir = os.path.join(self.root, self._current()["dir"])
            mode = "incremental"

        vdir = f"v{to_epoch}"
        tmp = os.path.join(self.root, f"_tmp_{vdir}")
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        vcol = self.VALUE_COL

        def _merge_bucket(g: pa.Table, stored_dir=stored_dir, tmp=tmp,
                          vcol=vcol) -> pa.Table:
            b = int(g["bucket"][0].as_py())
            parts = [g.select([vcol, "doc_id", "sign"])]
            if stored_dir is not None:
                f = os.path.join(stored_dir, f"bucket={b}.parquet")
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
            out_f = os.path.join(tmp, f"bucket={b}.parquet")
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
        if stored_dir is not None:
            # forward untouched buckets by hardlink — no data movement;
            # copy on filesystems without hardlink support (network /
            # object-store mounts), mirroring Replayer.clone
            for b, f in self._bucket_files(self._current()["dir"]).items():
                if b not in touched:
                    dst = os.path.join(tmp, f"bucket={b}.parquet")
                    try:
                        os.link(f, dst)
                    except OSError:
                        shutil.copy2(f, dst)
        final = os.path.join(self.root, vdir)
        shutil.rmtree(final, ignore_errors=True)
        os.rename(tmp, final)
        marker_tmp = os.path.join(self.root, "_CURRENT.tmp")
        with open(marker_tmp, "w") as f:
            f.write(json.dumps({"epoch": to_epoch, "dir": vdir,
                                "fp": _epoch_fp(self.rp, to_epoch)}))
        os.replace(marker_tmp, os.path.join(self.root, "CURRENT"))
        return {"epoch": to_epoch, "mode": mode,
                "touched_buckets": len(touched)}


class PostingsView(_SignedSetView):
    """Incrementally-maintained inverted token index over a Replayer table
    — the SET-valued analog of :class:`AggView`: token → the doc_ids whose
    CURRENT token array contains it (a secondary index on the payload).

    Buckets: ``token mod n_buckets``. Incremental refresh rides the
    PAYLOAD change feed (``with_payload + with_before_payload``): +1 per
    distinct token of an insert/update after-image, -1 per distinct token
    of a delete/update before-image (cancel arithmetic and commit
    protocol in :class:`_SignedSetView`)."""

    VALUE_COL = "token"

    def __init__(self, root: str, replayer, n_buckets: int | None = None):
        if n_buckets is not None and n_buckets < 1:
            raise ValueError("n_buckets must be >= 1")
        explicit = {} if n_buckets is None else {"n_buckets": int(n_buckets)}
        super().__init__(
            root, replayer,
            {"kind": "postings",
             "n_buckets": 16 if n_buckets is None else int(n_buckets)},
            explicit=explicit,
        )
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

    def _full_pairs(self, t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(t.select(["doc_id", "tokens"]))
        return self._explode(df, "tokens", 1).to_arrow().cast(
            self._pairs_schema())

    def _delta_pairs(self, t: pa.Table) -> pa.Table:
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
        cur = self._current()
        if cur is None:
            raise ValueError("view was never refreshed")
        toks = sorted({int(x) for x in tokens})
        if not toks:
            return []
        files = self._bucket_files(cur["dir"])
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
            "kind": "scalar_index",
            "column": "n_tok" if column is None else column,
            "n_buckets": 16 if n_buckets is None else int(n_buckets),
            "bin_width": 16 if bin_width is None else int(bin_width),
        }, explicit=explicit)
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
        import numpy as np

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

    def _full_pairs(self, t: pa.Table) -> pa.Table:
        return self._pairs(t.select(["doc_id", self.column]), self.column, 1)

    def _delta_pairs(self, t: pa.Table) -> pa.Table:
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
        cur = self._current()
        if cur is None:
            raise ValueError("view was never refreshed")
        b = self._buckets_of(pa.array([value], self._value_type()))[0].as_py()
        f = self._bucket_files(cur["dir"]).get(b)
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
        cur = self._current()
        if cur is None:
            raise ValueError("view was never refreshed")
        files = self._bucket_files(cur["dir"])
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


def vacuum_view_versions(root: str, retain: int = 1) -> dict:
    """Reclaim superseded view versions: every refresh publishes a new
    ``v{epoch}`` dir and swaps ``CURRENT`` — old dirs stay for concurrent
    stale readers (same discipline as the table's snapshot retention).
    Keeps the CURRENT version plus the ``retain`` most recent superseded
    ones, and clears crashed refreshes' ``_tmp_*`` dirs. Views are
    single-writer by design — don't vacuum concurrently with a refresh."""
    import re

    cur = None
    cur_p = os.path.join(root, "CURRENT")
    if os.path.exists(cur_p):
        cur = json.loads(open(cur_p).read())["dir"]
    vdirs = sorted(
        (d for d in os.listdir(root)
         if re.fullmatch(r"v-?\d+", d) and d != cur),
        key=lambda d: int(d[1:]),
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
        # validate BEFORE META lands: persisting bad params poisons the
        # root for every reopen incl. open_view (code-review r5); the
        # sibling views reject n_buckets < 1 the same way
        params = {"n_buckets": 16, "num_perm": 64, "n_bands": 16,
                  "shingle": 3, **explicit}
        for k in ("n_buckets", "num_perm", "n_bands", "shingle"):
            if params[k] < 1:
                raise ValueError(f"{k} must be >= 1, got {params[k]}")
        if params["num_perm"] % params["n_bands"]:
            raise ValueError(
                f"n_bands ({params['n_bands']}) must divide num_perm "
                f"({params['num_perm']})")
        super().__init__(
            root, replayer,
            {"kind": "minhash_index", **params},
            explicit=explicit,
        )
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

    def _full_pairs(self, t: pa.Table) -> pa.Table:
        return self._sig_table(t["doc_id"], t["tokens"], 1).cast(
            self._pairs_schema())

    def _delta_pairs(self, t: pa.Table) -> pa.Table:
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
        cur = self._current()
        if cur is None:
            raise ValueError("view was never refreshed")
        refs = [
            _sig_bucket_pairs_task.remote(f, cap)
            for _, f in sorted(self._bucket_files(cur["dir"]).items())
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
        cur = self._current()
        if cur is None:
            raise ValueError("view was never refreshed")
        files = self._bucket_files(cur["dir"])
        by_bucket: dict[int, list[tuple[int, int]]] = {}
        for i, s in zip(idx.tolist(), sig.tolist()):
            by_bucket.setdefault(int(s % self.n_buckets), []).append((i, s))
        out: list[set] = [set() for _ in token_lists]
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
                out[i] |= sig_to_docs.get(s, set())
        return out

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
        cur = self._current()
        if cur is None:
            raise ValueError("view was never refreshed")
        paths = [f for _, f in sorted(self._bucket_files(cur["dir"]).items())]

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
        cur = self._current()
        if cur is None:
            raise ValueError("view was never refreshed")
        prober = _MinHashBatchProber(
            self._bucket_files(cur["dir"]), self.n_buckets,
            dict(self.meta), id_col, tok_col)
        return probes.map_batches(
            prober, batch_format="pyarrow", batch_size=4096)


class _MinHashBatchProber:
    """Per-batch index probe (see ``probe_candidates_ds``). A plain
    callable instance (stateless task pool, not an actor pool): the
    MinHasher permutation state is ~1 KiB of seeded arrays — cheap to
    ship per task, and an actor pool would only add cold-start latency
    (the ninth-session task-pool-sweep rule)."""

    def __init__(self, files: dict[int, str], n_buckets: int, meta: dict,
                 id_col: str, tok_col: str):
        from marc_data_migration_ray.pipelines.dedup import MinHasher

        self.files = dict(files)
        self.n_buckets = int(n_buckets)
        self._mh = MinHasher(
            num_perm=int(meta["num_perm"]), n_bands=int(meta["n_bands"]),
            shingle=int(meta["shingle"]))
        self.id_col = id_col
        self.tok_col = tok_col

    def __call__(self, t: pa.Table) -> pa.Table:
        idx, sig = _token_sigs_with(self._mh, t[self.tok_col])
        ids = pc.cast(t[self.id_col], pa.string())
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        id_list = ids.to_pylist()
        by_bucket: dict[int, list[tuple[int, int]]] = {}
        for i, s in zip(idx.tolist(), sig.tolist()):
            by_bucket.setdefault(int(s % self.n_buckets), []).append((i, s))
        out: set = set()
        for b, entries in sorted(by_bucket.items()):
            f = self.files.get(b)
            if f is None:
                continue
            want = sorted({s for _, s in entries})
            bt = pq.read_table(f, filters=[("sig", "in", want)])
            sig_to_docs: dict[int, set] = {}
            for s, d in zip(bt["sig"].to_pylist(), bt["doc_id"].to_pylist()):
                sig_to_docs.setdefault(s, set()).add(d)
            for i, s in entries:
                for d in sig_to_docs.get(s, ()):
                    out.add((id_list[i], d))
        pairs = sorted(out)
        probe, match = [p for p, _ in pairs], [m for _, m in pairs]
        return pa.table({"probe_id": pa.array(probe, pa.string()),
                         "match_id": pa.array(match, pa.string())})


def open_view(root: str, replayer):
    """Reopen ANY materialized view from its ``META.json`` ``kind`` tag
    (agg / postings / scalar_index / minhash_index) — what
    ``follow --refresh-view`` uses to keep a set of heterogeneous views
    fresh during streaming ingest without being told their types."""
    meta_p = os.path.join(root, "META.json")
    if not os.path.exists(meta_p):
        raise ValueError(
            f"{root}: no META.json — create the view once with its "
            "concrete class (AggView / PostingsView / ScalarIndexView / "
            "MinHashIndexView) first"
        )
    meta = json.loads(open(meta_p).read())
    kind = meta.get("kind")
    if kind == "agg":
        return AggView(root, replayer, keys=tuple(meta["keys"]),
                       sums=tuple(meta["sums"]))
    if kind == "postings":
        return PostingsView(root, replayer)
    if kind == "scalar_index":
        return ScalarIndexView(root, replayer)
    if kind == "minhash_index":
        return MinHashIndexView(root, replayer)
    raise ValueError(f"{root}: unknown view kind {kind!r}")


#: backward-compatible (source, n_rows, n_tok_sum) view
class SourceCountsView(AggView):
    """Materialized (source, n_rows, n_tok_sum) view of a Replayer table."""

    def __init__(self, root: str, replayer):
        super().__init__(root, replayer, keys=("source",), sums=("n_tok",))


VIEW_SCHEMA = pa.schema(
    [("source", pa.string()), ("n_rows", pa.int64()), ("n_tok_sum", pa.int64())]
)
