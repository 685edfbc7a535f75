"""CDC pipeline derived deterministically from the driver's sf tables.

The driver's correctness gate runs ``queries()[name](sf_dir)`` against DuckDB
SQL over the same parquet views, so this module derives a base table and a
binlog from ``documents`` + ``events`` with arithmetic that is expressible
identically in SQL (see ``__ray_entry__.oracle_sql``):

    base:   doc_id = CAST(documents.doc_id AS VARCHAR)
            n_tok  = count of ``\\S+`` tokens in text
            source = documents.source
    binlog: lsn    = event_id
            doc_id = CAST(user_id % D AS VARCHAR)      (D = count(documents))
            op     = signup→insert, error→delete, else update
            n_tok' = length(props), source' = event_type
            score  = event_id % 101                     (drives the M14 gate)

All events are full-row (empty column mask), so the fold is pure gated LWW
with tombstones — exactly the anchor model of SEMANTICS.md, which the SQL
oracle mirrors with window functions.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from marc_data_migration_ray.config import ReplayConfig
from marc_data_migration_ray.functions.text import TOKEN_RE
from marc_data_migration_ray.stages.parse import ParseRoute, PrepBase
from marc_data_migration_ray.sources import readers


def _doc_count(sf_dir: str) -> int:
    import pyarrow.parquet as pq

    return pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows


def build_base_ds(sf_dir: str) -> ray.data.Dataset:
    """documents → input_hint-shaped base table (tokens column left empty —
    the derived pipeline's payload is scalar; token-payload replay is
    exercised by the synthetic fixtures)."""
    ds = readers.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text", "source"]
    )

    def _mk(t: pa.Table) -> pa.Table:
        n = t.num_rows
        n_tok = pc.cast(pc.count_substring_regex(t["text"], TOKEN_RE), pa.int32())
        return pa.table(
            {
                "doc_id": pc.cast(t["doc_id"], pa.string()),
                "tokens": pa.ListArray.from_arrays(
                    pa.array(np.zeros(n + 1, np.int32)), pa.array([], pa.int32())
                ),
                "n_tok": n_tok,
                "source": t["source"],
            }
        )

    return ds.map_batches(_mk, batch_format="pyarrow", zero_copy_batch=True)


def build_binlog_ds(sf_dir: str) -> ray.data.Dataset:
    """events → binlog events (full-row updates, deterministic gate scores)."""
    D = _doc_count(sf_dir)
    ds = readers.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "event_type", "props"],
    )

    def _mk(t: pa.Table) -> pa.Table:
        n = t.num_rows
        ev = t["event_type"].to_numpy(zero_copy_only=False)
        op = np.where(ev == "signup", "insert", np.where(ev == "error", "delete", "update")).astype(object)
        lsn = pc.cast(t["event_id"], pa.int64())
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        doc = pa.array((uid % D).astype("int64").astype(str), pa.string())
        n_tok_new = pc.cast(pc.utf8_length(t["props"]), pa.int32())
        score = pa.array((lsn.to_numpy(zero_copy_only=False) % 101).astype("int32"), pa.int32())
        is_del = op == "delete"
        n_tok_np = n_tok_new.to_numpy(zero_copy_only=False).astype(np.int64)
        n_tok_col = pa.array(np.where(is_del, None, n_tok_np.astype(object)), pa.int32())
        src_col = pa.array(np.where(is_del, None, ev.astype(object)), pa.string())
        # zero-filled token arrays of length n_tok (consistency invariant
        # n_tok == len(tokens)); null for deletes. Built via offsets, no loop.
        lens = np.where(is_del, 0, n_tok_np)
        offsets = np.zeros(n + 1, np.int32)
        np.cumsum(lens, out=offsets[1:])
        tokens = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()),
            pa.array(np.zeros(int(lens.sum()), np.int32), pa.int32()),
        )
        if is_del.any():
            tokens = pc.if_else(
                pa.array(is_del), pa.nulls(n, pa.list_(pa.int32())), tokens
            )
        return pa.table(
            {
                "lsn": lsn,
                "epoch": pa.array(np.zeros(n, np.int32)),
                "op": pa.array(op, pa.string()),
                "doc_id": doc,
                "tokens": tokens,
                "n_tok": n_tok_col,
                "source": src_col,
                "column_mask": pa.array([[] for _ in range(n)], pa.list_(pa.string())),
                "match_score": score,
                "schema_kind": pa.nulls(n, pa.string()),
                "schema_name": pa.nulls(n, pa.string()),
                "schema_new_name": pa.nulls(n, pa.string()),
            }
        )

    return ds.map_batches(_mk, batch_format="pyarrow", zero_copy_batch=True)


def build_binlog_noisy_ds(sf_dir: str) -> ray.data.Dataset:
    """Binlog variant with noisy raw keys (user_id % 3 picks the form:
    0 → 'ocm'+k, 1 → '(OCoLC)'+k, 2 → bare digits) — every form normalizes
    to the same key, but only forms 0/1 are OCLC-prefixed, which is what
    the ``fuzzy_001_test`` gate discriminates on (reference M4/M14)."""
    ds = build_binlog_ds(sf_dir)

    def _noise(t: pa.Table) -> pa.Table:
        # lsn == event_id and doc_id == str(user_id % D); recover user_id
        # parity from the doc string is impossible, so derive the form from
        # the numeric doc value itself (doc % 3) — SQL mirrors this exactly
        doc = t["doc_id"]
        v = pc.cast(doc, pa.int64())
        form = pc.subtract(v, pc.multiply(pc.divide(v, 3), 3))
        ocm = pc.binary_join_element_wise(pa.scalar("ocm", pa.string()), doc, pa.scalar("", pa.string()))
        lab = pc.binary_join_element_wise(pa.scalar("(OCoLC)", pa.string()), doc, pa.scalar("", pa.string()))
        noisy = pc.if_else(pc.equal(form, 0), ocm, pc.if_else(pc.equal(form, 1), lab, doc))
        noisy = pc.if_else(pc.is_valid(doc), noisy, doc)
        idx = t.column_names.index("doc_id")
        return t.set_column(idx, "doc_id", noisy)

    return ds.map_batches(_noise, batch_format="pyarrow", zero_copy_batch=True)


def cdc_routing_counts_f001(sf_dir: str, cfg: ReplayConfig | None = None) -> "pa.Table":
    """Routing counts under the ``fuzzy_001_test`` gate over noisy-prefixed
    keys (reference do_fuzzy_001_test branch, M14)."""
    cfg = cfg or ReplayConfig(num_partitions=16, fuzzy_001_test=True)
    ev = build_binlog_noisy_ds(sf_dir).map_batches(
        ParseRoute(cfg), batch_format="pyarrow",
        batch_size=cfg.batch_size, zero_copy_batch=True,
    )

    def _partial(t: pa.Table) -> pa.Table:
        return t.group_by(["op", "route", "status"]).aggregate([("lsn", "count")])

    partials = ev.map_batches(_partial, batch_format="pyarrow", zero_copy_batch=True)
    tbl = pa.concat_tables(b for b in partials.iter_batches(batch_format="pyarrow"))
    final = tbl.group_by(["op", "route", "status"]).aggregate([("lsn_count", "sum")])
    out = pa.table(
        {
            "op": final["op"],
            "route": final["route"],
            "status": final["status"],
            "n": pc.cast(final["lsn_count_sum"], pa.int64()),
        }
    )
    return out.sort_by(
        [("op", "ascending"), ("route", "ascending"), ("status", "ascending")]
    )


#: ingest expectations the constraint driver queries run under (shared
#: verbatim with the SQL oracle in __ray_entry__): n_tok'=length(props)
#: ∈ {8,9} → the 'le 8' bound fires on half the payloads; source'=
#: event_type → 'purchase' updates fail the allow-list. Declaration order
#: matters: a length-9 purchase reports the n_tok failure.
CONSTRAINT_CHECKS = (
    ("n_tok_le_8", "n_tok", "le", 8),
    ("source_known", "source", "in", ("signup", "click", "view")),
)


def cdc_constraint_counts(sf_dir: str) -> "pa.Table":
    """Gate counts with ingest expectations enabled (Delta CHECK-constraint
    analog): violating insert/update events route to
    rejected/'check-failed:<name>' before any other gate decision."""
    return cdc_routing_counts(
        sf_dir,
        cfg=ReplayConfig(num_partitions=16, check_constraints=CONSTRAINT_CHECKS),
    )


def cdc_constraint_state(sf_dir: str) -> ray.data.Dataset:
    """Final LWW state with ingest expectations enabled — end-to-end proof
    that a check-failed event never applies (its payload is dropped at the
    gate and the fold never sees it)."""
    return cdc_lww_state(
        sf_dir,
        cfg=ReplayConfig(num_partitions=16, check_constraints=CONSTRAINT_CHECKS),
    )


def cdc_versions(sf_dir: str, cfg: ReplayConfig | None = None) -> ray.data.Dataset:
    """Row-version history (SCD-2 timeline) straight from the binlog:
    one row per VISIBLE version of each key — (doc_id, from_lsn, to_lsn,
    n_tok, source), to_lsn NULL for the live version. The base row is the
    [-1, first-boundary) version; every applying insert/update opens a
    version; deletes and skipped-after-delete updates close/create none —
    the same anchor semantics the fold implements, so
    ``read_state(up_to_lsn=L)`` == the version row with
    ``from_lsn <= L < to_lsn`` (pytest-asserted).

    Shape: gate-passed events + base rows shuffle ONCE by part_id, then
    one vectorized polars pass per partition (anchor chain =
    shift+forward_fill over key, boundaries filtered, to_lsn = shifted
    lead) — no per-key Python, versions never leave their partition."""
    import polars as pl

    cfg = cfg or ReplayConfig(num_partitions=16)
    base = build_base_ds(sf_dir).map_batches(
        PrepBase(cfg), batch_format="pyarrow",
        batch_size=cfg.batch_size, zero_copy_batch=True,
    )
    ev = build_binlog_ds(sf_dir).map_batches(
        ParseRoute(cfg), batch_format="pyarrow",
        batch_size=cfg.batch_size, zero_copy_batch=True,
    ).filter(expr="route == 'applied' or route == 'fuzzy'")

    def _versions(g: pa.Table) -> pa.Table:
        df = (
            pl.from_arrow(g.select(["key", "lsn", "op", "n_tok", "source"]))
            .sort(["key", "lsn"])
            .with_columns(
                m=pl.when(pl.col("op").is_in(["insert", "delete"]))
                .then(pl.col("op")).otherwise(None)
            )
            .with_columns(
                prev_anchor=pl.col("m").shift(1).forward_fill().over("key"),
                has_base=(pl.col("op") == "base").any().over("key"),
            )
        )
        app = df.filter(
            pl.col("op").is_in(["insert", "delete", "base"])
            | (
                (pl.col("op") == "update")
                & (
                    (pl.col("prev_anchor") == "insert")
                    | (pl.col("prev_anchor").is_null() & pl.col("has_base"))
                )
            )
        )
        v = app.with_columns(
            to_lsn=pl.col("lsn").shift(-1).over("key")
        ).filter(pl.col("op") != "delete")
        a = v.to_arrow()
        return pa.table({
            "doc_id": pc.cast(a["key"], pa.string()),
            "from_lsn": pc.cast(a["lsn"], pa.int64()),
            "to_lsn": pc.cast(a["to_lsn"], pa.int64()),
            "n_tok": pc.cast(a["n_tok"], pa.int64()),
            "source": pc.cast(a["source"], pa.string()),
        })

    return (
        base.union(ev)
        .groupby("part_id", num_partitions=cfg.num_partitions)
        .map_groups(_versions, batch_format="pyarrow")
    )


#: zone-map scan predicate (shared with the SQL oracle's BETWEEN)
EXPORT_SCAN_LO, EXPORT_SCAN_HI = 30, 80


def export_scan_prune(sf_dir: str) -> ray.data.Dataset:
    """Data skipping end-to-end on the derived table: replay → clustered
    export by ``n_tok`` (exact zone maps) → zone-pruned scan of
    ``n_tok BETWEEN 30 AND 80``. The oracle is a plain filter over the
    LWW state — equality proves pruning loses nothing, while the skipped
    range dirs are the scale win (a selective predicate at 100 TB opens a
    handful of directories)."""
    import tempfile

    from marc_data_migration_ray.pipelines.replay import scan_export

    cfg = ReplayConfig(num_partitions=16)
    rp = _layout_replayer(sf_dir, cfg)
    dest = os.path.join(tempfile.mkdtemp(prefix="cdc_export_"), "clustered")
    rp.export_snapshot(dest, cluster_by="n_tok", n_ranges=8)
    scan = scan_export(dest, n_tok=(EXPORT_SCAN_LO, EXPORT_SCAN_HI))
    assert scan["ranges_scanned"] < scan["ranges_total"], "no pruning?"
    return _scalar_state(scan["dataset"])


#: pristine layout tables, built once per (variant, sf_dir, cfg) per
#: process — the dozen layout-backed driver queries share the replayed
#: table instead of each paying the base+binlog write + apply
_LAYOUT_MEMO: dict = {}

#: sf-derived base/binlog parquet inputs, materialized once per sf_dir
_DERIVED_INPUT_MEMO: dict = {}


def _derived_input_dirs(sf_dir: str) -> tuple[str, str]:
    """Materialize the sf-derived base+binlog inputs ONCE per process
    (VERDICT r4 item 6): every layout consumer — the shared one-epoch
    layout, the two-epoch split, the multi-table 2PC parity split —
    re-READS these parquet dirs instead of re-running the derivation
    pipelines over the sf tables."""
    import tempfile

    got = _DERIVED_INPUT_MEMO.get(sf_dir)
    if got is None:
        root = tempfile.mkdtemp(prefix="cdc_inputs_")
        base_dir = os.path.join(root, "base_in")
        binlog_dir = os.path.join(root, "binlog_in")
        build_base_ds(sf_dir).write_parquet(base_dir)
        build_binlog_ds(sf_dir).write_parquet(binlog_dir)
        got = _DERIVED_INPUT_MEMO[sf_dir] = (base_dir, binlog_dir)
    return got


def _clone_private(rp: "Replayer", cfg: ReplayConfig) -> "Replayer":
    """Zero-copy hardlink clone of a memoized pristine layout — handed to
    MUTATING queries (merge / virtual-column registration) so the shared
    table stays pristine."""
    import tempfile

    from marc_data_migration_ray.pipelines.replay import Replayer

    dst = os.path.join(tempfile.mkdtemp(prefix="cdc_layout_clone_"), "table")
    rp.clone(dst)
    return Replayer(dst, cfg)


def _layout_replayer(sf_dir: str, cfg: ReplayConfig,
                     private: bool = False) -> "Replayer":
    """Materialize the sf-derived base+binlog into a manifest ``Replayer``
    table (co-partitioned on-disk layout) and apply the single epoch. The
    temp root stays on disk while returned (lazy) Datasets read it.
    Memoized per (sf_dir, cfg); ``private=True`` returns a hardlink clone
    the caller may mutate."""
    import tempfile

    from marc_data_migration_ray.pipelines.replay import Replayer

    key = ("1ep", sf_dir, repr(sorted(vars(cfg).items(), key=str)))
    rp = _LAYOUT_MEMO.get(key)
    if rp is None:
        root = tempfile.mkdtemp(prefix="cdc_lww_layout_")
        base_dir, binlog_dir = _derived_input_dirs(sf_dir)
        rp = Replayer(os.path.join(root, "table"), cfg, base_path=base_dir)
        rp.apply_epoch(0, binlog_dir)
        _LAYOUT_MEMO[key] = rp
    return _clone_private(rp, cfg) if private else rp


def cdc_multi_table_txn(
    sf_dir: str, cfg: ReplayConfig | None = None,
) -> ray.data.Dataset:
    """Driver surface for the multi-table 2PC (``state/txn.py`` — the
    round-3 pytest-only WAP/2PC story made gate-visible): the derived
    base+binlog are parity-split into TWO tables (even/odd doc ids — a
    fact/dimension-style sharding), epoch 0 is STAGED on both via
    ``prepare_epoch``, ONE decision file (``O_EXCL`` create) commits the
    transaction, and each table finalizes through its normal
    epoch-fenced manifest CAS. The returned union
    (table_name, doc_id, n_tok, source, last_lsn, status) is only
    non-base because BOTH commits became visible atomically — the
    oracle recomputes each side's gated-LWW state declaratively."""
    cfg = cfg or ReplayConfig(num_partitions=8)
    key = ("txn2", sf_dir, repr(sorted(vars(cfg).items(), key=str)))
    tables = _LAYOUT_MEMO.get(key)
    if tables is None:
        import tempfile

        from marc_data_migration_ray.pipelines.replay import Replayer
        from marc_data_migration_ray.state.txn import MultiTableTxn

        root = tempfile.mkdtemp(prefix="cdc_txn2_")

        # ONE execution + ONE partitioned write per input: filtering the
        # lazy builds per parity would re-run the derivation 4× (the
        # same fix as _layout_replayer_2ep; this was the only >5 s
        # query left in BENCH_QUERIES after the r4 tail trim)
        def _split(ds: ray.data.Dataset, dest: str) -> None:
            ds.map_batches(
                lambda t: t.append_column("par", pc.cast(
                    pc.bit_wise_and(pc.cast(t["doc_id"], pa.int64()),
                                    pa.scalar(1, pa.int64())), pa.int8())),
                batch_format="pyarrow", zero_copy_batch=True,
            ).write_parquet(dest, partition_cols=["par"])

        # split from the SHARED materialized inputs (VERDICT r4 item 6):
        # a parquet re-read + parity-partitioned write, not a second
        # execution of the derivation pipelines
        in_base, in_binlog = _derived_input_dirs(sf_dir)
        _split(readers.read_parquet(in_base), os.path.join(root, "base"))
        _split(readers.read_parquet(in_binlog),
               os.path.join(root, "binlog"))
        parts = []
        for name, parity in (("even", 0), ("odd", 1)):
            bdir = os.path.join(root, "base", f"par={parity}")
            ldir = os.path.join(root, "binlog", f"par={parity}")
            rp = Replayer(os.path.join(root, f"table_{name}"), cfg,
                          base_path=bdir)
            parts.append((name, rp, ldir))
        txn = MultiTableTxn(os.path.join(root, "txn"))
        rep = txn.commit([(rp, 0, ldir) for _, rp, ldir in parts])
        if len(rep["entries"]) != len(parts):
            raise RuntimeError("2PC commit incomplete")
        tables = _LAYOUT_MEMO[key] = [(name, rp) for name, rp, _ in parts]
    # STREAMED union — the result is whole-state-sized, so it stays a
    # Dataset like cdc_lww_state (no driver materialization)
    def _tag(name: str):
        def _fn(t: pa.Table) -> pa.Table:
            return t.add_column(
                0, "table_name",
                pa.array([name] * t.num_rows, pa.string()))

        return _fn

    outs = [
        _scalar_state(rp.read_state()).map_batches(
            _tag(name), batch_format="pyarrow", zero_copy_batch=True)
        for name, rp in tables
    ]
    return outs[0].union(*outs[1:])


def _scalar_state(rows: ray.data.Dataset) -> ray.data.Dataset:
    """Project state rows to the hashable scalar columns the DuckDB LWW
    oracle reproduces (shared by ``cdc_lww_state`` / ``cdc_point_lookup``)."""
    return rows.map_batches(
        lambda t: pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tok": pc.cast(t["n_tok"], pa.int64()),
                "source": t["source"],
                "last_lsn": t["last_lsn"],
                "status": t["status"],
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


# deterministic spread of existing keys + one miss (driver query input)
LOOKUP_IDS = ("7", "77", "177", "277", "377", "477", "no-such-id")


# projection the driver query reads (display names; token payload pruned)
PROJECTION_COLS = ("doc_id", "source", "last_lsn")


def cdc_virtual_column(
    sf_dir: str, cfg: ReplayConfig | None = None,
) -> ray.data.Dataset:
    """Driver surface for GENERATED columns: replay onto the layout,
    register ``tok_score = n_tok * 3 + 7`` (a manifest table property),
    read the state projected to (doc_id, tok_score) — the generated
    column's declared input rides the projection pushdown, the token
    payload never folds. Oracle = the same integer expression over the
    LWW state SQL."""
    rp = _layout_replayer(sf_dir, cfg or ReplayConfig(num_partitions=16),
                          private=True)
    rp.set_virtual_column(
        "tok_score", "CAST(n_tok AS BIGINT) * 3 + 7", inputs=["n_tok"])
    return rp.read_state(columns=["doc_id", "tok_score"])


def cdc_state_projection(
    sf_dir: str, cfg: ReplayConfig | None = None,
) -> ray.data.Dataset:
    """Driver surface for projection pushdown: replay onto the
    co-partitioned layout, then ``read_state(columns=PROJECTION_COLS)`` —
    the token payload is pruned at the parquet scan and skipped by the
    fold (never decoded, never shipped). Oracle = the LWW state SQL
    projected to the same columns; equality proves the pruned fold loses
    nothing while the skipped token bytes are the scale win (at 100 TB the
    tokens column IS the table)."""
    rp = _layout_replayer(sf_dir, cfg or ReplayConfig(num_partitions=16))
    return rp.read_state(columns=list(PROJECTION_COLS))


def cdc_point_lookup(
    sf_dir: str, cfg: ReplayConfig | None = None,
    doc_ids: tuple[str, ...] = LOOKUP_IDS,
) -> ray.data.Dataset:
    """Driver surface for ``Replayer.lookup`` (reference S4 point-lookup):
    replay onto the co-partitioned layout, then fold ONLY the partitions
    that can hold ``doc_ids``. Oracle = the LWW state SQL filtered to the
    same ids (a key deleted by replay is absent from both sides)."""
    rp = _layout_replayer(sf_dir, cfg or ReplayConfig(num_partitions=16))
    return _scalar_state(rp.lookup(list(doc_ids)))


#: keys whose lineage cdc_doc_history reports (all exist in documents)
HISTORY_IDS = ("7", "77", "177")


def cdc_doc_history(
    sf_dir: str, cfg: ReplayConfig | None = None,
    doc_ids: tuple[str, ...] = HISTORY_IDS,
) -> pa.Table:
    """Driver surface for ``Replayer.doc_history_many`` (row-level
    lineage): replay onto the co-partitioned layout, then list every
    event that targeted any of ``doc_ids`` in ONE partition-pruned,
    key-filtered scan pass over the whole key list (no per-key loop).
    Oracle = the binlog filtered to the same keys with the M14 gate's
    route/status CASE, UNION the documents base row."""
    rp = _layout_replayer(sf_dir, cfg or ReplayConfig(num_partitions=16))
    return _history_projection(rp.doc_history_many(list(doc_ids)))


def _history_projection(h: pa.Table) -> pa.Table:
    t = h.select(
        ["doc_id", "lsn", "op", "route", "status", "match_score",
         "n_tok", "source"]
    )
    t = t.set_column(t.column_names.index("n_tok"), "n_tok",
                     pc.cast(t["n_tok"], pa.int64()))
    return t.sort_by([("doc_id", "ascending"), ("lsn", "ascending")])


def cdc_doc_history_indexed(
    sf_dir: str, cfg: ReplayConfig | None = None,
    doc_ids: tuple[str, ...] = HISTORY_IDS,
) -> pa.Table:
    """``cdc_doc_history`` THROUGH the key-bloom file-skipping sidecars:
    build ``.keybloom`` sidecars for the keys' partitions, then one
    ``doc_history_many`` pass — each delta file's sidecar is consulted
    once against the whole key set before any parquet bytes are read.
    Oracle identical to ``cdc_doc_history``: the bloom-pruned multi-key
    lineage scan must lose nothing."""
    rp = _layout_replayer(sf_dir, cfg or ReplayConfig(num_partitions=16))
    rp.build_key_blooms(only_parts=rp._parts_for_keys(
        [k for k in doc_ids if k]))
    return _history_projection(rp.doc_history_many(list(doc_ids)))


def cdc_point_lookup_indexed(
    sf_dir: str, cfg: ReplayConfig | None = None,
    doc_ids: tuple[str, ...] = LOOKUP_IDS,
) -> ray.data.Dataset:
    """``cdc_point_lookup`` through the key-bloom file-skipping index:
    build the ``.keybloom`` sidecars, then look the same keys up — the
    oracle is identical (the LWW state filtered to the ids), proving the
    pruned read path loses nothing."""
    rp = _layout_replayer(sf_dir, cfg or ReplayConfig(num_partitions=16))
    rp.build_key_blooms(only_parts=rp._parts_for_keys(
        [k for k in doc_ids if k]))
    return _scalar_state(rp.lookup(list(doc_ids)))


def cdc_maintain_state(
    sf_dir: str, cfg: ReplayConfig | None = None,
) -> ray.data.Dataset:
    """Run ``maintain()`` (auto level-1 merge / compaction per explain's
    plan, thresholds forced low so it actually acts) on a private clone,
    then read the state — the oracle is the plain LWW state SQL, proving
    table maintenance has zero semantic effect."""
    rp = _layout_replayer(sf_dir, cfg or ReplayConfig(num_partitions=16),
                          private=True)
    rp._EXPLAIN_MAX_FILES_PER_BUCKET = 1
    rp._EXPLAIN_COMPACT_DELTA_RATIO = 0.0  # any delta bytes trigger compact
    rep = rp.maintain()
    if not rep["actions"]:
        # not an assert: the driver-gate invariant must survive python -O
        raise RuntimeError(
            "cdc_maintain_state: maintenance performed no actions — the "
            "gate would degenerate to a plain LWW read"
        )
    return _scalar_state(rp.read_state())


def cdc_index_range(
    sf_dir: str, cfg: ReplayConfig | None = None,
    lo: int = 10, hi: int = 40,
) -> pa.Table:
    """Driver surface for ``ScalarIndexView``: replay onto the layout,
    build/refresh a range-binned secondary index on ``n_tok``, answer a
    range predicate from the index alone (only overlapping bins are
    read). Oracle = the LWW state SQL filtered to the same range."""
    import tempfile

    from marc_data_migration_ray.pipelines.views import ScalarIndexView

    rp = _layout_replayer(sf_dir, cfg or ReplayConfig(num_partitions=16))
    v = ScalarIndexView(tempfile.mkdtemp(prefix="cdc_sidx_"), rp,
                        column="n_tok", bin_width=8)
    v.refresh()
    pairs = v.docs_in_range(lo, hi)
    return pa.table({
        "doc_id": pa.array([d for _, d in pairs], pa.string()),
        "n_tok": pa.array([x for x, _ in pairs], pa.int64()),
    })


def cdc_source_counts(sf_dir: str, cfg: ReplayConfig | None = None) -> pa.Table:
    """Driver surface for the materialized view: replay onto the layout,
    refresh a ``SourceCountsView``, return its (source, n_rows, n_tok_sum)
    table. Oracle = GROUP BY source over the LWW state SQL."""
    import tempfile

    from marc_data_migration_ray.pipelines.views import SourceCountsView

    rp = _layout_replayer(sf_dir, cfg or ReplayConfig(num_partitions=16))
    v = SourceCountsView(tempfile.mkdtemp(prefix="cdc_view_"), rp)
    v.refresh()
    return v.read()


def cdc_lww_state(
    sf_dir: str, cfg: ReplayConfig | None = None
) -> ray.data.Dataset:
    """Flagship derived query: gated LWW replay of events onto documents.

    Returns (doc_id, n_tok, source, last_lsn, status) — scalar columns only
    so the DuckDB oracle can hash-match (token payloads are checked by the
    fixture/oracle tests instead).

    Reads the manifest ``Replayer`` table that ``_layout_replayer`` builds
    once per (sf_dir, cfg) — co-partitioned on-disk deltas + per-bucket
    vectorized fold, the one fold path. The first call pays the table
    build; the temp table root stays on disk while the returned (lazy)
    Dataset reads it."""
    return _scalar_state(_layout_replayer(
        sf_dir, cfg or ReplayConfig(num_partitions=16)).read_state())


def cdc_routing_counts(sf_dir: str, cfg: ReplayConfig | None = None) -> "pa.Table":
    """Gate/route audit counts by (op, route, status) — reference A1/A3."""
    cfg = cfg or ReplayConfig(num_partitions=16)
    ev = build_binlog_ds(sf_dir).map_batches(
        ParseRoute(cfg), batch_format="pyarrow",
        batch_size=cfg.batch_size, zero_copy_batch=True,
    )
    # per-batch partial counts → tiny global aggregate (no full shuffle)
    def _partial(t: pa.Table) -> pa.Table:
        return t.group_by(["op", "route", "status"]).aggregate([("lsn", "count")])

    partials = ev.map_batches(_partial, batch_format="pyarrow", zero_copy_batch=True)
    tbl = pa.concat_tables(b for b in partials.iter_batches(batch_format="pyarrow"))
    final = tbl.group_by(["op", "route", "status"]).aggregate([("lsn_count", "sum")])
    out = pa.table(
        {
            "op": final["op"],
            "route": final["route"],
            "status": final["status"],
            "n": pc.cast(final["lsn_count_sum"], pa.int64()),
        }
    )
    return out.sort_by(
        [("op", "ascending"), ("route", "ascending"), ("status", "ascending")]
    )


def build_merge_source_ds(sf_dir: str) -> ray.data.Dataset:
    """Deterministic MERGE source derived from documents (SQL-mirrorable):

        doc_id % 7 == 0 → the key as-is   (matched iff live after replay)
        doc_id % 7 == 1 → key + 10*D      (guaranteed-new → insert)
        payload: n_tok' = length(text) in chars, source' = 'merged'
    """
    D = _doc_count(sf_dir)
    ds = readers.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )

    def _mk(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        m7 = did % 7
        keep = (m7 == 0) | (m7 == 1)
        did = did[keep]
        shifted = np.where(did % 7 == 1, did + 10 * D, did)
        nchars = pc.cast(pc.utf8_length(t["text"]), pa.int64()).to_numpy(
            zero_copy_only=False)[keep]
        n = len(shifted)
        # zero-filled token arrays of length n_tok (the parse stage's
        # n_tok == len(tokens) consistency gate; same trick as the binlog)
        offsets = np.zeros(n + 1, np.int32)
        np.cumsum(nchars, out=offsets[1:])
        return pa.table(
            {
                "doc_id": pa.array(shifted.astype(str), pa.string()),
                "tokens": pa.ListArray.from_arrays(
                    pa.array(offsets, pa.int32()),
                    pa.array(np.zeros(int(nchars.sum()), np.int32), pa.int32()),
                ),
                "n_tok": pa.array(nchars.astype(np.int32), pa.int32()),
                "source": pa.array(["merged"] * n, pa.string()),
            }
        )

    return ds.map_batches(_mk, batch_format="pyarrow", zero_copy_batch=True)


def cdc_merge_state(sf_dir: str, cfg: ReplayConfig | None = None) -> ray.data.Dataset:
    """Driver surface for ``Replayer.merge`` (MERGE INTO through the replay
    path): replay the binlog onto the co-partitioned layout, merge the
    deterministic ``build_merge_source_ds`` table as epoch 1 (matched keys
    become full-row updates, unmatched become inserts), and return the
    post-merge state. Oracle = the LWW state SQL full-outer'd with the
    same source expression (merge lsns aren't SQL-modelable, so the
    projection drops ``last_lsn``)."""
    cfg = cfg or ReplayConfig(num_partitions=16)
    rp = _layout_replayer(sf_dir, cfg, private=True)
    rp.merge(build_merge_source_ds(sf_dir), epoch=1)
    return rp.read_state().map_batches(
        lambda t: pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tok": pc.cast(t["n_tok"], pa.int64()),
                "source": t["source"],
                "status": t["status"],
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def cdc_dup_keys(sf_dir: str) -> ray.data.Dataset:
    """Keys receiving >1 event (reference R1/J2 duplicate-key report)."""
    ds = build_binlog_ds(sf_dir)
    agg = ds.groupby("doc_id").count()
    renamed = agg.map_batches(
        lambda t: pa.table(
            {"doc_id": t["doc_id"], "n_events": pc.cast(t[t.column_names[-1]], pa.int64())}
        ),
        batch_format="pyarrow",
    )
    return renamed.filter(expr="n_events > 1")


def cdc_table_stats(sf_dir: str, cfg: ReplayConfig | None = None) -> pa.Table:
    """ANALYZE TABLE over the replayed LWW state: row count, n_tok
    min/max/sum, n_tok null count, exact distinct source count — the
    column statistics a query planner or a data-quality gate reads.

    Scale shape: one partial row per batch inside ``map_batches`` (six
    integers + the batch's distinct-source set, which is categorical and
    tiny), then a driver reduce over ≤ #blocks partials. No shuffle; the
    state is never materialized beyond its streaming fold."""
    rp = _layout_replayer(sf_dir, cfg or ReplayConfig(num_partitions=16))

    def _partial(t: pa.Table) -> pa.Table:
        nt = t["n_tok"]
        valid = pc.drop_null(nt)
        has = len(valid) > 0
        return pa.table(
            {
                "n_rows": pa.array([t.num_rows], pa.int64()),
                "n_tok_min": pa.array(
                    [pc.min(valid).as_py() if has else None], pa.int64()),
                "n_tok_max": pa.array(
                    [pc.max(valid).as_py() if has else None], pa.int64()),
                "n_tok_sum": pa.array(
                    [pc.sum(valid).as_py() if has else 0], pa.int64()),
                "n_tok_nulls": pa.array([nt.null_count], pa.int64()),
                "sources": pa.array(
                    [pc.unique(pc.drop_null(t["source"])).to_pylist()],
                    pa.list_(pa.string())),
            }
        )

    n = tok_sum = nulls = 0
    mn: int | None = None
    mx: int | None = None
    srcs: set[str] = set()
    for b in rp.read_state().map_batches(
        _partial, batch_format="pyarrow", zero_copy_batch=True
    ).iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            n += r["n_rows"]
            tok_sum += r["n_tok_sum"]
            nulls += r["n_tok_nulls"]
            if r["n_tok_min"] is not None:
                mn = r["n_tok_min"] if mn is None else min(mn, r["n_tok_min"])
                mx = r["n_tok_max"] if mx is None else max(mx, r["n_tok_max"])
            srcs.update(r["sources"])
    return pa.table(
        {
            "n_rows": pa.array([n], pa.int64()),
            "n_tok_min": pa.array([mn], pa.int64()),
            "n_tok_max": pa.array([mx], pa.int64()),
            "n_tok_sum": pa.array([tok_sum], pa.int64()),
            "n_tok_nulls": pa.array([nulls], pa.int64()),
            "n_sources": pa.array([len(srcs)], pa.int64()),
        }
    )


def _layout_replayer_2ep(sf_dir: str, cfg: ReplayConfig) -> "Replayer":
    """Two-epoch layout: the sf-derived binlog split at
    ``cut = max(lsn) // 2`` (epoch 0 = lsn <= cut) — the shared setup for
    the change-feed and time-travel driver queries, whose oracles
    evaluate the LWW-state SQL with the same half-cut gate."""
    import tempfile

    from marc_data_migration_ray.pipelines.replay import Replayer

    key = ("2ep", sf_dir, repr(sorted(vars(cfg).items(), key=str)))
    rp = _LAYOUT_MEMO.get(key)
    if rp is not None:
        return rp
    root = tempfile.mkdtemp(prefix="cdc_2ep_")
    base_dir, binlog_dir = _derived_input_dirs(sf_dir)
    # the shared materialized binlog input feeds max + the epoch split
    # (re-deriving here used to re-execute the whole binlog build 3×,
    # the bulk of cdc_changes' 4.8 s bench tail — VERDICT r3 item 4);
    # the split itself is ONE partitioned write, not two filtered passes
    binlog = readers.read_parquet(binlog_dir)
    cut = binlog.max("lsn") // 2
    binlog.map_batches(
        lambda t: t.append_column("ep", pc.cast(pc.greater(
            t["lsn"], pa.scalar(cut, pa.int64())), pa.int8())),
        batch_format="pyarrow", zero_copy_batch=True,
    ).write_parquet(os.path.join(root, "eps"), partition_cols=["ep"])
    rp = Replayer(os.path.join(root, "table"), cfg, base_path=base_dir)
    rp.apply_epoch(0, os.path.join(root, "eps", "ep=0"))
    rp.apply_epoch(1, os.path.join(root, "eps", "ep=1"))
    _LAYOUT_MEMO[key] = rp
    return rp


def _tok_arrays(texts) -> tuple[pa.ListArray, np.ndarray]:
    """documents text → PORTABLE token arrays: per \\S+ word,
    ``md5_number_lower(w) % 2^31`` as int32 (the dsir/simhash md5
    convention), preserving word order — token-level engine results
    become SQL-reproducible. Empty texts get empty arrays (regexp \\S+
    extraction semantics, matching the oracle). The hash rule lives in
    ONE place (``dedup.md5_word_hash_flat``, worker-memoized) so engine
    and oracle can never drift independently."""
    from marc_data_migration_ray.pipelines.dedup import md5_word_hash_flat

    words = pc.split_pattern_regex(pc.cast(texts, pa.string()), r"\s+")
    if isinstance(words, pa.ChunkedArray):
        words = words.combine_chunks()
    off = np.asarray(words.offsets).astype(np.int64)
    flat = words.values
    n_docs = len(off) - 1
    keep = np.asarray(pc.greater(pc.utf8_length(flat), 0))
    wh = md5_word_hash_flat(flat)
    doc_idx = np.repeat(np.arange(n_docs), np.diff(off))
    kept_counts = np.bincount(doc_idx[keep], minlength=n_docs)
    toks = (wh[keep] % np.uint64(1 << 31)).astype(np.int32)
    off32 = np.zeros(n_docs + 1, np.int64)
    np.cumsum(kept_counts, out=off32[1:])
    # int32 list offsets: silent wraparound past 2^31 total tokens per
    # batch would corrupt the arrays — fail loudly instead (ADVICE r3
    # item 5; unreachable at current batch sizes). words.offsets of a
    # freshly-split (non-sliced) ListArray always starts at 0 — assert
    # the slicing assumption too rather than silently mis-basing.
    assert off32[-1] < 2 ** 31, "token batch exceeds int32 list offsets"
    assert off[0] == 0, "sliced ListArray input: offsets must be re-based"
    tokens = pa.ListArray.from_arrays(
        pa.array(off32.astype(np.int32), pa.int32()),
        pa.array(toks, pa.int32()))
    return tokens, kept_counts.astype(np.int32)


def _layout_replayer_tok(sf_dir: str, cfg: ReplayConfig) -> "Replayer":
    """TOKENIZED layout for payload-level driver queries: documents with
    portable md5 word-hash token arrays (``_tok_arrays``), plus ONE
    committed epoch holding a single full-replace update (lsn=1,
    score=100) that copies doc '1's token array onto doc '0' — a
    mid-stream near-duplicate planted THROUGH the CDC replay path, so
    index maintenance has a real change feed to ride. Memoized per
    (sf_dir, cfg)."""
    import tempfile

    from marc_data_migration_ray.pipelines.replay import Replayer

    key = ("tok", sf_dir, repr(sorted(vars(cfg).items(), key=str)))
    rp = _LAYOUT_MEMO.get(key)
    if rp is not None:
        return rp
    root = tempfile.mkdtemp(prefix="cdc_tok_layout_")
    base_dir = os.path.join(root, "base_in")
    ds = readers.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "source"],
    )

    def _mk(t: pa.Table) -> pa.Table:
        tokens, n_tok = _tok_arrays(t["text"])
        return pa.table(
            {
                "doc_id": pc.cast(t["doc_id"], pa.string()),
                "tokens": tokens,
                "n_tok": pa.array(n_tok, pa.int32()),
                "source": t["source"],
            }
        )

    ds.map_batches(_mk, batch_format="pyarrow",
                   zero_copy_batch=True).write_parquet(base_dir)
    import duckdb
    import pyarrow.parquet as pq

    con = duckdb.connect()
    t1 = con.execute(
        "SELECT text FROM "
        f"'{os.path.join(sf_dir, 'documents.parquet')}' "
        "WHERE CAST(doc_id AS VARCHAR) = '1'"
    ).fetchall()
    con.close()
    toks1, n1 = _tok_arrays(pa.array([t1[0][0]], pa.string()))

    def _ev(lsn, epoch, op, doc, tokens, n_tok, score):
        return pa.table(
            {
                "lsn": pa.array([lsn], pa.int64()),
                "epoch": pa.array([epoch], pa.int32()),
                "op": pa.array([op], pa.string()),
                "doc_id": pa.array([doc], pa.string()),
                "tokens": tokens,
                "n_tok": pa.array(n_tok, pa.int32()),
                "source": pa.array(["planted"], pa.string()),
                "column_mask": pa.array([[]], pa.list_(pa.string())),
                "match_score": pa.array([score], pa.int32()),
                "schema_kind": pa.nulls(1, pa.string()),
                "schema_name": pa.nulls(1, pa.string()),
                "schema_new_name": pa.nulls(1, pa.string()),
            }
        )

    # epoch 0: a REJECTED update (score 30 < 50 fails the M14 gate — no
    # state effect); epoch 1: the planted full-replace update (score 100)
    # copying doc '1's tokens onto doc '0'. Two epochs so the index view
    # can anchor at epoch 0 and absorb the plant INCREMENTALLY.
    for e, tbl in (
        (0, _ev(1, 0, "update", "2", toks1, n1, 30)),
        (1, _ev(2, 1, "update", "0", toks1, n1, 100)),
    ):
        d = os.path.join(root, f"ep{e}")
        os.makedirs(d)
        pq.write_table(tbl, os.path.join(d, "part-0.parquet"))
    rp = Replayer(os.path.join(root, "table"), cfg, base_path=base_dir)
    rp.apply_epoch(0, os.path.join(root, "ep0"))
    rp.apply_epoch(1, os.path.join(root, "ep1"))
    _LAYOUT_MEMO[key] = rp
    return rp


NEAR_DUP_JACCARD = 0.8


def _token_shingles(tk: list) -> set:
    """Verify-stage shingle semantics, shared by the pair and probe
    queries (and mirrored by the DuckDB oracles): empty → ∅; <3 tokens →
    one whole-sequence shingle; else distinct rolling 3-tuples."""
    if not tk:
        return set()
    if len(tk) < 3:
        return {tuple(tk)}
    return {tuple(tk[i:i + 3]) for i in range(len(tk) - 2)}


def _ensure_mh_view(sf_dir: str, cfg: ReplayConfig | None):
    """Build (once per process) the MinHash index over the tokenized
    layout: anchor at epoch 0 (full build, planted update NOT yet
    applied), then refresh to head — the plant must arrive via the
    INCREMENTAL signed-delta path, or the driver gate degenerates to a
    full rebuild (cf. cdc_maintain_state). Returns (replayer, view)."""
    import tempfile

    from marc_data_migration_ray.pipelines.views import MinHashIndexView

    rp = _layout_replayer_tok(sf_dir, cfg or ReplayConfig(num_partitions=16))
    vroot = getattr(rp, "_mh_view_root", None)
    if vroot is None:
        vroot = tempfile.mkdtemp(prefix="cdc_mh_view_")
        view = MinHashIndexView(vroot, rp)
        view.refresh(to_epoch=0)
        rep = view.refresh()
        if rep["mode"] != "incremental":
            raise RuntimeError(
                "cdc_near_dup_index: head refresh was not incremental — "
                f"got mode={rep['mode']!r}"
            )
        rp._mh_view_root = vroot
    else:
        view = MinHashIndexView(vroot, rp)
        view.refresh()
    return rp, view


_ND_ATTACH_CG = 255  # coarse co-location mask for the pair↔tokens attach
_TOK_LIST_T = pa.list_(pa.int64())


def _attach_tokens(pairs: ray.data.Dataset, toks: ray.data.Dataset,
                   key: str, out_name: str, carry: dict) -> ray.data.Dataset:
    """Attach ``toks``'s (doc_id, tokens) arrays to each pair row as
    ``out_name`` by matching ``key`` — ONE coarse-group exchange: pair
    rows and token rows land in the same FNV-hash group, then a
    vectorized polars inner join runs per group. This is
    ``dedup._attach_text`` generalized to STRING keys and ``list<int64>``
    payloads so the CDC near-dup queries verify on WORKERS (VERDICT r3
    item 1: no token payload ever visits the driver). ``carry`` maps
    pair-side columns to arrow types (null-filled on the token side so
    the union schema is exact)."""
    import polars as pl

    from marc_data_migration_ray.functions.keys import _fnv1a_numpy

    def _cg(k: pa.Array) -> pa.Array:
        return pa.array(
            (_fnv1a_numpy(k) & np.uint64(_ND_ATTACH_CG)).astype(np.int32),
            pa.int32())

    def _pair_rows(t: pa.Table) -> pa.Table:
        k = pc.cast(t[key], pa.string())
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        cols = {"cg": _cg(k), "join_id": k,
                "is_tok": pa.array(np.zeros(t.num_rows, bool)),
                "tok": pa.nulls(t.num_rows, _TOK_LIST_T)}
        for c, typ in carry.items():
            cols[c] = pc.cast(t[c], typ)
        return pa.table(cols)

    def _tok_rows(t: pa.Table) -> pa.Table:
        k = pc.cast(t["doc_id"], pa.string())
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        cols = {"cg": _cg(k), "join_id": k,
                "is_tok": pa.array(np.ones(t.num_rows, bool)),
                "tok": pc.cast(t["tokens"], _TOK_LIST_T)}
        for c, typ in carry.items():
            cols[c] = pa.nulls(t.num_rows, typ)
        return pa.table(cols)

    mixed = pairs.map_batches(
        _pair_rows, batch_format="pyarrow", zero_copy_batch=True
    ).union(toks.map_batches(
        _tok_rows, batch_format="pyarrow", zero_copy_batch=True))

    def _join(g: pa.Table) -> pa.Table:
        df = pl.from_arrow(g.drop_columns(["cg"]))
        tk = df.filter(pl.col("is_tok")).select(["join_id", "tok"])
        pr = df.filter(~pl.col("is_tok")).drop(["tok"])
        out = (pr.join(tk, on="join_id", how="inner")
               .rename({"tok": out_name}).drop(["join_id", "is_tok"]))
        return out.to_arrow()

    return mixed.groupby("cg").map_groups(_join, batch_format="pyarrow")


def _verify_shingle_jaccard(a_col: str, b_col: str):
    """map_batches verify kernel: exact token-shingle Jaccard per
    candidate pair — candidate-sized batches on workers (the r3
    driver-side loop, distributed). Vectorized (VERDICT r4 item 3):
    offset arithmetic over the flat token buffers via the shared
    ``functions.shingles`` kernel, no per-pair Python set ops; results
    are bit-identical to the scalar ``_token_shingles`` algebra (pinned
    by the kernel's equivalence test)."""
    from marc_data_migration_ray.functions.shingles import (
        token_pair_jaccards)

    def _fn(t: pa.Table) -> pa.Table:
        ja = token_pair_jaccards(t[a_col], t[b_col])
        return t.drop_columns([a_col, b_col]).append_column(
            "jaccard", pa.array(ja, pa.float64()))

    return _fn


def _nd_empty(a_out: str, b_out: str) -> pa.Table:
    return pa.table({a_out: pa.array([], pa.string()),
                     b_out: pa.array([], pa.string()),
                     "jaccard": pa.array([], pa.float64())})


def _nd_result(ver: ray.data.Dataset, a_key: str, b_key: str,
               a_out: str, b_out: str) -> pa.Table:
    """Threshold-filter on workers, then collect the OUTPUT-sized result
    (the query returns a driver-side table by contract)."""
    rows = ver.filter(expr=f"jaccard >= {NEAR_DUP_JACCARD}").take_all()
    return pa.table({
        a_out: pa.array([r[a_key] for r in rows], pa.string()),
        b_out: pa.array([r[b_key] for r in rows], pa.string()),
        "jaccard": pa.array([r["jaccard"] for r in rows], pa.float64()),
    }).sort_by([(a_out, "ascending"), (b_out, "ascending")])


def cdc_near_dup_index(
    sf_dir: str, cfg: ReplayConfig | None = None,
) -> pa.Table:
    """Near-dup pairs THROUGH the incrementally-maintained MinHash-LSH
    index view (``views.MinHashIndexView``) over the tokenized CDC
    layout: refresh the index at the table head (its signature entries
    ride the payload change feed — the planted doc-'0'←doc-'1' update is
    reflected incrementally), read candidate pairs per bucket file
    (``candidate_pairs_ds``, a pathological bucket RAISES rather than
    silently dropping recall), then verify with EXACT token-shingle
    Jaccard — pairs hash-co-located with their key-filtered state
    payloads and verified on workers; only candidate IDS (output-scale)
    touch the driver, to route the partition-pruned ``lookup``. Oracle:
    all-pairs 3-token-shingle Jaccard ≥ 0.8 over the same portable md5
    token arrays with doc '0' overridden to doc '1's — equality proves
    the index's candidate generation loses nothing and its maintenance
    tracked the mid-stream update."""
    rp, view = _ensure_mh_view(sf_dir, cfg)
    pairs = view.candidate_pairs_ds().materialize()  # candidate-pair-sized
    cand_ids = sorted({v for r in pairs.select_columns(
        ["doc_a", "doc_b"]).take_all() for v in (r["doc_a"], r["doc_b"])})
    if not cand_ids:
        return _nd_empty("doc_a", "doc_b")
    toks = rp.lookup(
        cand_ids, columns=["doc_id", "tokens"]).materialize()
    wa = _attach_tokens(pairs, toks, "doc_a", "tok_a",
                        {"doc_a": pa.string(), "doc_b": pa.string()})
    wb = _attach_tokens(wa, toks, "doc_b", "tok_b",
                        {"doc_a": pa.string(), "doc_b": pa.string(),
                         "tok_a": _TOK_LIST_T})
    ver = wb.map_batches(_verify_shingle_jaccard("tok_a", "tok_b"),
                         batch_format="pyarrow", batch_size=4096)
    return _nd_result(ver, "doc_a", "doc_b", "doc_a", "doc_b")


#: probe keys for cdc_near_dup_probe ('0' carries doc '1's tokens after
#: the planted update, so it MUST surface '1' as a jaccard-1.0 match)
NEAR_DUP_PROBE_IDS = ("0", "3", "7")

#: incoming-doc selector for cdc_ingest_dedup_gate: state docs with
#: id % INGEST_GATE_MOD == INGEST_GATE_RESIDUE play "incoming" documents
INGEST_GATE_MOD = 7
INGEST_GATE_RESIDUE = 3


def _truncate_last_token(t: pa.Table) -> pa.Table:
    """(doc_id, tokens) → (doc_id, tokens[:-1]) vectorized via offset
    arithmetic — the gate's synthetic 'incoming' edit, computed on
    workers (no token list ever leaves the batch). Null token arrays
    behave as empty (match the r3 ``list(r or [])[:-1]`` semantics)."""
    tok = pc.cast(t["tokens"], _TOK_LIST_T)
    if isinstance(tok, pa.ChunkedArray):
        tok = tok.combine_chunks()
    off = tok.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    vals = np.asarray(tok.values).astype(np.int64) \
        if len(tok.values) else np.empty(0, np.int64)
    lens = off[1:] - off[:-1]
    valid = pc.is_valid(tok).to_numpy(zero_copy_only=False)
    lens = np.where(valid, lens, 0)
    newlens = np.maximum(lens - 1, 0)
    newoff = np.zeros(len(lens) + 1, np.int64)
    np.cumsum(newlens, out=newoff[1:])
    assert newoff[-1] < 2 ** 31  # int32 list offsets (ADVICE r3 item 5)
    src = np.repeat(off[:-1], newlens) + (
        np.arange(int(newoff[-1]), dtype=np.int64)
        - np.repeat(newoff[:-1], newlens))
    out = pa.ListArray.from_arrays(
        pa.array(newoff, pa.int32()),
        pa.array(vals[src] if len(src) else np.empty(0, np.int64),
                 pa.int64()))
    return pa.table({"doc_id": pc.cast(t["doc_id"], pa.string()),
                     "tokens": out})


def _probe_verify(rp, view, incoming: ray.data.Dataset,
                  a_out: str, b_out: str) -> pa.Table:
    """Shared distributed probe path: batch-probe the index from the
    ``incoming`` (doc_id, tokens) dataset, attach incoming tokens and
    key-filtered state tokens by hash co-location, verify shingle
    Jaccard on workers. Only candidate IDS (output-scale) touch the
    driver — they route the partition-pruned state ``lookup``."""
    pairs = view.probe_candidates_ds(incoming).materialize()  # pair-sized
    match_ids = sorted({r["match_id"] for r in pairs.select_columns(
        ["match_id"]).take_all()})
    if not match_ids:
        return _nd_empty(a_out, b_out)
    state_toks = rp.lookup(
        match_ids, columns=["doc_id", "tokens"]).materialize()
    wa = _attach_tokens(pairs, incoming, "probe_id", "tok_a",
                        {"probe_id": pa.string(), "match_id": pa.string()})
    wb = _attach_tokens(wa, state_toks, "match_id", "tok_b",
                        {"probe_id": pa.string(), "match_id": pa.string(),
                         "tok_a": _TOK_LIST_T})
    ver = wb.map_batches(_verify_shingle_jaccard("tok_a", "tok_b"),
                         batch_format="pyarrow", batch_size=4096)
    return _nd_result(ver, "probe_id", "match_id", a_out, b_out)


def near_dup_gate(rp, view, incoming: ray.data.Dataset,
                  a_out: str = "incoming_id",
                  b_out: str = "dup_of") -> pa.Table:
    """PUBLIC pre-ingest near-dup gate (the streaming-ingest form of
    ``cdc_ingest_dedup_gate``): probe an incoming (doc_id, tokens)
    Dataset against a :class:`views.MinHashIndexView` over the table's
    CURRENT state and return every ``(incoming_id, dup_of, jaccard)``
    verifying at ≥ ``NEAR_DUP_JACCARD`` — all distributed (batch index
    probe reading only touched buckets, hash-co-located worker-side
    exact verify). ``follow --dedup-gate-view`` calls this per epoch
    BEFORE applying it, the advisory form of "near-duplicates of
    already-held data never enter the table".

    ``incoming`` may carry several events per ``doc_id`` (a doc updated
    twice in one epoch): the gate dedupes to ONE probe row per id first
    — latest ``lsn`` wins when the column is present, otherwise the
    payloads must agree — because ``probe_candidates_ds`` requires each
    probe id in exactly one batch and the token attach would fan out on
    duplicates (ADVICE r4 item 2)."""
    return _probe_verify(
        rp, view, _dedupe_probes(incoming), a_out, b_out)


def _dedupe_probes(incoming: ray.data.Dataset) -> ray.data.Dataset:
    """One row per ``doc_id``: groupby + per-group pick (latest lsn, or
    the unique payload). Epoch-scale input, so the groupby shuffle is
    small; groups are almost all singletons."""
    has_lsn = "lsn" in incoming.schema().names

    def _one(t: pa.Table) -> pa.Table:
        if t.num_rows == 1:
            return t.select(["doc_id", "tokens"])
        if has_lsn:
            order = pc.sort_indices(
                t, sort_keys=[("lsn", "descending")])
            return t.take(order[:1]).select(["doc_id", "tokens"])
        toks = t["tokens"].to_pylist()
        if any(tk != toks[0] for tk in toks[1:]):
            raise ValueError(
                f"near_dup_gate: doc_id {t['doc_id'][0].as_py()!r} has "
                f"{t.num_rows} conflicting probe payloads and no lsn "
                "column to order them")
        return t.slice(0, 1).select(["doc_id", "tokens"])

    return incoming.groupby("doc_id").map_groups(
        _one, batch_format="pyarrow")


def cdc_ingest_dedup_gate(
    sf_dir: str, cfg: ReplayConfig | None = None,
) -> pa.Table:
    """The ingest-gate use of the MinHash index: would-be INCOMING
    documents are probed against the CURRENT state's index BEFORE any
    write, so near-duplicates of already-held data never enter the
    table. Incoming docs are synthesized deterministically as
    near-copies: every state doc with ``id % 7 == 3`` re-arrives with
    its LAST token dropped (a truncation edit — high but not perfect
    Jaccard to its source, and <0.8 for very short docs, so the
    threshold genuinely gates). The whole path is distributed (VERDICT
    r3 item 1): incoming docs stay a Dataset (key-filtered lookup →
    vectorized truncate), the index is probed per batch reading only
    touched buckets, and verification runs hash-co-located on workers.
    Output: (incoming_id, dup_of, jaccard) for every index candidate
    verifying at ≥ 0.8 — an incoming doc's own source normally appears
    as its dup_of; other docs near its source appear too. Oracle: the
    same truncated-vs-state shingle Jaccard computed declaratively."""
    rp, view = _ensure_mh_view(sf_dir, cfg)
    D = _doc_count(sf_dir)
    ids = [str(i) for i in range(INGEST_GATE_RESIDUE, D, INGEST_GATE_MOD)]
    incoming = rp.lookup(ids, columns=["doc_id", "tokens"]).map_batches(
        _truncate_last_token, batch_format="pyarrow", zero_copy_batch=True,
    ).materialize()
    return _probe_verify(rp, view, incoming, "incoming_id", "dup_of")


def cdc_near_dup_probe(
    sf_dir: str, cfg: ReplayConfig | None = None,
    probe_ids: tuple[str, ...] = NEAR_DUP_PROBE_IDS,
) -> pa.Table:
    """Point-probe path of the MinHash index view: look up each probe
    doc's CURRENT tokens (a Dataset — payloads stay off the driver),
    probe the index per batch (reads ONLY the probed sigs' buckets),
    verify candidates with worker-side exact token-shingle Jaccard, and
    return every (probe_id, match_id, jaccard) at ≥ 0.8 — self-matches
    included (a live probe always finds itself: its own entries are in
    the index). Oracle: the same Jaccard computed declaratively between
    the probe docs' post-update token arrays and every document's."""
    rp, view = _ensure_mh_view(sf_dir, cfg)
    probes = rp.lookup(
        list(probe_ids), columns=["doc_id", "tokens"]).materialize()
    return _probe_verify(rp, view, probes, "probe_id", "match_id")


def cdc_changes(sf_dir: str, cfg: ReplayConfig | None = None) -> ray.data.Dataset:
    """Driver surface for the change-data feed: replay the two-epoch
    split layout and return ``changes_between(0, 1)`` — the per-row diff
    (insert/update/delete + before/after images).

    Oracle: full outer join of the LWW-state SQL evaluated at the half
    cut vs the full binlog (same gate, same anchor/winner CTEs) — the
    declarative mirror of the engine's co-partitioned per-bucket diff."""
    rp = _layout_replayer_2ep(sf_dir, cfg or ReplayConfig(num_partitions=16))
    return rp.changes_between(0, 1)


def cdc_time_travel(sf_dir: str, cfg: ReplayConfig | None = None) -> ray.data.Dataset:
    """Driver surface for epoch time travel: the scalar LWW state read
    AS OF epoch 0 of the two-epoch split layout (epoch 1 is committed but
    must not leak into the read). Oracle: the LWW-state SQL with the
    half-cut gate — a declarative as-of snapshot."""
    rp = _layout_replayer_2ep(sf_dir, cfg or ReplayConfig(num_partitions=16))
    return _scalar_state(rp.read_state(up_to_epoch=0))


Z_SCAN_NTOK = (5, 60)
Z_SCAN_LSN_LO = 1  # excludes untouched base rows (last_lsn = -1)


def export_scan_prune_2d(sf_dir: str) -> ray.data.Dataset:
    """Z-order data skipping end-to-end: replay → 2-D Morton-clustered
    export over (n_tok, last_lsn) with per-column zone maps → pruned scan
    of ``n_tok BETWEEN 5 AND 60 AND last_lsn >= 1``. The oracle is the
    plain 2-D filter over the LWW state — equality proves pruning loses
    nothing; unlike 1-D range clustering, the SAME layout also prunes
    for predicates on the other column."""
    import tempfile

    from marc_data_migration_ray.pipelines.replay import scan_export

    cfg = ReplayConfig(num_partitions=16)
    rp = _layout_replayer(sf_dir, cfg)
    dest = os.path.join(tempfile.mkdtemp(prefix="cdc_zexport_"), "zordered")
    rp.export_snapshot(dest, cluster_by=("n_tok", "last_lsn"), n_ranges=16)
    scan = scan_export(
        dest, n_tok=Z_SCAN_NTOK, last_lsn=(Z_SCAN_LSN_LO, None))
    assert scan["ranges_scanned"] < scan["ranges_total"], "no pruning?"
    return _scalar_state(scan["dataset"])
