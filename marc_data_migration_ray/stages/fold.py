"""Per-partition LWW fold (the merge-apply core).

Implements SEMANTICS.md §"Fold" fully vectorized with polars over one hash
partition's rows (base ∪ binlog deltas), called from the per-bucket fold
tasks of ``pipelines/replay.py``. All operations are columnar sorts /
group-by-last / joins — no per-key Python.

This is the analog of the reference's field-replacement core
(``record_update.py:843-887`` U1-U7) + unmodified-record path
(``record_update.py:479-504``) + local-id assignment
(``pnca_policy.py:174-223`` P6), recast as a deterministic keyed fold.

``fold_bucket`` returns a union-schema table: ``_kind='row'`` final rows
plus one ``_kind='metrics'`` JSON row per bucket (reference A1/A2
counters; rerouted updates are counted there as ``noop`` /
``noop_by_route``). ``split_fold`` turns it into the two outputs every
caller in the package uses — ``ROW_SCHEMA`` rows and the metrics dict —
so no package code outside this module reads ``_kind``.
"""

from __future__ import annotations

import json
import os

# Each fold task runs under num_cpus=1; without this, every Ray worker
# process spawns a full polars thread pool and 32 tasks × 32 threads
# oversubscribe the node (measured: kills 8→32 CPU scaling).
os.environ.setdefault("POLARS_MAX_THREADS", "1")

import polars as pl
import pyarrow as pa
import pyarrow.compute as pc

from marc_data_migration_ray.config import PAYLOAD_COLUMNS, ReplayConfig

FOLD_FIELDS = [
    ("_kind", pa.string()),
    ("doc_id", pa.string()),
    ("tokens", pa.list_(pa.int32())),
    ("n_tok", pa.int32()),
    ("source", pa.string()),
    ("last_lsn", pa.int64()),
    ("status", pa.string()),
    ("candidate_key", pa.string()),
    ("extra_json", pa.string()),
    ("part_id", pa.int32()),
    ("metrics_json", pa.string()),
]
FOLD_SCHEMA = pa.schema(FOLD_FIELDS)

_ROW_COLS = ["doc_id", "tokens", "n_tok", "source", "last_lsn", "status",
             "candidate_key", "extra_json"]
#: the folded rows of one bucket: ``_ROW_COLS`` + ``part_id``
ROW_SCHEMA = pa.schema([FOLD_SCHEMA.field(c) for c in _ROW_COLS + ["part_id"]])


def split_fold(out: pa.Table) -> tuple[pa.Table, dict]:
    """``fold_bucket`` output → (``ROW_SCHEMA`` rows, the bucket's metrics
    dict)."""
    is_row = pc.equal(out["_kind"], "row")
    m = out.filter(pc.invert(is_row))["metrics_json"]
    return (out.filter(is_row).select(ROW_SCHEMA.names),
            json.loads(m[0].as_py()) if len(m) else {})


def fold_input_columns(payload_cols: tuple[str, ...] | None = None) -> list[str]:
    """PARSED columns the fold actually consumes: everything except the
    audit-only title pair (those stay in the delta files for
    ``audit_dataset`` but never enter a fold task — ~title bytes × events
    of read+concat saved per fold).

    ``payload_cols`` (projection pushdown): additionally drop payload
    columns the read does not want — except ``n_tok``, which the base
    dedup rule always consumes as a sort key. ``extra_json`` is read only
    when a DDL-added column is requested (any name outside
    PAYLOAD_COLUMNS)."""
    from marc_data_migration_ray.stages.parse import PARSED_SCHEMA

    cols = [c for c in PARSED_SCHEMA.names if c not in ("title", "match_title")]
    if payload_cols is not None:
        drop = {c for c in ("tokens", "source") if c not in payload_cols}
        if not any(c not in PAYLOAD_COLUMNS for c in payload_cols):
            drop.add("extra_json")
        cols = [c for c in cols if c not in drop]
    return cols


# ------------------------------------------------------------------ DDL --
def _writes_expr(tl, c: str):
    """polars predicate: does this update's mask write canonical ``c`` as
    of the update's lsn? (Timeline.writes, vectorized: empty mask ⇒ base
    payload columns; else the mask must contain the column's then-visible
    name.)"""
    exprs = []
    if c in PAYLOAD_COLUMNS:
        exprs.append(pl.col("column_mask").list.len().fill_null(0) == 0)
    for start, end, name in tl.segments[c]:
        e = pl.col("column_mask").list.contains(name).fill_null(False)
        if start is not None:
            e = e & (pl.col("lsn") >= start)
        if end is not None:
            e = e & (pl.col("lsn") < end)
        exprs.append(e)
    out = exprs[0]
    for e in exprs[1:]:
        out = out | e
    return out


def _extra_value_expr(tl, c: str):
    """polars expr: the value an event/row carries for added column ``c``.

    Event payloads key ``extra_json`` by the column's then-visible name;
    folded/compacted rows key it by the canonical name — extract by the
    lsn's segment name first, canonical key as fallback."""
    expr = pl.col("extra_json").str.json_path_match(f"$.{c}")
    for start, end, name in tl.segments[c]:
        if name == c:
            continue
        seg = pl.col("extra_json").str.json_path_match(f"$.{name}")
        cond = pl.lit(True)
        if start is not None:
            cond = pl.col("lsn") >= start
        if end is not None:
            cond = cond & (pl.col("lsn") < end)
        expr = pl.when(cond & seg.is_not_null()).then(seg).otherwise(expr)
    return expr


def _to_arrow(df: pl.DataFrame) -> pa.Table:
    """polars → arrow with the exact FOLD_SCHEMA types."""
    t = df.to_arrow()
    arrays = []
    for name, typ in FOLD_FIELDS:
        if name in t.column_names:
            col = t.column(name)
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            arrays.append(pc.cast(col, typ))
        else:
            arrays.append(pa.nulls(t.num_rows, typ))
    return pa.Table.from_arrays(arrays, schema=FOLD_SCHEMA)


def fold_bucket(
    tbl: pa.Table,
    cfg: ReplayConfig,
    local_id_offsets: dict[int, int] | None = None,
    schema_ops: list[dict] | None = None,
    payload_cols: tuple[str, ...] | None = None,
) -> pa.Table:
    """Fold one partition's base+delta rows into final rows + metrics
    (``split_fold`` separates the two).

    ``schema_ops`` (lsn-ordered DDL) drives mid-stream mask resolution: a
    column mask refers to the schema AS OF the event's lsn (post-rename
    names), and DDL-added columns are writable by later masked updates via
    the ``extra_json`` payload (SEMANTICS §schema).

    ``payload_cols`` (projection pushdown, canonical names): fold ONLY these
    payload / DDL-added columns — per-column LWW is independent per column
    and row membership (anchors, tombstones, local-id allocation, lineage)
    never reads payload values, so a pruned fold's requested columns are
    bit-identical to a full fold's. Unrequested columns come back null in
    the fixed FOLD_SCHEMA; metrics col_replacements covers only the folded
    columns (pruned folds serve reads, never ``fold_metrics``)."""
    from marc_data_migration_ray.state.schema_timeline import Timeline

    tl = Timeline(schema_ops)
    pay = [c for c in PAYLOAD_COLUMNS
           if payload_cols is None or c in payload_cols]
    added_sel = [c for c in tl.added
                 if payload_cols is None or c in payload_cols]
    df = pl.from_arrow(tbl)
    base = df.filter(pl.col("is_base"))
    if base.height:
        # base dedup: greatest raw doc_id, then greatest n_tok (SEMANTICS)
        base = base.sort(["key", "doc_id_raw", "n_tok"]).unique(
            subset=["key"], keep="last", maintain_order=True
        )
    ev = df.filter(~pl.col("is_base"))
    # duplicate-delivery absorption: lsn is globally unique by contract, so a
    # re-delivered event is bit-identical — keep one (SEMANTICS §exactly-once)
    ev = ev.unique(subset=["lsn"], keep="first", maintain_order=True)
    applied = ev.filter(pl.col("route").is_in(["applied", "fuzzy"]))
    local = ev.filter(pl.col("route") == "local")

    anchors = pl.concat(
        [base, applied.filter(pl.col("op").is_in(["insert", "delete"]))],
        how="vertical",
    )
    anchor = anchors.sort(["key", "lsn"]).unique(
        subset=["key"], keep="last", maintain_order=True
    )
    # anchor-side values for added columns (canonical-keyed on rows,
    # segment-keyed on insert events)
    anchor = anchor.with_columns(
        *[_extra_value_expr(tl, c).alias(f"_aex_{c}") for c in added_sel]
    )
    # join only what updates consume: anchor lsn/op for the applies gate,
    # and NULL-FLAGS for the replace_only gate — broadcasting the anchor's
    # token payload onto every update row would be pure wasted bandwidth
    anchor_j = anchor.select(
        "key",
        pl.col("lsn").alias("_alsn"),
        pl.col("op").alias("_aop"),
        *[pl.col(c).is_not_null().alias(f"_ahas_{c}") for c in pay],
        *[pl.col(f"_aex_{c}").is_not_null().alias(f"_ahas_{c}") for c in added_sel],
    )
    updates = applied.filter(pl.col("op") == "update").join(
        anchor_j, on="key", how="left"
    )
    applies = (
        pl.col("_alsn").is_not_null()
        & (pl.col("lsn") > pl.col("_alsn"))
        & (pl.col("_aop") != "delete")
    ).fill_null(False)
    noops = updates.select("lsn", "route", applies.alias("_ap")).filter(
        ~pl.col("_ap")
    )
    upd = updates.filter(applies)

    # per-column winners (group-by-last over lsn); masks resolve as-of-lsn
    col_repl: dict[str, int] = {}
    final = anchor.filter(pl.col("op") != "delete")
    tombstoned = anchor.filter(pl.col("op") == "delete").height
    for c in pay:
        wc = upd.filter(_writes_expr(tl, c))
        if cfg.strategy == "replace_only":
            wc = wc.filter(pl.col(f"_ahas_{c}"))
        col_repl[c] = wc.height
        winner = (
            # narrow frame: sort/unique must not drag the update's full
            # payload width through the gathers
            wc.select("key", "lsn", c)
            .sort(["key", "lsn"])
            .unique(subset=["key"], keep="last", maintain_order=True)
            .select("key", pl.col(c).alias(f"_w_{c}"), pl.lit(True).alias(f"_has_{c}"))
        )
        final = final.join(winner, on="key", how="left")
        final = final.with_columns(
            pl.when(pl.col(f"_has_{c}").fill_null(False))
            .then(pl.col(f"_w_{c}"))
            .otherwise(pl.col(c))
            .alias(c)
        ).drop([f"_w_{c}", f"_has_{c}"])
    # DDL-added columns: winner value from the event's extra_json payload,
    # anchor's stored value as fallback; final rows re-key canonically
    for c in added_sel:
        wc = upd.filter(_writes_expr(tl, c))
        if cfg.strategy == "replace_only":
            wc = wc.filter(pl.col(f"_ahas_{c}"))
        col_repl[c] = wc.height
        winner = (
            wc.select("key", "lsn", _extra_value_expr(tl, c).alias(f"_w_{c}"))
            .sort(["key", "lsn"])
            .unique(subset=["key"], keep="last", maintain_order=True)
            .select("key", f"_w_{c}", pl.lit(True).alias(f"_has_{c}"))
        )
        final = final.join(winner, on="key", how="left")
        final = final.with_columns(
            pl.when(pl.col(f"_has_{c}").fill_null(False))
            .then(pl.col(f"_w_{c}"))
            .otherwise(pl.col(f"_aex_{c}"))
            .alias(f"_fx_{c}")
        ).drop([f"_w_{c}", f"_has_{c}"])
    if added_sel:
        final = final.with_columns(
            pl.struct(
                **{c: pl.col(f"_fx_{c}") for c in added_sel}
            ).struct.json_encode().alias("extra_json")
        ).drop([f"_fx_{c}" for c in added_sel])

    # row lineage: last contributing event (applied updates ∪ insert anchors)
    contrib = pl.concat(
        [
            upd.select("key", "lsn", "status"),
            anchor.filter(pl.col("op") == "insert").select("key", "lsn", "status"),
        ],
        how="vertical",
    )
    last = (
        contrib.sort(["key", "lsn"])
        .unique(subset=["key"], keep="last", maintain_order=True)
        .select("key", pl.col("lsn").alias("_llsn"), pl.col("status").alias("_lstatus"))
    )
    final = final.join(last, on="key", how="left").with_columns(
        pl.coalesce([pl.col("_llsn"), pl.col("lsn")]).alias("last_lsn"),
        pl.coalesce([pl.col("_lstatus"), pl.col("status")]).alias("status"),
    )
    # pruned payload / extra_json columns may be absent from the frame
    # entirely (projection pushdown removed them at the parquet read);
    # _to_arrow null-fills anything missing from the fixed FOLD_SCHEMA
    rows = final.select(
        pl.lit("row").alias("_kind"),
        pl.col("key").alias("doc_id"),
        *[c for c in ("tokens", "n_tok", "source") if c in final.columns],
        "last_lsn",
        "status",
        "candidate_key",
        *(["extra_json"] if "extra_json" in final.columns else []),
        "part_id",
    )

    # local-id allocation: per-partition rank in lsn order (reference P6)
    if local.height:
        if added_sel:
            # re-key local rows' extra payload canonically (event payloads
            # are keyed by then-visible names)
            local = local.with_columns(
                pl.struct(
                    **{c: _extra_value_expr(tl, c) for c in added_sel}
                ).struct.json_encode().alias("extra_json")
            )
        local = local.sort(["part_id", "lsn"]).with_columns(
            pl.col("lsn").cum_count().over("part_id").alias("_rank")
        )
        offsets = local_id_offsets or {}
        if offsets:
            off_df = pl.DataFrame(
                {"part_id": list(offsets.keys()), "_off": list(offsets.values())},
                schema={"part_id": pl.Int32, "_off": pl.Int64},
            )
            local = local.join(off_df, on="part_id", how="left").with_columns(
                pl.col("_off").fill_null(0)
            )
        else:
            local = local.with_columns(pl.lit(0, pl.Int64).alias("_off"))
        local_rows = local.select(
            pl.lit("row").alias("_kind"),
            (
                pl.lit(cfg.local_id_prefix + "-")
                + pl.col("part_id").cast(pl.String).str.zfill(4)
                + pl.lit("-")
                + (pl.lit(cfg.local_id_start, pl.Int64) + pl.col("_off") + pl.col("_rank")).cast(pl.String)
            ).alias("doc_id"),
            *[c for c in ("tokens", "n_tok", "source") if c in local.columns],
            pl.col("lsn").alias("last_lsn"),
            pl.lit("local").alias("status"),
            pl.col("doc_id_raw").alias("candidate_key"),
            *(["extra_json"] if "extra_json" in local.columns else []),
            "part_id",
        )
    else:
        local_rows = None

    out = [_to_arrow(rows)]
    if local_rows is not None:
        out.append(_to_arrow(local_rows))

    part_ids = df["part_id"].unique().to_list() if df.height else []
    # exact per-part local-insert counts (drives the allocator offsets on
    # compaction; local events' part = hash(raw key) % P, so within a bucket
    # several parts can allocate independently)
    local_by_part = (
        {int(r[0]): int(r[1]) for r in local.group_by("part_id").len().iter_rows()}
        if local.height
        else {}
    )
    # noop counts grouped by the noop'd event's ORIGINAL route, so
    # fold_metrics can subtract them from the pre-fold applied/fuzzy counts
    # (invariant: processed == sum(all routes), ADVICE r1)
    noop_by_route = (
        {str(r[0]): int(r[1]) for r in noops.group_by("route").len().iter_rows()}
        if noops.height
        else {}
    )
    metrics = {
        "part_ids": sorted(p for p in part_ids if p is not None),
        "noop": noops.height,
        "noop_by_route": noop_by_route,
        "tombstoned": tombstoned,
        "col_replacements": col_repl,
        "local": local.height if local.height else 0,
        "local_by_part": local_by_part,
        "rows": rows.height + (local_rows.height if local_rows is not None else 0),
    }
    mrow = pa.Table.from_arrays(
        [
            pa.array(["metrics"], pa.string()),
            *[pa.nulls(1, typ) for name, typ in FOLD_FIELDS[1:-1]],
            pa.array([json.dumps(metrics)], pa.string()),
        ],
        schema=FOLD_SCHEMA,
    )
    out.append(mrow)
    return pa.concat_tables(out)


# --------------------------------------------------------------------- #
# salted two-stage fold (cross-partition hot-key mitigation)
# --------------------------------------------------------------------- #
# Associativity argument (each stage-1 summary is mergeable):
# - anchor: the global max-lsn row among base ∪ applied inserts/deletes is
#   the max over per-sub-bucket maxima (base rows all land in salt 0, so
#   the base-dedup tie rule runs exactly once);
# - per-column value: the global winner (max-lsn gate-passed update whose
#   mask allows c) is the max over per-sub-bucket winners — a sub-bucket's
#   non-winner can never beat its own winner's lsn;
# - lineage: the global max-lsn APPLIER allows ≥1 column (empty mask = all),
#   and for every column it allows it is that column's global winner (any
#   later mask-allower would itself be a later applier) — so it is always
#   forwarded in the winner section;
# - noop / col-replacement metrics need every gate-passed update's
#   (key, lsn, route, mask) — forwarded payload-STRIPPED (the `u` section),
#   so the merge touches bytes proportional to event COUNT, not payload.

def fold_salted_stage1(
    tbl: pa.Table, cfg: ReplayConfig, schema_ops: list[dict] | None = None,
    payload_cols: tuple[str, ...] | None = None,
) -> pa.Table:
    """Stage 1: one physical sub-bucket → mergeable summary table
    (PARSED columns + ``_sec`` ∈ {a: anchor candidate, w: per-column winner
    candidates, u: payload-stripped update metadata, l: local inserts}).

    ``payload_cols`` (projection pushdown): winner candidates are computed
    only for the requested columns — unrequested winners would be merged
    into columns the read drops anyway."""
    from marc_data_migration_ray.state.schema_timeline import Timeline

    tl = Timeline(schema_ops)
    df = pl.from_arrow(tbl)
    base = df.filter(pl.col("is_base"))
    if base.height:
        base = base.sort(["key", "doc_id_raw", "n_tok"]).unique(
            subset=["key"], keep="last", maintain_order=True
        )
    ev = df.filter(~pl.col("is_base")).unique(
        subset=["lsn"], keep="first", maintain_order=True
    )
    applied = ev.filter(pl.col("route").is_in(["applied", "fuzzy"]))
    anchors = pl.concat(
        [base, applied.filter(pl.col("op").is_in(["insert", "delete"]))],
        how="vertical",
    )
    anchor = anchors.sort(["key", "lsn"]).unique(
        subset=["key"], keep="last", maintain_order=True
    )
    upd = applied.filter(pl.col("op") == "update")
    winner_lsns: set[int] = set()
    for c in list(PAYLOAD_COLUMNS) + tl.added:
        if payload_cols is not None and c not in payload_cols:
            continue
        wc = upd.filter(_writes_expr(tl, c))
        if wc.height:
            w = wc.sort(["key", "lsn"]).unique(subset=["key"], keep="last")
            winner_lsns.update(w["lsn"].to_list())
    # lineage candidate: the per-key max-lsn update contributes last_lsn /
    # status even when its (stale, post-DDL) mask writes NO column — it
    # must be forwarded or the merge's row lineage could miss it
    if upd.height:
        lin = upd.sort(["key", "lsn"]).unique(subset=["key"], keep="last")
        winner_lsns.update(lin["lsn"].to_list())
    winners = upd.filter(pl.col("lsn").is_in(sorted(winner_lsns))) if winner_lsns else upd.head(0)
    _strip_types = {"tokens": pl.List(pl.Int32), "n_tok": pl.Int32,
                    "source": pl.String, "extra_json": pl.String,
                    "title": pl.String, "match_title": pl.String}
    # a pruned read may have dropped some of these entirely
    strip = [pl.lit(None, typ).alias(c) for c, typ in _strip_types.items()
             if c in upd.columns]
    meta = upd.with_columns(strip)
    local = ev.filter(pl.col("route") == "local")
    secs = [
        anchor.with_columns(pl.lit("a").alias("_sec")),
        winners.with_columns(pl.lit("w").alias("_sec")),
        meta.with_columns(pl.lit("u").alias("_sec")),
        local.with_columns(pl.lit("l").alias("_sec")),
    ]
    out = pl.concat(secs, how="vertical").to_arrow()
    # normalize to the input's PARSED subset + _sec (polars may widen types;
    # fold inputs usually exclude the audit-only title columns)
    from marc_data_migration_ray.stages.parse import PARSED_SCHEMA

    cols, names, types = [], [], []
    for name, typ in zip(PARSED_SCHEMA.names, PARSED_SCHEMA.types):
        if name in out.column_names:
            names.append(name)
            types.append(typ)
    names.append("_sec")
    types.append(pa.string())
    for name, typ in zip(names, types):
        c = out.column(name)
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        cols.append(pc.cast(c, typ))
    return pa.Table.from_arrays(cols, schema=pa.schema(list(zip(names, types))))


def fold_salted_merge(
    tbl: pa.Table,
    cfg: ReplayConfig,
    local_id_offsets: dict[int, int] | None = None,
    schema_ops: list[dict] | None = None,
    payload_cols: tuple[str, ...] | None = None,
) -> tuple[pa.Table, dict]:
    """Stage 2: concat of a logical partition's stage-1 summaries →
    (``ROW_SCHEMA`` rows, metrics dict). State comes from fold_bucket over
    the anchor / winner / local sections; noop + col-replacement metrics
    are recomputed exactly from the complete update-metadata section."""
    from marc_data_migration_ray.state.schema_timeline import Timeline

    tl = Timeline(schema_ops)
    df = pl.from_arrow(tbl)
    meta = df.filter(pl.col("_sec") == "u").drop("_sec")
    fold_in = df.filter(pl.col("_sec") != "u").drop("_sec")
    rows, m = split_fold(fold_bucket(fold_in.to_arrow(), cfg, local_id_offsets,
                                     schema_ops, payload_cols))

    # recompute the global anchor over the candidate section (same rule as
    # fold_bucket) to judge every update in `meta`
    base = fold_in.filter(pl.col("is_base"))
    if base.height:
        base = base.sort(["key", "doc_id_raw", "n_tok"]).unique(
            subset=["key"], keep="last", maintain_order=True
        )
    ev = fold_in.filter(~pl.col("is_base")).unique(subset=["lsn"], keep="first")
    anchors = pl.concat(
        [base, ev.filter(pl.col("route").is_in(["applied", "fuzzy"])
                         & pl.col("op").is_in(["insert", "delete"]))],
        how="vertical",
    )
    _pay = [c for c in PAYLOAD_COLUMNS
            if payload_cols is None or c in payload_cols]
    _added_sel = [c for c in tl.added
                  if payload_cols is None or c in payload_cols]
    anchor = anchors.sort(["key", "lsn"]).unique(subset=["key"], keep="last")
    anchor = anchor.with_columns(
        *[_extra_value_expr(tl, c).alias(f"_aex_{c}") for c in _added_sel]
    )
    anchor_j = anchor.select(
        "key",
        pl.col("lsn").alias("_alsn"),
        pl.col("op").alias("_aop"),
        *[pl.col(c).is_not_null().alias(f"_ahas_{c}") for c in _pay],
        *[pl.col(f"_aex_{c}").is_not_null().alias(f"_ahas_{c}") for c in _added_sel],
    )
    meta = meta.unique(subset=["lsn"], keep="first").join(anchor_j, on="key", how="left")
    applies = (
        pl.col("_alsn").is_not_null()
        & (pl.col("lsn") > pl.col("_alsn"))
        & (pl.col("_aop") != "delete")
    ).fill_null(False)
    noops = meta.filter(~applies)
    applied_meta = meta.filter(applies)
    col_repl = {}
    for c in _pay + _added_sel:
        wc = applied_meta.filter(_writes_expr(tl, c))
        if cfg.strategy == "replace_only":
            wc = wc.filter(pl.col(f"_ahas_{c}"))
        col_repl[c] = wc.height

    # state-side metrics come from the fold, update-side numbers (noop /
    # col_replacements) from the complete metadata
    m["noop"] = noops.height
    m["noop_by_route"] = (
        {str(r[0]): int(r[1]) for r in noops.group_by("route").len().iter_rows()}
        if noops.height else {}
    )
    m["col_replacements"] = col_repl
    return rows, m

