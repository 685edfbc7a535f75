"""Per-partition LWW fold (the merge-apply core).

Implements SEMANTICS.md §"Fold" fully vectorized with polars over one hash
partition's rows (base ∪ binlog deltas), called from the per-bucket fold
tasks of ``pipelines/replay.py``. All operations are columnar sorts /
group-by-last / joins — no per-key Python.

This is the analog of the reference's field-replacement core
(``record_update.py:843-887`` U1-U7) + unmodified-record path
(``record_update.py:479-504``) + local-id assignment
(``pnca_policy.py:174-223`` P6), recast as a deterministic keyed fold.

Winners come from ONE pass over every folded column (``lww_winners``):
one select computes each column's write flag, one narrow ``(key, lsn)``
sort and one ``group_by(key)`` pick each column's last flagged value plus
the row lineage, and ``col_replacements`` sums the same flags. The salted
stage 1 and merge reuse those flags, so the per-column LWW rule lives in
one place. A chain of eager calls per column would pay polars' fixed
per-call cost once per column, which dominates small buckets with many
DDL-added columns.

``extra_json`` invariant: a fold with DDL-added columns packs every output
row's ``extra_json`` with ``struct.json_encode`` over String values, so
fold output holds only JSON strings or nulls under canonical keys, and a
read decodes it once per row (``unpack_added``). Event payloads may carry
numbers, lists or objects, so event-side extraction (``_extra_value_expr``)
keeps ``json_path_match``.

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


def unpack_added(extra_json, names) -> list[pa.Array]:
    """Folded rows' ``extra_json`` → one string array per added column
    ``names`` (canonical keys; absent keys and null rows read null), by one
    ``json_decode`` per row — exact for fold output only (the module's
    ``extra_json`` invariant)."""
    if not names:
        return []
    dec = (pl.from_arrow(extra_json)
           .str.json_decode(pl.Struct({n: pl.String for n in names}))
           .struct.unnest().to_arrow())
    return [pc.cast(dec[n].combine_chunks(), pa.string()) for n in names]


def _write_flags(tl, cols: list[str], replace_only: bool = False,
                 ) -> list[pl.Expr]:
    """``_f_{c}`` for each ``c`` in ``cols``: does the update write ``c``?
    Its mask must write ``c`` as of its lsn (``_writes_expr``) and, under
    ``replace_only``, its anchor must carry ``c`` (``_ahas_{c}``)."""
    flags = []
    for c in cols:
        f = _writes_expr(tl, c)
        if replace_only:
            f = f & pl.col(f"_ahas_{c}")
        flags.append(f.fill_null(False).alias(f"_f_{c}"))
    return flags


def _flag_counts(df: pl.DataFrame, cols: list[str]) -> dict[str, int]:
    """``{c: rows of df with _f_{c} set}`` in one select: the
    ``col_replacements`` metric."""
    if not cols:
        return {}
    return dict(zip(cols, df.select(
        [pl.col(f"_f_{c}").sum() for c in cols]).row(0)))


def lww_winners(upd: pl.DataFrame, tl, cols: list[str],
                values: dict[str, pl.Expr], replace_only: bool = False,
                ) -> tuple[pl.DataFrame, dict[str, int]]:
    """The per-column LWW rule, one pass over every column.

    ``upd`` holds gate-passed updates (``key``, ``lsn``, ``status``,
    ``column_mask`` and what ``values`` reads). One narrow (key, lsn) sort
    and one ``group_by`` give, per key:

    * ``_w_{c}`` / ``_has_{c}`` for each ``c`` in ``values``: the value
      of the max-lsn update writing ``c`` (``_write_flags``), and whether
      any update does;
    * ``_llsn`` / ``_lstatus``: lsn and status of the max-lsn update (row
      lineage).

    Also returns ``_flag_counts`` over ``cols``."""
    narrow = upd.select("key", "lsn", "status",
                        *[v.alias(f"_v_{c}") for c, v in values.items()],
                        *_write_flags(tl, cols, replace_only))
    win = narrow.sort(["key", "lsn"]).group_by("key").agg(
        pl.col("lsn").last().alias("_llsn"),
        pl.col("status").last().alias("_lstatus"),
        *[pl.col(f"_v_{c}").filter(pl.col(f"_f_{c}")).last().alias(f"_w_{c}")
          for c in values],
        *[pl.col(f"_f_{c}").any().alias(f"_has_{c}") for c in values],
    )
    return win, _flag_counts(narrow, cols)


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

    # per-column winners and row lineage in one pass (``lww_winners``);
    # masks resolve as-of-lsn
    final = anchor.filter(pl.col("op") != "delete")
    tombstoned = anchor.filter(pl.col("op") == "delete").height
    values = {c: pl.col(c) for c in pay}
    values.update({c: _extra_value_expr(tl, c) for c in added_sel})
    win, col_repl = lww_winners(upd, tl, pay + added_sel, values,
                                cfg.strategy == "replace_only")

    def _winner_or(c: str, fallback: str):
        return (pl.when(pl.col(f"_has_{c}").fill_null(False))
                .then(pl.col(f"_w_{c}")).otherwise(pl.col(fallback)))

    # DDL-added columns: winner value from the event's extra_json payload,
    # anchor's stored value as fallback; final rows re-key canonically.
    # Lineage: an applied update's lsn always exceeds its anchor's, so the
    # last applied update (else the anchor itself) is the last contributor
    final = final.join(win, on="key", how="left").with_columns(
        *[_winner_or(c, c).alias(c) for c in pay],
        *([pl.struct(**{c: _winner_or(c, f"_aex_{c}") for c in added_sel})
           .struct.json_encode().alias("extra_json")] if added_sel else []),
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
    wcols = [c for c in list(PAYLOAD_COLUMNS) + tl.added
             if payload_cols is None or c in payload_cols]
    win, _ = lww_winners(upd, tl, wcols, {c: pl.col("lsn") for c in wcols})
    # forward each column's winner, plus the lineage candidate: the per-key
    # max-lsn update contributes last_lsn / status even when its (stale,
    # post-DDL) mask writes NO column — it must be forwarded or the merge's
    # row lineage could miss it
    winner_lsns = pl.concat(
        [win.select(pl.col(n).alias("lsn"))
         for n in ["_llsn", *[f"_w_{c}" for c in wcols]]])["lsn"]
    winners = upd.filter(pl.col("lsn").is_in(winner_lsns.drop_nulls().implode()))
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
    cols = _pay + _added_sel
    col_repl = _flag_counts(meta.filter(applies).select(_write_flags(
        tl, cols, cfg.strategy == "replace_only")), cols)

    # state-side metrics come from the fold, update-side numbers (noop /
    # col_replacements) from the complete metadata
    m["noop"] = noops.height
    m["noop_by_route"] = (
        {str(r[0]): int(r[1]) for r in noops.group_by("route").len().iter_rows()}
        if noops.height else {}
    )
    m["col_replacements"] = col_repl
    return rows, m

