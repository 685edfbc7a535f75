"""Parse + gate + route stage (reference M1-M4, M9-M11, M13-M14).

``ParseRoute`` / ``PrepBase`` are callable classes. The replay pipeline
passes *instances* to ``map_batches`` → stateless task pools (elastic, no
actor cold-start; these stages hold no per-actor state beyond the config).
Passing the *class* with ``fn_constructor_args`` turns them into actor
pools when a caller needs that. Per-batch work is pure vectorized
Arrow/numpy (no per-row Python).

Each binlog event gets, in one pass:
- ``key`` / ``part_id``: the table's routing rule, ``functions.keys.
  route_keys`` (normalized doc_id or allocator-assigned local id;
  fnv1a64(key or raw) % num_partitions or the id's embedded partition),
- ``route``/``status``: the M14 gate truth table + dead-letter / local /
  schema routing per SEMANTICS.md (fold refines applied→noop later).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from marc_data_migration_ray.config import ReplayConfig
from marc_data_migration_ray.functions.keys import route_keys

#: unified schema emitted by ParseRoute and PrepBase (fold input).
PARSED_FIELDS = [
    ("is_base", pa.bool_()),
    ("lsn", pa.int64()),
    ("epoch", pa.int32()),
    ("op", pa.string()),
    ("doc_id_raw", pa.string()),
    ("key", pa.string()),
    ("part_id", pa.int32()),
    ("tokens", pa.list_(pa.int32())),
    ("n_tok", pa.int32()),
    ("source", pa.string()),
    ("column_mask", pa.list_(pa.string())),
    ("match_score", pa.int32()),
    ("title", pa.string()),
    ("match_title", pa.string()),
    ("extra_json", pa.string()),
    ("candidate_key", pa.string()),
    ("schema_kind", pa.string()),
    ("schema_name", pa.string()),
    ("schema_new_name", pa.string()),
    ("route", pa.string()),
    ("status", pa.string()),
    # set by the optional pre-collapse stage: a superseded hot-key update
    # kept (payload-stripped) for audit/count parity; it can never win a
    # fold column (see precollapse.py), so the fold needs no skip logic
    ("collapsed", pa.bool_()),
]
PARSED_SCHEMA = pa.schema(PARSED_FIELDS)


def _as_parsed(cols: dict) -> pa.Table:
    arrays = []
    for name, typ in PARSED_FIELDS:
        a = cols[name]
        if not isinstance(a, (pa.Array, pa.ChunkedArray)):
            a = pa.array(a, typ)
        elif a.type != typ:
            a = pc.cast(a, typ)
        if isinstance(a, pa.ChunkedArray):
            a = a.combine_chunks()
        arrays.append(a)
    return pa.Table.from_arrays(arrays, schema=PARSED_SCHEMA)


def _constraint_masks(batch: pa.Table, n: int, constraints) -> tuple:
    """Vectorized ingest-expectation evaluation (config.check_constraints).

    Returns ``(fail, status)``: ``fail[i]`` is True where row *i* violates
    any constraint; ``status[i]`` is ``'check-failed:<name>'`` for the
    FIRST failing constraint in declaration order (None elsewhere).
    Null payload values pass every op except ``not_null`` — an event that
    does not supply a column cannot violate a bound on it."""
    fail = np.zeros(n, bool)
    status = np.full(n, None, object)
    for name, col, op, val in constraints:
        if col not in batch.column_names:
            # optional feed columns (title, ...) may be absent from a
            # batch entirely; a bare KeyError here would kill the epoch
            # with an unrelated-looking traceback (code-review r5). An
            # absent column is all-null: not_null fails every row, any
            # bounded op passes (an event that does not supply a column
            # cannot violate a bound on it — the rule above).
            if op == "not_null":
                first = ~fail
                if first.any():
                    status[first] = f"check-failed:{name}"
                fail[:] = True
            continue
        arr = batch[col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        valid = pc.is_valid(arr).to_numpy(zero_copy_only=False)
        if op == "not_null":
            f = ~valid
        elif op == "matches":
            ok = pc.fill_null(pc.match_substring_regex(arr, val), True)
            f = valid & ~ok.to_numpy(zero_copy_only=False)
        elif op == "in":
            ok = pc.fill_null(
                pc.is_in(arr, value_set=pa.array(list(val), arr.type)), True
            )
            f = valid & ~ok.to_numpy(zero_copy_only=False)
        else:
            v = pc.fill_null(arr, 0).to_numpy(zero_copy_only=False)
            if op == "ge":
                f = valid & (v < val)
            elif op == "le":
                f = valid & (v > val)
            else:  # between
                f = valid & ((v < val[0]) | (v > val[1]))
        first = f & ~fail
        if first.any():
            status[first] = f"check-failed:{name}"
        fail |= f
    return fail, status


class ParseRoute:
    """Binlog batch → parsed/routed batch (PARSED_SCHEMA)."""

    def __init__(self, cfg: ReplayConfig):
        self.cfg = cfg

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        n = batch.num_rows
        raw = batch["doc_id"].combine_chunks() if isinstance(batch["doc_id"], pa.ChunkedArray) else batch["doc_id"]
        key, part_id = route_keys(raw, cfg.local_id_prefix, cfg.num_partitions)

        op = batch["op"].to_numpy(zero_copy_only=False)
        key_null = pc.is_null(key).to_numpy(zero_copy_only=False)
        doc_null = pc.is_null(raw).to_numpy(zero_copy_only=False)
        n_tok = batch["n_tok"]
        n_tok_valid = pc.is_valid(n_tok).to_numpy(zero_copy_only=False)
        n_tok_np = pc.fill_null(n_tok, 0).to_numpy(zero_copy_only=False)
        tokens_valid = pc.is_valid(batch["tokens"]).to_numpy(zero_copy_only=False)
        tok_len = pc.fill_null(pc.list_value_length(batch["tokens"]), 0).to_numpy(zero_copy_only=False)
        score = pc.fill_null(batch["match_score"], 0).to_numpy(zero_copy_only=False)

        is_schema = op == "schema_change"
        known_op = np.isin(op, ("insert", "update", "delete", "schema_change"))
        malformed = ~known_op | (
            (~is_schema)
            & (
                doc_null
                | (n_tok_valid & (n_tok_np < 0))
                | (tokens_valid & n_tok_valid & (n_tok_np != tok_len))
                | ((op == "insert") & ~tokens_valid)
            )
        )
        is_update = op == "update"
        f001 = cfg.fuzzy_001_test
        if f001:
            from marc_data_migration_ray.functions.keys import is_key_prefixed

            prefixed = pc.fill_null(is_key_prefixed(raw), False).to_numpy(
                zero_copy_only=False
            )
        else:
            prefixed = np.zeros(n, bool)
        below = score < cfg.fuzzy_threshold
        if cfg.check_constraints:
            chk_fail, chk_status = _constraint_masks(
                batch, n, cfg.check_constraints
            )
            chk_fail = chk_fail & np.isin(op, ("insert", "update")) & ~malformed
        else:
            chk_fail = np.zeros(n, bool)
            chk_status = np.full(n, None, object)
        conds = [
            malformed,
            is_schema,
            chk_fail,
            key_null & (op == "insert"),
            key_null,
            op == "delete",
            op == "insert",
            is_update & (score == 100),
            # reference do_fuzzy_001_test branch (record_update.py:395-410):
            # unprefixed raw key + sub-threshold score → unmodified; every
            # other sub-perfect update is applied as fuzzy (pass/fail label)
            is_update & np.full(n, f001) & ~prefixed & below,
            is_update & np.full(n, f001) & ~below,
            is_update & np.full(n, f001),
            is_update & np.full(n, cfg.require_perfect),
            is_update & (score >= cfg.fuzzy_threshold),
        ]
        routes = ["deadletter", "schema", "rejected", "local", "rejected",
                  "applied", "applied", "applied", "rejected", "fuzzy",
                  "fuzzy", "rejected", "fuzzy"]
        statuses = ["malformed", "schema", chk_status, "local", "no-key",
                    "tombstone", "inserted", "perfect", "fuzzy-match-failed",
                    "fuzzy-match-passed", "fuzzy-match-failed",
                    "fuzzy-match-failed", "fuzzy-match-passed"]
        route = np.select(conds, routes, default="rejected").astype(object)
        status = np.select(conds, statuses, default="fuzzy-match-failed").astype(object)

        # rejected events never apply: drop their token payload before the
        # write (the reference likewise never archives refused authority
        # payloads — only the fuzzy-audit metadata). Dead-letter rows KEEP
        # the payload (S7 raw archive).
        tokens_col = batch["tokens"]
        rejected = route == "rejected"
        if rejected.any():
            keep = pa.array(~rejected)
            tokens_col = pc.if_else(
                keep, tokens_col, pa.nulls(n, pa.list_(pa.int32()))
            )

        return _as_parsed(
            {
                "is_base": pa.array(np.zeros(n, bool)),
                "lsn": batch["lsn"],
                "epoch": batch["epoch"],
                "op": batch["op"],
                "doc_id_raw": raw,
                "key": key,
                "part_id": part_id,
                "tokens": tokens_col,
                "n_tok": batch["n_tok"],
                "source": batch["source"],
                "column_mask": batch["column_mask"],
                "match_score": batch["match_score"],
                "title": batch["title"] if "title" in batch.column_names else pa.nulls(n, pa.string()),
                "match_title": batch["match_title"] if "match_title" in batch.column_names else pa.nulls(n, pa.string()),
                "extra_json": batch["extra_json"] if "extra_json" in batch.column_names else pa.nulls(n, pa.string()),
                "candidate_key": pa.nulls(n, pa.string()),
                "schema_kind": batch["schema_kind"] if "schema_kind" in batch.column_names else pa.nulls(n, pa.string()),
                "schema_name": batch["schema_name"] if "schema_name" in batch.column_names else pa.nulls(n, pa.string()),
                "schema_new_name": batch["schema_new_name"] if "schema_new_name" in batch.column_names else pa.nulls(n, pa.string()),
                "route": pa.array(route, pa.string()),
                "status": pa.array(status, pa.string()),
                "collapsed": pa.array(np.zeros(n, bool)),
            }
        )


class PrepBase:
    """Base-table batch → parsed schema (is_base=True).

    ``assume_normalized=False`` (raw fixture base): keys are normalized;
    rows whose key does not normalize are dropped (unaddressable — SEMANTICS).
    ``assume_normalized=True`` (compacted snapshot): ``doc_id`` is already
    canonical (possibly a LOCAL- id); lineage columns (``last_lsn``,
    ``status``, ``candidate_key``) pass through.
    """

    def __init__(self, cfg: ReplayConfig, assume_normalized: bool = False):
        self.cfg = cfg
        self.assume_normalized = assume_normalized

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        if self.assume_normalized:
            raw = batch["doc_id"]
            key = pc.cast(raw, pa.string())
            lsn = (
                pc.fill_null(batch["last_lsn"], -1)
                if "last_lsn" in batch.column_names
                else pa.array(np.full(batch.num_rows, -1, np.int64))
            )
            status = batch["status"] if "status" in batch.column_names else None
            cand = batch["candidate_key"] if "candidate_key" in batch.column_names else None
            # compacted snapshots store their placement; preserve it so
            # LOCAL- rows stay in the partition that allocated them
            part_id = (pc.cast(batch["part_id"], pa.int32())
                       if "part_id" in batch.column_names else
                       route_keys(key, cfg.local_id_prefix, cfg.num_partitions)[1])
        else:
            key, part_id = route_keys(
                batch["doc_id"], cfg.local_id_prefix, cfg.num_partitions)
            # rows whose key does not normalize are unaddressable: drop them
            # (and their already-computed keys and partitions)
            mask = pc.is_valid(key)
            batch = batch.filter(mask)
            key = key.filter(mask)
            part_id = part_id.filter(mask)
            raw = batch["doc_id"]
            lsn = None
            status = None
            cand = None
        n = batch.num_rows
        return _as_parsed(
            {
                "is_base": pa.array(np.ones(n, bool)),
                "lsn": lsn if lsn is not None else pa.array(np.full(n, -1, np.int64)),
                "epoch": pa.array(np.full(n, -1, np.int32)),
                "op": pa.array(np.full(n, "base", object), pa.string()),
                "doc_id_raw": raw,
                "key": key,
                "part_id": part_id,
                # projection-pruned reads drop payload columns entirely
                "tokens": (batch["tokens"] if "tokens" in batch.column_names
                           else pa.nulls(n, pa.list_(pa.int32()))),
                "n_tok": batch["n_tok"],
                "source": (batch["source"] if "source" in batch.column_names
                           else pa.nulls(n, pa.string())),
                "column_mask": pa.nulls(n, pa.list_(pa.string())),
                "match_score": pa.nulls(n, pa.int32()),
                "title": pa.nulls(n, pa.string()),
                "match_title": pa.nulls(n, pa.string()),
                "extra_json": (
                    batch["extra_json"]
                    if self.assume_normalized and "extra_json" in batch.column_names
                    else pa.nulls(n, pa.string())
                ),
                "candidate_key": cand if cand is not None else pa.nulls(n, pa.string()),
                "schema_kind": pa.nulls(n, pa.string()),
                "schema_name": pa.nulls(n, pa.string()),
                "schema_new_name": pa.nulls(n, pa.string()),
                "route": pa.array(np.full(n, "base", object), pa.string()),
                "status": status if status is not None else pa.array(np.full(n, "base", object), pa.string()),
                "collapsed": pa.array(np.zeros(n, bool)),
            }
        )
