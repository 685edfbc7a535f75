"""End-to-end CDC replay pipeline (the flagship).

Physical plan (SURVEY §4.2) — co-partitioned, shuffle-free merge-on-read:

    binlog epoch ──read_parquet──► ParseRoute (actor pool, map_batches,
                                   zero-copy Arrow: key normalize M1-M3,
                                   gate M13-M14, route, part_id)
                 ──write_parquet(partition_cols=[part_p])──►
                    deltas/epoch=N/part_p=P/...   (hash-partitioned ON DISK;
                                                   the parquet IS the audit +
                                                   dead-letter sink too)
                 ──manifest.commit_epoch──►  exactly-once, epoch-fenced

    The write task returns each file's manifest stats (``_delta_file_stats``)
    and writes its ``.keybloom`` sidecar from the rows it holds, so there
    is no stats pass: only an epoch dir re-adopted from an earlier attempt
    reads its stats back from the files. ``compact_deltas`` writes its
    segment sidecars too, so ``build_key_blooms`` only backfills old tables.

    state: base is bucketized once into the same part_p layout; thereafter
    every read_state/compact is P INDEPENDENT per-bucket fold tasks
    (vectorized polars LWW fold, SEMANTICS.md) — no all-to-all exchange,
    ever. The partitioning key is chosen once (fnv1a64(doc_id) %
    num_partitions) and reused by every stage (ray_guide: "pick ONE
    partitioning key and reuse it across stages").

    The layout is decided in one place each: ``functions.keys.route_keys``
    maps a key to its logical partition for every writer and reader
    (ingest, base bucketization, lookup, repartition, merge, export);
    ``_part_p`` / ``_logical_part`` / ``_part_dir`` / ``_file_part`` map
    logical partitions to physical ``part_p`` dirs and back;
    ``_delta_read_set`` is the segment-aware delta walk of both the fold
    and ``explain_layout``; ``_oldest_unsegmented_run`` is the one run
    finder of ``auto_segment_epochs`` and the maintenance plan; and
    ``_event_files`` is the partition-filtered committed-event-file walk
    of ``doc_history_many`` and ``build_key_blooms``.

    compact() materializes the fold into a new bucketized base snapshot
    (LSM merge of the sorted runs) and advances local-id allocator offsets.
    Each fold task writes its own partition's snapshot file
    (``_WriteSnapshotRows``) and returns an empty row table beside its
    metrics, so a compaction never shuffles: no Ray Data write, no object-store
    transfer of the token payload. Only ingest, base bucketization and
    repartition move rows between partitions through
    ``write_parquet_partitioned``.

    backfill / delete_where / merge are engine-generated epochs with one
    write path (``Replayer._apply_generated``): fold the state, mint each
    partition's binlog rows in one ``_generate_part_task`` (the operation
    is a small picklable ``gen``; ``_gen_rows`` builds the rows), then
    ``apply_epoch`` them like any upstream epoch.

    export_snapshot copies the public state out hash-partitioned, or
    clustered by one or two int columns through one bounded-bin Z-order
    path (``_write_clustered``: at most 65536 bins, exact per-range zones
    per column); ``scan_export`` is the one zone-pruned reader of it.

Scale notes (100 TB): the per-bucket fold is the unit of memory — size
``num_partitions`` so one bucket's live rows fit a worker (thousands of
partitions at cluster scale). Epoch ingest is embarrassingly parallel
map+write; fold is embarrassingly parallel per bucket; the only global
coordination is the manifest append. Hot *keys* are folded vectorized
inside their bucket (no per-key Python), so skew cost is bounded by bucket
imbalance, which the fnv1a hash keeps small. Raw ``@ray.remote`` tasks are
used for the per-bucket fold because the Dataset API cannot express
"coalesce pre-partitioned files into per-partition groups without a
shuffle" (a bare ``groupby(part_id).map_groups`` re-shuffles data that is
already partitioned on disk — measured 4-10× slower). Each fold task
returns two refs: its rows (``ROW_SCHEMA``, after the task's ``post``
chain) and its metrics dict. For read_state and lookup the ``post`` chain
is the postprocess (schema evolution, policies, generated columns,
projection), so public-schema rows re-enter the Dataset world via
``ray.data.from_arrow_refs`` with no operator on top; only
``fold_metrics``, ``compact`` and ``repartition`` fetch the metrics refs.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from marc_data_migration_ray.config import PAYLOAD_COLUMNS, ReplayConfig
from marc_data_migration_ray.functions.keys import (mod_bucket, normalize_keys,
                                                     route_keys)
from marc_data_migration_ray.stages.fold import (ROW_SCHEMA, fold_bucket,
                                                 split_fold)
from marc_data_migration_ray.stages.parse import PARSED_SCHEMA, ParseRoute, PrepBase
from marc_data_migration_ray.sources.pwrite import write_parquet_partitioned
from marc_data_migration_ray.state.manifest import Manifest

#: display columns of the final table (pre-DDL); extra_json is the internal
#: carrier for DDL-added column values, materialized at read time.
_DISPLAY_COLS = ["doc_id", "tokens", "n_tok", "source", "last_lsn", "status", "candidate_key"]
_ROW_COLS = _DISPLAY_COLS + ["extra_json"]

#: one row group per written file: Ray's parquet sink otherwise emits one
#: row group PER INCOMING BLOCK SLICE — with 64 partition dirs a 8192-row
#: batch leaves ~128-row row groups, and a bucket fold then decodes ~700
#: thrift-heavy micro-groups where ~50 would do (measured 2x fold read
#: cost). Any value above rows-per-file collapses each file to one group;
#: the writer's buffering is bounded by the task's own block size.
_ROW_GROUP_SIZE = 1 << 20


#: target parsed-block size for the ingest write. Fewer, larger blocks keep
#: the partitioned write from exploding into blocks x partitions tiny files
#: (measured 12,800 ~57KB files -> 1,024 at 8 cpus, 3.2x faster ingest);
#: bytes-bounded at scale so a 10^10-event epoch still streams in ~128 MiB
#: blocks instead of 2xCPU giant ones.
INGEST_BLOCK_BYTES = 128 << 20


def _ingest_num_blocks(input_bytes: int) -> int:
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    by_bytes = input_bytes // INGEST_BLOCK_BYTES + 1
    return int(max(by_bytes, 2 * ncpu))


def _paths_bytes(paths) -> int:
    paths = paths if isinstance(paths, list) else [paths]
    total = 0
    for p in paths:
        if os.path.isdir(p):
            for f in glob.glob(os.path.join(p, "**", "*.parquet"), recursive=True):
                total += os.path.getsize(f)
        elif os.path.isfile(p):
            total += os.path.getsize(p)
    return total


# Partition placement. Keys route to P LOGICAL partitions (``route_keys``);
# on disk each logical partition owns S = num_salts PHYSICAL ``part_p``
# dirs. Base and snapshot rows sit in salt 0 (``part_id*S``); delta events
# in ``part_id*S + lsn%S``, so a hot key's events spread over S sub-buckets.
# These helpers are the only place that layout is spelled out.
def _part_p(part_id, S: int, lsn=None):
    """Physical ``part_p`` of logical ``part_id``: an int, or an Arrow
    column (with the events' ``lsn`` column for delta rows)."""
    if isinstance(part_id, int):
        return part_id * S
    if S == 1:
        return part_id
    p = pc.multiply(pc.cast(part_id, pa.int64()), S)
    if lsn is not None:
        p = pc.add(p, mod_bucket(lsn, S))
    return pc.cast(p, pa.int32())


def _logical_part(part_p: int, S: int) -> int:
    return part_p // S


def _part_dir(root: str, part_p) -> str:
    return os.path.join(root, f"part_p={part_p}")


def _file_part(path: str) -> int:
    """``part_p`` of a file under a ``_part_dir``."""
    return int(os.path.basename(os.path.dirname(path)).split("=", 1)[1])


#: file-skipping key index sidecar (Delta/Iceberg bloom-filter-index
#: analog): <delta file>.keybloom = 8-byte header (magic 'KBL1',
#: keyless-flag byte, 3 reserved) + uint32 m_bits + a bitmap RIGHT-SIZED
#: to the file's key count (~16 bits/key, 4 probes → fp ≈ 0.04%) —
#: a 1k-row delta file gets a 4 KiB sidecar, not a fixed 128 KiB one,
#: so a lookup's sidecar scan stays tiny even over hundreds of files.
_KEYBLOOM_SUFFIX = ".keybloom"
_KEYBLOOM_MAGIC = b"KBL1"
_KEYBLOOM_K = 4
_KEYBLOOM_MIN_BITS = 1 << 15  # 4 KiB floor


def _keybloom_u64(keys: pa.Array) -> "np.ndarray":
    from marc_data_migration_ray.functions.keys import _fnv1a_numpy

    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    return _fnv1a_numpy(keys)


def _kb_positions(u64: "np.ndarray", m_bits: int) -> "np.ndarray":
    from marc_data_migration_ray.pipelines.joins import _GOLDEN, _mix64

    h1 = _mix64(u64)
    h2 = _mix64(u64 + _GOLDEN) | np.uint64(1)
    probes = np.arange(_KEYBLOOM_K, dtype=np.uint64)[None, :]
    return ((h1[:, None] + probes * h2[:, None])
            % np.uint64(m_bits)).astype(np.int64)


def _prune_by_keybloom(delta_files: list[str], keys: pa.Array,
                       keep_keyless: bool) -> list[str]:
    """Drop delta files whose bloom sidecar PROVES none of the wanted keys
    is present. No false negatives by construction: a file without a
    sidecar, with a malformed one, with any bloom hit — or (when
    ``keep_keyless``) one holding keyless rows, which positional local-id
    allocation must always see — is kept."""
    want = None
    out = []
    for f in delta_files:
        sc = f + _KEYBLOOM_SUFFIX
        if not os.path.exists(sc):
            out.append(f)
            continue
        raw = np.fromfile(sc, dtype=np.uint8)
        if raw.size < 12 or bytes(raw[:4]) != _KEYBLOOM_MAGIC:
            out.append(f)  # torn/foreign sidecar: never prune on it
            continue
        if keep_keyless and raw[4]:
            out.append(f)
            continue
        m_bits = int(raw[8:12].view(np.uint32)[0])
        bm = raw[12:]
        if m_bits <= 0 or bm.size != m_bits // 8:
            out.append(f)
            continue
        if want is None:
            want = _keybloom_u64(keys)
        pos = _kb_positions(want, m_bits)
        hit = ((bm[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1).all(axis=1)
        if hit.any():
            out.append(f)
    return out


def _write_keybloom(path: str, keys: pa.Array) -> None:
    """Write ``path``'s ``.keybloom`` sidecar from the file's ``key``
    column: right-sized bitmap + keyless flag, atomic publish."""
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    valid = keys.drop_null()
    m_bits = _KEYBLOOM_MIN_BITS
    while m_bits < 16 * max(1, len(valid)):
        m_bits <<= 1
    bm = np.zeros(m_bits // 8, np.uint8)
    if len(valid):
        pos = _kb_positions(_keybloom_u64(valid), m_bits).ravel()
        np.bitwise_or.at(bm, pos >> 3,
                         np.left_shift(1, pos & 7).astype(np.uint8))
    hdr = np.zeros(12, np.uint8)
    hdr[:4] = np.frombuffer(_KEYBLOOM_MAGIC, np.uint8)
    hdr[4] = 1 if keys.null_count else 0
    hdr[8:12] = np.frombuffer(
        np.uint32(m_bits).tobytes(), np.uint8)
    sc = path + _KEYBLOOM_SUFFIX
    tmp = f"{sc}.{os.getpid()}.tmp"
    np.concatenate([hdr, bm]).tofile(tmp)
    os.replace(tmp, sc)


@ray.remote(num_cpus=1)
def _build_keybloom_task(files: list[str]) -> int:
    """Backfill missing ``.keybloom`` sidecars (files written before
    ingest and ``compact_deltas`` wrote their own): one pruned
    ``key``-column read per file."""
    built = 0
    for f in files:
        if os.path.exists(f + _KEYBLOOM_SUFFIX):
            continue
        _write_keybloom(f, pq.read_table(f, columns=["key"])["key"])
        built += 1
    return built


#: the delta-file columns the manifest's schema ops are built from
_SCHEMA_COLS = ["lsn", "schema_kind", "schema_name", "schema_new_name"]


def _delta_file_stats(part_p: int, t: pa.Table, path: str) -> tuple:
    """Manifest stats of one delta file — its partition, route counts,
    min/max lsn and schema rows — plus its ``.keybloom`` sidecar, from
    the rows in ``t``. The ingest write task calls it on every file it
    writes (``on_file``), so no pass re-reads the files."""
    _write_keybloom(path, t["key"])
    routes = {r["values"]: r["counts"]
              for r in pc.value_counts(t["route"]).to_pylist()}
    mm = pc.min_max(t["lsn"]).as_py()
    srows = (t.select(_SCHEMA_COLS).filter(pc.equal(t["route"], "schema"))
             .to_pylist() if routes.get("schema") else [])
    return part_p, routes, mm["min"], mm["max"], srows


def _epoch_entry_from_stats(final_dir: str, stats: list[tuple]) -> dict:
    """Manifest entry (route counts, lsn bounds, schema ops, PER-PARTITION
    applied-lsn lineage) from the ``_delta_file_stats`` rows of an
    epoch's files."""
    route_counts: dict[str, int] = {}
    part_lineage: dict[str, dict] = {}
    min_lsn, max_lsn = None, -1
    schema_rows = []
    for p, rc, mn, mx, srows in sorted(stats, key=lambda s: s[0]):
        for k, v in rc.items():
            route_counts[k] = route_counts.get(k, 0) + v
        # per-partition checkpoint: rows + highest applied lsn (the
        # north-star "per-partition lineage + applied-LSN metrics")
        lin = part_lineage.setdefault(str(p), {"rows": 0, "max_lsn": -1})
        lin["rows"] += sum(rc.values())
        if mx is not None:
            lin["max_lsn"] = max(lin["max_lsn"], mx)
            max_lsn = max(max_lsn, mx)
        if mn is not None:
            min_lsn = mn if min_lsn is None else min(min_lsn, mn)
        schema_rows += srows
    ops: dict[int, dict] = {}  # first row per lsn
    for r in schema_rows:
        ops.setdefault(r["lsn"], {"lsn": r["lsn"], "kind": r["schema_kind"],
                                  "name": r["schema_name"],
                                  "new_name": r["schema_new_name"]})
    processed = sum(route_counts.values())
    return {
        "rows": processed,
        "processed": processed,
        "routes": route_counts,
        "max_lsn": max_lsn,
        "min_lsn": min_lsn,
        "parts": part_lineage,
        "dir": final_dir,
        "_schema_ops": [ops[k] for k in sorted(ops)],
    }


def _read_bucket_tables(base_files, delta_files, cfg, base_is_final_schema,
                        max_lsn=None, key_filter=None, payload_cols=None):
    from marc_data_migration_ray.stages.fold import fold_input_columns

    # PARSED minus the audit-only titles, minus projection-pruned payload
    fold_cols = fold_input_columns(payload_cols)
    keys = pa.array(sorted(key_filter), pa.string()) if key_filter else None
    if keys is not None and delta_files:
        # file-skipping index: sidecar blooms drop delta files that cannot
        # contain the wanted keys (keyless-row files stay — allocation)
        delta_files = _prune_by_keybloom(delta_files, keys, keep_keyless=True)
    tables = []
    for f in base_files:
        base_cols = None
        if payload_cols is not None:
            # projection pushdown on the base scan: only the requested
            # payload columns (plus key/lineage) leave the parquet footer.
            # Intersect with the file's actual schema — compacted snapshots
            # carry final-schema names, older ones may lack lineage columns.
            want = set(fold_cols) | {
                "doc_id", "n_tok", "last_lsn", "status", "candidate_key",
                "part_id",
            }
            base_cols = [c for c in pq.read_schema(f).names if c in want]
        if keys is not None:
            # point-lookup pushdown: row-group stats prune the base read
            # (one row per key lives here; parquet min/max stats skip
            # whole row groups) — base rows are all keyed, so dropping
            # non-requested keys cannot affect the fold of requested ones.
            # A compacted (final-schema) snapshot carries the key as
            # `doc_id`; the raw bucketized base as `key`.
            kcol = "doc_id" if base_is_final_schema else "key"
            t = pq.read_table(f, columns=base_cols,
                              filters=pc.field(kcol).isin(keys))
        else:
            t = pq.read_table(f, columns=base_cols)
        if base_is_final_schema:
            t = PrepBase(cfg, assume_normalized=True)(t)
        tables.append(t.select([c for c in fold_cols if c in t.column_names]))
    for f in delta_files:
        # column-pruned read: the titles stay on disk for audit_dataset;
        # full-row (vs route-filtered) read is still right — rejected rows
        # carry no token payload after ParseRoute, so extra bytes are tiny
        t = pq.read_table(f, columns=fold_cols)
        if max_lsn is not None:
            # LSN-level time travel: events after the cut never happened
            t = t.filter(pc.less_equal(t["lsn"], max_lsn))
        if keys is not None:
            # keep requested keys AND every keyless row: local-id
            # allocation is positional within the partition, so the
            # allocator must see the same keyless inserts it always does
            t = t.filter(pc.or_kleene(
                pc.is_null(t["key"]),
                pc.is_in(t["key"], value_set=keys),
            ))
        tables.append(t)
    if not tables:
        return None
    # contiguous buffers: one ~file-count-chunked table makes every polars
    # pass in the fold measurably slower (0.42s -> 0.32s per 90k-row bucket)
    # and its from_arrow conversion 4x slower; one combine pays for itself
    allr = pa.concat_tables(
        tables, promote_options="default").combine_chunks()
    if max_lsn is not None and "collapsed" in allr.column_names:
        _check_collapsed_cut(allr, cfg)
    return allr


def _check_collapsed_cut(allr: pa.Table, cfg) -> None:
    """Refuse an lsn cut that would let a PRECOLLAPSED row win.

    ``precollapse_updates`` strips a superseded full-row update's tokens
    at ingest on the argument that its within-batch winner always
    outranks it in any fold input — which an arbitrary ``up_to_lsn``
    cut can violate by filtering the winner away (code-review r5,
    reproduced: the stripped row then wins with tokens=NULL). The
    payload is gone from disk, so the only correct behavior is a loud
    error: a surviving collapsed row is safe iff a surviving LATER
    full-row applied update of the same key still covers it; otherwise
    the requested cut cannot be reconstructed from precollapsed deltas.
    Salted layouts spread a key's events over sub-buckets, so the
    winner may legitimately live elsewhere — there any surviving
    collapsed row under a cut is refused outright."""
    coll = pc.fill_null(allr["collapsed"], False)
    if not pc.any(coll).as_py():
        return
    if cfg.num_salts > 1:
        raise ValueError(
            "lsn-cut read over precollapsed deltas on a salted table: "
            "superseded payloads were stripped at ingest and the "
            "within-batch winner may live in another sub-bucket; "
            "re-ingest with precollapse_updates=False for lsn-level "
            "time travel")
    import polars as pl

    df = pl.from_arrow(allr.select(
        ["key", "lsn", "op", "route", "column_mask", "collapsed"]))
    full = df.filter(
        pl.col("route").is_in(["applied", "fuzzy"])
        & (pl.col("op") == "update")
        & (pl.col("column_mask").list.len().fill_null(0) == 0)
        & ~pl.col("collapsed").fill_null(False))
    wmax = full.group_by("key").agg(pl.col("lsn").max().alias("_wl"))
    bad = (df.filter(pl.col("collapsed").fill_null(False))
           .join(wmax, on="key", how="left")
           .filter(pl.col("_wl").is_null()
                   | (pl.col("_wl") < pl.col("lsn"))))
    if bad.height:
        k = bad["key"][0]
        raise ValueError(
            f"lsn cut excludes the within-batch winner of a "
            f"precollapsed update (key {k!r}): the superseded payload "
            "was stripped at ingest and this cut cannot be "
            "reconstructed; re-ingest with precollapse_updates=False "
            "for lsn-level time travel")


def _merge_counts(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def _rows_dataset(refs: dict, post: list | tuple = ()) -> "ray.data.Dataset":
    """The row refs of ``Replayer._fold_part_refs`` as one Dataset. When no
    partition folded, an empty row table run through the tasks' ``post``
    chain stands in, so the schema is what the tasks would return."""
    if not refs:
        return ray.data.from_arrow(_run_chain(ROW_SCHEMA.empty_table(), post))
    return ray.data.from_arrow_refs([rows for rows, _ in refs.values()])


def _sum_fold_metrics(metrics, seed: dict | None = None) -> dict:
    """Sum per-bucket fold metrics dicts. ``seed`` (a prior compaction's
    cumulative snapshot) pre-loads every counter except ``rows``, which
    is current-state, not cumulative."""
    seed = seed or {}
    agg = {"noop": seed.get("noop", 0), "tombstoned": seed.get("tombstoned", 0),
           "local": seed.get("local", 0), "rows": 0,
           "col_replacements": dict(seed.get("col_replacements", {})),
           "local_by_part": {int(k): v for k, v in seed.get("local_by_part", {}).items()},
           "noop_by_route": dict(seed.get("noop_by_route", {})),
           "fold_splits": seed.get("fold_splits", 0)}
    for m in metrics:
        for k in ("noop", "tombstoned", "local", "rows", "fold_splits"):
            agg[k] += m.get(k, 0)
        for c, v in m.get("col_replacements", {}).items():
            agg["col_replacements"][c] = agg["col_replacements"].get(c, 0) + v
        for p, c in m.get("local_by_part", {}).items():
            agg["local_by_part"][int(p)] = agg["local_by_part"].get(int(p), 0) + c
        for r, c in m.get("noop_by_route", {}).items():
            agg["noop_by_route"][r] = agg["noop_by_route"].get(r, 0) + c
    # DDL-added columns the fold never replaced stay at 0 in the bucket
    # counters; the run-level view (and the oracle) only reports columns
    # actually replaced.
    agg["col_replacements"] = {c: v for c, v in agg["col_replacements"].items() if v}
    return agg


@ray.remote(num_cpus=1)
def _merge_delta_files_task(files: list[str], out_file: str) -> int:
    """LSM level-1 file merge for one physical partition: concat → sort by
    lsn → drop duplicate lsns (bit-identical redeliveries) → one file.
    Events are preserved exactly; only the FILE layout changes."""
    import polars as pl

    tables = [pq.read_table(f, columns=list(PARSED_SCHEMA.names)) for f in files]
    t = pa.concat_tables(tables, promote_options="default")
    df = pl.from_arrow(t).sort("lsn").unique(subset=["lsn"], keep="first",
                                             maintain_order=True)
    out = df.to_arrow()
    cols = []
    for name, typ in zip(PARSED_SCHEMA.names, PARSED_SCHEMA.types):
        c = out.column(name)
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        cols.append(pc.cast(c, typ))
    merged = pa.Table.from_arrays(cols, schema=PARSED_SCHEMA)
    os.makedirs(os.path.dirname(out_file), exist_ok=True)
    pq.write_table(merged, out_file)
    _write_keybloom(out_file, merged["key"])
    return merged.num_rows


@ray.remote(num_cpus=1, num_returns=2)
def _fold_bucket_task(
    base_files: list[str],
    delta_files: list[str],
    cfg: ReplayConfig,
    local_id_offsets: dict[int, int],
    base_is_final_schema: bool,
    schema_ops: list[dict] | None = None,
    max_lsn: int | None = None,
    key_filter: list[str] | None = None,
    payload_cols: tuple[str, ...] | None = None,
    post: list | None = None,
) -> tuple[pa.Table, dict]:
    """Fold one hash partition: read its co-partitioned base + delta files,
    run the vectorized LWW fold, return (the ``ROW_SCHEMA`` rows run
    through the ``post`` chain, the bucket's metrics dict)."""
    allr = _read_bucket_tables(base_files, delta_files, cfg, base_is_final_schema,
                               max_lsn, key_filter, payload_cols)
    rows, metrics = (ROW_SCHEMA.empty_table(), {}) if allr is None else \
        _fold_maybe_split(allr, cfg, local_id_offsets, schema_ops, payload_cols)
    return _run_chain(rows, post), metrics


def _run_chain(t: pa.Table, fns: list | None) -> pa.Table:
    for fn in fns or ():
        t = fn(t)
    return t


class _WriteSnapshotRows:
    """``compact()``'s fold-task ``post`` step: write each part's rows to
    ``part-<part_id>.parquet`` in the salt-0 ``part_p`` dir of its logical
    partition under ``dest`` (``_part_p``) and return an empty row table,
    so no row enters the object store. File and temp names depend only on
    the part id and
    the file lands by ``os.replace``, so a retried task overwrites its
    file instead of adding one."""

    def __init__(self, dest: str, num_salts: int):
        self.dest = dest
        self.num_salts = num_salts

    def __call__(self, rows: pa.Table) -> pa.Table:
        for pid in pc.unique(rows["part_id"]).to_pylist():
            d = _part_dir(self.dest, _part_p(pid, self.num_salts))
            os.makedirs(d, exist_ok=True)
            tmp = os.path.join(d, f".part-{pid}.parquet.tmp")
            pq.write_table(rows.filter(pc.equal(rows["part_id"], pid)), tmp,
                           row_group_size=_ROW_GROUP_SIZE)
            os.replace(tmp, os.path.join(d, f"part-{pid}.parquet"))
        return rows.slice(0, 0)


def _fold_maybe_split(allr: pa.Table, cfg: ReplayConfig,
                      local_id_offsets: dict[int, int],
                      schema_ops: list[dict] | None,
                      payload_cols: tuple[str, ...] | None
                      ) -> tuple[pa.Table, dict]:
    """Fold a bucket into (rows, metrics), auto-splitting a FAT one
    (VERDICT r3 item 6): when the read rows exceed ~2×
    ``cfg.fold_split_bytes``, split by key hash and fold the sub-groups
    SEQUENTIALLY in this task — peak polars working set stays
    O(fold_split_bytes) however fat the partition, replacing the
    'repartition so a partition fits a worker's heap' runbook knob.
    Exactness: keys are disjoint across sub-groups (fold is per-key
    independent), keyless rows all hash to sub-group 0 so local-id
    allocation ranks exactly as unsplit, and the sub-groups' metrics sum.
    Bit-equality vs the unsplit fold is pytest-pinned."""
    from marc_data_migration_ray.functions.keys import hash_partition

    target = int(getattr(cfg, "fold_split_bytes", 0) or 0)
    if not target or allr.nbytes <= 2 * target:
        return split_fold(fold_bucket(allr, cfg, local_id_offsets, schema_ops,
                                      payload_cols=payload_cols))
    n_sub = min(64, -(-allr.nbytes // target))
    sub_np = np.asarray(hash_partition(pc.cast(allr["key"], pa.string()), n_sub))
    subs = [split_fold(fold_bucket(part, cfg, local_id_offsets, schema_ops,
                                   payload_cols=payload_cols))
            for part in (allr.filter(pa.array(sub_np == s)) for s in range(n_sub))
            if part.num_rows]
    # engaged-split evidence (VERDICT r4 item 7): this bucket split, and
    # into how many sub-groups
    metrics = _sum_fold_metrics(m for _, m in subs)
    metrics.update(fold_splits=1, fold_split_subgroups=n_sub)
    return pa.concat_tables([r for r, _ in subs]), metrics


@ray.remote(num_cpus=1)
def _fold_salted_stage1_task(
    base_files: list[str],
    delta_files: list[str],
    cfg: ReplayConfig,
    base_is_final_schema: bool,
    schema_ops: list[dict] | None = None,
    max_lsn: int | None = None,
    key_filter: list[str] | None = None,
    payload_cols: tuple[str, ...] | None = None,
) -> pa.Table | None:
    """Stage 1 of the salted fold: one physical SUB-bucket → summary."""
    from marc_data_migration_ray.stages.fold import fold_salted_stage1

    allr = _read_bucket_tables(base_files, delta_files, cfg, base_is_final_schema,
                               max_lsn, key_filter, payload_cols)
    if allr is None:
        return None
    return fold_salted_stage1(allr, cfg, schema_ops, payload_cols)


@ray.remote(num_cpus=1, num_returns=2)
def _fold_salted_merge_task(
    cfg: ReplayConfig,
    local_id_offsets: dict[int, int],
    schema_ops: list[dict] | None,
    payload_cols: tuple[str, ...] | None,
    post: list | None,
    *summaries: pa.Table | None,
) -> tuple[pa.Table, dict]:
    """Stage 2: merge one logical partition's sub-bucket summaries into
    (rows run through ``post``, metrics) — ``_fold_bucket_task``'s
    contract."""
    from marc_data_migration_ray.stages.fold import fold_salted_merge

    parts = [s for s in summaries if s is not None and s.num_rows]
    rows, metrics = fold_salted_merge(
        pa.concat_tables(parts), cfg, local_id_offsets, schema_ops,
        payload_cols) if parts else (ROW_SCHEMA.empty_table(), {})
    return _run_chain(rows, post), metrics


@ray.remote(num_cpus=1)
def _scan_key_history_task(items: list, keys: list[str], columns: list[str],
                           key_col: str = "key") -> pa.Table | None:
    """Read files filtered to a KEY SET (``doc_history`` unit). ``items``
    is ``[(path, epochs-or-None), ...]``: files served from a merged
    segment carry the committed epochs they stand in for (the segment may
    physically hold more — e.g. epochs later truncated by rollback).
    Delta files are first pruned by their ``.keybloom`` sidecars against
    the WHOLE key set — one sidecar read decides the file for every
    requested key at once. Output carries the matched key as
    ``_hist_key``. Returns None when nothing matched (caller supplies the
    schema)."""
    out = []
    keys = sorted(set(keys))
    want = pa.array(keys, pa.string())
    for path, epochs in items:
        if key_col == "key" and not _prune_by_keybloom(
                [path], want, keep_keyless=False):
            continue  # sidecar proves every requested key is absent
        flt = [(key_col, "in", keys)]
        if epochs is not None:
            flt.append(("epoch", "in", sorted(epochs)))
        t = pq.read_table(path, columns=columns + [key_col], filters=flt)
        if t.num_rows:
            out.append(t.rename_columns(columns + ["_hist_key"]))
    return pa.concat_tables(out) if out else None


@ray.remote(num_cpus=1)
def _read_key_rows_task(
    base_files: list[str],
    delta_files: list[str],
    cfg: ReplayConfig,
    base_is_final_schema: bool,
    max_lsn: int,
    keys: list[str],
    payload_cols: tuple[str, ...] | None,
) -> pa.Table | None:
    """ONE key-filtered read of a chunk of a partition's base+delta
    files: the input of that partition's self-cutting as-of sweep
    (``_asof_sweep_auto_task``), which consumes the chunks from the
    object store in file order."""
    return _read_bucket_tables(base_files, delta_files, cfg,
                               base_is_final_schema, max_lsn, keys,
                               payload_cols)


def _asof_sweep(allr: pa.Table, cfg: ReplayConfig,
                cuts: list[tuple[int, list | None]], keys: list[str],
                payload_cols: tuple[str, ...] | None) -> pa.Table:
    """O(key-events + cuts) as-of reconstruction: ONE LSN-ordered sweep
    per key over the partition's already-read rows, emitting EVERY cut's
    state from searchsorted timelines instead of one fold per cut
    (VERDICT r3 item 3 — the per-cut fold pays ~6 ms of fixed
    vectorized-fold cost per cut, which dominates a many-thousand-cut
    lineage).

    Semantics mirror ``fold_bucket`` rule-for-rule, sharing its mask and
    extra-value resolvers (``_writes_expr`` / ``_extra_value_expr``) so
    the two paths cannot drift:

    * base dedup: greatest ``doc_id_raw`` then ``n_tok`` (same sort);
    * event dedup: first row per lsn (duplicate-delivery absorption);
    * anchor at cut L = max-lsn among base ∪ applied insert/delete
      events ≤ L (lsn tie → event wins, matching the concat order);
      a delete anchor means no row;
    * per-column winner at L = last gate-passed masked update ≤ L with
      lsn > anchor lsn (``replace_only`` additionally requires the
      anchor to CARRY the column); anchor's own value as fallback;
    * lineage = max-lsn among qualified updates ∪ the insert anchor,
      falling back to the (base) anchor's stored last_lsn/status;
    * candidate_key / part_id come from the anchor.

    Mid-stream DDL rides the sweep too: mask / extra-value resolution is
    TIMELINE-STABLE (an event's visible-name segment depends only on ops
    at or before its lsn — later ops append segments, never rewrite
    them), so the write/value vectors are evaluated ONCE under the LAST
    cut's timeline and hold for every earlier cut. The per-cut added-
    column set is the add-order prefix with ``add_lsn ≤ cut``
    (searchsorted), packed into ``extra_json`` exactly when non-empty —
    the fold's ``added_sel`` rule; otherwise the anchor's raw
    ``extra_json`` passes through, also the fold's rule.

    Equality against the fold path is pinned by test_doc_history (oracle
    prefix replays), test_ddl_ordering and the as-of property
    gauntlet."""
    import polars as pl

    from marc_data_migration_ray.stages.fold import (_extra_value_expr,
                                                     _writes_expr)
    from marc_data_migration_ray.state.schema_timeline import Timeline

    if "collapsed" in allr.column_names and pc.any(
            pc.fill_null(allr["collapsed"], False)).as_py():
        # a collapsed row is WRONG at its own-lsn cut (its stripped
        # payload would win there) and as-of cuts include every event
        # lsn — refuse rather than reconstruct corrupt states
        raise ValueError(
            "as-of reconstruction over precollapsed deltas: superseded "
            "payloads were stripped at ingest; re-ingest with "
            "precollapse_updates=False for per-event lineage")
    cuts_sorted = sorted({int(L): ops for L, ops in cuts}.items())
    cut_arr = np.asarray([L for L, _ in cuts_sorted], np.int64)
    tl = Timeline(cuts_sorted[-1][1])
    pay = [c for c in PAYLOAD_COLUMNS
           if payload_cols is None or c in payload_cols]
    added_full = [c for c in tl.added
                  if payload_cols is None or c in payload_cols]
    add_lsns = np.asarray([tl.segments[c][0][0] for c in added_full],
                          np.int64)

    df = pl.from_arrow(allr)
    base = df.filter(pl.col("is_base"))
    if base.height:
        base = base.sort(["key", "doc_id_raw", "n_tok"]).unique(
            subset=["key"], keep="last", maintain_order=True)
    ev = df.filter(~pl.col("is_base")).unique(
        subset=["lsn"], keep="first", maintain_order=True)
    applied = ev.filter(
        pl.col("route").is_in(["applied", "fuzzy"])).sort("lsn")
    has_extra = "extra_json" in applied.columns
    pay_in = [c for c in pay if c in applied.columns]
    added_in = added_full if has_extra else []
    val_cols = pay_in + added_in
    wf = applied.select(*[_writes_expr(tl, c).fill_null(False).alias(c)
                          for c in val_cols])
    writes = {c: wf[c].to_numpy().astype(bool) for c in val_cols}
    a_lsn_all = applied["lsn"].to_numpy().astype(np.int64) \
        if applied.height else np.empty(0, np.int64)
    a_op = np.asarray(applied["op"].to_list(), dtype=object)
    a_key = np.asarray(applied["key"].to_list(), dtype=object)
    vals = {c: applied[c].to_list() for c in pay_in}
    ev_aex = applied.select(*[_extra_value_expr(tl, c).alias(c)
                              for c in added_in])
    vals.update({c: ev_aex[c].to_list() for c in added_in})
    status_l = applied["status"].to_list()
    cand_l = applied["candidate_key"].to_list()
    part_l = applied["part_id"].to_list()
    extra_l = applied["extra_json"].to_list() if has_extra \
        else [None] * applied.height
    # base-side values for added columns (anchor fallback / replace_only)
    base_aex: dict[str, list] = {}
    if base.height and added_in and "extra_json" in base.columns:
        bv = base.select(*[_extra_value_expr(tl, c).alias(c)
                           for c in added_in])
        base_aex = {c: bv[c].to_list() for c in added_in}
    base_keys = base["key"].to_list() if base.height else []
    base_row_idx = {k: i for i, k in enumerate(base_keys)}
    repl_only = cfg.strategy == "replace_only"

    out_cols: dict[str, list] = {name: [] for name in ROW_SCHEMA.names}
    out_asof: list[int] = []

    for k in dict.fromkeys(keys):
        sel = np.flatnonzero(a_key == k) if applied.height \
            else np.empty(0, np.int64)
        kb = None
        kb_i = base_row_idx.get(k)
        if kb_i is not None:
            kb = base.row(kb_i, named=True)
        if sel.size == 0 and kb is None:
            continue
        lsn_k = a_lsn_all[sel]
        op_k = a_op[sel]
        is_anchor = (op_k == "insert") | (op_k == "delete")
        is_upd = op_k == "update"
        A = sel[is_anchor]
        A_lsn = lsn_k[is_anchor]
        A_del = op_k[is_anchor] == "delete"
        U = sel[is_upd]
        U_lsn = lsn_k[is_upd]
        nc = len(cut_arr)
        ai = np.searchsorted(A_lsn, cut_arr, side="right") - 1
        aic = np.clip(ai, 0, None)
        b_lsn = int(kb["lsn"]) if kb is not None else None
        if kb is not None:
            use_event = (ai >= 0) & (
                (A_lsn[aic] >= b_lsn) if len(A_lsn) else False)
            has_anchor = np.ones(nc, bool)
        else:
            use_event = ai >= 0
            has_anchor = use_event
        alsn = np.where(
            use_event,
            A_lsn[aic] if len(A_lsn) else np.full(nc, -1, np.int64),
            b_lsn if kb is not None else -1)
        dead = use_event & (A_del[aic] if len(A_del) else False)
        live = has_anchor & ~dead
        li = np.searchsorted(U_lsn, cut_arr, side="right") - 1
        lic = np.clip(li, 0, None)
        q_u = live & (li >= 0) & ((U_lsn[lic] > alsn) if len(U_lsn)
                                  else False)
        per_col = {}
        for c in val_cols:
            w_k = writes[c][sel][is_upd]
            Uc = U[w_k]
            Uc_lsn = U_lsn[w_k]
            lc = np.searchsorted(Uc_lsn, cut_arr, side="right") - 1
            lcc = np.clip(lc, 0, None)
            q_c = live & (lc >= 0) & ((Uc_lsn[lcc] > alsn) if len(Uc_lsn)
                                      else False)
            per_col[c] = (Uc, lcc, q_c)
        n_add = np.searchsorted(add_lsns, cut_arr, side="right") \
            if len(add_lsns) else np.zeros(nc, np.int64)
        for i in np.flatnonzero(live):
            ev_anchor = bool(use_event[i])
            aidx = int(A[ai[i]]) if ev_anchor else None

            def _anchor_val(c):
                if ev_anchor:
                    return vals[c][aidx]
                if c in pay_in:
                    return kb.get(c)
                return base_aex.get(c, [None] * (kb_i + 1))[kb_i] \
                    if kb is not None else None

            def _col_val(c):
                Uc, lcc, q_c = per_col[c]
                av = _anchor_val(c)
                ok = bool(q_c[i])
                if ok and repl_only and av is None:
                    ok = False
                return vals[c][int(Uc[lcc[i]])] if ok else av

            row = {c: _col_val(c) for c in pay_in}
            na = int(n_add[i])
            if na:
                packed = {c: _col_val(c) for c in added_in[:na]}
                # ensure_ascii=False: polars json_encode on the fold
                # path emits raw UTF-8 — escaping here as \uXXXX would
                # break sweep==fold bit-equality for non-ASCII values
                # (ADVICE r4 item 4)
                row["extra_json"] = json.dumps(
                    packed, separators=(",", ":"), ensure_ascii=False)
            else:
                row["extra_json"] = (extra_l[aidx] if ev_anchor
                                     else (kb.get("extra_json")
                                           if kb is not None else None))
            cands = []
            if bool(q_u[i]):
                uidx = int(U[li[i]])
                cands.append((int(U_lsn[li[i]]), status_l[uidx]))
            if ev_anchor and not bool(A_del[ai[i]]):
                cands.append((int(A_lsn[ai[i]]), status_l[aidx]))
            if cands:
                row["last_lsn"], row["status"] = max(cands)
            else:
                row["last_lsn"] = b_lsn
                row["status"] = kb.get("status")
            row["candidate_key"] = (cand_l[aidx] if ev_anchor
                                    else kb.get("candidate_key"))
            row["part_id"] = (part_l[aidx] if ev_anchor
                              else kb.get("part_id"))
            row["doc_id"] = k
            for name in ROW_SCHEMA.names:
                out_cols[name].append(row.get(name))
            out_asof.append(int(cut_arr[i]))

    arrays = [pa.array(out_cols[f.name], f.type) for f in ROW_SCHEMA]
    return pa.Table.from_arrays(arrays, schema=ROW_SCHEMA).append_column(
        "_asof_lsn", pa.array(out_asof, pa.int64()))


def _ops_prefix_fn(all_ops: list):
    """``ops_for(L)`` over the manifest's DDL log, which
    ``Manifest.record_schema_ops`` keeps sorted by lsn: bisect the prefix
    boundary and share prefix list objects (4001 per-cut filter scans
    were ~0.2 s of a long lineage, r5 profiling). Inclusive ``lsn <= L``
    — the exact ``_schema_ops_up_to`` filter. ONE implementation for the
    worker-side self-cutting sweep and the driver's ``_asof_collect`` so
    the two can never drift."""
    import bisect

    op_lsns = [o["lsn"] for o in all_ops]
    prefixes: dict[int, list] = {}

    def ops_for(L: int) -> list:
        n = bisect.bisect_right(op_lsns, L)
        pref = prefixes.get(n)
        if pref is None:
            pref = prefixes[n] = list(all_ops[:n])
        return pref

    return ops_for


@ray.remote(num_cpus=1)
def _asof_sweep_auto_task(
    cfg: ReplayConfig, all_ops: list, ceiling: int, keys: list[str],
    payload_cols: tuple[str, ...] | None, *allrs,
) -> tuple[pa.Table, list[int]]:
    """Self-cutting sweep: derive the cut list from the partition's OWN
    key-filtered rows (every distinct event lsn ≥ ceiling) instead of
    waiting for the driver's event-log scan — this breaks the
    scan→sweep serialization in doc_history(with_versions) so both run
    concurrently (r5 profiling: the two were the whole warm cost).
    ``allrs`` are the partition's ``_read_key_rows_task`` file chunks, in
    file order. Returns (sweep_table, emitted_cut_lsns); the caller
    verifies its wanted cuts ⊆ emitted and hands the partition's keys to
    the per-cut ``lookup`` fallback if the sets ever diverge (they come
    from the same manifest files)."""
    tabs = [t for t in allrs if t is not None]
    cut_lsns: list[int] = []
    if tabs:
        allr = pa.concat_tables(
            tabs, promote_options="default").combine_chunks()
        lv = pc.drop_null(allr.filter(pc.invert(allr["is_base"]))["lsn"])
        cut_lsns = [L for L in np.unique(
            lv.to_numpy(zero_copy_only=False)).tolist() if L >= ceiling]
    if not cut_lsns:
        return (ROW_SCHEMA.empty_table().append_column(
            "_asof_lsn", pa.array([], pa.int64())), [])
    ops_for = _ops_prefix_fn(all_ops)
    return (_asof_sweep(allr, cfg, [(L, ops_for(L)) for L in cut_lsns],
                        keys, payload_cols), cut_lsns)


@ray.remote(num_cpus=1)
def _diff_bucket_task(ta: pa.Table, tb: pa.Table,
                      payload: bool = False,
                      before_payload: bool = False) -> pa.Table:
    """Diff two same-bucket fold row tables (change-data feed unit): vectorized
    polars full join on doc_id; ``update`` = last_lsn moved. With
    ``payload=True`` the after-image additionally carries ``tokens_after``
    (the full token array), making the feed sufficient for downstream
    REPLICATION (``apply_change_feed``), not just aggregate maintenance —
    the scalar-only default keeps ordinary feeds token-free and cheap.
    ``before_payload=True`` adds ``tokens_before`` (the token array the
    change superseded) — what SET-valued incremental maintenance needs to
    retract old entries (``pipelines/views.PostingsView``)."""
    import polars as pl

    def _rows(r: pa.Table, suffix: str, with_tokens: bool) -> "pl.DataFrame":
        cols = ["doc_id", "last_lsn"] + [
            c for c in ("n_tok", "source", "status") if c in r.column_names
        ]
        if with_tokens and "tokens" in r.column_names:
            cols.append("tokens")
        df = pl.from_arrow(r.select(cols))
        return df.rename({c: f"{c}{suffix}" for c in cols if c != "doc_id"})

    # before- AND after-image scalars, both keeping CANONICAL payload names
    # (fold output is pre-schema-materialization, so DDL renames never
    # change the feed's column names — a stable contract for consumers);
    # before-images make the feed sufficient for incremental aggregate
    # maintenance (subtract before, add after — see pipelines/views.py)
    da = _rows(ta, "_before", before_payload)
    db = _rows(tb, "_after", payload)
    j = db.join(da, on="doc_id", how="full", coalesce=True)
    j = j.with_columns(
        pl.when(pl.col("last_lsn_before").is_null())
        .then(pl.lit("insert"))
        .when(pl.col("last_lsn_after").is_null())
        .then(pl.lit("delete"))
        .when(pl.col("last_lsn_before") != pl.col("last_lsn_after"))
        .then(pl.lit("update"))
        .otherwise(pl.lit(None))
        .alias("change")
    ).filter(pl.col("change").is_not_null())
    sel = [
        pl.col("doc_id"),
        pl.col("change"),
        pl.col("last_lsn_before").cast(pl.Int64),
        pl.col("last_lsn_after").cast(pl.Int64),
        pl.col("n_tok_before").cast(pl.Int64),
        pl.col("source_before").cast(pl.Utf8),
        pl.col("status_before").cast(pl.Utf8),
        pl.col("n_tok_after").cast(pl.Int64),
        pl.col("source_after").cast(pl.Utf8),
        pl.col("status_after").cast(pl.Utf8),
    ]
    fields = [
        ("doc_id", pa.string()),
        ("change", pa.string()),
        ("last_lsn_before", pa.int64()),
        ("last_lsn_after", pa.int64()),
        ("n_tok_before", pa.int64()),
        ("source_before", pa.string()),
        ("status_before", pa.string()),
        ("n_tok_after", pa.int64()),
        ("source_after", pa.string()),
        ("status_after", pa.string()),
    ]
    if payload:
        if "tokens_after" not in j.columns:
            j = j.with_columns(
                pl.lit(None, dtype=pl.List(pl.Int32)).alias("tokens_after")
            )
        sel.append(pl.col("tokens_after"))
        fields.append(("tokens_after", pa.list_(pa.int32())))
    if before_payload:
        if "tokens_before" not in j.columns:
            j = j.with_columns(
                pl.lit(None, dtype=pl.List(pl.Int32)).alias("tokens_before")
            )
        sel.append(pl.col("tokens_before"))
        fields.append(("tokens_before", pa.list_(pa.int32())))
    out = j.select(sel).to_arrow()
    return out.cast(pa.schema(fields))


def _gen_rows(op: str, rows: pa.Table, score: int = 100,
              mask: list[str] | None = None) -> pa.Table:
    """Binlog rows of one engine-generated ``op`` over ``rows`` (canonical
    ``doc_id tokens n_tok source``). Deletes carry no payload; only
    updates carry a column mask (``[]`` = every payload column). The
    parse stage null-fills the title, ``extra_json`` and ``schema_*``
    columns; ``_generate_part_task`` adds ``lsn`` and ``epoch``."""
    n = rows.num_rows
    payload = op != "delete"

    def _pay(name: str, typ: pa.DataType):
        return pc.cast(rows[name], typ) if payload else pa.nulls(n, typ)

    return pa.table({
        "op": pa.array([op] * n, pa.string()),
        "doc_id": pc.cast(rows["doc_id"], pa.string()),
        "tokens": _pay("tokens", pa.list_(pa.int32())),
        "n_tok": _pay("n_tok", pa.int32()),
        "source": _pay("source", pa.string()),
        "column_mask": pa.array([mask or []] * n, pa.list_(pa.string()))
        if op == "update" else pa.nulls(n, pa.list_(pa.string())),
        "match_score": pa.array([score] * n, pa.int32()),
    })


@ray.remote(num_cpus=1)
def _generate_part_task(
    rows: pa.Table, gen, part: int, P: int, base_lsn: int, epoch: int,
    out_file: str,
) -> tuple:
    """One partition of an engine-generated epoch
    (``Replayer._apply_generated``): ``gen(rows, part) -> (binlog rows,
    counts)`` over the partition's live rows (``_ROW_COLS``); lsn =
    base + i*P + part, globally unique and above the fence. The file is
    written only when it has rows. Returns ``counts``."""
    body, counts = gen(rows.select(_ROW_COLS), part)
    n = body.num_rows
    if n:
        lsn = pa.array(base_lsn + np.arange(n, dtype=np.int64) * P + part)
        events = body.add_column(0, "lsn", lsn).add_column(
            1, "epoch", pa.array([epoch] * n, pa.int32()))
        os.makedirs(os.path.dirname(out_file), exist_ok=True)
        pq.write_table(events, out_file)
    return counts


class _BackfillGen:
    """``Replayer.backfill``'s rows: live rows whose ``doc_id`` is its own
    canonical key → ``transform`` → one perfect-score update each
    (payload columns the transform leaves out keep their value, except
    ``n_tok``, which follows new ``tokens`` as their length). Counts:
    (n_events, n_skipped)."""

    def __init__(self, transform):
        self.transform = transform

    def __call__(self, rows: pa.Table, part: int):
        rows = rows.select(["doc_id", "tokens", "n_tok", "source"])
        canon = pc.equal(
            pc.fill_null(normalize_keys(rows["doc_id"]), ""), rows["doc_id"]
        )
        eligible = rows.filter(canon)
        new = self.transform(eligible)
        if new.num_rows != eligible.num_rows or "doc_id" not in new.column_names:
            raise ValueError("backfill transform must return one row per input "
                             "row and keep doc_id")
        out = {c: new[c] if c in new.column_names else eligible[c]
               for c in eligible.column_names}
        if "tokens" in new.column_names and "n_tok" not in new.column_names:
            out["n_tok"] = pc.list_value_length(out["tokens"])
        out = pa.table(out)
        return _gen_rows("update", out), (
            new.num_rows, rows.num_rows - eligible.num_rows)


class _LocalIdGen:
    """Shared by the generators that address existing rows: which
    local-id-format keys a generated event must skip."""

    def __init__(self, ceiling_lsn: int, local_prefix: str, P: int):
        self.ceiling_lsn = ceiling_lsn
        self.local_prefix = local_prefix
        self.P = P

    def _skip_local(self, doc_ids, last_lsn, matched=None) -> pa.Array:
        """A matched local id whose lineage lsn is above the compaction
        ceiling was allocated after the floor and is not yet materialized
        as an anchor (an update or tombstone addressing it folds to
        nothing); an unmatched one (``matched`` False) would squat the
        allocator's namespace (SEMANTICS "Local-id addressability")."""
        from marc_data_migration_ray.functions.keys import local_id_parts

        lk, _ = local_id_parts(doc_ids, self.local_prefix, self.P)
        unmat = pc.greater(pc.fill_null(last_lsn, -1), self.ceiling_lsn)
        if matched is not None:
            unmat = pc.if_else(matched, unmat, pa.scalar(True))
        return pc.fill_null(pc.and_(pc.is_valid(lk), unmat), False)


class _DeleteWhereGen(_LocalIdGen):
    """``Replayer.delete_where``'s rows: one tombstone (score 0) per live
    row matching ``predicate``, skipping unmaterialized local ids.
    Counts: (n_events, n_skipped_unmaterialized)."""

    def __init__(self, predicate, ceiling_lsn: int, local_prefix: str, P: int):
        super().__init__(ceiling_lsn, local_prefix, P)
        self.predicate = predicate

    def __call__(self, rows: pa.Table, part: int):
        sel = self.predicate(rows)
        if isinstance(sel, pa.ChunkedArray):
            sel = sel.combine_chunks()
        if not isinstance(sel, pa.Array):
            sel = pa.array(sel, pa.bool_())
        if len(sel) != rows.num_rows:
            raise ValueError("delete_where predicate must return one boolean "
                             "per input row")
        matched = rows.filter(pc.fill_null(sel, False))
        skip = self._skip_local(matched["doc_id"], matched["last_lsn"])
        emit = matched.filter(pc.invert(skip))
        return _gen_rows("delete", emit, score=0), (
            emit.num_rows, matched.num_rows - emit.num_rows)


class _MergeGen(_LocalIdGen):
    """``Replayer.merge``'s rows: the partition's routed source rows whose
    key is live in its state become updates (or tombstones), the rest
    inserts; local-id-format keys that are matched-but-unmaterialized or
    unmatched are skipped. More than one source row per key raises.
    Counts: (n_updated, n_deleted, n_inserted, n_skipped_local)."""

    def __init__(self, src_by_part: dict[int, list[str]],
                 when_matched: str | None, when_not_matched: str | None,
                 column_mask: list[str] | None, ceiling_lsn: int,
                 local_prefix: str, P: int):
        super().__init__(ceiling_lsn, local_prefix, P)
        self.src_by_part = src_by_part
        self.when_matched = when_matched
        self.when_not_matched = when_not_matched
        self.column_mask = column_mask

    def __call__(self, rows: pa.Table, part: int):
        src = pa.concat_tables(
            [pq.read_table(f, columns=["doc_id", "tokens", "n_tok", "source"])
             for f in self.src_by_part[part]]
        ).combine_chunks()
        n_src = src.num_rows
        n_keys = pc.count_distinct(src["doc_id"]).as_py()
        if n_keys != n_src:
            raise ValueError(
                f"merge source has {n_src - n_keys} duplicate doc_id(s) in "
                f"partition {part}: each target row may be matched by at most "
                "one source row"
            )
        pos = pc.index_in(src["doc_id"], value_set=rows["doc_id"].combine_chunks())
        matched = pc.is_valid(pos)
        # unmatched rows take a null lsn, which _skip_local never reads
        taken_lsn = pc.take(rows["last_lsn"], pos)
        keep = pc.invert(self._skip_local(src["doc_id"], taken_lsn, matched))
        hit = src.filter(pc.and_(matched, keep))
        miss = src.filter(pc.and_(pc.invert(matched), keep))
        segs = []
        n_upd = n_del = n_ins = 0
        if self.when_matched == "update" and hit.num_rows:
            segs.append(_gen_rows("update", hit, mask=self.column_mask))
            n_upd = hit.num_rows
        elif self.when_matched == "delete" and hit.num_rows:
            segs.append(_gen_rows("delete", hit))
            n_del = hit.num_rows
        if self.when_not_matched == "insert" and miss.num_rows:
            segs.append(_gen_rows("insert", miss))
            n_ins = miss.num_rows
        body = pa.concat_tables(segs) if segs else src.slice(0, 0)
        n_skipped = n_src - hit.num_rows - miss.num_rows
        return body, (n_upd, n_del, n_ins, n_skipped)


class Replayer:
    """Replays a binlog onto a lake table under exactly-once manifest commits."""

    def __init__(self, root: str, cfg: ReplayConfig | None = None, base_path: str | None = None):
        self.root = root
        self.cfg = cfg or ReplayConfig()
        self.manifest = Manifest(root)
        st = self.manifest.state
        if cfg is None and st.get("num_partitions") is not None:
            # opening an existing table with no explicit config adopts the
            # manifest's committed layout (which a repartition may have
            # evolved past the dataclass defaults)
            import dataclasses

            self.cfg = dataclasses.replace(
                self.cfg,
                num_partitions=st["num_partitions"],
                num_salts=st.get("num_salts", 1),
            )
        cfg = self.cfg
        if st.get("num_partitions") is None:
            def _create(s: dict) -> None:
                if s.get("num_partitions") is None:
                    s["num_partitions"] = cfg.num_partitions
                    s["num_salts"] = cfg.num_salts
                    if base_path is not None and s["base_path"] is None:
                        s["base_path"] = base_path

            self.manifest._cas_update(_create)
            st = self.manifest.state
        if st["num_partitions"] != self.cfg.num_partitions:
            raise ValueError(
                f"table was created with num_partitions={st['num_partitions']}, "
                f"config says {self.cfg.num_partitions} — partition layout is immutable"
            )
        if st.get("num_salts", 1) != self.cfg.num_salts:
            raise ValueError(
                f"table was created with num_salts={st.get('num_salts', 1)}, "
                f"config says {self.cfg.num_salts} — salt layout is immutable"
            )
        if base_path is not None and st["base_path"] != base_path:
            # an existing manifest owns the base: adopt a late-supplied
            # base_path if none was recorded, refuse a conflicting one
            # (silently dropping it would replay base-less, ADVICE r1)
            if st["base_path"] is None and not st.get("compactions"):
                def _adopt(s: dict) -> None:
                    if s["base_path"] is None and not s.get("compactions"):
                        s["base_path"] = base_path

                self.manifest._cas_update(_adopt)
                if self.manifest.state["base_path"] != base_path:
                    raise ValueError(
                        f"table already has base_path={self.manifest.state['base_path']!r}; "
                        f"conflicting base_path={base_path!r} refused"
                    )
            else:
                raise ValueError(
                    f"table already has base_path={st['base_path']!r}; "
                    f"conflicting base_path={base_path!r} refused"
                )

    # ------------------------------------------------------------------ #
    # ingest
    # ------------------------------------------------------------------ #
    def apply_epoch(self, epoch: int, binlog_path: str | list[str],
                    source_format: str = "parquet") -> dict:
        """Parse+gate+route one binlog epoch and commit it. Idempotent:
        re-applying a committed epoch returns the stored entry untouched.
        ``source_format``: "parquet" (default), "jsonl" or "jsonl-lenient"
        (Debezium-flavor
        envelopes, see sources/jsonl.py) — everything past the read is
        format-agnostic."""
        return self.finalize_epoch(
            self.prepare_epoch(epoch, binlog_path, source_format=source_format)
        )

    def prepare_epoch(self, epoch: int, binlog_path: str | list[str],
                      source_format: str = "parquet") -> dict:
        """Phase 1 of the commit: stage the epoch's partitioned delta dir
        and compute its commit entry WITHOUT touching the manifest. The
        staged data is invisible to every reader (reads are manifest-
        driven) until ``finalize_epoch``. Used directly by the multi-table
        transaction coordinator (state/txn.py); ``apply_epoch`` is
        prepare+finalize fused. The LSN-monotone fence fires here — fail
        before any commit decision, not after."""
        if self.manifest.is_committed(epoch):
            return {"epoch": epoch, "entry": self.manifest.epoch_entry(epoch),
                    "already": True}

        staged_here = False
        stats = None
        final_dir = os.path.join(self.root, "deltas", f"epoch={epoch}")
        if final_dir in self.manifest.rollback_pending():
            # leftovers of a rolled-back epoch that crashed mid-cleanup:
            # clear them rather than adopting stale data as this epoch's
            shutil.rmtree(final_dir, ignore_errors=True)
            self.manifest.clear_rollback_pending([final_dir])
        if not os.path.exists(final_dir):
            # empty epoch (no binlog files) commits an empty entry — real
            # change streams have quiet periods and the checkpoint must
            # still advance
            ext = ("*.jsonl" if source_format.startswith("jsonl")
                   else "*.parquet")
            paths = binlog_path if isinstance(binlog_path, list) else [binlog_path]
            has_files = any(
                (os.path.isdir(p) and glob.glob(os.path.join(p, "**", ext), recursive=True))
                or (os.path.isfile(p))
                for p in paths
            )
            if not has_files:
                # empty epoch: nothing staged, entry commits at finalize
                entry = {"rows": 0, "processed": 0, "routes": {}, "max_lsn": -1,
                         "dir": None, "_schema_ops": []}
                return {"epoch": epoch, "entry": entry, "already": False}
            tmp_dir = os.path.join(self.root, "_tmp", f"epoch-{epoch}-{uuid.uuid4().hex[:8]}")
            if source_format.startswith("jsonl"):
                from marc_data_migration_ray.sources.jsonl import read_jsonl_binlog

                # "jsonl-lenient": unparseable lines become deadletter
                # events instead of failing the epoch (salvage mode)
                ds = read_jsonl_binlog(
                    binlog_path, epoch,
                    strict=(source_format != "jsonl-lenient"))
            else:
                ds = ray.data.read_parquet(
                    binlog_path,
                    override_num_blocks=_ingest_num_blocks(_paths_bytes(binlog_path)),
                )
            # ParseRoute passed as an INSTANCE → stateless task pool (elastic,
            # no actor cold-start; the stage holds no real per-actor state)
            parsed = ds.map_batches(
                ParseRoute(self.cfg),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            if self.cfg.precollapse_updates:
                from marc_data_migration_ray.stages.precollapse import precollapse_batch

                parsed = parsed.map_batches(
                    precollapse_batch, batch_format="pyarrow", zero_copy_batch=True
                )
            # hash-partitioned on disk: one dir per part_p — the layout every
            # later fold reuses (co-partitioning instead of shuffling)
            parsed = parsed.map_batches(
                lambda t, S=self.cfg.num_salts: t.append_column(
                    "part_p", _part_p(t["part_id"], S, t["lsn"])),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            # the write task returns each file's manifest stats and writes
            # its .keybloom sidecar while it still holds the rows
            stats = write_parquet_partitioned(
                parsed, tmp_dir, ["part_p"],
                row_group_size=_ROW_GROUP_SIZE,
                expected_partitions=self.cfg.num_partitions * self.cfg.num_salts,
                on_file=_delta_file_stats)
            # zero-ROW binlog files: write_parquet creates nothing, but the
            # epoch must still publish (and later compact) as empty
            os.makedirs(tmp_dir, exist_ok=True)
            os.makedirs(os.path.dirname(final_dir), exist_ok=True)
            try:
                os.rename(tmp_dir, final_dir)  # atomic publish of the epoch's data
                staged_here = True
            except OSError:
                # a concurrent writer published this epoch first — its data
                # is equivalent (same input, deterministic parse); ours is
                # discarded and the commit below fences as usual
                if not os.path.exists(final_dir):
                    raise
                shutil.rmtree(tmp_dir, ignore_errors=True)
                stats = None

        if stats is None:
            # re-adopting files staged earlier (a lost commit, or the other
            # side of a lost publish race): the same stats from a read of
            # the small key/lsn/route/schema columns
            cols = ["key", "route"] + _SCHEMA_COLS
            stats = [_delta_file_stats(p, pq.read_table(f, columns=cols), f)
                     for p, fs in self._files_by_part(final_dir).items()
                     for f in fs]
        entry = _epoch_entry_from_stats(final_dir, stats)
        # LSN-monotone fence: a compacted snapshot row keeps only its
        # last_lsn, so an event at or below the compaction ceiling can no
        # longer be ordered correctly against absorbed writes (a sub-ceiling
        # update with a disjoint column mask would silently lose, where a
        # full replay would apply it). Real WAL/binlog tails are
        # LSN-monotone; enforce that contract instead of diverging silently.
        ceiling = self.manifest.ceiling_lsn()
        mn = entry.get("min_lsn")
        if mn is not None and mn <= ceiling:
            raise ValueError(
                f"epoch {epoch} contains lsn {mn} at or below the compaction "
                f"ceiling {ceiling}; events below the ceiling were already "
                f"folded into the base snapshot and cannot participate in "
                f"LWW ordering (SEMANTICS: late events / LSN monotonicity)"
            )
        return {"epoch": epoch, "entry": entry, "already": False,
                "staged_here": staged_here}

    def apply_epoch_audited(self, epoch: int, binlog_path, audit,
                            source_format: str = "parquet") -> dict:
        """Write-audit-publish (Iceberg WAP / Delta staging pattern):
        stage the epoch, run ``audit(staged_dataset, entry)`` over the
        parsed+routed rows while they are still INVISIBLE to readers,
        and only then commit. ``audit`` raises (or returns False) to veto
        — the staging is discarded and nothing is published. Typical
        audits: deadletter-rate ceilings, constraint-violation budgets,
        row-count reconciliation against the upstream extract."""
        prep = self.prepare_epoch(epoch, binlog_path, source_format=source_format)
        if prep.get("already"):
            return dict(prep["entry"])
        entry = prep["entry"]
        d = entry.get("dir")
        files = sorted(glob.glob(os.path.join(d, "**", "*.parquet"),
                                 recursive=True)) if d else []
        staged = ray.data.read_parquet(files) if files \
            else ray.data.from_arrow(PARSED_SCHEMA.empty_table())
        try:
            ok = audit(staged, dict(entry))
        except Exception:
            if d:
                shutil.rmtree(d, ignore_errors=True)
            raise
        if ok is False:
            if d:
                shutil.rmtree(d, ignore_errors=True)
            raise ValueError(f"epoch {epoch}: audit vetoed the publish")
        return self.finalize_epoch(prep)

    def finalize_epoch(self, prepared: dict) -> dict:
        """Phase 2: commit a prepared epoch to the manifest (idempotent
        CAS — safe to replay during transaction roll-forward) and run
        auto-maintenance. ``prepared`` round-trips through JSON (the txn
        intent file), so it must stay JSON-plain."""
        entry = dict(prepared["entry"])
        if prepared.get("already"):
            return entry
        epoch = prepared["epoch"]
        self.manifest.commit_epoch(
            epoch, entry, schema_ops=entry.pop("_schema_ops", [])
        )
        if self.cfg.auto_segment_epochs > 0:
            self._maybe_auto_segment()
        if self.cfg.auto_compact_epochs > 0:
            floor = self.manifest.last_compacted_epoch()
            pending = [e for e in self.manifest.committed_epochs() if e > floor]
            if len(pending) >= self.cfg.auto_compact_epochs:
                self.compact(up_to_epoch=max(pending))
        return entry

    def _maybe_auto_segment(self) -> None:
        """Level-1 auto-compaction: merge the oldest K contiguous
        unsegmented epochs whenever K have accumulated."""
        K = self.cfg.auto_segment_epochs
        run = self._oldest_unsegmented_run(K)
        if run:
            self.compact_deltas(run[0], run[K - 1])

    def _oldest_unsegmented_run(self, min_len: int) -> list[int]:
        """The oldest run of consecutive active epochs that no delta
        segment covers and that holds at least ``min_len`` epochs ([] when
        none does) — what ``compact_deltas`` can merge next. Shorter runs
        are passed over: an epoch stranded between the floor and a segment
        can never merge, and must not block the runs after it."""
        segged: set[int] = set()
        for seg in self.manifest.delta_segments():
            segged.update(range(seg["from"], seg["to"] + 1))
        run: list[int] = []
        for e in self.manifest.active_epochs():
            if run and (e in segged or e != run[-1] + 1):
                if len(run) >= min_len:
                    return run
                run = []
            if e not in segged:
                run.append(e)
        return run if len(run) >= min_len else []

    # ------------------------------------------------------------------ #
    # base bucketization (one-time layout alignment)
    # ------------------------------------------------------------------ #
    def _ensure_bucketized_base(self) -> str | None:
        """Bucketize the initial base snapshot into the part_p layout
        (parse once, write once — paid a single time per table)."""
        st = self.manifest.state
        if st.get("base_bucketized_path"):
            return st["base_bucketized_path"]
        if st["base_path"] is None:
            return None
        final_dir = os.path.join(self.root, "base_bucketized")
        if not os.path.exists(final_dir):
            tmp = final_dir + ".tmp-" + uuid.uuid4().hex[:8]
            ds = ray.data.read_parquet(
                st["base_path"],
                override_num_blocks=_ingest_num_blocks(_paths_bytes(st["base_path"])),
            )
            prepped = ds.map_batches(
                PrepBase(self.cfg, st["base_normalized"]),
                batch_format="pyarrow",
                zero_copy_batch=True,
            ).map_batches(
                lambda t, S=self.cfg.num_salts: t.append_column(
                    "part_p", _part_p(t["part_id"], S)),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            write_parquet_partitioned(
                prepped, tmp, ["part_p"],
                row_group_size=_ROW_GROUP_SIZE,
                expected_partitions=self.cfg.num_partitions * self.cfg.num_salts)
            try:
                os.rename(tmp, final_dir)
            except OSError:
                # concurrent bucketizer won the rename; its output is
                # equivalent (deterministic prep of the same base) — discard
                # ours (mirrors apply_epoch's publish race handling)
                if not os.path.exists(final_dir):
                    raise
                shutil.rmtree(tmp, ignore_errors=True)
        def _record(s: dict) -> None:
            if not s.get("base_bucketized_path"):
                s["base_bucketized_path"] = final_dir

        self.manifest._cas_update(_record)
        return final_dir

    def _files_by_part(self, root_dir: str) -> dict[int, list[str]]:
        out: dict[int, list[str]] = {}
        for f in sorted(glob.glob(os.path.join(_part_dir(root_dir, "*"),
                                               "*.parquet"))):
            out.setdefault(_file_part(f), []).append(f)
        return out

    # ------------------------------------------------------------------ #
    # state (merge-on-read fold — per-bucket tasks, no shuffle)
    # ------------------------------------------------------------------ #
    def fold_output(self, up_to_epoch: int | None = None,
                    up_to_lsn: int | None = None,
                    payload_cols: tuple[str, ...] | None = None):
        """Raw fold rows (``ROW_SCHEMA``: canonical column names, before
        schema evolution and policies).

        One Ray task per hash partition, each reading only its own
        co-partitioned base + delta files. ``up_to_lsn`` is LSN-level time
        travel (mid-epoch point-in-time read): delta events above the cut
        never happened; must be at or above the compaction ceiling.
        ``payload_cols`` prunes the fold (projection pushdown)."""
        return _rows_dataset(self._fold_part_refs(
            up_to_epoch, up_to_lsn=up_to_lsn, payload_cols=payload_cols))

    def _fold_layout(
        self, up_to_epoch: int | None = None, up_to_lsn: int | None = None,
    ) -> tuple[bool, dict[int, list[str]], dict[int, list[str]]]:
        """Enumerate the fold's input files per PHYSICAL partition:
        (base_is_final_schema, base_by_part, delta_by_part). Validates the
        read cut against the compaction floor/ceiling and prefers level-1
        merged segments when they fully fit the range (shared by
        ``_fold_part_refs`` and the as-of lineage sweep)."""
        st = self.manifest.state
        floor = self.manifest.last_compacted_epoch()
        if up_to_lsn is not None and up_to_lsn < self.manifest.ceiling_lsn():
            raise ValueError(
                f"up_to_lsn={up_to_lsn} is below the compaction ceiling "
                f"({self.manifest.ceiling_lsn()}): those events were folded "
                "into the compacted base and cannot be rolled back"
            )
        if up_to_epoch is not None and up_to_epoch < floor:
            raise ValueError(
                f"up_to_epoch={up_to_epoch} is below the compaction floor "
                f"({floor}): epochs <= {floor} were folded into the compacted "
                "base and cannot be rolled back"
            )
        base_is_final = bool(st.get("base_is_final_schema"))
        base_dir = self._ensure_bucketized_base()
        base_by_part = self._files_by_part(base_dir) if base_dir else {}
        return base_is_final, base_by_part, self._delta_read_set(up_to_epoch)[0]

    def _delta_read_set(self, up_to_epoch: int | None = None
                        ) -> tuple[dict[int, list[str]], int, int]:
        """The active delta files a fold through ``up_to_epoch`` reads, per
        PHYSICAL partition, with how many per-epoch dirs and how many
        level-1 segments they come from (``_fold_layout`` and
        ``explain_layout``)."""
        floor = self.manifest.last_compacted_epoch()
        delta_by_part: dict[int, list[str]] = {}
        segs_added: set[str] = set()
        n_epoch_dirs = 0
        for e in self.manifest.active_epochs():
            if up_to_epoch is not None and e > up_to_epoch:
                continue
            # prefer a level-1 merged segment when it fully fits the read
            # range: a segment reaching past up_to would leak newer events,
            # and one reaching below the compaction floor would RE-APPLY
            # events already folded into the base (duplicate local-id
            # allocation) — both fall back to per-epoch dirs
            seg = self.manifest.segment_covering(e)
            if seg and seg["from"] > floor and (
                up_to_epoch is None or seg["to"] <= up_to_epoch
            ):
                if seg["dir"] in segs_added:
                    continue
                segs_added.add(seg["dir"])
                d = seg["dir"]
            else:
                d = os.path.join(self.root, "deltas", f"epoch={e}")
                if not os.path.isdir(d):
                    if seg:
                        raise ValueError(
                            f"epoch {e} was vacuumed into segment "
                            f"[{seg['from']},{seg['to']}]; read with "
                            f"up_to_epoch >= {seg['to']} (or None)"
                        )
                    continue  # empty epoch: committed, no data dir
                n_epoch_dirs += 1
            for p, fs in self._files_by_part(d).items():
                delta_by_part.setdefault(p, []).extend(fs)
        return delta_by_part, n_epoch_dirs, len(segs_added)

    def _fold_part_refs(
        self,
        up_to_epoch: int | None = None,
        only_parts: set[int] | None = None,
        up_to_lsn: int | None = None,
        key_filter: list[str] | None = None,
        payload_cols: tuple[str, ...] | None = None,
        post: list | None = None,
    ) -> dict[int, tuple["ray.ObjectRef", "ray.ObjectRef"]]:
        """One fold task per LOGICAL partition (keyed by partition id) —
        the co-partitioned unit ``changes_between`` diffs pairwise — as
        its (rows ref, metrics ref) pair.
        ``only_parts`` restricts the fold to those logical partitions
        (point lookups: touch only the buckets that can hold the keys).
        ``payload_cols`` prunes the fold to the requested payload / added
        columns (projection pushdown — see ``fold_bucket``); each task
        applies ``post`` to its output (``_state_rows``)."""
        base_is_final, base_by_part, delta_by_part = self._fold_layout(
            up_to_epoch, up_to_lsn)
        S = self.cfg.num_salts
        parts = sorted(set(base_by_part) | set(delta_by_part))
        if only_parts is not None:
            parts = [p for p in parts if _logical_part(p, S) in only_parts]
        if not parts:  # empty table, or no partition can hold the keys
            return {}
        offsets = self.manifest.local_id_offsets()
        schema_ops = self._schema_ops_up_to(up_to_epoch, up_to_lsn)
        if S == 1:
            return {
                p: tuple(_fold_bucket_task.remote(
                    base_by_part.get(p, []),
                    delta_by_part.get(p, []),
                    self.cfg,
                    offsets,
                    base_is_final,
                    schema_ops,
                    up_to_lsn,
                    key_filter,
                    payload_cols,
                    post,
                ))
                for p in parts
            }
        # salted two-stage fold: `parts` here are PHYSICAL sub-buckets;
        # group them by logical partition, run one stage-1 summary task per
        # sub-bucket, one merge task per logical partition
        logical: dict[int, list[int]] = {}
        for p in parts:
            logical.setdefault(_logical_part(p, S), []).append(p)
        merge_refs: dict[int, tuple["ray.ObjectRef", "ray.ObjectRef"]] = {}
        for lp, phys in sorted(logical.items()):
            s1 = [
                _fold_salted_stage1_task.remote(
                    base_by_part.get(p, []),
                    delta_by_part.get(p, []),
                    self.cfg,
                    base_is_final,
                    schema_ops,
                    up_to_lsn,
                    key_filter,
                    payload_cols,
                )
                for p in phys
            ]
            merge_refs[lp] = tuple(_fold_salted_merge_task.remote(
                self.cfg, offsets, schema_ops, payload_cols, post, *s1
            ))
        return merge_refs

    def changes_between(self, from_epoch: int, to_epoch: int,
                        with_payload: bool = False,
                        with_before_payload: bool = False):
        """Change-data feed (Delta-CDF analog): per-row diff of the table
        state at ``to_epoch`` vs ``from_epoch`` — (doc_id, change ∈
        {insert, update, delete}, last_lsn_before/after, n_tok_before/
        after, source_before/after).

        Both states fold from the SAME co-partitioned layout, so the diff
        is one task per partition joining two same-bucket tables — no
        shuffle, no full-table materialization on the driver. ``update``
        is detected by ``last_lsn`` movement (any applied event advances
        it). Before- AND after-image columns carry the CANONICAL payload
        names regardless of DDL renames — the fold output the diff reads
        is pre-schema-materialization. Before-images make the feed
        sufficient for incremental aggregate maintenance (subtract
        before, add after — ``pipelines/views.py``). Epochs must be
        committed and at/above the compaction floor (same rule as
        ``read_state(up_to_epoch=...)``).

        ``with_payload=True`` adds ``tokens_after`` (the full token-array
        after-image) — the replication-grade feed ``apply_change_feed``
        consumes; ``with_before_payload=True`` additionally adds
        ``tokens_before`` (what set-valued incremental view maintenance
        retracts — ``PostingsView``); default feeds stay token-free."""
        if not (self.manifest.is_committed(from_epoch)
                and self.manifest.is_committed(to_epoch)):
            raise ValueError("both epochs must be committed")
        if from_epoch >= to_epoch:
            raise ValueError("from_epoch must be < to_epoch")
        refs_a = self._fold_part_refs(from_epoch)
        refs_b = self._fold_part_refs(to_epoch)
        empty = (ray.put(ROW_SCHEMA.empty_table()), None)
        parts = sorted(set(refs_a) | set(refs_b))
        out = [
            _diff_bucket_task.remote(refs_a.get(p, empty)[0],
                                     refs_b.get(p, empty)[0],
                                     with_payload, with_before_payload)
            for p in parts
        ]
        return ray.data.from_arrow_refs(out)

    def apply_change_feed(self, feed, epoch: int,
                          feed_format: str = "parquet") -> dict:
        """Downstream replication: apply a PAYLOAD change feed (the
        ``changes_between(..., with_payload=True)`` schema — from this
        engine or any producer of that shape) onto THIS table, bringing a
        replica restored from an older snapshot up to the feed's
        ``to_epoch`` state. The Delta-CDF → MERGE pattern, closed-loop:
        inserts/updates become a full-row upsert ``merge`` at ``epoch``,
        deletes a tombstone ``merge`` at ``epoch + 1`` — both real fenced
        epochs with audit/metrics/time-travel like any upstream write.
        The two arms never share a key (a doc is upserted or deleted, not
        both), so arm order is immaterial.

        ``feed`` is a ``ray.data.Dataset``, ``pa.Table`` or parquet path
        (e.g. an ``export_changes(..., with_payload=True)`` directory).
        Returns ``{"upsert": entry, "delete": entry, "epochs": [e, e+1]}``."""
        from marc_data_migration_ray.sources import readers

        if isinstance(feed, str):
            if feed_format == "jsonl":
                from marc_data_migration_ray.sources.jsonl import read_jsonl_feed

                # a scalar jsonl feed still parses with a (null) tokens
                # field, so the missing-column guard below can't see the
                # flavor — the export marker carries it instead
                mk = os.path.join(feed, "_EXPORT.json")
                if os.path.isfile(mk):
                    with open(mk) as f:
                        if not json.load(f).get("with_payload"):
                            raise ValueError(
                                "feed has no tokens_after payload — produce "
                                "it with export_changes(..., with_payload=True)"
                            )
                ds = read_jsonl_feed(feed)
            else:
                ds = readers.read_parquet(feed)
        elif isinstance(feed, pa.Table):
            ds = ray.data.from_arrow(feed)
        else:
            ds = feed
        if "tokens_after" not in ds.schema().names:
            raise ValueError(
                "feed has no tokens_after payload — produce it with "
                "changes_between(..., with_payload=True)"
            )

        def _upserts(t: pa.Table) -> pa.Table:
            t = t.filter(pc.is_in(t["change"],
                                  value_set=pa.array(["insert", "update"])))
            return pa.table(
                {
                    "doc_id": t["doc_id"],
                    "tokens": t["tokens_after"],
                    "n_tok": t["n_tok_after"],
                    "source": t["source_after"],
                }
            )

        def _deletes(t: pa.Table) -> pa.Table:
            t = t.filter(pc.equal(t["change"], "delete"))
            n = t.num_rows
            return pa.table(
                {
                    "doc_id": t["doc_id"],
                    "tokens": pa.nulls(n, pa.list_(pa.int32())),
                    "n_tok": pa.nulls(n, pa.int64()),
                    "source": pa.nulls(n, pa.string()),
                }
            )

        up = self.merge(
            ds.map_batches(_upserts, batch_format="pyarrow", zero_copy_batch=True),
            epoch, when_matched="update", when_not_matched="insert",
        )
        dl = self.merge(
            ds.map_batches(_deletes, batch_format="pyarrow", zero_copy_batch=True),
            epoch + 1, when_matched="delete", when_not_matched=None,
        )
        return {"upsert": up, "delete": dl, "epochs": [epoch, epoch + 1]}

    def _schema_ops_up_to(self, up_to_epoch: int | None,
                          up_to_lsn: int | None = None) -> list[dict]:
        """Manifest DDL ops limited to the lsn range of the folded epochs."""
        ops = list(self.manifest.state["schema_ops"])
        if up_to_lsn is not None:
            ops = [o for o in ops if o["lsn"] <= up_to_lsn]
        if up_to_epoch is None:
            return ops
        cutoff = -1
        for e in self.manifest.committed_epochs():
            if e <= up_to_epoch:
                cutoff = max(cutoff, self.manifest.epoch_entry(e).get("max_lsn", -1))
        return [o for o in ops if o["lsn"] <= cutoff]

    def read_state(self, up_to_epoch: int | None = None,
                   up_to_lsn: int | None = None, tag: str | None = None,
                   columns: list[str] | None = None):
        """Current table state as a Ray Dataset (schema ops applied:
        renames as display names, DDL-added columns MATERIALIZED from the
        rows' canonical ``extra_json`` carrier). ``up_to_lsn`` reads the
        state as of an exact log position (mid-epoch time travel);
        ``tag`` reads as of a named snapshot (``Replayer.tag``).

        ``columns`` (display names) projects the read: the token payload
        and any other unrequested payload column are pruned at the parquet
        scan AND skipped by the per-bucket fold — a
        ``read_state(columns=["doc_id", "source"])`` over a 100 TB table
        never decodes a token list. Row membership (tombstones, local-id
        allocation, lineage) is payload-independent, so the projected rows
        are bit-identical to ``read_state().select(columns)``. With policy
        plugins configured the projection is applied AFTER the policies
        (no pushdown — a plugin may read any column); ``doc_id`` need not
        be requested."""
        if tag is not None:
            if up_to_epoch is not None or up_to_lsn is not None:
                raise ValueError("tag is exclusive with up_to_epoch/up_to_lsn")
            up_to_epoch = self.manifest.resolve_tag(tag)
        return self._state_rows(up_to_epoch, up_to_lsn, columns)

    def _state_rows(self, up_to_epoch: int | None, up_to_lsn: int | None,
                    columns: list[str] | None, pre: tuple = (),
                    **fold_kw):
        """Public-row Dataset of ``read_state``/``lookup``: fold tasks run
        ``pre`` + the postprocess chain over their rows themselves (cheaper
        than a separate Ray Data stage). The projection resolves AS OF the
        cut, where a pre-rename display name is valid."""
        payload_cols = self._resolve_projection(columns, up_to_epoch, up_to_lsn)
        post = [*pre, *self._postprocess_fns(up_to_epoch, up_to_lsn, columns)]
        refs = self._fold_part_refs(up_to_epoch, up_to_lsn=up_to_lsn, post=post,
                                    payload_cols=payload_cols, **fold_kw)
        # empty: no rows, or no partition can hold the keys
        return _rows_dataset(refs, post)

    def _resolve_projection(
        self, columns: list[str] | None,
        up_to_epoch: int | None, up_to_lsn: int | None = None,
    ) -> tuple[str, ...] | None:
        """Display-name projection → canonical payload/added column subset
        for the fold pushdown (None = no pushdown). Validates the names
        against the as-of display schema; plugins disable the pushdown
        (the projection still applies post-policy)."""
        if columns is None:
            return None
        if len(set(columns)) != len(columns):
            raise ValueError(f"duplicate columns in projection: {columns}")
        if self.cfg.policy_plugins:
            # a plugin may read any column (fold everything) and may ADD or
            # MOVE columns — the projection is validated at execution time
            # against the post-policy schema instead
            return None
        ops = self._schema_ops_up_to(up_to_epoch, up_to_lsn)
        final_schema, _renames, added = self.manifest.resolve_schema(
            _DISPLAY_COLS, ops)
        canon = dict(zip(final_schema, _DISPLAY_COLS + list(added)))
        vcs = {v["name"]: v["inputs"] for v in self.manifest.virtual_columns()}
        unknown = [c for c in columns if c not in canon and c not in vcs]
        if unknown:
            raise ValueError(
                f"unknown columns {unknown}; state schema is "
                f"{final_schema + sorted(vcs)}")
        prunable = set(PAYLOAD_COLUMNS) | set(added)
        # a requested generated column pulls its declared inputs into the fold
        wanted = list(columns) + [
            i for c in columns if c in vcs for i in vcs[c]]
        return tuple(sorted(
            {canon[c] for c in wanted if c in canon and canon[c] in prunable}))

    def tag(self, name: str, epoch: int | None = None,
            replace: bool = False) -> int:
        """Name a committed epoch cut (Delta/Iceberg tag analog); defaults
        to the latest committed epoch. Returns the tagged epoch. A tag is
        a stable NAME for time travel, not a retention pin — compaction
        past it makes reads of it raise, rollback below it drops it."""
        epochs = self.manifest.committed_epochs()
        if epoch is None:
            if not epochs:
                raise ValueError("nothing committed to tag")
            epoch = epochs[-1]
        elif epoch not in epochs:
            raise ValueError(f"epoch {epoch} is not committed")
        self.manifest.set_tag(name, epoch, replace=replace)
        return epoch

    def tags(self) -> dict[str, int]:
        return self.manifest.tags()

    def delete_tag(self, name: str) -> None:
        self.manifest.delete_tag(name)

    def set_virtual_column(self, name: str, expr: str,
                           inputs: list[str]) -> None:
        """Register a GENERATED column: a polars-SQL scalar expression over
        display columns, materialized at every state read (``read_state``
        / ``lookup`` — a table property like policy plugins, not epoch
        data). ``inputs`` declares the display columns the expression
        reads, so a projected read keeps exactly those in the fold.
        Validated against the CURRENT display schema."""
        ops = self._schema_ops_up_to(None, None)
        final_schema, _r, _a = self.manifest.resolve_schema(_DISPLAY_COLS, ops)
        taken = set(final_schema) | {
            v["name"] for v in self.manifest.virtual_columns()}
        if name in taken:
            raise ValueError(f"column {name!r} already exists")
        missing = [c for c in inputs if c not in final_schema]
        if missing:
            raise ValueError(
                f"virtual column inputs {missing} not in schema {final_schema}")
        self.manifest.set_virtual_column(name, expr, inputs)

    def drop_virtual_column(self, name: str) -> None:
        self.manifest.drop_virtual_column(name)

    def virtual_columns(self) -> list[dict]:
        return self.manifest.virtual_columns()

    def _parts_for_keys(self, ids: list[str]) -> set[int]:
        """Logical partitions that can hold ``ids`` (``route_keys``)."""
        return set(route_keys(pa.array(ids, pa.string()), self.cfg.local_id_prefix,
                              self.cfg.num_partitions)[1].to_pylist())

    def lookup(self, doc_ids: list[str], up_to_epoch: int | None = None,
               columns: list[str] | None = None, tag: str | None = None,
               up_to_lsn: int | None = None):
        """Point lookup (reference S4 authority point-lookup, made literal
        at scale): return the state rows for ``doc_ids`` by folding ONLY
        the partitions that can contain them — O(|ids|) bucket reads, not
        a full-table fold.

        Routing: ``route_keys``, the rule ingest routes by — a key's
        partition is ``hash_partition(key) % num_partitions``; allocator-
        assigned local ids (``{prefix}-PPPP-N``) encode their partition
        directly, so they are addressable too. Rows come back in exactly
        the ``read_state`` schema (schema ops + policies applied).

        Within each candidate bucket the fold is KEY-FILTERED at the
        parquet read (base rows to the requested keys via a scan filter;
        delta rows to requested keys ∪ keyless rows, preserving the
        positional local-id allocation) — per-bucket work is O(matches +
        keyless), not O(bucket rows). ``tag`` looks up as of a named
        snapshot (same resolution as ``read_state``); ``up_to_lsn`` is an
        LSN-level point-in-time lookup (same cut as ``read_state``)."""
        if tag is not None:
            if up_to_epoch is not None:
                raise ValueError("tag is exclusive with up_to_epoch")
            up_to_epoch = self.manifest.resolve_tag(tag)

        ids = [k for k in dict.fromkeys(doc_ids) if k]
        parts = self._parts_for_keys(ids)
        want = pa.array(sorted(ids), pa.string())
        return self._state_rows(
            up_to_epoch, up_to_lsn, columns,
            pre=(lambda t: t.filter(pc.is_in(t["doc_id"], value_set=want)),),
            only_parts=parts, key_filter=ids)

    #: stable doc_history event-log schema (state_*/tokens columns optional)
    _DOC_HISTORY_FIELDS = [
        ("lsn", pa.int64()), ("epoch", pa.int32()), ("op", pa.string()),
        ("route", pa.string()), ("status", pa.string()),
        ("match_score", pa.int32()), ("column_mask", pa.list_(pa.string())),
        ("n_tok", pa.int32()), ("source", pa.string()),
        ("collapsed", pa.bool_()),
    ]

    def doc_history(self, doc_id: str, with_payload: bool = False,
                    with_versions: bool = False) -> pa.Table:
        """Per-key lineage (row-level DESCRIBE HISTORY; a point query):
        every RETAINED event that targeted ``doc_id`` plus the
        base-snapshot row, sorted by lsn. Partition-pruned — only the
        key's bucket directories are listed — and key-filtered at the
        parquet read, so the cost is O(key's bucket files), never
        O(table). Events folded away by a compaction stay listed with
        ``absorbed=True`` for as long as their delta files (or a covering
        audit segment) are retained — ``vacuum(retain_audit=False)``
        reclaims them, after which only the compacted base row
        (``op='base'``, their net effect) remains.

        ``with_payload=True`` adds each event's ``tokens`` payload.
        ``with_versions=True`` reconstructs the state AS OF each event at
        or above the compaction ceiling: the state ``lookup(...,
        up_to_lsn=lsn)`` returns, computed by one self-cutting sweep per
        partition (see ``doc_history_many``);
        ``state_live=False`` means the key had no live row after that
        event (tombstoned, rejected before any insert, …). Events below
        the ceiling get null ``state_*`` columns.

        Allocator-assigned local ids become addressable history once a
        compaction materializes them (same rule as ``lookup``); the
        keyless insert that allocated an id is not attributed to it."""
        return self.doc_history_many(
            [doc_id], with_payload=with_payload, with_versions=with_versions,
        ).drop_columns(["doc_id"])

    def doc_history_many(self, doc_ids: list[str],
                         with_payload: bool = False,
                         with_versions: bool = False) -> pa.Table:
        """Lineage over a KEY LIST (``doc_history`` generalized — VERDICT
        r2 item 8): one partition-pruned, bloom-pruned scan pass serves
        every requested key at once (each file's ``.keybloom`` sidecar is
        consulted once against the whole set).

        ``with_versions=True`` takes its as-of states from exactly two
        sources. Ordinary keys on an unsalted table get ONE self-cutting
        sweep per touched partition (``_asof_sweep_auto_task`` over
        sharded ``_read_key_rows_task`` reads, launched before the event
        scan so the two overlap) — never a per-key or per-event round
        trip. Every key the sweep cannot prove falls back to per-cut
        ``lookup(keys, up_to_lsn=L)``, the engine's definition of the
        state at a cut: allocator-assigned local ids (positional
        allocation needs the real fold), salted tables (``num_salts >
        1``), a state projection that does not resolve at head (a rename
        of a core display column), and a partition whose sweep did not
        emit every wanted cut. Output adds a leading ``doc_id`` column;
        rows sort by (doc_id, lsn)."""
        keys = [k for k in dict.fromkeys(doc_ids) if k]
        if not keys:
            raise ValueError("doc_ids must contain at least one key")
        S = self.cfg.num_salts
        key_arr = pa.array(keys, pa.string())
        key_parts = route_keys(key_arr, self.cfg.local_id_prefix,
                               self.cfg.num_partitions)[1].to_pylist()
        parts = set(key_parts)
        plain: list = []
        seg_epochs: dict[str, set[int]] = {}
        for e, f, from_seg in self._event_files(parts):
            if from_seg:
                seg_epochs.setdefault(f, set()).add(e)
            else:
                plain.append((f, None))
        ev_items = plain + [(f, es) for f, es in sorted(seg_epochs.items())]
        ev_cols = [n for n, _ in self._DOC_HISTORY_FIELDS]
        if with_payload:
            ev_cols.append("tokens")
        # shard the scans ~64 files/task so wide tables (many epochs ×
        # many partitions) parallelize instead of serializing one task
        def _sharded(items: list, cols: list[str], key_col: str = "key"):
            return [
                _scan_key_history_task.remote(
                    items[i:i + 64], keys, cols, key_col)
                for i in range(0, len(items), 64)
            ]

        ev_refs = _sharded(ev_items, ev_cols) if ev_items else []

        base_is_final = bool(self.manifest.state.get("base_is_final_schema"))
        base_dir = self._ensure_bucketized_base()
        base_items = []
        if base_dir:
            for p, fs in self._files_by_part(base_dir).items():
                if _logical_part(p, S) in parts:
                    base_items.extend((f, None) for f in fs)
        base_cols = (["last_lsn"] if base_is_final else ["lsn"]) \
            + ["status", "n_tok", "source"] + (["tokens"] if with_payload else [])
        base_refs = _sharded(base_items, base_cols,
                             "doc_id" if base_is_final else "key") \
            if base_items else []

        # the sweeps depend only on the key set, not on the event list:
        # launch them NOW so they overlap the event-log scan instead of
        # serializing after it (the two were the whole warm as-of lineage
        # cost, r5 profiling). The reads cut at the manifest head lsn
        # (superset of any cut) under the versions projection resolved at
        # head — narrowing matters: an unprojected sweep packs EVERY added
        # column into per-cut extra_json and the driver-side extraction
        # pays for it (4.5 s on a 400-op DDL log, r5 profiling)
        ver_cols = (["doc_id", "tokens", "n_tok"] if with_payload
                    else ["doc_id", "n_tok"])
        sweep_keys: list[str] = []
        kbp: dict[int, list[str]] = {}
        if with_versions and S == 1:
            head = self.manifest.head_lsn()
            try:
                ver_pay = self._resolve_projection(ver_cols, None, head)
                # local ids (positional allocation) take the lookup path:
                # they are the keys that do not normalize
                ordinary = pc.is_valid(normalize_keys(key_arr)).to_pylist()
                for k_, p_, ok in zip(keys, key_parts, ordinary):
                    if ok:
                        sweep_keys.append(k_)
                        kbp.setdefault(p_, []).append(k_)
            except ValueError:
                pass  # core column renamed by head: lookups resolve per cut
        sweeps = {}
        if kbp:
            bif, bbp, dbp = self._fold_layout()
            ceil_ = self.manifest.ceiling_lsn()
            all_ops = self.manifest.state["schema_ops"]
            # shard each partition's key-filtered read over file chunks (a
            # 300-file bucket read serially was the sweep's long pole);
            # chunk order preserves the unsharded row sequence
            SHARD = 96
            for p_, ks_ in sorted(kbp.items()):
                items = ([(f, True) for f in bbp.get(p_, [])]
                         + [(f, False) for f in dbp.get(p_, [])])
                reads = [
                    _read_key_rows_task.remote(
                        [f for f, isb in ch if isb],
                        [f for f, isb in ch if not isb],
                        self.cfg, bif, head, ks_, ver_pay)
                    for ch in ([items[i:i + SHARD]
                                for i in range(0, len(items), SHARD)]
                               or [[]])
                ]
                sweeps[p_] = _asof_sweep_auto_task.remote(
                    self.cfg, all_ops, ceil_, ks_, ver_pay, *reads)

        got = ray.get(ev_refs + base_refs) if (ev_refs or base_refs) else []
        ev_parts = [t for t in got[:len(ev_refs)] if t is not None]
        base_parts = [t for t in got[len(ev_refs):] if t is not None]
        ev_t = pa.concat_tables(ev_parts) if ev_parts else None
        base_t = pa.concat_tables(base_parts) if base_parts else None

        fields = list(self._DOC_HISTORY_FIELDS)
        if with_payload:
            fields.append(("tokens", pa.list_(pa.int32())))
        schema = pa.schema([("doc_id", pa.string())] + fields
                           + [("_ord", pa.int8())])
        parts_out = []
        if base_t is not None and base_t.num_rows:
            n = base_t.num_rows
            cols = {
                "doc_id": pc.cast(base_t["_hist_key"], pa.string()),
                "lsn": pc.cast(base_t["last_lsn" if base_is_final else "lsn"],
                               pa.int64()),
                "epoch": pa.nulls(n, pa.int32()),
                "op": pa.array(["base"] * n, pa.string()),
                "route": pa.array(["base"] * n, pa.string()),
                "status": base_t["status"],
                "match_score": pa.nulls(n, pa.int32()),
                "column_mask": pa.nulls(n, pa.list_(pa.string())),
                "n_tok": base_t["n_tok"],
                "source": base_t["source"],
                "collapsed": pa.array([False] * n, pa.bool_()),
                "_ord": pa.array([0] * n, pa.int8()),
            }
            if with_payload:
                cols["tokens"] = base_t["tokens"]
            parts_out.append(pa.table(
                {n_: cols[n_] for n_ in schema.names}).cast(schema))
        if ev_t is not None and ev_t.num_rows:
            ev_t = ev_t.append_column(
                "doc_id", pc.cast(ev_t["_hist_key"], pa.string()))
            ev_t = ev_t.append_column(
                "_ord", pa.array([1] * ev_t.num_rows, pa.int8()))
            parts_out.append(ev_t.select(schema.names).cast(schema))
        if parts_out:
            hist = pa.concat_tables(parts_out).sort_by(
                [("doc_id", "ascending"), ("lsn", "ascending"),
                 ("_ord", "ascending")])
        else:
            hist = schema.empty_table()
        floor = self.manifest.last_compacted_epoch()
        hist = hist.append_column(
            "absorbed",
            pc.and_(pc.not_equal(hist["op"], "base"),
                    pc.less_equal(pc.fill_null(hist["epoch"], floor + 1),
                                  floor)),
        )
        hist = hist.drop_columns(["_ord"])

        if not with_versions:
            return hist
        ceiling = self.manifest.ceiling_lsn()
        want: dict[str, list[int]] = {}
        for k_, l, op in zip(hist["doc_id"].to_pylist(),
                             hist["lsn"].to_pylist(),
                             hist["op"].to_pylist()):
            if op != "base" and l is not None and l >= ceiling:
                want.setdefault(k_, []).append(int(l))
        states: dict[tuple[str, int], dict] = {}
        swept = set(sweep_keys)
        rest = [k_ for k_ in keys if k_ not in swept]
        if sweeps and want:
            tables = []
            for p_, (t, emitted) in zip(sweeps,
                                        ray.get(list(sweeps.values()))):
                # a wanted cut the sweep did not emit means its read and
                # the event scan disagree: the partition's keys fall back
                if all(set(want.get(k_, ())) <= set(emitted)
                       for k_ in kbp[p_]):
                    tables.append(t)
                else:
                    rest += kbp[p_]
            states = self._asof_collect(tables, ver_cols)
        by_cut: dict[int, list[str]] = {}
        for k_ in rest:
            for L in want.get(k_, ()):
                by_cut.setdefault(L, []).append(k_)
        for L, ks_ in sorted(by_cut.items()):
            for row in self.lookup(ks_, up_to_lsn=L,
                                   columns=ver_cols).take_all():
                states[(row["doc_id"], L)] = row
        live, ntoks, toks = [], [], []
        for r_key, r_lsn, r_op in zip(hist["doc_id"].to_pylist(),
                                      hist["lsn"].to_pylist(),
                                      hist["op"].to_pylist()):
            if r_op == "base" or r_lsn is None or r_lsn < ceiling:
                live.append(None); ntoks.append(None); toks.append(None)
                continue
            row = states.get((r_key, int(r_lsn)))
            if row is not None:
                live.append(True)
                ntoks.append(row["n_tok"])
                toks.append(list(row["tokens"] or [])
                            if with_payload else None)
            else:
                live.append(False); ntoks.append(None); toks.append(None)
        hist = hist.append_column("state_live", pa.array(live, pa.bool_()))
        hist = hist.append_column("state_n_tok", pa.array(ntoks, pa.int32()))
        if with_payload:
            hist = hist.append_column(
                "state_tokens", pa.array(toks, pa.list_(pa.int32())))
        return hist

    def _asof_collect(self, tables,
                      columns) -> dict[tuple[str, int], dict]:
        """Postprocess self-cutting sweep results (``_asof_lsn``-tagged
        ``ROW_SCHEMA`` rows) into the ``{(doc_id, lsn): state_row}`` map of
        ``doc_history_many``: cuts grouped by as-of schema signature, one
        evolve-chain application per group."""
        ops_for = _ops_prefix_fn(self.manifest.state["schema_ops"])
        out: dict[tuple[str, int], dict] = {}
        per_plugin = bool(self.cfg.policy_plugins)
        for t in tables:
            if not t.num_rows:
                continue
            asof = np.asarray(t["_asof_lsn"].to_numpy(zero_copy_only=False))
            body = t.drop_columns(["_asof_lsn"])
            # group cuts by as-of SCHEMA signature: every transform in the
            # postprocess chain is a pure function of the schema ops (DDL
            # is rare, so most cuts share one signature) and preserves row
            # order — one chain application covers the whole group. Policy
            # plugins may do arbitrary batch rewrites, so they keep the
            # per-cut path.
            # group key = len(ops): prefixes of the append-only DDL log
            # are unique by length, and repr() of a 400-op list per cut
            # was 0.5 s of a long lineage (r4 profiling)
            groups: dict[int, list[int]] = {}
            for L in sorted(set(asof.tolist())):
                groups.setdefault(len(ops_for(int(L))), []).append(int(L))
            # DDL-heavy lineages produce MANY schema groups (one per op
            # prefix); running the full evolve chain per group cost ~5 ms
            # × groups (r4 profiling). Without plugins or generated
            # columns the chain is select→evolve→project, and the evolve
            # extraction can run ONCE over the whole task result — per
            # group only a (vectorized) filter + metadata-level
            # select/rename remains. Extraction names come from the MAX
            # cut's Timeline.added INCLUDING dropped columns (a column
            # live at an early cut may be dropped by the last one), less
            # those no group's projection keeps. Rows of cuts before the
            # first add carry raw event payloads (numbers, lists, ...), so
            # this path keeps json_path_match rather than unpack_added.
            fast = not per_plugin and not self.manifest.virtual_columns()
            wide = None
            picks: dict[int, list[tuple[str, str]]] = {}
            if fast:
                from marc_data_migration_ray.state.schema_timeline import (
                    Timeline, resolve_schema_prefix)

                tl_full = Timeline(ops_for(int(asof.max())))
                for sig, ls in groups.items():
                    # (canonical, as-of name) of each column the group
                    # keeps: resolve_schema_prefix's schema is positionally
                    # _DISPLAY_COLS + the group's added columns
                    final_schema, _rn, added_g = resolve_schema_prefix(
                        _DISPLAY_COLS, tl_full, ls[0])
                    picks[sig] = [
                        (src, dst) for src, dst in zip(
                            _DISPLAY_COLS + added_g, final_schema)
                        if columns is None or dst in columns]
                kept = {src for p in picks.values() for src, _ in p}
                ext_names = [c for c in tl_full.added if c in kept]
                arrays = list(body.select(_DISPLAY_COLS).columns)
                if ext_names:
                    import polars as pl

                    ext = pl.from_arrow(body.select(["extra_json"])).select([
                        pl.col("extra_json").str.json_path_match(
                            f"$.{name}").alias(name)
                        for name in ext_names]).to_arrow()
                    arrays += [pc.cast(ext[name].combine_chunks(), pa.string())
                               for name in ext_names]
                wide = pa.Table.from_arrays(
                    arrays, names=_DISPLAY_COLS + ext_names)
            for sig, ls in groups.items():
                if fast:
                    mask = np.isin(asof, ls)
                    sub = wide.select([src for src, _ in picks[sig]]).filter(
                        pa.array(mask)).rename_columns(
                            [dst for _, dst in picks[sig]])
                    if columns is not None:
                        sub = sub.select(list(columns))
                    # the zip below assigns cut LSNs POSITIONALLY — valid
                    # because filter/select/rename preserve rows (ADVICE
                    # r3: fail loudly if that ever changes)
                    assert sub.num_rows == int(mask.sum()), (
                        "postprocess changed row count on the grouped "
                        "as-of path")
                    for L, row in zip(asof[mask].tolist(), sub.to_pylist()):
                        out[(row["doc_id"], int(L))] = row
                    continue
                if per_plugin:
                    subs = [(L, body.filter(pa.array(asof == L))) for L in ls]
                else:
                    mask = np.isin(asof, ls)
                    sub_all = body.filter(pa.array(mask))
                    done = self._postprocess_table(
                        sub_all, None, up_to_lsn=ls[0], columns=columns)
                    # positional zip — see the fast path's note (ADVICE r3)
                    assert done.num_rows == int(mask.sum()), (
                        "postprocess changed row count on the grouped "
                        "as-of path")
                    for L, row in zip(asof[mask].tolist(), done.to_pylist()):
                        out[(row["doc_id"], int(L))] = row
                    continue
                for L, sub in subs:
                    done = self._postprocess_table(sub, None, up_to_lsn=L,
                                                   columns=columns)
                    for row in done.to_pylist():
                        out[(row["doc_id"], L)] = row
        return out

    def _postprocess_table(self, t: pa.Table, up_to_epoch: int | None,
                           up_to_lsn: int | None = None,
                           columns: list[str] | None = None) -> pa.Table:
        """Fold rows → public state schema on the driver (per-LSN
        as-of states): the same chain ``read_state``/``lookup`` run inside
        their fold tasks."""
        return _run_chain(t, self._postprocess_fns(up_to_epoch, up_to_lsn,
                                                   columns))

    def _resolve_schema_cached(self, ops: list[dict] | None):
        """``manifest.resolve_schema(_DISPLAY_COLS, ops)`` memoized per
        ops signature — resolve_schema is a pure function of the ops
        list, and a many-cut as-of lineage resolves one signature per
        schema group (~2 ms each uncached; r4 profiling)."""
        cache = getattr(self, "_resolve_schema_cache", None)
        if cache is None:
            cache = self._resolve_schema_cache = {}
        sig = repr(ops)
        got = cache.get(sig)
        if got is None:
            got = cache[sig] = self.manifest.resolve_schema(
                _DISPLAY_COLS, ops)
        return got

    def _postprocess_fns(self, up_to_epoch: int | None,
                         up_to_lsn: int | None = None,
                         columns: list[str] | None = None) -> list:
        """The fold-rows → public-state transform chain as a list of pure
        ``pa.Table -> pa.Table`` functions, run inside the fold tasks of
        ``read_state``/``lookup`` and on the driver by
        ``_postprocess_table``. ``columns`` applies the requested
        projection as the FINAL step (after schema evolution and policy
        plugins), in the caller's order."""
        fns = [lambda t: t.select(_ROW_COLS)]
        ops = self._schema_ops_up_to(up_to_epoch, up_to_lsn)
        final_schema, _renames, added = self._resolve_schema_cached(ops)
        if added or _renames:
            # canonical order = _DISPLAY_COLS + added (resolve_schema appends
            # adds, renames in place) → rename positionally to final schema.
            def _evolve(t: pa.Table, added=tuple(added), names=tuple(final_schema)) -> pa.Table:
                from marc_data_migration_ray.stages.fold import unpack_added

                arrays = list(t.drop_columns(["extra_json"]).columns) \
                    + unpack_added(t["extra_json"], added)
                return pa.Table.from_arrays(arrays, names=list(names))

            fns.append(_evolve)
        else:
            fns.append(lambda t: t.select(_DISPLAY_COLS))
        if self.cfg.policy_plugins:
            from marc_data_migration_ray.stages.policy import _PolicyStage

            fns.extend(_PolicyStage(p) for p in self.cfg.policy_plugins)
        vcs = self.manifest.virtual_columns()
        if vcs:
            # generated columns: vectorized polars-SQL exprs over the
            # display frame. Inputs pruned by a projection are null-filled
            # columns, so unrequested generated columns evaluate (to null)
            # and are dropped by the final select.
            def _generate(t: pa.Table, vcs=tuple(
                    (v["name"], v["expr"]) for v in vcs)) -> pa.Table:
                import polars as pl

                # physical wins (code-review r5): a later binlog
                # add_column/rename may land a REAL column with a
                # registered virtual column's name — overwriting its
                # data with the generated expression would be silent
                # data loss, so generation skips names already present
                todo = [(n, e) for n, e in vcs if n not in t.column_names]
                if not todo:
                    return t
                df = pl.from_arrow(t)
                df = df.with_columns(
                    *[pl.sql_expr(expr).alias(name) for name, expr in todo]
                )
                return df.to_arrow()

            fns.append(_generate)
        if columns is not None:
            sel = list(columns)
            fns.append(lambda t: t.select(sel))
        return fns

    def fold_metrics(self, up_to_epoch: int | None = None) -> dict:
        """WHOLE-RUN fold metrics (noop/tombstoned/col_replacements/local),
        plus current row count and pre-fold route counts from the manifest.
        Counters survive compaction via the manifest metrics snapshot.
        Invariant: processed == sum(all routes)."""
        # the post step empties each task's rows: only metrics leave the task
        refs = self._fold_part_refs(up_to_epoch, post=[lambda t: t.slice(0, 0)])
        agg = _sum_fold_metrics(
            ray.get([m for _, m in refs.values()]),
            seed=self.manifest.metrics_snapshot())
        routes = {}
        for e in self.manifest.committed_epochs():
            if up_to_epoch is not None and e > up_to_epoch:
                continue
            for r, c in self.manifest.epoch_entry(e)["routes"].items():
                routes[r] = routes.get(r, 0) + c
        # fold refinement moves events BETWEEN routes: a gate-passed update
        # that missed a live anchor is subtracted from its pre-fold route and
        # counted under noop, preserving processed == sum(all routes)
        refined = dict(routes)
        for r, c in agg["noop_by_route"].items():
            refined[r] = refined.get(r, 0) - c
            if refined[r] == 0:
                del refined[r]
        if agg["noop"]:
            refined["noop"] = refined.get("noop", 0) + agg["noop"]
        agg["routes_prefold"] = routes
        agg["routes"] = refined
        return agg

    # ------------------------------------------------------------------ #
    # compaction (LSM merge)
    # ------------------------------------------------------------------ #
    def _cumulative_metrics_snapshot(self, this_fold: dict) -> dict:
        """prior snapshot + this fold's counters — carried in the
        compaction/repartition record so fold_metrics stays whole-run
        after the absorbed epochs' events leave the delta files. ONE
        implementation for compact() and repartition() (code-review r5:
        the duplicated blocks both dropped ``fold_splits``, silently
        resetting the auto-split counter at every compaction)."""
        prev = self.manifest.metrics_snapshot()
        return {
            "noop": prev["noop"] + this_fold["noop"],
            "tombstoned": prev["tombstoned"] + this_fold["tombstoned"],
            "local": prev["local"] + this_fold["local"],
            "fold_splits": (prev.get("fold_splits", 0)
                            + this_fold.get("fold_splits", 0)),
            "col_replacements": _merge_counts(prev["col_replacements"],
                                              this_fold["col_replacements"]),
            "local_by_part": _merge_counts(
                {int(k): v for k, v in prev["local_by_part"].items()},
                dict(this_fold["local_by_part"])),
            "noop_by_route": _merge_counts(prev["noop_by_route"],
                                           this_fold["noop_by_route"]),
        }

    def compact(self, up_to_epoch: int | None = None,
                respect_tags: bool = False) -> str:
        """Fold base ∪ deltas into a new bucketized base snapshot; advance
        the per-partition local-id allocator offsets.

        ``respect_tags=True`` turns tags into retention pins for THIS call:
        the compaction ceiling is capped at the oldest tagged epoch, so
        every tag stays readable (otherwise a tag below the new floor
        raises on read and fsck flags it)."""
        up_to = up_to_epoch if up_to_epoch is not None else (
            self.manifest.committed_epochs()[-1] if self.manifest.committed_epochs() else -1
        )
        if respect_tags and self.manifest.tags():
            up_to = min(up_to, min(self.manifest.tags().values()))
        new_base = os.path.join(self.root, f"base-compact-{uuid.uuid4().hex[:8]}")
        tmp = new_base + ".tmp"
        # each fold task writes its partition's snapshot file itself and
        # hands back only its metrics
        refs = self._fold_part_refs(
            up_to, post=[_WriteSnapshotRows(tmp, self.cfg.num_salts)])
        os.makedirs(tmp, exist_ok=True)  # even when no partition has live rows
        # cumulative run counters (prior snapshot + this fold) ride along in
        # the compaction record so fold_metrics stays whole-run after the
        # absorbed epochs' events are gone from the delta files
        this_fold = _sum_fold_metrics(ray.get([m for _, m in refs.values()]))
        local_counts = dict(this_fold["local_by_part"])  # this fold only: offsets accumulate
        snap = self._cumulative_metrics_snapshot(this_fold)
        os.rename(tmp, new_base)
        # record_compaction (CAS-retried) also flips base_is_final_schema
        # and points base_bucketized_path at the new snapshot
        ceiling = self._max_lsn(up_to)
        self.manifest.record_compaction(
            up_to, new_base, local_counts, metrics_snapshot=snap, ceiling_lsn=ceiling
        )
        return new_base

    def repartition(self, num_partitions: int, num_salts: int | None = None) -> str:
        """Partition evolution: re-hash the folded state into a new base
        snapshot at a different partition (and optionally salt) count,
        committed exactly like a compaction.

        ``num_partitions`` is the engine's memory/commit-granularity knob
        (one fold task peaks at one partition's rows); at 100 TB a table
        sized for yesterday's volume must be able to grow its partition
        count without rebuilding from the raw binlog. This rewrites each
        live row into ``hash(doc_id) % new_P`` (allocator-assigned local
        ids go to their embedded partition mod new_P, where ``lookup`` and
        ``ParseRoute`` will address them), commits the snapshot + the new
        layout in ONE manifest CAS (readers see either the old or the new
        layout, never a mix), and carries run metrics and local-id
        allocator high-water marks forward like a compaction. Epochs
        applied after the call are routed and fenced at the new count;
        this Replayer's config is updated in place.

        The rewrite is the unavoidable all-to-all move (every row may
        change bucket) executed as ONE streaming pass:
        fold → recompute part → partitioned parquet write."""
        new_P = int(num_partitions)
        new_S = int(num_salts) if num_salts is not None else self.cfg.num_salts
        if new_P < 1 or new_S < 1:
            raise ValueError("num_partitions/num_salts must be >= 1")
        up_to = (self.manifest.committed_epochs()[-1]
                 if self.manifest.committed_epochs() else -1)
        if not (self.manifest.state.get("base_path")
                or self.manifest.committed_epochs()):
            raise ValueError("nothing to repartition: empty table")
        refs = self._fold_part_refs(up_to)
        new_base = os.path.join(self.root, f"base-repart-{uuid.uuid4().hex[:8]}")
        tmp = new_base + ".tmp"
        prefix = self.cfg.local_id_prefix

        def _rewrite(t: pa.Table, P=new_P, S=new_S, prefix=prefix) -> pa.Table:
            t = t.select(_ROW_COLS)
            part = route_keys(t["doc_id"], prefix, P)[1]
            t = t.append_column("part_id", part)
            return t.append_column("part_p", _part_p(part, S))

        rows = _rows_dataset(refs).map_batches(
            _rewrite, batch_format="pyarrow", zero_copy_batch=True
        )
        write_parquet_partitioned(
            rows, tmp, ["part_p"], row_group_size=_ROW_GROUP_SIZE,
            # the NEW layout's physical partition count — self.cfg still
            # holds the old one here, which skipped the co-location sort
            # exactly when growing past the threshold (code-review r5)
            expected_partitions=new_P * new_S)
        this_fold = _sum_fold_metrics(
            ray.get([m for _, m in refs.values()]))
        local_counts = dict(this_fold["local_by_part"])
        snap = self._cumulative_metrics_snapshot(this_fold)
        os.makedirs(tmp, exist_ok=True)  # even when no partition has live rows
        os.rename(tmp, new_base)
        ceiling = self._max_lsn(up_to)
        self.manifest.record_repartition(
            up_to, new_base, local_counts, snap, ceiling, new_P, new_S
        )
        import dataclasses

        self.cfg = dataclasses.replace(
            self.cfg, num_partitions=new_P, num_salts=new_S
        )
        return new_base

    def export_snapshot(self, dest: str, up_to_epoch: int | None = None,
                        cluster_by: str | tuple[str, ...] | None = None,
                        n_ranges: int = 8) -> dict:
        """Copy-out a consistent point-in-time snapshot of the PUBLIC table
        state (display schema, DDL applied) as hash-partitioned Parquet +
        a JSON export manifest — the hand-off artifact for a downstream
        consumer that doesn't speak this engine's manifest protocol.

        Layout: ``dest/part_p=<p>/*.parquet`` (one directory per physical
        partition, so a downstream loader can shard/resume per directory;
        never one giant file) + ``dest/_EXPORT.json`` (the ``_`` prefix keeps it out of parquet dataset scans) carrying epoch bounds,
        schema, row count and lineage (applied epochs, ceiling lsn).

        Idempotent + crash-safe: written to a tmp dir and atomically
        renamed; if ``dest`` already holds a complete export its manifest
        is returned untouched (re-running an export job is a no-op).

        ``cluster_by`` (one int column such as ``"n_tok"``, or two such as
        ``("n_tok", "last_lsn")``) writes a CLUSTERED layout instead
        (OPTIMIZE ... ZORDER BY analog): rows land in
        ``dest/range_id=<r>/`` directories in value order of one column or
        Z-order of two, ``cluster_by`` is recorded as a list, and
        ``_EXPORT.json`` records one exact zone per range
        (``<col>_min``/``<col>_max`` per column, ``n_rows``, ``nulls``),
        so ``scan_export`` skips whole directories for a range predicate
        on any clustered column. ``_write_clustered`` has the bounded-bin
        split; ``n_ranges`` caps the number of ranges."""
        marker = os.path.join(dest, "_EXPORT.json")
        if os.path.exists(marker):
            with open(marker) as f:
                return json.load(f)
        up_to = up_to_epoch if up_to_epoch is not None else (
            self.manifest.committed_epochs()[-1]
            if self.manifest.committed_epochs() else -1
        )
        rows = self.read_state(up_to)
        P = self.cfg.num_partitions

        tmp = dest.rstrip("/") + f".tmp-{uuid.uuid4().hex[:8]}"
        clustered = {}
        if cluster_by is None:
            # each row in the logical partition the table routes it to
            def _with_part(t: pa.Table, P=P,
                           prefix=self.cfg.local_id_prefix) -> pa.Table:
                return t.append_column(
                    "part_p", route_keys(t["doc_id"], prefix, P)[1])

            part = rows.map_batches(_with_part, batch_format="pyarrow",
                                    zero_copy_batch=True)
            write_parquet_partitioned(
                part, tmp, ["part_p"], row_group_size=_ROW_GROUP_SIZE,
                expected_partitions=P)
        else:
            cols = [cluster_by] if isinstance(cluster_by, str) else list(cluster_by)
            clustered = {"cluster_by": cols,
                         "zones": _write_clustered(rows, tmp, cols, n_ranges)}
        ops = self._schema_ops_up_to(up_to)
        schema, _renames, _added = self.manifest.resolve_schema(_DISPLAY_COLS, ops)
        n_rows = sum(
            pq.ParquetFile(p).metadata.num_rows
            for p in glob.glob(os.path.join(tmp, "**", "*.parquet"), recursive=True)
        )
        info = {
            "up_to_epoch": up_to,
            "epochs": [e for e in self.manifest.committed_epochs() if e <= up_to],
            "ceiling_lsn": self.manifest.ceiling_lsn(),
            "schema": schema,
            "num_partitions": P,
            "n_rows": n_rows,
            **clustered,
        }
        return _publish_export(tmp, dest, info)

    def export_changes(self, dest: str, from_epoch: int, to_epoch: int,
                       with_payload: bool = False,
                       fmt: str = "parquet") -> dict:
        """CDC egress: write ``changes_between(from, to)`` as Parquet
        partitioned by change type + a ``_EXPORT.json`` manifest — the
        downstream-sync artifact (a consumer applies inserts/updates/
        deletes to its own store without speaking this engine's manifest).
        ``fmt="jsonl"`` writes Debezium-flavor envelope lines instead
        (distributed ``write_json``; readable back via
        ``sources.jsonl.read_jsonl_feed`` / ``apply_change_feed(...,
        feed_format="jsonl")``). Same idempotent tmp-dir + atomic-rename
        discipline as ``export_snapshot``; re-running is a no-op."""
        marker = os.path.join(dest, "_EXPORT.json")
        if os.path.exists(marker):
            with open(marker) as f:
                info = json.load(f)
            if bool(info.get("with_payload")) != bool(with_payload):
                raise ValueError(
                    f"{dest} already holds a "
                    f"{'payload' if info.get('with_payload') else 'scalar'} "
                    f"feed; re-export to a new dest for the other flavor"
                )
            if info.get("format", "parquet") != fmt:
                raise ValueError(
                    f"{dest} already holds a {info.get('format', 'parquet')} "
                    f"feed; re-export to a new dest for the other format"
                )
            return info
        ds = self.changes_between(from_epoch, to_epoch, with_payload=with_payload)
        tmp = dest.rstrip("/") + f".tmp-{uuid.uuid4().hex[:8]}"
        counts: dict[str, int] = {}
        if fmt == "jsonl":
            from marc_data_migration_ray.sources.jsonl import write_jsonl_feed

            counts = write_jsonl_feed(ds, tmp)
        else:
            write_parquet_partitioned(ds, tmp, ["change"])
            for d in glob.glob(os.path.join(tmp, "change=*")):
                counts[os.path.basename(d).split("=", 1)[1]] = sum(
                    pq.ParquetFile(p).metadata.num_rows
                    for p in glob.glob(os.path.join(d, "*.parquet"))
                )
        info = {"from_epoch": from_epoch, "to_epoch": to_epoch,
                "n_changes": sum(counts.values()), "counts": counts,
                "with_payload": bool(with_payload), "format": fmt}
        return _publish_export(tmp, dest, info)

    def backfill(self, transform, epoch: int) -> dict:
        """Full-table column rewrite executed THROUGH the replay path (the
        lakehouse backfill: re-tokenize, re-score, fix a bad column). Reads
        the current state per partition, applies ``transform`` (a
        serializable ``pa.Table -> pa.Table`` over the canonical payload
        columns), and emits ONE synthetic perfect-score update event per
        eligible row into a real binlog epoch dir under the table root,
        then ``apply_epoch``'s it — so backfills inherit exactly-once
        fencing, audit rows, metrics, the change feed and time travel like
        any upstream epoch (rather than mutating files in place, which
        would fork history).

        Eligible rows are live rows whose ``doc_id`` is its own canonical
        key (engine-allocated local ids are skipped and counted —
        re-keying them would re-allocate). LSNs are allocated above every
        committed lsn and the compaction ceiling, unique via
        ``base + row_index * P + partition``; each partition's events are
        generated and written by its own Ray task (``_apply_generated``,
        no driver materialization). A transform that returns ``tokens``
        without ``n_tok`` gets ``n_tok`` = the new token count."""
        if self.manifest.is_committed(epoch):
            return self.manifest.epoch_entry(epoch)
        entry, stats = self._apply_generated(epoch, "backfill",
                                             _BackfillGen(transform))
        return {**entry, "backfill_events": sum(s[0] for s in stats),
                "backfill_skipped_local": sum(s[1] for s in stats)}

    def _max_lsn(self, up_to: int | None = None) -> int:
        """Highest committed lsn (of epochs <= ``up_to``), floored at the
        compaction ceiling: the next generated epoch's lsns start above
        it, and a compaction/repartition through ``up_to`` records it as
        the new ceiling."""
        return max(
            [self.manifest.ceiling_lsn()]
            + [self.manifest.epoch_entry(e).get("max_lsn", -1)
               for e in self.manifest.committed_epochs()
               if up_to is None or e <= up_to]
        )

    def _apply_generated(self, epoch: int, name: str, gen,
                         parts=None) -> tuple[dict, list]:
        """Commit one engine-generated epoch (``backfill``, ``delete_where``,
        ``merge``): fold the current state, run ``gen`` in one
        ``_generate_part_task`` per partition (``parts``, default every
        folded one; a partition with no state folds as empty), then
        ``apply_epoch`` the minted binlog dir. The dir is removed even when
        a step raises. Returns (entry, per-partition counts)."""
        base_lsn = self._max_lsn() + 1
        # lsn stride: the LOGICAL partition count, not len(refs) — refs
        # can be sparse (empty hash buckets), and a stride smaller than
        # max(part)+1 would let two partitions mint the same lsn
        P = max(self.cfg.num_partitions, 1)
        tmp_dir = os.path.join(self.root, "_tmp",
                               f"{name}-{epoch}-{uuid.uuid4().hex[:8]}")
        try:
            refs = self._fold_part_refs(None)
            empty = None
            tasks = []
            for p in sorted(refs if parts is None else parts):
                ref = refs[p][0] if p in refs else None
                if ref is None:
                    if empty is None:
                        empty = ray.put(ROW_SCHEMA.empty_table())
                    ref = empty
                tasks.append(_generate_part_task.remote(
                    ref, gen, p, P, base_lsn, epoch,
                    os.path.join(tmp_dir, f"part-{p:05d}.parquet")))
            counts = ray.get(tasks)
            return self.apply_epoch(epoch, tmp_dir), counts
        finally:
            shutil.rmtree(tmp_dir, ignore_errors=True)

    def history(self) -> pa.Table:
        """Table history as an Arrow table (the ``DESCRIBE HISTORY`` /
        Iceberg-snapshots analog): one row per committed operation —
        epochs (with rows, per-route counts, lsn bounds), compactions,
        repartitions, delta segments and schema changes — ordered by
        manifest sequence. Pure metadata: reads only the manifest."""
        rows: list[dict] = []
        st = self.manifest.state
        for e in self.manifest.committed_epochs():
            ent = self.manifest.epoch_entry(e)
            rows.append({
                "kind": "epoch", "epoch": e,
                "rows": ent.get("rows"),
                "min_lsn": ent.get("min_lsn"), "max_lsn": ent.get("max_lsn"),
                "detail": json.dumps(ent.get("routes", {}), sort_keys=True),
            })
        for c in st.get("compactions", []):
            rp_info = c.get("repartition")
            rows.append({
                "kind": "repartition" if rp_info else "compaction",
                "epoch": c.get("up_to"),
                "rows": None, "min_lsn": None,
                "max_lsn": c.get("ceiling_lsn"),
                "detail": json.dumps(
                    rp_info if rp_info else {"base_path": c["base_path"]},
                    sort_keys=True),
            })
        for s in st.get("delta_segments", []):
            rows.append({
                "kind": "delta_segment", "epoch": s.get("to"),
                "rows": None, "min_lsn": None, "max_lsn": None,
                "detail": json.dumps({"from": s["from"], "to": s["to"]}),
            })
        for o in st.get("schema_ops", []):
            rows.append({
                "kind": f"ddl:{o.get('kind')}", "epoch": None, "rows": None,
                "min_lsn": o.get("lsn"), "max_lsn": o.get("lsn"),
                "detail": json.dumps(
                    {k: o.get(k) for k in ("name", "new_name") if o.get(k)},
                    sort_keys=True),
            })
        rows.sort(key=lambda r: (r["max_lsn"] if r["max_lsn"] is not None
                                 else (r["min_lsn"] or -1)))
        return pa.table({
            "kind": pa.array([r["kind"] for r in rows], pa.string()),
            "epoch": pa.array([r["epoch"] for r in rows], pa.int64()),
            "rows": pa.array([r["rows"] for r in rows], pa.int64()),
            "min_lsn": pa.array([r["min_lsn"] for r in rows], pa.int64()),
            "max_lsn": pa.array([r["max_lsn"] for r in rows], pa.int64()),
            "detail": pa.array([r["detail"] for r in rows], pa.string()),
        })

    def delete_where(self, predicate, epoch: int) -> dict:
        """Predicate delete executed THROUGH the replay path (the lakehouse
        ``DELETE FROM t WHERE ...``): reads the current state per
        partition, evaluates ``predicate`` and emits one tombstone event
        per matching row into a real binlog epoch under the table root,
        then ``apply_epoch``'s it — so predicate deletes inherit
        exactly-once fencing, audit rows, metrics, the change feed and
        time travel like any upstream epoch (GDPR-style erasure keeps its
        own lineage rather than silently rewriting files).

        ``predicate`` is either a serializable callable
        ``pa.Table -> boolean array`` over the canonical row frame
        (``doc_id tokens n_tok source last_lsn status candidate_key
        extra_json`` — canonical names, not display renames) or a SQL
        expression string evaluated by polars (e.g. ``"source = 'web'
        AND n_tok < 10"``). Nulls count as non-matching.

        Local-id rows not yet materialized by a compaction are skipped
        and counted (``delete_skipped_unmaterialized``) — a tombstone
        addressing an unmaterialized id would fold to nothing; compact
        first to erase those."""
        if self.manifest.is_committed(epoch):
            return self.manifest.epoch_entry(epoch)
        if isinstance(predicate, str):
            expr = predicate

            def predicate(t: pa.Table, expr=expr):
                import polars as pl

                return (
                    pl.from_arrow(t)
                    .select(pl.sql_expr(expr).cast(pl.Boolean).alias("_m"))
                    .to_arrow()["_m"]
                )

        gen = _DeleteWhereGen(predicate, self.manifest.ceiling_lsn(),
                              self.cfg.local_id_prefix,
                              max(self.cfg.num_partitions, 1))
        entry, stats = self._apply_generated(epoch, "delete", gen)
        return {**entry, "delete_events": sum(s[0] for s in stats),
                "delete_skipped_unmaterialized": sum(s[1] for s in stats)}

    def merge(
        self,
        source,
        epoch: int,
        when_matched: str | None = "update",
        when_not_matched: str | None = "insert",
        column_mask: list[str] | None = None,
    ) -> dict:
        """``MERGE INTO`` executed THROUGH the replay path (the lakehouse
        upsert-from-table: Delta/Iceberg ``MERGE``). Each source row whose
        ``doc_id`` exists live in the target becomes a full-row ``update``
        (or, with ``when_matched='delete'``, a tombstone); unmatched rows
        become ``insert``s. The compiled events land in a real binlog
        epoch under the table root and are ``apply_epoch``'d — so merges
        inherit exactly-once fencing, audit rows, metrics, the change feed
        and time travel like any upstream epoch.

        ``source`` is a parquet path, a ``pa.Table`` or a
        ``ray.data.Dataset`` with the canonical payload columns
        ``doc_id tokens n_tok source``. ``column_mask`` restricts which
        payload columns a matched update overwrites (default: all).
        Matching is by the PARSE-normalized key: source keys that don't
        normalize flow through as keyless inserts and get an
        allocator-assigned local id, exactly like an upstream event with
        an invalid key (P6 ``set_local_id`` analog). More than one source row per key
        raises (Delta MERGE semantics). Local-id-format keys that are
        matched-but-unmaterialized or unmatched are skipped and counted
        (``merge_skipped_local``)."""
        if when_matched not in ("update", "delete", None):
            raise ValueError(f"bad when_matched: {when_matched!r}")
        if when_not_matched not in ("insert", None):
            raise ValueError(f"bad when_not_matched: {when_not_matched!r}")
        if self.manifest.is_committed(epoch):
            return self.manifest.epoch_entry(epoch)
        from marc_data_migration_ray.sources import readers

        if isinstance(source, str):
            ds = readers.read_parquet(source)
        elif isinstance(source, pa.Table):
            ds = ray.data.from_arrow(source)
        else:
            ds = source
        P = max(self.cfg.num_partitions, 1)
        cfg = self.cfg

        def _route(t: pa.Table, P=P, cfg=cfg) -> pa.Table:
            raw = pc.cast(t["doc_id"], pa.string())
            key, part = route_keys(raw, cfg.local_id_prefix, P)
            return pa.table(
                {
                    # the key the parse stage will adopt; un-normalizable
                    # keys keep the raw value (they match nothing and
                    # deadletter at apply)
                    "doc_id": pc.coalesce(key, raw),
                    "tokens": pc.cast(t["tokens"], pa.list_(pa.int32())),
                    "n_tok": pc.cast(t["n_tok"], pa.int32()),
                    "source": pc.cast(t["source"], pa.string()),
                    "part_p": part,
                }
            )

        tmp_src = os.path.join(self.root, "_tmp",
                               f"merge-src-{epoch}-{uuid.uuid4().hex[:8]}")
        try:
            write_parquet_partitioned(ds.map_batches(
                _route, batch_format="pyarrow", zero_copy_batch=True
            ), tmp_src, ["part_p"], row_group_size=_ROW_GROUP_SIZE,
            expected_partitions=self.cfg.num_partitions * self.cfg.num_salts)
            src_by_part = self._files_by_part(tmp_src)
            gen = _MergeGen(src_by_part, when_matched, when_not_matched,
                            column_mask, self.manifest.ceiling_lsn(),
                            self.cfg.local_id_prefix, P)
            entry, stats = self._apply_generated(epoch, "merge", gen,
                                                 parts=src_by_part)
        finally:
            shutil.rmtree(tmp_src, ignore_errors=True)
        return {
            **entry,
            "merge_updated": sum(s[0] for s in stats),
            "merge_deleted": sum(s[1] for s in stats),
            "merge_inserted": sum(s[2] for s in stats),
            "merge_skipped_local": sum(s[3] for s in stats),
        }

    # thresholds for explain_layout recommendations (tunable, documented)
    _EXPLAIN_MAX_FILES_PER_BUCKET = 8      # merge-on-read amplification
    _EXPLAIN_MAX_BUCKET_BYTES = 256 << 20  # fold-task working set
    _EXPLAIN_COMPACT_DELTA_RATIO = 1.0     # compact when delta > ratio×base

    def explain_layout(self) -> dict:
        """Read-amplification / bucket-size diagnostic (the ops `explain`):
        what a fold of the CURRENT state will physically do — per-partition
        file counts and bytes for the base and the active (segment-aware)
        delta set — plus concrete maintenance recommendations:

        - many delta files per bucket → ``compact_deltas(a, b)`` (level-1
          file merge bounds merge-on-read amplification);
        - delta bytes rivaling the base → ``compact()`` (fold into a new
          base snapshot);
        - fat buckets (working set over ~256 MiB) → ``repartition(2P)``
          — fold throughput is a function of BUCKET size, not table size
          (measured: 4x data at fixed P folds ~1.9x superlinear; scaling P
          with the data restores the per-event rate, BASELINE.md).

        Pure metadata walk (file sizes only — no data reads, no Ray tasks),
        except the one-time base bucketization if this table has never
        been read (shared table setup, not part of the diagnostic).
        """
        base_dir = self._ensure_bucketized_base()
        base_by_part = self._files_by_part(base_dir) if base_dir else {}
        delta_by_part, n_epoch_dirs, n_segments = self._delta_read_set()

        def _bytes(files: list[str]) -> int:
            return sum(os.path.getsize(f) for f in files)

        parts = sorted(set(base_by_part) | set(delta_by_part))
        per_part = {}
        for p in parts:
            bf, df = base_by_part.get(p, []), delta_by_part.get(p, [])
            per_part[p] = {
                "base_files": len(bf), "base_bytes": _bytes(bf),
                "delta_files": len(df), "delta_bytes": _bytes(df),
            }
        tot_base = sum(v["base_bytes"] for v in per_part.values())
        tot_delta = sum(v["delta_bytes"] for v in per_part.values())
        max_files = max((v["base_files"] + v["delta_files"]
                         for v in per_part.values()), default=0)
        max_bucket = max((v["base_bytes"] + v["delta_bytes"]
                          for v in per_part.values()), default=0)
        recs = []
        plan = []  # machine-readable twin of `recommendations` (maintain())
        epochs = self.manifest.active_epochs()
        if max_files > self._EXPLAIN_MAX_FILES_PER_BUCKET and n_epoch_dirs > 1:
            # the mergeable range never overlaps an existing segment (a
            # plan anchored at floor+1 would make compact_deltas refuse)
            run = self._oldest_unsegmented_run(2)
            if run:
                recs.append(
                    f"compact_deltas({run[0]}, {run[-1]}): up to "
                    f"{max_files} files open per bucket fold")
                plan.append({"op": "compact_deltas",
                             "args": [run[0], run[-1]]})
        if tot_base and tot_delta > self._EXPLAIN_COMPACT_DELTA_RATIO * tot_base:
            recs.append(
                f"compact(): active deltas ({tot_delta >> 20} MiB) exceed "
                f"{self._EXPLAIN_COMPACT_DELTA_RATIO}x the base snapshot "
                f"({tot_base >> 20} MiB)")
            plan.append({"op": "compact", "args": []})
        if max_bucket > self._EXPLAIN_MAX_BUCKET_BYTES:
            recs.append(
                f"repartition({2 * self.cfg.num_partitions}, "
                f"{self.cfg.num_salts}): fattest bucket is "
                f"{max_bucket >> 20} MiB (fold working set)")
            plan.append({"op": "repartition",
                         "args": [2 * self.cfg.num_partitions,
                                  self.cfg.num_salts]})
        return {
            "num_partitions": self.cfg.num_partitions,
            "num_salts": self.cfg.num_salts,
            "active_epochs": len(epochs),
            "epoch_dirs_unmerged": n_epoch_dirs,
            "segments_used": n_segments,
            "base_bytes": tot_base,
            "delta_bytes": tot_delta,
            "max_files_per_bucket": max_files,
            "max_bucket_bytes": max_bucket,
            "per_part": per_part,
            "recommendations": recs,
            "plan": plan,
        }

    def build_key_blooms(self, task_files: int = 16,
                         only_parts: set[int] | None = None) -> dict:
        """File-skipping key index (the Delta/Iceberg bloom-filter-index
        analog): write a ``.keybloom`` sidecar (right-sized bitmap of the
        file's key hashes, ~16 bits/key with a 4 KiB floor, + a
        keyless-row flag) next to every delta and
        segment file that lacks one. Point lookups (``lookup`` /
        ``doc_history`` / key-filtered folds) then SKIP files the bitmap
        proves key-free — at 100 TB a lookup over a bucket with hundreds
        of retained delta files opens only the handful that can hold the
        key. Ingest and ``compact_deltas`` write these sidecars with the
        files themselves, so this is only the backfill for tables written
        before they did (``maintain()``, CLI ``index-blooms``); on a table
        written by this code it finds nothing to build. Idempotent;
        sidecars live inside the dirs they index, so
        vacuum / rollback reclaim them with their data. ``only_parts``
        restricts the build to those logical partitions' files above the
        compaction floor (``_event_files``; pure scope-limiting — pruning
        stays correct for unindexed files, they are simply always read)."""
        files = list(dict.fromkeys(f for _, f, _ in self._event_files(only_parts)))
        todo = [f for f in files if not os.path.exists(f + _KEYBLOOM_SUFFIX)]
        chunks = [todo[i:i + task_files]
                  for i in range(0, len(todo), task_files)]
        built = sum(ray.get([_build_keybloom_task.remote(c) for c in chunks]))
        return {"files": len(files), "built": built,
                "already_indexed": len(files) - len(todo)}

    #: explain/maintain summary keys (before/after comparison unit)
    _MAINTAIN_KEYS = ("max_files_per_bucket", "delta_bytes",
                      "max_bucket_bytes", "epoch_dirs_unmerged")

    def maintain(self, apply_repartition: bool = False,
                 max_rounds: int = 3) -> dict:
        """Auto-optimize (the ops ``OPTIMIZE``): execute
        ``explain_layout``'s recommendations until the diagnostic is
        clean — ``compact()`` when active deltas outweigh the base (it
        subsumes a pending level-1 merge, so it runs first),
        ``compact_deltas`` for file-count read amplification.
        ``repartition`` is a whole-table rewrite whose cost rivals a full
        fold, so it only runs with ``apply_repartition=True``. One action
        per round, re-diagnosed between rounds; idempotent (a second call
        takes no actions). State is bit-identical before/after — every
        action is one of the engine's proven-equivalent maintenance ops.

        Finishes with ``build_key_blooms``, the backfill of ``.keybloom``
        sidecars for tables written before ingest and ``compact_deltas``
        wrote their own; on a table written by this code it finds nothing
        to build."""
        before = {k: None for k in self._MAINTAIN_KEYS}
        actions: list[str] = []
        for rnd in range(max_rounds):
            diag = self.explain_layout()
            if rnd == 0:
                before = {k: diag[k] for k in self._MAINTAIN_KEYS}
            ops = {p["op"]: p["args"] for p in diag["plan"]
                   if p["op"] != "repartition" or apply_repartition}
            if not ops:
                break
            if "compact" in ops:
                self.compact()
                actions.append("compact()")
            elif "compact_deltas" in ops:
                a, b = ops["compact_deltas"]
                self.compact_deltas(a, b)
                actions.append(f"compact_deltas({a}, {b})")
            elif "repartition" in ops:
                p_, s_ = ops["repartition"]
                self.repartition(p_, s_)
                actions.append(f"repartition({p_}, {s_})")
        after = self.explain_layout()
        out = {
            "actions": actions,
            "before": before,
            "after": {k: after[k] for k in self._MAINTAIN_KEYS},
            "remaining_recommendations": after["recommendations"],
        }
        bl = self.build_key_blooms()
        if bl["built"]:
            actions.append(f"build_key_blooms() [{bl['built']} files]")
        out["key_blooms"] = bl
        return out

    def fsck(self, deep: bool = False) -> dict:
        """Table integrity check (the ops `fsck`): verify that everything
        the manifest claims is actually on disk and self-consistent —
        committed epoch dirs present (unless legitimately vacuumed below
        the compaction floor or covered by a delta segment), per-partition
        row counts matching the recorded lineage (parquet FOOTER metadata
        only — no data reads), lsn bounds within the entry's
        [min_lsn, max_lsn] (row-group statistics), segment dirs present,
        the active base snapshot present, and no rollback_pending
        leftovers. ``deep=True`` also re-reads every delta file's lsn
        column to confirm footer stats aren't lying (corruption check).

        Returns ``{"ok", "checks", "problems": [...]}`` — run it before
        trusting a restored backup or after a crash."""
        problems: list[str] = []
        checks = 0
        st = self.manifest.state
        floor = self.manifest.last_compacted_epoch()
        segged: set[int] = set()
        for seg in self.manifest.delta_segments():
            segged.update(range(seg["from"], seg["to"] + 1))
            checks += 1
            if not os.path.isdir(seg["dir"]):
                problems.append(f"segment dir missing: {seg['dir']}")
        base = st.get("base_bucketized_path") or st.get("base_path")
        if base is not None:
            checks += 1
            if not os.path.isdir(base) and not os.path.isfile(base):
                problems.append(f"base snapshot missing: {base}")
        for e in self.manifest.committed_epochs():
            entry = self.manifest.epoch_entry(e)
            d = entry.get("dir")
            if d is None:
                continue  # empty epoch
            if not os.path.isdir(d):
                checks += 1
                if e > floor and e not in segged:
                    problems.append(f"epoch {e}: delta dir missing: {d}")
                continue  # vacuumed below floor / segment-covered: fine
            part_files = self._files_by_part(d)
            want_parts = {int(p): v for p, v in entry.get("parts", {}).items()}
            for p, meta in want_parts.items():
                checks += 1
                files = part_files.get(p, [])
                if not files:
                    if meta.get("rows", 0) > 0:
                        problems.append(f"epoch {e} part {p}: files missing")
                    continue
                n = 0
                lsn_lo, lsn_hi = None, -1
                for f in files:
                    pf = pq.ParquetFile(f)
                    n += pf.metadata.num_rows
                    for rg in range(pf.metadata.num_row_groups):
                        col = pf.metadata.row_group(rg).column(
                            pf.schema_arrow.get_field_index("lsn"))
                        s = col.statistics
                        if s is not None and s.has_min_max:
                            lsn_lo = s.min if lsn_lo is None else min(lsn_lo, s.min)
                            lsn_hi = max(lsn_hi, s.max)
                    if deep:
                        t = pq.read_table(f, columns=["lsn"])
                        if t.num_rows:
                            lo = pc.min(t["lsn"]).as_py()
                            hi = pc.max(t["lsn"]).as_py()
                            lsn_lo = lo if lsn_lo is None else min(lsn_lo, lo)
                            lsn_hi = max(lsn_hi, hi)
                if n != meta.get("rows", n):
                    problems.append(
                        f"epoch {e} part {p}: {n} rows on disk vs "
                        f"{meta['rows']} in lineage")
                if lsn_hi > entry.get("max_lsn", lsn_hi):
                    problems.append(
                        f"epoch {e} part {p}: lsn {lsn_hi} above entry "
                        f"max_lsn {entry.get('max_lsn')}")
                mn = entry.get("min_lsn")
                if mn is not None and lsn_lo is not None and lsn_lo < mn:
                    problems.append(
                        f"epoch {e} part {p}: lsn {lsn_lo} below entry "
                        f"min_lsn {mn}")
        for d in self.manifest.rollback_pending():
            checks += 1
            if os.path.exists(d):
                problems.append(f"rollback_pending leftover on disk: {d}")
        # tags must point at readable epochs (committed AND at/above the
        # compaction floor — a floor-passed tag raises on read)
        for name, e in self.manifest.tags().items():
            checks += 1
            if not self.manifest.is_committed(e):
                problems.append(f"tag {name!r}: epoch {e} not committed")
            elif e < floor:
                problems.append(
                    f"tag {name!r}: epoch {e} below compaction floor {floor} "
                    f"(unreadable; delete the tag or restore from export)")
        # in-doubt transaction intents (state/txn.py): staged-but-undecided
        # work holding disk — resolve with MultiTableTxn.recover
        idir = os.path.join(self.root, "_txn")
        if os.path.isdir(idir):
            for fn in sorted(os.listdir(idir)):
                if fn.endswith(".json"):
                    checks += 1
                    problems.append(f"in-doubt txn intent: {fn} "
                                    f"(run MultiTableTxn.recover)")
        return {"ok": not problems, "checks": checks, "problems": problems}

    def orphans(self) -> dict:
        """Inverse of :meth:`fsck`: list what's ON DISK that the manifest
        does NOT reference (fsck checks manifest→disk; this checks
        disk→manifest). Never deletes — it's the vacuum dry-run / clone-
        and-crash-leftover audit.

        Classification:
        - ``staged_epochs`` — ``deltas/epoch=N`` dirs for uncommitted N:
          a prepared-but-unfinalized epoch (possibly a pending multi-table
          txn — see the intent files fsck reports) or a crashed apply.
          Resolvable, so listed separately from junk.
        - ``orphans`` — everything else unreferenced: CAS-loser base
        snapshots a ``vacuum`` would reclaim, scratch under ``_tmp``,
        stray files. Safe-to-delete candidates.
        Returns ``{"orphans": [...], "staged_epochs": [...], "bytes": N}``
        (bytes = total size of the orphan files only)."""
        st = self.manifest.state
        referenced: set[str] = set()
        for entry in st.get("epochs", {}).values():
            if entry.get("dir"):
                referenced.add(os.path.abspath(entry["dir"]))
        for seg in self.manifest.delta_segments():
            referenced.add(os.path.abspath(seg["dir"]))
        for c in st.get("compactions", []):
            for key in ("base_path",):
                if c.get(key):
                    referenced.add(os.path.abspath(c[key]))
        for key in ("base_path", "base_bucketized_path"):
            if st.get(key):
                referenced.add(os.path.abspath(st[key]))
        for d in self.manifest.rollback_pending():
            referenced.add(os.path.abspath(d))

        def _is_referenced(path: str) -> bool:
            p = os.path.abspath(path)
            for r in referenced:
                if p == r or p.startswith(r + os.sep) or r.startswith(p + os.sep):
                    return True
            return False

        committed = set(self.manifest.committed_epochs())
        orphans: list[str] = []
        staged: list[str] = []
        root_abs = os.path.abspath(self.root)
        for name in sorted(os.listdir(self.root)):
            if name in ("_manifest", "_txn"):
                continue  # engine metadata, always live
            top = os.path.join(self.root, name)
            if name == "_tmp" and os.path.isdir(top):
                # the (empty) scratch parent is normal; only leftovers
                # inside it are orphans (a crashed apply's staging dir)
                orphans.extend(
                    os.path.join(name, sub) for sub in sorted(os.listdir(top))
                )
                continue
            if name == "deltas" and os.path.isdir(top):
                for sub in sorted(os.listdir(top)):
                    d = os.path.join(top, sub)
                    if _is_referenced(d):
                        continue
                    if sub.startswith("epoch="):
                        try:
                            e = int(sub.split("=", 1)[1])
                        except ValueError:
                            e = None
                        if e is not None and e not in committed:
                            staged.append(os.path.relpath(d, root_abs))
                            continue
                    orphans.append(os.path.relpath(d, root_abs))
                continue
            if _is_referenced(top):
                continue
            orphans.append(os.path.relpath(top, root_abs))

        total = 0
        for rel in orphans:
            p = os.path.join(self.root, rel)
            if os.path.isfile(p):
                total += os.path.getsize(p)
            else:
                for dp, _dn, fns in os.walk(p):
                    total += sum(os.path.getsize(os.path.join(dp, f)) for f in fns)
        return {"orphans": orphans, "staged_epochs": staged, "bytes": total}

    def rollback(self, to_epoch: int) -> dict:
        """Truncate the log to ``to_epoch`` (drop every later committed
        epoch — the bad-upstream-batch remedy): one CAS manifest commit
        drops the epochs, THEIR schema ops and fully-above delta segments,
        then the orphaned delta dirs are removed (best-effort; a crash
        mid-cleanup is healed by ``apply_epoch``'s rollback_pending check,
        so stale data can never be adopted by a re-applied epoch).

        Refuses to roll below the compaction floor (those events are
        already folded into a base snapshot and cannot be un-applied
        without restoring an older snapshot) or across a delta segment
        straddling the boundary (the merged run cannot be split; run the
        rollback before segmenting, or to a segment edge).

        Incrementally-maintained views based above the new head must be
        rebuilt (SourceCountsView detects a vanished base epoch and falls
        back to a full rebuild on refresh)."""
        floor = self.manifest.last_compacted_epoch()
        if to_epoch < floor:
            raise ValueError(
                f"cannot roll back to epoch {to_epoch}: epochs <= {floor} "
                f"are compacted into the base snapshot"
            )
        for seg in self.manifest.delta_segments():
            if seg["from"] <= to_epoch < seg["to"]:
                raise ValueError(
                    f"rollback to {to_epoch} would split delta segment "
                    f"[{seg['from']}..{seg['to']}]; roll back to a segment "
                    f"edge or vacuum the segment first"
                )
        before = self.manifest.committed_epochs()
        dropped = [e for e in before if e > to_epoch]
        dirs = self.manifest.record_rollback(to_epoch)
        cleaned = []
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)
            if not os.path.exists(d):
                cleaned.append(d)
        self.manifest.clear_rollback_pending(cleaned)
        return {"to_epoch": to_epoch, "dropped_epochs": dropped,
                "removed_dirs": cleaned}

    # ------------------------------------------------------------------ #
    # level-1 delta compaction (bounds merge-on-read read amplification)
    # ------------------------------------------------------------------ #
    def compact_deltas(self, from_epoch: int, to_epoch: int) -> str:
        """Merge the delta FILES of committed epochs [from..to] into ONE
        sorted run per physical partition (LSM level-1). Events are
        preserved bit-for-bit (sorted by lsn, duplicate lsns dropped), so
        semantics are untouched — this bounds the file-count read
        amplification that grows with epoch count between full ``compact``
        calls. Idempotent: an existing covering segment is returned."""
        for seg in self.manifest.delta_segments():
            if seg["from"] == from_epoch and seg["to"] == to_epoch:
                return seg["dir"]
            if not (to_epoch < seg["from"] or from_epoch > seg["to"]):
                raise ValueError(f"range [{from_epoch},{to_epoch}] overlaps segment {seg}")
        floor = self.manifest.last_compacted_epoch()
        if from_epoch <= floor:
            raise ValueError(f"epochs <= {floor} are already base-compacted")
        epochs = [e for e in self.manifest.committed_epochs()
                  if from_epoch <= e <= to_epoch]
        if epochs != list(range(from_epoch, to_epoch + 1)):
            raise ValueError(
                f"range [{from_epoch},{to_epoch}] is not a contiguous committed run"
            )
        by_part: dict[int, list[str]] = {}
        for e in epochs:
            d = os.path.join(self.root, "deltas", f"epoch={e}")
            if os.path.isdir(d):
                for p, fs in self._files_by_part(d).items():
                    by_part.setdefault(p, []).extend(fs)
        final_dir = os.path.join(
            self.root, "delta_segments", f"seg={from_epoch}-{to_epoch}"
        )
        if not os.path.exists(final_dir):
            tmp = final_dir + ".tmp-" + uuid.uuid4().hex[:8]
            os.makedirs(tmp, exist_ok=True)  # all-empty ranges publish an empty segment
            refs = [
                _merge_delta_files_task.remote(
                    fs, os.path.join(_part_dir(tmp, p), "merged.parquet")
                )
                for p, fs in sorted(by_part.items())
            ]
            ray.get(refs)
            os.makedirs(os.path.dirname(final_dir), exist_ok=True)
            try:
                os.rename(tmp, final_dir)
            except OSError:
                if not os.path.exists(final_dir):
                    raise
                shutil.rmtree(tmp, ignore_errors=True)
        self.manifest.record_delta_segment(from_epoch, to_epoch, final_dir)
        return final_dir

    def clone(self, dst_root: str) -> dict:
        """Zero-copy table clone (the lakehouse ``CLONE TABLE`` analog):
        hardlink every data file under this table's root into ``dst_root``
        and write a fresh manifest whose under-root paths are rewritten to
        the clone. O(files) metadata work, zero data bytes copied.

        Hardlinks make the clone *independent* of the source's lifecycle —
        unlike a shallow (pointer) clone, ``vacuum``/``rollback``/
        ``compact`` on either table can never invalidate the other (an
        inode lives until its last link drops) — while still sharing all
        data bytes at clone time. Writes diverge naturally: each table
        appends new epochs under its own root. Falls back to a real copy
        across filesystems. An external ``base_path`` outside the root is
        kept as a shared read-only reference (the same contract the source
        itself has with it).

        The clone captures the manifest version current at entry; its
        version log restarts at v1 (the snapshot carries state, not
        history — same contract as Delta Lake's CLONE). A concurrent
        writer's later commit is not part of the clone. Concurrent
        ``vacuum`` during the link walk may race file removal; run clone
        from a quiesced writer or catch the raised error and retry.

        Reference analog: none — the reference reruns migrations from
        scratch (purge-then-reload, record_update.py:170-173); this is the
        table-management surface around the S9 manifest sink."""
        import copy as _copy

        snapshot = _copy.deepcopy(self.manifest.state)
        src_abs = os.path.abspath(self.root)
        dst_abs = os.path.abspath(dst_root)
        if dst_abs == src_abs or dst_abs.startswith(src_abs + os.sep) or \
                src_abs.startswith(dst_abs + os.sep):
            raise ValueError("clone destination must be outside the source root")
        if os.path.exists(dst_root) and os.listdir(dst_root):
            raise ValueError(f"clone destination not empty: {dst_root}")
        os.makedirs(dst_root, exist_ok=True)

        files_linked = 0
        for name in sorted(os.listdir(self.root)):
            if name in ("_manifest", "_tmp", "_txn"):
                continue  # fresh manifest below; scratch/intents are not state
            top = os.path.join(self.root, name)
            if os.path.isfile(top):
                dp = os.path.join(dst_root, name)
                try:
                    os.link(top, dp)
                except OSError:
                    shutil.copy2(top, dp)
                files_linked += 1
                continue
            for dirpath, _dirnames, filenames in os.walk(top):
                rel = os.path.relpath(dirpath, self.root)
                os.makedirs(os.path.join(dst_root, rel), exist_ok=True)
                for fn in filenames:
                    sp = os.path.join(dirpath, fn)
                    dp = os.path.join(dst_root, rel, fn)
                    try:
                        os.link(sp, dp)
                    except OSError:
                        shutil.copy2(sp, dp)
                    files_linked += 1

        prefixes = {self.root, src_abs}

        def _rewrite(o):
            if isinstance(o, str):
                for pref in prefixes:
                    if o == pref:
                        return dst_root
                    if o.startswith(pref + os.sep):
                        return os.path.join(dst_root, os.path.relpath(o, pref))
                return o
            if isinstance(o, list):
                return [_rewrite(x) for x in o]
            if isinstance(o, dict):
                return {k: _rewrite(v) for k, v in o.items()}
            return o

        new_state = _rewrite(snapshot)
        new_state["version"] = 0
        dst_manifest = Manifest(dst_root)
        if dst_manifest.state.get("num_partitions") is not None:
            raise ValueError(f"clone destination already has a table: {dst_root}")
        dst_manifest.state = new_state
        dst_manifest.save()
        return {
            "root": dst_root,
            "files_linked": files_linked,
            "source_version": snapshot.get("version", 0),
            "epochs": sorted(int(k) for k in snapshot.get("epochs", {})),
        }

    def vacuum_deltas(self) -> list[str]:
        """Remove per-epoch delta dirs fully covered by merged segments.
        After vacuuming, ``up_to_epoch`` reads that cut a segment mid-range
        raise (the guard in ``fold_output``); audit/deadletter reads fall
        back to the segment filtered by epoch."""
        removed = []
        floor = self.manifest.last_compacted_epoch()
        for seg in self.manifest.delta_segments():
            straddles = seg["from"] <= floor < seg["to"]
            for e in range(seg["from"], seg["to"] + 1):
                if straddles and e > floor:
                    # state reads EXCLUDE floor-straddling segments (their
                    # pre-floor part is already folded into the base), so
                    # the per-epoch dir is the only live copy of this
                    # epoch's events — keep it
                    continue
                d = os.path.join(self.root, "deltas", f"epoch={e}")
                if os.path.isdir(d):
                    shutil.rmtree(d)
                    removed.append(d)
        return removed

    def vacuum(self, retain_audit: bool = True, retain_snapshots: int = 0,
               retain_versions: int = 64) -> list[str]:
        """Reclaim storage after compactions (Delta-Lake-style VACUUM).

        Removes base snapshots under the table root superseded by a later
        ``compact()`` (each compaction writes a full new snapshot — at
        scale the old ones dominate storage). ``retain_snapshots=N`` keeps
        the N most recently superseded snapshots as a retention window
        (Delta's ``RETAIN``): a reader that listed its files before any of
        the last N compactions committed still finds its base. With
        ``retain_audit=False`` it also drops the below-floor delta epoch
        dirs and segments whose events are already folded into the base;
        their per-epoch audit/deadletter history becomes unreadable
        (``audit_dataset`` raises), while state and whole-run metrics stay
        intact (the compaction's metrics snapshot carries the counters).

        With ``retain_snapshots=0``, run only when no concurrent reader
        predates the latest compaction. Never touches the user-supplied
        ``base_path`` input (only snapshots under the table root)."""
        removed: list[str] = []
        current = self.manifest.state.get("base_bucketized_path")
        if current and self.manifest.state["compactions"]:
            cur = os.path.realpath(current)
            # superseded snapshots in commit order: the original bucketized
            # base, then each compaction's snapshot
            ordered = [os.path.join(self.root, "base_bucketized")]
            ordered += [c["base_path"] for c in self.manifest.state["compactions"]]
            ordered = [d for d in ordered
                       if os.path.isdir(d) and os.path.realpath(d) != cur]
            keep = set(ordered[len(ordered) - retain_snapshots:]) \
                if retain_snapshots else set()
            # orphans: snapshot dirs never recorded in the manifest (a CAS
            # loser's published-but-unreferenced output) are always dead
            known = {os.path.realpath(d) for d in ordered} | {cur}
            orphans = [d for pat in ("base-compact-*", "base-repart-*")
                       for d in glob.glob(os.path.join(self.root, pat))
                       if ".tmp" not in os.path.basename(d)
                       and os.path.realpath(d) not in known]
            for d in ordered + orphans:
                if d in keep:
                    continue
                shutil.rmtree(d)
                removed.append(d)
        if not retain_audit:
            floor = self.manifest.last_compacted_epoch()
            for e in self.manifest.committed_epochs():
                if e > floor:
                    continue
                d = os.path.join(self.root, "deltas", f"epoch={e}")
                if os.path.isdir(d):
                    shutil.rmtree(d)
                    removed.append(d)
            for seg in self.manifest.delta_segments():
                if seg["to"] <= floor and os.path.isdir(seg["dir"]):
                    shutil.rmtree(seg["dir"])
                    removed.append(seg["dir"])
        if retain_versions > 0:
            # transaction-log checkpointing: one version file per commit
            # accumulates forever under streaming ingest
            removed += self.manifest.prune_versions(keep=retain_versions)
        return removed

    def _epoch_files(self, epoch: int) -> tuple[list[str], bool]:
        """Files holding an epoch's events + whether a segment filter by
        epoch is needed (vacuumed epoch served from its merged segment)."""
        d = os.path.join(self.root, "deltas", f"epoch={epoch}")
        files = sorted(glob.glob(os.path.join(d, "**", "*.parquet"), recursive=True))
        if files:
            return files, False
        seg = self.manifest.segment_covering(epoch)
        if seg:
            return sorted(
                glob.glob(os.path.join(seg["dir"], "**", "*.parquet"), recursive=True)
            ), True
        return [], False

    def _event_files(self, parts: set[int] | None = None):
        """Yield ``(epoch, file, from_segment)`` over every committed
        epoch's event files (``_epoch_files``). ``parts`` (logical
        partitions) skips the other partitions' files of epochs ABOVE the
        compaction floor only: a repartition (which always raises the
        floor past every committed epoch) leaves retained below-floor
        files in their ORIGINAL part_p layout, so absorbed history must
        rely on key filters and bloom sidecars, not the current layout."""
        S = self.cfg.num_salts
        floor = self.manifest.last_compacted_epoch()
        for e in self.manifest.committed_epochs():
            files, from_seg = self._epoch_files(e)
            for f in files:
                if (parts is None or e <= floor
                        or _logical_part(_file_part(f), S) in parts):
                    yield e, f, from_seg

    # ------------------------------------------------------------------ #
    def audit_dataset(self, epoch: int):
        """Full routed-event audit for an epoch (reference S11 audit logs),
        with M16 fuzzy-audit parity: ratio, Jaccard and both titles
        (reference ``log_fuzzy_match``, utils.py:301-344).

        Jaccard is computed here in the audit READ path (per-row over the
        audit artifact only — the reference likewise computes it per logged
        record), keeping the ingest hot path fully vectorized."""
        from marc_data_migration_ray.functions.fuzzy import jaccard as _jac

        files, need_filter = self._epoch_files(epoch)
        if not files and self.manifest.is_committed(epoch) \
                and self.manifest.epoch_entry(epoch)["processed"]:
            raise ValueError(
                f"epoch {epoch}: delta events were vacuumed without audit "
                f"retention (vacuum(retain_audit=False)); audit history is gone"
            )
        ds = ray.data.read_parquet(
            files,
            columns=["lsn", "epoch", "doc_id_raw", "key", "op", "route", "status",
                     "match_score", "title", "match_title"],
        )
        if need_filter:
            ds = ds.filter(expr=f"epoch == {epoch}")
        ds = ds.map_batches(
            lambda t: t.drop_columns(["epoch"]), batch_format="pyarrow",
            zero_copy_batch=True,
        )

        def _with_metrics(t: pa.Table) -> pa.Table:
            titles = t["title"].to_pylist()
            matches = t["match_title"].to_pylist()
            ja = [
                _jac(a, b) if (a is not None and b is not None) else None
                for a, b in zip(titles, matches)
            ]
            out = t.rename_columns(
                ["lsn", "doc_id_raw", "key", "op", "route", "status",
                 "ratio", "title", "match_title"]
            )
            return out.append_column("jaccard", pa.array(ja, pa.float64()))

        return ds.map_batches(_with_metrics, batch_format="pyarrow", zero_copy_batch=True)

    def deadletter_dataset(self, epoch: int):
        """Dead-letter rows for an epoch (reference S7 bad-records sink)."""
        files, need_filter = self._epoch_files(epoch)
        if not files:
            if self.manifest.is_committed(epoch) \
                    and self.manifest.epoch_entry(epoch)["processed"]:
                # consistent with audit_dataset: destroyed history must not
                # read as "the epoch had no deadletters"
                raise ValueError(
                    f"epoch {epoch}: delta events were vacuumed without audit "
                    f"retention (vacuum(retain_audit=False)); history is gone"
                )
            return None
        ds = ray.data.read_parquet(files)
        if need_filter:
            ds = ds.filter(expr=f"epoch == {epoch}")
        return ds.filter(expr="route == 'deadletter'")

    def cleanup_tmp(self) -> None:
        t = os.path.join(self.root, "_tmp")
        if os.path.isdir(t):
            shutil.rmtree(t)


def _publish_export(tmp: str, dest: str, info: dict) -> dict:
    """Publish an export written to ``tmp``: write its ``_EXPORT.json``
    marker and rename ``tmp`` to ``dest`` in one step. ``tmp`` is created
    here, since a zero-row partitioned write creates no directory. When a
    concurrent exporter renamed first, ours is discarded and the winner's
    marker returned."""
    os.makedirs(tmp, exist_ok=True)
    with open(os.path.join(tmp, "_EXPORT.json"), "w") as f:
        json.dump(info, f)
    os.makedirs(os.path.dirname(os.path.abspath(dest)), exist_ok=True)
    marker = os.path.join(dest, "_EXPORT.json")
    try:
        os.rename(tmp, dest)
    except OSError:
        if not os.path.exists(marker):
            raise
        shutil.rmtree(tmp, ignore_errors=True)
        with open(marker) as f:
            return json.load(f)
    return info


def _empty_like_export(dest: str, fallback_cols) -> pa.Table:
    """Zero-row table with the export's REAL schema (read from any data
    file), so a fully-pruned scan still yields every column a consumer
    selects; falls back to int64 cluster columns on a fileless export."""
    any_file = next(
        iter(glob.glob(os.path.join(dest, "*", "*.parquet"))), None)
    if any_file is not None:
        return pq.read_schema(any_file).empty_table()
    return pa.table({c: pa.array([], pa.int64()) for c in fallback_cols})


def scan_export(dest: str, **preds) -> dict:
    """Zone-pruned scan of a clustered export
    (``export_snapshot(..., cluster_by=...)``): the consumer-side data-
    skipping read. ``preds`` maps a clustered column to an ``(lo, hi)``
    bound (either may be None). A range directory is never opened when
    ANY bounded column's zone cannot intersect its bound: at 100 TB a
    selective predicate touches a handful of range dirs instead of the
    whole table. Survivors are read with the conjunctive predicate pushed
    down as a parquet filter (row-group pruning inside files) AND applied
    exactly: a NULL clustered value never matches a bound (SQL comparison
    semantics), so an all-NULL zone prunes under one, while an unbounded
    scan returns every row, NULL ones included.

    Returns ``{"dataset", "cluster_by", "ranges_scanned", "ranges_total",
    "rows_skipped"}``: the skip counts are the no-silent-caps audit trail."""
    with open(os.path.join(dest, "_EXPORT.json")) as f:
        info = json.load(f)
    if "zones" not in info:
        raise ValueError(f"{dest} is not a clustered export")
    cols = info["cluster_by"]
    if isinstance(cols, str) or any(
            f"{c}_min" not in z for z in info["zones"] for c in cols):
        raise ValueError(
            f"{dest} has no per-column zone keys (an older clustered-export "
            f"format); re-export it with export_snapshot(cluster_by=...)")
    for c in preds:
        if c not in cols:
            raise ValueError(f"{c} is not a clustered column of {dest}")
    bounds = [(c, op, v) for c, (lo, hi) in preds.items()
              for op, v in ((">=", lo), ("<=", hi)) if v is not None]
    bounded = {c for c, _, _ in bounds}
    keep, skipped_rows = [], 0
    for z in info["zones"]:
        out = any(z[f"{c}_min"] is None for c in bounded) or any(
            z[f"{c}_max"] < v if op == ">=" else z[f"{c}_min"] > v
            for c, op, v in bounds)
        if out:
            skipped_rows += z["n_rows"]
        else:
            keep.append(z["range_id"])
    files = []
    for r in keep:
        files.extend(sorted(glob.glob(
            os.path.join(dest, f"range_id={r}", "*.parquet"))))
    from marc_data_migration_ray.sources import readers

    if not files:
        ds = ray.data.from_arrow(_empty_like_export(dest, cols))
    elif not bounds:
        ds = readers.read_parquet(files)
    else:
        import pyarrow.dataset as pads

        f_expr = None
        for c, op, v in bounds:
            e = pads.field(c) >= v if op == ">=" else pads.field(c) <= v
            f_expr = e if f_expr is None else (f_expr & e)
        ds = readers.read_parquet(files, filter=f_expr).filter(
            expr=" and ".join(f"{c} {op} {v}" for c, op, v in bounds))
    return {
        "dataset": ds,
        "cluster_by": cols,
        "ranges_scanned": len(keep),
        "ranges_total": len(info["zones"]),
        "rows_skipped": skipped_rows,
    }


# ------------------------------------------------------ clustered export --


#: keep the top 16 occupied bits of the bin code -> <= 65536 bins
_CLUSTER_BITS = 16


def _spread_bits(x: np.ndarray) -> np.ndarray:
    """Spread the low 32 bits of ``x`` onto the even bit positions, the
    half of a Morton (Z-order) interleave: the standard magic-mask bit
    spreading (public domain folklore; cf. "Bit Twiddling Hacks")."""
    x = x.astype(np.uint64) & np.uint64(0xFFFFFFFF)
    x = (x | (x << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    x = (x | (x << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    x = (x | (x << np.uint64(2))) & np.uint64(0x3333333333333333)
    x = (x | (x << np.uint64(1))) & np.uint64(0x5555555555555555)
    return x


def _cluster_bins(t: pa.Table, cols, offs, shift: int) -> np.ndarray:
    """Each row's bin code: its offset value shifted right by ``shift``
    for one column, the Morton interleave of the shifted offset values for
    two. A NULL counts as the column's minimum (offset value 0)."""
    vs = [
        (pc.fill_null(pc.cast(t[c], pa.int64()), off)
         .to_numpy(zero_copy_only=False) - off).view(np.uint64)
        >> np.uint64(shift)
        for c, off in zip(cols, offs)
    ]
    code = vs[0] if len(vs) == 1 else (
        _spread_bits(vs[0]) | (_spread_bits(vs[1]) << np.uint64(1)))
    return code.astype(np.int64)


def _merge_bin_stats(t: pa.Table, cols) -> pa.Table:
    """Merge per-bin stat rows that share a bin (the driver-side reduce of
    ``_write_clustered``'s pass 2)."""
    aggs = [(f"{c}_{k}", k) for c in cols for k in ("min", "max")]
    aggs += [("nulls", "sum"), ("n_rows", "sum")]
    g = t.group_by("bin").aggregate(aggs)
    return pa.table({"bin": g["bin"], **{n: g[f"{n}_{k}"] for n, k in aggs}})


def _write_clustered(rows: ray.data.Dataset, tmp: str, cols: list[str],
                     n_ranges: int) -> list[dict]:
    """Write ``rows`` under ``tmp/range_id=<r>/``, clustered by one or two
    int columns, and return one zone per range: ``<col>_min``/``<col>_max``
    per column (NULLs left out), ``n_rows``, and ``nulls`` (rows with a
    NULL in any clustered column). Three passes over the materialized rows:

    1. per-batch min/max: per-column offsets, and one coarse shift that
       keeps the top ``_CLUSTER_BITS`` occupied bits of the bin code, so
       there are at most 65536 bins whatever the row count or value span;
    2. per-batch, per-bin stats, merged on the driver; the ranges split
       at ``N / n_ranges`` cumulative counts on bin boundaries (a bin never
       splits across ranges);
    3. route each row to its bin's range and ``write_parquet_partitioned``.

    For one column the bin code is the offset value itself, so a span
    under 2^16 splits per value, equal values never split and zones never
    overlap. For two it is the Morton (Z-order) interleave, so the layout
    prunes for a predicate on either column. NULL rows land with the
    column's minimum (range 0 for one column)."""
    if len(cols) not in (1, 2):
        raise ValueError(f"cluster_by takes one or two columns, got {cols}")
    rows = rows.materialize()  # three consumers

    def _minmax(t: pa.Table) -> pa.Table:
        out = {}
        for c in cols:
            mm = pc.min_max(pc.cast(t[c], pa.int64()))
            out[f"{c}_min"] = pa.array([mm["min"].as_py()], pa.int64())
            out[f"{c}_max"] = pa.array([mm["max"].as_py()], pa.int64())
        return pa.table(out)

    empty = pa.table({c: pa.array([], pa.int64()) for c in cols})
    mm = pa.concat_tables([_minmax(empty), *rows.map_batches(
        _minmax, batch_format="pyarrow", zero_copy_batch=True
    ).iter_batches(batch_format="pyarrow", batch_size=None)])
    offs, span_bits = [], 1
    for c in cols:
        lo, hi = pc.min(mm[f"{c}_min"]).as_py(), pc.max(mm[f"{c}_max"]).as_py()
        offs.append(lo or 0)
        if lo is not None:
            span_bits = max(span_bits, (hi - lo).bit_length())
    shift = max(0, span_bits - _CLUSTER_BITS // len(cols))

    def _stats(t: pa.Table) -> pa.Table:
        vals = {c: pc.cast(t[c], pa.int64()) for c in cols}
        any_null = pc.is_null(vals[cols[0]])
        for c in cols[1:]:
            any_null = pc.or_(any_null, pc.is_null(vals[c]))
        g = pa.table({
            "bin": pa.array(_cluster_bins(t, cols, offs, shift)),
            **{f"{c}_min": v for c, v in vals.items()},
            **{f"{c}_max": v for c, v in vals.items()},
            "nulls": pc.cast(any_null, pa.int64()),
            "n_rows": pa.array(np.ones(t.num_rows, np.int64)),
        })
        return _merge_bin_stats(g, cols)

    acc = _stats(empty)
    for b in rows.map_batches(
        _stats, batch_format="pyarrow", zero_copy_batch=True
    ).iter_batches(batch_format="pyarrow", batch_size=None):
        acc = pa.concat_tables([acc, b])
        if acc.num_rows > 4 << _CLUSTER_BITS:  # keep the driver bounded
            acc = _merge_bin_stats(acc, cols)
    bins = _merge_bin_stats(acc, cols).sort_by("bin")
    ids = bins["bin"].to_numpy()
    cum = np.cumsum(bins["n_rows"].to_numpy())
    total = int(cum[-1]) if len(cum) else 0
    k = max(1, min(n_ranges, len(ids)))
    # boundary = the bin whose cumulative count first reaches i*N/k; it is
    # the last bin of its range
    targets = (np.arange(1, k) * total) // k
    edges = ids[np.unique(np.searchsorted(cum, targets, side="left"))]
    zones = [{"range_id": r, **{f"{c}_{m}": None for c in cols
                                for m in ("min", "max")},
              "n_rows": 0, "nulls": 0} for r in range(len(edges) + 1)]
    rid = np.searchsorted(edges, ids, side="left")
    for z in _merge_bin_stats(
            bins.set_column(0, "bin", pa.array(rid, pa.int64())),
            cols).to_pylist():
        zones[z.pop("bin")].update(z)
    edges_ref = ray.put(edges)

    def _route(t: pa.Table) -> pa.Table:
        rid = np.searchsorted(ray.get(edges_ref),
                              _cluster_bins(t, cols, offs, shift), side="left")
        return t.append_column("range_id", pa.array(rid.astype(np.int32)))

    write_parquet_partitioned(rows.map_batches(
        _route, batch_format="pyarrow", zero_copy_batch=True
    ), tmp, ["range_id"], row_group_size=_ROW_GROUP_SIZE)
    return zones
