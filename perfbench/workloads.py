"""Workload shapes and their seed-derived inputs.

Each workload is a fixed fixture shape plus a closed-loop operation plan
(which keys each lookup and lineage call asks for, after which epoch).
Everything here is a pure function of the workload name and the seed, so
the same seed gives the same fixture files, the same plan and the same
expected answers.

``prepare`` runs in a child process at set-up (this file's ``__main__``,
so the oracle's memory is returned when it ends): it writes the fixture with
``sources.fixtures`` and computes the expected answers with the
pure-Python ``oracle``. Both are cached per (workload, shape, seed) under
the benchmark's work directory, so a repeated seed reuses them.
"""

from __future__ import annotations

import dataclasses
import glob
import hashlib
import json
import os
import pickle
import re
import shutil
from collections import defaultdict

import numpy as np


@dataclasses.dataclass(frozen=True)
class Shape:
    rows: int              # base table rows
    events: int            # binlog events over all epochs
    epochs: int
    partitions: int
    precollapse: bool      # ReplayConfig.precollapse_updates
    auto_segment: int      # ReplayConfig.auto_segment_epochs
    ddl_ops: int           # expected add/rename schema events in the binlog
    lookup_every: int      # lookup() after every Nth epoch (0: none)
    history_every: int     # doc_history() after every Nth epoch (0: none)
    final_lookups: int     # lookup() calls after the full read
    final_histories: int   # doc_history() calls after the full read
    oracle_parts: int = 0  # >0: oracle over this many sampled partitions only


SHAPES = {
    # two large epochs through the bulk path, no level-1 merges; the full
    # oracle is too slow here, so it runs on 1 of 8 partitions and the
    # whole state is checked by digest
    "bulk_replay": Shape(rows=16_000, events=128_000, epochs=2, partitions=8,
                         precollapse=True, auto_segment=0, ddl_ops=0,
                         lookup_every=0, history_every=0,
                         final_lookups=4, final_histories=8, oracle_parts=1),
    # mid-stream add/rename DDL (40 ± 2 schema events, see prepare) with
    # updates writing DDL-added columns
    "ddl_evolve": Shape(rows=4_000, events=8_000, epochs=8, partitions=4,
                        precollapse=False, auto_segment=4, ddl_ops=24,
                        lookup_every=2, history_every=1,
                        final_lookups=2, final_histories=0),
}

#: smoke sizes for the self-tests: same plans, a few hundred rows
SMOKE = {
    name: dataclasses.replace(
        s, rows=max(s.rows // 40, 200), events=max(s.events // 40, 400),
        ddl_ops=min(s.ddl_ops, 6))
    for name, s in SHAPES.items()
}

#: keys per lookup() call, each in its own partition
KEYS_PER_LOOKUP = 3
#: the fixture generator's hot keys are canonical ids 1000000..1000004
HOT_KEYS = 5
KEY0 = 1_000_000
FIXTURE_VERSION = 4


def replay_config(shape: Shape):
    from marc_data_migration_ray.config import ReplayConfig

    return ReplayConfig(num_partitions=shape.partitions,
                        precollapse_updates=shape.precollapse,
                        auto_segment_epochs=shape.auto_segment)


def shape_tag(shape: Shape) -> str:
    """Short stable id of a shape: recorded digests and caches key on it."""
    return hashlib.sha1(json.dumps(
        [FIXTURE_VERSION, dataclasses.asdict(shape)]).encode()).hexdigest()[:10]


def cache_dir(work: str, workload: str, shape: Shape, seed: int) -> str:
    return os.path.join(work, "cache", f"{workload}-{shape_tag(shape)}-s{seed}")


def epoch_dir(fx: str, e: int) -> str:
    return os.path.join(fx, "binlog", f"epoch={e}")


# --------------------------------------------------------------------- #
# the operation plan
# --------------------------------------------------------------------- #
def plan(shape: Shape, seed: int, key_events: dict[str, list],
         skip: set[str]) -> dict:
    """Seeded operation plan: lookup key lists and lineage keys, each with
    the epoch after which it runs (``None`` = after the full read).

    Every lookup asks for one hot key plus cold keys drawn from the base
    and insert key ranges. Lineage mixes hot keys with keys that have one
    to four events, the first at or before the call's epoch
    (``key_events`` maps key -> its events' (op, mask length, epoch) in
    lsn order). Keys in ``skip`` are never drawn.
    """
    from marc_data_migration_ray import oracle

    rng = np.random.default_rng([seed, 0x5EED])

    def cold() -> str:
        while True:
            # 80% existing base keys, 20% keys in the insert range
            if rng.random() < 0.8:
                k = str(KEY0 + int(rng.integers(HOT_KEYS, shape.rows)))
            else:
                k = str(KEY0 + int(rng.integers(shape.rows, 2 * shape.rows)))
            if k not in skip:
                return k

    def lookup_keys() -> list[str]:
        # every call touches exactly KEYS_PER_LOOKUP partitions, so the
        # work per call does not depend on the seed
        keys = [str(KEY0 + int(rng.integers(0, HOT_KEYS)))]
        parts = {oracle.fnv1a64(keys[0]) % shape.partitions}
        while len(keys) < KEYS_PER_LOOKUP:
            k = cold()
            p = oracle.fnv1a64(k) % shape.partitions
            if p not in parts:
                keys.append(k)
                parts.add(p)
        return keys

    # lineage asks for keys that changed a few times, so calls cost alike;
    # as-of lineage refuses keys whose payload precollapse stripped, so
    # with precollapse at most one of their updates is a full-row one
    changed = sorted(
        k for k, evs in key_events.items()
        if int(k) - KEY0 >= HOT_KEYS and k not in skip and 1 <= len(evs) <= 4
        and not (shape.precollapse
                 and sum(1 for op, nmask, _ in evs if op == "update" and not nmask) > 1))

    def history_key(i: int, cut: int) -> str:
        # one hot key per three calls keeps the median among the others;
        # hot keys always have stripped payloads under precollapse
        if i % 3 == 0 and not shape.precollapse:
            return str(KEY0 + int(rng.integers(0, HOT_KEYS)))
        ready = [k for k in changed if key_events[k][0][2] <= cut]
        return ready[int(rng.integers(0, len(ready)))]

    lookups, histories = [], []
    for e in range(shape.epochs):
        if shape.lookup_every and (e + 1) % shape.lookup_every == 0:
            lookups.append((e, lookup_keys()))
        if shape.history_every and (e + 1) % shape.history_every == 0:
            histories.append((e, history_key(len(histories), e)))
    for _ in range(shape.final_lookups):
        lookups.append((None, lookup_keys()))
    for _ in range(shape.final_histories):
        histories.append((None, history_key(len(histories), shape.epochs - 1)))
    return {"lookups": lookups, "histories": histories}


# --------------------------------------------------------------------- #
# set-up: fixture + expected answers (runs in a child process)
# --------------------------------------------------------------------- #
_LOCAL = re.compile(r"^LOCAL-(\d+)-\d+$")


def row_partition(doc_id: str, num_partitions: int) -> int:
    """Logical partition of a state row: local ids embed theirs."""
    from marc_data_migration_ray import oracle

    m = _LOCAL.match(doc_id)
    if m:
        return int(m.group(1)) % num_partitions
    return oracle.fnv1a64(doc_id) % num_partitions


def canon_row(row: dict) -> str:
    """Order-independent, type-stable text form of one state row."""
    return json.dumps({k: (list(v) if isinstance(v, (list, tuple, np.ndarray))
                           else v) for k, v in row.items()},
                      sort_keys=True, default=int)


def rows_digest(rows) -> dict:
    """Row count + sha256 over the sorted canonical rows."""
    h = hashlib.sha256()
    n = 0
    for s in sorted(canon_row(r) for r in rows):
        h.update(s.encode())
        h.update(b"\n")
        n += 1
    return {"rows": n, "sha256": h.hexdigest()}


def _read_table(paths: list[str]):
    import pyarrow as pa
    import pyarrow.parquet as pq

    return pa.concat_tables([pq.read_table(p) for p in paths]).combine_chunks()


def _rows(table, idx: list[int]) -> list[dict]:
    """Python rows of ``table`` at ``idx`` (token lists are costly to
    convert, so only the rows a comparison needs are converted)."""
    import pyarrow as pa

    return table.take(pa.array(idx, pa.int64())).to_pylist() if idx else []


def indexed_reroute():
    """An equivalent of ``oracle._reroute`` that finds the audit entry of a
    rerouted event through an lsn index instead of a scan of the whole
    audit list, which makes the oracle quadratic in a partition's events.
    Audit lists are append-only and their lsns unique after the oracle's
    dedup, so the first entry with the lsn is the one the scan finds."""
    index: dict[int, list] = {}  # id(audit) -> [audit, lsn -> entry, indexed]

    def reroute(audit, routes, ev, new_route):
        held = index.get(id(audit))
        if held is None or held[0] is not audit:
            held = index[id(audit)] = [audit, {}, 0]
        for a in audit[held[2]:]:
            held[1].setdefault(a["lsn"], a)
        held[2] = len(audit)
        routes[ev["_route"]] -= 1
        routes[new_route] += 1
        a = held[1].get(ev["lsn"])
        if a is not None:
            a["route"] = new_route
            a["status"] = "noop"
        ev["_route"] = new_route

    return reroute


def prepare(workload: str, shape: Shape, seed: int, dest: str) -> None:
    """Write the fixture and the expected answers into ``dest``.

    Runs in a child process: it swaps ``indexed_reroute`` into the oracle."""
    import pyarrow.compute as pc

    from marc_data_migration_ray import oracle
    from marc_data_migration_ray.sources import fixtures

    oracle._reroute = indexed_reroute()
    tmp = dest + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    fx = os.path.join(tmp, "fixture")
    # the generator draws every event's op independently, so the number of
    # schema events varies by seed (23 to 48 for an expected 40), and the
    # cost of a read grows with it: take the first of the seed's fixture
    # seeds whose count lies within 2 of the shape's
    for j in range(200 if shape.ddl_ops else 1):
        shutil.rmtree(fx, ignore_errors=True)
        fixture_seed = seed * 200 + j if shape.ddl_ops else seed
        fixtures.write_fixture(
            fx, n_rows=shape.rows, n_events=shape.events, n_epochs=shape.epochs,
            seed=fixture_seed, schema_change_frac=shape.ddl_ops / shape.events)
        op_col = _read_table(glob.glob(os.path.join(fx, "binlog", "*", "*.parquet")))["op"]
        if abs(pc.sum(pc.equal(op_col, "schema_change")).as_py() - shape.ddl_ops) <= 2:
            break
    else:
        raise ValueError(f"no fixture seed gives {shape.ddl_ops} schema events")
    cfg = replay_config(shape)
    base = _read_table(sorted(glob.glob(os.path.join(fx, "base", "*.parquet"))))
    events = _read_table([f for e in range(shape.epochs) for f in sorted(
        glob.glob(os.path.join(epoch_dir(fx, e), "*.parquet")))])
    base_raw = base["doc_id"].to_pylist()
    base_ntok = base["n_tok"].to_pylist()
    ev_raw = events["doc_id"].to_pylist()
    ev_op = events["op"].to_pylist()
    ev_epoch = events["epoch"].to_pylist()
    ev_nmask = pc.fill_null(pc.list_value_length(events["column_mask"]), 0).to_pylist()
    base_keys = [oracle.normalize_key(r) for r in base_raw]
    ev_keys = [oracle.normalize_key(r) for r in ev_raw]

    base_idx: dict[str, list[int]] = defaultdict(list)
    for i, k in enumerate(base_keys):
        if k is not None:
            base_idx[k].append(i)
    ev_idx: dict[str, list[int]] = defaultdict(list)
    for i, k in enumerate(ev_keys):
        if k is not None:
            ev_idx[k].append(i)
    ddl = _rows(events, [i for i, op in enumerate(ev_op) if op == "schema_change"])

    # base rows that tie on the dedup order (same raw doc_id, same n_tok)
    # but differ in tokens: the semantics leave the winner unspecified, so
    # these keys are left out of every comparison
    tied = set()
    for k, idx in base_idx.items():
        if len(idx) < 2:
            continue
        top = max((base_raw[i], base_ntok[i]) for i in idx)
        winners = [i for i in idx if (base_raw[i], base_ntok[i]) == top]
        if len({tuple(r["tokens"] or ()) for r in _rows(base, winners)}) > 1:
            tied.add(k)
    summary = {k: [(ev_op[i], ev_nmask[i], ev_epoch[i]) for i in idx]
               for k, idx in ev_idx.items()}
    ops = plan(shape, seed, summary, tied)

    def key_state(key: str, epoch: int) -> dict | None:
        # a key's state depends only on its own base rows and events plus
        # the DDL timeline, so a per-key replay is exact and cheap
        evs = _rows(events, [i for i in ev_idx.get(key, []) if ev_epoch[i] <= epoch])
        evs += [d for d in ddl if d["epoch"] <= epoch]
        final = oracle.replay(_rows(base, base_idx.get(key, [])), evs, cfg)["final"]
        hit = [r for r in final if r["doc_id"] == key]
        return hit[0] if hit else None

    last = shape.epochs - 1
    expect_keys = {}
    for e, keys in ops["lookups"]:
        for k in keys:
            expect_keys[(last if e is None else e, k)] = None
    for e, k in ops["histories"]:
        expect_keys[(last if e is None else e, k)] = None
    for ek in expect_keys:
        expect_keys[ek] = key_state(ek[1], ek[0])

    if shape.oracle_parts:
        # sampled-partition oracle: partitions are independent (keys never
        # cross them and local ids are allocated per partition), so the
        # replay of exactly the sampled partitions' rows and events is the
        # full replay restricted to them
        P = shape.partitions
        rng = np.random.default_rng([seed, 0x0AC1E])
        parts = sorted(int(p) for p in rng.choice(P, shape.oracle_parts, replace=False))

        sb = [i for i, (k, raw) in enumerate(zip(base_keys, base_raw))
              if oracle.partition_of(k, raw, P) in parts]
        se = [i for i, (k, raw, op) in enumerate(zip(ev_keys, ev_raw, ev_op))
              if op == "schema_change" or oracle.partition_of(k, raw, P) in parts]
        final = oracle.replay(_rows(base, sb), _rows(events, se), cfg)["final"]
    else:
        parts = None
        final = oracle.replay(base.to_pylist(), events.to_pylist(), cfg)["final"]
    final = [r for r in final if r["doc_id"] not in tied]

    expected = {
        "workload": workload,
        "seed": seed,
        "fixture_seed": fixture_seed,
        "events": events.num_rows,
        "base_rows": base.num_rows,
        "ddl_ops": len(ddl),
        "plan": ops,
        "key_state": expect_keys,
        "oracle_parts": parts,
        "tied_keys": sorted(tied),
        "oracle_digest": rows_digest(final),
    }
    with open(os.path.join(tmp, "expected.pkl"), "wb") as f:
        pickle.dump(expected, f)
    shutil.rmtree(dest, ignore_errors=True)
    os.rename(tmp, dest)


def load_expected(dest: str) -> dict:
    with open(os.path.join(dest, "expected.pkl"), "rb") as f:
        return pickle.load(f)


if __name__ == "__main__":
    # python3 perfbench/workloads.py WORKLOAD SEED DEST [--smoke]
    import sys

    name, seed_arg, dest_arg = sys.argv[1:4]
    prepare(name, (SMOKE if "--smoke" in sys.argv[4:] else SHAPES)[name],
            int(seed_arg), dest_arg)
