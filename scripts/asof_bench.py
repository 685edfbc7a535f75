"""Batched as-of lineage micro-bench (BASELINE.md "many-event key").

Reproduces the round-3 pathological case: a 100k-event / 20-epoch /
16-partition table whose busiest hot key retains ~4k events, then times
``doc_history(key, with_versions=True)`` — the multi-cut as-of
reconstruction path (one LSN cut per retained event).

Usage: python scripts/asof_bench.py [--events 100000] [--cpus 8]
The fixture is cached per shape under /tmp/asof_bench (the table replay
dominates setup); pass --fresh to rebuild.
"""

import argparse
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--events", type=int, default=100_000)
    ap.add_argument("--rows", type=int, default=20_000)
    ap.add_argument("--epochs", type=int, default=20)
    ap.add_argument("--partitions", type=int, default=16)
    ap.add_argument("--cpus", type=int, default=8)
    ap.add_argument("--fresh", action="store_true")
    ap.add_argument("--blooms", action="store_true",
                    help="run the index-blooms backfill first; a table "
                         "written by this code already has every "
                         ".keybloom sidecar (ingest writes them), so on "
                         "a fresh fixture this step builds nothing")
    args = ap.parse_args()

    os.environ.setdefault("POLARS_MAX_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.cpus,
                 include_dashboard=False, logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    import pyarrow as pa  # noqa: F401  (keeps arrow loaded before timing)

    from marc_data_migration_ray.config import ReplayConfig
    from marc_data_migration_ray.pipelines.replay import Replayer
    from marc_data_migration_ray.sources import fixtures

    shape = f"e{args.events}_r{args.rows}_ep{args.epochs}_p{args.partitions}"
    root = os.path.join("/tmp/asof_bench", shape)
    done = os.path.join(root, "_DONE")
    if args.fresh and os.path.isdir(root):
        shutil.rmtree(root)
    cfg = ReplayConfig(num_partitions=args.partitions)
    if not os.path.exists(done):
        shutil.rmtree(root, ignore_errors=True)
        fixtures.write_fixture(
            os.path.join(root, "in"), n_rows=args.rows,
            n_events=args.events, n_epochs=args.epochs, seed=13)
        rp = Replayer(os.path.join(root, "t"), cfg,
                      base_path=os.path.join(root, "in", "base"))
        for e in range(args.epochs):
            rp.apply_epoch(
                e, os.path.join(root, "in", "binlog", f"epoch={e}"))
        with open(done, "w") as f:
            f.write("ok")
    rp = Replayer(os.path.join(root, "t"), cfg)
    if args.blooms:
        # backfill only: ingest already wrote the sidecars of a fixture
        # table built by this code, so this is a no-op on a fresh cache
        rp.build_key_blooms()

    # busiest retained key = most events in doc_history (hot key 0 of the
    # fixture's skew mix); find it from the plain (cheap) history
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    evs = []
    for e in range(args.epochs):
        d = os.path.join(root, "in", "binlog", f"epoch={e}")
        for f in sorted(os.listdir(d)):
            t = pq.read_table(os.path.join(d, f), columns=["doc_id"])
            evs.append(t)
    allk = pa.concat_tables(evs)
    vc = pc.value_counts(allk["doc_id"].combine_chunks())
    best = max(
        (s for s in vc.to_pylist() if s["values"] is not None),
        key=lambda s: s["counts"])
    from marc_data_migration_ray.functions.keys import normalize_keys

    norm = normalize_keys(pa.array([str(best["values"])]))[0].as_py()
    print(f"hot key {norm!r} with ~{best['counts']} raw events")

    t0 = time.time()
    hist = rp.doc_history(norm, with_payload=True, with_versions=True)
    dt = time.time() - t0
    # warm = same process, workers and layout caches hot (the steady
    # state of an operator debugging a key interactively)
    t0 = time.time()
    hist2 = rp.doc_history(norm, with_payload=True, with_versions=True)
    dt_warm = time.time() - t0
    assert hist.equals(hist2)
    n_cuts = hist.num_rows
    print(json.dumps({
        "metric": "asof_versions_sec", "value": round(dt, 2),
        "warm_sec": round(dt_warm, 2),
        "events": n_cuts, "per_cut_ms": round(1000 * dt / max(n_cuts, 1), 2),
        "cpus": args.cpus, "shape": shape, "blooms": bool(args.blooms),
    }))
    ray.shutdown()


if __name__ == "__main__":
    main()
