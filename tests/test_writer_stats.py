"""Ingest writes its own manifest stats and key blooms.

The ingest write task returns each delta file's stats (partition, route
counts, lsn bounds, schema rows) and writes the file's ``.keybloom``
sidecar from the rows it holds; ``compact_deltas`` writes each segment
file's sidecar the same way. Checks, on a salted, precollapsed table with
mid-stream DDL and keyless rows: the committed entries equal a
recomputation from the committed files in plain pyarrow; every delta and
segment file has its sidecar without a backfill, so ``maintain()`` builds
none; and a retried sink write task leaves one file per partition.
"""

import glob
import os
from collections import Counter
from types import SimpleNamespace

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from marc_data_migration_ray.config import ReplayConfig
from marc_data_migration_ray.pipelines.replay import _KEYBLOOM_SUFFIX, Replayer
from marc_data_migration_ray.sources import fixtures
from marc_data_migration_ray.sources.pwrite import PartitionedParquetSink

N_EPOCHS = 3


@pytest.fixture(scope="module")
def rp(ray_session, tmp_path_factory):
    root = str(tmp_path_factory.mktemp("writer_stats"))
    fdir = os.path.join(root, "fx")
    # ~1% schema events (adds and renames) and 5% keyless inserts
    fixtures.write_fixture(fdir, n_rows=150, n_events=900, n_epochs=N_EPOCHS,
                           seed=17, schema_change_frac=0.01,
                           invalid_key_frac=0.05)
    cfg = ReplayConfig(num_partitions=4, num_salts=2, precollapse_updates=True)
    rp = Replayer(os.path.join(root, "t"), cfg,
                  base_path=os.path.join(fdir, "base"))
    for e in range(N_EPOCHS):
        rp.apply_epoch(e, os.path.join(fdir, "binlog", f"epoch={e}"))
    return rp


def _delta_files(rp) -> list[str]:
    return sorted(glob.glob(os.path.join(rp.root, "deltas", "**", "*.parquet"),
                            recursive=True))


def _recompute(d: str) -> tuple[dict, list[dict]]:
    """An epoch entry's stats and schema ops from its files, by reading
    every row back."""
    routes: Counter = Counter()
    parts, lsns, schema = {}, [], {}
    for pdir in sorted(glob.glob(os.path.join(d, "part_p=*"))):
        files = sorted(glob.glob(os.path.join(pdir, "*.parquet")))
        t = pa.concat_tables([pq.read_table(f) for f in files])
        routes.update(t["route"].to_pylist())
        lsn = [x for x in t["lsn"].to_pylist() if x is not None]
        parts[pdir.rsplit("=", 1)[1]] = {"rows": t.num_rows,
                                         "max_lsn": max(lsn, default=-1)}
        lsns += lsn
        for r in t.to_pylist():
            if r["route"] == "schema":
                schema.setdefault(r["lsn"], {
                    "lsn": r["lsn"], "kind": r["schema_kind"],
                    "name": r["schema_name"],
                    "new_name": r["schema_new_name"]})
    entry = {"routes": dict(routes), "parts": parts,
             "rows": sum(routes.values()), "min_lsn": min(lsns, default=None),
             "max_lsn": max(lsns, default=-1)}
    return entry, [schema[k] for k in sorted(schema)]


def test_entries_equal_recomputation_from_files(rp):
    all_ops = rp.manifest.state["schema_ops"]
    assert all_ops, "fixture must carry schema events"
    assert any(pq.read_table(f, columns=["key"])["key"].null_count
               for f in _delta_files(rp)), "fixture must carry keyless rows"
    for e in range(N_EPOCHS):
        entry = rp.manifest.epoch_entry(e)
        want, want_ops = _recompute(entry["dir"])
        assert any(int(p) % 2 for p in want["parts"])  # salt 1 is populated
        for k, v in want.items():
            assert entry[k] == v, (e, k)
        got_ops = [{k: o[k] for k in ("lsn", "kind", "name", "new_name")}
                   for o in all_ops if o["epoch"] == e]
        assert got_ops == want_ops, e


def test_every_delta_and_segment_file_has_its_sidecar(rp):
    files = _delta_files(rp)
    assert files
    assert [f for f in files if not os.path.exists(f + _KEYBLOOM_SUFFIX)] == []
    seg = rp.compact_deltas(0, N_EPOCHS - 1)
    segs = glob.glob(os.path.join(seg, "**", "*.parquet"), recursive=True)
    assert segs
    assert [f for f in segs if not os.path.exists(f + _KEYBLOOM_SUFFIX)] == []
    assert rp.maintain()["key_blooms"]["built"] == 0


def test_sink_write_retry_leaves_one_file_per_partition(tmp_path):
    """A write task run twice with the same task index (a retry), with the
    hidden temp file of a killed attempt planted in between, rewrites the
    same names: one file per partition, no duplicate rows, row order
    inside each partition kept."""
    d = str(tmp_path / "out")
    t = pa.table({"part_p": pa.array([1, 0, 1, 2, 0, 1], pa.int32()),
                  "v": pa.array(range(6), pa.int64())})
    sink = PartitionedParquetSink(
        d, "part_p", on_file=lambda v, tab, path: (v, tab["v"].to_pylist(), path))
    ctx = SimpleNamespace(task_idx=3)
    first = sink.write([t.slice(0, 4), t.slice(4)], ctx)
    assert [(v, rows) for v, rows, _ in first] == [
        (0, [1, 4]), (1, [0, 2, 5]), (2, [3])]
    path1 = first[1][2]
    stray = os.path.join(os.path.dirname(path1),
                         f".{os.path.basename(path1)}.tmp")
    with open(stray, "wb") as f:
        f.write(b"torn")
    assert sink.write([t.slice(0, 4), t.slice(4)], ctx) == first
    by_part = Replayer._files_by_part(None, d)
    assert {p: len(fs) for p, fs in by_part.items()} == {0: 1, 1: 1, 2: 1}
    for p, rows, path in first:
        assert by_part[p] == [path]
        got = pq.read_table(path)
        assert got.column_names == ["v"]
        assert got["v"].to_pylist() == rows
    assert sorted(os.listdir(os.path.dirname(path1))) == [
        os.path.basename(path1)]
