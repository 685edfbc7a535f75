"""compact() writes its snapshot from inside the per-bucket fold tasks:
each task writes its partition's ``part_p=<part_id*S>/part-<part_id>.parquet``
and returns an empty row table beside its metrics.

Parity: after ``compact()`` the table reads, counts and allocates exactly
as it did before (state, ``fold_metrics``, local-id offsets, metrics
snapshot), across mid-stream DDL, salting, keyless local-id inserts and an
``auto_compact_epochs`` table. Guard: the snapshot holds one file per
populated partition and ``compact()`` never reaches the Ray Data
partitioned write.
"""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from marc_data_migration_ray.config import ReplayConfig
from marc_data_migration_ray.pipelines import replay
from marc_data_migration_ray.pipelines.replay import (
    _ROW_COLS, Replayer, _WriteSnapshotRows,
)
from marc_data_migration_ray.sources import fixtures
from marc_data_migration_ray.stages.fold import ROW_SCHEMA

N_EPOCHS = 3
CASES = {
    "ddl": {},
    "salted": {"num_salts": 2},
    "auto": {"auto_compact_epochs": 2},
}
COUNTERS = ("noop", "tombstoned", "local", "col_replacements",
            "noop_by_route", "fold_splits")


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("compact_in_task_fixture"))
    # ~1% schema events (adds and renames in every epoch) and 5% keyless
    # inserts, which the fold allocates local ids for
    fixtures.write_fixture(root, n_rows=150, n_events=900, n_epochs=N_EPOCHS,
                           seed=13, schema_change_frac=0.01,
                           invalid_key_frac=0.05)
    return root


def _materialize(ds) -> pa.Table:
    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def _state(rp) -> list[dict]:
    return _materialize(rp.read_state()).sort_by("doc_id").to_pylist()


def _int_keys(d: dict) -> dict:
    return {int(k): v for k, v in d.items()}


@pytest.fixture(scope="module", params=sorted(CASES))
def compacted(request, ray_session, fixture_dir, tmp_path_factory):
    cfg = ReplayConfig(num_partitions=4, **CASES[request.param])
    rp = Replayer(str(tmp_path_factory.mktemp(request.param)), cfg,
                  base_path=os.path.join(fixture_dir, "base"))
    for e in range(N_EPOCHS):
        rp.apply_epoch(e, os.path.join(fixture_dir, "binlog", f"epoch={e}"))
    before = {
        "state": _state(rp),
        "fold_metrics": rp.fold_metrics(),
        "offsets": rp.manifest.local_id_offsets(),
        "snapshot": rp.manifest.metrics_snapshot(),
        "compactions": len(rp.manifest.state["compactions"]),
        "rows": _materialize(rp.fold_output())
        .select(_ROW_COLS + ["part_id"]).sort_by("doc_id").to_pylist(),
    }

    def _refuse(*a, **k):
        raise AssertionError("compact() used the Ray Data partitioned write")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(replay, "write_parquet_partitioned", _refuse)
        new_base = rp.compact()
    return request.param, rp, before, new_base


def test_cases_exercise_ddl_locals_and_auto_compaction(compacted):
    name, rp, before, _ = compacted
    fm = before["fold_metrics"]
    assert fm["local"] > 0 and fm["col_replacements"]
    schema_ops = rp._schema_ops_up_to(None)
    assert {op["kind"] for op in schema_ops} >= {"add_column", "rename_column"}
    if name == "auto":
        assert before["compactions"] == 1  # auto-compacted after epoch 1
        assert before["snapshot"]["local"] > 0


def test_state_matches_pre_compaction(compacted):
    _, rp, before, _ = compacted
    assert _state(rp) == before["state"]


def test_fold_metrics_match_pre_compaction(compacted):
    _, rp, before, _ = compacted
    assert rp.fold_metrics() == before["fold_metrics"]


def test_metrics_snapshot_and_local_offsets(compacted):
    """The new snapshot is the whole-run counters folded so far; offsets
    advance by this fold's local ids only."""
    _, rp, before, _ = compacted
    fm, snap = before["fold_metrics"], rp.manifest.metrics_snapshot()
    for k in COUNTERS:
        assert snap.get(k, 0) == fm[k], k
    assert _int_keys(snap["local_by_part"]) == fm["local_by_part"]
    this_fold = dict(fm["local_by_part"])
    for p, c in _int_keys(before["snapshot"]["local_by_part"]).items():
        this_fold[p] -= c
    want = dict(before["offsets"])
    for p, c in this_fold.items():
        want[p] = want.get(p, 0) + c
    assert rp.manifest.local_id_offsets() == {p: c for p, c in want.items() if c}
    assert rp.manifest.last_compacted_epoch() == N_EPOCHS - 1


def test_snapshot_one_file_per_partition(compacted):
    _, rp, before, new_base = compacted
    S = rp.cfg.num_salts
    got = []
    dirs = os.listdir(new_base)  # hidden temp files included
    assert dirs and all(d.startswith("part_p=") for d in dirs), dirs
    for d in dirs:
        p = int(d.split("=", 1)[1])
        assert p % S == 0, d  # compacted rows land in salt 0 only
        assert os.listdir(os.path.join(new_base, d)) == [
            f"part-{p // S}.parquet"], d
        t = pq.read_table(os.path.join(new_base, d, f"part-{p // S}.parquet"))
        assert t.column_names == _ROW_COLS + ["part_id"]
        assert pc.all(pc.equal(t["part_id"], p // S)).as_py()
        got.extend(t.to_pylist())
    assert sorted(got, key=lambda r: r["doc_id"]) == before["rows"]


def _fold_table(rows: dict[int, list[str]]) -> pa.Table:
    """ROW_SCHEMA table: the given doc ids as rows of their part."""
    ids = [(p, d) for p, ds in rows.items() for d in ds]
    n = len(ids)
    cols = {f.name: pa.nulls(n, f.type) for f in ROW_SCHEMA}
    cols["doc_id"] = pa.array([d for _, d in ids], pa.string())
    cols["part_id"] = pa.array([p for p, _ in ids],
                               ROW_SCHEMA.field("part_id").type)
    cols["tokens"] = pa.array([[i, i + 1] for i in range(n)],
                              ROW_SCHEMA.field("tokens").type)
    return pa.table(cols, schema=ROW_SCHEMA)


def test_write_step_is_retry_safe(tmp_path):
    """A re-run fold task overwrites its partition's file: applying the
    step twice leaves one file per part id, no duplicate rows and no temp
    file, even one a failed attempt left behind."""
    t = _fold_table({1: ["a", "b", "c"], 3: ["d", "e"]})
    step = _WriteSnapshotRows(str(tmp_path), 2)
    for attempt in range(2):
        rest = step(t)
        assert rest.num_rows == 0 and rest.schema == ROW_SCHEMA
        if attempt == 0:  # an attempt that died mid-write
            (tmp_path / "part_p=2" / ".part-1.parquet.tmp").write_bytes(b"x")
    assert sorted(os.listdir(tmp_path)) == ["part_p=2", "part_p=6"]
    for p, want in ((1, ["a", "b", "c"]), (3, ["d", "e"])):
        d = tmp_path / f"part_p={p * 2}"
        assert os.listdir(d) == [f"part-{p}.parquet"]
        got = pq.read_table(d / f"part-{p}.parquet")
        assert got["doc_id"].to_pylist() == want
        assert set(got["part_id"].to_pylist()) == {p}
