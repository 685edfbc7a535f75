"""Engine-generated epochs: ``backfill``, ``delete_where`` and ``merge``.

All three mint binlog rows per partition and commit them through
``apply_epoch``. These tests pin what the minted rows look like in the
audit, that an empty table (nothing committed yet, an empty epoch, or a
base compacted down to no rows) reads and writes as empty, that a failed
generated epoch leaves nothing under ``_tmp``, and that a zero-row table
exports."""

import os
from collections import Counter

import pyarrow as pa
import pytest

from marc_data_migration_ray.config import ReplayConfig
from marc_data_migration_ray.pipelines.replay import Replayer, scan_export
from marc_data_migration_ray.sources import fixtures


def _src(ids, tok0=7000, source="gen-src"):
    return pa.table({
        "doc_id": pa.array(ids, pa.string()),
        "tokens": pa.array([[tok0 + i, tok0 + i + 1] for i in range(len(ids))],
                           pa.list_(pa.int32())),
        "n_tok": pa.array([2] * len(ids), pa.int32()),
        "source": pa.array([source] * len(ids), pa.string()),
    })


def _rows(rp):
    return sorted(rp.read_state().take_all(), key=lambda r: r["doc_id"])


def _max_committed_lsn(rp):
    return max([rp.manifest.ceiling_lsn()]
               + [rp.manifest.epoch_entry(e).get("max_lsn", -1)
                  for e in rp.manifest.committed_epochs()])


def _audit_key(rp, epoch):
    """(op, route, status, ratio) multiset and lsns of an epoch's audit."""
    rows = rp.audit_dataset(epoch).take_all()
    return (Counter((r["op"], r["route"], r["status"], r["ratio"]) for r in rows),
            [r["lsn"] for r in rows])


def _make_append_token():
    """Nested so Ray cloudpickles it by value (test modules are not
    importable on workers)."""

    def _append_token(t: pa.Table) -> pa.Table:
        toks = [None if v is None else v + [999] for v in t["tokens"].to_pylist()]
        return pa.table({
            "doc_id": t["doc_id"],
            "tokens": pa.array(toks, pa.list_(pa.int32())),
            "n_tok": pa.array([None if v is None else len(v) for v in toks],
                              pa.int32()),
        })

    return _append_token


def _make_raising(msg):
    def _boom(t):
        raise RuntimeError(msg)

    return _boom


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("gen_fixture"))
    fixtures.write_fixture(root, n_rows=120, n_events=500, n_epochs=2, seed=47,
                           schema_change_frac=0.0)
    return root


def _replayer(fixture_dir, tmp_path):
    rp = Replayer(str(tmp_path / "t"), ReplayConfig(num_partitions=8),
                  base_path=os.path.join(fixture_dir, "base"))
    for e in range(2):
        rp.apply_epoch(e, os.path.join(fixture_dir, "binlog", f"epoch={e}"))
    return rp


def test_generated_audit_rows(ray_session, fixture_dir, tmp_path):
    """Every minted binlog row's (op, route, status, ratio), and lsns that
    are unique and above everything committed before the epoch."""
    rp = _replayer(fixture_dir, tmp_path)

    def _check(epoch, expected):
        got, lsns = _audit_key(rp, epoch)
        assert got == expected, (epoch, got)
        assert len(set(lsns)) == len(lsns)
        return lsns

    floor = _max_committed_lsn(rp)
    res = rp.backfill(_make_append_token(), epoch=2)
    n_bf = res["backfill_events"]
    assert n_bf > 0
    lsns = _check(2, Counter({("update", "applied", "perfect", 100): n_bf}))
    assert min(lsns) > floor

    floor = _max_committed_lsn(rp)
    res = rp.delete_where("source = 'web'", epoch=3)
    n_del = res["delete_events"]
    assert n_del > 0
    lsns = _check(3, Counter({("delete", "applied", "tombstone", 0): n_del}))
    assert min(lsns) > floor

    live = [r["doc_id"] for r in _rows(rp)]
    matched, new = live[:6], [str(8_100_000 + i) for i in range(4)]
    floor = _max_committed_lsn(rp)
    res = rp.merge(_src(matched + new), epoch=4)
    assert (res["merge_updated"], res["merge_inserted"]) == (6, 4)
    lsns = _check(4, Counter({("update", "applied", "perfect", 100): 6,
                              ("insert", "applied", "inserted", 100): 4}))
    assert min(lsns) > floor

    floor = _max_committed_lsn(rp)
    res = rp.merge(_src(new[:3]), epoch=5, when_matched="delete",
                   when_not_matched=None)
    assert res["merge_deleted"] == 3
    lsns = _check(5, Counter({("delete", "applied", "tombstone", 100): 3}))
    assert min(lsns) > floor
    assert set(new[:3]).isdisjoint(r["doc_id"] for r in _rows(rp))


def _assert_reads_empty(rp):
    assert rp.read_state().count() == 0
    assert rp.fold_metrics()["rows"] == 0


def test_empty_epoch_table_generates(ray_session, tmp_path):
    """A table whose only committed epoch is empty: the three generated
    epochs commit (with nothing to touch) instead of refusing to fold."""
    empty = str(tmp_path / "binlog_empty")
    os.makedirs(empty)
    rp = Replayer(str(tmp_path / "t"), ReplayConfig(num_partitions=4))
    rp.apply_epoch(0, empty)
    _assert_reads_empty(rp)
    assert rp.backfill(_make_append_token(), epoch=1)["backfill_events"] == 0
    assert rp.delete_where("n_tok > 0", epoch=2)["delete_events"] == 0
    res = rp.merge(_src(["1000001", "1000002"]), epoch=3)
    assert res["merge_inserted"] == 2
    assert [r["doc_id"] for r in _rows(rp)] == ["1000001", "1000002"]
    assert rp.orphans()["orphans"] == []


def test_compacted_to_empty_table(ray_session, tmp_path):
    """merge 2 rows, delete_where both, compact: the new base holds no
    files, and every read, metric and maintenance op still works."""
    rp = Replayer(str(tmp_path / "t"), ReplayConfig(num_partitions=4))
    rp.merge(_src(["1000001", "1000002"]), epoch=0)
    assert rp.delete_where("n_tok > 0", epoch=1)["delete_events"] == 2
    _assert_reads_empty(rp)
    rp.compact()
    _assert_reads_empty(rp)
    assert rp.fold_output().count() == 0
    rp.compact()
    rp.repartition(8)
    assert rp.cfg.num_partitions == 8
    _assert_reads_empty(rp)
    res = rp.merge(_src(["1000003"]), epoch=2)
    assert res["merge_inserted"] == 1
    assert [r["doc_id"] for r in _rows(rp)] == ["1000003"]
    assert rp.fold_metrics()["rows"] == 1
    assert rp.fsck()["ok"], rp.fsck()["problems"]


@pytest.mark.parametrize("op", ["merge", "backfill", "delete_where"])
def test_failed_generated_epoch_leaves_no_temp(ray_session, fixture_dir,
                                               tmp_path, op):
    rp = _replayer(fixture_dir, tmp_path)
    live = [r["doc_id"] for r in _rows(rp)]
    with pytest.raises(Exception):
        if op == "merge":
            rp.merge(_src([live[0], live[0]]), epoch=2)  # duplicate key
        elif op == "backfill":
            rp.backfill(_make_raising("transform failed"), epoch=2)
        else:
            rp.delete_where(_make_raising("predicate failed"), epoch=2)
    assert not rp.manifest.is_committed(2)
    assert rp.orphans()["orphans"] == []
    # a retry at the same epoch commits
    if op == "merge":
        res = rp.merge(_src([live[0]]), epoch=2)
        assert res["merge_updated"] == 1
    elif op == "backfill":
        assert rp.backfill(_make_append_token(), epoch=2)["backfill_events"] > 0
    else:
        assert rp.delete_where("n_tok >= 0", epoch=2)["delete_events"] > 0
    assert rp.manifest.is_committed(2)
    assert rp.orphans()["orphans"] == []


def test_zero_row_table_exports(ray_session, tmp_path):
    """A table with no live rows publishes an empty export in every layout:
    plain, clustered by one column and clustered by two."""
    rp = Replayer(str(tmp_path / "t"), ReplayConfig(num_partitions=4))
    rp.merge(_src(["1000001", "1000002"]), epoch=0)
    rp.delete_where("n_tok > 0", epoch=1)
    plain = rp.export_snapshot(str(tmp_path / "exp"))
    assert plain["n_rows"] == 0
    assert os.path.isfile(str(tmp_path / "exp" / "_EXPORT.json"))
    clusterings = ["n_tok", ("n_tok", "last_lsn")]
    for i, by in enumerate(clusterings):
        clustered = rp.export_snapshot(str(tmp_path / f"exp_c{i}"), cluster_by=by)
        assert clustered["n_rows"] == 0
        sc = scan_export(str(tmp_path / f"exp_c{i}"))
        assert sc["dataset"].count() == 0
    # re-running a published export is a no-op
    assert rp.export_snapshot(str(tmp_path / "exp")) == plain
    # and so does a table compacted down to nothing
    rp.compact()
    assert rp.export_snapshot(str(tmp_path / "exp2"))["n_rows"] == 0
    for i, by in enumerate(clusterings):
        info = rp.export_snapshot(str(tmp_path / f"exp_d{i}"), cluster_by=by)
        assert info["n_rows"] == 0
        assert scan_export(str(tmp_path / f"exp_d{i}"))["dataset"].count() == 0
    assert rp.orphans()["orphans"] == []
