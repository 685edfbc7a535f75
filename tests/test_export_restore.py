"""Disaster-recovery round trip: export_snapshot → new table.

An export is the engine-agnostic hand-off artifact; restoring it as the
base of a FRESH table (possibly with a different partition layout) must
reproduce the exported state exactly, and the restored table must accept
further epochs.
"""

import os

import pytest

from marc_data_migration_ray.config import ReplayConfig
from marc_data_migration_ray.pipelines.replay import Replayer
from marc_data_migration_ray.sources import fixtures

N_EPOCHS = 3


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("dr_fixture"))
    fixtures.write_fixture(root, n_rows=120, n_events=900, n_epochs=N_EPOCHS,
                           seed=59, invalid_key_frac=0.0,
                           schema_change_frac=0.0)
    return root


def _norm(rows):
    return sorted(
        (
            {k: (list(v) if k == "tokens" and v is not None else v)
             for k, v in r.items()}
            for r in rows
        ),
        key=lambda r: r["doc_id"],
    )


def test_export_then_restore_round_trips(ray_session, tmp_path, fixture_dir):
    cfg = ReplayConfig(num_partitions=4)
    src = Replayer(str(tmp_path / "src"), cfg,
                   base_path=os.path.join(fixture_dir, "base"))
    for e in range(2):
        src.apply_epoch(e, os.path.join(fixture_dir, "binlog", f"epoch={e}"))
    want = _norm(src.read_state().take_all())

    export_dir = str(tmp_path / "exp")
    src.export_snapshot(export_dir)

    # restore into a fresh table with a DIFFERENT partition layout
    dst = Replayer(str(tmp_path / "restored"), ReplayConfig(num_partitions=7),
                   base_path=export_dir)
    got = _norm(dst.read_state().take_all())
    assert [r["doc_id"] for r in got] == [r["doc_id"] for r in want]
    for a, b in zip(got, want):
        assert a["tokens"] == b["tokens"], a["doc_id"]
        assert a["n_tok"] == b["n_tok"]
        assert a["source"] == b["source"]

    # the restored table is live: apply the next epoch and match the
    # source that applied the same epoch
    dst.apply_epoch(2, os.path.join(fixture_dir, "binlog", "epoch=2"))
    src.apply_epoch(2, os.path.join(fixture_dir, "binlog", "epoch=2"))
    got2 = _norm(dst.read_state().take_all())
    want2 = _norm(src.read_state().take_all())
    assert [r["doc_id"] for r in got2] == [r["doc_id"] for r in want2]
    for a, b in zip(got2, want2):
        assert a["tokens"] == b["tokens"], a["doc_id"]


def test_export_rows_sit_in_their_routed_partition(ray_session, tmp_path):
    """``export_snapshot`` places each row under the ``part_p`` the table
    routes its ``doc_id`` to — allocated local ids included, which go to
    their embedded partition, not hash(doc_id) — and the export still
    restores to the same state."""
    import glob

    import pyarrow.parquet as pq

    fx = str(tmp_path / "fx")
    fixtures.write_fixture(fx, n_rows=120, n_events=900, n_epochs=2,
                           seed=61, invalid_key_frac=0.05,
                           schema_change_frac=0.0)
    rp = Replayer(str(tmp_path / "src"), ReplayConfig(num_partitions=8),
                  base_path=os.path.join(fx, "base"))
    for e in range(2):
        rp.apply_epoch(e, os.path.join(fx, "binlog", f"epoch={e}"))
    rp.compact()

    def _payload(rows):
        return [(r["doc_id"], r["tokens"], r["n_tok"], r["source"])
                for r in _norm(rows)]

    want = _payload(rp.read_state().take_all())
    dest = str(tmp_path / "exp")
    rp.export_snapshot(dest)
    n_local = 0
    for f in glob.glob(os.path.join(dest, "part_p=*", "*.parquet")):
        p = int(os.path.basename(os.path.dirname(f)).split("=", 1)[1])
        for doc_id in pq.read_table(f, columns=["doc_id"])["doc_id"].to_pylist():
            n_local += doc_id.startswith("LOCAL-")
            assert rp._parts_for_keys([doc_id]) == {p}, (doc_id, p)
    assert n_local, "fixture must export allocated local ids"

    dst = Replayer(str(tmp_path / "restored"), ReplayConfig(num_partitions=8),
                   base_path=dest)
    assert _payload(dst.read_state().take_all()) == want
