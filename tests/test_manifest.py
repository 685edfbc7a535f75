"""Manifest / transaction-log unit tests (no Ray)."""

from marc_data_migration_ray.state.manifest import Manifest


def test_commit_and_fence(tmp_path):
    m = Manifest(str(tmp_path))
    assert m.commit_epoch(0, {"rows": 10}) is True
    assert m.commit_epoch(0, {"rows": 999}) is False  # fenced
    m2 = Manifest(str(tmp_path))  # reload from disk
    assert m2.epoch_entry(0) == {"rows": 10}
    assert m2.committed_epochs() == [0]


def test_atomic_save_survives_reload(tmp_path):
    m = Manifest(str(tmp_path))
    m.commit_epoch(3, {"rows": 1})
    m.commit_epoch(1, {"rows": 2})
    assert Manifest(str(tmp_path)).committed_epochs() == [1, 3]


def test_schema_resolution_chain(tmp_path):
    m = Manifest(str(tmp_path))
    m.record_schema_ops(
        [
            {"lsn": 1, "kind": "add_column", "name": "x", "new_name": None},
            {"lsn": 2, "kind": "rename_column", "name": "source", "new_name": "origin"},
            {"lsn": 3, "kind": "rename_column", "name": "x", "new_name": "y"},
            {"lsn": 4, "kind": "rename_column", "name": "missing", "new_name": "z"},  # no-op
            {"lsn": 5, "kind": "add_column", "name": "y", "new_name": None},  # no-op (exists)
        ]
    )
    schema, renames, added = m.resolve_schema(["doc_id", "source"])
    assert schema == ["doc_id", "origin", "y"]
    assert renames == {"source": "origin", "x": "y"}
    assert added == ["x"]


def test_schema_ops_dedup_on_lsn(tmp_path):
    m = Manifest(str(tmp_path))
    op = {"lsn": 7, "kind": "add_column", "name": "a", "new_name": None}
    m.record_schema_ops([op])
    m.record_schema_ops([op])  # duplicate delivery
    assert len(m.state["schema_ops"]) == 1
    # out-of-order delivery: the log stays sorted by lsn, which the as-of
    # lineage's prefix bisect (replay._ops_prefix_fn) relies on
    m2 = Manifest(str(tmp_path / "m2"))
    m2.record_schema_ops([dict(op, lsn=9)])
    m2.record_schema_ops([dict(op, lsn=3)])
    assert [o["lsn"] for o in m2.state["schema_ops"]] == [3, 9]


def test_compaction_offsets(tmp_path):
    m = Manifest(str(tmp_path))
    m.commit_epoch(0, {"rows": 1})
    m.commit_epoch(1, {"rows": 1})
    m.record_compaction(0, "/x/base2", {3: 2, 5: 1})
    assert m.active_epochs() == [1]
    assert m.local_id_offsets() == {3: 2, 5: 1}
    m.record_compaction(1, "/x/base3", {3: 1})
    assert m.local_id_offsets() == {3: 3, 5: 1}
    assert m.state["base_path"] == "/x/base3"


def test_concurrent_writers_cas(tmp_path):
    """Two Manifest handles on one table: the CAS loser reloads and
    re-applies — no lost update, fencing preserved."""
    from marc_data_migration_ray.state.manifest import Manifest

    root = str(tmp_path / "t")
    a = Manifest(root)
    b = Manifest(root)  # same on-disk state, independent in-memory copies

    assert a.commit_epoch(0, {"rows": 1, "routes": {}, "max_lsn": 5, "dir": None})
    # b is stale (version 0) — its commit must CAS-retry, reload a's epoch 0,
    # and land epoch 1 on top without clobbering it
    assert b.commit_epoch(1, {"rows": 2, "routes": {}, "max_lsn": 9, "dir": None})
    c = Manifest(root)
    assert c.committed_epochs() == [0, 1]
    assert c.epoch_entry(0)["rows"] == 1 and c.epoch_entry(1)["rows"] == 2

    # both race the SAME epoch: exactly one wins, the other is fenced
    d, e = Manifest(root), Manifest(root)
    r1 = d.commit_epoch(2, {"rows": 3, "routes": {}, "max_lsn": 11, "dir": None})
    r2 = e.commit_epoch(2, {"rows": 999, "routes": {}, "max_lsn": 99, "dir": None})
    assert (r1, r2) == (True, False)
    assert Manifest(root).epoch_entry(2)["rows"] == 3


def test_crash_between_link_and_pointer_heals(tmp_path):
    """The versioned CAS file is authoritative: if the convenience pointer
    lags (crash between link and replace), load picks the newest version."""
    import json
    import os

    from marc_data_migration_ray.state.manifest import Manifest

    root = str(tmp_path / "t")
    m = Manifest(root)
    m.commit_epoch(0, {"rows": 1, "routes": {}, "max_lsn": 1, "dir": None})
    m.commit_epoch(1, {"rows": 2, "routes": {}, "max_lsn": 2, "dir": None})
    # simulate the crash: rewind the pointer to version 1 (atomic replace —
    # the pointer is hard-linked to the newest version file, so an in-place
    # write would corrupt it; a real crash only leaves a STALE pointer)
    with open(os.path.join(m.versions_dir, "v000000000001.json")) as f:
        old = json.load(f)
    tmp = m.path + ".rewind"
    with open(tmp, "w") as f:
        json.dump(old, f)
    os.replace(tmp, m.path)
    m2 = Manifest(root)
    assert m2.committed_epochs() == [0, 1]  # healed from the version files


def test_prune_versions_checkpointing(tmp_path):
    """Version-log checkpointing: old version files go, reload still sees
    the newest state, and a writer stale past the retention window gets a
    CAS conflict instead of silently recycling a pruned version number."""
    import glob
    import os

    from marc_data_migration_ray.state.manifest import Manifest, ManifestConflict

    root = str(tmp_path / "t")
    m = Manifest(root)
    for e in range(30):
        m.commit_epoch(e, {"rows": e, "max_lsn": e, "dir": None})
    assert len(glob.glob(os.path.join(m.versions_dir, "v*.json"))) == 30

    # a second handle left stale at an early version
    stale = Manifest(root)
    stale.reload()
    stale.state = dict(stale.state)
    # rewind the stale writer far below the soon-to-be floor
    stale.state["version"] = 3

    removed = m.prune_versions(keep=8)
    left = glob.glob(os.path.join(m.versions_dir, "v*.json"))
    assert len(left) == 8 and len(removed) == 22
    # fresh load sees the newest state
    m2 = Manifest(root)
    assert m2.state["version"] == m.state["version"]
    assert m2.committed_epochs() == list(range(30))
    # pruning again is a no-op
    assert m.prune_versions(keep=8) == []
    # stale writer below the floor cannot CAS a recycled number
    import pytest as _pytest

    with _pytest.raises(ManifestConflict, match="floor"):
        stale.save()
    # after reload the stale writer commits normally above the floor
    stale.reload()
    stale.commit_epoch(99, {"rows": 0, "max_lsn": 99, "dir": None})
    assert Manifest(root).is_committed(99)
