"""End-to-end Ray pipeline tests: replay vs oracle, exactly-once fencing,
crash-resume, duplicate delivery, compaction equivalence, schema evolution.
(FIXTURES.md §3-§4.)
"""

import os
import shutil

import pyarrow.parquet as pq
import pytest

from marc_data_migration_ray import oracle
from marc_data_migration_ray.config import ReplayConfig
from marc_data_migration_ray.pipelines.replay import Replayer
from marc_data_migration_ray.sources import fixtures

N_EPOCHS = 3


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("cdc_fixture"))
    fixtures.write_fixture(root, n_rows=200, n_events=1200, n_epochs=N_EPOCHS, seed=21)
    return root


def oracle_final(fixture_dir, cfg, n_epochs=N_EPOCHS):
    base = pq.read_table(os.path.join(fixture_dir, "base")).to_pylist()
    events = []
    for e in range(n_epochs):
        d = os.path.join(fixture_dir, "binlog", f"epoch={e}")
        for f in sorted(os.listdir(d)):
            events += pq.read_table(os.path.join(d, f)).to_pylist()
    return oracle.replay(base, events, cfg)


def rows_equal(eng_rows, oracle_rows):
    eng = sorted(eng_rows, key=lambda r: r["doc_id"])
    assert len(eng) == len(oracle_rows)
    for a, b in zip(eng, oracle_rows):
        keys = set(a) | set(b)
        for k in keys:
            va, vb = a.get(k), b.get(k)
            if k == "tokens":
                va = list(va) if va is not None else None
                vb = list(vb) if vb is not None else None
            assert va == vb, (a.get("doc_id"), k)


def replay_all(root, fixture_dir, cfg):
    rp = Replayer(root, cfg, base_path=os.path.join(fixture_dir, "base"))
    for e in range(N_EPOCHS):
        rp.apply_epoch(e, os.path.join(fixture_dir, "binlog", f"epoch={e}"))
    return rp


def test_full_replay_matches_oracle(ray_session, fixture_dir, tmp_path):
    cfg = ReplayConfig(num_partitions=8)
    rp = replay_all(str(tmp_path / "t"), fixture_dir, cfg)
    o = oracle_final(fixture_dir, cfg)
    rows_equal(rp.read_state().take_all(), o["final"])


def test_epoch_fencing_is_idempotent(ray_session, fixture_dir, tmp_path):
    cfg = ReplayConfig(num_partitions=8)
    rp = replay_all(str(tmp_path / "t"), fixture_dir, cfg)
    before = rp.manifest.state["epochs"].copy()
    v = rp.manifest.state["version"]
    entry = rp.apply_epoch(1, os.path.join(fixture_dir, "binlog", "epoch=1"))
    assert entry == before["1"]
    assert rp.manifest.state["version"] == v  # no manifest churn on re-commit


def test_crash_resume(ray_session, fixture_dir, tmp_path):
    """Kill after epoch 0; a fresh Replayer resumes and reaches the same state."""
    cfg = ReplayConfig(num_partitions=8)
    root = str(tmp_path / "t")
    rp1 = Replayer(root, cfg, base_path=os.path.join(fixture_dir, "base"))
    rp1.apply_epoch(0, os.path.join(fixture_dir, "binlog", "epoch=0"))
    del rp1  # 'crash'

    rp2 = Replayer(root, cfg)  # resumes from manifest (base_path persisted)
    assert rp2.manifest.committed_epochs() == [0]
    for e in range(N_EPOCHS):
        rp2.apply_epoch(e, os.path.join(fixture_dir, "binlog", f"epoch={e}"))
    o = oracle_final(fixture_dir, cfg)
    rows_equal(rp2.read_state().take_all(), o["final"])


def test_partial_write_then_retry(ray_session, fixture_dir, tmp_path):
    """Data dir published but manifest commit lost → re-apply heals (commit
    from files). The re-adopted epoch takes its stats from a read of the
    published files, the one path that still does; its entry and schema
    ops must equal the ones the write task produced."""
    cfg = ReplayConfig(num_partitions=8)
    root = str(tmp_path / "t")
    rp = Replayer(root, cfg, base_path=os.path.join(fixture_dir, "base"))
    rp.apply_epoch(0, os.path.join(fixture_dir, "binlog", "epoch=0"))
    ops0 = [o for o in rp.manifest.state["schema_ops"] if o["epoch"] == 0]
    assert ops0, "fixture epoch 0 must carry schema events"
    # simulate losing the commit after data publish: the entry and its
    # schema ops are one manifest write
    saved = rp.manifest.state["epochs"].pop("0")
    rp.manifest.state["schema_ops"] = [
        o for o in rp.manifest.state["schema_ops"] if o["epoch"] != 0]
    rp.manifest.save()
    assert not rp.manifest.is_committed(0)
    entry = rp.apply_epoch(0, os.path.join(fixture_dir, "binlog", "epoch=0"))
    assert rp.manifest.is_committed(0)
    for k in ("routes", "parts", "min_lsn", "max_lsn", "rows", "processed",
              "dir"):
        assert entry[k] == saved[k], k
    assert [o for o in rp.manifest.state["schema_ops"]
            if o["epoch"] == 0] == ops0


def test_duplicate_delivery_is_idempotent(ray_session, fixture_dir, tmp_path):
    """Feeding epoch 1's files twice (as two epochs) must not change state:
    LWW by (doc_id, lsn) absorbs duplicates."""
    cfg = ReplayConfig(num_partitions=8)
    rp = replay_all(str(tmp_path / "a"), fixture_dir, cfg)
    want = sorted(rp.read_state().take_all(), key=lambda r: r["doc_id"])

    rp2 = Replayer(str(tmp_path / "b"), cfg, base_path=os.path.join(fixture_dir, "base"))
    for e in range(N_EPOCHS):
        rp2.apply_epoch(e, os.path.join(fixture_dir, "binlog", f"epoch={e}"))
    rp2.apply_epoch(99, os.path.join(fixture_dir, "binlog", "epoch=1"))  # dup delivery
    got = sorted(rp2.read_state().take_all(), key=lambda r: r["doc_id"])
    rows_equal(got, [dict(r) for r in want])


def test_compaction_equivalence(ray_session, fixture_dir, tmp_path):
    """compact after epoch 0 + replay rest == full replay (incl. local-id
    allocator continuity via manifest offsets)."""
    cfg = ReplayConfig(num_partitions=8)
    rp_full = replay_all(str(tmp_path / "full"), fixture_dir, cfg)
    want = sorted(rp_full.read_state().take_all(), key=lambda r: r["doc_id"])

    root = str(tmp_path / "c")
    rp = Replayer(root, cfg, base_path=os.path.join(fixture_dir, "base"))
    rp.apply_epoch(0, os.path.join(fixture_dir, "binlog", "epoch=0"))
    rp.compact()
    for e in range(1, N_EPOCHS):
        rp.apply_epoch(e, os.path.join(fixture_dir, "binlog", f"epoch={e}"))
    got = sorted(rp.read_state().take_all(), key=lambda r: r["doc_id"])
    rows_equal(got, [dict(r) for r in want])


def test_schema_evolution_applied(ray_session, fixture_dir, tmp_path):
    cfg = ReplayConfig(num_partitions=8)
    rp = replay_all(str(tmp_path / "t"), fixture_dir, cfg)
    o = oracle_final(fixture_dir, cfg)
    eng_schema = rp.read_state().schema().names
    assert eng_schema == o["schema"]


def test_deadletter_and_audit_sinks(ray_session, fixture_dir, tmp_path):
    cfg = ReplayConfig(num_partitions=8)
    rp = replay_all(str(tmp_path / "t"), fixture_dir, cfg)
    o = oracle_final(fixture_dir, cfg)
    dead = 0
    for e in range(N_EPOCHS):
        ds = rp.deadletter_dataset(e)
        if ds is not None:
            dead += ds.count()
    assert dead == o["metrics"].get("deadletter", 0)
    audit = rp.audit_dataset(0)
    assert audit.count() == rp.manifest.epoch_entry(0)["processed"]
    # M16 fuzzy-audit parity: ratio + jaccard + both titles present
    assert set(audit.schema().names) >= {
        "lsn", "route", "status", "op", "ratio", "jaccard", "title", "match_title"
    }
    from marc_data_migration_ray.functions import fuzzy

    rows = [r for r in audit.take_all() if r["route"] == "fuzzy"]
    assert rows, "fixture must produce fuzzy-routed events"
    for r in rows:
        # content-driven fixture: the logged ratio IS the title ratio, and
        # jaccard matches the scalar reference kernel (M13/M15/M16)
        assert r["ratio"] == fuzzy.token_sort_ratio(r["title"], r["match_title"])
        assert r["jaccard"] == fuzzy.jaccard(r["title"], r["match_title"])


def test_fold_metrics_invariant(ray_session, fixture_dir, tmp_path):
    cfg = ReplayConfig(num_partitions=8)
    rp = replay_all(str(tmp_path / "t"), fixture_dir, cfg)
    o = oracle_final(fixture_dir, cfg)
    fm = rp.fold_metrics()
    assert fm["noop"] == o["metrics"].get("noop", 0)
    assert fm["tombstoned"] == o["metrics"]["tombstoned"]
    assert fm["col_replacements"] == dict(o["metrics"]["col_replacements"])
    assert fm["rows"] == len(o["final"])
    # refined routes match the oracle's post-fold counters exactly and the
    # reference A1 invariant holds: processed == sum(all routes)
    oracle_routes = {r: c for r, c in o["metrics"].items()
                     if r in ("applied", "fuzzy", "rejected", "local",
                              "deadletter", "schema", "noop") and c}
    assert fm["routes"] == oracle_routes
    processed = sum(e["processed"] for e in
                    (rp.manifest.epoch_entry(i) for i in rp.manifest.committed_epochs()))
    assert processed == sum(fm["routes"].values())


def test_fold_metrics_survive_compaction(ray_session, fixture_dir, tmp_path):
    """Compaction absorbs delta events into the base snapshot; whole-run
    counters persist via the manifest metrics snapshot. Semantics are
    FOLD-TIME (stream-processing) counters, like the reference's as-you-go
    A1/A2 counters: a compaction freezes the judgments already made for the
    absorbed epochs (a later re-insert does not retroactively turn an
    already-counted replacement into a noop). Without compaction this
    equals the retrospective oracle (test_fold_metrics_invariant)."""
    cfg = ReplayConfig(num_partitions=8)
    root = str(tmp_path / "t")
    rp = Replayer(root, cfg, base_path=os.path.join(fixture_dir, "base"))
    rp.apply_epoch(0, os.path.join(fixture_dir, "binlog", "epoch=0"))
    fm0 = rp.fold_metrics()
    rp.compact()
    # no new events: compaction must not change any whole-run counter
    assert rp.fold_metrics() == fm0
    rp.apply_epoch(1, os.path.join(fixture_dir, "binlog", "epoch=1"))
    rp.compact()
    rp.apply_epoch(2, os.path.join(fixture_dir, "binlog", "epoch=2"))
    fm = rp.fold_metrics()
    o = oracle_final(fixture_dir, cfg)
    # state-side numbers are path-independent and match the oracle exactly
    assert fm["rows"] == len(o["final"])
    assert fm["local"] == o["metrics"].get("local", 0)
    # A1 invariant holds across compactions
    processed = sum(e["processed"] for e in
                    (rp.manifest.epoch_entry(i) for i in rp.manifest.committed_epochs()))
    assert processed == sum(fm["routes"].values())
    # counters accumulate (monotone vs the epoch-0-only view)
    for k in ("noop", "tombstoned", "local"):
        assert fm[k] >= fm0[k]
    for c, v in fm0["col_replacements"].items():
        assert fm["col_replacements"][c] >= v
    # a restarted Replayer reads the same snapshot from the manifest
    rp2 = Replayer(root, cfg)
    assert rp2.fold_metrics() == fm


def test_vacuum_reclaims_superseded_snapshots(ray_session, fixture_dir, tmp_path):
    """Every compact() writes a full new base snapshot; vacuum removes the
    superseded ones (and, with retain_audit=False, the below-floor delta
    history) without changing state or whole-run metrics."""
    import glob as _glob

    cfg = ReplayConfig(num_partitions=8)
    root = str(tmp_path / "t")
    rp = Replayer(root, cfg, base_path=os.path.join(fixture_dir, "base"))
    rp.apply_epoch(0, os.path.join(fixture_dir, "binlog", "epoch=0"))
    rp.compact()
    rp.apply_epoch(1, os.path.join(fixture_dir, "binlog", "epoch=1"))
    rp.compact()
    rp.apply_epoch(2, os.path.join(fixture_dir, "binlog", "epoch=2"))
    want = sorted(rp.read_state().take_all(), key=lambda r: r["doc_id"])
    fm = rp.fold_metrics()
    bases = [d for d in _glob.glob(os.path.join(root, "base*")) if os.path.isdir(d)]
    assert len(bases) >= 3  # initial bucketized + 2 compaction snapshots

    # retention window: keep the most recently superseded snapshot so a
    # reader that listed files just before the last compaction still works
    kept = rp.vacuum(retain_snapshots=1)
    left = [d for d in _glob.glob(os.path.join(root, "base*")) if os.path.isdir(d)]
    assert len(left) == 2 and len(kept) == len(bases) - 2
    prev_snap = rp.manifest.state["compactions"][-2]["base_path"] \
        if len(rp.manifest.state["compactions"]) >= 2 \
        else os.path.join(root, "base_bucketized")
    assert os.path.isdir(prev_snap)  # the retained one is the NEWEST superseded

    removed = rp.vacuum()  # no retention: the last superseded base goes too
    assert len(removed) == 1
    left = [d for d in _glob.glob(os.path.join(root, "base*")) if os.path.isdir(d)]
    assert left == [rp.manifest.state["base_bucketized_path"]]
    rows_equal(rp.read_state().take_all(), [dict(r) for r in want])
    assert rp.fold_metrics() == fm
    assert rp.audit_dataset(0).count() > 0  # audit history retained

    rp.vacuum(retain_audit=False)  # below-floor (epochs 0-1) history goes
    assert not os.path.isdir(os.path.join(root, "deltas", "epoch=0"))
    assert os.path.isdir(os.path.join(root, "deltas", "epoch=2"))  # above floor
    rows_equal(rp.read_state().take_all(), [dict(r) for r in want])
    assert rp.fold_metrics() == fm  # metrics snapshot carries the counters
    with pytest.raises(ValueError, match="vacuumed without audit"):
        rp.audit_dataset(0)
    assert rp.audit_dataset(2).count() > 0  # above-floor audit still live


def test_base_path_conflict_and_late_adoption(ray_session, fixture_dir, tmp_path):
    cfg = ReplayConfig(num_partitions=8)
    root = str(tmp_path / "t")
    base = os.path.join(fixture_dir, "base")
    Replayer(root, cfg)  # created without a base
    rp2 = Replayer(root, cfg, base_path=base)  # late adoption persists
    assert rp2.manifest.state["base_path"] == base
    with pytest.raises(ValueError, match="conflicting base_path"):
        Replayer(root, cfg, base_path=str(tmp_path / "other"))


def test_fold_below_compaction_floor_raises(ray_session, fixture_dir, tmp_path):
    cfg = ReplayConfig(num_partitions=8)
    root = str(tmp_path / "t")
    rp = Replayer(root, cfg, base_path=os.path.join(fixture_dir, "base"))
    rp.apply_epoch(0, os.path.join(fixture_dir, "binlog", "epoch=0"))
    rp.apply_epoch(1, os.path.join(fixture_dir, "binlog", "epoch=1"))
    rp.compact(up_to_epoch=1)
    rp.apply_epoch(2, os.path.join(fixture_dir, "binlog", "epoch=2"))
    with pytest.raises(ValueError, match="compaction floor"):
        rp.fold_output(up_to_epoch=0)
    assert rp.read_state(up_to_epoch=2).count() > 0  # at/above floor is fine


def test_unknown_op_routes_to_deadletter(ray_session, tmp_path):
    """An op outside the whitelist deadletters identically in engine+oracle."""
    import pyarrow as pa

    from marc_data_migration_ray.stages.parse import ParseRoute

    cfg = ReplayConfig(num_partitions=4)
    batch = pa.table(
        {
            "lsn": pa.array([1, 2], pa.int64()),
            "epoch": pa.array([0, 0], pa.int32()),
            "op": pa.array(["upsert", "insert"], pa.string()),
            "doc_id": pa.array(["123", "124"], pa.string()),
            "tokens": pa.array([[1], [2]], pa.list_(pa.int32())),
            "n_tok": pa.array([1, 1], pa.int32()),
            "source": pa.array(["s", "s"], pa.string()),
            "column_mask": pa.array([[], []], pa.list_(pa.string())),
            "match_score": pa.array([100, None], pa.int32()),
        }
    )
    out = ParseRoute(cfg)(batch)
    assert out["route"].to_pylist() == ["deadletter", "applied"]
    assert out["status"].to_pylist() == ["malformed", "inserted"]
    evs = [
        {"lsn": 1, "op": "upsert", "doc_id": "123", "tokens": [1], "n_tok": 1,
         "source": "s", "column_mask": [], "match_score": 100},
        {"lsn": 2, "op": "insert", "doc_id": "124", "tokens": [2], "n_tok": 1,
         "source": "s", "column_mask": [], "match_score": None},
    ]
    o = oracle.replay([], evs, cfg)
    assert o["metrics"]["deadletter"] == 1
    assert [r["doc_id"] for r in o["final"]] == ["124"]


def test_compaction_with_schema_ops_then_more_epochs(ray_session, fixture_dir, tmp_path):
    """Schema ops recorded before compaction must still project after it,
    and later epochs' ops stack on top (read-time projection semantics)."""
    cfg = ReplayConfig(num_partitions=8)
    root = str(tmp_path / "t")
    rp = Replayer(root, cfg, base_path=os.path.join(fixture_dir, "base"))
    rp.apply_epoch(0, os.path.join(fixture_dir, "binlog", "epoch=0"))
    rp.compact()
    for e in range(1, N_EPOCHS):
        rp.apply_epoch(e, os.path.join(fixture_dir, "binlog", f"epoch={e}"))
    o = oracle_final(fixture_dir, cfg)
    assert rp.read_state().schema().names == o["schema"]
    rows_equal(rp.read_state().take_all(), o["final"])


def test_double_compaction(ray_session, fixture_dir, tmp_path):
    """Compact twice with epochs in between; local-id offsets accumulate."""
    cfg = ReplayConfig(num_partitions=8)
    root = str(tmp_path / "t")
    rp = Replayer(root, cfg, base_path=os.path.join(fixture_dir, "base"))
    rp.apply_epoch(0, os.path.join(fixture_dir, "binlog", "epoch=0"))
    rp.compact()
    rp.apply_epoch(1, os.path.join(fixture_dir, "binlog", "epoch=1"))
    rp.compact()
    rp.apply_epoch(2, os.path.join(fixture_dir, "binlog", "epoch=2"))
    o = oracle_final(fixture_dir, cfg)
    rows_equal(rp.read_state().take_all(), o["final"])


def test_empty_epoch_advances_checkpoint(ray_session, fixture_dir, tmp_path):
    """Quiet-period epochs (no binlog files) still commit (checkpoint moves)."""
    cfg = ReplayConfig(num_partitions=8)
    root = str(tmp_path / "t")
    rp = Replayer(root, cfg, base_path=os.path.join(fixture_dir, "base"))
    rp.apply_epoch(0, os.path.join(fixture_dir, "binlog", "epoch=0"))
    empty = str(tmp_path / "empty_epoch")
    os.makedirs(empty, exist_ok=True)
    entry = rp.apply_epoch(1, empty)
    assert entry["processed"] == 0
    assert rp.manifest.committed_epochs() == [0, 1]
    rp.apply_epoch(2, os.path.join(fixture_dir, "binlog", "epoch=2"))
    assert rp.read_state().count() > 0


def test_concurrent_publish_race(ray_session, fixture_dir, tmp_path):
    """A losing concurrent writer must fence cleanly on the winner's data."""
    cfg = ReplayConfig(num_partitions=8)
    root = str(tmp_path / "t")
    rp = Replayer(root, cfg, base_path=os.path.join(fixture_dir, "base"))
    rp.apply_epoch(0, os.path.join(fixture_dir, "binlog", "epoch=0"))
    # second replayer (same root) re-applies the committed epoch → fenced
    rp2 = Replayer(root, cfg)
    e1 = rp2.apply_epoch(0, os.path.join(fixture_dir, "binlog", "epoch=0"))
    assert e1 == rp.manifest.epoch_entry(0)


def test_bootstrap_from_empty_table(ray_session, fixture_dir, tmp_path):
    """A table with NO initial base builds purely from the insert stream."""
    cfg = ReplayConfig(num_partitions=8)
    rp = Replayer(str(tmp_path / "t"), cfg)  # no base_path
    for e in range(N_EPOCHS):
        rp.apply_epoch(e, os.path.join(fixture_dir, "binlog", f"epoch={e}"))
    events = []
    for e in range(N_EPOCHS):
        d = os.path.join(fixture_dir, "binlog", f"epoch={e}")
        for f in sorted(os.listdir(d)):
            events += pq.read_table(os.path.join(d, f)).to_pylist()
    o = oracle.replay([], events, cfg)
    rows_equal(rp.read_state().take_all(), o["final"])


def test_delta_segment_compaction(ray_session, fixture_dir, tmp_path):
    """LSM level-1: merging epoch delta FILES into per-partition sorted
    runs preserves state exactly, bounds file count, and survives vacuum
    (audit reads fall back to the segment)."""
    cfg = ReplayConfig(num_partitions=8)
    rp = replay_all(str(tmp_path / "t"), fixture_dir, cfg)
    want = sorted(rp.read_state().take_all(), key=lambda r: r["doc_id"])
    audit_before = rp.audit_dataset(1).count()

    import glob as _glob

    files_before = len(_glob.glob(os.path.join(rp.root, "deltas", "**", "*.parquet"),
                                  recursive=True))
    seg_dir = rp.compact_deltas(0, 1)
    assert rp.compact_deltas(0, 1) == seg_dir  # idempotent
    seg_files = len(_glob.glob(os.path.join(seg_dir, "**", "*.parquet"), recursive=True))
    assert seg_files <= cfg.num_partitions  # one sorted run per partition
    assert seg_files < files_before

    got = sorted(rp.read_state().take_all(), key=lambda r: r["doc_id"])
    rows_equal(got, [dict(r) for r in want])

    # overlapping range refused
    with pytest.raises(ValueError, match="overlaps"):
        rp.compact_deltas(1, 2)

    # vacuum: epoch dirs go away, state + audit still served via segment
    rp.vacuum_deltas()
    assert not os.path.isdir(os.path.join(rp.root, "deltas", "epoch=0"))
    got2 = sorted(rp.read_state().take_all(), key=lambda r: r["doc_id"])
    rows_equal(got2, [dict(r) for r in want])
    assert rp.audit_dataset(1).count() == audit_before
    # mid-segment epoch-ranged read now raises instead of silently lying
    with pytest.raises(ValueError, match="vacuumed"):
        rp.read_state(up_to_epoch=0).count()
    # at/above the segment end is fine
    assert rp.read_state(up_to_epoch=1).count() > 0


def test_compact_deltas_empty_range(ray_session, fixture_dir, tmp_path):
    """Zero-event epochs (no delta files at all) still compact: an empty
    segment is published (regression: the tmp dir was never created, so
    the publish rename crashed) and reads/vacuum behave."""
    cfg = ReplayConfig(num_partitions=8)
    rp = replay_all(str(tmp_path / "t"), fixture_dir, cfg)
    src = os.path.join(fixture_dir, "binlog", "epoch=0")
    schema = pq.read_schema(os.path.join(src, sorted(os.listdir(src))[0]))
    empty_dir = str(tmp_path / "empty_binlog")
    os.makedirs(empty_dir)
    pq.write_table(schema.empty_table(), os.path.join(empty_dir, "part-0.parquet"))
    rp.apply_epoch(N_EPOCHS, empty_dir)
    rp.apply_epoch(N_EPOCHS + 1, empty_dir)
    want = sorted(rp.read_state().take_all(), key=lambda r: r["doc_id"])

    seg = rp.compact_deltas(N_EPOCHS, N_EPOCHS + 1)
    assert os.path.isdir(seg)
    got = sorted(rp.read_state().take_all(), key=lambda r: r["doc_id"])
    rows_equal(got, [dict(r) for r in want])
    rp.vacuum_deltas()
    rows_equal(sorted(rp.read_state().take_all(), key=lambda r: r["doc_id"]),
               [dict(r) for r in want])


def test_auto_segmentation(ray_session, fixture_dir, tmp_path):
    """auto_segment_epochs=2: the oldest 2 epochs merge into a level-1
    segment during ingest; state still equals the oracle."""
    cfg = ReplayConfig(num_partitions=8, auto_segment_epochs=2)
    rp = replay_all(str(tmp_path / "t"), fixture_dir, cfg)
    segs = rp.manifest.delta_segments()
    assert segs and segs[0]["from"] == 0 and segs[0]["to"] == 1
    o = oracle_final(fixture_dir, cfg)
    rows_equal(rp.read_state().take_all(), o["final"])


def test_per_partition_lineage_in_manifest(ray_session, fixture_dir, tmp_path):
    """Epoch entries carry per-partition (rows, applied-lsn) checkpoints."""
    cfg = ReplayConfig(num_partitions=8)
    rp = replay_all(str(tmp_path / "t"), fixture_dir, cfg)
    e0 = rp.manifest.epoch_entry(0)
    assert e0["parts"], "per-partition lineage missing"
    assert sum(p["rows"] for p in e0["parts"].values()) == e0["processed"]
    assert max(p["max_lsn"] for p in e0["parts"].values()) == e0["max_lsn"]


def test_duplicate_delta_file_absorbed(ray_session, fixture_dir, tmp_path):
    """A retried Ray write task can leave a duplicate data file behind; the
    fold's lsn-dedup absorbs bit-identical duplicates, so state is
    unchanged (exactly-once under task re-execution)."""
    import glob as _glob

    cfg = ReplayConfig(num_partitions=8)
    rp = replay_all(str(tmp_path / "t"), fixture_dir, cfg)
    want = sorted(rp.read_state().take_all(), key=lambda r: r["doc_id"])
    f = _glob.glob(os.path.join(rp.root, "deltas", "epoch=0", "part_p=*", "*.parquet"))[0]
    shutil.copy(f, f.replace(".parquet", "-retry-dup.parquet"))
    got = sorted(rp.read_state().take_all(), key=lambda r: r["doc_id"])
    rows_equal(got, [dict(r) for r in want])


def test_changes_between_matches_oracle_diff(ray_session, fixture_dir, tmp_path):
    """Change-data feed: changes_between(0, 2) equals the diff of the
    oracle's replayed states at epoch 0 and epoch 2."""
    cfg = ReplayConfig(num_partitions=8)
    rp = replay_all(str(tmp_path / "t"), fixture_dir, cfg)

    sa = {r["doc_id"]: r for r in oracle_final(fixture_dir, cfg, n_epochs=1)["final"]}
    sb = {r["doc_id"]: r for r in oracle_final(fixture_dir, cfg, n_epochs=3)["final"]}
    want = {}
    for d in set(sa) | set(sb):
        if d not in sa:
            want[d] = ("insert", None, sb[d]["last_lsn"])
        elif d not in sb:
            want[d] = ("delete", sa[d]["last_lsn"], None)
        elif sa[d]["last_lsn"] != sb[d]["last_lsn"]:
            want[d] = ("update", sa[d]["last_lsn"], sb[d]["last_lsn"])

    got = {r["doc_id"]: (r["change"], r["last_lsn_before"], r["last_lsn_after"])
           for r in rp.changes_between(0, 2).take_all()}
    assert got == want
    # after-image scalars match the to-state for non-deletes
    for r in rp.changes_between(0, 2).take_all():
        if r["change"] != "delete":
            assert r["n_tok_after"] == sb[r["doc_id"]]["n_tok"], r["doc_id"]

    with pytest.raises(ValueError, match="committed"):
        rp.changes_between(0, 99)
    with pytest.raises(ValueError, match="from_epoch"):
        rp.changes_between(2, 1)


def test_fold_output_is_the_row_schema(ray_session, tmp_path):
    """``fold_output()`` carries exactly the fold's row columns (no
    ``_kind``, ``metrics_json`` or ``lsn``) and, on a table with no DDL to
    apply, the rows ``read_state()`` returns."""
    import pyarrow as pa
    import ray

    from marc_data_migration_ray.stages.fold import ROW_SCHEMA

    fx = str(tmp_path / "fx")
    fixtures.write_fixture(fx, n_rows=120, n_events=600, n_epochs=2, seed=3,
                           schema_change_frac=0.0)
    rp = Replayer(str(tmp_path / "t"), ReplayConfig(num_partitions=4),
                  base_path=os.path.join(fx, "base"))
    for e in range(2):
        rp.apply_epoch(e, os.path.join(fx, "binlog", f"epoch={e}"))
    assert not rp.manifest.state["schema_ops"]

    def _table(ds):
        return pa.concat_tables(ray.get(ds.to_arrow_refs())).sort_by("doc_id")

    out = rp.fold_output()
    assert out.schema().names == ROW_SCHEMA.names
    state = _table(rp.read_state())
    assert state.num_rows > 0
    assert _table(out).select(state.column_names).to_pylist() \
        == state.to_pylist()
