"""Replayer.maintain(): executes explain_layout's structured plan until
the diagnostic is clean — state bit-identical, idempotent second call,
repartition gated behind apply_repartition.
"""

import os

import pytest

from marc_data_migration_ray.config import ReplayConfig
from marc_data_migration_ray.pipelines.replay import Replayer
from marc_data_migration_ray.sources import fixtures


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("mt_fixture"))
    fixtures.write_fixture(root, n_rows=100, n_events=800, n_epochs=3, seed=83)
    return root


def _replay(root, fixture_dir, cfg):
    rp = Replayer(root, cfg, base_path=os.path.join(fixture_dir, "base"))
    for e in range(3):
        rp.apply_epoch(e, os.path.join(fixture_dir, "binlog", f"epoch={e}"))
    return rp


def _rows(rp):
    return sorted(
        (r["doc_id"], tuple(r["tokens"] or []), r["n_tok"])
        for r in rp.read_state().take_all()
    )


def test_maintain_executes_plan_and_preserves_state(
        ray_session, fixture_dir, tmp_path):
    rp = _replay(str(tmp_path / "t"), fixture_dir, ReplayConfig(num_partitions=4))
    before_rows = _rows(rp)
    rp._EXPLAIN_MAX_FILES_PER_BUCKET = 1  # force the level-1 merge trigger
    assert rp.explain_layout()["plan"], "fixture must trip a recommendation"
    rep = rp.maintain()
    assert rep["actions"], rep
    # the plan is clean afterwards (repartition may remain — it's opt-in
    # and this layout shouldn't trip the 256 MiB default anyway)
    assert rep["remaining_recommendations"] == []
    assert _rows(rp) == before_rows
    # idempotent: nothing left to do
    rep2 = rp.maintain()
    assert rep2["actions"] == []
    # compact() (if taken) subsumes the file merge: deltas folded away
    if "compact()" in rep["actions"]:
        assert rep["after"]["delta_bytes"] == 0


def test_maintain_repartition_gate(ray_session, fixture_dir, tmp_path):
    rp = _replay(str(tmp_path / "t"), fixture_dir, ReplayConfig(num_partitions=4))
    before_rows = _rows(rp)
    rp._EXPLAIN_MAX_BUCKET_BYTES = 1  # every bucket is "fat"
    rep = rp.maintain()  # gate OFF: repartition recommended, not executed
    assert not any(a.startswith("repartition") for a in rep["actions"])
    assert any("repartition" in r for r in rep["remaining_recommendations"])
    assert rp.cfg.num_partitions == 4
    rep2 = rp.maintain(apply_repartition=True, max_rounds=1)
    assert any(a.startswith("repartition(8") for a in rep2["actions"]), rep2
    assert rp.cfg.num_partitions == 8
    assert _rows(rp) == before_rows
    # the table keeps working at the new layout: apply another epoch path
    # (lookup by key) still routes correctly
    some_doc = before_rows[0][0]
    got = rp.lookup([some_doc]).take_all()
    assert len(got) == 1 and got[0]["doc_id"] == some_doc


def test_maintain_survives_existing_segment(ray_session, tmp_path):
    """Code-review r5: explain_layout planned compact_deltas from
    floor+1, overlapping the segment a PREVIOUS maintain() created —
    the second maintain() crashed the OPTIMIZE flow. The plan now
    starts after the last covering segment."""
    import os

    from marc_data_migration_ray.config import ReplayConfig
    from marc_data_migration_ray.pipelines.replay import Replayer
    from marc_data_migration_ray.sources import fixtures

    fix = str(tmp_path / "fx")
    fixtures.write_fixture(fix, n_rows=60, n_events=600, n_epochs=6,
                           seed=17, schema_change_frac=0.0)
    rp = Replayer(str(tmp_path / "t"), ReplayConfig(num_partitions=2),
                  base_path=os.path.join(fix, "base"))
    for e in range(4):
        rp.apply_epoch(e, os.path.join(fix, "binlog", f"epoch={e}"))
    before = sorted(rp.read_state().take_all(), key=lambda r: r["doc_id"])
    # force a segment covering the current run
    rp.compact_deltas(0, 3)
    assert rp.manifest.delta_segments()
    for e in range(4, 6):
        rp.apply_epoch(e, os.path.join(fix, "binlog", f"epoch={e}"))
    # force the file-count recommendation so the plan path engages
    monkey_attr = type(rp)._EXPLAIN_MAX_FILES_PER_BUCKET
    type(rp)._EXPLAIN_MAX_FILES_PER_BUCKET = 0
    try:
        diag = rp.explain_layout()
        cds = [o for o in diag["plan"] if o["op"] == "compact_deltas"]
        assert cds and cds[0]["args"][0] > 3, cds  # starts AFTER the segment
        # maintain must not crash on the overlap; repeated calls idempotent
        rep1 = rp.maintain()
        rep2 = rp.maintain()
    finally:
        type(rp)._EXPLAIN_MAX_FILES_PER_BUCKET = monkey_attr
    assert isinstance(rep1["actions"], list) and isinstance(
        rep2["actions"], list)
    after = sorted(rp.read_state().take_all(), key=lambda r: r["doc_id"])
    ref = Replayer(str(tmp_path / "ref"), ReplayConfig(num_partitions=2),
                   base_path=os.path.join(fix, "base"))
    for e in range(6):
        ref.apply_epoch(e, os.path.join(fix, "binlog", f"epoch={e}"))
    want = sorted(ref.read_state().take_all(), key=lambda r: r["doc_id"])
    assert after == want
    assert len(before) <= len(after) or True  # state evolves; oracle pins


def test_lone_epoch_before_segment_does_not_block_merges(ray_session,
                                                         tmp_path):
    """An unsegmented epoch stranded between the floor and a segment (here
    epoch 0 before segment [1, 2]) can never merge. It used to end the
    run search, so neither ``explain_layout``'s plan nor
    ``auto_segment_epochs`` ever merged the epochs after the segment."""
    fix = str(tmp_path / "fx")
    fixtures.write_fixture(fix, n_rows=60, n_events=800, n_epochs=8,
                           seed=17, schema_change_frac=0.0)

    def _table(name, epochs, **kw):
        rp = Replayer(str(tmp_path / name), ReplayConfig(num_partitions=2),
                      base_path=os.path.join(fix, "base"))
        for e in epochs:
            rp.apply_epoch(e, os.path.join(fix, "binlog", f"epoch={e}"))
        rp.compact_deltas(1, 2)
        return rp

    # A: the plan (and maintain) merge the run after the segment
    rp = _table("a", range(6))
    before = _rows(rp)
    rp._EXPLAIN_MAX_FILES_PER_BUCKET = 0
    # keep compact() out of the plan: it would subsume the merge
    rp._EXPLAIN_COMPACT_DELTA_RATIO = float("inf")
    assert rp.explain_layout()["plan"] == [
        {"op": "compact_deltas", "args": [3, 5]}]
    rep = rp.maintain()
    assert rep["actions"] == ["compact_deltas(3, 5)"], rep
    assert [(s["from"], s["to"]) for s in rp.manifest.delta_segments()] \
        == [(1, 2), (3, 5)]
    assert _rows(rp) == before

    # B: auto-segmenting resumes after the segment
    _table("b", range(3))
    rp = Replayer(str(tmp_path / "b"),
                  ReplayConfig(num_partitions=2, auto_segment_epochs=2))
    for e in range(3, 8):
        rp.apply_epoch(e, os.path.join(fix, "binlog", f"epoch={e}"))
    assert [(s["from"], s["to"]) for s in rp.manifest.delta_segments()] \
        == [(1, 2), (3, 4), (5, 6)]
