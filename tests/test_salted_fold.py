"""Cross-partition hot-key salting (north-star "salted sub-partitions").

A one-key-dominates fixture replays through the salted two-stage fold and
must produce byte-identical state AND metrics to the unsalted path and the
pure-Python oracle, while the hot key's payload rows actually spread
across the physical sub-buckets (bounding per-task payload work).
"""

import glob
import os

import pyarrow.parquet as pq
import pytest

from marc_data_migration_ray import oracle
from marc_data_migration_ray.config import ReplayConfig
from marc_data_migration_ray.pipelines.replay import Replayer
from marc_data_migration_ray.sources import fixtures

N_EPOCHS = 2


@pytest.fixture(scope="module")
def skew_fixture(tmp_path_factory):
    """ONE pathological key receives ~70% of all events."""
    root = str(tmp_path_factory.mktemp("skew_fixture"))
    fixtures.write_fixture(
        root, n_rows=80, n_events=3000, n_epochs=N_EPOCHS, seed=77,
        hot_keys=1, hot_frac=0.7,
    )
    return root


def _oracle_rows(fixture_dir, cfg):
    base = pq.read_table(os.path.join(fixture_dir, "base")).to_pylist()
    events = []
    for e in range(N_EPOCHS):
        d = os.path.join(fixture_dir, "binlog", f"epoch={e}")
        for f in sorted(os.listdir(d)):
            events += pq.read_table(os.path.join(d, f)).to_pylist()
    return oracle.replay(base, events, cfg)


def _replay(root, fixture_dir, cfg):
    rp = Replayer(root, cfg, base_path=os.path.join(fixture_dir, "base"))
    for e in range(N_EPOCHS):
        rp.apply_epoch(e, os.path.join(fixture_dir, "binlog", f"epoch={e}"))
    return rp


def _norm(rows):
    return sorted(
        (
            {k: (list(v) if k == "tokens" and v is not None else v) for k, v in r.items()}
            for r in rows
        ),
        key=lambda r: r["doc_id"],
    )


def test_salted_state_matches_oracle_and_unsalted(ray_session, skew_fixture, tmp_path):
    cfg_salted = ReplayConfig(num_partitions=4, num_salts=4)
    cfg_plain = ReplayConfig(num_partitions=4)
    rp_s = _replay(str(tmp_path / "s"), skew_fixture, cfg_salted)
    rp_p = _replay(str(tmp_path / "p"), skew_fixture, cfg_plain)
    o = _oracle_rows(skew_fixture, cfg_plain)

    got_s = _norm(rp_s.read_state().take_all())
    got_p = _norm(rp_p.read_state().take_all())
    want = _norm([dict(r) for r in o["final"]])
    assert got_s == want
    assert got_p == want

    # metrics parity: salted merge recomputes noop/col counts exactly
    fm_s, fm_p = rp_s.fold_metrics(), rp_p.fold_metrics()
    for k in ("noop", "tombstoned", "local", "rows", "col_replacements", "routes"):
        assert fm_s[k] == fm_p[k], k


def test_hot_key_payload_spreads_across_salts(ray_session, skew_fixture, tmp_path):
    cfg = ReplayConfig(num_partitions=4, num_salts=4)
    rp = _replay(str(tmp_path / "t"), skew_fixture, cfg)
    # every logical partition's events must occupy > 1 physical sub-bucket,
    # and no single sub-bucket of the hot partition may hold ~all its rows
    counts: dict[int, dict[int, int]] = {}
    for e in range(N_EPOCHS):
        d = os.path.join(rp.root, "deltas", f"epoch={e}")
        for pd_ in glob.glob(os.path.join(d, "part_p=*")):
            phys = int(pd_.rsplit("part_p=", 1)[1])
            n = sum(
                pq.read_metadata(f).num_rows
                for f in glob.glob(os.path.join(pd_, "*.parquet"))
            )
            counts.setdefault(phys // 4, {})[phys % 4] = (
                counts.get(phys // 4, {}).get(phys % 4, 0) + n
            )
    hot_part = max(counts, key=lambda p: sum(counts[p].values()))
    spread = counts[hot_part]
    total = sum(spread.values())
    assert len(spread) == 4, spread  # all 4 sub-buckets used
    assert max(spread.values()) < 0.5 * total, spread  # no sub-bucket dominates


def test_salted_compaction_and_resume(ray_session, skew_fixture, tmp_path):
    cfg = ReplayConfig(num_partitions=4, num_salts=4)
    root = str(tmp_path / "t")
    rp = Replayer(root, cfg, base_path=os.path.join(skew_fixture, "base"))
    rp.apply_epoch(0, os.path.join(skew_fixture, "binlog", "epoch=0"))
    rp.compact()
    rp.apply_epoch(1, os.path.join(skew_fixture, "binlog", "epoch=1"))
    o = _oracle_rows(skew_fixture, cfg)
    assert _norm(rp.read_state().take_all()) == _norm([dict(r) for r in o["final"]])
    # salt layout is immutable per table
    with pytest.raises(ValueError, match="salt layout"):
        Replayer(root, ReplayConfig(num_partitions=4, num_salts=2))


def test_salted_lineage_with_stale_mask_update():
    """A gate-passed update whose post-rename STALE mask writes no column
    still carries row lineage (last_lsn/status); the salted stage-1 must
    forward it even though it is no column's winner."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from marc_data_migration_ray.stages.fold import (
        fold_bucket,
        fold_salted_merge,
        fold_salted_stage1,
    )
    from marc_data_migration_ray.stages.parse import ParseRoute

    cfg = ReplayConfig(num_partitions=1)
    n = 4
    binlog = pa.table(
        {
            "lsn": pa.array([1, 2, 3, 4], pa.int64()),
            "epoch": pa.array([0] * n, pa.int32()),
            "op": pa.array(["insert", "schema_change", "update", "update"]),
            "doc_id": pa.array(["100", None, "100", "100"]),
            "tokens": pa.array([[1], None, [2], [3]], pa.list_(pa.int32())),
            "n_tok": pa.array([1, None, 1, 1], pa.int32()),
            "source": pa.array(["a", None, "b", "c"]),
            "column_mask": pa.array(
                [[], [], ["tok_count"], ["n_tok"]], pa.list_(pa.string())
            ),
            "match_score": pa.array([0, 0, 100, 100], pa.int32()),
            "schema_kind": pa.array([None, "rename_column", None, None]),
            "schema_name": pa.array([None, "n_tok", None, None]),
            "schema_new_name": pa.array([None, "tok_count", None, None]),
        }
    )
    parsed = ParseRoute(cfg)(binlog)
    ops = [{"lsn": 2, "kind": "rename_column", "name": "n_tok", "new_name": "tok_count"}]
    # direct fold (reference behavior)
    direct = fold_bucket(parsed, cfg, schema_ops=ops)
    drow = direct.filter(pc.equal(direct["_kind"], "row")).to_pylist()[0]
    # lsn 3 wrote n_tok (via post-rename name); lsn 4's stale mask wrote
    # nothing but IS the lineage event
    assert drow["n_tok"] == 1 and drow["last_lsn"] == 4

    # salted: split events across 2 sub-buckets by lsn parity
    even = parsed.filter(pc.equal(pc.bit_wise_and(parsed["lsn"], 1), 0))
    odd = parsed.filter(pc.equal(pc.bit_wise_and(parsed["lsn"], 1), 1))
    summaries = [
        fold_salted_stage1(even, cfg, ops),
        fold_salted_stage1(odd, cfg, ops),
    ]
    merged, _ = fold_salted_merge(pa.concat_tables(summaries), cfg,
                                  schema_ops=ops)
    srow = merged.to_pylist()[0]
    for k in ("doc_id", "tokens", "n_tok", "source", "last_lsn", "status"):
        assert srow[k] == drow[k], (k, srow[k], drow[k])


def test_segment_straddling_compaction_floor(ray_session, skew_fixture, tmp_path):
    """A delta segment covering epochs below AND above the compaction floor
    must NOT be used for reads (its below-floor events are already folded
    into the base); reads fall back to the per-epoch dirs."""
    cfg = ReplayConfig(num_partitions=4)
    root = str(tmp_path / "t")
    rp = Replayer(root, cfg, base_path=os.path.join(skew_fixture, "base"))
    for e in range(N_EPOCHS):
        rp.apply_epoch(e, os.path.join(skew_fixture, "binlog", f"epoch={e}"))
    want = sorted(rp.read_state().take_all(), key=lambda r: r["doc_id"])

    rp.compact_deltas(0, 1)      # segment [0,1]
    rp.compact(up_to_epoch=0)    # floor = 0 → segment straddles it
    got = sorted(rp.read_state().take_all(), key=lambda r: r["doc_id"])
    assert [r["doc_id"] for r in got] == [r["doc_id"] for r in want]
    for a, b in zip(got, want):
        assert a["last_lsn"] == b["last_lsn"] and a["n_tok"] == b["n_tok"], a["doc_id"]

    # change feed works identically through the salted two-stage fold
    ch = rp.changes_between(0, 1).take_all()
    assert ch and all(r["change"] in ("insert", "update", "delete") for r in ch)

    # vacuum_deltas must NOT drop the above-floor epochs of a straddling
    # segment: reads exclude such segments, so the per-epoch dir is the
    # only live copy (regression: data loss -> insert-only state)
    rp.vacuum_deltas()
    assert os.path.isdir(os.path.join(root, "deltas", "epoch=1"))
    after = sorted(rp.read_state().take_all(), key=lambda r: r["doc_id"])
    assert [r["doc_id"] for r in after] == [r["doc_id"] for r in want]
    for a, b in zip(after, want):
        assert a["last_lsn"] == b["last_lsn"], a["doc_id"]
