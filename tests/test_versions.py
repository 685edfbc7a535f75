"""cdc_versions (SCD-2 timeline) consistency: the version row covering a
cut L equals the replayed state at that cut, for several cuts including
the live edge."""

import pyarrow.compute as pc
import pytest

from marc_data_migration_ray import oracle
from marc_data_migration_ray.config import ReplayConfig
from marc_data_migration_ray.pipelines import derived

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def versions(ray_session):
    t = derived.cdc_versions(SF).take_all()
    return t


def _state_at(rows, cut):
    """doc -> (n_tok, source) from the version table at lsn cut."""
    out = {}
    for r in rows:
        lo = r["from_lsn"]
        hi = r["to_lsn"]
        if lo <= cut and (hi is None or cut < hi):
            assert r["doc_id"] not in out, "overlapping versions"
            out[r["doc_id"]] = (r["n_tok"], r["source"])
    return out


def test_live_versions_equal_final_state(ray_session, versions):
    state = {
        r["doc_id"]: (r["n_tok"], r["source"], r["last_lsn"])
        for b in derived.cdc_lww_state(SF).iter_batches(batch_format="pyarrow")
        for r in b.to_pylist()
    }
    live = {r["doc_id"]: (r["n_tok"], r["source"], r["from_lsn"])
            for r in versions if r["to_lsn"] is None}
    assert live == state


def test_versions_cover_every_cut(ray_session, versions):
    """At several lsn cuts the covering version == the Python oracle's
    replay of the prefix (the derived base + the cut-filtered binlog)."""
    cfg = ReplayConfig(num_partitions=8)
    base = derived.build_base_ds(SF).take_all()
    evs = derived.build_binlog_ds(SF).take_all()
    max_lsn = max(r["from_lsn"] for r in versions)
    for cut in [max_lsn // 4, max_lsn // 2, max_lsn]:
        final = oracle.replay(base, [e for e in evs if e["lsn"] <= cut],
                              cfg)["final"]
        state = {r["doc_id"]: (r["n_tok"], r["source"]) for r in final}
        assert _state_at(versions, cut) == state, f"cut={cut}"


def test_version_intervals_are_disjoint_and_ordered(versions):
    by_doc: dict = {}
    for r in versions:
        by_doc.setdefault(r["doc_id"], []).append(r)
    n_multi = 0
    for doc, vs in by_doc.items():
        vs.sort(key=lambda r: r["from_lsn"])
        n_multi += len(vs) > 1
        for a, b in zip(vs, vs[1:]):
            assert a["to_lsn"] is not None and a["to_lsn"] <= b["from_lsn"], doc
        assert sum(v["to_lsn"] is None for v in vs) <= 1, doc
    assert n_multi > 0  # the fixture must exercise multi-version chains


def test_explain_layout_reports_and_recommends(ray_session, tmp_path):
    """explain_layout: metadata-only read-amplification report whose
    recommendations appear when the layout degrades and disappear after
    the recommended maintenance."""
    import os

    from marc_data_migration_ray.config import ReplayConfig
    from marc_data_migration_ray.pipelines.replay import Replayer
    from marc_data_migration_ray.sources import fixtures

    fdir = str(tmp_path / "fx")
    fixtures.write_fixture(fdir, n_rows=120, n_events=900, n_epochs=3, seed=9)
    cfg = ReplayConfig(num_partitions=4)
    rp = Replayer(str(tmp_path / "t"), cfg, base_path=os.path.join(fdir, "base"))
    for e in range(3):
        rp.apply_epoch(e, os.path.join(fdir, "binlog", f"epoch={e}"))
    rep = rp.explain_layout()
    assert rep["num_partitions"] == 4 and rep["active_epochs"] == 3
    assert rep["epoch_dirs_unmerged"] == 3 and rep["segments_used"] == 0
    assert set(rep["per_part"]) == set(range(4))
    assert rep["base_bytes"] > 0 and rep["delta_bytes"] > 0
    assert rep["max_files_per_bucket"] >= 3  # >= one file per epoch dir

    # force the file-amplification recommendation, then clear it
    rp._EXPLAIN_MAX_FILES_PER_BUCKET = 1
    rep2 = rp.explain_layout()
    assert any("compact_deltas" in r for r in rep2["recommendations"]), rep2
    rp.compact_deltas(1, 2)
    rep3 = rp.explain_layout()
    assert rep3["segments_used"] == 1 and rep3["epoch_dirs_unmerged"] == 1
    # full compaction folds deltas away entirely
    rp.compact()
    rep4 = rp.explain_layout()
    assert rep4["delta_bytes"] == 0
    assert not any("compact(" in r for r in rep4["recommendations"])
