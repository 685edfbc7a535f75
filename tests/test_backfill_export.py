"""Backfill-through-the-replay-path and CDC change-feed export."""

import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from marc_data_migration_ray.config import ReplayConfig
from marc_data_migration_ray.pipelines.replay import Replayer
from marc_data_migration_ray.sources import fixtures

N_EPOCHS = 2


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("bf_fixture"))
    fixtures.write_fixture(root, n_rows=150, n_events=1000, n_epochs=N_EPOCHS,
                           seed=13)
    return root


def _replay(root, fixture_dir, cfg, epochs=N_EPOCHS):
    rp = Replayer(root, cfg, base_path=os.path.join(fixture_dir, "base"))
    for e in range(epochs):
        rp.apply_epoch(e, os.path.join(fixture_dir, "binlog", f"epoch={e}"))
    return rp


def _make_append_token():
    """Nested so Ray cloudpickles it BY VALUE (test modules are not
    importable on workers; library users pass functions from their own
    importable modules)."""

    def _append_token(t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(t.select(["doc_id", "tokens", "n_tok"]))
        df = df.with_columns(
            pl.when(pl.col("tokens").is_not_null())
            .then(pl.col("tokens").list.concat(
                pl.lit([999], dtype=pl.List(pl.Int32))))
            .otherwise(pl.col("tokens"))
            .alias("tokens"),
            pl.when(pl.col("n_tok").is_not_null())
            .then(pl.col("n_tok") + 1)
            .otherwise(pl.col("n_tok"))
            .alias("n_tok"),
        )
        a = df.to_arrow()
        return pa.table(
            {
                "doc_id": pc.cast(a["doc_id"], pa.string()),
                "tokens": pc.cast(a["tokens"], pa.list_(pa.int32())),
                "n_tok": pc.cast(a["n_tok"], pa.int32()),
            }
        )

    return _append_token


def test_backfill_rewrites_through_replay_path(ray_session, tmp_path, fixture_dir):
    cfg = ReplayConfig(num_partitions=4)
    rp = _replay(str(tmp_path / "t"), fixture_dir, cfg)
    before = {r["doc_id"]: r for r in rp.read_state().take_all()}
    res = rp.backfill(_make_append_token(), epoch=N_EPOCHS)
    assert res["backfill_events"] > 0
    after = {r["doc_id"]: r for r in rp.read_state().take_all()}
    assert set(after) == set(before)  # no rows appear/disappear
    from marc_data_migration_ray.functions.keys import normalize_keys

    def _eligible(did):
        v = normalize_keys(pa.array([did], pa.string()))[0].as_py()
        return v == did

    n_changed = n_local = 0
    for did, b in before.items():
        a = after[did]
        if not _eligible(did):
            # engine-allocated / non-canonical ids are skipped untouched
            assert list(a["tokens"] or []) == list(b["tokens"] or [])
            n_local += 1
        elif b["tokens"] is not None:
            assert list(a["tokens"]) == list(b["tokens"]) + [999], did
            assert a["n_tok"] == b["n_tok"] + 1
            assert a["last_lsn"] > b["last_lsn"]
            n_changed += 1
        else:
            assert a["tokens"] is None
    assert n_changed > 0
    assert res["backfill_skipped_local"] == n_local
    assert res["backfill_events"] == len(before) - n_local
    # idempotent: re-running the same backfill epoch is a manifest no-op
    res2 = rp.backfill(_make_append_token(), epoch=N_EPOCHS)
    assert rp.manifest.committed_epochs() == [0, 1, N_EPOCHS]
    again = {r["doc_id"]: r for r in rp.read_state().take_all()}
    for did in after:
        assert list(again[did]["tokens"] or []) == list(after[did]["tokens"] or [])
    # time travel below the backfill still shows the original tokens
    old = {r["doc_id"]: r for r in rp.read_state(up_to_epoch=N_EPOCHS - 1).take_all()}
    for did, b in before.items():
        assert list(old[did]["tokens"] or []) == list(b["tokens"] or [])


def test_export_changes_roundtrip_and_idempotence(ray_session, tmp_path, fixture_dir):
    import ray.data

    cfg = ReplayConfig(num_partitions=4)
    rp = _replay(str(tmp_path / "t"), fixture_dir, cfg)
    dest = str(tmp_path / "cdc_out")
    info = rp.export_changes(dest, 0, 1)

    def _norm(rows):
        return sorted((tuple(sorted(r.items())) for r in rows))

    want = rp.changes_between(0, 1).take_all()
    got = ray.data.read_parquet(dest).take_all()
    assert info["n_changes"] == len(want) > 0
    assert _norm(got) == _norm(want)
    assert set(info["counts"]) <= {"insert", "update", "delete"}
    assert sum(info["counts"].values()) == len(want)
    # idempotent second call
    mtime = os.path.getmtime(os.path.join(dest, "_EXPORT.json"))
    assert rp.export_changes(dest, 0, 1) == info
    assert os.path.getmtime(os.path.join(dest, "_EXPORT.json")) == mtime
    with open(os.path.join(dest, "_EXPORT.json")) as f:
        assert json.load(f) == info


def test_clustered_export_zone_map_pruning(ray_session, fixture_dir, tmp_path):
    """One-column clustered export: non-overlapping exact zones;
    scan_export skips whole range dirs and still returns exactly the rows
    a full-scan filter would."""
    from marc_data_migration_ray.pipelines.replay import scan_export

    cfg = ReplayConfig(num_partitions=8)
    rp = _replay(str(tmp_path / "t"), fixture_dir, cfg)
    dest = str(tmp_path / "clustered")
    info = rp.export_snapshot(dest, cluster_by="n_tok", n_ranges=4)

    zones = info["zones"]
    assert info["cluster_by"] == ["n_tok"]
    assert sum(z["n_rows"] for z in zones) == info["n_rows"]
    occupied = [z for z in zones if z["n_tok_min"] is not None]
    for a, b in zip(occupied, occupied[1:]):
        assert a["n_tok_max"] < b["n_tok_min"]  # value-aligned, non-overlapping

    state = rp.read_state().take_all()
    med = sorted(r["n_tok"] for r in state if r["n_tok"] is not None)
    lo, hi = med[len(med) // 3], med[2 * len(med) // 3]

    scan = scan_export(dest, n_tok=(lo, hi))
    got = sorted(
        (r["doc_id"], r["n_tok"]) for r in scan["dataset"].take_all())
    want = sorted(
        (r["doc_id"], r["n_tok"]) for r in state
        if r["n_tok"] is not None and lo <= r["n_tok"] <= hi)
    assert got == want
    assert scan["ranges_scanned"] < scan["ranges_total"]  # pruning bit
    assert scan["rows_skipped"] > 0

    # unbounded scan touches every range and returns the full table
    full = scan_export(dest)
    assert full["ranges_scanned"] == full["ranges_total"]
    assert full["dataset"].count() == len(state)

    # a predicate beyond the max value scans nothing
    top = max(z["n_tok_max"] for z in occupied)
    none = scan_export(dest, n_tok=(top + 1, None))
    assert none["ranges_scanned"] == 0
    assert none["dataset"].count() == 0

    # idempotence: re-export returns the recorded manifest untouched
    again = rp.export_snapshot(dest, cluster_by="n_tok", n_ranges=4)
    assert again == info


def test_zorder_export_pruning_both_columns(ray_session, fixture_dir, tmp_path):
    """Two-column (Z-order) export: the SAME layout prunes for predicates
    on EITHER clustered column; zones are true bounds; the pruned scan
    equals a plain filter over the state; the marker carries the export
    lineage; re-export is a no-op."""
    from marc_data_migration_ray.pipelines.replay import scan_export

    cfg = ReplayConfig(num_partitions=4)
    rp = _replay(str(tmp_path / "t"), fixture_dir, cfg)
    dest = str(tmp_path / "z")
    info = rp.export_snapshot(dest, cluster_by=("n_tok", "last_lsn"),
                              n_ranges=8)
    assert info["cluster_by"] == ["n_tok", "last_lsn"]
    assert len(info["zones"]) >= 2
    assert info["epochs"] == rp.manifest.committed_epochs()
    assert info["ceiling_lsn"] == rp.manifest.ceiling_lsn()
    assert "n_tok" in info["schema"] and info["num_partitions"] == 4

    state = rp.read_state().take_all()

    def plain(pred):
        return sorted(r["doc_id"] for r in state if pred(r))

    # predicate on column A only
    s = scan_export(dest, n_tok=(None, 40))
    got = sorted(r["doc_id"] for r in s["dataset"].take_all())
    assert got == plain(lambda r: r["n_tok"] is not None and r["n_tok"] <= 40)

    # predicate on column B only — 1-D range clustering can't prune this
    lsn_hi = max(r["last_lsn"] for r in state)
    thresh = lsn_hi * 9 // 10
    s = scan_export(dest, last_lsn=(thresh, None))
    got = sorted(r["doc_id"] for r in s["dataset"].take_all())
    assert got == plain(lambda r: r["last_lsn"] >= thresh)
    assert s["ranges_scanned"] < s["ranges_total"]

    # conjunctive predicate on both
    s = scan_export(dest, n_tok=(10, 50), last_lsn=(1, None))
    got = sorted(r["doc_id"] for r in s["dataset"].take_all())
    assert got == plain(
        lambda r: r["n_tok"] is not None and 10 <= r["n_tok"] <= 50
        and r["last_lsn"] >= 1)

    # zones are true bounds: every row respects its directory's zone
    for z in info["zones"]:
        d = os.path.join(dest, f"range_id={z['range_id']}")
        if not os.path.isdir(d):
            continue
        import glob as _g
        t = pa.concat_tables([
            pq.read_table(f, columns=["n_tok", "last_lsn"])
            for f in _g.glob(os.path.join(d, "*.parquet"))])
        for col in ("n_tok", "last_lsn"):
            vals = [v for v in t[col].to_pylist() if v is not None]
            if vals:
                assert z[f"{col}_min"] <= min(vals)
                assert max(vals) <= z[f"{col}_max"]

    # idempotent: second call returns the stored manifest untouched
    info2 = rp.export_snapshot(dest, cluster_by=("n_tok", "last_lsn"))
    assert info2 == info
    # unknown predicate column refused
    with pytest.raises(ValueError, match="not a clustered column"):
        scan_export(dest, source=(0, 1))


def test_unbounded_scan_keeps_all_null_range(ray_session, tmp_path):
    """Code-review r5: scan_export with NO predicate must return rows
    from an all-NULL cluster range instead of silently dropping them."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from marc_data_migration_ray.config import ReplayConfig
    from marc_data_migration_ray.pipelines.replay import (Replayer,
                                                          scan_export)

    base = pa.table({
        "doc_id": pa.array([str(1_000_000 + i) for i in range(12)]),
        "tokens": pa.array([[i] for i in range(12)], pa.list_(pa.int32())),
        # a third of rows have NULL n_tok -> they cluster into range 0
        "n_tok": pa.array([None if i % 3 == 0 else i for i in range(12)],
                          pa.int32()),
        "source": pa.array(["web"] * 12),
    })
    bdir = str(tmp_path / "base")
    os.makedirs(bdir)
    pq.write_table(base, os.path.join(bdir, "part-0.parquet"))
    empty = str(tmp_path / "e0")
    os.makedirs(empty)
    rp = Replayer(str(tmp_path / "t"), ReplayConfig(num_partitions=2),
                  base_path=bdir)
    rp.apply_epoch(0, empty)
    dest = str(tmp_path / "exp")
    rp.export_snapshot(dest, cluster_by="n_tok", n_ranges=3)
    full = scan_export(dest)  # unbounded
    assert full["dataset"].count() == 12  # NULL rows present
    assert full["rows_skipped"] == 0
    # a bounded scan still skips the NULL zone (SQL comparison semantics)
    bounded = scan_export(dest, n_tok=(1, None))
    got = bounded["dataset"].count()
    assert got == 8  # the 4 NULL-n_tok rows never match a range predicate


def _make_tokens_only():
    """Appends one token and returns only ``doc_id, tokens``: the engine
    must derive ``n_tok`` from the new tokens."""

    def _append(t: pa.Table) -> pa.Table:
        toks = [None if v is None else v + [999] for v in t["tokens"].to_pylist()]
        return pa.table({"doc_id": t["doc_id"],
                         "tokens": pa.array(toks, pa.list_(pa.int32()))})

    return _append


def test_backfill_tokens_only_transform_recomputes_n_tok(
        ray_session, tmp_path, fixture_dir):
    """A transform that leaves ``n_tok`` out gets it recomputed, so no
    generated update is deadlettered and every eligible row changes."""
    cfg = ReplayConfig(num_partitions=4)
    rp = _replay(str(tmp_path / "t"), fixture_dir, cfg)
    before = {r["doc_id"]: r for r in rp.read_state().take_all()}
    res = rp.backfill(_make_tokens_only(), epoch=N_EPOCHS)
    assert res["backfill_events"] > 0
    assert res["routes"].get("deadletter", 0) == 0, res["routes"]
    after = {r["doc_id"]: r for r in rp.read_state().take_all()}
    from marc_data_migration_ray.functions.keys import normalize_keys

    eligible = [d for d in before
                if normalize_keys(pa.array([d], pa.string()))[0].as_py() == d]
    assert res["backfill_events"] == len(eligible)
    n_changed = 0
    for did in eligible:
        b, a = before[did], after[did]
        if b["tokens"] is not None:
            assert list(a["tokens"]) == list(b["tokens"]) + [999], did
            assert a["n_tok"] == len(b["tokens"]) + 1, did
            n_changed += 1
    assert n_changed > 0


def _wide_table(tmp_path, n=3000, seed=3):
    """A one-epoch table whose ``n_tok`` spans ~1e9 (so the 1-D bin code
    is coarse), with a few NULLs."""
    import random

    rnd = random.Random(seed)
    vals = [None if i % 97 == 0 else rnd.randrange(0, 1_000_000_000)
            for i in range(n)]
    base = pa.table({
        "doc_id": pa.array([str(1_000_000 + i) for i in range(n)]),
        "tokens": pa.array([[i] for i in range(n)], pa.list_(pa.int32())),
        "n_tok": pa.array(vals, pa.int32()),
        "source": pa.array(["web"] * n),
    })
    bdir = str(tmp_path / "base")
    os.makedirs(bdir)
    pq.write_table(base, os.path.join(bdir, "part-0.parquet"))
    empty = str(tmp_path / "e0")
    os.makedirs(empty)
    rp = Replayer(str(tmp_path / "t"), ReplayConfig(num_partitions=4),
                  base_path=bdir)
    rp.apply_epoch(0, empty)
    return rp, vals


def test_clustered_export_wide_span_bounded_bins(ray_session, tmp_path):
    """A 1-D span far above 2^16 bins coarsely and still splits into at
    most ``n_ranges`` balanced ranges with exact, non-overlapping zones;
    the pruned scan equals a plain filter."""
    import glob as _g

    from marc_data_migration_ray.pipelines.replay import scan_export

    rp, vals = _wide_table(tmp_path)
    dest = str(tmp_path / "exp")
    info = rp.export_snapshot(dest, cluster_by="n_tok", n_ranges=8)
    zones = info["zones"]
    assert 2 <= len(zones) <= 8
    assert sum(z["n_rows"] for z in zones) == len(vals)
    assert sum(z["nulls"] for z in zones) == vals.count(None)
    occupied = [z for z in zones if z["n_tok_min"] is not None]
    for a, b in zip(occupied, occupied[1:]):
        assert a["n_tok_max"] < b["n_tok_min"]
    for z in zones:  # every zone is the exact bound of its directory
        files = _g.glob(os.path.join(dest, f"range_id={z['range_id']}", "*.parquet"))
        got = [v for f in files for v in pq.read_table(f)["n_tok"].to_pylist()]
        assert len(got) == z["n_rows"]
        live = [v for v in got if v is not None]
        assert (min(live) if live else None) == z["n_tok_min"]
        assert (max(live) if live else None) == z["n_tok_max"]
    assert max(z["n_rows"] for z in zones) < len(vals) // 2  # balanced
    live = sorted(v for v in vals if v is not None)
    lo, hi = live[len(live) // 4], live[len(live) // 2]
    scan = scan_export(dest, n_tok=(lo, hi))
    assert sorted(r["n_tok"] for r in scan["dataset"].take_all()) == [
        v for v in live if lo <= v <= hi]
    assert scan["ranges_scanned"] < scan["ranges_total"]


def test_scan_export_refuses_old_zone_format(tmp_path):
    """A marker written before zones carried per-column keys (one
    ``cluster_by`` string, ``min``/``max``) is refused with a re-export
    hint, not misread."""
    from marc_data_migration_ray.pipelines.replay import scan_export

    dest = tmp_path / "old"
    (dest / "range_id=0").mkdir(parents=True)
    (dest / "_EXPORT.json").write_text(json.dumps({
        "up_to_epoch": 0, "n_rows": 1, "cluster_by": "n_tok",
        "zones": [{"range_id": 0, "min": 1, "max": 1, "n_rows": 1, "nulls": 0}],
    }))
    with pytest.raises(ValueError, match="re-export"):
        scan_export(str(dest), n_tok=(0, 5))
    with pytest.raises(ValueError, match="re-export"):
        scan_export(str(dest))


def test_clustered_export_cli_round_trip(ray_session, tmp_path, fixture_dir,
                                         capsys, monkeypatch):
    """``export --cluster-by a,b`` then ``scan-export --col c:lo:hi`` prints
    the same count as a plain filter over the state."""
    import ray

    from marc_data_migration_ray.__main__ import main

    # main() shuts its Ray session down on exit; keep the test session's
    monkeypatch.setattr(ray, "shutdown", lambda: None)

    cfg = ReplayConfig(num_partitions=4)
    table = str(tmp_path / "t")
    rp = _replay(table, fixture_dir, cfg)
    want = sum(1 for r in rp.read_state().take_all()
               if r["n_tok"] is not None and 5 <= r["n_tok"] <= 60)
    dest = str(tmp_path / "exp")
    assert main(["export", "--table", table, "--dest", dest,
                 "--cluster-by", "n_tok,last_lsn"]) == 0
    info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert info["cluster_by"] == ["n_tok", "last_lsn"]
    assert main(["scan-export", "--dest", dest, "--col", "n_tok:5:60"]) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["rows"] == want
    assert res["ranges_total"] == len(info["zones"])
