"""Point lookup (partition-pruned fold) + incrementally-maintained
materialized view (change-feed driven) tests."""

import os

import pytest

from marc_data_migration_ray.config import ReplayConfig
from marc_data_migration_ray.pipelines.replay import Replayer
from marc_data_migration_ray.pipelines.views import SourceCountsView
from marc_data_migration_ray.sources import fixtures

N_EPOCHS = 3


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("vl_fixture"))
    fixtures.write_fixture(root, n_rows=200, n_events=1200, n_epochs=N_EPOCHS, seed=77)
    return root


def _replay(root, fixture_dir, cfg, epochs=N_EPOCHS):
    rp = Replayer(root, cfg, base_path=os.path.join(fixture_dir, "base"))
    for e in range(epochs):
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


@pytest.mark.parametrize("num_salts", [1, 2])
def test_lookup_matches_read_state(ray_session, fixture_dir, tmp_path, num_salts):
    cfg = ReplayConfig(num_partitions=8, num_salts=num_salts)
    rp = _replay(str(tmp_path / f"t{num_salts}"), fixture_dir, cfg)
    state = {r["doc_id"]: r for r in rp.read_state().take_all()}
    ids = sorted(state)
    # hashed keys from several partitions + any allocator-assigned local id
    picks = ids[::37][:6]
    local = [d for d in ids if d.startswith(cfg.local_id_prefix + "-")][:2]
    missing = ["no-such-key", "also-missing"]
    got = _norm(rp.lookup(picks + local + missing).take_all())
    want = _norm([state[d] for d in picks + local])
    assert got == want
    # lookup folded only the needed partitions, not all of them
    needed = rp._fold_part_refs(only_parts=None)
    assert len(rp._fold_part_refs(only_parts={0})) < len(needed)
    # all-missing lookup returns an empty dataset, not an error
    assert rp.lookup(missing).count() == 0


def test_lookup_respects_up_to_epoch(ray_session, fixture_dir, tmp_path):
    cfg = ReplayConfig(num_partitions=8)
    rp = _replay(str(tmp_path / "te"), fixture_dir, cfg)
    old = {r["doc_id"]: r for r in rp.read_state(up_to_epoch=0).take_all()}
    pick = sorted(old)[5]
    got = rp.lookup([pick], up_to_epoch=0).take_all()
    assert len(got) == 1 and got[0]["last_lsn"] == old[pick]["last_lsn"]
    # tagged lookup resolves to the same cut; tag+epoch together rejected
    rp.tag("v0", epoch=0)
    tagged = rp.lookup([pick], tag="v0").take_all()
    assert tagged == got
    with pytest.raises(ValueError, match="exclusive"):
        rp.lookup([pick], up_to_epoch=0, tag="v0")


def _full_view(rp, root, epoch):
    v = SourceCountsView(root, rp)
    r = v.refresh(to_epoch=epoch)
    assert r["mode"] == "full"
    return v.read().to_pylist()


def test_view_incremental_equals_full(ray_session, fixture_dir, tmp_path):
    cfg = ReplayConfig(num_partitions=8)
    rp = Replayer(str(tmp_path / "t"), cfg,
                  base_path=os.path.join(fixture_dir, "base"))
    rp.apply_epoch(0, os.path.join(fixture_dir, "binlog", "epoch=0"))

    v = SourceCountsView(str(tmp_path / "view"), rp)
    r0 = v.refresh()
    assert r0 == {"epoch": 0, "mode": "full", "rows": r0["rows"]}

    for e in (1, 2):
        rp.apply_epoch(e, os.path.join(fixture_dir, "binlog", f"epoch={e}"))
    r2 = v.refresh()
    assert r2["mode"] == "incremental" and r2["epoch"] == 2
    # the incrementally-maintained aggregate equals a from-scratch build
    want = _full_view(rp, str(tmp_path / "view_scratch"), 2)
    assert v.read().to_pylist() == want
    # invariants: totals match the actual state
    state = rp.read_state().take_all()
    assert sum(r["n_rows"] for r in want) == len(state)
    assert sum(r["n_tok_sum"] for r in want) == sum(r["n_tok"] or 0 for r in state)

    # idempotent refresh at the same epoch is a no-op
    assert v.refresh()["mode"] == "noop"
    # rollback refresh is refused
    with pytest.raises(ValueError, match="already at epoch"):
        v.refresh(to_epoch=1)


def test_cli_follow_maintains_view(ray_session, fixture_dir, tmp_path):
    """`follow --view-root` refreshes the materialized view after every
    applied epoch (full on the first, incremental after), and the final
    view equals a from-scratch build; `state --up-to-epoch` time-travels."""
    import json
    import subprocess
    import sys

    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    table = str(tmp_path / "t")
    r = subprocess.run(
        [sys.executable, "-m", "marc_data_migration_ray", "follow",
         "--table", table, "--binlog-root", os.path.join(fixture_dir, "binlog"),
         "--base", os.path.join(fixture_dir, "base"), "--num-partitions", "4",
         "--until-epoch", str(N_EPOCHS - 1), "--poll", "0.1",
         "--view-root", str(tmp_path / "view")],
        capture_output=True, text=True, env=env, cwd="/root/repo", timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    lines = [json.loads(x) for x in r.stdout.strip().splitlines()]
    modes = [x["view"]["mode"] for x in lines if "view" in x]
    assert modes == ["full"] + ["incremental"] * (N_EPOCHS - 1)

    cfg = ReplayConfig(num_partitions=4)
    rp = Replayer(table, cfg)
    v = SourceCountsView(str(tmp_path / "view"), rp)
    assert v.last_epoch() == N_EPOCHS - 1
    assert v.read().to_pylist() == _full_view(rp, str(tmp_path / "vs"), N_EPOCHS - 1)

    # state --up-to-epoch: CLI time travel matches the library read
    r2 = subprocess.run(
        [sys.executable, "-m", "marc_data_migration_ray", "state",
         "--table", table, "--num-partitions", "4", "--up-to-epoch", "0",
         "--limit", "1"],
        capture_output=True, text=True, env=env, cwd="/root/repo", timeout=300,
    )
    assert r2.returncode == 0, r2.stderr[-2000:]
    total = json.loads(r2.stdout.strip().splitlines()[-1])["total_rows"]
    assert total == rp.read_state(up_to_epoch=0).count()


def test_view_full_rebuild_after_compaction(ray_session, fixture_dir, tmp_path):
    """Compaction above the view's base epoch forces a full rebuild (the
    incremental base state can no longer be folded) — and the rebuilt
    view still matches a scratch build."""
    cfg = ReplayConfig(num_partitions=8)
    rp = Replayer(str(tmp_path / "t"), cfg,
                  base_path=os.path.join(fixture_dir, "base"))
    rp.apply_epoch(0, os.path.join(fixture_dir, "binlog", "epoch=0"))
    v = SourceCountsView(str(tmp_path / "view"), rp)
    v.refresh()
    for e in (1, 2):
        rp.apply_epoch(e, os.path.join(fixture_dir, "binlog", f"epoch={e}"))
    rp.compact(up_to_epoch=1)
    r = v.refresh()
    assert r["mode"] == "full" and r["epoch"] == 2
    assert v.read().to_pylist() == _full_view(rp, str(tmp_path / "vs"), 2)


def test_export_snapshot_roundtrip_and_idempotence(ray_session, tmp_path, fixture_dir):
    """export_snapshot: partitioned layout, EXPORT.json lineage, re-read ≡
    read_state, and a second export is a no-op returning the same manifest."""
    import json

    import ray.data

    cfg = ReplayConfig(num_partitions=4)
    rp = _replay(str(tmp_path / "t"), fixture_dir, cfg)
    dest = str(tmp_path / "export")
    info = rp.export_snapshot(dest)
    assert os.path.exists(os.path.join(dest, "_EXPORT.json"))
    # one directory per physical partition, never one giant file
    parts = [d for d in os.listdir(dest) if d.startswith("part_p=")]
    assert len(parts) > 1
    want = _norm(rp.read_state().take_all())
    got_ds = ray.data.read_parquet(dest)
    got = _norm([
        {k: v for k, v in r.items() if k != "part_p"}
        for r in got_ds.take_all()
    ])
    assert got == want
    assert info["n_rows"] == len(want)
    assert info["schema"] == rp.read_state().schema().names
    assert info["up_to_epoch"] == N_EPOCHS - 1
    # idempotent: second call returns the stored manifest, no rewrite
    mtime = os.path.getmtime(os.path.join(dest, "_EXPORT.json"))
    info2 = rp.export_snapshot(dest)
    assert info2 == info
    assert os.path.getmtime(os.path.join(dest, "_EXPORT.json")) == mtime
    with open(os.path.join(dest, "_EXPORT.json")) as f:
        assert json.load(f) == info


def test_export_snapshot_time_travel(ray_session, tmp_path, fixture_dir):
    """up_to_epoch export matches read_state(up_to_epoch)."""
    cfg = ReplayConfig(num_partitions=4)
    rp = _replay(str(tmp_path / "t"), fixture_dir, cfg)
    dest = str(tmp_path / "export_e0")
    info = rp.export_snapshot(dest, up_to_epoch=0)
    want = _norm(rp.read_state(up_to_epoch=0).take_all())
    import ray.data

    got = _norm([
        {k: v for k, v in r.items() if k != "part_p"}
        for r in ray.data.read_parquet(dest).take_all()
    ])
    assert got == want and info["epochs"] == [0]


def test_generic_aggview_multi_key_incremental(ray_session, fixture_dir, tmp_path):
    """AggView generalization: GROUP BY (source, status) with two sum
    columns, maintained incrementally — status changes on update move
    rows between groups via the signed before/after deltas."""
    from marc_data_migration_ray.pipelines.views import AggView

    cfg = ReplayConfig(num_partitions=8)
    rp = Replayer(str(tmp_path / "t"), cfg,
                  base_path=os.path.join(fixture_dir, "base"))
    rp.apply_epoch(0, os.path.join(fixture_dir, "binlog", "epoch=0"))

    keys, sums = ("source", "status"), ("n_tok", "last_lsn")
    v = AggView(str(tmp_path / "view"), rp, keys=keys, sums=sums)
    assert v.refresh()["mode"] == "full"
    for e in (1, 2):
        rp.apply_epoch(e, os.path.join(fixture_dir, "binlog", f"epoch={e}"))
    r = v.refresh()
    assert r["mode"] == "incremental" and r["epoch"] == 2

    scratch = AggView(str(tmp_path / "view_scratch"), rp, keys=keys, sums=sums)
    scratch.refresh(to_epoch=2)
    assert v.read().to_pylist() == scratch.read().to_pylist()

    # ground truth from the raw fold output (CANONICAL names — the view's
    # contract; read_state would apply the fixture's DDL renames)
    state = rp.fold_output().take_all()
    want: dict = {}
    for row in state:
        k = (row["source"], row["status"])
        agg = want.setdefault(k, [0, 0, 0])
        agg[0] += 1
        agg[1] += row["n_tok"] or 0
        agg[2] += row["last_lsn"] or 0
    got = {
        (r["source"], r["status"]): [r["n_rows"], r["n_tok_sum"], r["last_lsn_sum"]]
        for r in v.read().to_pylist()
    }
    assert got == want
    # the fixture must actually move rows between status groups across
    # epochs, otherwise the multi-key delta path is untested
    assert len({k[1] for k in want}) > 1

    with pytest.raises(ValueError):
        AggView(str(tmp_path / "bad"), rp, keys=("doc_id",))
    with pytest.raises(ValueError):
        AggView(str(tmp_path / "bad"), rp, keys=("source",), sums=("tokens",))
