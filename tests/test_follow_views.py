"""`follow --refresh-view`: heterogeneous materialized views (agg /
postings / scalar-index) kept fresh during streaming ingest — type is
read from each view's META.json `kind` (views.open_view), first refresh
is a full build, later epochs refresh incrementally, and final contents
equal fresh rebuilds at the head epoch.
"""

import json
import os
import subprocess
import sys

import pytest

from marc_data_migration_ray.config import ReplayConfig
from marc_data_migration_ray.pipelines.replay import Replayer
from marc_data_migration_ray.pipelines.views import (
    AggView,
    MinHashIndexView,
    PostingsView,
    ScalarIndexView,
    open_view,
)
from marc_data_migration_ray.sources import fixtures

N_EPOCHS = 3


def test_follow_refresh_views(ray_session, tmp_path):
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    fix = str(tmp_path / "fix")
    # no DDL so the scalar index's physical column stays the public name
    fixtures.write_fixture(fix, n_rows=80, n_events=500, n_epochs=N_EPOCHS,
                           seed=23, schema_change_frac=0.0)
    table = str(tmp_path / "t")
    cfg = ReplayConfig(num_partitions=4)

    # register the three views (META only — no refresh yet); the follow
    # subprocess reconstructs each from its kind tag
    rp0 = Replayer(table, cfg, base_path=os.path.join(fix, "base"))
    roots = {
        "agg": str(tmp_path / "v_agg"),
        "postings": str(tmp_path / "v_post"),
        "sidx": str(tmp_path / "v_sidx"),
        "mh": str(tmp_path / "v_mh"),
    }
    AggView(roots["agg"], rp0, keys=("source",), sums=("n_tok",))
    PostingsView(roots["postings"], rp0, n_buckets=8)
    ScalarIndexView(roots["sidx"], rp0, column="n_tok", bin_width=8)
    MinHashIndexView(roots["mh"], rp0, n_buckets=8)

    r = subprocess.run(
        [sys.executable, "-m", "marc_data_migration_ray", "follow",
         "--table", table, "--binlog-root", os.path.join(fix, "binlog"),
         "--base", os.path.join(fix, "base"), "--num-partitions", "4",
         "--until-epoch", str(N_EPOCHS - 1), "--poll", "0.1",
         "--refresh-view", roots["agg"],
         "--refresh-view", roots["postings"],
         "--refresh-view", roots["sidx"],
         "--refresh-view", roots["mh"]],
        capture_output=True, text=True, env=env, cwd="/root/repo", timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    lines = [json.loads(x) for x in r.stdout.strip().splitlines()]
    applied = [x for x in lines if "applied_epoch" in x]
    assert [x["applied_epoch"] for x in applied] == list(range(N_EPOCHS))
    for i, x in enumerate(applied):
        modes = {root: x["views"][root]["mode"] for root in roots.values()}
        want = "full" if i == 0 else "incremental"
        assert set(modes.values()) == {want}, (i, modes)

    # final view contents == fresh rebuilds at the head epoch
    rp = Replayer(table, cfg)
    for name, root in roots.items():
        v = open_view(root, rp)
        assert v.last_epoch() == N_EPOCHS - 1
        fresh = {
            "agg": lambda: AggView(str(tmp_path / "f_agg"), rp,
                                   keys=("source",), sums=("n_tok",)),
            "postings": lambda: PostingsView(str(tmp_path / "f_post"), rp,
                                             n_buckets=8),
            "sidx": lambda: ScalarIndexView(str(tmp_path / "f_sidx"), rp,
                                            column="n_tok", bin_width=8),
            "mh": lambda: MinHashIndexView(str(tmp_path / "f_mh"), rp,
                                           n_buckets=8),
        }[name]()
        fresh.refresh()
        assert v.read().equals(fresh.read()), name


def test_open_view_errors(ray_session, tmp_path):
    fix = str(tmp_path / "fix")
    fixtures.write_fixture(fix, n_rows=30, n_events=60, n_epochs=1, seed=3)
    rp = Replayer(str(tmp_path / "t"), ReplayConfig(num_partitions=2),
                  base_path=os.path.join(fix, "base"))
    with pytest.raises(ValueError, match="META"):
        open_view(str(tmp_path / "nope"), rp)
    bad = str(tmp_path / "bad")
    os.makedirs(bad)
    with open(os.path.join(bad, "META.json"), "w") as f:
        f.write(json.dumps({"kind": "wat"}))
    with pytest.raises(ValueError, match="unknown view kind"):
        open_view(bad, rp)


#: kind → (class, args of a new view, an explicit arg that mismatches them)
_KINDS = {
    "agg": (AggView, {"keys": ("status",), "sums": ("last_lsn",)},
            {"keys": ("source",)}),
    "postings": (PostingsView, {"n_buckets": 4}, {"n_buckets": 8}),
    "scalar_index": (ScalarIndexView, {"column": "n_tok", "bin_width": 4},
                     {"bin_width": 8}),
    "minhash_index": (MinHashIndexView, {"n_buckets": 4}, {"n_buckets": 8}),
}


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_open_view_protocol(ray_session, tmp_path, kind):
    """Every kind shares one protocol: an unrefreshed view refuses to
    read, ``open_view`` rebuilds the same class with the same META from
    its kind tag, omitted args adopt the stored META and an explicit
    mismatched arg raises."""
    cls, args, mismatch = _KINDS[kind]
    fix = str(tmp_path / "fix")
    fixtures.write_fixture(fix, n_rows=30, n_events=60, n_epochs=1, seed=3)
    rp = Replayer(str(tmp_path / "t"), ReplayConfig(num_partitions=2),
                  base_path=os.path.join(fix, "base"))
    root = str(tmp_path / "v")
    v = cls(root, rp, **args)
    assert v.meta["kind"] == kind and v.last_epoch() is None
    with open(os.path.join(root, "META.json")) as f:
        assert json.load(f) == v.meta
    with pytest.raises(ValueError, match="never refreshed"):
        v.read()
    reopened = open_view(root, rp)
    assert type(reopened) is cls and reopened.meta == v.meta
    assert cls(root, rp).meta == v.meta  # omitted args → META wins
    assert cls(root, rp, **args).meta == v.meta  # explicit match reopens
    with pytest.raises(ValueError, match="built with"):
        cls(root, rp, **mismatch)


def test_follow_dedup_gate(ray_session, tmp_path):
    """`follow --dedup-gate-view`: before each epoch applies, its
    insert/update payloads are probed against the MinHash index over
    CURRENT state and verified near-dups are reported — a planted
    epoch-1 update copying doc A's tokens onto doc B must surface
    (B, A, 1.0) in the gate report BEFORE the epoch lands."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    fix = str(tmp_path / "fix")
    fixtures.write_fixture(fix, n_rows=80, n_events=400, n_epochs=1,
                           seed=29, schema_change_frac=0.0)
    table = str(tmp_path / "t")
    cfg = ReplayConfig(num_partitions=4)
    mh_root = str(tmp_path / "v_mh")
    rp0 = Replayer(table, cfg, base_path=os.path.join(fix, "base"))
    MinHashIndexView(mh_root, rp0, n_buckets=8)

    # learn post-epoch-0 state on a SCRATCH table to pick the plant pair
    scratch = Replayer(str(tmp_path / "scratch"), cfg,
                       base_path=os.path.join(fix, "base"))
    scratch.apply_epoch(0, os.path.join(fix, "binlog", "epoch=0"))
    state = {r["doc_id"]: list(r["tokens"] or [])
             for r in scratch.read_state().take_all()}
    busy = [d for d, tk in sorted(state.items()) if len(tk) >= 3]
    a, b = busy[0], busy[1]

    ep0 = os.path.join(fix, "binlog", "epoch=0")
    ref_schema = pq.read_schema(
        os.path.join(ep0, sorted(os.listdir(ep0))[0]))
    row = {
        "lsn": 10_000, "epoch": 1, "op": "update", "doc_id": b,
        "tokens": state[a], "n_tok": len(state[a]), "source": "planted",
        "column_mask": [], "match_score": 100,
        "title": None, "match_title": None, "extra_json": None,
        "schema_kind": None, "schema_name": None, "schema_new_name": None,
    }
    d1 = os.path.join(fix, "binlog", "epoch=1")
    os.makedirs(d1)
    pq.write_table(
        pa.Table.from_pylist([{k: row.get(k) for k in ref_schema.names}],
                             schema=ref_schema),
        os.path.join(d1, "part-0.parquet"))

    rep = str(tmp_path / "gate_report")
    r = subprocess.run(
        [sys.executable, "-m", "marc_data_migration_ray", "follow",
         "--table", table, "--binlog-root", os.path.join(fix, "binlog"),
         "--base", os.path.join(fix, "base"), "--num-partitions", "4",
         "--until-epoch", "1", "--poll", "0.1",
         "--refresh-view", mh_root,
         "--dedup-gate-view", mh_root,
         "--dedup-gate-report", rep],
        capture_output=True, text=True, env=env, cwd="/root/repo",
        timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    lines = [json.loads(x) for x in r.stdout.strip().splitlines()]
    applied = {x["applied_epoch"]: x for x in lines if "applied_epoch" in x}
    assert set(applied) == {0, 1}
    assert "dedup_gate" not in applied[0]  # view unrefreshed before ep 0
    assert applied[1]["dedup_gate"]["pairs"] >= 1
    got = pq.read_table(os.path.join(rep, "epoch=1.parquet")).to_pylist()
    pairs = {(x["incoming_id"], x["dup_of"]): x["jaccard"] for x in got}
    assert pairs.get((b, a)) == 1.0, pairs


def test_aggview_refresh_across_empty_epoch(ray_session, tmp_path):
    """Code-review r5: a refresh range with ZERO change rows (an empty
    committed epoch) must publish a no-change version, not crash on an
    empty Ray aggregate."""
    fix = str(tmp_path / "fix")
    fixtures.write_fixture(fix, n_rows=40, n_events=200, n_epochs=1,
                           seed=9, schema_change_frac=0.0)
    rp = Replayer(str(tmp_path / "t"), ReplayConfig(num_partitions=4),
                  base_path=os.path.join(fix, "base"))
    rp.apply_epoch(0, os.path.join(fix, "binlog", "epoch=0"))
    v = AggView(str(tmp_path / "v"), rp, keys=("source",), sums=("n_tok",))
    r0 = v.refresh()
    want = v.read()
    empty = str(tmp_path / "empty_epoch")
    os.makedirs(empty, exist_ok=True)
    rp.apply_epoch(1, empty)  # committed, no data
    r1 = v.refresh()
    assert r1["mode"] == "incremental" and r1["epoch"] == 1
    assert v.read().equals(want)
    assert r0["rows"] == r1["rows"]


def test_view_detects_epoch_number_reuse_after_rollback(ray_session,
                                                        tmp_path,
                                                        monkeypatch):
    """Code-review r5: rollback + re-ingest can re-commit the SAME epoch
    number with different data; the view must detect it (CURRENT stores
    the epoch's fingerprint) and full-rebuild instead of silently
    serving/maintaining from the stale base. The rebuild targets the
    epoch CURRENT already names, so its publish must not touch the live
    version dir: a publish that fails before the marker swap leaves the
    stale version readable, and vacuum reclaims it once superseded."""
    import pyarrow.parquet as pq

    fix = str(tmp_path / "fix")
    fixtures.write_fixture(fix, n_rows=50, n_events=300, n_epochs=2,
                           seed=21, schema_change_frac=0.0)
    rp = Replayer(str(tmp_path / "t"), ReplayConfig(num_partitions=4),
                  base_path=os.path.join(fix, "base"))
    rp.apply_epoch(0, os.path.join(fix, "binlog", "epoch=0"))
    rp.apply_epoch(1, os.path.join(fix, "binlog", "epoch=1"))
    v = AggView(str(tmp_path / "v"), rp, keys=("source",), sums=("n_tok",))
    v.refresh()
    stale = v.read()
    # rollback epoch 1, re-ingest DIFFERENT data under the same number
    rp.rollback(0)
    alt = str(tmp_path / "alt_epoch1")
    os.makedirs(alt)
    src_files = sorted(os.listdir(os.path.join(fix, "binlog", "epoch=1")))
    t = pq.read_table(os.path.join(fix, "binlog", "epoch=1", src_files[0]))
    pq.write_table(t.slice(0, max(1, t.num_rows // 3)),
                   os.path.join(alt, "part-0.parquet"))
    rp.apply_epoch(1, alt)

    real_rename = os.rename

    def failing_rename(src, dst, *a, **kw):
        if os.path.basename(src).startswith("_tmp_"):
            raise OSError("injected publish failure")
        return real_rename(src, dst, *a, **kw)

    monkeypatch.setattr(os, "rename", failing_rename)
    with pytest.raises(OSError, match="injected"):
        v.refresh()
    monkeypatch.undo()
    assert v.last_epoch() == 1
    assert v.read().equals(stale)  # torn refresh: previous version current

    r = v.refresh()
    assert r["mode"] == "full", r  # number-only check would say noop
    fresh = AggView(str(tmp_path / "v2"), rp,
                    keys=("source",), sums=("n_tok",))
    fresh.refresh()
    assert v.read().equals(fresh.read())
    assert not v.read().equals(stale)
    rep = v.vacuum_versions(retain=0)
    assert rep["removed"] == 1 and rep["kept"] == 1, rep
    cur = json.loads(open(str(tmp_path / "v" / "CURRENT")).read())["dir"]
    assert {d for d in os.listdir(str(tmp_path / "v"))
            if d.startswith(("v", "_tmp_"))} == {cur}
    assert v.read().equals(fresh.read())


def test_wrong_view_class_on_existing_root_raises(ray_session, tmp_path):
    """Code-review r5: opening a root with a different view class must
    raise on the stored kind instead of overwriting the other view."""
    fix = str(tmp_path / "fix")
    fixtures.write_fixture(fix, n_rows=30, n_events=80, n_epochs=1, seed=3)
    rp = Replayer(str(tmp_path / "t"), ReplayConfig(num_partitions=4),
                  base_path=os.path.join(fix, "base"))
    rp.apply_epoch(0, os.path.join(fix, "binlog", "epoch=0"))
    mh_root = str(tmp_path / "v_mh")
    MinHashIndexView(mh_root, rp)
    with pytest.raises(ValueError, match="kind"):
        PostingsView(mh_root, rp)
    with pytest.raises(ValueError, match="kind"):
        AggView(mh_root, rp)
    agg_root = str(tmp_path / "v_agg")
    AggView(agg_root, rp)
    with pytest.raises(ValueError, match="kind"):
        MinHashIndexView(agg_root, rp)


def test_minhash_view_rejects_bad_params_without_poisoning(ray_session,
                                                           tmp_path):
    """Code-review r5: invalid params must raise BEFORE META lands, so
    the root stays reusable."""
    fix = str(tmp_path / "fix")
    fixtures.write_fixture(fix, n_rows=30, n_events=80, n_epochs=1, seed=3)
    rp = Replayer(str(tmp_path / "t"), ReplayConfig(num_partitions=4),
                  base_path=os.path.join(fix, "base"))
    rp.apply_epoch(0, os.path.join(fix, "binlog", "epoch=0"))
    root = str(tmp_path / "v")
    with pytest.raises(ValueError, match="n_bands"):
        MinHashIndexView(root, rp, n_bands=0)
    with pytest.raises(ValueError, match="divide"):
        MinHashIndexView(root, rp, n_bands=7)
    with pytest.raises(ValueError, match="n_buckets"):
        MinHashIndexView(root, rp, n_buckets=0)
    assert not os.path.exists(os.path.join(root, "META.json"))
    MinHashIndexView(root, rp)  # root not poisoned


def test_token_sigs_drop_null_elements_deterministically():
    """Code-review r5: a null ELEMENT inside a token list flipped the
    flat array to float64 and NaN->uint64 is platform-dependent; nulls
    now drop (PostingsView semantics) and signatures equal the
    null-free lists'."""
    import numpy as np
    import pyarrow as pa

    from marc_data_migration_ray.pipelines.dedup import MinHasher
    from marc_data_migration_ray.pipelines.views import _token_sigs_with

    mh = MinHasher()
    with_nulls = pa.array([[1, None, 2, 3, 4], None, [5, 6, None],
                           [None], [7, 8, 9]], pa.list_(pa.int64()))
    clean = pa.array([[1, 2, 3, 4], None, [5, 6], [], [7, 8, 9]],
                     pa.list_(pa.int64()))
    ia, sa = _token_sigs_with(mh, with_nulls)
    ib, sb = _token_sigs_with(mh, clean)
    np.testing.assert_array_equal(ia, ib)
    np.testing.assert_array_equal(sa, sb)
