"""Randomized table-ops interleaving property test: for many seeds, a
replay with compactions / repartitions / delta segmentation interleaved
at random points must reach exactly the state of a plain one-shot oracle
replay — table maintenance is never allowed to have semantic effect —
and a trailing delete_where must equal an oracle-side predicate filter.
"""

import os
import random

import pyarrow.parquet as pq
import pytest

from marc_data_migration_ray import oracle
from marc_data_migration_ray.config import ReplayConfig
from marc_data_migration_ray.pipelines.replay import Replayer
from marc_data_migration_ray.sources import fixtures

N_EPOCHS = 4


def _events(fixture_dir):
    evs = []
    for e in range(N_EPOCHS):
        d = os.path.join(fixture_dir, "binlog", f"epoch={e}")
        for f in sorted(os.listdir(d)):
            evs += pq.read_table(os.path.join(d, f)).to_pylist()
    return evs


def _rows_equal(eng, oracle_rows):
    eng = sorted(eng, key=lambda r: r["doc_id"])
    oracle_rows = sorted(oracle_rows, key=lambda r: r["doc_id"])
    assert len(eng) == len(oracle_rows)
    for a, b in zip(eng, oracle_rows):
        for k in set(a) | set(b):
            va, vb = a.get(k), b.get(k)
            if k == "tokens":
                va = list(va) if va is not None else None
                vb = list(vb) if vb is not None else None
            assert va == vb, (a.get("doc_id"), k)


@pytest.mark.parametrize("seed", [11, 22, 33, 44, 55])
def test_random_maintenance_interleaving(ray_session, tmp_path, seed):
    rng = random.Random(seed)
    cfg = ReplayConfig(
        num_partitions=rng.choice([3, 5, 8]),
        num_salts=rng.choice([1, 2]),
    )
    fdir = str(tmp_path / "fx")
    fixtures.write_fixture(
        fdir, n_rows=80 + seed, n_events=500 + seed * 3, n_epochs=N_EPOCHS,
        seed=seed, invalid_key_frac=0.0,  # local ids are layout-dependent
    )
    root = str(tmp_path / "t")
    rp = Replayer(root, cfg, base_path=os.path.join(fdir, "base"))
    # incrementally-maintained views ride ALONG the maintenance mix: every
    # epoch refresh must stay equal to ground truth no matter what
    # compact/repartition/segment landed in between (a repartition raises
    # the compaction floor, forcing the full-rebuild path; otherwise the
    # signed-delta incremental path runs)
    from marc_data_migration_ray.pipelines.views import (
        MinHashIndexView, PostingsView, ScalarIndexView,
    )

    pv = PostingsView(str(tmp_path / "pv"), rp, n_buckets=4)
    sv = ScalarIndexView(str(tmp_path / "sv"), rp, column="n_tok", bin_width=8)
    mv = MinHashIndexView(str(tmp_path / "mv"), rp, n_buckets=4)
    ops_done = []
    clones: list[tuple[str, list]] = []
    for e in range(N_EPOCHS):
        rp.apply_epoch(e, os.path.join(fdir, "binlog", f"epoch={e}"))
        r = rng.random()
        if r < 0.30:
            rp.compact()
            ops_done.append(f"compact@{e}")
        elif r < 0.60:
            new_p = rng.choice([2, 4, 7, 12])
            new_s = rng.choice([1, 2])
            rp.repartition(new_p, new_s)
            ops_done.append(f"repart({new_p},{new_s})@{e}")
        elif r < 0.75 and e >= 1:
            floor = rp.manifest.last_compacted_epoch()
            if floor < e - 1:
                rp.compact_deltas(floor + 1, e)
                ops_done.append(f"segment@{e}")
        elif r < 0.85:
            # clone at a random point: the clone must freeze this exact
            # intermediate state regardless of later source maintenance
            cdir = str(tmp_path / f"clone{e}")
            rp.clone(cdir)
            clones.append((cdir, rp.read_state().take_all()))
            ops_done.append(f"clone@{e}")
        pv.refresh()
        sv.refresh()
        mv.refresh()

    o = oracle.replay(
        pq.read_table(os.path.join(fdir, "base")).to_pylist(),
        _events(fdir), cfg,
    )
    eng = rp.read_state().take_all()
    _rows_equal(eng, o["final"]), ops_done

    # per-key lineage rides the same maintenance gauntlet: the retained
    # event log must list exactly the keys' binlog events in lsn order
    # (whatever compact/segment/repartition landed), and every as-of
    # state at/above the compaction ceiling must equal the oracle's
    # prefix replay (the self-cutting sweep on unsalted layouts, the
    # per-cut lookup fallback on salted ones — both seeds' layouts
    # exercise both)
    import pyarrow as pa

    from marc_data_migration_ray.functions.keys import normalize_keys

    evs_all = sorted(_events(fdir), key=lambda r: r["lsn"])
    by_key: dict = {}
    for r_ in evs_all:
        if r_["op"] != "schema_change" and r_["doc_id"] is not None:
            k_ = normalize_keys(
                pa.array([r_["doc_id"]], pa.string()))[0].as_py()
            if k_:
                by_key.setdefault(k_, []).append(r_)
    busy = sorted(by_key, key=lambda k_: (-len(by_key[k_]), k_))[:2]
    hist = rp.doc_history_many(busy, with_versions=True)
    ceiling = rp.manifest.ceiling_lsn()
    base_rows = pq.read_table(os.path.join(fdir, "base")).to_pylist()
    for k_ in busy:
        rows = [r_ for r_ in hist.to_pylist()
                if r_["doc_id"] == k_ and r_["op"] != "base"]
        assert [r_["lsn"] for r_ in rows] \
            == [e_["lsn"] for e_ in by_key[k_]], (k_, ops_done)
        for r_ in rows:
            if r_["lsn"] < ceiling:
                assert r_["state_live"] is None, (k_, r_["lsn"], ops_done)
                continue
            prefix = [e_ for e_ in evs_all if e_["lsn"] <= r_["lsn"]]
            ost = {x["doc_id"]: x
                   for x in oracle.replay(base_rows, prefix, cfg)["final"]}
            if k_ in ost:
                assert r_["state_live"] is True \
                    and r_["state_n_tok"] == ost[k_]["n_tok"], \
                    (k_, r_["lsn"], ops_done)
            else:
                assert r_["state_live"] is False, (k_, r_["lsn"], ops_done)

    # a random projected read must equal the full read's projection under
    # whatever layout the maintenance mix produced (pushdown soundness)
    names = list(rp.read_state().schema().names)
    cs = ["doc_id"] + rng.sample([c for c in names if c != "doc_id"], 2)
    proj = sorted(rp.read_state(columns=cs).take_all(),
                  key=lambda r: r["doc_id"])
    for a, b in zip(proj, sorted(eng, key=lambda r: r["doc_id"])):
        for c in cs:
            va, vb = a[c], b[c]
            if c == "tokens":
                va = list(va) if va is not None else None
                vb = list(vb) if vb is not None else None
            assert va == vb, (c, a["doc_id"], ops_done)

    # trailing predicate delete == oracle-side filter
    thresh = rng.randrange(20, 90)
    rp.delete_where(f"n_tok < {thresh}", epoch=N_EPOCHS + 10)
    survivors = [
        r for r in o["final"]
        if not (r["n_tok"] is not None and r["n_tok"] < thresh)
    ]
    eng2 = rp.read_state().take_all()
    for a, b in zip(sorted(eng2, key=lambda r: r["doc_id"]),
                    sorted(survivors, key=lambda r: r["doc_id"])):
        assert a["doc_id"] == b["doc_id"]
        assert list(a["tokens"] or []) == list(b["tokens"] or [])
    assert len(eng2) == len(survivors), (ops_done, thresh)
    assert rp.fsck()["ok"], (ops_done, rp.fsck()["problems"])

    # views refreshed after the predicate delete retract the deleted docs
    # and equal ground truth recomputed from the post-delete state
    pv.refresh()
    sv.refresh()
    mv.refresh()
    want_post = set()
    want_scalar = set()
    for r_ in eng2:
        for tok in set(r_["tokens"] or []):
            want_post.add((int(tok), r_["doc_id"]))
        if r_["n_tok"] is not None:
            want_scalar.add((r_["n_tok"], r_["doc_id"]))
    pt = pv.read()
    assert set(zip(pt["token"].to_pylist(), pt["doc_id"].to_pylist())) \
        == want_post, ops_done
    st = sv.read()
    assert set(zip(st["value"].to_pylist(), st["doc_id"].to_pylist())) \
        == want_scalar, ops_done
    # minhash index: incrementally-maintained signature entries equal a
    # fresh full rebuild at the same head (whatever mix + delete landed)
    fresh_mv = MinHashIndexView(str(tmp_path / "mv_fresh"), rp, n_buckets=4)
    fresh_mv.refresh()
    mt, ft = mv.read(), fresh_mv.read()
    assert set(zip(mt["sig"].to_pylist(), mt["doc_id"].to_pylist())) \
        == set(zip(ft["sig"].to_pylist(), ft["doc_id"].to_pylist())), ops_done

    # every clone still reads exactly the state frozen at its clone point,
    # after all the source maintenance (and the delete) that followed
    for cdir, frozen in clones:
        crp = Replayer(cdir)
        _rows_equal(crp.read_state().take_all(), frozen)
        assert crp.fsck()["ok"], (ops_done, cdir)
