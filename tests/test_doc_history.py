"""doc_history: per-key lineage (row-level DESCRIBE HISTORY).

Invariants:
* the event log lists EXACTLY the retained binlog events whose normalized
  key is the requested doc_id (all routes, rejected included), sorted by
  lsn — recomputed here straight from the fixture parquet;
* ``with_versions`` state reconstruction equals the independent pure-Python
  oracle replayed over each lsn-prefix of the log (live-ness, n_tok and
  token arrays);
* after a compaction the absorbed events collapse into an ``op='base'``
  row (null state columns below the ceiling) while later events keep
  reconstructing; a delta segment keeps absorbed events listable;
* ``lookup(up_to_lsn=...)`` (the primitive versions ride on) matches the
  oracle at an arbitrary mid-epoch cut.
"""

import glob
import os

import pyarrow.parquet as pq
import pytest

from marc_data_migration_ray.config import ReplayConfig
from marc_data_migration_ray.functions.keys import normalize_keys
from marc_data_migration_ray.pipelines.replay import _KEYBLOOM_SUFFIX, Replayer
from marc_data_migration_ray.sources import fixtures
from marc_data_migration_ray import oracle

import pyarrow as pa

N_EPOCHS = 3


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("dh_fixture"))
    fixtures.write_fixture(root, n_rows=120, n_events=700, n_epochs=N_EPOCHS, seed=47)
    return root


def _events(fixture_dir):
    evs = []
    for e in range(N_EPOCHS):
        d = os.path.join(fixture_dir, "binlog", f"epoch={e}")
        for f in sorted(os.listdir(d)):
            evs += pq.read_table(os.path.join(d, f)).to_pylist()
    return sorted(evs, key=lambda r: r["lsn"])


def _norm(doc_id):
    return normalize_keys(pa.array([doc_id], pa.string()))[0].as_py()


def _key_events(evs, key):
    return [r for r in evs if r["doc_id"] is not None and _norm(r["doc_id"]) == key]


def _busy_key(evs, want_ops=("update",)):
    """A normalized key with >=3 events including the wanted ops."""
    by_key = {}
    for r in evs:
        if r["op"] == "schema_change" or r["doc_id"] is None:
            continue
        k = _norm(r["doc_id"])
        if k:
            by_key.setdefault(k, []).append(r)
    best = None
    for k, rs in by_key.items():
        ops = {r["op"] for r in rs}
        if len(rs) >= 3 and all(w in ops for w in want_ops):
            if best is None or len(rs) > len(by_key[best]):
                best = k
    assert best is not None
    return best


def _replay(root, fixture_dir, cfg, epochs=N_EPOCHS):
    rp = Replayer(root, cfg, base_path=os.path.join(fixture_dir, "base"))
    for e in range(epochs):
        rp.apply_epoch(e, os.path.join(fixture_dir, "binlog", f"epoch={e}"))
    return rp


def _oracle_state_at(fixture_dir, evs, cfg, lsn_cut):
    base = pq.read_table(os.path.join(fixture_dir, "base")).to_pylist()
    prefix = [r for r in evs if r["lsn"] <= lsn_cut]
    return {r["doc_id"]: r for r in oracle.replay(base, prefix, cfg)["final"]}


def test_event_log_matches_binlog(ray_session, fixture_dir, tmp_path):
    cfg = ReplayConfig(num_partitions=8)
    rp = _replay(str(tmp_path / "t"), fixture_dir, cfg)
    evs = _events(fixture_dir)
    key = _busy_key(evs)
    hist = rp.doc_history(key)
    got = [(r["lsn"], r["op"]) for r in hist.to_pylist() if r["op"] != "base"]
    want = [(r["lsn"], r["op"]) for r in _key_events(evs, key)]
    assert got == want
    # base row present iff the key exists in the base snapshot
    base_keys = {
        _norm(d) for d in
        pq.read_table(os.path.join(fixture_dir, "base"))["doc_id"].to_pylist()
    }
    n_base = sum(1 for r in hist.to_pylist() if r["op"] == "base")
    assert (n_base > 0) == (key in base_keys)
    # lsn-sorted
    lsns = [r["lsn"] for r in hist.to_pylist()]
    assert lsns == sorted(lsns)


def test_versions_match_oracle(ray_session, fixture_dir, tmp_path):
    cfg = ReplayConfig(num_partitions=8)
    rp = _replay(str(tmp_path / "t"), fixture_dir, cfg)
    evs = _events(fixture_dir)
    key = _busy_key(evs, want_ops=("update", "delete"))
    hist = rp.doc_history(key, with_payload=True, with_versions=True)
    rows = [r for r in hist.to_pylist() if r["op"] != "base"]
    assert rows
    saw_dead = saw_live = False
    for r in rows:
        ostate = _oracle_state_at(fixture_dir, evs, cfg, r["lsn"])
        if key in ostate:
            saw_live = True
            assert r["state_live"] is True, r
            assert r["state_n_tok"] == ostate[key]["n_tok"], r
            assert list(r["state_tokens"]) == list(ostate[key]["tokens"] or []), r
        else:
            saw_dead = True
            assert r["state_live"] is False, r
            assert r["state_n_tok"] is None
    assert saw_live  # the chosen key must actually exercise both branches
    assert saw_dead


def test_lookup_up_to_lsn_matches_oracle(ray_session, fixture_dir, tmp_path):
    cfg = ReplayConfig(num_partitions=8)
    rp = _replay(str(tmp_path / "t"), fixture_dir, cfg)
    evs = _events(fixture_dir)
    key = _busy_key(evs)
    cut = _key_events(evs, key)[1]["lsn"]  # a mid-log cut
    ostate = _oracle_state_at(fixture_dir, evs, cfg, cut)
    got = rp.lookup([key], up_to_lsn=cut).take_all()
    if key in ostate:
        assert len(got) == 1
        assert list(got[0]["tokens"] or []) == list(ostate[key]["tokens"] or [])
    else:
        assert got == []


def test_compaction_absorbs_into_base_row(ray_session, fixture_dir, tmp_path):
    cfg = ReplayConfig(num_partitions=8)
    rp = _replay(str(tmp_path / "t"), fixture_dir, cfg)
    evs = _events(fixture_dir)
    # a key active in epoch 0 AND later epochs
    by_key = {}
    for r in evs:
        if r["op"] != "schema_change" and r["doc_id"] is not None:
            k = _norm(r["doc_id"])
            if k:
                by_key.setdefault(k, set()).add(r["epoch"])
    key = next(k for k, es in sorted(by_key.items())
               if 0 in es and (es - {0}))
    pre = rp.doc_history(key)
    assert not any(r["absorbed"] for r in pre.to_pylist())
    live0 = bool(rp.lookup([key], up_to_epoch=0).take_all())
    rp.compact(up_to_epoch=0)
    post = rp.doc_history(key, with_versions=True)
    prows = post.to_pylist()
    # absorbed events stay LISTED (audit) but flagged, until vacuumed
    e0 = [r for r in prows if r["op"] != "base" and r["epoch"] == 0]
    assert e0 and all(r["absorbed"] for r in e0)
    assert all(not r["absorbed"] for r in prows
               if r["op"] == "base" or (r["epoch"] or 0) >= 1)
    later = [(r["lsn"], r["op"]) for r in prows
             if r["op"] != "base" and not r["absorbed"]]
    want_later = [(r["lsn"], r["op"]) for r in _key_events(evs, key)
                  if r["epoch"] >= 1]
    assert later == want_later
    # the compacted base row carries the key's net epoch-0 state
    assert any(r["op"] == "base" for r in prows) == live0
    # versions: above-ceiling events reconstruct, base/absorbed do not
    ceiling = rp.manifest.ceiling_lsn()
    for r in prows:
        if r["op"] == "base" or r["absorbed"]:
            assert r["state_live"] is None
        elif r["lsn"] >= ceiling:
            assert r["state_live"] is not None
    # vacuum without audit retention reclaims the absorbed events
    rp.vacuum(retain_audit=False)
    after = rp.doc_history(key).to_pylist()
    assert [(r["lsn"], r["op"]) for r in after if r["op"] != "base"] \
        == want_later


def test_segment_keeps_absorbed_events_listable(ray_session, fixture_dir, tmp_path):
    cfg = ReplayConfig(num_partitions=8)
    rp = _replay(str(tmp_path / "t"), fixture_dir, cfg)
    evs = _events(fixture_dir)
    key = _busy_key(evs)
    before = [(r["lsn"], r["op"]) for r in rp.doc_history(key).to_pylist()]
    # merge epochs 1-2 into a level-1 segment, then drop the epoch dirs
    rp.compact_deltas(1, 2)
    for e in (1, 2):
        import shutil as _sh
        _sh.rmtree(os.path.join(str(tmp_path / "t"), "deltas", f"epoch={e}"))
    after = [(r["lsn"], r["op"]) for r in rp.doc_history(key).to_pylist()]
    assert after == before


def test_unknown_key_empty(ray_session, fixture_dir, tmp_path):
    cfg = ReplayConfig(num_partitions=8)
    rp = _replay(str(tmp_path / "t"), fixture_dir, cfg)
    t = rp.doc_history("999999999")
    assert t.num_rows == 0
    assert "lsn" in t.schema.names and "op" in t.schema.names


def test_history_survives_repartition(ray_session, fixture_dir, tmp_path):
    """Absorbed events written under the OLD partition layout stay listed
    after a repartition: below-floor epochs are scanned key-filtered
    (layout-independent) instead of pruned by the new layout's dirs."""
    cfg = ReplayConfig(num_partitions=8)
    rp = _replay(str(tmp_path / "t"), fixture_dir, cfg, epochs=2)
    evs = _events(fixture_dir)
    key = _busy_key(evs)
    want_01 = [(r["lsn"], r["op"]) for r in _key_events(evs, key)
               if r["epoch"] <= 1]
    pre = [(r["lsn"], r["op"]) for r in rp.doc_history(key).to_pylist()
           if r["op"] != "base"]
    assert pre == want_01
    rp.repartition(5)  # floor rises past epochs 0-1; old dirs keep old layout
    rp.apply_epoch(2, os.path.join(fixture_dir, "binlog", "epoch=2"))
    hist = rp.doc_history(key).to_pylist()
    got = [(r["lsn"], r["op"]) for r in hist if r["op"] != "base"]
    want_all = [(r["lsn"], r["op"]) for r in _key_events(evs, key)]
    assert got == want_all, "absorbed old-layout events must stay listed"
    assert [r["absorbed"] for r in hist if r["op"] != "base"] \
        == [r["epoch"] <= 1 for r in _key_events(evs, key)]


def _busiest_keys(evs, n=4):
    by_key = {}
    for r in evs:
        if r["op"] == "schema_change" or r["doc_id"] is None:
            continue
        k = _norm(r["doc_id"])
        if k:
            by_key.setdefault(k, []).append(r)
    return sorted(by_key, key=lambda k: (-len(by_key[k]), k))[:n]


def test_doc_history_many_matches_singles(ray_session, fixture_dir, tmp_path):
    """Multi-key lineage == per-key lineage, rowset-identical (VERDICT r2
    item 8): one scan pass over the union of the keys' partitions must
    reproduce every single-key call exactly, versions included."""
    import pyarrow.compute as pc

    cfg = ReplayConfig(num_partitions=8)
    rp = _replay(str(tmp_path / "t"), fixture_dir, cfg)
    evs = _events(fixture_dir)
    keys = _busiest_keys(evs)
    assert len(keys) >= 3
    multi = rp.doc_history_many(keys, with_payload=True, with_versions=True)
    assert multi.schema.names[0] == "doc_id"
    for k in keys:
        single = rp.doc_history(k, with_payload=True, with_versions=True)
        part = multi.filter(pc.equal(multi["doc_id"], k)).drop_columns(
            ["doc_id"])
        assert part.to_pylist() == single.to_pylist(), k
    # no rows for keys never requested
    got_keys = set(multi["doc_id"].to_pylist())
    assert got_keys <= set(keys)


def test_versions_are_batched_not_per_event(ray_session, fixture_dir, tmp_path):
    """The with_versions reconstruction of an ordinary key must run
    through the self-cutting sweep (one key-filtered pass per partition),
    NOT the per-cut lookup() fallback (VERDICT r2 item 7)."""
    cfg = ReplayConfig(num_partitions=8)
    rp = _replay(str(tmp_path / "t"), fixture_dir, cfg)
    evs = _events(fixture_dir)
    key = _busy_key(evs)
    assert len(_key_events(evs, key)) >= 3  # a many-event key
    calls = []
    orig = rp.lookup

    def _spy(*a, **kw):
        calls.append((a, kw))
        return orig(*a, **kw)

    rp.lookup = _spy
    hist = rp.doc_history(key, with_versions=True)
    assert any(r["state_live"] is not None for r in hist.to_pylist())
    assert calls == [], "versions path must not issue per-event lookups"


def test_doc_history_many_after_bloom_index(ray_session, fixture_dir, tmp_path):
    """Multi-key lineage over a bloom-indexed table: sidecars prune delta
    files against the WHOLE key set in one pass and the result is
    unchanged (the pruned read path and the plain one agree)."""
    cfg = ReplayConfig(num_partitions=8)
    rp = _replay(str(tmp_path / "t"), fixture_dir, cfg)
    # drop the sidecars ingest wrote: the plain read stands for a table
    # written by older code, and the backfill below has files to index
    for sc in glob.glob(os.path.join(str(tmp_path / "t"), "**",
                                     "*" + _KEYBLOOM_SUFFIX), recursive=True):
        os.remove(sc)
    evs = _events(fixture_dir)
    keys = _busiest_keys(evs, n=3)
    plain = rp.doc_history_many(keys, with_versions=True).to_pylist()
    rep = rp.build_key_blooms()
    assert rep["built"] > 0
    pruned = rp.doc_history_many(keys, with_versions=True).to_pylist()
    assert pruned == plain


def test_versions_salted_fallback(ray_session, fixture_dir, tmp_path):
    """num_salts > 1 sends every key to the per-cut lookup fallback (the
    salted fold is a two-stage exchange); results must be bit-identical
    to the unsalted sweep path."""
    evs = _events(fixture_dir)
    key = _busy_key(evs, want_ops=("update",))
    plain = _replay(str(tmp_path / "p"), fixture_dir,
                    ReplayConfig(num_partitions=8))
    salted = _replay(str(tmp_path / "s"), fixture_dir,
                     ReplayConfig(num_partitions=8, num_salts=2))
    a = plain.doc_history(key, with_versions=True).to_pylist()
    b = salted.doc_history(key, with_versions=True).to_pylist()
    assert a == b


@pytest.mark.parametrize("strategy,with_drops,seed", [
    ("replace_and_add", False, 47),
    ("replace_only", False, 47),
    ("replace_and_add", True, 91),
    ("replace_only", True, 133),
])
def test_sweep_equals_fold_path(ray_session, tmp_path, strategy,
                                with_drops, seed):
    """The O(events + cuts) as-of sweep and a one-shot ``fold_bucket``
    per cut (the fold ``lookup(up_to_lsn=L)`` runs) produce bit-identical
    per-cut states across BOTH column strategies and DDL shapes
    (adds/renames, and drops when with_drops)."""
    import pyarrow.compute as pc

    from marc_data_migration_ray.pipelines.replay import (
        _asof_sweep, _read_bucket_tables)
    from marc_data_migration_ray.stages.fold import fold_bucket

    fixture_dir = str(tmp_path / "fx")
    fixtures.write_fixture(fixture_dir, n_rows=120, n_events=700,
                           n_epochs=N_EPOCHS, seed=seed,
                           with_drops=with_drops)
    cfg = ReplayConfig(num_partitions=8, strategy=strategy)
    rp = _replay(str(tmp_path / "t"), fixture_dir, cfg)
    evs = _events(fixture_dir)
    keys = _busiest_keys(evs, n=3)
    base_is_final, base_by_part, delta_by_part = rp._fold_layout()
    offsets = rp.manifest.local_id_offsets()
    lsns = sorted({r["lsn"] for r in evs if r["doc_id"] is not None
                   and _norm(r["doc_id"]) in keys})
    cuts = [(L, rp._schema_ops_up_to(None, L)) for L in lsns]
    want = pa.array(keys, pa.string())
    for p in sorted(rp._parts_for_keys(keys)):
        allr = _read_bucket_tables(
            base_by_part.get(p, []), delta_by_part.get(p, []), cfg,
            base_is_final, lsns[-1], keys, None)
        if allr is None:
            continue
        swept = _asof_sweep(allr, cfg, cuts, keys, None)
        per_cut = []
        for L, ops in cuts:
            r = fold_bucket(
                allr.filter(pc.or_kleene(allr["is_base"],
                                         pc.less_equal(allr["lsn"], L))),
                cfg, offsets, ops)
            r = r.filter(pc.and_(pc.equal(r["_kind"], "row"),
                                 pc.is_in(r["doc_id"], value_set=want)))
            per_cut.append(r.append_column(
                "_asof_lsn", pa.array([L] * r.num_rows, pa.int64())))
        folded = pa.concat_tables(per_cut)

        def _index(t):
            rows = {}
            for r in t.to_pylist():
                rows[(r["doc_id"], r["_asof_lsn"])] = {
                    k: v for k, v in r.items()
                    if k not in ("metrics_json",)}
            return rows

        sw, fo = _index(swept), _index(folded)
        assert set(sw) == set(fo), f"partition {p}: row-key sets differ"
        for rk in sorted(sw):
            a, b = dict(sw[rk]), dict(fo[rk])
            # packed extra_json may differ byte-wise (key order/format);
            # compare semantically
            import json as _json

            ea, eb = a.pop("extra_json", None), b.pop("extra_json", None)
            if ea != eb:
                assert ea is not None and eb is not None, (rk, ea, eb)
                assert _json.loads(ea) == _json.loads(eb), (rk, ea, eb)
            # ADVICE r4 item 4: BOTH paths must emit canonical compact
            # raw-UTF-8 JSON (no \uXXXX escaping) — the fixture plants
            # non-ASCII added-column values to force the case
            for ej in (ea, eb):
                if ej is not None:
                    assert ej == _json.dumps(
                        _json.loads(ej), separators=(",", ":"),
                        ensure_ascii=False), (rk, ej)
            assert a == b, (rk, a, b)


def test_versions_fallback_when_auto_sweep_diverges(ray_session, tmp_path,
                                                    monkeypatch):
    """The self-cutting sweep's coverage check must hand the partition's
    keys to the per-cut lookup fallback (and produce identical output)
    if a wanted cut is ever missing from the worker-derived set."""
    import marc_data_migration_ray.pipelines.replay as R

    fixture_dir = str(tmp_path / "fx")
    fixtures.write_fixture(fixture_dir, n_rows=60, n_events=400,
                           n_epochs=2, seed=11)
    cfg = ReplayConfig(num_partitions=4)
    rp = R.Replayer(str(tmp_path / "t"), cfg,
                    base_path=os.path.join(fixture_dir, "base"))
    for e in range(2):
        rp.apply_epoch(e, os.path.join(fixture_dir, "binlog", f"epoch={e}"))
    evs = []
    for e in range(2):
        d = os.path.join(fixture_dir, "binlog", f"epoch={e}")
        for f in sorted(os.listdir(d)):
            evs += pq.read_table(os.path.join(d, f)).to_pylist()
    key = _busy_key(evs)
    want = rp.doc_history(key, with_payload=True, with_versions=True)

    orig = R._asof_sweep_auto_task

    class _Broken:
        @staticmethod
        def remote(*a, **kw):
            import ray as _ray

            @_ray.remote(num_cpus=1)
            def _drop_last(*aa, **kk):
                t, ls = _ray.get(orig.remote(*aa, **kk))
                return t, ls[:-1]  # pretend one cut was never emitted

            return _drop_last.remote(*a, **kw)

    fell_back = []
    orig_lookup = R.Replayer.lookup

    def _spy_lookup(self, *a, **kw):
        fell_back.append(kw.get("up_to_lsn"))
        return orig_lookup(self, *a, **kw)

    monkeypatch.setattr(R, "_asof_sweep_auto_task", _Broken)
    monkeypatch.setattr(R.Replayer, "lookup", _spy_lookup)
    got = rp.doc_history(key, with_payload=True, with_versions=True)
    monkeypatch.undo()
    assert fell_back, "coverage check did not trigger the fallback"
    assert got.equals(want)
