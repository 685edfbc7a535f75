"""Allocator-assigned local ids as first-class addressable keys.

Semantics (SEMANTICS.md "Local-id addressability"): a ``{prefix}-PPPP-N``
id handed out by the fold allocator becomes addressable for update /
delete / lookup once its row is MATERIALIZED by a compaction; before
that, events addressing it fold to noop / tombstone-of-nothing exactly
like events addressing any key that never existed. Events with a
local-id key route to the EMBEDDED allocation partition (where the row
lives), not hash(key) — ``functions.keys.local_id_parts``.
"""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from marc_data_migration_ray import oracle
from marc_data_migration_ray.config import ReplayConfig
from marc_data_migration_ray.pipelines.replay import Replayer
from marc_data_migration_ray.sources import fixtures


def _events_table(events: list[dict]) -> pa.Table:
    cols = {
        "lsn": pa.int64(), "epoch": pa.int32(), "op": pa.string(),
        "doc_id": pa.string(), "tokens": pa.list_(pa.int32()),
        "n_tok": pa.int32(), "source": pa.string(),
        "column_mask": pa.list_(pa.string()), "match_score": pa.int32(),
        "title": pa.string(), "match_title": pa.string(),
        "extra_json": pa.string(), "schema_kind": pa.string(),
        "schema_name": pa.string(), "schema_new_name": pa.string(),
    }
    return pa.table(
        {k: pa.array([e.get(k) for e in events], t) for k, t in cols.items()}
    )


def _write_epoch(root: str, epoch: int, events: list[dict]) -> str:
    d = os.path.join(root, "binlog", f"epoch={epoch}")
    os.makedirs(d, exist_ok=True)
    pq.write_table(_events_table(events), os.path.join(d, "part-00000.parquet"))
    return d


@pytest.fixture(scope="module")
def base_dir(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("local_addr_base"))
    base = fixtures.make_base_table(n_rows=40, seed=3)
    os.makedirs(os.path.join(root, "base"), exist_ok=True)
    pq.write_table(base, os.path.join(root, "base", "part-00000.parquet"))
    return os.path.join(root, "base")


def _keyless_inserts(n, epoch, lsn0):
    return [
        {"lsn": lsn0 + i, "epoch": epoch, "op": "insert",
         "doc_id": f"unnormalizable-{i}", "tokens": [i, i + 1, i + 2],
         "n_tok": 3, "source": "src-local", "match_score": 0}
        for i in range(n)
    ]


def _state_rows(rp, **kw):
    return sorted(rp.read_state(**kw).take_all(), key=lambda r: r["doc_id"])


def test_local_ids_addressable_after_compaction(ray_session, base_dir, tmp_path):
    cfg = ReplayConfig(num_partitions=8)
    root = str(tmp_path / "t")
    rp = Replayer(root, cfg, base_path=base_dir)
    rp.apply_epoch(0, _write_epoch(root, 0, _keyless_inserts(6, 0, 1)))
    rp.compact()

    rows = _state_rows(rp)
    locals_ = [r for r in rows if r["doc_id"].startswith("LOCAL-")]
    assert len(locals_) == 6
    upd_id, del_id = locals_[0]["doc_id"], locals_[1]["doc_id"]

    ev2 = [
        {"lsn": 100, "epoch": 1, "op": "update", "doc_id": upd_id,
         "tokens": [9, 9], "n_tok": 2, "source": "patched",
         "match_score": 100, "column_mask": []},
        {"lsn": 101, "epoch": 1, "op": "delete", "doc_id": del_id,
         "match_score": 0},
    ]
    rp.apply_epoch(1, _write_epoch(root, 1, ev2))
    rows2 = {r["doc_id"]: r for r in _state_rows(rp)}
    assert del_id not in rows2
    assert list(rows2[upd_id]["tokens"]) == [9, 9]
    assert rows2[upd_id]["source"] == "patched"
    assert rows2[upd_id]["status"] == "perfect"

    # point lookup routes by the embedded partition
    got = rp.lookup([upd_id, del_id]).take_all()
    assert {r["doc_id"] for r in got} == {upd_id}
    assert list(got[0]["tokens"]) == [9, 9]


def test_pre_materialization_events_are_noops(ray_session, base_dir, tmp_path):
    """Updates/deletes addressing a local id BEFORE compaction fold like
    events on a nonexistent key (deterministic, documented)."""
    cfg = ReplayConfig(num_partitions=8)
    root = str(tmp_path / "t")
    rp = Replayer(root, cfg, base_path=base_dir)
    ev = _keyless_inserts(3, 0, 1)
    # the allocator is deterministic: first id for raw "unnormalizable-0"
    # lands in partition fnv1a64(raw) % 8 with counter local_id_start+1
    part = oracle.partition_of(None, "unnormalizable-0", 8)
    guess = f"LOCAL-{part:04d}-101"
    ev.append({"lsn": 50, "epoch": 0, "op": "update", "doc_id": guess,
               "tokens": [7], "n_tok": 1, "source": "early",
               "match_score": 100, "column_mask": []})
    rp.apply_epoch(0, _write_epoch(root, 0, ev))
    rows = {r["doc_id"]: r for r in _state_rows(rp)}
    assert guess in rows  # allocation happened
    assert rows[guess]["source"] == "src-local"  # the early update noop'd
    m = rp.fold_metrics()
    assert m["routes"]["noop"] >= 1


def test_engine_matches_oracle_on_local_keyed_events(ray_session, base_dir, tmp_path):
    """Post-materialization phase-2 replay == oracle replay over the
    materialized state (engine state₁ as oracle base)."""
    cfg = ReplayConfig(num_partitions=8)
    root = str(tmp_path / "t")
    rp = Replayer(root, cfg, base_path=base_dir)
    rp.apply_epoch(0, _write_epoch(root, 0, _keyless_inserts(5, 0, 1)))
    rp.compact()
    state1 = _state_rows(rp)
    lids = [r["doc_id"] for r in state1 if r["doc_id"].startswith("LOCAL-")]

    ev2 = [
        {"lsn": 200, "epoch": 1, "op": "update", "doc_id": lids[0],
         "tokens": [1, 2], "n_tok": 2, "source": "a", "match_score": 100,
         "column_mask": []},
        {"lsn": 201, "epoch": 1, "op": "update", "doc_id": lids[1],
         "tokens": [3], "n_tok": 1, "source": "b", "match_score": 60,
         "column_mask": ["source"]},
        {"lsn": 202, "epoch": 1, "op": "update", "doc_id": lids[2],
         "tokens": [4], "n_tok": 1, "source": "c", "match_score": 10,
         "match_title": "x", "title": "y"},  # below threshold → rejected
        {"lsn": 203, "epoch": 1, "op": "delete", "doc_id": lids[3],
         "match_score": 0},
    ]
    rp.apply_epoch(1, _write_epoch(root, 1, ev2))
    eng = _state_rows(rp)

    o = oracle.replay([dict(r) for r in state1], [dict(e) for e in ev2], cfg)
    ofinal = sorted(o["final"], key=lambda r: r["doc_id"])
    assert [r["doc_id"] for r in eng] == [r["doc_id"] for r in ofinal]
    for a, b in zip(eng, ofinal):
        ta = list(a["tokens"]) if a["tokens"] is not None else None
        tb = list(b["tokens"]) if b["tokens"] is not None else None
        assert (ta, a["n_tok"], a["source"]) == (tb, b["n_tok"], b["source"]), a["doc_id"]


def test_parse_routes_local_keys_to_embedded_partition(ray_session):
    from marc_data_migration_ray.stages.parse import ParseRoute

    cfg = ReplayConfig(num_partitions=8)
    t = _events_table([
        {"lsn": 1, "epoch": 0, "op": "update", "doc_id": "LOCAL-0005-101",
         "tokens": [1], "n_tok": 1, "source": "s", "match_score": 100,
         "column_mask": []},
        {"lsn": 2, "epoch": 0, "op": "delete", "doc_id": "LOCAL-0013-102",
         "match_score": 0},
        {"lsn": 3, "epoch": 0, "op": "update", "doc_id": "ocn123",
         "tokens": [1], "n_tok": 1, "source": "s", "match_score": 100,
         "column_mask": []},
    ])
    out = ParseRoute(cfg)(t)
    rows = out.to_pylist()
    assert rows[0]["key"] == "LOCAL-0005-101" and rows[0]["part_id"] == 5
    assert rows[1]["key"] == "LOCAL-0013-102" and rows[1]["part_id"] == 13 % 8
    assert rows[0]["route"] == "applied" and rows[1]["route"] == "applied"
    assert rows[2]["key"] == "123"


def _versions_vs_lookup(rp, key):
    """(lsn, state_live, state_n_tok) of every event of ``key``'s
    ``doc_history(with_versions=True)``, each checked against the per-cut
    ``lookup([key], up_to_lsn=lsn)`` it must equal."""
    got = []
    for r in rp.doc_history(key, with_versions=True).to_pylist():
        if r["op"] == "base":
            continue
        rows = rp.lookup([key], up_to_lsn=r["lsn"]).take_all()
        assert r["state_live"] == bool(rows), r
        assert r["state_n_tok"] == (rows[0]["n_tok"] if rows else None), r
        got.append((r["lsn"], r["state_live"], r["state_n_tok"]))
    return got


def test_local_id_versions_match_per_cut_lookup(ray_session, base_dir,
                                                tmp_path):
    """Local-id keys take the per-cut lookup path of doc_history's as-of
    states (positional allocation needs the real fold): an uncompacted
    allocation addressed by an early (noop) update, and a compacted id
    through update, update, delete."""
    cfg = ReplayConfig(num_partitions=8)
    root = str(tmp_path / "early")
    rp = Replayer(root, cfg, base_path=base_dir)
    part = oracle.partition_of(None, "unnormalizable-0", 8)
    guess = f"LOCAL-{part:04d}-101"
    ev = _keyless_inserts(3, 0, 1) + [
        {"lsn": 50, "epoch": 0, "op": "update", "doc_id": guess,
         "tokens": [7], "n_tok": 1, "source": "early",
         "match_score": 100, "column_mask": []}]
    rp.apply_epoch(0, _write_epoch(root, 0, ev))
    assert _versions_vs_lookup(rp, guess) == [(50, True, 3)]

    root = str(tmp_path / "compacted")
    rp = Replayer(root, cfg, base_path=base_dir)
    rp.apply_epoch(0, _write_epoch(root, 0, _keyless_inserts(4, 0, 1)))
    rp.compact()
    lid = next(r["doc_id"] for r in _state_rows(rp)
               if r["doc_id"].startswith("LOCAL-"))
    rp.apply_epoch(1, _write_epoch(root, 1, [
        {"lsn": 200, "epoch": 1, "op": "update", "doc_id": lid,
         "tokens": [1, 2], "n_tok": 2, "source": "a", "match_score": 100,
         "column_mask": []},
        {"lsn": 201, "epoch": 1, "op": "update", "doc_id": lid,
         "tokens": [1, 2, 3, 4], "n_tok": 4, "source": "b",
         "match_score": 100, "column_mask": []},
        {"lsn": 202, "epoch": 1, "op": "delete", "doc_id": lid,
         "match_score": 0},
    ]))
    assert _versions_vs_lookup(rp, lid) == [
        (200, True, 2), (201, True, 4), (202, False, None)]


@pytest.fixture(scope="module")
def routing_fixtures(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("routing_fx"))
    out = {}
    for name, frac in (("default", 0.02), ("invalid5", 0.05)):
        d = os.path.join(root, name)
        fixtures.write_fixture(d, n_rows=80, n_events=500, n_epochs=2,
                               seed=29, invalid_key_frac=frac,
                               schema_change_frac=0.0)
        out[name] = d
    return out


@pytest.mark.parametrize("case", ["salts1", "salts2", "repartition3",
                                  "invalid5"])
def test_routing_agrees_everywhere(ray_session, routing_fixtures, tmp_path,
                                   case):
    """One routing rule: every folded row sits in the logical partition
    ``_parts_for_keys`` sends its ``doc_id`` to (ordinary keys, allocated
    local ids, salted layouts, after a repartition), and ``route_keys``
    is exactly what ``ParseRoute`` assigns to the raw binlog keys."""
    from marc_data_migration_ray.functions.keys import route_keys
    from marc_data_migration_ray.stages.parse import ParseRoute

    fx = routing_fixtures["invalid5" if case == "invalid5" else "default"]
    cfg = ReplayConfig(num_partitions=4,
                       num_salts=2 if case == "salts2" else 1)
    rp = Replayer(str(tmp_path / "t"), cfg,
                  base_path=os.path.join(fx, "base"))
    binlogs = [os.path.join(fx, "binlog", f"epoch={e}") for e in range(2)]
    for e, d in enumerate(binlogs):
        rp.apply_epoch(e, d)
    if case == "repartition3":
        rp.repartition(3)
    rows = rp.fold_output().take_all()
    local = [r for r in rows if r["doc_id"].startswith("LOCAL-")]
    assert rows and local, "fixture must fold ordinary and local-id rows"
    for r in rows:
        assert rp._parts_for_keys([r["doc_id"]]) == {r["part_id"]}, r

    raw = pa.concat_tables([
        pq.read_table(os.path.join(d, f)) for d in binlogs
        for f in sorted(os.listdir(d))])
    parsed = ParseRoute(rp.cfg)(raw)
    key, part = route_keys(raw["doc_id"], rp.cfg.local_id_prefix,
                           rp.cfg.num_partitions)
    assert key.to_pylist() == parsed["key"].to_pylist()
    assert part.to_pylist() == parsed["part_id"].to_pylist()
