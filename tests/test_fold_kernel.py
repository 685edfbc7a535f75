"""The one-pass fold kernel (SEMANTICS §Fold) against the oracle.

``fold_bucket`` picks every column's LWW winner in one ``group_by`` and
reads decode the fold's ``extra_json`` once per row. These tests drive
seeded random DDL sequences (adds, renames sandwiched between two writes
of the renamed column, drops, stale names) through the fold directly and
through ``Replayer`` (full reads, projections, key-filtered lookups,
local-id addressing, S = 4 salting), and pin the strings a read returns
for added-column values that are not JSON strings.
"""

import json
import os
import random

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from marc_data_migration_ray import oracle
from marc_data_migration_ray.config import ReplayConfig
from marc_data_migration_ray.pipelines.replay import Replayer
from marc_data_migration_ray.stages.fold import (fold_bucket, split_fold,
                                                 unpack_added)
from marc_data_migration_ray.stages.parse import ParseRoute, PrepBase
from marc_data_migration_ray.state.schema_timeline import (Timeline,
                                                           resolve_schema_ops)

_DISPLAY = ["doc_id", "tokens", "n_tok", "source", "last_lsn", "status",
            "candidate_key"]
_BINLOG_SCHEMA = pa.schema([
    ("lsn", pa.int64()), ("epoch", pa.int32()), ("op", pa.string()),
    ("doc_id", pa.string()), ("tokens", pa.list_(pa.int32())),
    ("n_tok", pa.int32()), ("source", pa.string()),
    ("column_mask", pa.list_(pa.string())), ("match_score", pa.int32()),
    ("title", pa.string()), ("match_title", pa.string()),
    ("extra_json", pa.string()), ("schema_kind", pa.string()),
    ("schema_name", pa.string()), ("schema_new_name", pa.string()),
])
_BASE_SCHEMA = pa.schema([("doc_id", pa.string()),
                          ("tokens", pa.list_(pa.int32())),
                          ("n_tok", pa.int32()), ("source", pa.string())])


def _ev(lsn, epoch, op, doc_id=None, tokens=None, source=None, mask=(),
        extra=None, kind=None, name=None, new=None):
    return {"lsn": lsn, "epoch": epoch, "op": op, "doc_id": doc_id,
            "tokens": tokens, "n_tok": None if tokens is None else len(tokens),
            "source": source, "column_mask": list(mask), "match_score": 100,
            "title": None, "match_title": None, "extra_json": extra,
            "schema_kind": kind, "schema_name": name, "schema_new_name": new}


class _Gen:
    """Seeded random event stream with mid-stream DDL; ``ops`` tracks the
    DDL log so every mask names columns as of its own lsn."""

    def __init__(self, seed: int, n_keys: int = 24):
        self.rng = random.Random(seed)
        self.keys = [str(1_000_000 + i) for i in range(n_keys)]
        self.ops: list[dict] = []
        self.lsn = 1
        self.retired: list[str] = []

    def base(self) -> pa.Table:
        rows = [{"doc_id": k, "tokens": self._toks(), "source": "base"}
                for k in self.keys[: len(self.keys) // 2]]
        for r in rows:
            r["n_tok"] = len(r["tokens"])
        return pa.Table.from_pylist(rows, _BASE_SCHEMA)

    def _toks(self):
        return [self.rng.randrange(1000) for _ in range(self.rng.randrange(1, 5))]

    def _emit(self, out, epoch, op, **kw):
        out.append(_ev(self.lsn, epoch, op, **kw))
        if op == "schema_change":
            self.ops.append({"lsn": self.lsn, "kind": kw["kind"],
                             "name": kw["name"], "new_name": kw.get("new")})
        self.lsn += 1

    def _write(self, out, epoch, key, c, name):
        """An update writing column ``c`` under its visible ``name``."""
        if c == "source":
            self._emit(out, epoch, "update", doc_id=key, mask=[name],
                       source=f"s{self.lsn}")
        else:
            self._emit(out, epoch, "update", doc_id=key, mask=[name],
                       extra=json.dumps({name: f"v{self.lsn}"}))

    def epoch(self, epoch: int, n: int, extra_keys=()) -> list[dict]:
        out: list[dict] = []
        keys = self.keys + list(extra_keys)
        while len(out) < n:
            tl = Timeline(self.ops)
            live = tl.live_added()
            now = self.lsn
            key = self.rng.choice(keys)
            r = self.rng.random()
            if r < 0.05 or (r < 0.12 and not live):
                self._emit(out, epoch, "schema_change", kind="add_column",
                           name=f"x{now}")
            elif r < 0.10:
                # rename sandwiched between two writes of the same column
                c = self.rng.choice(live + ["source"])
                old = tl.name_at(c, now)
                self._write(out, epoch, key, c, old)
                self._emit(out, epoch, "schema_change", kind="rename_column",
                           name=old, new=f"r{self.lsn}")
                self.retired.append(old)
                self._write(out, epoch, self.rng.choice([key, *keys]), c,
                            Timeline(self.ops).name_at(c, self.lsn))
            elif r < 0.12:
                c = self.rng.choice(live)
                self.retired.append(tl.name_at(c, now))
                self._emit(out, epoch, "schema_change", kind="drop_column",
                           name=tl.name_at(c, now))
            elif r < 0.27:
                # inserts never reuse a local id: a local id is addressable
                # only once a compaction materializes its row (SEMANTICS)
                doc = (self.rng.choice(self.keys) if self.rng.random() < 0.85
                       else f"bad{now}x")
                ex = {tl.name_at(c, now): f"i{now}" for c in live
                      if self.rng.random() < 0.5}
                self._emit(out, epoch, "insert", doc_id=doc,
                           tokens=self._toks(), source=f"s{now}",
                           extra=json.dumps(ex) if ex else None)
            elif r < 0.34:
                self._emit(out, epoch, "delete", doc_id=key)
            elif r < 0.40 and self.retired:
                # a stale (pre-rename / dropped) name writes nothing
                name = self.rng.choice(self.retired)
                self._emit(out, epoch, "update", doc_id=key, mask=[name],
                           extra=json.dumps({name: f"stale{now}"}))
            else:
                names = {c: tl.name_at(c, now) for c in live}
                pick = self.rng.random()
                if pick < 0.2:
                    self._emit(out, epoch, "update", doc_id=key,
                               tokens=self._toks(), source=f"s{now}")
                elif pick < 0.45:
                    t = self._toks()
                    self._emit(out, epoch, "update", doc_id=key, tokens=t,
                               mask=[tl.name_at("tokens", now),
                                     tl.name_at("n_tok", now)])
                elif pick < 0.6 or not live:
                    self._write(out, epoch, key, "source",
                                tl.name_at("source", now))
                else:
                    cs = self.rng.sample(live, min(len(live), 2))
                    self._emit(out, epoch, "update", doc_id=key,
                               mask=[names[c] for c in cs],
                               extra=json.dumps({names[c]: f"v{now}"
                                                 for c in cs}))
        return out


def _norm(rows):
    return sorted(({k: (list(v) if k == "tokens" and v is not None else v)
                    for k, v in r.items()} for r in rows),
                  key=lambda r: r["doc_id"])


def _fold_public_rows(base, events, cfg, ops):
    """fold_bucket over one bucket → public rows, materialized like
    ``read_state``: one ``unpack_added`` decode, then display renames."""
    parsed = pa.concat_tables(
        [PrepBase(cfg)(base),
         ParseRoute(cfg)(pa.Table.from_pylist(events, _BINLOG_SCHEMA))])
    rows, _ = split_fold(fold_bucket(parsed, cfg, schema_ops=ops))
    schema, _renames, added = resolve_schema_ops(_DISPLAY, ops)
    cols = [rows[c] for c in _DISPLAY] + unpack_added(rows["extra_json"], added)
    return pa.Table.from_arrays(cols, names=schema).to_pylist()


@pytest.mark.parametrize("seed", range(12))
def test_fold_kernel_matches_oracle_on_random_ddl(seed):
    g = _Gen(seed)
    base = g.base()
    events = g.epoch(0, 150) + g.epoch(1, 150)
    kinds = {e["schema_kind"] for e in events}
    assert {"add_column", "rename_column"} <= kinds
    cfg = ReplayConfig(num_partitions=1, strategy=(
        "replace_only" if seed % 2 else "replace_and_add"))
    want = oracle.replay(base.to_pylist(), events, cfg)
    got = _fold_public_rows(base, events, cfg, g.ops)
    assert _norm(got) == _norm(want["final"])


@pytest.fixture(scope="module")
def ddl_table(tmp_path_factory):
    """Two epochs of random DDL on disk; epoch 1 also addresses the local
    ids epoch 0 allocated. Returns (fixture dir, base rows, events)."""
    root = str(tmp_path_factory.mktemp("fold_kernel"))
    g = _Gen(2024, n_keys=40)
    base = g.base()
    e0 = g.epoch(0, 260)
    local_ids = [r["doc_id"] for r in oracle.replay(
        base.to_pylist(), e0, ReplayConfig(num_partitions=4))["final"]
        if r["status"] == "local"]
    assert local_ids
    e1 = g.epoch(1, 260, extra_keys=local_ids * 4)
    assert any(e["doc_id"] in local_ids for e in e1 if e["op"] == "update")
    assert {"add_column", "rename_column", "drop_column"} <= {
        e["schema_kind"] for e in e0 + e1}
    os.makedirs(os.path.join(root, "base"))
    pq.write_table(base, os.path.join(root, "base", "part-0.parquet"))
    for e, evs in enumerate((e0, e1)):
        d = os.path.join(root, "binlog", f"epoch={e}")
        os.makedirs(d)
        pq.write_table(pa.Table.from_pylist(evs, _BINLOG_SCHEMA),
                       os.path.join(d, "part-0.parquet"))
    return root, base.to_pylist(), e0 + e1


@pytest.mark.parametrize("salts,strategy", [(1, "replace_and_add"),
                                            (4, "replace_only")])
def test_replayer_matches_oracle_on_random_ddl(ray_session, tmp_path,
                                               ddl_table, salts, strategy):
    root, base_rows, events = ddl_table
    cfg = ReplayConfig(num_partitions=4, num_salts=salts, strategy=strategy)
    rp = Replayer(str(tmp_path / "t"), cfg,
                  base_path=os.path.join(root, "base"))
    for e in range(2):
        rp.apply_epoch(e, os.path.join(root, "binlog", f"epoch={e}"))
    o = oracle.replay(base_rows, events, cfg)
    want = _norm(o["final"])
    assert len({r["doc_id"] for r in want}) == len(want)
    assert rp.read_state().schema().names == o["schema"]
    assert _norm(rp.read_state().take_all()) == want
    assert any(r["status"] == "local" for r in want)

    # key-filtered lookup: a local id that later updates address (no-ops
    # before a compaction materializes it), two keys and an absent key
    by_id = {r["doc_id"]: r for r in want}
    local = [e["doc_id"] for e in events
             if e["op"] == "update" and e["doc_id"] in by_id
             and e["doc_id"].startswith(cfg.local_id_prefix)]
    assert local
    keys = sorted({local[0], want[0]["doc_id"], want[len(want) // 2]["doc_id"],
                   "1999999"})
    assert _norm(rp.lookup(keys).take_all()) == [
        by_id[k] for k in keys if k in by_id]

    # payload projections: a base column, added columns, and no payload
    added = [c for c in o["schema"] if c not in _DISPLAY]
    assert added
    for cols in (["doc_id", "n_tok", *added[-2:]], ["doc_id", added[0]],
                 ["doc_id", "status"]):
        assert _norm(rp.read_state(columns=cols).take_all()) == [
            {c: r[c] for c in cols} for r in want], cols


# added-column values that are not JSON strings: the fold extracts each
# with json_path_match (numbers, booleans, lists and objects come back as
# their JSON text) and packs the results as strings, so a read returns
# exactly these strings
_ODD_VALUES = {
    "int": (5, "5"),
    "float": (1.5, "1.5"),
    "bool": (True, "true"),
    "list": ([1, 2], "[1,2]"),
    "nested": ([[1], {"a": [2, "x"]}], '[[1],{"a":[2,"x"]}]'),
    "object": ({"c": 1}, '{"c":1}'),
    "quotes": ('say "hi"\\n', 'say "hi"\\n'),
    "unicode": ("é☃é", "é☃é"),
}


def _odd_table(root: str, num_salts: int):
    base = pa.Table.from_pylist(
        [{"doc_id": "1000001", "tokens": [1], "n_tok": 1, "source": "b"},
         {"doc_id": "1000002", "tokens": [2], "n_tok": 1, "source": "b"}],
        _BASE_SCHEMA)
    events, lsn = [], 1
    for c in _ODD_VALUES:
        events.append(_ev(lsn, 0, "schema_change", kind="add_column", name=c))
        lsn += 1
    for c, (v, _) in _ODD_VALUES.items():
        # updates carry the value on 1000001; an insert anchors it on 1000003
        events.append(_ev(lsn, 0, "update", doc_id="1000001", mask=[c],
                          extra=json.dumps({c: v}, ensure_ascii=False)))
        lsn += 1
    events.append(_ev(lsn, 0, "insert", doc_id="1000003", tokens=[3],
                      source="i", extra=json.dumps(
                          {c: v for c, (v, _) in _ODD_VALUES.items()})))
    os.makedirs(os.path.join(root, "in", "base"))
    pq.write_table(base, os.path.join(root, "in", "base", "part-0.parquet"))
    d = os.path.join(root, "in", "binlog", "epoch=0")
    os.makedirs(d)
    pq.write_table(pa.Table.from_pylist(events, _BINLOG_SCHEMA),
                   os.path.join(d, "part-0.parquet"))
    rp = Replayer(os.path.join(root, "t"), ReplayConfig(
        num_partitions=2, num_salts=num_salts),
        base_path=os.path.join(root, "in", "base"))
    rp.apply_epoch(0, d)
    return rp


@pytest.mark.parametrize("salts", [1, 4])
def test_non_string_added_values_read_as_their_json_text(
        ray_session, tmp_path, salts):
    rp = _odd_table(str(tmp_path), salts)
    want = {c: s for c, (_, s) in _ODD_VALUES.items()}
    rows = {r["doc_id"]: r for r in rp.read_state().take_all()}
    for doc in ("1000001", "1000003"):
        assert {c: rows[doc][c] for c in want} == want, doc
    assert {c: rows["1000002"][c] for c in want} == dict.fromkeys(want)
    looked = rp.lookup(["1000001"]).take_all()
    assert {c: looked[0][c] for c in want} == want
    rp.compact()
    after = {r["doc_id"]: r for r in rp.read_state().take_all()}
    assert after == rows
