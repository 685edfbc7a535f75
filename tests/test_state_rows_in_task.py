"""read_state / lookup fold straight to public rows: each per-bucket fold
task runs the postprocess chain over its rows
(schema evolution, policy plugins, generated columns, projection) itself.

Parity: the Datasets equal ``_postprocess_table`` applied on the driver to
the materialized raw ``fold_output()`` rows. Guard: they are bare
``FromArrow`` inputs — no Ray Data ``Filter``/``MapBatches`` stage on top.
"""

import glob
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from marc_data_migration_ray.config import ReplayConfig
from marc_data_migration_ray.functions.keys import hash_partition
from marc_data_migration_ray.pipelines.replay import Replayer
from marc_data_migration_ray.sources import fixtures

N_EPOCHS = 2
PLUGIN = "marc_data_migration_ray.plugins.site_policy"
CASES = {
    "ddl": {},
    "policy": {"policy_plugins": (PLUGIN,)},
    "salted": {"num_salts": 2},
    "vcol": {},
}


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("rows_in_task_fixture"))
    # ~1% schema events: adds of extra_* columns and renames (source and
    # added columns) land in both epochs
    fixtures.write_fixture(root, n_rows=150, n_events=1000, n_epochs=N_EPOCHS,
                           seed=11, schema_change_frac=0.01)
    return root


def _replay(fixture_dir, root, cfg, n_epochs=N_EPOCHS):
    rp = Replayer(root, cfg, base_path=os.path.join(fixture_dir, "base"))
    for e in range(n_epochs):
        rp.apply_epoch(e, os.path.join(fixture_dir, "binlog", f"epoch={e}"))
    return rp


@pytest.fixture(scope="module", params=sorted(CASES))
def table(request, ray_session, fixture_dir, tmp_path_factory):
    cfg = ReplayConfig(num_partitions=4, **CASES[request.param])
    rp = _replay(fixture_dir, str(tmp_path_factory.mktemp(request.param)),
                 cfg)
    if request.param == "vcol":
        rp.set_virtual_column("tok_score", "n_tok * 3 + 7", inputs=["n_tok"])
    return rp


def _materialize(ds) -> pa.Table:
    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def _expected(rp, keys=None, up_to_epoch=None, up_to_lsn=None, columns=None):
    raw = _materialize(rp.fold_output(up_to_epoch, up_to_lsn))
    if keys is not None:
        raw = raw.filter(pc.is_in(raw["doc_id"],
                                  value_set=pa.array(keys, pa.string())))
    return rp._postprocess_table(raw, up_to_epoch, up_to_lsn, columns=columns)


def _assert_same(ds, want: pa.Table):
    got = _materialize(ds).sort_by("doc_id")
    want = want.sort_by("doc_id")
    assert got.schema.names == want.schema.names
    assert got.schema.types == want.schema.types
    assert got.to_pylist() == want.to_pylist()


def _cut_lsn(fixture_dir) -> int:
    """An lsn in the middle of the last epoch (mid-epoch time travel)."""
    files = glob.glob(os.path.join(fixture_dir, "binlog",
                                   f"epoch={N_EPOCHS - 1}", "*.parquet"))
    lsns = sorted(v for f in files
                  for v in pq.ParquetFile(f).read(["lsn"])["lsn"].to_pylist())
    return lsns[len(lsns) // 2]


def _renamed_and_added(rp) -> tuple[str, str]:
    names = rp.read_state().schema().names
    renamed = [n for n in names if n.startswith("renamed_")]
    added = [n for n in names if n.startswith("extra_")]
    assert renamed and added, names  # the fixture must exercise DDL
    return renamed[0], added[0]


def test_read_state_matches_driver_chain(table, fixture_dir):
    renamed, added = _renamed_and_added(table)
    cols = ["doc_id", renamed, "n_tok", added]
    if table.virtual_columns():
        cols.append("tok_score")
    for kw in ({}, {"up_to_epoch": 0}, {"up_to_lsn": _cut_lsn(fixture_dir)},
               {"columns": cols}, {"columns": [renamed, "doc_id"]}):
        _assert_same(table.read_state(**kw), _expected(table, **kw))


def test_lookup_matches_driver_chain(table, fixture_dir):
    ids = sorted(_materialize(table.read_state(columns=["doc_id"]))
                 ["doc_id"].to_pylist())
    keys = ids[::7][:12] + ["no-such-key"]
    renamed, added = _renamed_and_added(table)
    for kw in ({}, {"columns": ["doc_id", renamed, added]},
               {"up_to_lsn": _cut_lsn(fixture_dir)}):
        got = table.lookup(keys, **kw)
        _assert_same(got, _expected(table, keys=keys, **kw))
    assert table.lookup(keys).count() == len(keys) - 1


def test_state_datasets_are_bare_fold_outputs(table):
    """No Ray Data operator may come back on top of the fold tasks."""
    for ds in (table.read_state(), table.read_state(columns=["doc_id"]),
               table.lookup(["1000001", "1000002"])):
        dag = ds._logical_plan.dag
        assert type(dag).__name__ == "FromArrow", dag
        assert not dag.input_dependencies, dag


def test_lookup_of_unpopulated_partitions_is_empty_state(
        ray_session, tmp_path):
    """Keys that route to no partition with data: zero rows, read_state's
    schema, and still no operator on top."""
    fx = str(tmp_path / "fx")
    fixtures.write_fixture(fx, n_rows=6, n_events=10, n_epochs=1, seed=3)
    rp = _replay(fx, str(tmp_path / "t"), ReplayConfig(num_partitions=64),
                 n_epochs=1)
    rp.set_virtual_column("tok_score", "n_tok * 3 + 7", inputs=["n_tok"])
    _, base_by_part, delta_by_part = rp._fold_layout()
    populated = set(base_by_part) | set(delta_by_part)
    cands = [f"zz{i}" for i in range(2000)]
    parts = hash_partition(pa.array(cands, pa.string()), 64).to_pylist()
    keys = [k for k, p in zip(cands, parts) if p not in populated][:3]
    assert keys, "every partition is populated; shrink the fixture"
    assert rp._fold_part_refs(only_parts=rp._parts_for_keys(keys)) == {}
    ds = rp.lookup(keys)
    assert ds.count() == 0
    assert type(ds._logical_plan.dag).__name__ == "FromArrow"
    state = rp.read_state().schema()
    got = ds.schema()
    assert (got.names, got.types) == (state.names, state.types)
    proj = rp.lookup(keys, columns=["tok_score", "doc_id"]).schema()
    assert proj.names == ["tok_score", "doc_id"]
