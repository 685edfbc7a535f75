"""Wide-row robustness (SURVEY §7.4): token arrays dominating bytes.

Rows here average ~20k int32 tokens (~80 KB payload/row, 500x the default
fixture) — the regime where batch sizing must be byte-budgeted. The
replay must stay bit-exact vs the oracle, and the payload must survive
compaction and the payload change feed unchanged.
"""

import os

import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from marc_data_migration_ray import oracle
from marc_data_migration_ray.config import ReplayConfig
from marc_data_migration_ray.pipelines.replay import Replayer
from marc_data_migration_ray.sources import fixtures

MEAN_TOKENS = 20_000
N_ROWS = 120
N_EVENTS = 400
N_EPOCHS = 2


@pytest.fixture(scope="module")
def wide_dir(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("wide_fixture"))
    base = fixtures.make_base_table(
        n_rows=N_ROWS, seed=83, mean_tokens=MEAN_TOKENS)
    binlog = fixtures.make_binlog(
        n_events=N_EVENTS, n_base_rows=N_ROWS, seed=87, n_epochs=N_EPOCHS,
        mean_tokens=MEAN_TOKENS, invalid_key_frac=0.0, schema_change_frac=0.0)
    os.makedirs(os.path.join(root, "base"), exist_ok=True)
    pq.write_table(base, os.path.join(root, "base", "part-0.parquet"))
    for e in range(N_EPOCHS):
        d = os.path.join(root, "binlog", f"epoch={e}")
        os.makedirs(d, exist_ok=True)
        pq.write_table(binlog.filter(pc.equal(binlog["epoch"], e)),
                       os.path.join(d, "part-0.parquet"))
    return root


def _events(root):
    evs = []
    for e in range(N_EPOCHS):
        d = os.path.join(root, "binlog", f"epoch={e}")
        for f in sorted(os.listdir(d)):
            evs += pq.read_table(os.path.join(d, f)).to_pylist()
    return evs


def test_wide_rows_replay_bit_exact(ray_session, tmp_path, wide_dir):
    cfg = ReplayConfig(num_partitions=4)
    rp = Replayer(str(tmp_path / "t"), cfg,
                  base_path=os.path.join(wide_dir, "base"))
    for e in range(N_EPOCHS):
        rp.apply_epoch(e, os.path.join(wide_dir, "binlog", f"epoch={e}"))
    eng = sorted(rp.read_state().take_all(), key=lambda r: r["doc_id"])
    o = oracle.replay(
        pq.read_table(os.path.join(wide_dir, "base")).to_pylist(),
        _events(wide_dir), cfg)
    assert len(eng) == len(o["final"]) > 0
    total_tok = 0
    for a, b in zip(eng, o["final"]):
        ta = list(a["tokens"] or [])
        assert ta == list(b["tokens"] or []), a["doc_id"]
        total_tok += len(ta)
    assert total_tok > N_ROWS * MEAN_TOKENS // 4  # genuinely wide

    # wide payloads ride the payload change feed intact (before the
    # compaction moves the floor past epoch 0)
    feed = rp.changes_between(0, 1, with_payload=True).take_all()
    state = {r["doc_id"]: list(r["tokens"] or []) for r in eng}
    changed = 0
    for r in feed:
        if r["change"] in ("insert", "update"):
            assert list(r["tokens_after"]) == state[r["doc_id"]], r["doc_id"]
            changed += 1
    assert changed > 0

    # and survive compaction unchanged
    rp.compact()
    eng2 = sorted(rp.read_state().take_all(), key=lambda r: r["doc_id"])
    for a, b in zip(eng2, o["final"]):
        assert list(a["tokens"] or []) == list(b["tokens"] or [])


def test_partitioned_write_beyond_1024_partitions(ray_session, tmp_path):
    """The 100M-event probe's 2560-partition layout died in Ray's
    ParquetDatasink (pyarrow default max_partitions=1024). The
    engine's own sink writes one file per partition with no cap; the
    layout stays hive-compatible with plain write_parquet."""
    import os

    import pyarrow as pa
    import ray.data

    from marc_data_migration_ray.sources.pwrite import (
        write_parquet_partitioned)

    n = 3000
    t = pa.table({"part_p": pa.array(range(n), pa.int32()),
                  "v": pa.array(range(n), pa.int64())})
    dest = str(tmp_path / "wide")
    # single block spanning 3000 partitions — the exact failing shape
    write_parquet_partitioned(
        ray.data.from_arrow(t).repartition(1), dest, ["part_p"])
    dirs = [d for d in os.listdir(dest) if d.startswith("part_p=")]
    assert len(dirs) == n
    got = ray.data.read_parquet(dest).count()
    assert got == n


def test_partitioned_write_sorts_above_threshold(ray_session, tmp_path):
    """Above SORT_ABOVE_PARTITIONS the helper co-locates rows by the
    partition key before writing, so file count stays ~max(blocks,
    partitions) instead of blocks x partitions; content is unchanged."""
    import os

    import pyarrow as pa
    import ray.data

    from marc_data_migration_ray.sources.pwrite import (
        write_parquet_partitioned)

    n_parts, per = 1300, 5
    t = pa.table({
        "part_p": pa.array([i % n_parts for i in range(n_parts * per)],
                           pa.int32()),
        "v": pa.array(range(n_parts * per), pa.int64()),
    })
    dest = str(tmp_path / "sorted")
    # MANY blocks, every block touching every partition — worst case
    write_parquet_partitioned(
        ray.data.from_arrow(t).repartition(16), dest, ["part_p"],
        expected_partitions=n_parts)
    files = sum(len(fs) for _, _, fs in os.walk(dest))
    assert files <= n_parts + 32, files  # not 16 x 600
    got = ray.data.read_parquet(dest)
    assert got.count() == n_parts * per
    assert got.sum("v") == sum(range(n_parts * per))
