"""Key-bloom file-skipping sidecars: point lookups skip delta files the
bitmap proves key-free, with identical results (no false negatives by
construction), and files holding keyless rows are never pruned (the
positional local-id allocator must always see them).
"""

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from marc_data_migration_ray.config import ReplayConfig
from marc_data_migration_ray.functions.keys import normalize_keys
from marc_data_migration_ray.pipelines.replay import (
    _KEYBLOOM_SUFFIX,
    _prune_by_keybloom,
    Replayer,
)
from marc_data_migration_ray.sources import fixtures

N_EPOCHS = 3


def _replay(root, fdir, cfg):
    rp = Replayer(root, cfg, base_path=os.path.join(fdir, "base"))
    for e in range(N_EPOCHS):
        rp.apply_epoch(e, os.path.join(fdir, "binlog", f"epoch={e}"))
    return rp


def _pop_sidecars(root):
    """Delete the sidecars ingest wrote, so the table stands for one
    written by older code (no sidecars); return their bytes by path."""
    out = {}
    for sc in glob.glob(os.path.join(root, "**", "*" + _KEYBLOOM_SUFFIX),
                        recursive=True):
        with open(sc, "rb") as f:
            out[sc] = f.read()
        os.remove(sc)
    assert out, "ingest must write a sidecar per delta file"
    return out


def _epoch_keys(fdir, e):
    out = set()
    d = os.path.join(fdir, "binlog", f"epoch={e}")
    for f in sorted(os.listdir(d)):
        t = pq.read_table(os.path.join(f"{d}", f), columns=["doc_id", "op"])
        ids = [x for x, o in zip(t["doc_id"].to_pylist(), t["op"].to_pylist())
               if x is not None and o != "schema_change"]
        ks = normalize_keys(pa.array(ids, pa.string()))
        out.update(k for k in ks.to_pylist() if k)
    return out


def test_lookup_identical_and_files_skipped(ray_session, tmp_path):
    fdir = str(tmp_path / "fx")
    # keyless rows (invalid keys, global schema events) set the sidecar's
    # conservative keep-flag — exclude both so skipping is sharply testable
    fixtures.write_fixture(fdir, n_rows=100, n_events=700, n_epochs=N_EPOCHS,
                           seed=91, invalid_key_frac=0.0,
                           schema_change_frac=0.0)
    rp = _replay(str(tmp_path / "t"), fdir, ReplayConfig(num_partitions=4))
    ingest_sidecars = _pop_sidecars(str(tmp_path / "t"))
    # a key seen only in epoch 2
    only_e2 = sorted(_epoch_keys(fdir, 2) - _epoch_keys(fdir, 0)
                     - _epoch_keys(fdir, 1))
    assert only_e2
    k = only_e2[0]
    some_keys = sorted(_epoch_keys(fdir, 0))[:5] + [k, "no-such-key"]
    before = {kk: rp.lookup([kk]).take_all() for kk in some_keys}
    hist_before = rp.doc_history(k).to_pylist()

    rep = rp.build_key_blooms()
    assert rep["built"] == rep["files"] > 0
    assert rp.build_key_blooms()["built"] == 0  # idempotent
    # the backfill writes byte for byte what ingest wrote
    backfilled = {}
    for sc in ingest_sidecars:
        with open(sc, "rb") as f:
            backfilled[sc] = f.read()
    assert backfilled == ingest_sidecars

    for kk in some_keys:
        assert rp.lookup([kk]).take_all() == before[kk], kk
    assert rp.doc_history(k).to_pylist() == hist_before

    # the sidecars actually skip: epoch-0/1 files cannot contain k
    e01 = glob.glob(os.path.join(str(tmp_path / "t"), "deltas", "epoch=0",
                                 "**", "*.parquet"), recursive=True) \
        + glob.glob(os.path.join(str(tmp_path / "t"), "deltas", "epoch=1",
                                 "**", "*.parquet"), recursive=True)
    want = pa.array([k], pa.string())
    assert _prune_by_keybloom(e01, want, keep_keyless=True) == []
    # and keep every file that holds a wanted epoch-0 key
    k0 = sorted(_epoch_keys(fdir, 0))[0]
    kept = _prune_by_keybloom(e01, pa.array([k0], pa.string()),
                              keep_keyless=True)
    assert any(
        k0 in set(pq.read_table(f, columns=["key"])["key"].to_pylist())
        for f in kept
    )


def test_keyless_files_never_pruned(ray_session, tmp_path):
    fdir = str(tmp_path / "fx")
    # default invalid_key_frac > 0: some events are keyless (local route)
    fixtures.write_fixture(fdir, n_rows=80, n_events=600, n_epochs=2, seed=13)
    rp = Replayer(str(tmp_path / "t"), ReplayConfig(num_partitions=4),
                  base_path=os.path.join(fdir, "base"))
    for e in range(2):
        rp.apply_epoch(e, os.path.join(fdir, "binlog", f"epoch={e}"))
    rp.build_key_blooms()
    files = glob.glob(os.path.join(str(tmp_path / "t"), "deltas", "**",
                                   "*.parquet"), recursive=True)
    keyless = [f for f in files
               if pq.read_table(f, columns=["key"])["key"].null_count > 0]
    assert keyless, "fixture must produce keyless rows"
    kept = _prune_by_keybloom(keyless, pa.array(["zz-no-such"], pa.string()),
                              keep_keyless=True)
    assert kept == keyless  # allocation-bearing files survive any prune
    # without the allocation guard the same files WOULD be pruned
    assert _prune_by_keybloom(keyless, pa.array(["zz-no-such"], pa.string()),
                              keep_keyless=False) == []
    # end-to-end state is unchanged by the sidecars (full fold ignores them)
    assert rp.read_state().count() > 0


def test_missing_or_torn_sidecar_is_kept(ray_session, tmp_path):
    fdir = str(tmp_path / "fx")
    fixtures.write_fixture(fdir, n_rows=40, n_events=200, n_epochs=1, seed=7,
                           invalid_key_frac=0.0)
    rp = Replayer(str(tmp_path / "t"), ReplayConfig(num_partitions=2),
                  base_path=os.path.join(fdir, "base"))
    rp.apply_epoch(0, os.path.join(fdir, "binlog", "epoch=0"))
    _pop_sidecars(str(tmp_path / "t"))
    files = glob.glob(os.path.join(str(tmp_path / "t"), "deltas", "**",
                                   "*.parquet"), recursive=True)
    w = pa.array(["nope"], pa.string())
    assert _prune_by_keybloom(files, w, keep_keyless=True) == files  # no sidecars
    rp.build_key_blooms()
    with open(files[0] + _KEYBLOOM_SUFFIX, "wb") as f:
        f.write(b"torn")
    assert files[0] in _prune_by_keybloom(files, w, keep_keyless=True)
