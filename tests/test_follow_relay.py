"""follow --relay-dest / --maintain-every: streaming ingest that also
egresses a payload change feed per applied epoch and runs auto-
maintenance on a cadence.

Invariants:
* each relayed epoch dir is a valid export (e-1 → e, payload) that a
  replica restored from the epoch-0 snapshot can apply in sequence,
  ending bit-equal (payload rows) to the source head state — even though
  maintenance COMPACTED the source mid-stream;
* --maintain-every K actually ran (actions logged) and the source state
  is unaffected.
"""

import json
import os
import subprocess
import sys

from marc_data_migration_ray.config import ReplayConfig
from marc_data_migration_ray.pipelines.replay import Replayer
from marc_data_migration_ray.sources import fixtures

N_EPOCHS = 4


def _payload_rows(rp, **kw):
    return sorted(
        (r["doc_id"], list(r["tokens"] or []), r["n_tok"], r["source"])
        for r in rp.read_state(**kw).take_all()
    )


def test_follow_relay_and_maintain(ray_session, tmp_path):
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    fix = str(tmp_path / "fix")
    fixtures.write_fixture(fix, n_rows=80, n_events=600, n_epochs=N_EPOCHS,
                           seed=71, invalid_key_frac=0.0,
                           schema_change_frac=0.0)
    table = str(tmp_path / "t")
    relay = str(tmp_path / "relay")
    cfg = ReplayConfig(num_partitions=4)

    # epoch 0 lands first so the replica can bootstrap from its snapshot
    # BEFORE streaming (maintenance will compact past it mid-stream)
    src0 = Replayer(table, cfg, base_path=os.path.join(fix, "base"))
    src0.apply_epoch(0, os.path.join(fix, "binlog", "epoch=0"))
    exp0 = str(tmp_path / "exp0")
    src0.export_snapshot(exp0, up_to_epoch=0)

    r = subprocess.run(
        [sys.executable, "-m", "marc_data_migration_ray", "follow",
         "--table", table, "--binlog-root", os.path.join(fix, "binlog"),
         "--num-partitions", "4",
         "--until-epoch", str(N_EPOCHS - 1), "--poll", "0.1",
         "--relay-dest", relay, "--maintain-every", "2"],
        capture_output=True, text=True, env=env, cwd="/root/repo", timeout=420,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    lines = [json.loads(x) for x in r.stdout.strip().splitlines()]
    applied = [x for x in lines if "applied_epoch" in x]
    assert [x["applied_epoch"] for x in applied] == list(range(1, N_EPOCHS))
    # relay present for every epoch > 0, with the export manifest on disk
    for x in applied:
        e = x["applied_epoch"]
        assert x["relay"]["epoch"] == e
        info = json.loads(open(
            os.path.join(relay, f"epoch={e}", "_EXPORT.json")).read())
        assert (info["from_epoch"], info["to_epoch"]) == (e - 1, e)
        assert info["with_payload"] is True
    # maintenance ran on the cadence (after epochs 1 and 3) and did work
    maint = [x["maintain"] for x in applied if "maintain" in x]
    assert len(maint) == 2 and any(a for a in maint), maint
    # index-on-ingest: every retained delta file has a keybloom sidecar
    import glob as _glob

    from marc_data_migration_ray.pipelines.replay import _KEYBLOOM_SUFFIX
    pq_files = _glob.glob(os.path.join(table, "deltas", "**", "*.parquet"),
                          recursive=True)
    assert pq_files and all(
        os.path.exists(f + _KEYBLOOM_SUFFIX) for f in pq_files)

    src = Replayer(table, cfg)

    # replica: epoch-0 snapshot + the relayed feeds in order == source head.
    # NOTE: the source was compacted mid-stream by --maintain-every, so
    # this also proves relay feeds straddle maintenance safely.
    rep = Replayer(str(tmp_path / "replica"), ReplayConfig(num_partitions=3),
                   base_path=exp0)
    at = 0
    for e in range(1, N_EPOCHS):
        res = rep.apply_change_feed(os.path.join(relay, f"epoch={e}"), epoch=at)
        at = max(res["epochs"]) + 1
    assert _payload_rows(rep) == _payload_rows(src)
