"""Self-tests of the benchmark: smoke-size runs of every workload, the
correctness gate on a planted wrong digest, the oracle speed-up, and the
span arithmetic.

Run from the repository root: ``python -m pytest perfbench -q`` (a few
minutes: each smoke run starts its own Ray).
"""

from __future__ import annotations

import copy
import glob
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

ROOT = run.ROOT
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def _bench(*args: str, cwd: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


def _smoke(workload: str, trace: int, *extra: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr[-3000:]
    return proc.returncode, json.loads(lines[-1])


def _assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    rc, res = _smoke(workload, 0)
    assert rc == 0 and res["correct"] and res["failed"] == 0
    assert res["attempted"] >= 1
    _assert_metrics(res, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_smoke_run_reports_every_per_layer_metric():
    rc, res = _smoke("ddl_evolve", 1)
    assert rc == 0 and res["correct"]
    _assert_metrics(res, SPEC["per_layer"])
    spans = os.path.join(run.WORK, "out", "spans-ddl_evolve-s3.jsonl")
    with open(spans) as f:
        names = {json.loads(line)["name"] for line in f}
    assert {"epoch", "Replayer.prepare_epoch", "pwrite.write",
            "Manifest.commit_epoch"} <= names


def test_gate_fails_on_a_planted_wrong_digest(tmp_path):
    tag = workloads.shape_tag(workloads.SMOKE["bulk_replay"])
    wrong = {"bulk_replay": {tag: {"3": {"rows": 1, "sha256": "0" * 64}}}}
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(wrong))
    rc, res = _smoke("bulk_replay", 0, "--digests", str(path))
    assert rc == 1 and not res["correct"] and res["failed"] >= 1


def test_exits_nonzero_without_the_engine(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines = _bench("--workload", "bulk_replay", "--seed", "1",
                       "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert rc != 0 and lines == []


def test_stop_descendants_ends_an_orphan_that_ignores_sigterm():
    # the shell exits at once, so its subshell is re-parented to the
    # subreaper; it ignores SIGTERM, so only SIGKILL ends it
    script = (
        "import subprocess, sys, time\n"
        "import run\n"
        "run.become_subreaper()\n"
        "subprocess.run(['sh', '-c', \"(trap '' TERM; sleep 60) & exit 0\"])\n"
        "time.sleep(0.3)\n"
        "orphans = run.descendants(run.os.getpid())\n"
        "left = run.stop_descendants(grace_s=0.2)\n"
        "print(len(orphans), left)\n")
    proc = subprocess.run([sys.executable, "-c", script], cwd=os.path.dirname(__file__),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    n_orphans, left = proc.stdout.split(maxsplit=1)
    assert int(n_orphans) >= 1 and left.strip() == "[]"


def test_indexed_reroute_replays_like_the_oracle(tmp_path):
    from marc_data_migration_ray import oracle
    from marc_data_migration_ray.sources import fixtures

    fixtures.write_fixture(str(tmp_path), n_rows=300, n_events=3000, n_epochs=2, seed=5)
    base = workloads._read_table(glob.glob(str(tmp_path / "base" / "*.parquet"))).to_pylist()
    events = workloads._read_table(
        glob.glob(str(tmp_path / "binlog" / "*" / "*.parquet"))).to_pylist()
    cfg = workloads.replay_config(workloads.SMOKE["bulk_replay"])
    want = oracle.replay(copy.deepcopy(base), copy.deepcopy(events), cfg)
    saved = oracle._reroute
    oracle._reroute = workloads.indexed_reroute()
    try:
        got = oracle.replay(base, events, cfg)
    finally:
        oracle._reroute = saved
    assert any(a["route"] == "noop" for a in want["audit"])
    assert got["final"] == want["final"] and got["audit"] == want["audit"]
    assert got["metrics"] == want["metrics"]


def test_self_time_subtracts_child_coverage():
    t = tracing.Tracer()
    t.spans = [
        {"id": 0, "name": "op", "parent": None, "op": 0, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "a", "parent": 0, "op": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "b", "parent": 0, "op": 0, "start": 3.0, "end": 6.0},
        {"id": 3, "name": "c", "parent": 1, "op": 0, "start": 2.0, "end": 3.0},
    ]
    assert t.self_times() == {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0}


def test_tail_has_ten_samples_beyond_it():
    assert run.percentile_tail(list(range(10))) is None
    tail = run.percentile_tail(list(range(40)))
    assert tail["pct"] == 75.0 and tail["value"] == 29 and tail["n"] == 40
