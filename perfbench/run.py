"""Engine benchmark: one closed-loop client driving the replay engine.

Run from the repository root:

    python3 perfbench/run.py --workload bulk_replay --seed 1 --seconds 20 --trace 0

Workloads, metrics and bounds are declared in ``BENCHMARK.json``; the
reasoning behind them is in ``perfbench/README.md``. The run

1. writes the seeded fixture with ``sources.fixtures`` and computes the
   expected answers with the pure-Python ``oracle`` (in a child process,
   cached per seed under ``.perfbench/``);
2. starts Ray with one CPU (``CPUS``) and one polars/OpenMP thread per
   task, and sets up one table, untimed, to warm the worker;
3. times ``SETUPS`` table set-ups, then repeats rounds until ``--seconds``
   is spent (at least one). A round applies every epoch, interleaving
   lookups and lineage calls as the plan says, reads the full and a
   projected state ``READS`` times, runs ``maintain()`` ``MAINTAINS``
   times and a last batch of lookups. Operations are timed in CPU
   seconds of this process and its Ray processes (``cpu_s_since``), which
   time the host steals from the machine does not inflate, and reported
   scaled to a reference speed (``RefTask``). Every output is checked
   against the oracle, a recorded digest or a second read path;
4. prints one report line, then one result line as the last line:
   end-to-end metrics with ``--trace 0``, per-layer metrics with
   ``--trace 1``. A traced run alternates traced and untraced rounds, so
   it also reports the tracing overhead, and writes its spans to
   ``.perfbench/out/``.

Exit status is 0 when every operation succeeded and every check passed,
1 when one did not, 2 when the engine package is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
#: a run stops starting rounds after this long, whatever --seconds says
HARD_STOP_S = 140.0
#: full reads, each followed by a projected read, per round
READS = 4
#: maintain() calls per round; all but one run on clones of the table
MAINTAINS = 3
#: timed table set-ups per run (setup_s is their median)
SETUPS = 3
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: CPU seconds of one reference task (``RefTask``) on the tuning host;
#: operation times are reported scaled to that speed
REF_TASK_S = 0.05
#: Ray's CPU count, pinned: ingest writes 2 x CPUs blocks, so the table
#: layout (files per partition, and what maintain() decides) would
#: otherwise change with the machine
CPUS = 1


# --------------------------------------------------------------------- #
# CPU time and peak RSS of this process and its Ray processes, from /proc
# --------------------------------------------------------------------- #
def descendants(root: int) -> list[int]:
    kids: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids.setdefault(ppid, []).append(int(d))
    out, todo = [], [root]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def cpu_ticks() -> dict[int, int]:
    """CPU clock ticks (user + system, reaped children included) used so
    far by this process and each of its descendants: the Ray head processes
    and workers. Time the host steals from the virtual machine is not in
    it."""
    ticks = {}
    for pid in (os.getpid(), *descendants(os.getpid())):
        try:
            with open(f"/proc/{pid}/stat") as f:
                # utime, stime, cutime, cstime
                ticks[pid] = sum(int(x) for x in f.read().rsplit(")", 1)[1].split()[11:15])
        except (OSError, IndexError, ValueError):
            pass
    return ticks


def cpu_s_since(before: dict[int, int]) -> float:
    """CPU seconds used since ``before`` by the processes alive now. A
    process that ended in between is left out: Ray does not collect its
    ticks into a parent's, so subtracting them would lose them and could
    make the figure negative."""
    now = cpu_ticks()
    return sum(t - before.get(pid, 0) for pid, t in now.items()) / CLOCK_TICKS


# --------------------------------------------------------------------- #
# every process the run starts ends before it does
# --------------------------------------------------------------------- #
def become_subreaper() -> None:
    """Adopt orphaned descendants: Ray workers and agents whose raylet has
    exited are re-parented to this process, not to init, so
    ``stop_descendants`` still finds them and can reap them."""
    try:
        ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit, so a terminated run still shuts Ray
    down and stops what it started. ``ray.init`` installs its own handler,
    so this is set again after it."""
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))


def reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_descendants(grace_s: float = 5.0) -> list[int]:
    """Wait until every descendant of this process has ended and is reaped:
    after ``grace_s`` send SIGTERM, after twice that SIGKILL. Returns the
    pids still present after that (none, unless a process ignores SIGKILL)."""
    t0 = time.monotonic()
    sent = None
    while True:
        reap()
        left = descendants(os.getpid())
        waited = time.monotonic() - t0
        if not left or waited > 4 * grace_s:
            return left
        sig = (signal.SIGKILL if waited > 2 * grace_s
               else signal.SIGTERM if waited > grace_s else None)
        if sig is not None and sig != sent:
            for pid in left:
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
            sent = sig
        time.sleep(0.05)


class RssSampler:
    def __init__(self, period_s: float = 0.5) -> None:
        self.period_s = period_s
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    @staticmethod
    def _rss(pid: int) -> int:
        # proportional set size: pages shared with other processes (the
        # object store mapping, shared libraries) count once across the sum
        try:
            with open(f"/proc/{pid}/smaps_rollup") as f:
                for line in f:
                    if line.startswith("Pss:"):
                        return int(line.split()[1]) * 1024
        except (OSError, IndexError, ValueError):
            pass
        return 0

    @staticmethod
    def _is_worker(pid: int) -> bool:
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read()
        except OSError:
            return False
        return cmd.startswith(b"ray::") or b"default_worker.py" in cmd

    def sample(self) -> int:
        me = os.getpid()
        total = self._rss(me) + sum(
            self._rss(p) for p in descendants(me) if self._is_worker(p))
        self.peak = max(self.peak, total)
        return total

    def _run(self) -> None:
        while not self._stop.wait(self.period_s):
            self.sample()

    def __enter__(self):
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)
        self.sample()


class RefTask:
    """A fixed task whose CPU time follows how fast the host runs this
    machine right now: two streaming reads and a random gather over 32 MB,
    which contend for the memory bandwidth and cache the host shares with
    other tenants, and a dict-building Python loop. Its CPU time is that of
    the calling thread, so the RSS sampler's thread does not add to it."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.src = rng.integers(0, 1 << 40, 4 << 20)
        self.idx = rng.integers(0, len(self.src), 1 << 20)

    def __call__(self) -> float:
        t0 = time.thread_time()
        self.src.sum()
        self.src.sum()
        self.src[self.idx].sum()
        d: dict[str, int] = {}
        for i in range(60_000):
            k = str(i % 5000)
            d[k] = d.get(k, 0) + i
        return time.thread_time() - t0


# --------------------------------------------------------------------- #
# the closed-loop client
# --------------------------------------------------------------------- #
class Client:
    """Times operations, records samples, and counts failed operations.

    An operation fails when it raises or when a check on its output fails.
    Operations are timed in CPU seconds (``cpu_s_since``); (wall, CPU) seconds
    of every operation are kept per operation name for the report. After
    every operation, untimed, the reference task runs once."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.ref = RefTask()
        self.ref_s: list[float] = []
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.errors: list[str] = []
        self.samples: dict[str, list[tuple[float, float]]] = {}

    def op(self, name: str, fn):
        """Run ``fn`` as one timed operation; returns (op id, result, CPU secs)."""
        self.attempted += 1
        oid = self.attempted
        c0, t0 = cpu_ticks(), time.perf_counter()
        with self.tracer.span(name):
            try:
                out = fn()
            except Exception:
                self.failed_ops.add(oid)
                self.errors.append(f"{name}: {traceback.format_exc()}")
                raise
        wall = time.perf_counter() - t0
        cpu = cpu_s_since(c0)
        self.samples.setdefault(name, []).append((wall, cpu))
        self.ref_s.append(self.ref())
        return oid, out, cpu

    def check(self, oid: int, ok: bool, what: str) -> None:
        if not ok:
            self.failed_ops.add(oid)
            self.errors.append(f"check failed: {what}")

    @property
    def failed(self) -> int:
        return len(self.failed_ops)


def fetch(ds):
    """Materialize a Dataset into one Arrow table in this process."""
    import pyarrow as pa
    import ray

    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_columns]
    if not tables:
        return None
    return pa.concat_tables(tables, promote_options="default")


def rows_by_key(table) -> dict[str, dict]:
    return {} if table is None else {r["doc_id"]: r for r in table.to_pylist()}


class Run:
    def __init__(self, args, shape, fx: str, expected: dict, recorded: dict | None):
        self.args = args
        self.shape = shape
        self.fx = fx
        self.exp = expected
        self.recorded = recorded
        self.cfg = workloads.replay_config(shape)
        self.tracer = tracing.Tracer()
        self.client = Client(self.tracer)
        self.setup_s: list[float] = []
        self.pool: list = []
        self.n_tables = 0
        self.routes: dict = {}
        self.first_digest = None
        self.harness: dict | None = None

    # -- set-up ---------------------------------------------------------
    def new_table(self, timed: bool = True):
        from marc_data_migration_ray.pipelines.replay import Replayer

        self.n_tables += 1
        root = os.path.join(WORK, "tables", f"t{self.n_tables}")
        shutil.rmtree(root, ignore_errors=True)

        def setup():
            rp = Replayer(root, self.cfg, base_path=os.path.join(self.fx, "base"))
            rp._ensure_bucketized_base()
            fetch(rp.lookup(["1"]))
            return rp

        if not timed:
            return setup()
        _, rp, dt = self.client.op("setup", setup)
        self.setup_s.append(dt)
        return rp

    def warm_up(self) -> None:
        """Set up a throwaway table, untimed: the first task spawns the Ray
        worker and imports the engine, and the first lookup starts Ray
        Data, so none of that lands in a timed operation."""
        shutil.rmtree(self.new_table(timed=False).root, ignore_errors=True)

    # -- one round --------------------------------------------------------
    def round(self, rp, traced: bool) -> dict:
        """One pass of the plan on the table ``rp``."""
        from marc_data_migration_ray.config import BASE_COLUMNS

        c, shape, exp = self.client, self.shape, self.exp
        last = shape.epochs - 1
        lookups: dict = {}
        for e, keys in exp["plan"]["lookups"]:
            lookups.setdefault(e, []).append(keys)
        histories: dict = {}
        for e, k in exp["plan"]["histories"]:
            histories.setdefault(e, []).append(k)
        r = {"epoch_s": [], "lookup_s": [], "history_s": [], "op_s": 0.0,
             "files_read": [], "rows_per_key": [], "history_cuts": [],
             "layout": []}

        def timed(name, fn):
            oid, out, dt = c.op(name, fn)
            r["op_s"] += dt
            return oid, out, dt

        def do_lookup(keys, cut, state=None):
            oid, t, dt = timed("lookup", lambda: fetch(rp.lookup(keys)))
            r["lookup_s"].append(dt)
            got = rows_by_key(t)
            for k in keys:
                want = exp["key_state"][(cut, k)]
                c.check(oid, (k in got) == (want is not None) and (
                    want is None or workloads.canon_row(got[k]) == workloads.canon_row(want)),
                    f"lookup {k} after epoch {cut} != oracle")
                if state is not None:
                    c.check(oid, workloads.canon_row(got.get(k, {}))
                            == workloads.canon_row(state.get(k, {})),
                            f"lookup {k} != read_state row")
            if traced:
                r["files_read"].append(tracing.lookup_files(rp, keys))
                r["rows_per_key"].append(len(got) / len(keys))

        def do_history(key, cut):
            oid, h, dt = timed(
                "history", lambda: rp.doc_history(key, with_versions=True))
            r["history_s"].append(dt)
            want = exp["key_state"][(cut, key)]
            rows = h.to_pylist()
            versions = [x for x in rows if x["state_live"] is not None]
            if versions:
                end = versions[-1]
                ok = end["state_live"] == (want is not None) and (
                    want is None or end["state_n_tok"] == want["n_tok"])
            else:
                # no retained event: only the base row can make it live
                ok = any(x["op"] == "base" for x in rows) == (want is not None)
            c.check(oid, ok, f"doc_history {key} after epoch {cut} != oracle")
            r["history_cuts"].append(len(versions))

        for e in range(shape.epochs):
            oid, entry, dt = timed("epoch", lambda: rp.apply_epoch(
                e, workloads.epoch_dir(self.fx, e)))
            r["epoch_s"].append(dt)
            # the same input must route the same way in every round
            routes = self.routes.setdefault(e, entry["routes"])
            c.check(oid, entry["routes"] == routes,
                    f"epoch {e} routes differ between rounds")
            if traced:
                r["layout"].append(rp.explain_layout())
            for keys in lookups.get(e, []):
                do_lookup(keys, e)
            for k in histories.get(e, []):
                do_history(k, e)

        # display names of the base columns after any renames
        _, renames, _ = rp.manifest.resolve_schema(list(BASE_COLUMNS))
        names = [renames.get(col, col) for col in BASE_COLUMNS]
        cols = [names[0], names[2], names[3]]  # doc_id, n_tok, source
        # the repeated reads and maintain() calls are interleaved, so each
        # metric's samples spread over the round instead of one burst;
        # maintain() changes the table, so all but its last call run on
        # zero-copy clones of the same state
        from marc_data_migration_ray.pipelines.replay import Replayer

        reads, projected, maintains = [], [], []
        clone_at = {READS * (j + 1) // MAINTAINS for j in range(MAINTAINS - 1)}
        first = None
        for i in range(READS):
            oid, state, dt = timed("state_read", lambda: fetch(rp.read_state()))
            reads.append(dt)
            state = state.sort_by("doc_id")
            if first is None:
                # the first read is checked against the oracle, the later
                # ones against the first
                self.check_state(oid, state, names)
                first = state
            else:
                c.check(oid, state.equals(first), "full reads of one state differ")
            oid, proj, dt = timed("projected_read", lambda: fetch(
                rp.read_state(columns=cols)))
            projected.append(dt)
            c.check(oid, proj.sort_by(cols[0]).equals(first.select(cols)),
                    "projected read != projection of the full read")
            if i in clone_at:
                dst = f"{rp.root}-clone{i}"
                rp.clone(dst)
                try:
                    maintains.append(timed("maintain", Replayer(dst, self.cfg).maintain)[2])
                finally:
                    shutil.rmtree(dst, ignore_errors=True)
        r["state_read_s"] = statistics.median(reads)
        r["projected_read_s"] = statistics.median(projected)
        if traced:
            # not an end-to-end operation: kept out of op_s, which the
            # traced-minus-untraced figure compares
            c.op("fold_output", lambda: rp.fold_output().materialize())
            if self.harness is None:
                self.harness = tracing.stage_harness(rp, shape, self.fx)
            r["pwrite_files"], r["pwrite_bytes"] = tracing.epoch_write_counts(
                rp.root, shape.epochs)
        for k in histories.get(None, []):
            do_history(k, last)

        before = tracing.file_sizes(rp.root, ".parquet") if traced else {}
        _, done, dt = timed("maintain", rp.maintain)
        maintains.append(dt)
        r["maintain_actions"] = done["actions"]
        r["maintain_s"] = statistics.median(maintains)
        if traced:
            r["maintain_bytes_rewritten"] = sum(
                n for p, n in tracing.file_sizes(rp.root, ".parquet").items()
                if p not in before)
        keyed = None
        if state is not None:
            import pyarrow as pa
            import pyarrow.compute as pc

            keys = pa.array(sorted({k for ks in lookups.get(None, []) for k in ks}))
            keyed = rows_by_key(state.filter(pc.is_in(state["doc_id"], value_set=keys)))
        for keys in lookups.get(None, []):
            do_lookup(keys, last, keyed)

        r["space_amp"] = sum(tracing.file_sizes(rp.root).values()) / max(state.nbytes, 1)
        r["events"] = exp["events"]
        r["apply_s"] = sum(r["epoch_s"])
        r["replay_rate"] = exp["events"] / (r["apply_s"] + r["state_read_s"])
        if traced:
            lay = r.pop("layout")
            r["max_files_per_bucket"] = max(x["max_files_per_bucket"] for x in lay)
            r["epoch_dirs_unmerged"] = max(x["epoch_dirs_unmerged"] for x in lay)
            r["delta_bytes"] = lay[-1]["delta_bytes"]
            mf = rp.manifest.path
            r["manifest_bytes"] = os.path.getsize(mf) if os.path.exists(mf) else 0
            r["schema_ops"] = len(rp.manifest.state["schema_ops"])
            for k in ("files_read", "rows_per_key", "history_cuts"):
                r[k] = statistics.mean(r[k]) if r[k] else 0.0
        return r

    def check_state(self, oid: int, state, names: list[str]) -> None:
        from marc_data_migration_ray.config import BASE_COLUMNS

        c, exp = self.client, self.exp
        tied = set(exp["tied_keys"])
        rows = [] if state is None else [
            x for x in state.to_pylist() if x["doc_id"] not in tied]
        if exp["oracle_parts"] is not None:
            P = self.shape.partitions
            sample = [x for x in rows
                      if workloads.row_partition(x["doc_id"], P) in exp["oracle_parts"]]
            c.check(oid, workloads.rows_digest(sample) == exp["oracle_digest"],
                    f"state of partitions {exp['oracle_parts']} != oracle")
        else:
            c.check(oid, workloads.rows_digest(rows) == exp["oracle_digest"],
                    "final state != oracle")
        digest = workloads.rows_digest(
            {col: x[name] for col, name in zip(BASE_COLUMNS, names)} for x in rows)
        if self.first_digest is None:
            self.first_digest = digest
        c.check(oid, digest == self.first_digest, "state digest differs between rounds")
        if self.recorded is not None:
            c.check(oid, digest == self.recorded,
                    f"state digest {digest} != recorded {self.recorded}")


def percentile_tail(xs: list[float]) -> dict | None:
    """The highest percentile with at least 10 samples beyond it."""
    n = len(xs)
    if n <= 10:
        return None
    s = sorted(xs)
    return {"pct": round(100.0 * (n - 10) / n, 1), "value": s[n - 11], "n": n}


def environment() -> dict:
    import numpy
    import polars
    import pyarrow
    import ray

    return {"cpus_available": len(os.sched_getaffinity(0)), "ray_num_cpus": CPUS,
            "python": sys.version.split()[0], "ray": ray.__version__, "polars": polars.__version__,
            "pyarrow": pyarrow.__version__, "numpy": numpy.__version__}


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="self-test sizes (a few hundred rows)")
    ap.add_argument("--digests", default=os.path.join(HERE, "digests.json"),
                    help="recorded state digests per workload, shape and seed")
    ap.add_argument("--record-digest", action="store_true",
                    help="write this run's state digest into --digests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "marc_data_migration_ray", "__init__.py")):
        print(f"perfbench: engine package not found in {ROOT}", file=sys.stderr)
        return 2
    # one thread per task, set before Ray starts so every worker inherits it
    os.environ["POLARS_MAX_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, ROOT)

    spec = load_benchmark()
    if args.workload not in workloads.SHAPES:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    shape = (workloads.SMOKE if args.smoke else workloads.SHAPES)[args.workload]
    t_start = time.perf_counter()

    # fixture + expected answers (benchmark-side set-up, not setup_s)
    dest = workloads.cache_dir(WORK, args.workload, shape, args.seed)
    cached = os.path.exists(os.path.join(dest, "expected.pkl"))
    t0 = time.perf_counter()
    if not cached:
        cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
               args.workload, str(args.seed), dest, *(["--smoke"] if args.smoke else [])]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: fixture/oracle preparation failed", file=sys.stderr)
            return 1
    prepare_s = time.perf_counter() - t0
    expected = workloads.load_expected(dest)
    fx = os.path.join(dest, "fixture")

    tag = workloads.shape_tag(shape)
    recorded_all = {}
    if os.path.exists(args.digests):
        with open(args.digests) as f:
            recorded_all = json.load(f)
    recorded = recorded_all.get(args.workload, {}).get(tag, {}).get(str(args.seed))

    import ray

    t0 = time.perf_counter()
    ray_dir = os.path.join(WORK, "ray")
    ray.init(num_cpus=CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=400 << 20,
             # unix socket paths under the temp dir must stay short
             **({"_temp_dir": ray_dir} if len(ray_dir) <= 40 else {}))
    exit_on_sigterm()
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    ray_init_s = time.perf_counter() - t0

    run = Run(args, shape, fx, expected, recorded)
    rounds, traced_rounds, untraced_rounds = [], [], []
    warmup_s = None
    try:
        t0 = time.perf_counter()
        run.warm_up()
        warmup_s = time.perf_counter() - t0
        with RssSampler() as rss:
            # several set-ups per run; setup_s is their median
            run.pool = [run.new_table() for _ in range(SETUPS)]
            t_measure = time.perf_counter()
            while True:
                rp = run.pool.pop(0) if run.pool else run.new_table()
                # a traced run alternates traced and untraced rounds; the
                # seed picks which kind goes first
                traced = bool(args.trace) and (len(rounds) + args.seed) % 2 == 0
                t0 = time.perf_counter()
                try:
                    if traced:
                        with tracing.instrument(run.tracer):
                            r = run.round(rp, traced=True)
                    else:
                        r = run.round(rp, traced=False)
                finally:
                    shutil.rmtree(rp.root, ignore_errors=True)
                r["wall_s"] = time.perf_counter() - t0
                rounds.append(r)
                (traced_rounds if traced else untraced_rounds).append(r)
                now = time.perf_counter()
                need = 2 if args.trace else 1
                typical = statistics.median(x["wall_s"] for x in rounds)
                if len(rounds) >= need and (
                        now + typical > t_measure + args.seconds
                        or now - t_start > HARD_STOP_S):
                    break
    except Exception:
        # an operation that raised is already counted; this also counts
        # a failure between operations
        run.client.check(0, False, f"run aborted: {traceback.format_exc()}")
    finally:
        for rp in run.pool:
            shutil.rmtree(rp.root, ignore_errors=True)
        ray.shutdown()
        shutil.rmtree(os.path.join(WORK, "tables"), ignore_errors=True)
        shutil.rmtree(ray_dir, ignore_errors=True)

    c = run.client
    if args.record_digest and run.first_digest is not None and not c.failed:
        recorded_all.setdefault(args.workload, {}).setdefault(tag, {})[
            str(args.seed)] = run.first_digest
        with open(args.digests, "w") as f:
            json.dump(recorded_all, f, indent=1, sort_keys=True)
            f.write("\n")

    metrics = {}
    rs = untraced_rounds
    if rs and not args.trace:
        epoch_s = [x for r in rs for x in r["epoch_s"]]
        lookup_s = [x for r in rs for x in r["lookup_s"]]
        history_s = [x for r in rs for x in r["history_s"]]
        med = statistics.median
        # CPU seconds at the reference speed: how fast the host runs this
        # machine moves by up to a third between minutes, and every
        # operation of a run moves with it
        k = REF_TASK_S / med(c.ref_s)
        values = {
            "setup_s": med(run.setup_s) * k,
            "replay_events_per_ref_s": med(r["replay_rate"] for r in rs) / k,
            "ingest_events_per_ref_s": sum(r["events"] for r in rs) / sum(r["apply_s"] for r in rs) / k,
            "epoch_commit_ref_ms_p50": med(epoch_s) * 1e3 * k,
            "epoch_commit_ref_ms_mean": statistics.mean(epoch_s) * 1e3 * k,
            "state_read_ref_s": med(r["state_read_s"] for r in rs) * k,
            "projected_read_ref_s": med(r["projected_read_s"] for r in rs) * k,
            "lookup_ref_ms_p50": med(lookup_s) * 1e3 * k,
            "history_ref_ms_p50": med(history_s) * 1e3 * k,
            "maintain_ref_s": med(r["maintain_s"] for r in rs) * k,
            "space_amp": med(r["space_amp"] for r in rs),
            "peak_rss_mb": rss.peak / 1e6,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    # traced minus untraced operation time per round: host noise between
    # two rounds swamps what a few hundred spans cost, so it is reported
    # beside the direct measurement, not as the metric
    overhead_diff = None
    if traced_rounds and untraced_rounds:
        overhead_diff = (statistics.median(r["op_s"] for r in traced_rounds)
                         - statistics.median(r["op_s"] for r in untraced_rounds))
    overhead = None
    if args.trace and traced_rounds:
        overhead = tracing.span_cost_s() * len(run.tracer.spans) / len(traced_rounds)
        values = tracing.per_layer(run.tracer, traced_rounds, run.harness or {})
        values["trace.overhead_s"] = overhead
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        tracing.dump(run.tracer, os.path.join(
            WORK, "out", f"spans-{args.workload}-s{args.seed}.jsonl"))

    def tail(key):
        return percentile_tail([x for r in rs for x in r[key]]) if rs else None

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "shape": {**shape.__dict__, "tag": tag},
        "fixture": {"events": expected["events"], "base_rows": expected["base_rows"],
                    "ddl_ops": expected["ddl_ops"]},
        "setup": {"prepare_s": prepare_s, "prepare_cached": cached,
                  "ray_init_s": ray_init_s,
                  "warmup_s": warmup_s},
        "samples": {"rounds": len(rounds), "traced_rounds": len(traced_rounds),
                    "round_wall_s": [r["wall_s"] for r in rounds],
                    "setup_s": run.setup_s,
                    "epochs": sum(len(r["epoch_s"]) for r in rs),
                    "lookups": sum(len(r["lookup_s"]) for r in rs),
                    "histories": sum(len(r["history_s"]) for r in rs)},
        "tails_s": {"epoch_commit": tail("epoch_s"), "lookup": tail("lookup_s"),
                    "history": tail("history_s")},
        "wall_s_median": {k: statistics.median(w for w, _ in v)
                          for k, v in c.samples.items()},
        "op_samples_wall_cpu_s": c.samples,
        "ref_task_s": {"median": statistics.median(c.ref_s) if c.ref_s else None,
                       "n": len(c.ref_s), "ref": REF_TASK_S},
        "maintain_actions": rounds[-1]["maintain_actions"] if rounds else None,
        "trace_overhead_s": overhead,
        "traced_minus_untraced_s": overhead_diff,
        "op_error_rate": c.failed / max(c.attempted, 1),
        "errors": c.errors[:5],
        "wall_s": time.perf_counter() - t_start,
    }
    os.makedirs(os.path.join(WORK, "out"), exist_ok=True)
    with open(os.path.join(WORK, "out", f"report-{args.workload}-s{args.seed}"
                           f"-trace{args.trace}.json"), "w") as f:
        json.dump(report, f, indent=1, default=str)
    for e in c.errors[:5]:
        print(e, file=sys.stderr)
    complete = len(metrics) == len(spec["per_layer" if args.trace else "end_to_end"])
    correct = c.failed == 0 and complete
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({"correct": correct, "attempted": max(c.attempted, 1),
                      "failed": c.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    become_subreaper()
    exit_on_sigterm()
    try:
        code = main()
    finally:
        stuck = stop_descendants()
    if stuck:
        print(f"perfbench: processes {stuck} did not end", file=sys.stderr)
    sys.exit(code)
