"""In-memory spans around the engine's call boundaries, and the stage harness.

The benchmark's own operations open root spans; ``instrument`` wraps the
engine's public entry points (and the partitioned writer as seen from
``pipelines.replay``) so their calls open child spans. Nothing inside the
package changes: the wrappers are installed on the classes for the traced
rounds only and removed afterwards. Only calls made in the benchmark's
own process are visible; the stage harness (``stage_harness``) replays
the per-task stage functions in process to time them.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import os
import statistics
import time


class Tracer:
    """Records spans (name, start, end, parent, op id) in memory."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "name": name,
               "parent": parent["id"] if parent else None,
               "op": parent["op"] if parent else len(self.spans),
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part its child spans cover."""
        kids: dict[int, list] = {}
        for s in self.spans:
            if s["parent"] is not None:
                kids.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = {}
        for s in self.spans:
            covered, hi = 0.0, s["start"]
            for a, b in sorted(kids.get(s["id"], [])):
                a, b = max(a, hi), min(b, s["end"])
                if b > a:
                    covered += b - a
                    hi = b
            out[s["id"]] = (s["end"] - s["start"]) - covered
        return out

    def by_name(self, name: str, parent: str | None = None) -> list[dict]:
        spans = [s for s in self.spans if s["name"] == name]
        if parent is not None:
            spans = [s for s in spans if s["parent"] is not None
                     and self.spans[s["parent"]]["name"] == parent]
        return spans


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the engine's call boundaries for the duration of the block."""
    from marc_data_migration_ray.pipelines import replay
    from marc_data_migration_ray.state import manifest

    targets = [(replay.Replayer, m) for m in (
        "apply_epoch", "prepare_epoch", "finalize_epoch", "read_state",
        "fold_output", "lookup", "doc_history", "maintain", "compact",
        "compact_deltas", "build_key_blooms", "explain_layout")]
    targets += [(manifest.Manifest, "commit_epoch"),
                (manifest.Manifest, "resolve_schema"),
                (replay, "write_parquet_partitioned")]
    saved = []
    for owner, attr in targets:
        orig = getattr(owner, attr)
        saved.append((owner, attr, orig))
        label = ("pwrite.write" if owner is replay
                 else f"{owner.__name__}.{attr}")
        setattr(owner, attr, _wrap(tracer, label, orig))
    tracer.enabled = True
    try:
        yield
    finally:
        tracer.enabled = False
        for owner, attr, orig in saved:
            setattr(owner, attr, orig)


def _median(xs, default=0.0):
    return statistics.median(xs) if xs else default


def span_cost_s(n: int = 20_000) -> float:
    """Seconds one traced call adds: a wrapped no-op under an enabled
    tracer, minus the bare no-op, per call."""
    def noop():
        return None

    tracer = Tracer()
    tracer.enabled = True
    wrapped = _wrap(tracer, "noop", noop)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    t1 = time.perf_counter()
    for _ in range(n):
        wrapped()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / n


def file_sizes(root: str, suffix: str = "") -> dict[str, int]:
    """Path -> size of every file under ``root`` whose name ends in ``suffix``."""
    out = {}
    for d, _, files in os.walk(root):
        for f in files:
            if f.endswith(suffix):
                p = os.path.join(d, f)
                try:
                    out[p] = os.path.getsize(p)
                except OSError:
                    pass  # removed by a concurrent merge
    return out


def epoch_write_counts(table_root: str, epochs: int) -> tuple[int, int]:
    """Files and bytes the epoch writes left in the table's delta dirs."""
    sizes = {}
    for e in range(epochs):
        sizes.update(file_sizes(os.path.join(table_root, "deltas", f"epoch={e}"), ".parquet"))
    return len(sizes), sum(sizes.values())


def lookup_files(rp, keys: list[str]) -> int:
    """Parquet files a ``lookup(keys)`` on ``rp``'s table opens: the base
    and delta files of the partitions the keys route to, less the delta
    files whose key blooms rule every key out (the engine's own layout,
    routing and pruning calls, made in process)."""
    import pyarrow as pa

    from marc_data_migration_ray.pipelines import replay

    _, base_by_part, delta_by_part = rp._fold_layout()
    want = pa.array(sorted(keys), pa.string())
    n = 0
    for p in rp._parts_for_keys(keys):
        n += len(base_by_part.get(p, []))
        n += len(replay._prune_by_keybloom(delta_by_part.get(p, []), want, keep_keyless=True))
    return n


def stage_harness(rp, shape, fixture: str) -> dict:
    """Time the per-task stages in process over this workload's inputs:
    ``ParseRoute`` and ``precollapse_batch`` over every binlog batch, and
    ``fold_bucket`` over every bucket's on-disk files of ``rp``'s table.
    ``precollapse_batch`` runs even where the table leaves the stage off,
    so the figure describes the stage on this input mix."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from marc_data_migration_ray.pipelines import replay
    from marc_data_migration_ray.stages.fold import fold_bucket
    from marc_data_migration_ray.stages.parse import ParseRoute
    from marc_data_migration_ray.stages.precollapse import precollapse_batch

    cfg = rp.cfg
    parse = ParseRoute(cfg)
    out = {"parse.self_s": 0.0, "parse.rows_in": 0, "parse.deadletter_rows": 0,
           "precollapse.self_s": 0.0}
    stripped = updates = 0
    for e in range(shape.epochs):
        for f in sorted(glob.glob(os.path.join(fixture, "binlog", f"epoch={e}", "*.parquet"))):
            t = pq.read_table(f)
            for batch in t.to_batches(max_chunksize=cfg.batch_size):
                b = pa.Table.from_batches([batch])
                t0 = time.perf_counter()
                parsed = parse(b)
                t1 = time.perf_counter()
                coll = precollapse_batch(parsed)
                t2 = time.perf_counter()
                out["parse.self_s"] += t1 - t0
                out["precollapse.self_s"] += t2 - t1
                out["parse.rows_in"] += b.num_rows
                out["parse.deadletter_rows"] += pc.sum(pc.equal(
                    parsed["route"], "deadletter")).as_py() or 0
                updates += pc.sum(pc.equal(parsed["op"], "update")).as_py() or 0
                if "collapsed" in coll.column_names:
                    stripped += pc.sum(pc.fill_null(coll["collapsed"], False)).as_py() or 0
    out["precollapse.stripped_frac"] = stripped / updates if updates else 0.0

    base_is_final, base_by_part, delta_by_part = rp._fold_layout()
    offsets = rp.manifest.local_id_offsets()
    ops = rp._schema_ops_up_to(None)
    fold_s = 0.0
    rows_in = bytes_in = rows_out = 0
    for p in sorted(set(base_by_part) | set(delta_by_part)):
        allr = replay._read_bucket_tables(
            base_by_part.get(p, []), delta_by_part.get(p, []), cfg, base_is_final)
        if allr is None:
            continue
        t0 = time.perf_counter()
        folded = fold_bucket(allr, cfg, offsets, ops)
        fold_s += time.perf_counter() - t0
        rows_in += allr.num_rows
        bytes_in += allr.nbytes
        rows_out += pc.sum(pc.equal(folded["_kind"], "row")).as_py() or 0
    out.update({"fold.self_s": fold_s, "fold.rows_in": rows_in,
                "fold.bytes_in": bytes_in, "fold.rows_out": rows_out})
    return out


def per_layer(tracer: Tracer, traced: list[dict], harness: dict) -> dict:
    """Per-layer figures from the traced rounds' spans and counters.

    Times are medians per call (seconds unless the name says ms); counts
    are per round, medians over the traced rounds."""
    selft = tracer.self_times()

    def dur(s):
        return s["end"] - s["start"]

    def med(name, parent=None, scale=1.0):
        return _median([dur(s) for s in tracer.by_name(name, parent)]) * scale

    def ops(name):
        # root spans: the benchmark's own operations, which consume the
        # lazy datasets that read_state/lookup/fold_output return
        return [dur(s) for s in tracer.spans if s["parent"] is None and s["name"] == name]

    def rmed(key):
        return _median([r[key] for r in traced])

    out = {
        "pwrite.wall_s": med("pwrite.write", "Replayer.prepare_epoch"),
        "pwrite.files_out": rmed("pwrite_files"),
        "pwrite.bytes_out": rmed("pwrite_bytes"),
        "replay.prepare_epoch_s": med("Replayer.prepare_epoch"),
        "replay.finalize_epoch_s": med("Replayer.finalize_epoch"),
        # the write is prepare_epoch's only child span: the rest of its
        # time is the per-partition stats pass and the publish rename
        "replay.stats_pass_s": _median(
            [selft[s["id"]] for s in tracer.by_name("Replayer.prepare_epoch")]),
        "replay.fold_output_s": _median(ops("fold_output")),
        "replay.postprocess_s": _median(ops("state_read")) - _median(ops("fold_output")),
        "replay.lookup_s": _median(ops("lookup")),
        "replay.doc_history_s": med("Replayer.doc_history"),
        "replay.compact_s": med("Replayer.compact"),
        "replay.compact_deltas_s": med("Replayer.compact_deltas"),
        "replay.build_key_blooms_s": med("Replayer.build_key_blooms"),
        "manifest.commit_ms": med("Manifest.commit_epoch", scale=1e3),
        "manifest.resolve_schema_ms": med("Manifest.resolve_schema", scale=1e3),
        "manifest.bytes": rmed("manifest_bytes"),
        "schema.ops": rmed("schema_ops"),
        "layout.max_files_per_bucket": rmed("max_files_per_bucket"),
        "layout.delta_bytes": rmed("delta_bytes"),
        "layout.epoch_dirs_unmerged": rmed("epoch_dirs_unmerged"),
        "maintain.bytes_rewritten": rmed("maintain_bytes_rewritten"),
        "lookup.files_read": rmed("files_read"),
        "lookup.rows_per_key": rmed("rows_per_key"),
        "history.cuts": rmed("history_cuts"),
    }
    out.update(harness)
    return out


def dump(tracer: Tracer, path: str) -> None:
    import json

    os.makedirs(os.path.dirname(path), exist_ok=True)
    selft = tracer.self_times()
    with open(path, "w") as f:
        for s in tracer.spans:
            f.write(json.dumps({**s, "self": selft[s["id"]]}) + "\n")
