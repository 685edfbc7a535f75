"""User-extension surface: the update-policy plugin (reference P13).

The reference loads a site policy class dynamically by dotted module path
(``getattr(import_module(plugin), 'UpdatePolicy')`` —
``record_update.py:132-134``, ``processor.py:21-23``) and calls per-record
hooks. We reproduce the same dynamic-load pattern with **batch-level**
hooks so policies stay vectorized:

- ``execute_batch(table)``   — arbitrary per-batch rewrite of final rows
  (the P1-P10 mutator chain analog);
- ``route_flags(table)``     — boolean 'online'-style routing column
  (reference ``is_online`` M10);
- ``column_moves()``         — conditional column renames applied after
  execute (reference conditional moves U6/U7).

State reads (``Replayer.read_state`` / ``lookup``) apply the configured
policies to the folded rows inside each per-bucket fold task, through
``_PolicyStage``. ``apply_policies(ds, cfg)`` chains them as
``map_batches`` over an arbitrary Dataset and serves only the CLI
``modify`` command.
"""

from __future__ import annotations

from importlib import import_module

import pyarrow as pa

import ray.data

from marc_data_migration_ray.config import ReplayConfig


class UpdatePolicy:
    """Base/no-op policy. Subclass in a plugin module and expose the class
    as module attribute ``UpdatePolicy`` (same contract as the reference's
    ``processors/plugins/*/..._policy.py``)."""

    def execute_batch(self, table: pa.Table) -> pa.Table:
        return table

    def route_flags(self, table: pa.Table) -> pa.Array | None:
        return None

    def column_moves(self) -> dict[str, str]:
        return {}


def load_policy(dotted_path: str) -> UpdatePolicy:
    """Dynamic plugin load — reference ``record_update.py:132-134`` pattern."""
    mod = import_module(dotted_path)
    cls = getattr(mod, "UpdatePolicy")
    return cls()


_POLICY_CACHE: dict = {}  # worker-process-global: dotted path → (policy, moves)


def _policy_for(dotted_path: str):
    ent = _POLICY_CACHE.get(dotted_path)
    if ent is None:
        pol = load_policy(dotted_path)
        ent = _POLICY_CACHE[dotted_path] = (pol, pol.column_moves())
    return ent


class _PolicyStage:
    """Stage body: instantiate the policy ONCE PER WORKER PROCESS (the
    module-level memo above) — the same load-once semantics the reference's
    per-process plugin load has (``record_update.py:132-134``).  Instances
    are called by the fold tasks (and ``apply_policies``' ``map_batches``);
    the memo makes re-instantiation free on warm workers, so no actor pool
    is needed."""

    def __init__(self, dotted_path: str):
        self._dotted = dotted_path

    def __call__(self, batch: pa.Table) -> pa.Table:
        policy, moves = _policy_for(self._dotted)
        out = policy.execute_batch(batch)
        flags = policy.route_flags(out)
        if flags is not None:
            if "online" in out.column_names:
                out = out.drop_columns(["online"])
            out = out.append_column("online", flags)
        if moves:
            out = out.rename_columns(
                [moves.get(c, c) for c in out.column_names]
            )
        return out


def apply_policies(ds: ray.data.Dataset, cfg: ReplayConfig) -> ray.data.Dataset:
    """Chain every configured policy plugin over the dataset."""
    for dotted in cfg.policy_plugins:
        ds = ds.map_batches(
            _PolicyStage(dotted),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    return ds
