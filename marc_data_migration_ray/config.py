"""Run configuration for the replay engine.

Mirrors the reference's run-level knobs (reference ``processor.py:191-203``):
the fuzzy threshold (``fuzzy_match_ratio``, default 50), the
``require_perfect_match`` flag, and the substitution *strategy*
(``replace_and_add`` vs ``replace_only`` — reference
``record_update.py:843-887``). Strategy is run-level, exactly as in the
reference (it is a CLI argument there, not per-record state).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Columns of the base lake table (the ``input_hint`` shape).
BASE_COLUMNS = ("doc_id", "tokens", "n_tok", "source")

#: Payload columns an update event may overwrite (analog of the 55-tag
#: substitution whitelist in reference ``replace_configuration.py:3-59``).
PAYLOAD_COLUMNS = ("tokens", "n_tok", "source")

#: op values a binlog event may carry.
OPS = ("insert", "update", "delete", "schema_change")

#: route values assigned by the gate / fold.
ROUTES = ("applied", "fuzzy", "rejected", "local", "deadletter", "noop")


@dataclass(frozen=True)
class ReplayConfig:
    """All run-level knobs of a replay."""

    #: number of hash partitions; ``part_id = hash64(doc_id) % num_partitions``.
    #: At 100 TB this is the unit of shuffle + commit granularity; size so a
    #: partition's events fit one worker's heap (e.g. 4-16k partitions).
    num_partitions: int = 32

    #: fuzzy gate threshold 0-100 (reference default 50, ``processor.py:202``).
    fuzzy_threshold: int = 50

    #: if True, only match_score == 100 updates are applied
    #: (reference ``--perfect-match``; M14 truth table).
    require_perfect: bool = False

    #: reference ``do_fuzzy_001_test`` (record_update.py:340-443 +
    #: utils.py:70-76): compensate for untrustworthy key provenance. When
    #: True, a sub-perfect update whose RAW key carries no OCLC-ish prefix
    #: and whose score is below the threshold is rejected; every other
    #: sub-perfect update routes to fuzzy — applied even below the
    #: threshold when the key IS prefixed (the reference substitutes those
    #: and labels the 962 'fuzzy-match-failed' for review). Takes
    #: precedence over ``require_perfect``.
    fuzzy_001_test: bool = False

    #: 'replace_and_add' (update may set columns currently null) or
    #: 'replace_only' (update only overwrites columns already non-null in the
    #: anchor row) — reference U1 semantics.
    strategy: str = "replace_and_add"

    #: prefix for deterministically allocated local ids for keyless inserts
    #: (analog of reference ``set_local_id``, pnca_policy.py:174-223).
    local_id_prefix: str = "LOCAL"

    #: local-id counter starts here per partition (reference starts at 100 →
    #: first assigned id 101).
    local_id_start: int = 100

    #: dotted path(s) of policy plugins applied to folded rows
    #: (analog of the UpdatePolicy plugin surface, reference P13).
    policy_plugins: tuple = field(default_factory=tuple)

    #: rows per Arrow batch in stateless map stages. Token arrays dominate
    #: bytes: at p50 ≈ 256 tokens × 4 B ≈ 1 KiB/row, 8192 rows ≈ 8 MiB/batch.
    batch_size: int = 8192

    #: cross-partition hot-key salting (north-star "salted sub-partitions"):
    #: when > 1, events land in ``num_partitions × num_salts`` physical
    #: sub-buckets (``part_p = part_id * S + lsn % S``, where ``part_id`` is
    #: ``functions.keys.route_keys``'s and ``pipelines.replay._part_p`` is
    #: the one place the map is computed) and the fold runs in two stages — a per-sub-bucket summary fold (anchor candidate +
    #: per-column winner candidates + payload-stripped update metadata),
    #: then one merge per logical partition. The payload-heavy work for a
    #: single pathological key is thereby spread over S tasks; the merge
    #: touches only compact summaries. Immutable per table (like
    #: num_partitions).
    num_salts: int = 1

    #: fold auto-split target (VERDICT r3 item 6): when a bucket's
    #: in-memory fold input exceeds ~2× this many bytes, the fold task
    #: key-hash-splits it internally and folds the sub-groups
    #: sequentially — peak working set stays ~O(this) regardless of how
    #: fat a partition got, removing the "repartition so one partition
    #: fits a worker's heap" runbook knob. Keys are disjoint across
    #: sub-groups (and keyless allocation rows all land in sub-group 0),
    #: so the result is bit-identical — pytest-pinned. 0 disables.
    fold_split_bytes: int = 128 << 20

    #: when > 0, apply_epoch auto-triggers level-1 delta-segment compaction
    #: (compact_deltas) whenever this many contiguous unsegmented epochs
    #: have accumulated — bounds merge-on-read file-count amplification
    #: between full compact() calls without any semantic change.
    auto_segment_epochs: int = 0

    #: when > 0, apply_epoch auto-triggers a FULL compaction (compact())
    #: whenever this many committed epochs have accumulated above the
    #: compaction floor — LSM maintenance automation: merge-on-read never
    #: reads more than this many epochs of deltas. Semantics unchanged
    #: (compaction equivalence is oracle-tested); checked after
    #: auto-segmentation, so segments below the new floor are superseded.
    auto_compact_epochs: int = 0

    #: ingest expectations (Delta Lake CHECK-constraint / DLT "expect"
    #: analog): each is ``(name, column, op, value)`` evaluated VECTORIZED
    #: at the gate over the payload an insert/update event supplies.
    #: ops: 'ge' / 'le' (numeric bound), 'between' (value = (lo, hi)),
    #: 'in' (value = tuple of allowed strings), 'matches' (value = regex,
    #: full-row semantics via match_substring_regex), 'not_null'.
    #: A NULL payload value passes every op except 'not_null' — an update
    #: that does not supply a column cannot violate a bound on it (the
    #: reference's substitution whitelist has the same "absent field is
    #: untouched" semantics, replace_configuration.py:3-59).
    #: A non-malformed, non-schema insert/update failing ANY constraint
    #: routes to rejected/'check-failed:<name>' (first failing constraint
    #: in declaration order) and its payload is dropped before the delta
    #: write — it can never apply, including keyless inserts (checked
    #: BEFORE local-id allocation). Constraints do not gate base rows or
    #: deletes. Evaluated batch-local: no shuffle, no extra pass.
    check_constraints: tuple = ()

    #: hot-key mitigation: within-batch pre-collapse of gate-passed
    #: EMPTY-MASK (full-row) updates sharing a key — only the max-lsn one
    #: can ever win a column, so superseded rows are kept but
    #: payload-STRIPPED (tokens nulled, ``collapsed=True``). Final state,
    #: audit rows, route counts and metrics are all EXACTLY the
    #: uncollapsed run's (pytest-pinned) while a hot key's delta bytes
    #: shrink to ≤ one payload per batch. Trade-off: the stripped
    #: payloads are gone from disk, so MID-EPOCH lsn cuts
    #: (``up_to_lsn`` between a stripped row and its winner) and
    #: per-event as-of lineage over affected keys REFUSE with a clear
    #: error instead of reconstructing; epoch-level time travel is
    #: unaffected.
    precollapse_updates: bool = False

    def __post_init__(self):
        if self.strategy not in ("replace_and_add", "replace_only"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not (0 <= self.fuzzy_threshold <= 100):
            raise ValueError("fuzzy_threshold must be in [0, 100]")
        if self.num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if self.num_salts < 1:
            raise ValueError("num_salts must be >= 1")
        for c in self.check_constraints:
            if len(c) != 4:
                raise ValueError(f"constraint must be (name, column, op, value): {c!r}")
            name, col, op, val = c
            if op not in ("ge", "le", "between", "in", "matches", "not_null"):
                raise ValueError(f"unknown constraint op {op!r} in {name!r}")
            if col not in PAYLOAD_COLUMNS:
                raise ValueError(
                    f"constraint {name!r} column {col!r} not in {PAYLOAD_COLUMNS}"
                )
            if op == "between" and len(val) != 2:
                raise ValueError(f"'between' needs (lo, hi) in {name!r}")
            if op == "in" and not isinstance(val, (tuple, list)):
                raise ValueError(f"'in' needs a tuple of values in {name!r}")
