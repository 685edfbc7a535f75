"""Vectorized key-normalization kernels (reference M1-M4).

The reference derives the record key (OCLC number) from noisy strings:
``(OCoLC)`` labels (case-insensitive, reference ``utils.py:92-115``),
``ocn|ocm|on`` prefixes (``utils.py:31-67``), trailing ``\\W+\\d+`` junk
(``remove_control_field_extra_chars``, ``utils.py:24-28``), validated against
``^\\d+$`` (``utils.py:4``). We reproduce that normalization as pure
``pyarrow.compute`` regex kernels so it runs zero-copy inside ``map_batches``.

The normalization spec (applied in order; identical SQL in
``__ray_entry__.oracle_sql``):

1. trim surrounding whitespace;
2. drop every ``(OCoLC)`` label, case-insensitively;
3. drop ONE leading ``ocn`` / ``ocm`` / ``on`` prefix, case-insensitively
   (longest match first so ``ocn123`` does not become ``n123``);
4. drop a trailing ``\\W+\\d+`` tail (e.g. ``"123 45"`` → ``"123"``);
5. the result is the key iff it matches ``^\\d+$``, else null (no key).

Documented deviation from the reference: the reference's 001 path matches
``'on' in value`` as a *substring* (``utils.py:54``) and has a sticky
cross-record accuracy flag (``record_update.py:216-217``); both are latent
bugs we do not replicate (SURVEY §7.4).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

_LABEL_RE = r"(?i)\(OCoLC\)"
_PREFIX_RE = r"^(?i:ocn|ocm|on)"
_TRAILING_RE = r"\W+\d+$"
_VALID_RE = r"^\d+$"


def normalize_keys(raw: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Normalize a string column of raw keys → valid digit-string keys or null."""
    s = pc.utf8_trim_whitespace(pc.cast(raw, pa.string()))
    s = pc.replace_substring_regex(s, _LABEL_RE, "")
    s = pc.replace_substring_regex(s, _PREFIX_RE, "")
    s = pc.replace_substring_regex(s, _TRAILING_RE, "")
    valid = pc.match_substring_regex(s, _VALID_RE)
    return pc.if_else(valid, s, pa.scalar(None, pa.string()))


def is_key_prefixed(raw: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Predicate: value starts with an OCLC-ish prefix or label (reference M4)."""
    s = pc.utf8_trim_whitespace(pc.cast(raw, pa.string()))
    return pc.or_(
        pc.match_substring_regex(s, _LABEL_RE),
        pc.match_substring_regex(s, _PREFIX_RE),
    )


def hash_partition(keys: pa.ChunkedArray | pa.Array, num_partitions: int) -> pa.Array:
    """Deterministic hash partition id for a string key column.

    Uses a stable FNV-1a-style hash computed vectorized via Arrow: we avoid
    Python-level loops by hashing through ``pc.utf8_length`` + a polynomial
    over bytes is not expressible in Arrow, so we use the dictionary-encode
    trick only for tests; production path hashes via numpy over the UTF-8
    buffer (see ``_fnv1a_numpy``). Null keys land in partition 0.
    """
    import numpy as np

    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    h = _fnv1a_numpy(keys)
    part = (h % np.uint64(num_partitions)).astype(np.int32)
    valid = pc.is_valid(keys).to_numpy(zero_copy_only=False)
    part[~valid] = 0
    return pa.array(part, pa.int32())


def _fnv1a_numpy(arr: pa.Array):
    """Vectorized 64-bit FNV-1a over the UTF-8 bytes of a string array.

    Operates directly on the Arrow offsets/data buffers — no per-row Python.
    """
    import numpy as np

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    arr = pc.cast(arr, pa.large_string())
    if isinstance(arr, pa.ChunkedArray):  # cast may re-chunk
        arr = arr.combine_chunks()
    buffers = arr.buffers()
    offsets = np.frombuffer(buffers[1], dtype=np.int64, count=len(arr) + 1, offset=arr.offset * 8)
    data = np.frombuffer(buffers[2], dtype=np.uint8) if buffers[2] is not None else np.empty(0, np.uint8)

    FNV_OFFSET = np.uint64(0xCBF29CE484222325)
    FNV_PRIME = np.uint64(0x100000001B3)
    n = len(arr)
    h = np.full(n, FNV_OFFSET, dtype=np.uint64)
    lengths = offsets[1:] - offsets[:-1]
    max_len = int(lengths.max()) if n else 0
    # byte-position-parallel loop: max_len iterations total (keys are short),
    # each iteration vectorized over all rows still having that byte.
    with np.errstate(over="ignore"):
        for i in range(max_len):
            active = lengths > i
            idx = offsets[:-1][active] + i
            b = data[idx].astype(np.uint64)
            h[active] = (h[active] ^ b) * FNV_PRIME
    return h


def local_id_parts(
    raw: "pa.ChunkedArray | pa.Array", prefix: str, num_partitions: int
) -> tuple[pa.Array, pa.Array]:
    """Recognize allocator-assigned local ids (``{prefix}-PPPP-N``) in a raw
    key column, making them first-class addressable keys (update/delete by
    the id the engine handed out — the analog of the reference re-reading
    rows by its ``set_local_id`` value, pnca_policy.py:174-223).

    Returns ``(key, part)``: ``key`` is the trimmed id where the column
    matches the local-id shape (null elsewhere — caller falls back to
    ``normalize_keys``), ``part`` is the embedded allocation partition
    modulo ``num_partitions`` (the modulo keeps ids addressable after a
    ``repartition`` to a smaller partition count; for the partition count
    that allocated the id it is the identity). Pure Arrow kernels.
    """
    import re

    s = pc.utf8_trim_whitespace(pc.cast(raw, pa.string()))
    pat = rf"^{re.escape(prefix)}-(?P<part>\d+)-\d+$"
    m = pc.extract_regex(s, pat)
    valid = pc.is_valid(m)
    key = pc.if_else(valid, s, pa.scalar(None, pa.string()))
    part_str = pc.fill_null(pc.struct_field(m, "part"), "0")
    part = pc.cast(
        pc.subtract(
            pc.cast(part_str, pa.int64()),
            pc.multiply(
                pc.divide(pc.cast(part_str, pa.int64()), num_partitions),
                num_partitions,
            ),
        ),
        pa.int32(),
    )
    part = pc.if_else(valid, part, pa.scalar(0, pa.int32()))
    if isinstance(key, pa.ChunkedArray):
        key = key.combine_chunks()
    if isinstance(part, pa.ChunkedArray):
        part = part.combine_chunks()
    return key, part


def route_keys(
    raw: "pa.ChunkedArray | pa.Array", prefix: str, num_partitions: int
) -> tuple[pa.Array, pa.Array]:
    """The table's one key-routing rule: ``(key, part_id)`` of a raw key
    column. Ingest (``ParseRoute``), base bucketization (``PrepBase``),
    point lookups, repartition, merge and export all route through it, so
    a key lands in the same logical partition wherever it enters.

    ``key`` is the trimmed id where ``raw`` is an allocator-assigned local
    id (``local_id_parts``), else the normalized key (null when the value
    does not normalize). ``part_id`` is a local id's embedded partition
    modulo ``num_partitions``, else ``hash_partition(key or raw)``. One
    normalize, one hash and one local-id pass per call; the local-id merge
    is skipped when no value has that shape."""
    raw = pc.cast(raw, pa.string())
    key = normalize_keys(raw)
    part = hash_partition(pc.if_else(pc.is_valid(key), key, raw), num_partitions)
    loc_key, loc_part = local_id_parts(raw, prefix, num_partitions)
    loc = pc.is_valid(loc_key)
    if pc.any(loc).as_py():
        key = pc.if_else(loc, loc_key, key)
        part = pc.if_else(loc, loc_part, part)
    if isinstance(key, pa.ChunkedArray):
        key = key.combine_chunks()
    return key, part


def mod_bucket(col: "pa.ChunkedArray | pa.Array", n: int) -> pa.Array:
    """``col % n`` as int32 — the coarse co-partition bucket key used by
    every bucket-shuffled operator (sessions, as-of/range joins, funnel,
    retention, TF-IDF rank, block-dedup reassembly).

    pyarrow.compute has no integer modulo kernel; this is the
    subtract-multiply-divide idiom, defined ONCE (a transcription slip in
    any inline copy would silently break an operator's co-partitioning)."""
    return pc.cast(
        pc.subtract(col, pc.multiply(pc.divide(col, n), n)), pa.int32()
    )
