"""Mirror of the driver's correctness gate: run each ``queries()`` entry at
sf0.001 and compare row-count + schema + order-insensitive values against
its ``oracle_sql()`` DuckDB result.
"""

import math

import duckdb
import pandas as pd
import pytest

import __ray_entry__ as entry_mod

SF_DIR = "/root/testdata/sf0.001"
TABLES = [
    "region", "nation", "customer", "supplier", "part",
    "orders", "lineitem", "events", "documents", "embeddings",
]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'")
    return c


def to_pandas(res) -> pd.DataFrame:
    if hasattr(res, "to_pandas"):
        return res.to_pandas()
    return pd.DataFrame(res)


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    df = df.sort_values(list(df.columns), ignore_index=True)
    return df


ORACLE_KEYS = sorted(entry_mod.oracle_sql())


@pytest.mark.parametrize("name", ORACLE_KEYS)
def test_query_matches_oracle(ray_session, con, name):
    q = entry_mod.queries()[name]
    sql = entry_mod.oracle_sql()[name]
    got = canon(to_pandas(q(SF_DIR)))
    want = canon(con.execute(sql).fetchdf())
    assert list(got.columns) == list(want.columns), (got.columns, want.columns)
    assert len(got) == len(want), f"{name}: {len(got)} vs {len(want)} rows"
    for c in got.columns:
        a, b = got[c].tolist(), want[c].tolist()
        for i, (x, y) in enumerate(zip(a, b)):
            if isinstance(x, float) and isinstance(y, float):
                if math.isnan(x) and math.isnan(y):
                    continue
                assert x == pytest.approx(y, abs=1e-12), (name, c, i, x, y)
            else:
                xn = x is None or (isinstance(x, float) and math.isnan(x))
                yn = y is None or (isinstance(y, float) and math.isnan(y))
                if xn or yn:
                    assert xn and yn, (name, c, i, x, y)
                else:
                    assert x == y, (name, c, i, x, y)


def test_rows_only_queries_run(ray_session):
    """Queries without SQL oracles must still run and return sane shapes."""
    qs = entry_mod.queries()
    no_oracle = sorted(set(qs) - set(entry_mod.oracle_sql()))
    assert no_oracle  # minhash/simhash/near-dup/lsh/fingerprint expected here
    for name in no_oracle:
        df = to_pandas(qs[name](SF_DIR))
        if len(df):  # empty results may lose schema through to_pandas
            assert len(df.columns) >= 2, name


def test_token_topk_sketch_guarantee_under_tiny_capacity(ray_session, tmp_path):
    """Misra-Gries guarantee: with capacity m, every token whose true count
    exceeds N/(m+1) survives as a candidate, so the exact recount matches
    the exact top-k. Forced here with m=8 over a 60-word vocabulary with
    planted heavy hitters — the sketch itself drops most of the tail."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from marc_data_migration_ray.pipelines import text_analysis

    docs = []
    for i in range(200):
        words = [f"hot{i % 5}"] * 10 + [f"tail{(i * 7 + j) % 60}" for j in range(5)]
        docs.append(" ".join(words))
    pq.write_table(
        pa.table({"doc_id": pa.array(range(200), pa.int64()),
                  "text": pa.array(docs, pa.string())}),
        str(tmp_path / "documents.parquet"),
    )
    exact = text_analysis.token_topk(str(tmp_path), k=5).to_pylist()
    sk = text_analysis.token_topk_sketch(str(tmp_path), k=5, m=8).to_pylist()
    assert [r["token"] for r in exact] == [f"hot{i}" for i in range(5)]
    assert sk == exact


def test_kmv_sketch_estimator_and_merge_losslessness(ray_session, tmp_path):
    """KMV bottom-k sketch: with k above the true cardinality the output
    is exact (what the SQL oracle checks); with a tiny k the estimator
    must land within 15% of truth; and per-batch truncation is lossless —
    the same answer regardless of block layout."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from marc_data_migration_ray.pipelines import events as ev

    rng = np.random.default_rng(42)
    n = 20_000
    users = rng.integers(0, 3_000, n)  # true distinct ≈ 3000 (dense draw)
    types = np.array(["a", "b"])[rng.integers(0, 2, n)]
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(range(n), pa.int64()),
                "user_id": pa.array(users, pa.int64()),
                "event_type": pa.array(types, pa.string()),
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    truth = {
        e: len(np.unique(users[types == e])) for e in ("a", "b")
    }
    exact = {r["event_type"]: r["n_users_est"]
             for r in ev.event_type_users_sketch(str(tmp_path), k=8192).to_pylist()}
    assert exact == truth
    est = {r["event_type"]: r["n_users_est"]
           for r in ev.event_type_users_sketch(str(tmp_path), k=256).to_pylist()}
    for e, t in truth.items():
        assert abs(est[e] - t) / t < 0.15, (e, est[e], t)


def test_dataset_split_is_layout_independent(ray_session):
    """The hash split must assign identically regardless of block layout
    (the property RNG-based splits lack): same assignments after an
    explicit repartition, and fractions near 80/10/10."""
    from marc_data_migration_ray.pipelines import sampling

    a = {r["doc_id"]: r["split"] for r in sampling.dataset_split(SF_DIR).take_all()}
    b = {
        r["doc_id"]: r["split"]
        for r in sampling.dataset_split(SF_DIR).repartition(7).take_all()
    }
    assert a == b
    n = len(a)
    train = sum(1 for s in a.values() if s == "train")
    assert abs(train / n - 0.8) < 0.1


def test_corpus_shuffle_is_layout_independent(ray_session):
    """The deterministic shuffle rank must be a pure function of the row:
    identical (pos, doc_id) after a repartition, a permutation of all ids."""
    from marc_data_migration_ray.pipelines import curation

    a = {r["doc_id"]: r["pos"] for r in curation.corpus_shuffle(SF_DIR).take_all()}
    ds = curation.corpus_shuffle(SF_DIR)
    b = {r["doc_id"]: r["pos"] for r in ds.repartition(7).take_all()}
    assert a == b
    assert sorted(a.values()) == list(range(len(a)))


def test_decontaminate_planted_overlap(ray_session, tmp_path):
    """A train doc sharing a 4-gram with a benchmark doc is flagged with
    the exact distinct-overlap count; disjoint docs are not."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from marc_data_migration_ray.pipelines import curation

    bench = "alpha beta gamma delta epsilon zeta"          # doc_id 0 (benchmark)
    hit = "xx alpha beta gamma delta epsilon yy"           # shares 2 4-grams
    miss = "one two three four five six seven"             # disjoint
    # tab/multi-space separated: tokens are \S+ runs, so this still hits
    tabhit = "zz\talpha  beta\ngamma delta qq"
    pq.write_table(
        pa.table({"doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                  "text": pa.array([bench, hit, miss, tabhit], pa.string())}),
        str(tmp_path / "documents.parquet"),
    )
    rows = {r["doc_id"]: r["n_hits"]
            for r in curation.decontaminate(str(tmp_path)).take_all()}
    assert rows == {1: 2, 3: 1}
    # and the SQL mirror agrees on the irregular-whitespace doc
    import duckdb as _duck

    con2 = _duck.connect()
    con2.execute(f"CREATE VIEW documents AS SELECT * FROM "
                 f"'{tmp_path}/documents.parquet'")
    odf = con2.execute(entry_mod.oracle_sql()["decontaminate"]).fetchdf()
    assert {int(r.doc_id): int(r.n_hits) for r in odf.itertuples()} == rows


def test_entry_smoke(ray_session):
    res = entry_mod.entry()
    n = res.count() if hasattr(res, "count") else len(res)
    assert n > 0
    names = res.schema().names if hasattr(res, "schema") else list(res.columns)
    assert "doc_id" in names and "n_tok" in names


def test_price_quantiles_constant_column_short_circuit(ray_session, tmp_path):
    """All-equal prices: bin width collapses to 1, the histogram is exact,
    and every quantile is that single value (pass 3 never runs — the
    pathological case must not funnel the whole column to the driver)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from marc_data_migration_ray.pipelines import sampling

    n = 5000
    pq.write_table(
        pa.table({"l_extendedprice": pa.array([19.99] * n, pa.float64())}),
        str(tmp_path / "lineitem.parquet"),
    )
    rows = sampling.price_quantiles(str(tmp_path)).to_pylist()
    assert {r["price_cents"] for r in rows} == {1999}
    assert [r["q_pct"] for r in rows] == [10, 50, 90, 99]


def test_lm_familiarity_short_and_empty_docs(ray_session, tmp_path):
    """Docs with < 2 words have no bigrams: n_bigrams=0, familiarity=0.0
    (not null, not NaN); a doc made entirely of the corpus's top bigram
    scores 1.0."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from marc_data_migration_ray.pipelines import text_analysis

    docs = ["", "single", "a b a b a b a b", "z q"]
    pq.write_table(
        pa.table({"doc_id": pa.array(range(4), pa.int64()),
                  "text": pa.array(docs, pa.string())}),
        str(tmp_path / "documents.parquet"),
    )
    rows = {r["doc_id"]: r for r in
            text_analysis.lm_familiarity(str(tmp_path), m=2).take_all()}
    assert rows[0]["n_bigrams"] == 0 and rows[0]["familiarity"] == 0.0
    assert rows[1]["n_bigrams"] == 0 and rows[1]["familiarity"] == 0.0
    # top-2 bigrams are 'a b' (4x) and 'b a' (3x); doc 2 is all hits
    assert rows[2]["familiarity"] == 1.0
    assert rows[3]["n_bigrams"] == 1 and rows[3]["n_hits"] == 0


def test_range_partition_write_layout(ray_session, tmp_path):
    """range_partition_write: one dir per range, globally DISJOINT contiguous
    (n_chars, doc_id) key ranges, NTILE-exact sizes, union == corpus."""
    import os

    import numpy as np
    import pyarrow.parquet as pq

    from marc_data_migration_ray.pipelines import sampling

    dest = str(tmp_path / "ranged")
    res = sampling.range_partition_write(SF_DIR, dest, k=8)
    src = pq.read_table(os.path.join(SF_DIR, "documents.parquet"))
    n = src.num_rows
    q, big = divmod(n, 8)
    intervals, total = [], 0
    for r in range(1, 9):
        d = os.path.join(dest, f"range_id={r}")
        t = pq.read_table(d)
        nc = t["n_chars"].to_numpy()
        di = t["doc_id"].to_numpy()
        packed = (nc.astype(np.int64) << sampling._RP_PACK_BITS) | di.astype(np.int64)
        want_size = q + 1 if r <= big else q
        assert t.num_rows == want_size, (r, t.num_rows, want_size)
        intervals.append((packed.min(), packed.max()))
        total += t.num_rows
    assert total == n
    for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
        assert hi1 < lo2  # contiguous disjoint ranges in key order
    assert [r["range_id"] for r in res["ranges"]] == list(range(1, 9))


def test_event_pagerank_mass_and_determinism(ray_session):
    """Fixed-point PageRank sanity: ranks positive, total mass ≤ SCALE
    (dangling evaporation + floor loss only shrink it), deterministic
    across runs, and ranks actually differentiate nodes."""
    from marc_data_migration_ray.pipelines import graph

    a = graph.event_pagerank(SF_DIR).to_pylist()
    b = graph.event_pagerank(SF_DIR).to_pylist()
    assert a == b
    fps = [r["rank_fp"] for r in a]
    assert all(fp > 0 for fp in fps)
    assert sum(fps) <= graph.PR_SCALE
    assert sum(fps) > graph.PR_SCALE * 0.9  # little mass is dangling here
    assert len(set(fps)) > 1


def test_tokenize_docs_ids_match_scalar_mirror(ray_session):
    """Beyond the driver's sequence-hash check: the actual id LISTS equal a
    pure-Python re-tokenization against the same exact top-V vocabulary."""
    import re
    from collections import Counter

    import pyarrow.parquet as pq

    from marc_data_migration_ray.pipelines import text_analysis as TA

    rows = pq.read_table(f"{SF_DIR}/documents.parquet").to_pylist()
    c = Counter()
    for r in rows:
        c.update(re.findall(r"\S+", r["text"]))
    vocab = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[: TA.VOCAB_SIZE]
    vmap = {w: i + 1 for i, (w, _n) in enumerate(vocab)}
    got = {r["doc_id"]: list(r["token_ids"])
           for r in TA.tokenize_docs(SF_DIR).take_all()}
    assert len(got) == len(rows)
    for r in rows:
        want = [vmap.get(w, TA.OOV_ID) for w in re.findall(r"\S+", r["text"])]
        assert got[r["doc_id"]] == want, r["doc_id"]


def test_kmv_hash_cache_is_bounded(monkeypatch):
    """VERDICT r4 item 2: the worker-global md5 memo in the KMV partial
    must stop growing at its cap (checked INSIDE the loop, like
    dedup._MD5_WORD_CACHE) while hashing stays correct past it."""
    import pyarrow as pa

    from marc_data_migration_ray.pipelines import tpch

    monkeypatch.setattr(tpch, "_KMV_HASH_CACHE", {})
    monkeypatch.setattr(tpch, "_KMV_HASH_CACHE_MAX", 100)
    fn = tpch._kmv_partial_fn("k")
    t = pa.table({"k": pa.array(range(1000), pa.int64())})
    out1 = fn(t)
    assert len(tpch._KMV_HASH_CACHE) == 100  # capped, not 1000
    out2 = fn(t)  # beyond-cap keys recompute, identically
    assert out1.equals(out2)
    import hashlib
    want = sorted(
        int.from_bytes(hashlib.md5(str(v).encode()).digest()[8:16],
                       "little") % tpch.KMV_MOD
        for v in range(1000))[: tpch.KMV_K]
    assert out1["hv"].to_pylist() == want


#: media decoders whose pixel/sample sums are DuckDB ``list_sum`` results
MEDIA_ORACLES = (
    "media_real_decode", "media_resize", "media_frames_real",
    "media_png_decode", "media_gif_decode", "media_jpeg_decode",
    "media_jpeg_color_decode", "media_scene_cuts",
)


def test_media_oracles_emit_no_hugeint(con):
    """DuckDB 1.0 types ``list_sum`` over integers as HUGEINT, which an
    exact value hash does not match against the engine's int64 sums; the
    media oracles cast those sums to BIGINT."""
    sql = entry_mod.oracle_sql()
    for name in MEDIA_ORACLES:
        types = {c: t for c, t, *_ in con.execute(
            f"DESCRIBE {sql[name]}").fetchall()}
        assert "HUGEINT" not in types.values(), (name, types)


def test_never_checked_queries_lead_the_rotation():
    """The driver's correctness gate samples the first 50 keys: the 37
    queries with no row in any external correctness run (r1-r5) come
    first, then media_png_decode, whose r5 row was the one red."""
    import json
    import os

    root = os.path.dirname(os.path.abspath(entry_mod.__file__))
    seen = set()
    for r in range(1, 6):
        with open(os.path.join(root, f"CORRECTNESS_r0{r}.json")) as f:
            seen |= set(json.load(f))
    qs = list(entry_mod.queries())
    never = {q for q in qs if q not in seen}
    assert len(never) == 37
    assert set(qs[:37]) == never
    assert qs[37] == "media_png_decode"
