"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship CDC replay (real engine: ParseRoute actor
pool → hash-partitioned vectorized LWW fold → manifest-committed deltas)
on sf0.001-derived inputs. ``queries()`` exposes each implemented operator
from SURVEY.md §2 + the training-data ops; ``oracle_sql()`` gives the
DuckDB-equivalent SQL where expressible (column names match exactly).

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from collections.abc import Callable
from typing import Any

# ---------------------------------------------------------------- entry --


def entry() -> Any:
    """Flagship: epoch-fenced manifest replay of the sf0.001-derived binlog
    onto the sf0.001-derived base table; returns the final table state."""
    from marc_data_migration_ray.config import ReplayConfig
    from marc_data_migration_ray.pipelines import derived
    from marc_data_migration_ray.pipelines.replay import Replayer

    sf_dir = "/root/testdata/sf0.001"
    root = os.path.join(tempfile.gettempdir(), "ray_entry_table")
    shutil.rmtree(root, ignore_errors=True)
    cfg = ReplayConfig(num_partitions=8)

    base_dir = os.path.join(root, "base_in")
    binlog_dir = os.path.join(root, "binlog_in")
    derived.build_base_ds(sf_dir).write_parquet(base_dir)
    derived.build_binlog_ds(sf_dir).write_parquet(binlog_dir)

    rp = Replayer(os.path.join(root, "table"), cfg, base_path=base_dir)
    rp.apply_epoch(0, binlog_dir)
    return rp.read_state()


# -------------------------------------------------------------- queries --

#: queries with no row in any external correctness run (r1-r5), put first
#: in ``queries()`` so the next driver run checks them
NEVER_DRIVER_CHECKED = (
    # text analysis / sampling / curation / enrichment
    "source_overlap", "best_docs_per_source", "bpe_train",
    "compression_ratio", "token_quantiles_by_source", "corpus_curation",
    "enrich_authority",
    # dedup / clustering / ANN
    "exact_substring_scrub", "dedup_incremental", "embedding_near_dup_lsh",
    "embedding_pca", "semantic_clusters", "label_similarity",
    "ann_topk_ivf", "ann_topk_pq",
    # events / windows / graph / temporal joins
    "late_event_counts", "user_top_event", "user_value_trailing_1h",
    "event_type_users_sketch", "user_value_moving_avg", "daily_anomaly",
    "event_pivot", "event_markov", "top_orders_per_customer",
    "purchase_followup", "purchase_views_window",
    # multimodal
    "media_decode", "media_frame_sample", "media_real_decode",
    "media_resize", "media_frames_real", "audio_frame_features",
    "media_gif_decode", "media_adpcm_decode", "media_scene_cuts",
    "media_jpeg_decode", "media_jpeg_color_decode",
)


def queries() -> dict[str, Callable[[str], Any]]:
    from marc_data_migration_ray.config import ReplayConfig
    from marc_data_migration_ray.pipelines import (
        clustering,
        curation,
        dedup,
        derived,
        enrichment,
        events,
        graph,
        index,
        multimodal,
        policy_queries,
        reports,
        sampling,
        similarity,
        joins,
        temporal,
        text_analysis,
        tpch,
    )

    q = {
        # site-policy plugin chain (reference P1-P5, P7, P9-P12)
        "policy_location_map": policy_queries.policy_location_map,
        "policy_chain": policy_queries.policy_chain,
        "policy_mat_type": policy_queries.policy_mat_type,
        "online_counts": policy_queries.online_counts,
        # CDC core (SURVEY §2.2-§2.6 recast; SEMANTICS.md)
        "cdc_lww_state": lambda sf: derived.cdc_lww_state(sf),
        "cdc_multi_table_txn": lambda sf: derived.cdc_multi_table_txn(sf),
        "cdc_routing_counts": lambda sf: derived.cdc_routing_counts(sf),
        "cdc_routing_counts_f001": lambda sf: derived.cdc_routing_counts_f001(sf),
        "cdc_constraint_counts": derived.cdc_constraint_counts,
        "cdc_constraint_state": derived.cdc_constraint_state,
        "export_scan_prune": derived.export_scan_prune,
        "export_scan_prune_2d": derived.export_scan_prune_2d,
        "cdc_versions": derived.cdc_versions,
        "cdc_dup_keys": lambda sf: derived.cdc_dup_keys(sf),
        "cdc_point_lookup": lambda sf: derived.cdc_point_lookup(sf),
        "cdc_doc_history": lambda sf: derived.cdc_doc_history(sf),
        "cdc_doc_history_indexed":
            lambda sf: derived.cdc_doc_history_indexed(sf),
        "cdc_near_dup_index": lambda sf: derived.cdc_near_dup_index(sf),
        "cdc_near_dup_probe": lambda sf: derived.cdc_near_dup_probe(sf),
        "cdc_ingest_dedup_gate":
            lambda sf: derived.cdc_ingest_dedup_gate(sf),
        "cdc_index_range": lambda sf: derived.cdc_index_range(sf),
        "cdc_point_lookup_indexed":
            lambda sf: derived.cdc_point_lookup_indexed(sf),
        "cdc_maintain_state": lambda sf: derived.cdc_maintain_state(sf),
        "cdc_state_projection": derived.cdc_state_projection,
        "cdc_virtual_column": derived.cdc_virtual_column,
        "cdc_merge_state": lambda sf: derived.cdc_merge_state(sf),
        "cdc_source_counts": lambda sf: derived.cdc_source_counts(sf),
        "cdc_table_stats": lambda sf: derived.cdc_table_stats(sf),
        "cdc_changes": lambda sf: derived.cdc_changes(sf),
        "cdc_time_travel": lambda sf: derived.cdc_time_travel(sf),
        # key/title kernels (M1-M3, M7, M15)
        "key_normalize": reports.key_normalize,
        "title_normalize": reports.title_normalize,
        "title_jaccard": reports.title_jaccard,
        "intra_record_dups": reports.intra_record_dups,
        # relational coverage (A1-A3, J1-J4 analogs)
        "pricing_summary": tpch.pricing_summary,
        "nation_revenue": tpch.nation_revenue,
        "region_order_stats": tpch.region_order_stats,
        "top_docs": tpch.top_docs,
        "customer_order_join": tpch.customer_order_join,
        "customer_order_totals": tpch.customer_order_totals,
        "urgent_lineitem_flags": joins.urgent_lineitem_flags,
        "customers_without_urgent_orders": joins.customers_without_urgent_orders,
        "priority_revenue_salted": joins.priority_revenue_salted,
        "parts_by_brand": tpch.parts_by_brand,
        "supplier_balance": tpch.supplier_balance,
        "order_skyline": lambda sf: tpch.order_skyline(sf),
        "min_cost_supplier": tpch.min_cost_supplier,
        "revenue_rollup": tpch.revenue_rollup,
        "supplier_revenue_share": tpch.supplier_revenue_share,
        "shipping_delay_stats": tpch.shipping_delay_stats,
        "distinct_orders_kmv": tpch.distinct_orders_kmv,
        # text analysis (training-data ops)
        "token_count": text_analysis.token_count,
        "bpe_token_count": text_analysis.bpe_token_count,
        "quality_score": text_analysis.quality_score,
        "lang_id": text_analysis.lang_id,
        "doc_fingerprint": text_analysis.fingerprint,
        "source_overlap": text_analysis.source_overlap,
        "best_docs_per_source": text_analysis.best_docs_per_source,
        "embedding_pca": clustering.embedding_pca,
        "token_topk": text_analysis.token_topk,
        "oov_rate": text_analysis.oov_rate,
        "ngram_topk": text_analysis.ngram_topk,
        "token_topk_sketch": text_analysis.token_topk_sketch,
        "token_doc_freq": text_analysis.token_doc_freq,
        "tfidf_topk": text_analysis.tfidf_topk,
        "source_lang_rollup": text_analysis.source_lang_rollup,
        "word_repetition": text_analysis.word_repetition,
        "lm_familiarity": text_analysis.lm_familiarity,
        "token_concentration": text_analysis.token_concentration,
        "token_lift": text_analysis.token_lift,
        "tokenize_docs": text_analysis.tokenize_docs_fp,
        # BPE merge-rule learning (distributed word-count pass + driver
        # merge loop over the bounded word table; pytest scalar mirror —
        # the iterative loop is not SQL-expressible, so no oracle entry)
        "bpe_train": text_analysis.bpe_train,
        # zlib compressibility quality signal (no SQL zlib — pytest mirror)
        "compression_ratio": text_analysis.compression_ratio,
        "source_token_drift": text_analysis.source_token_drift,
        # inverted index: scan-side boolean retrieval + term-partitioned build
        "boolean_search": index.boolean_search,
        "inverted_postings": index.inverted_postings,
        "bm25_topk": index.bm25_topk,
        "rrf_fusion": index.rrf_fusion,
        # deterministic corpus plumbing: reproducible split + data mixing
        "dataset_split": sampling.dataset_split,
        "source_mix_sample": sampling.source_mix_sample,
        "stratified_sample": sampling.stratified_sample,
        "weighted_sample": sampling.weighted_sample,
        "dsir_weights": sampling.dsir_weights,
        "range_partition": sampling.range_partition,
        "token_quantiles": sampling.token_quantiles,
        "price_quantiles": sampling.price_quantiles,
        "token_quantiles_by_source": sampling.token_quantiles_by_source,
        "token_length_percentile": sampling.token_length_percentile,
        "sequence_pack": text_analysis.sequence_pack,
        # curation: decontamination, PII redaction, deterministic shuffle
        "decontaminate": curation.decontaminate,
        "pii_redact": curation.pii_redact,
        "corpus_shuffle": curation.corpus_shuffle,
        "corpus_curation": curation.corpus_curation,
        "blocklist_filter": curation.blocklist_filter,
        "chunk_documents": curation.chunk_documents,
        # rate-limited external enrichment (reference S5 / the throttled
        # 3-try authority lookup, actor-pool + token-bucket + deadletter)
        "enrich_authority": enrichment.enrich_authority,
        # dedup family
        "dedup_exact": dedup.dedup_exact,
        "block_dedup": dedup.block_dedup,
        "exact_substring_spans": dedup.exact_substring_spans,
        "exact_substring_scrub": dedup.exact_substring_scrub,
        "dedup_minhash": dedup.dedup_minhash,
        "dedup_incremental": dedup.dedup_incremental,
        "dedup_clusters": dedup.dedup_clusters,
        "dedup_keep_best": dedup.dedup_keep_best,
        "dedup_simhash": dedup.dedup_simhash,
        "embedding_near_dup": dedup.embedding_near_dup,
        "embedding_near_dup_lsh": dedup.embedding_near_dup_lsh,
        # embedding clustering (SemDeDup-style curation building blocks)
        "embedding_assign": lambda sf: clustering.embedding_assign(sf),
        "semantic_clusters": lambda sf: clustering.semantic_clusters(sf),
        "label_similarity": clustering.label_similarity,
        "semdedup": clustering.semdedup,
        "embedding_gram": clustering.embedding_gram,
        # similarity search
        "ann_topk": lambda sf: similarity.ann_topk(sf),
        "ann_topk_filtered": lambda sf: similarity.ann_topk_filtered(sf),
        "ann_topk_per_source": lambda sf: similarity.ann_topk_per_source(sf),
        "ann_topk_lsh": lambda sf: similarity.ann_topk_lsh(sf),
        "ann_topk_ivf": lambda sf: similarity.ann_topk_ivf(sf),
        "ann_topk_pq": lambda sf: similarity.ann_topk_pq(sf),
        "closest_pairs": lambda sf: similarity.closest_pairs(sf),
        "monthly_revenue": tpch.monthly_revenue,
        # stream-shaped ops over events (windows / sessions / distincts)
        "user_daily_value": events.user_daily_value,
        "late_event_counts": events.late_event_counts,
        "user_top_event": events.user_top_event,
        "user_value_trailing_1h": events.user_value_trailing_1h,
        "session_count": events.session_count,
        "user_sessions": events.user_sessions,
        "event_type_users": events.event_type_users,
        "event_type_users_sketch": lambda sf: events.event_type_users_sketch(sf),
        "sliding_window_value": events.sliding_window_value,
        "user_value_moving_avg": events.user_value_moving_avg,
        "peak_concurrency": events.peak_concurrency,
        "retention_cohorts": events.retention_cohorts,
        "daily_anomaly": events.daily_anomaly,
        "event_pivot": events.event_pivot,
        "event_dedup_window": events.event_dedup_window,
        # iterative graph analytics: fixed-point PageRank over transitions
        "event_pagerank": lambda sf: graph.event_pagerank(sf),
        "event_markov": lambda sf: graph.event_markov(sf),
        "top_orders_per_customer": events.top_orders_per_customer,
        "key_diff_report": events.key_diff_report,
        # temporal as-of joins (co-partitioned polars join_asof per bucket)
        "purchase_attribution": temporal.purchase_attribution,
        "purchase_followup": temporal.purchase_followup,
        # interval (range) join: one row per (purchase, in-window view)
        "purchase_views_window": temporal.purchase_views_window,
        # sequential-pattern funnel (signup -> view -> purchase)
        "funnel_conversion": temporal.funnel_conversion,
        # multimodal plumbing over real binary columns (actor-pool decode)
        "media_decode": multimodal.media_decode,
        "media_frame_sample": multimodal.media_frame_sample,
        # REAL container parsing (PPM/WAV/Y4M — no codec libs needed)
        "media_real_decode": multimodal.media_real_decode,
        "media_resize": multimodal.media_resize,
        "media_frames_real": multimodal.media_frames_real,
        "audio_frame_features": multimodal.audio_frame_features,
        "media_png_decode": multimodal.media_png_decode,
        "media_gif_decode": multimodal.media_gif_decode,
        "media_adpcm_decode": multimodal.media_adpcm_decode,
        "media_scene_cuts": multimodal.media_scene_cuts,
        "media_jpeg_decode": multimodal.media_jpeg_decode,
        "media_jpeg_color_decode": multimodal.media_jpeg_color_decode,
    }
    # Driver rotation (VERDICT r5 "What's missing #1"): the driver's
    # correctness gate samples the FIRST 50 keys each round. These 37 have
    # never been externally checked (no CORRECTNESS_r01-r05 row); every
    # entry stays present for the in-repo harness (order is the ONLY
    # change). media_png_decode follows them: its red r5 row should turn
    # green now that the media oracles emit BIGINT.
    first = NEVER_DRIVER_CHECKED + ("media_png_decode",)
    assert len(set(first)) == len(first) == 38
    return {**{k: q.pop(k) for k in first}, **q}


# ----------------------------------------------------------- oracle SQL --

# exact all-pairs 3-shingle Jaccard pair CTEs (shingle semantics mirror
# dedup.shingle_set; the least/greatest length prefilter is lossless:
# jaccard <= min|s|/max|s|) — shared by dedup_minhash and dedup_clusters
_MINHASH_PAIR_CTES = (
    r"w AS (SELECT doc_id, regexp_extract_all(text, '\S+') ws FROM documents), "
    "sh AS (SELECT doc_id, CASE WHEN len(ws) = 0 THEN CAST([] AS VARCHAR[]) "
    "WHEN len(ws) < 3 THEN [array_to_string(ws, ' ')] "
    "ELSE list_distinct([ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] "
    "for i in range(1, len(ws)-1)]) END AS s FROM w), "
    "p AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, a.s AS sa, b.s AS sb "
    "FROM sh a JOIN sh b ON a.doc_id < b.doc_id "
    "WHERE least(len(a.s), len(b.s)) >= 0.8 * greatest(len(a.s), len(b.s))), "
    "j AS (SELECT doc_a, doc_b, "
    "CASE WHEN len(list_distinct(list_concat(sa, sb))) = 0 THEN 0.0 "
    "ELSE CAST(len(list_intersect(sa, sb)) AS DOUBLE) "
    "/ len(list_distinct(list_concat(sa, sb))) END AS jaccard FROM p)"
)

# shared SQL fragments — regexes identical to functions/keys.py and
# functions/text.py (both RE2)
_NORM_KEY = (
    "regexp_replace(regexp_replace(regexp_replace(trim({col}), "
    "'\\(OCoLC\\)', '', 'ig'), '^(ocn|ocm|on)', '', 'i'), '\\W+\\d+$', '')"
)

_BINLOG = """
binlog AS (
  SELECT event_id AS lsn,
         CAST(user_id % (SELECT count(*) FROM documents) AS VARCHAR) AS doc_id,
         CASE event_type WHEN 'signup' THEN 'insert'
                         WHEN 'error' THEN 'delete'
                         ELSE 'update' END AS op,
         CAST(length(props) AS BIGINT) AS n_tok_new,
         event_type AS source_new,
         CAST(event_id % 101 AS INTEGER) AS score
  FROM events
)"""

_CDC_STATE = f"""
WITH {_BINLOG},
base AS (
  SELECT CAST(doc_id AS VARCHAR) AS doc_id,
         CAST(length(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n_tok,
         source
  FROM documents
),
gated AS (
  SELECT * FROM binlog
  WHERE op IN ('insert', 'delete')
     OR (op = 'update' AND (score = 100 OR score >= 50))
),
anchor AS (
  SELECT doc_id, lsn AS anchor_lsn, op AS anchor_op, n_tok_new, source_new
  FROM (SELECT *, row_number() OVER (PARTITION BY doc_id ORDER BY lsn DESC) rn
        FROM gated WHERE op IN ('insert', 'delete'))
  WHERE rn = 1
),
winner AS (
  SELECT u.doc_id, u.lsn, u.n_tok_new, u.source_new, u.score
  FROM (SELECT g.*,
               row_number() OVER (PARTITION BY g.doc_id ORDER BY g.lsn DESC) rn
        FROM gated g
        LEFT JOIN anchor a ON g.doc_id = a.doc_id
        WHERE g.op = 'update'
          AND (a.doc_id IS NULL OR (g.lsn > a.anchor_lsn AND a.anchor_op <> 'delete'))) u
  WHERE u.rn = 1
)
SELECT b.doc_id,
       COALESCE(w.n_tok_new, CASE WHEN a.anchor_op = 'insert' THEN a.n_tok_new END, b.n_tok) AS n_tok,
       COALESCE(w.source_new, CASE WHEN a.anchor_op = 'insert' THEN a.source_new END, b.source) AS source,
       COALESCE(w.lsn, CASE WHEN a.anchor_op = 'insert' THEN a.anchor_lsn END, -1) AS last_lsn,
       COALESCE(CASE WHEN w.lsn IS NOT NULL THEN
                  CASE WHEN w.score = 100 THEN 'perfect' ELSE 'fuzzy-match-passed' END END,
                CASE WHEN a.anchor_op = 'insert' THEN 'inserted' END,
                'base') AS status
FROM base b
LEFT JOIN anchor a ON b.doc_id = a.doc_id
LEFT JOIN winner w ON b.doc_id = w.doc_id
WHERE a.anchor_op IS NULL OR a.anchor_op <> 'delete'
"""

_GATED_PLAIN = """WHERE op IN ('insert', 'delete')
     OR (op = 'update' AND (score = 100 OR score >= 50))"""

# half-binlog cut for the change-feed oracle: same gate, lsn <= max//2
# (mirrors derived.cdc_changes' epoch split)
_GATED_HALF = (
    "WHERE lsn <= (SELECT max(event_id) // 2 FROM events) "
    "AND (op IN ('insert', 'delete') "
    "OR (op = 'update' AND (score = 100 OR score >= 50)))"
)
_GATED_CHECKED = """WHERE op = 'delete'
     OR (op IN ('insert', 'update')
         AND n_tok_new <= 8 AND source_new IN ('signup', 'click', 'view')
         AND (op = 'insert' OR score = 100 OR score >= 50))"""
assert _GATED_PLAIN in _CDC_STATE
_CDC_STATE_CHECKED = _CDC_STATE.replace(_GATED_PLAIN, _GATED_CHECKED)

# ingest expectations (config.check_constraints; constants shared with
# derived.CONSTRAINT_CHECKS): a non-malformed insert/update failing a check
# is rejected BEFORE any other gate decision, first declared name wins
_CHECK_N_TOK = "n_tok_new > 8"
_CHECK_SOURCE = "source_new NOT IN ('signup', 'click', 'view')"

_CONSTRAINT_ROUTING = f"""
WITH {_BINLOG},
routed AS (
  SELECT op,
         CASE WHEN op IN ('insert', 'update') AND ({_CHECK_N_TOK} OR {_CHECK_SOURCE})
                   THEN 'rejected'
              WHEN op IN ('insert', 'delete') THEN 'applied'
              WHEN score = 100 THEN 'applied'
              WHEN score >= 50 THEN 'fuzzy'
              ELSE 'rejected' END AS route,
         CASE WHEN op IN ('insert', 'update') AND {_CHECK_N_TOK}
                   THEN 'check-failed:n_tok_le_8'
              WHEN op IN ('insert', 'update') AND {_CHECK_SOURCE}
                   THEN 'check-failed:source_known'
              WHEN op = 'insert' THEN 'inserted'
              WHEN op = 'delete' THEN 'tombstone'
              WHEN score = 100 THEN 'perfect'
              WHEN score >= 50 THEN 'fuzzy-match-passed'
              ELSE 'fuzzy-match-failed' END AS status
  FROM binlog
)
SELECT op, route, status, CAST(count(*) AS BIGINT) AS n
FROM routed GROUP BY op, route, status
ORDER BY op, route, status
"""

_ROUTING = f"""
WITH {_BINLOG},
routed AS (
  SELECT op,
         CASE WHEN op IN ('insert', 'delete') THEN 'applied'
              WHEN score = 100 THEN 'applied'
              WHEN score >= 50 THEN 'fuzzy'
              ELSE 'rejected' END AS route,
         CASE WHEN op = 'insert' THEN 'inserted'
              WHEN op = 'delete' THEN 'tombstone'
              WHEN score = 100 THEN 'perfect'
              WHEN score >= 50 THEN 'fuzzy-match-passed'
              ELSE 'fuzzy-match-failed' END AS status
  FROM binlog
)
SELECT op, route, status, CAST(count(*) AS BIGINT) AS n
FROM routed GROUP BY op, route, status
ORDER BY op, route, status
"""

_QUALITY = """
SELECT doc_id,
       CAST(length(text) AS BIGINT) AS n_chars,
       CAST(length(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n_tokens,
       CAST(length(regexp_extract_all(text, '\\b(the|of|a|an|p|n)\\b')) AS BIGINT) AS n_stop,
       CAST(length(regexp_extract_all(text, '\\b(the|of|a|an|p|n)\\b')) AS DOUBLE)
         / greatest(length(regexp_extract_all(text, '\\S+')), 1) AS stop_ratio,
       length(regexp_extract_all(text, '\\S+')) >= 5
         AND CAST(length(regexp_extract_all(text, '\\b(the|of|a|an|p|n)\\b')) AS DOUBLE)
             / greatest(length(regexp_extract_all(text, '\\S+')), 1) < 0.5 AS is_quality
FROM documents
"""

_LANG_ID = """
WITH c AS (
  SELECT doc_id,
         length(regexp_extract_all(text, '\\b(the|and|of|to|in|is)\\b')) AS en,
         length(regexp_extract_all(text, '\\b(el|los|las|una|que|de)\\b')) AS es,
         length(regexp_extract_all(text, '\\b(le|les|des|une|est|et)\\b')) AS fr,
         length(regexp_extract_all(text, '\\b(der|die|das|und|ist|ein)\\b')) AS de
  FROM documents
)
SELECT doc_id,
       CASE WHEN greatest(en, es, fr, de) = 0 THEN 'und'
            WHEN en >= es AND en >= fr AND en >= de THEN 'en'
            WHEN es >= fr AND es >= de THEN 'es'
            WHEN fr >= de THEN 'fr'
            ELSE 'de' END AS lang_pred
FROM c
"""

_TITLE_JACCARD = """
WITH w AS (
  SELECT doc_id,
         list_distinct(list_filter(regexp_extract_all(text, '\\S+'),
           x -> x NOT IN ('the', 'of', 'a', 'an', 'p', 'n'))) AS ws
  FROM documents
)
SELECT a.doc_id,
       CASE WHEN length(list_distinct(list_concat(a.ws, b.ws))) = 0 THEN 0.0
            ELSE CAST(length(list_intersect(a.ws, b.ws)) AS DOUBLE)
                 / length(list_distinct(list_concat(a.ws, b.ws))) END AS jaccard
FROM w a JOIN w b ON b.doc_id = a.doc_id + 1
"""

_TOKEN_TOPK = r"""
WITH t AS (
  SELECT unnest(regexp_extract_all(text, '\S+')) AS token FROM documents
),
c AS (SELECT token, CAST(count(*) AS BIGINT) AS n FROM t GROUP BY token)
SELECT CAST(row_number() OVER (ORDER BY n DESC, token) AS BIGINT) AS rank, token, n
FROM c ORDER BY n DESC, token LIMIT 20
"""

_ANN_TOPK = """
WITH q AS (
  SELECT vec_id AS query_id, embedding AS qe FROM embeddings WHERE vec_id IN (0, 1, 2)
),
sims AS (
  SELECT q.query_id, e.vec_id,
         list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), CAST(q.qe AS DOUBLE[])) AS sim
  FROM embeddings e, q
  WHERE e.vec_id <> q.query_id
)
SELECT query_id, CAST(rn AS BIGINT) AS rank, vec_id
FROM (SELECT *, row_number() OVER (PARTITION BY query_id ORDER BY sim DESC, vec_id) rn
      FROM sims)
WHERE rn <= 5
"""


def _policy_sql() -> dict[str, str]:
    """Site-policy oracles, built from the same constants the kernels use
    (``pipelines/policy_queries`` SQL-fragment builders)."""
    from marc_data_migration_ray.pipelines import policy_queries as pqs

    cn = pqs.cn_case_sql("doc_id")
    loc_map = (
        f"SELECT doc_id, {cn} AS call_number, "
        f"{pqs.location_case_sql(cn)} AS location FROM documents"
    )
    note = pqs.note_sql("doc_id")
    fr = pqs.chain_sql_fragments("note")
    chain = (
        f"WITH n AS (SELECT doc_id, {note} AS note FROM documents) "
        f"SELECT doc_id, {fr['location']} AS location, "
        f"{fr['inventory_date']} AS inventory_date, {fr['fund']} AS fund, "
        f"{fr['item_policy']} AS item_policy, {fr['online_type']} AS online_type, "
        f"({fr['online_type']}) IS NOT NULL AS online, "
        f"CAST(({fr['location']} IS NOT NULL)::INT + ({fr['inventory_date']} IS NOT NULL)::INT "
        f"+ ({fr['fund']} IS NOT NULL)::INT + ({fr['item_policy']} IS NOT NULL)::INT AS BIGINT) "
        f"AS n_local_fields FROM n"
    )
    mat_cn = pqs.cn_case_sql("doc_id", pqs.MAT_CN_TEMPLATES)
    mat_pd = pqs.cn_case_sql("doc_id", pqs.MAT_PD_TEMPLATES)
    mats = pqs.mat_conflict_sql("call_number", "phys_desc")
    mat_cols = ", ".join(f"{expr} AS {name}" for name, expr in mats.items())
    any_c = " OR ".join(mats.values())
    mat = (
        f"WITH m AS (SELECT doc_id, {mat_cn} AS call_number, {mat_pd} AS phys_desc "
        f"FROM documents) "
        f"SELECT doc_id, call_number, phys_desc, {mat_cols} FROM m WHERE {any_c}"
    )
    online = (
        f"WITH n AS (SELECT doc_id, {note} AS note FROM documents) "
        f"SELECT COALESCE({fr['online_type']}, 'offline') AS online_type, "
        f"CAST(count(*) AS BIGINT) AS n FROM n GROUP BY 1 ORDER BY 1"
    )
    return {
        "policy_location_map": loc_map,
        "policy_chain": chain,
        "policy_mat_type": mat,
        "online_counts": online,
    }


def _sequence_pack_sql() -> str:
    from marc_data_migration_ray.pipelines.text_analysis import PACK_LEN

    return (
        r"WITH t AS (SELECT doc_id, CAST(length(regexp_extract_all(text, '\S+')) "
        r"AS BIGINT) AS n_tok FROM documents), "
        "s AS (SELECT doc_id, n_tok, CAST(sum(n_tok) OVER (ORDER BY doc_id "
        "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) - n_tok AS BIGINT) "
        "AS start_tok FROM t) "
        f"SELECT doc_id, n_tok, start_tok, "
        f"CAST(start_tok // {PACK_LEN} AS BIGINT) AS first_pack, "
        f"CAST(greatest(start_tok, start_tok + n_tok - 1) // {PACK_LEN} AS BIGINT) "
        f"AS last_pack FROM s"
    )


def _multimodal_sql() -> dict[str, str]:
    from marc_data_migration_ray.pipelines import multimodal as mm

    return {
        "media_real_decode": mm.media_real_decode_sql(),
        "media_resize": mm.media_resize_sql(),
        "media_frames_real": mm.media_frames_real_sql(),
        "audio_frame_features": mm.audio_frame_features_sql(),
        "media_png_decode": mm.media_png_decode_sql(),
        "media_gif_decode": mm.media_gif_decode_sql(),
        "media_adpcm_decode": mm.media_adpcm_decode_sql(),
        "media_scene_cuts": mm.media_scene_cuts_sql(),
        "media_jpeg_decode": mm.media_jpeg_decode_sql(),
        "media_jpeg_color_decode": mm.media_jpeg_color_decode_sql(),
    }


def _text_analysis_rollup_sql() -> str:
    from marc_data_migration_ray.pipelines.text_analysis import source_lang_rollup_sql

    return source_lang_rollup_sql()


def _derived_lookup_ids() -> tuple[str, ...]:
    from marc_data_migration_ray.pipelines.derived import LOOKUP_IDS

    return LOOKUP_IDS


def _derived_history_ids() -> tuple[str, ...]:
    from marc_data_migration_ray.pipelines.derived import HISTORY_IDS

    return HISTORY_IDS


def oracle_sql() -> dict[str, str]:
    """DuckDB equivalents. Omitted keys (embedding_near_dup_lsh,
    ann_topk_lsh, ann_topk_ivf, ann_topk_pq) are approximate ops whose
    exact recall sets are not SQL-expressible → driver does rows-only
    checks; each is independently verified in pytest
    (tests/test_dedup_verification.py). bpe_train (iterative merge loop),
    compression_ratio (zlib) and embedding_pca (power-iteration eigen;
    scalar-mirror + numpy-eigh pytest) are likewise non-SQL."""
    from marc_data_migration_ray.pipelines import clustering as _clustering
    from marc_data_migration_ray.pipelines import enrichment as _enrichment
    from marc_data_migration_ray.pipelines import joins as _joins
    from marc_data_migration_ray.pipelines import curation as _curation
    from marc_data_migration_ray.pipelines import dedup as _dedup
    from marc_data_migration_ray.pipelines import sampling as _sampling
    from marc_data_migration_ray.pipelines import index as _index
    from marc_data_migration_ray.pipelines import text_analysis as _ta
    from marc_data_migration_ray.pipelines import temporal as temporal_mod
    from marc_data_migration_ray.pipelines import events as _events_mod
    from marc_data_migration_ray.pipelines import graph as _graph
    from marc_data_migration_ray.pipelines import tpch as _tpch_mod

    sql = {
        **_policy_sql(),
        "source_lang_rollup": _text_analysis_rollup_sql(),
        "word_repetition": _ta.word_repetition_sql(),
        "lm_familiarity": _ta.lm_familiarity_sql(),
        "token_concentration": _ta.token_concentration_sql(),
        "token_lift": _ta.token_lift_sql(),
        "tokenize_docs": _ta.tokenize_docs_sql(),
        "source_token_drift": _ta.source_token_drift_sql(),
        "source_overlap": _ta.source_overlap_sql(),
        "best_docs_per_source": _ta.best_docs_per_source_sql(),
        "ngram_topk": _ta.ngram_topk_sql(),
        "boolean_search": _index.boolean_search_sql(),
        "inverted_postings": _index.inverted_postings_sql(),
        "bm25_topk": _index.bm25_topk_sql(),
        "rrf_fusion": _index.rrf_fusion_sql(),
        # fixed-centroid cosine assignment; and the full distributed
        # k-means — the oracle UNROLLS the same Lloyd iterations as CTEs
        "embedding_assign": _clustering.embedding_assign_sql(),
        "semantic_clusters": _clustering.semantic_clusters_sql(),
        "label_similarity": _clustering.label_similarity_sql(),
        "embedding_gram": _clustering.embedding_gram_sql(),
        "semdedup": _clustering.semdedup_sql(),
        # integer-threshold multiplicative-hash mirrors, built from the
        # same constants the kernels use
        "dataset_split": _sampling.split_sql(),
        "source_mix_sample": _sampling.mix_sql(),
        "stratified_sample": _sampling.stratified_sql(),
        "weighted_sample": _sampling.weighted_sample_sql(),
        "dsir_weights": _sampling.dsir_weights_sql(),
        "range_partition": _sampling.range_partition_sql(),
        "token_quantiles": _sampling.quantiles_sql(),
        "price_quantiles": _sampling.price_quantiles_sql(),
        "token_quantiles_by_source": _sampling.token_quantiles_by_source_sql(),
        "token_length_percentile": _sampling.token_length_percentile_sql(),
        # exact FNV-1a 64 in SQL: HUGEINT gives 128-bit headroom for the
        # multiply, mod 2^64 wraps, final CASE views it as signed int64;
        # texts are ASCII so ascii(char) == utf-8 byte
        "doc_fingerprint": (
            "SELECT doc_id, "
            "CAST(CASE WHEN h >= CAST(9223372036854775808 AS HUGEINT) "
            "THEN h - CAST(18446744073709551616 AS HUGEINT) ELSE h END "
            "AS BIGINT) AS fp "
            "FROM (SELECT doc_id, list_reduce("
            "list_prepend(CAST(14695981039346656037 AS HUGEINT), "
            "[CAST(ascii(text[i]) AS HUGEINT) "
            "for i in range(1, length(text) + 1)]), "
            "(h, c) -> (xor(h, c) * 1099511628211) "
            "% CAST(18446744073709551616 AS HUGEINT)) AS h FROM documents)"
        ),
        "token_doc_freq": (
            r"WITH tok AS (SELECT DISTINCT doc_id, "
            r"unnest(regexp_extract_all(text, '\S+')) AS token FROM documents), "
            "d AS (SELECT token, CAST(count(*) AS BIGINT) AS df FROM tok "
            "GROUP BY token) "
            "SELECT CAST(ROW_NUMBER() OVER (ORDER BY df DESC, token) AS BIGINT) "
            "AS rank, token, df FROM d ORDER BY rank LIMIT 20"
        ),
        # log-free idf: score = tf*N/df as one exact-int double division
        # (bit-identical across engines; ln() would not be)
        "tfidf_topk": (
            r"WITH tok AS (SELECT doc_id, "
            r"unnest(regexp_extract_all(text, '\S+')) AS token FROM documents), "
            "tf AS (SELECT doc_id, token, CAST(count(*) AS BIGINT) AS tf "
            "FROM tok GROUP BY 1, 2), "
            "d AS (SELECT token, CAST(count(*) AS BIGINT) AS df FROM tf "
            "GROUP BY token), "
            "n AS (SELECT CAST(count(*) AS BIGINT) AS n FROM documents), "
            "s AS (SELECT tf.doc_id, tf.token, tf.tf, d.df, "
            "CAST(tf.tf * n.n AS DOUBLE) / d.df AS score "
            "FROM tf JOIN d USING (token) CROSS JOIN n), "
            "r AS (SELECT *, row_number() OVER (PARTITION BY doc_id "
            "ORDER BY score DESC, token) AS rn FROM s) "
            "SELECT doc_id, CAST(rn AS BIGINT) AS rnk, token, tf, df, score "
            "FROM r WHERE rn <= 3"
        ),
        # curation ops share their shingle rule / hash constants with SQL
        "enrich_authority": _enrichment.ENRICH_AUTHORITY_SQL,
        "decontaminate": _curation.decontaminate_sql(),
        "pii_redact": _curation.pii_redact_sql(),
        "blocklist_filter": _curation.blocklist_filter_sql(),
        "corpus_shuffle": _curation.corpus_shuffle_sql(),
        # composed curation verdict: dup-representative + quality + split
        "corpus_curation": _curation.corpus_curation_sql(),
        "chunk_documents": _curation.chunk_documents_sql(),
        "cdc_lww_state": _CDC_STATE,
        # projection pushdown: the LWW state projected to scalar columns
        # (the engine side never decodes the token payload)
        "cdc_state_projection":
            f"SELECT doc_id, source, last_lsn FROM ({_CDC_STATE})",
        # generated column: same integer expression over the LWW state
        "cdc_virtual_column":
            f"SELECT doc_id, n_tok * 3 + 7 AS tok_score FROM ({_CDC_STATE})",
        # point lookup: the LWW state filtered to the looked-up keys (a
        # deleted/unknown key is absent from both sides)
        "cdc_point_lookup": (
            f"SELECT * FROM ({_CDC_STATE}) WHERE doc_id IN ("
            + ", ".join(f"'{i}'" for i in _derived_lookup_ids())
            + ")"
        ),
        # row-level lineage: every binlog event targeting the fixed keys
        # with the M14 gate's route/status, plus the base-snapshot row
        # (lsn -1); engine side is doc_history's partition-pruned reads
        "cdc_doc_history": f"""
WITH {_BINLOG},
ids(doc_id) AS (VALUES {", ".join(f"('{i}')" for i in _derived_history_ids())}),
ev AS (
  SELECT b.doc_id, b.lsn, b.op,
         CASE WHEN b.op IN ('insert', 'delete') THEN 'applied'
              WHEN b.score = 100 THEN 'applied'
              WHEN b.score >= 50 THEN 'fuzzy'
              ELSE 'rejected' END AS route,
         CASE WHEN b.op = 'insert' THEN 'inserted'
              WHEN b.op = 'delete' THEN 'tombstone'
              WHEN b.score = 100 THEN 'perfect'
              WHEN b.score >= 50 THEN 'fuzzy-match-passed'
              ELSE 'fuzzy-match-failed' END AS status,
         CAST(b.score AS INTEGER) AS match_score,
         CASE WHEN b.op = 'delete' THEN NULL ELSE b.n_tok_new END AS n_tok,
         CASE WHEN b.op = 'delete' THEN NULL ELSE b.source_new END AS source
  FROM binlog b JOIN ids USING (doc_id)
),
base AS (
  SELECT CAST(d.doc_id AS VARCHAR) AS doc_id, CAST(-1 AS BIGINT) AS lsn,
         'base' AS op, 'base' AS route, 'base' AS status,
         CAST(NULL AS INTEGER) AS match_score,
         CAST(length(regexp_extract_all(d.text, '\\S+')) AS BIGINT) AS n_tok,
         d.source
  FROM documents d JOIN ids ON CAST(d.doc_id AS VARCHAR) = ids.doc_id
)
SELECT * FROM base UNION ALL SELECT * FROM ev
ORDER BY doc_id, lsn
""",
        # point lookup THROUGH the key-bloom file-skipping sidecars: the
        # pruned read must lose nothing vs the same plain-lookup oracle
        "cdc_point_lookup_indexed": (
            f"SELECT * FROM ({_CDC_STATE}) WHERE doc_id IN ("
            + ", ".join(f"'{i}'" for i in _derived_lookup_ids())
            + ")"
        ),
        # auto-maintenance (forced level-1 merge + compaction) must have
        # ZERO semantic effect: oracle is the plain LWW state
        "cdc_maintain_state": _CDC_STATE,
        # multi-table 2PC: both parity shards' LWW states, visible only
        # because ONE decision file committed both epochs atomically
        "cdc_multi_table_txn": (
            "SELECT 'even' AS table_name, * FROM (" + _CDC_STATE + ") "
            "WHERE CAST(doc_id AS BIGINT) % 2 = 0 "
            "UNION ALL "
            "SELECT 'odd' AS table_name, * FROM (" + _CDC_STATE + ") "
            "WHERE CAST(doc_id AS BIGINT) % 2 = 1 "
            "ORDER BY table_name, doc_id"
        ),
        # secondary-index range query: the index answers n_tok BETWEEN
        # lo AND hi from its range bins; oracle filters the LWW state
        "cdc_index_range": (
            f"SELECT doc_id, n_tok FROM ({_CDC_STATE}) "
            f"WHERE n_tok BETWEEN 10 AND 40 ORDER BY doc_id"
        ),
        # change-data feed: engine per-bucket diff vs full-outer join of
        # the half-cut and full LWW states (same gate/anchor/winner CTEs)
        "cdc_changes": f"""
WITH f AS ({_CDC_STATE}), h AS ({_CDC_STATE.replace(_GATED_PLAIN, _GATED_HALF)})
SELECT coalesce(f.doc_id, h.doc_id) AS doc_id,
  CASE WHEN h.doc_id IS NULL THEN 'insert'
       WHEN f.doc_id IS NULL THEN 'delete'
       ELSE 'update' END AS change,
  h.last_lsn AS last_lsn_before, f.last_lsn AS last_lsn_after,
  h.n_tok AS n_tok_before, h.source AS source_before,
  h.status AS status_before,
  f.n_tok AS n_tok_after, f.source AS source_after,
  f.status AS status_after
FROM f FULL JOIN h ON f.doc_id = h.doc_id
WHERE h.doc_id IS NULL OR f.doc_id IS NULL OR h.last_lsn <> f.last_lsn
""",
        # epoch time travel: the as-of-epoch-0 state == half-cut LWW SQL
        "cdc_time_travel": (
            f"SELECT * FROM ({_CDC_STATE.replace(_GATED_PLAIN, _GATED_HALF)})"
        ),
        # ANALYZE TABLE: column statistics over the same LWW state
        "cdc_table_stats": (
            f"SELECT CAST(count(*) AS BIGINT) AS n_rows, "
            f"CAST(min(n_tok) AS BIGINT) AS n_tok_min, "
            f"CAST(max(n_tok) AS BIGINT) AS n_tok_max, "
            f"CAST(coalesce(sum(n_tok), 0) AS BIGINT) AS n_tok_sum, "
            f"CAST(count(*) FILTER (n_tok IS NULL) AS BIGINT) AS n_tok_nulls, "
            f"CAST(count(DISTINCT source) AS BIGINT) AS n_sources "
            f"FROM ({_CDC_STATE})"
        ),
        # materialized view: GROUP BY source over the same LWW state
        "cdc_source_counts": (
            f"SELECT source, CAST(count(*) AS BIGINT) AS n_rows, "
            f"CAST(sum(n_tok) AS BIGINT) AS n_tok_sum "
            f"FROM ({_CDC_STATE}) GROUP BY source"
        ),
        # MERGE INTO: replayed LWW state full-outer'd with the deterministic
        # source (doc%7==0 → key as-is, doc%7==1 → key+10D new); matched →
        # full-row update (score 100 ⇒ 'perfect'), unmatched → insert
        "cdc_merge_state": f"""
WITH state AS ({_CDC_STATE}),
src AS (
  SELECT CAST(CASE WHEN doc_id % 7 = 1
              THEN doc_id + 10 * (SELECT count(*) FROM documents)
              ELSE doc_id END AS VARCHAR) AS doc_id,
         CAST(length(text) AS BIGINT) AS n_tok,
         'merged' AS source
  FROM documents WHERE doc_id % 7 IN (0, 1)
)
SELECT s.doc_id, s.n_tok, s.source, s.status
FROM state s WHERE s.doc_id NOT IN (SELECT doc_id FROM src)
UNION ALL
SELECT m.doc_id, m.n_tok, m.source,
       CASE WHEN st.doc_id IS NOT NULL THEN 'perfect' ELSE 'inserted' END AS status
FROM src m LEFT JOIN state st ON m.doc_id = st.doc_id
""",
        "cdc_routing_counts": _ROUTING,
        "cdc_constraint_counts": _CONSTRAINT_ROUTING,
        # state with expectations on: check-failed events vanish from the
        # gated set, so the plain LWW-state SQL applies with a tighter gate
        "cdc_constraint_state": _CDC_STATE_CHECKED,
        # zone-map-pruned scan == plain filter over the state (data
        # skipping must be lossless; bounds shared with derived.py)
        "export_scan_prune": (
            f"SELECT * FROM ({_CDC_STATE}) WHERE n_tok BETWEEN 30 AND 80"
        ),
        # Z-order (2-D Morton) clustered export: the pruned scan must
        # equal the plain conjunctive filter over the LWW state
        "export_scan_prune_2d": (
            f"SELECT * FROM ({_CDC_STATE}) "
            f"WHERE n_tok BETWEEN 5 AND 60 AND last_lsn >= 1"
        ),
        # SCD-2 version timeline: anchor chain via IGNORE-NULLS window,
        # boundaries LEAD-closed; the live version has to_lsn NULL
        "cdc_versions": f"""
WITH {_BINLOG},
gated AS (
  SELECT doc_id, lsn, op, n_tok_new, source_new FROM binlog
  WHERE op IN ('insert', 'delete')
     OR (op = 'update' AND (score = 100 OR score >= 50))
),
ev AS (
  SELECT * FROM gated
  UNION ALL
  SELECT CAST(doc_id AS VARCHAR), CAST(-1 AS BIGINT), 'base',
         CAST(length(regexp_extract_all(text, '\\S+')) AS BIGINT), source
  FROM documents
),
a AS (
  SELECT *,
         last_value(CASE WHEN op IN ('insert', 'delete') THEN op END
                    IGNORE NULLS)
           OVER (PARTITION BY doc_id ORDER BY lsn
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS prev_anchor,
         bool_or(op = 'base') OVER (PARTITION BY doc_id) AS has_base
  FROM ev
),
app AS (
  SELECT * FROM a
  WHERE op IN ('insert', 'delete', 'base')
     OR (op = 'update' AND (prev_anchor = 'insert'
                            OR (prev_anchor IS NULL AND has_base)))
),
v AS (
  SELECT doc_id, lsn AS from_lsn,
         lead(lsn) OVER (PARTITION BY doc_id ORDER BY lsn) AS to_lsn,
         op, n_tok_new, source_new
  FROM app
)
SELECT doc_id, from_lsn, to_lsn, n_tok_new AS n_tok, source_new AS source
FROM v WHERE op <> 'delete'
""",
        # the fuzzy_001_test gate over noisy-prefixed keys: doc % 3 picks
        # the raw form (0 → 'ocm'+k, 1 → '(OCoLC)'+k, 2 → bare), so
        # prefixed ⇔ doc % 3 IN (0, 1) — identical arithmetic engine-side
        "cdc_routing_counts_f001": f"""
WITH {_BINLOG},
noisy AS (
  SELECT lsn, op, score,
         (CAST(doc_id AS BIGINT) % 3) IN (0, 1) AS prefixed
  FROM binlog
),
routed AS (
  SELECT op,
         CASE WHEN op IN ('insert', 'delete') THEN 'applied'
              WHEN score = 100 THEN 'applied'
              WHEN NOT prefixed AND score < 50 THEN 'rejected'
              ELSE 'fuzzy' END AS route,
         CASE WHEN op = 'insert' THEN 'inserted'
              WHEN op = 'delete' THEN 'tombstone'
              WHEN score = 100 THEN 'perfect'
              WHEN NOT prefixed AND score < 50 THEN 'fuzzy-match-failed'
              WHEN score >= 50 THEN 'fuzzy-match-passed'
              ELSE 'fuzzy-match-failed' END AS status
  FROM noisy
)
SELECT op, route, status, CAST(count(*) AS BIGINT) AS n
FROM routed GROUP BY op, route, status
ORDER BY op, route, status
""",
        "cdc_dup_keys": f"WITH {_BINLOG} SELECT doc_id, CAST(count(*) AS BIGINT) AS n_events "
                        "FROM binlog GROUP BY doc_id HAVING count(*) > 1",
        "key_normalize": (
            "WITH k AS (SELECT doc_id, CASE doc_id % 6 "
            "WHEN 0 THEN '(OCoLC)ocm' || CAST(doc_id AS VARCHAR) "
            "WHEN 1 THEN 'ocn' || CAST(doc_id AS VARCHAR) "
            "WHEN 2 THEN 'ON' || CAST(doc_id AS VARCHAR) "
            "WHEN 3 THEN CAST(doc_id AS VARCHAR) || ' 99' "
            "WHEN 4 THEN CAST(doc_id AS VARCHAR) "
            "ELSE 'bad' || CAST(doc_id AS VARCHAR) || 'x' END AS raw_key FROM documents) "
            f"SELECT doc_id, raw_key, "
            f"CASE WHEN regexp_matches({_NORM_KEY.format(col='raw_key')}, '^\\d+$') "
            f"THEN {_NORM_KEY.format(col='raw_key')} END AS norm_key, "
            f"regexp_matches({_NORM_KEY.format(col='raw_key')}, '^\\d+$') AS is_valid FROM k"
        ),
        "title_normalize": (
            "SELECT doc_id, trim(regexp_replace(regexp_replace("
            "text || ' ' || '-- tail..!  (x) ', "
            "'[.,/#!$%^&*;:{}\\[\\]=\\-_`~()]', ' ', 'g'), '\\s+', ' ', 'g')) AS norm_title "
            "FROM documents"
        ),
        "title_jaccard": _TITLE_JACCARD,
        # R2/R3 intra-record dup report: masks synthesized by lsn % 9
        "intra_record_dups": (
            f"WITH {_BINLOG}, masked AS ("
            "SELECT lsn, doc_id, CASE WHEN op = 'update' THEN "
            "CASE lsn % 9 WHEN 0 THEN ['n_tok', 'n_tok'] "
            "WHEN 1 THEN ['tokens', 'source', 'tokens'] "
            "WHEN 2 THEN ['source'] ELSE [] END "
            "ELSE CAST([] AS VARCHAR[]) END AS mask FROM binlog) "
            "SELECT lsn, doc_id, CAST(len(mask) AS BIGINT) AS n_mask, "
            "CAST(len(list_distinct(mask)) AS BIGINT) AS n_distinct "
            "FROM masked WHERE len(mask) > len(list_distinct(mask))"
        ),
        "pricing_summary": (
            "SELECT l_returnflag, l_linestatus, "
            "CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty, "
            "CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_base_cents, "
            "CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 100) AS BIGINT)) AS BIGINT) AS sum_disc_cents, "
            "CAST(count(*) AS BIGINT) AS n "
            "FROM lineitem GROUP BY l_returnflag, l_linestatus ORDER BY 1, 2"
        ),
        "nation_revenue": (
            "SELECT n.n_name, "
            "CAST(sum(CAST(round(o.o_totalprice * 100) AS BIGINT)) AS BIGINT) AS revenue_cents, "
            "CAST(count(*) AS BIGINT) AS n_orders "
            "FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey "
            "JOIN nation n ON c.c_nationkey = n.n_nationkey "
            "GROUP BY n.n_name ORDER BY n.n_name"
        ),
        # star chain orders->customer->nation->region via ONE broadcast map
        "region_order_stats": _tpch_mod.region_order_stats_sql(),
        # packed-integer argmin / ROLLUP / percent-of-total window
        "min_cost_supplier": _tpch_mod.min_cost_supplier_sql(),
        "revenue_rollup": _tpch_mod.revenue_rollup_sql(),
        "supplier_revenue_share": _tpch_mod.supplier_revenue_share_sql(),
        "shipping_delay_stats": _tpch_mod.shipping_delay_stats_sql(),
        "top_docs": (
            "SELECT doc_id, CAST(n_chars AS BIGINT) AS n_chars FROM documents "
            "ORDER BY n_chars DESC, doc_id LIMIT 10"
        ),
        "customer_order_join": (
            "SELECT o.o_orderkey, c.c_name, "
            "CAST(round(o.o_totalprice * 100) AS BIGINT) AS cents "
            "FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey"
        ),
        # LEFT OUTER join: customers with zero orders must appear with 0s
        "customer_order_totals": _tpch_mod.customer_order_totals_sql(),
        "urgent_lineitem_flags": _joins.urgent_lineitem_flags_sql(),
        "customers_without_urgent_orders": _joins.customers_without_urgent_orders_sql(),
        "priority_revenue_salted": _joins.priority_revenue_salted_sql(),
        "token_count": (
            "SELECT doc_id, CAST(length(regexp_extract_all(text, '\\S+')) AS BIGINT) "
            "AS n_tokens FROM documents"
        ),
        "bpe_token_count": (
            r"SELECT doc_id, CAST(length(regexp_extract_all(text, "
            r"$$'(?:[sdmt]|ll|ve|re)| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}']+$$)) AS BIGINT) "
            r"AS n_bpe_tokens FROM documents"
        ),
        # exact top-k frequent tokens; the sketch variant recounts its
        # Misra-Gries candidates exactly, so (given the guarantee holds —
        # kth count ≫ N/1025 here) both match the same oracle
        "token_topk": _TOKEN_TOPK,
        # OOV rate vs the corpus top-V vocabulary (same tie-break, same
        # integer permille arithmetic)
        "oov_rate": _ta.oov_rate_sql(),
        "token_topk_sketch": _TOKEN_TOPK,
        # GPT-style sequence packing: window cumsum mirrors the engine's
        # distributed prefix sum (pack_len constant shared)
        "sequence_pack": _sequence_pack_sql(),
        "quality_score": _QUALITY,
        "lang_id": _LANG_ID,
        "dedup_exact": (
            "SELECT CAST(min(doc_id) AS BIGINT) AS doc_id, "
            "CAST(count(*) AS BIGINT) AS group_size FROM documents GROUP BY text"
        ),
        # C4-style block dedup: keep-first occurrence of every 8-word block
        "block_dedup": _dedup.block_dedup_sql(),
        # suffix-array-style exact-substring dedup: both sides compare
        # exact window text; engine fps only route/prune (no collisions
        # can corrupt the answer)
        "exact_substring_spans": _dedup.exact_substring_spans_sql(),
        "exact_substring_scrub": _dedup.exact_substring_scrub_sql(),
        # exact all-pairs 3-shingle Jaccard ≥ 0.8 (shingle semantics mirror
        # dedup.shingle_set; the least/greatest length prefilter is lossless:
        # jaccard <= min|s|/max|s|). The engine's LSH recall at j>=0.8 with
        # 16x4 banding is 1-(1-j^4)^16 >= 1-2.6e-3 — candidate-certain on
        # the planted near-dups (all at j>=0.9: miss prob < 4e-8).
        "dedup_minhash": (
            "WITH " + _MINHASH_PAIR_CTES + " "
            "SELECT doc_a, doc_b, jaccard FROM j WHERE jaccard >= 0.8"
        ),
        # SimHash near-dup: same portable md5 word hash + per-bit majority
        # in SQL; 4-block pigeonhole makes the engine's candidate set
        # complete at Hamming <= 3, so the pair sets match exactly
        "dedup_simhash": _dedup.dedup_simhash_sql(),
        "dedup_incremental": (
            "WITH " + _MINHASH_PAIR_CTES + ", "
            "cx AS (SELECT CASE WHEN doc_a % 10 >= 3 THEN doc_a ELSE doc_b END "
            "AS doc_id, CASE WHEN doc_a % 10 >= 3 THEN doc_b ELSE doc_a END "
            "AS dup_of FROM j WHERE jaccard >= 0.8 "
            "AND (doc_a % 10 < 3) != (doc_b % 10 < 3)) "
            "SELECT doc_id, CAST(min(dup_of) AS BIGINT) AS dup_of FROM cx "
            "GROUP BY doc_id ORDER BY doc_id"
        ),
        # connected components over the SAME verified pair set: recursive
        # min-label closure (mirrors the engine's label propagation)
        "dedup_clusters": (
            "WITH RECURSIVE " + _MINHASH_PAIR_CTES + ", "
            "pr AS (SELECT doc_a, doc_b FROM j WHERE jaccard >= 0.8), "
            "e AS (SELECT doc_a AS n, doc_b AS m FROM pr "
            "UNION ALL SELECT doc_b, doc_a FROM pr), "
            "reach(n, l) AS (SELECT n, m FROM e UNION SELECT n, n FROM e "
            "UNION SELECT e.n, r.l FROM e JOIN reach r ON r.n = e.m) "
            "SELECT n AS doc_id, CAST(MIN(l) AS BIGINT) AS cluster_id "
            "FROM reach GROUP BY n"
        ),
        # keep-best survivor per cluster: same recursive closure + the
        # keep-LONGEST rule (token count DESC, doc_id ASC) the engine
        # implements with a packed groupby.max
        "dedup_keep_best": (
            "WITH RECURSIVE " + _MINHASH_PAIR_CTES + ", "
            "pr AS (SELECT doc_a, doc_b FROM j WHERE jaccard >= 0.8), "
            "e AS (SELECT doc_a AS n, doc_b AS m FROM pr "
            "UNION ALL SELECT doc_b, doc_a FROM pr), "
            "reach(n, l) AS (SELECT n, m FROM e UNION SELECT n, n FROM e "
            "UNION SELECT e.n, r.l FROM e JOIN reach r ON r.n = e.m), "
            "cl AS (SELECT n AS doc_id, MIN(l) AS cluster_id FROM reach GROUP BY n), "
            r"tc AS (SELECT doc_id, len(regexp_extract_all(text, '\S+')) AS nt "
            "FROM documents), "
            "m AS (SELECT cl.cluster_id, cl.doc_id, tc.nt, "
            "row_number() OVER (PARTITION BY cl.cluster_id "
            "ORDER BY tc.nt DESC, cl.doc_id) AS rn, "
            "count(*) OVER (PARTITION BY cl.cluster_id) AS n_members "
            "FROM cl JOIN tc USING (doc_id)) "
            "SELECT CAST(cluster_id AS BIGINT) AS cluster_id, "
            "CAST(doc_id AS BIGINT) AS keep_doc_id, "
            "CAST(n_members AS BIGINT) AS n_members, "
            "CAST(nt AS BIGINT) AS max_tokens FROM m WHERE rn = 1"
        ),
        # exact all-pairs cosine >= 0.45 (engine is exact-by-construction;
        # nearest pair to the threshold sits ~5e-4 away — float-safe)
        "embedding_near_dup": (
            "WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb FROM embeddings) "
            "SELECT a.vec_id AS vec_a, b.vec_id AS vec_b "
            "FROM e a JOIN e b ON a.vec_id < b.vec_id "
            "WHERE list_cosine_similarity(a.emb, b.emb) >= 0.45"
        ),
        "ann_topk": _ANN_TOPK,
        # diversified retrieval: per query, the best match from EVERY
        # source (ties → smaller vec_id), self excluded
        "ann_topk_per_source": """
WITH q AS (
  SELECT vec_id AS query_id, embedding AS qe FROM embeddings WHERE vec_id IN (0, 1, 2)
),
sims AS (
  SELECT q.query_id, e.vec_id, d.source,
         list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), CAST(q.qe AS DOUBLE[])) AS sim
  FROM embeddings e JOIN documents d ON e.vec_id = CAST(d.doc_id AS BIGINT), q
  WHERE e.vec_id <> q.query_id
)
SELECT query_id, source, vec_id
FROM (SELECT *, row_number() OVER (PARTITION BY query_id, source
                                   ORDER BY sim DESC, vec_id) rn
      FROM sims)
WHERE rn = 1
ORDER BY query_id, source
""",
        # filtered vector search: same exact top-k, candidates restricted
        # to docs whose source passes the predicate (queries exempt)
        "ann_topk_filtered": """
WITH q AS (
  SELECT vec_id AS query_id, embedding AS qe FROM embeddings WHERE vec_id IN (0, 1, 2)
),
allowed AS (
  SELECT CAST(doc_id AS BIGINT) AS vec_id FROM documents
  WHERE source IN ('src0', 'src1', 'src2', 'src3')
),
sims AS (
  SELECT q.query_id, e.vec_id,
         list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), CAST(q.qe AS DOUBLE[])) AS sim
  FROM embeddings e JOIN allowed a ON e.vec_id = a.vec_id, q
  WHERE e.vec_id <> q.query_id
)
SELECT query_id, CAST(rn AS BIGINT) AS rank, vec_id
FROM (SELECT *, row_number() OVER (PARTITION BY query_id ORDER BY sim DESC, vec_id) rn
      FROM sims)
WHERE rn <= 5
""",
        "closest_pairs": (
            "WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb "
            "FROM embeddings WHERE vec_id < 300), "
            "s AS (SELECT a.vec_id va, b.vec_id vb, "
            "list_cosine_similarity(a.emb, b.emb) AS sim "
            "FROM e a JOIN e b ON a.vec_id < b.vec_id) "
            "SELECT CAST(row_number() OVER (ORDER BY sim DESC, va, vb) AS BIGINT) AS rank, "
            "va AS vec_a, vb AS vec_b FROM s ORDER BY sim DESC, va, vb LIMIT 10"
        ),
        "monthly_revenue": (
            "SELECT strftime(l_shipdate, '%Y-%m') AS month, "
            "CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 100) AS BIGINT)) AS BIGINT) AS revenue_cents, "
            "CAST(count(*) AS BIGINT) AS n "
            "FROM lineitem WHERE l_shipdate < TIMESTAMP '1998-01-01' "
            "GROUP BY 1 ORDER BY 1"
        ),
        "late_event_counts": _events_mod.late_event_counts_sql(),
        "user_top_event": _events_mod.user_top_event_sql(),
        "user_value_trailing_1h": _events_mod.user_value_trailing_1h_sql(),
        "user_daily_value": (
            "SELECT user_id, strftime(ts, '%Y-%m-%d') AS day, "
            "CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS value_cents, "
            "CAST(count(*) AS BIGINT) AS n_events "
            "FROM events GROUP BY 1, 2 ORDER BY 1, 2"
        ),
        "session_count": (
            "WITH d AS (SELECT user_id, ts, "
            "lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS pts FROM events) "
            "SELECT user_id, CAST(sum(CASE WHEN pts IS NULL "
            "OR ts > pts + INTERVAL 30 MINUTE THEN 1 ELSE 0 END) AS BIGINT) AS n_sessions "
            "FROM d GROUP BY user_id"
        ),
        # full sessionization records: LAG break flags -> running SUM
        # window = session id -> GROUP BY, bounds as epoch micros
        "user_sessions": (
            "WITH d AS (SELECT user_id, ts, event_id, "
            "CASE WHEN lag(ts) OVER w IS NULL "
            "OR ts > lag(ts) OVER w + INTERVAL 30 MINUTE THEN 1 ELSE 0 END "
            "AS brk FROM events "
            "WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)), "
            "s AS (SELECT user_id, ts, SUM(brk) OVER "
            "(PARTITION BY user_id ORDER BY ts, event_id "
            "ROWS UNBOUNDED PRECEDING) AS session_id FROM d) "
            "SELECT user_id, CAST(session_id AS BIGINT) AS session_id, "
            "CAST(count(*) AS BIGINT) AS n_events, "
            "CAST(epoch_us(min(ts)) AS BIGINT) AS start_us, "
            "CAST(epoch_us(max(ts)) AS BIGINT) AS end_us "
            "FROM s GROUP BY user_id, session_id"
        ),
        "event_type_users": (
            "SELECT event_type, CAST(count(DISTINCT user_id) AS BIGINT) AS n_users, "
            "CAST(count(*) AS BIGINT) AS n_events "
            "FROM events GROUP BY event_type ORDER BY event_type"
        ),
        # KMV bottom-k sketch with k above the test-scale cardinality →
        # exact; the estimator path is accuracy-tested in pytest
        "event_type_users_sketch": (
            "SELECT event_type, CAST(count(DISTINCT user_id) AS BIGINT) "
            "AS n_users_est FROM events GROUP BY event_type ORDER BY event_type"
        ),
        # sliding 60-min window, 30-min slide: each event lands in 2 windows
        "sliding_window_value": (
            "WITH w AS (SELECT event_type, "
            "CAST(round(value * 100) AS BIGINT) AS cents, "
            "epoch_us(ts) AS us FROM events), "
            "a AS (SELECT event_type, (us // 1800000000) * 1800 AS window_start, cents FROM w "
            "UNION ALL "
            "SELECT event_type, ((us // 1800000000) - 1) * 1800, cents FROM w) "
            "SELECT event_type, window_start, "
            "CAST(sum(cents) AS BIGINT) AS value_cents, "
            "CAST(count(*) AS BIGINT) AS n_events "
            "FROM a GROUP BY 1, 2 ORDER BY 1, 2"
        ),
        # per-key ROWS-frame rolling window (engine: bucket shuffle + one
        # polars rolling_sum per bucket); mean = one int/int division
        "user_value_moving_avg": _events_mod.user_value_moving_avg_sql(),
        # sweep-line maximum via two-level prefix sum; ties -> earliest sec
        "peak_concurrency": _events_mod.peak_concurrency_sql(),
        "retention_cohorts": _events_mod.retention_cohorts_sql(),
        # z-score from exact integer sums + one shared final expression
        "daily_anomaly": _events_mod.daily_anomaly_sql(),
        # long->wide pivot: per-batch conditional-count partials, static schema
        "event_pivot": _events_mod.event_pivot_sql(),
        # at-least-once scrub: keep-earliest per (user,type,10-min window)
        "event_dedup_window": _events_mod.event_dedup_window_sql(),
        "event_pagerank": _graph.event_pagerank_sql(),
        "event_markov": _graph.event_markov_sql(),
        "top_orders_per_customer": (
            "SELECT o_custkey, CAST(rn AS BIGINT) AS rnk, o_orderkey FROM ("
            "SELECT o_custkey, o_orderkey, row_number() OVER ("
            "PARTITION BY o_custkey "
            "ORDER BY round(o_totalprice * 100) DESC, o_orderkey) AS rn "
            "FROM orders) WHERE rn <= 3"
        ),
        # as-of joins: ROW_NUMBER forms (deterministic under ts ties, which
        # is how the engine tie-breaks via its (user,ts) right-side dedup);
        # all times truncated to epoch seconds on BOTH sides
        "purchase_attribution": (
            "WITH p AS (SELECT event_id pid, user_id, ts FROM events "
            "WHERE event_type = 'purchase'), "
            "v AS (SELECT event_id vid, user_id, ts FROM events "
            "WHERE event_type = 'view'), "
            "j AS (SELECT p.pid, p.user_id, p.ts pts, v.vid, v.ts vts, "
            "row_number() OVER (PARTITION BY p.pid "
            "ORDER BY v.ts DESC, v.vid DESC) rn "
            "FROM p LEFT JOIN v ON p.user_id = v.user_id AND v.ts <= p.ts) "
            "SELECT pid AS purchase_id, user_id, "
            "epoch_us(pts) // 1000000 AS purchase_ts_sec, "
            "vid AS view_id, epoch_us(vts) // 1000000 AS view_ts_sec, "
            "(epoch_us(pts) // 1000000) - (epoch_us(vts) // 1000000) AS lag_sec "
            "FROM j WHERE rn = 1"
        ),
        "purchase_followup": (
            "WITH p AS (SELECT event_id pid, user_id, ts FROM events "
            "WHERE event_type = 'purchase'), "
            "v AS (SELECT event_id vid, user_id, ts FROM events "
            "WHERE event_type = 'error'), "
            "j AS (SELECT p.pid, p.user_id, p.ts pts, v.vid, v.ts vts, "
            "row_number() OVER (PARTITION BY p.pid "
            "ORDER BY v.ts ASC, v.vid ASC) rn "
            "FROM p LEFT JOIN v ON p.user_id = v.user_id AND v.ts >= p.ts), "
            "f AS (SELECT pid, user_id, epoch_us(pts) // 1000000 AS psec, "
            "vid, epoch_us(vts) // 1000000 AS vsec FROM j WHERE rn = 1) "
            "SELECT pid AS purchase_id, user_id, psec AS purchase_ts_sec, "
            "CASE WHEN vsec - psec <= 3600 THEN vid END AS error_id, "
            "CASE WHEN vsec - psec <= 3600 THEN vsec END AS error_ts_sec, "
            "CASE WHEN vsec - psec <= 3600 THEN vsec - psec END AS lag_sec "
            "FROM f"
        ),
        # funnel: per-user min-timestamp stage chaining, exact epoch-µs ints
        "funnel_conversion": temporal_mod.funnel_conversion_sql(),
        # interval join: inner, one row per view in (psec - W, psec];
        # integer-second comparisons on both sides, W shared with the engine
        "purchase_views_window": (
            "WITH p AS (SELECT event_id pid, user_id, "
            "epoch_us(ts) // 1000000 AS psec FROM events "
            "WHERE event_type = 'purchase'), "
            "v AS (SELECT event_id vid, user_id, "
            "epoch_us(ts) // 1000000 AS vsec FROM events "
            "WHERE event_type = 'view') "
            "SELECT pid AS purchase_id, p.user_id AS user_id, "
            "psec AS purchase_ts_sec, vid AS view_id, vsec AS view_ts_sec, "
            "psec - vsec AS lag_sec FROM p JOIN v "
            "ON p.user_id = v.user_id "
            f"AND v.vsec > p.psec - {temporal_mod.WINDOW_JOIN_SEC} "
            "AND v.vsec <= p.psec"
        ),
        # texts are ASCII ⇒ utf-8 bytes ≡ codepoints, so the decode stage's
        # byte statistics are SQL-expressible over ascii(char)
        "media_decode": (
            "SELECT doc_id AS media_id, "
            "CASE doc_id % 3 WHEN 0 THEN 'image' WHEN 1 THEN 'audio' "
            "ELSE 'video' END AS kind, "
            "CAST(octet_length(CAST(text AS BLOB)) AS BIGINT) AS payload_bytes, "
            "CASE WHEN length(text) = 0 THEN 0.0 ELSE "
            "CAST(list_avg([ascii(text[i]) for i in range(1, length(text) + 1)]) "
            "AS DOUBLE) END AS mean_byte "
            "FROM documents"
        ),
        "media_frame_sample": (
            "WITH m AS (SELECT doc_id AS media_id, "
            "CASE doc_id % 3 WHEN 0 THEN 'image' WHEN 1 THEN 'audio' "
            "ELSE 'video' END AS kind, "
            "(doc_id * 7919) % 60000 AS dur FROM documents) "
            "SELECT media_id, kind, "
            "CAST(UNNEST(range(0, greatest(1, dur // 10000))) * 10000 AS BIGINT) AS frame_ms "
            "FROM m WHERE kind = 'video' "
            "UNION ALL SELECT media_id, kind, 0 FROM m WHERE kind <> 'video'"
        ),
        # real PPM/WAV/Y4M parse: oracles mirror the payload GENERATOR
        # arithmetic; the engine must parse the real containers to match
        **_multimodal_sql(),
        "parts_by_brand": (
            "SELECT p_brand, CAST(count(*) AS BIGINT) AS n_parts, "
            "CAST(sum(CAST(p_size AS BIGINT)) * 100 // count(*) AS BIGINT) AS avg_size_x100, "
            "CAST(max(CAST(round(p_retailprice * 100) AS BIGINT)) AS BIGINT) AS max_retail_cents "
            "FROM part GROUP BY p_brand ORDER BY p_brand"
        ),
        "supplier_balance": (
            "SELECT s_name, n_name, CAST(round(s_acctbal * 100) AS BIGINT) AS acct_cents "
            "FROM supplier s JOIN nation n ON s.s_nationkey = n.n_nationkey "
            "WHERE round(s_acctbal * 100) > 0 ORDER BY s_name"
        ),
        "order_skyline": _tpch_mod.order_skyline_sql(),
        "distinct_orders_kmv": _tpch_mod.distinct_orders_kmv_sql(),
        "key_diff_report": (
            "WITH k AS (SELECT doc_id, CASE doc_id % 6 "
            "WHEN 0 THEN '(OCoLC)ocm' || CAST(doc_id AS VARCHAR) "
            "WHEN 1 THEN 'ocn' || CAST(doc_id AS VARCHAR) "
            "WHEN 2 THEN 'ON' || CAST(doc_id AS VARCHAR) "
            "WHEN 3 THEN CAST(doc_id AS VARCHAR) || ' 99' "
            "WHEN 4 THEN CAST(doc_id AS VARCHAR) "
            "ELSE 'bad' || CAST(doc_id AS VARCHAR) || 'x' END AS raw_key FROM documents), "
            f"n AS (SELECT doc_id, raw_key, "
            f"CASE WHEN regexp_matches({_NORM_KEY.format(col='raw_key')}, '^\\d+$') "
            f"THEN {_NORM_KEY.format(col='raw_key')} END AS norm_key, "
            f"regexp_matches({_NORM_KEY.format(col='raw_key')}, '^\\d+$') AS is_valid FROM k) "
            "SELECT * FROM n WHERE raw_key <> norm_key OR NOT is_valid"
        ),
    }
    # the bloom-pruned multi-key lineage scan must lose nothing: same
    # oracle as the plain lineage query (cf. cdc_point_lookup_indexed)
    sql["cdc_doc_history_indexed"] = sql["cdc_doc_history"]
    # near-dup THROUGH the incrementally-maintained MinHash-LSH index
    # view over the tokenized layout: all-pairs 3-token-shingle Jaccard
    # over the same portable md5 token arrays, with doc '0' overridden to
    # doc '1's (the planted mid-stream update the index tracked
    # incrementally). Engine candidates come from 16x4 LSH banding +
    # exact verify; the 4-block-style completeness argument is the
    # dedup_minhash one (all sf-corpus pairs >= 0.8 are strong dups well
    # inside the banding recall envelope; drops are capped + logged).
    sql["cdc_near_dup_index"] = (
        r"WITH w AS (SELECT CAST(doc_id AS VARCHAR) AS doc_id, "
        r"regexp_extract_all(text, '\S+') ws FROM documents), "
        "h AS (SELECT doc_id, list_transform(ws, x -> "
        "CAST(md5_number_lower(x) % 2147483648 AS BIGINT)) hs FROM w), "
        "hp AS (SELECT doc_id, CASE WHEN doc_id = '0' THEN "
        "(SELECT hs FROM h WHERE doc_id = '1') ELSE hs END AS hs FROM h), "
        "sh AS (SELECT doc_id, CASE WHEN len(hs) = 0 THEN "
        "CAST([] AS VARCHAR[]) "
        "WHEN len(hs) < 3 THEN [array_to_string(hs, '-')] "
        "ELSE list_distinct([CAST(hs[i] AS VARCHAR) || '-' || "
        "CAST(hs[i+1] AS VARCHAR) || '-' || CAST(hs[i+2] AS VARCHAR) "
        "for i in range(1, len(hs)-1)]) END AS s FROM hp), "
        "p AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, a.s sa, b.s sb "
        "FROM sh a JOIN sh b ON a.doc_id < b.doc_id "
        "WHERE len(a.s) > 0 AND "
        "least(len(a.s), len(b.s)) >= 0.8 * greatest(len(a.s), len(b.s))), "
        "j AS (SELECT doc_a, doc_b, "
        "CAST(len(list_intersect(sa, sb)) AS DOUBLE) "
        "/ len(list_distinct(list_concat(sa, sb))) AS jaccard FROM p) "
        "SELECT doc_a, doc_b, jaccard FROM j WHERE jaccard >= 0.8 "
        "ORDER BY doc_a, doc_b"
    )
    # point-probe path of the same index: probe docs' POST-update token
    # arrays vs every document's (self-matches included — a live probe's
    # own entries are in the index)
    from marc_data_migration_ray.pipelines import derived as _derived_mod

    _probe_ids = ", ".join(
        f"('{i}')" for i in _derived_mod.NEAR_DUP_PROBE_IDS)
    sql["cdc_near_dup_probe"] = (
        r"WITH w AS (SELECT CAST(doc_id AS VARCHAR) AS doc_id, "
        r"regexp_extract_all(text, '\S+') ws FROM documents), "
        "h AS (SELECT doc_id, list_transform(ws, x -> "
        "CAST(md5_number_lower(x) % 2147483648 AS BIGINT)) hs FROM w), "
        "hp AS (SELECT doc_id, CASE WHEN doc_id = '0' THEN "
        "(SELECT hs FROM h WHERE doc_id = '1') ELSE hs END AS hs FROM h), "
        "sh AS (SELECT doc_id, CASE WHEN len(hs) = 0 THEN "
        "CAST([] AS VARCHAR[]) "
        "WHEN len(hs) < 3 THEN [array_to_string(hs, '-')] "
        "ELSE list_distinct([CAST(hs[i] AS VARCHAR) || '-' || "
        "CAST(hs[i+1] AS VARCHAR) || '-' || CAST(hs[i+2] AS VARCHAR) "
        "for i in range(1, len(hs)-1)]) END AS s FROM hp), "
        f"ids(doc_id) AS (VALUES {_probe_ids}), "
        "pr AS (SELECT sh.* FROM sh JOIN ids USING (doc_id)), "
        "j AS (SELECT p.doc_id AS probe_id, d.doc_id AS match_id, "
        "CAST(len(list_intersect(p.s, d.s)) AS DOUBLE) "
        "/ len(list_distinct(list_concat(p.s, d.s))) AS jaccard "
        "FROM pr p JOIN sh d ON len(p.s) > 0 AND len(d.s) > 0) "
        "SELECT probe_id, match_id, jaccard FROM j WHERE jaccard >= 0.8 "
        "ORDER BY probe_id, match_id"
    )
    # ingest-gate: every state doc with id % 7 == 3 "re-arrives" with its
    # LAST token dropped; the gate reports which state docs it would
    # near-duplicate at >= 0.8 (dropping one token drops the trailing
    # rolling shingle, so long docs gate in, short docs gate out)
    sql["cdc_ingest_dedup_gate"] = (
        r"WITH w AS (SELECT CAST(doc_id AS VARCHAR) AS doc_id, "
        r"regexp_extract_all(text, '\S+') ws FROM documents), "
        "h AS (SELECT doc_id, list_transform(ws, x -> "
        "CAST(md5_number_lower(x) % 2147483648 AS BIGINT)) hs FROM w), "
        "hp AS (SELECT doc_id, CASE WHEN doc_id = '0' THEN "
        "(SELECT hs FROM h WHERE doc_id = '1') ELSE hs END AS hs FROM h), "
        "tr AS (SELECT doc_id, hs[1:len(hs)-1] AS hs FROM hp "
        f"WHERE CAST(doc_id AS BIGINT) % {_derived_mod.INGEST_GATE_MOD} "
        f"= {_derived_mod.INGEST_GATE_RESIDUE}), "
        "shs AS (SELECT doc_id, CASE WHEN len(hs) = 0 THEN "
        "CAST([] AS VARCHAR[]) "
        "WHEN len(hs) < 3 THEN [array_to_string(hs, '-')] "
        "ELSE list_distinct([CAST(hs[i] AS VARCHAR) || '-' || "
        "CAST(hs[i+1] AS VARCHAR) || '-' || CAST(hs[i+2] AS VARCHAR) "
        "for i in range(1, len(hs)-1)]) END AS s FROM hp), "
        "sht AS (SELECT doc_id, CASE WHEN len(hs) = 0 THEN "
        "CAST([] AS VARCHAR[]) "
        "WHEN len(hs) < 3 THEN [array_to_string(hs, '-')] "
        "ELSE list_distinct([CAST(hs[i] AS VARCHAR) || '-' || "
        "CAST(hs[i+1] AS VARCHAR) || '-' || CAST(hs[i+2] AS VARCHAR) "
        "for i in range(1, len(hs)-1)]) END AS s FROM tr), "
        "j AS (SELECT t.doc_id AS incoming_id, d.doc_id AS dup_of, "
        "CAST(len(list_intersect(t.s, d.s)) AS DOUBLE) "
        "/ len(list_distinct(list_concat(t.s, d.s))) AS jaccard "
        "FROM sht t JOIN shs d ON len(t.s) > 0 AND len(d.s) > 0) "
        "SELECT incoming_id, dup_of, jaccard FROM j WHERE jaccard >= 0.8 "
        "ORDER BY incoming_id, dup_of"
    )
    return sql
