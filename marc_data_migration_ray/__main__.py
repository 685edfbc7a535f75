"""CLI entry point (analog of the reference's flag-dispatched
``processor.py``): ``python -m marc_data_migration_ray <cmd> ...``.

Commands:
  gen-fixture  — write a deterministic synthetic base+binlog fixture
  apply        — parse/gate/route one binlog epoch and commit it (fenced);
                 --format jsonl ingests Debezium-flavor JSON envelopes
  state        — materialize current table state (print sample or write out)
  metrics      — fold metrics + manifest route counts
  compact      — LSM-merge committed deltas into a new base snapshot
  vacuum       — reclaim superseded base snapshots / old delta history /
                 old manifest versions (log checkpointing)
  export       — consistent snapshot copy-out (partitioned parquet +
                 _EXPORT.json lineage manifest; idempotent); --cluster-by
                 a[,b] writes the clustered layout with per-column zones
  scan-export  — zone-pruned scan of a clustered export
                 (--col c:lo:hi, repeatable)
  export-changes — CDC egress: the change feed as parquet + manifest
  rollback     — truncate the log to an epoch (bad-upstream-batch remedy)
  merge        — MERGE INTO through the replay path (upsert-from-table)
  fsck         — integrity check: manifest claims vs files on disk
  changes      — change-data feed: state diff between two epochs (CDF)
  follow       — streaming micro-batch ingest: tail a binlog root, apply
                 epoch dirs in order (manifest-fenced, restart-resumable)
  modify       — plugin-only transform (reference --modify-recs)
  report       — dup-keys / route reports over a binlog dir (§3.3)
  lookup       — point lookup by key (partition-pruned fold; reference S4)
  view         — refresh/read the incrementally-maintained source-counts
                 materialized view (change-feed driven)

Owns its Ray session (guarded init; the driver's ``__ray_entry__`` path
never goes through here).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _ray_session():
    """(ray module, whether this call started the session). A caller that
    already runs Ray keeps its session: ``main`` shuts down only one it
    started."""
    import ray

    started = not ray.is_initialized()
    if started:
        ray.init(
            address="local",
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    return ray, started


def _cfg_from_args(args) -> "ReplayConfig":
    from marc_data_migration_ray.config import ReplayConfig

    # layout args default to the table's committed layout (a repartition
    # may have evolved it past the dataclass defaults); 32/1 for new tables
    P, S = args.num_partitions, args.num_salts
    if (P is None or S is None) and getattr(args, "table", None):
        from marc_data_migration_ray.state.manifest import Manifest

        st = Manifest(args.table).state
        if P is None:
            P = st.get("num_partitions")
        if S is None:
            S = st.get("num_salts")
    return ReplayConfig(
        num_partitions=P if P is not None else 32,
        num_salts=S if S is not None else 1,
        fuzzy_threshold=args.fuzzy_threshold,
        require_perfect=args.require_perfect,
        fuzzy_001_test=args.fuzzy_001_test,
        strategy=args.strategy,
        precollapse_updates=args.precollapse,
        policy_plugins=tuple(args.policy or ()),
    )


def _add_cfg_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--num-partitions", type=int, default=None, dest="num_partitions",
                   help="hash partitions (default: the table's committed "
                        "layout, or 32 for a new table)")
    p.add_argument("--num-salts", type=int, default=None, dest="num_salts",
                   help="salted sub-partitions per partition (hot-key skew; "
                        "default: the table's committed layout, or 1)")
    p.add_argument("--fuzzy-threshold", type=int, default=50, dest="fuzzy_threshold")
    p.add_argument("--require-perfect", action="store_true", dest="require_perfect")
    p.add_argument("--fuzzy-001-test", action="store_true", dest="fuzzy_001_test",
                   help="reference do_fuzzy_001_test gate branch")
    p.add_argument("--strategy", choices=["replace_and_add", "replace_only"],
                   default="replace_and_add")
    p.add_argument("--precollapse", action="store_true",
                   help="within-batch LWW pre-collapse of hot-key updates")
    p.add_argument("--policy", action="append",
                   help="dotted path of an UpdatePolicy plugin (repeatable)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="marc_data_migration_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen-fixture")
    g.add_argument("--root", required=True)
    g.add_argument("--rows", type=int, default=1000)
    g.add_argument("--events", type=int, default=5000)
    g.add_argument("--epochs", type=int, default=4)
    g.add_argument("--seed", type=int, default=7)

    a = sub.add_parser("apply")
    a.add_argument("--table", required=True)
    a.add_argument("--epoch", type=int, required=True)
    a.add_argument("--binlog", required=True)
    a.add_argument("--base", default=None)
    a.add_argument("--format", default="parquet",
                   choices=["parquet", "jsonl", "jsonl-lenient"],
                   dest="source_format",
                   help="binlog encoding: parquet (default) or jsonl "
                        "(Debezium-flavor envelopes)")
    _add_cfg_args(a)

    st = sub.add_parser("state")
    st.add_argument("--table", required=True)
    st.add_argument("--out", default=None, help="write Parquet here instead of printing")
    st.add_argument("--limit", type=int, default=10)
    st.add_argument("--up-to-epoch", type=int, default=None, dest="up_to_epoch",
                    help="time travel: state as of this committed epoch "
                         "(must be at/above the compaction floor)")
    st.add_argument("--up-to-lsn", type=int, default=None, dest="up_to_lsn",
                    help="LSN-level time travel: state as of this exact log "
                         "position (must be at/above the compaction ceiling)")
    st.add_argument("--tag", default=None,
                    help="named-snapshot time travel (see the 'tag' command)")
    st.add_argument("--columns", default=None,
                    help="comma-separated projection (display names); "
                         "unrequested payload columns are pruned at the "
                         "parquet scan and skipped by the fold")
    _add_cfg_args(st)

    tg = sub.add_parser(
        "tag", help="name a committed epoch cut for time-travel reads "
                    "(Delta/Iceberg tag analog); list with no --name")
    tg.add_argument("--table", required=True)
    tg.add_argument("--name", default=None)
    tg.add_argument("--epoch", type=int, default=None,
                    help="defaults to the latest committed epoch")
    tg.add_argument("--replace", action="store_true")
    tg.add_argument("--delete", action="store_true")
    _add_cfg_args(tg)

    xp = sub.add_parser(
        "explain", help="read-amplification / bucket-size diagnostic: what "
        "a fold of the current state will physically do, plus maintenance "
        "recommendations (compact-deltas / compact / repartition)")
    xp.add_argument("--table", required=True)
    xp.add_argument("--per-part", action="store_true",
                    help="include the per-partition breakdown")
    _add_cfg_args(xp)

    vc = sub.add_parser(
        "virtual-column", help="manage GENERATED columns (Delta "
        "generated-column analog): polars-SQL exprs over display columns, "
        "materialized at every state read; list with no --name")
    vc.add_argument("--table", required=True)
    vc.add_argument("--name", default=None)
    vc.add_argument("--expr", default=None,
                    help="polars-SQL scalar expression, e.g. 'n_tok * 3 + 7'")
    vc.add_argument("--inputs", default="",
                    help="comma-separated display columns the expr reads")
    vc.add_argument("--delete", action="store_true")
    _add_cfg_args(vc)

    m = sub.add_parser("metrics")
    m.add_argument("--table", required=True)
    _add_cfg_args(m)

    c = sub.add_parser("compact")
    c.add_argument("--table", required=True)
    _add_cfg_args(c)

    rpa = sub.add_parser(
        "repartition",
        help="partition evolution: rewrite the folded state into a new "
             "base snapshot at a different partition/salt count (one "
             "manifest CAS; requires a quiesced writer)",
    )
    rpa.add_argument("--table", required=True)
    rpa.add_argument("--to-partitions", type=int, required=True)
    rpa.add_argument("--to-salts", type=int, default=None)
    _add_cfg_args(rpa)

    hi = sub.add_parser(
        "history",
        help="table history (DESCRIBE HISTORY analog): epochs, compactions, "
             "repartitions, delta segments, DDL — from the manifest only",
    )
    hi.add_argument("--table", required=True)
    _add_cfg_args(hi)

    dw = sub.add_parser(
        "delete-where",
        help="predicate delete through the replay path: emit one tombstone "
             "event per matching row as a fenced epoch (audit/metrics/"
             "change-feed lineage like any upstream epoch)",
    )
    dw.add_argument("--table", required=True)
    dw.add_argument("--epoch", type=int, required=True)
    dw.add_argument("--where", required=True,
                    help="SQL expression over the canonical row frame, "
                         "e.g. \"source = 'web' AND n_tok < 10\"")
    _add_cfg_args(dw)

    mg = sub.add_parser(
        "merge",
        help="MERGE INTO through the replay path: source rows matched by "
             "doc_id become updates (or tombstones), unmatched become "
             "inserts — compiled to a fenced binlog epoch",
    )
    mg.add_argument("--table", required=True)
    mg.add_argument("--source", required=True,
                    help="parquet path with doc_id/tokens/n_tok/source")
    mg.add_argument("--epoch", type=int, required=True)
    mg.add_argument("--when-matched", choices=["update", "delete", "none"],
                    default="update", dest="when_matched")
    mg.add_argument("--when-not-matched", choices=["insert", "none"],
                    default="insert", dest="when_not_matched")
    mg.add_argument("--column-mask", default=None, dest="column_mask",
                    help="comma-separated payload columns a matched update "
                         "may overwrite (default: all)")
    _add_cfg_args(mg)

    ex = sub.add_parser(
        "export",
        help="copy-out a consistent snapshot of the public table state as "
             "hash-partitioned parquet + _EXPORT.json (idempotent)",
    )
    ex.add_argument("--table", required=True)
    ex.add_argument("--dest", required=True)
    ex.add_argument("--up-to-epoch", type=int, default=None, dest="up_to_epoch")
    ex.add_argument("--cluster-by", default=None, dest="cluster_by",
                    help="one or two comma-separated int columns: write a "
                         "clustered (Z-order for two) layout with exact "
                         "per-column zone maps (data skipping via "
                         "scan-export)")
    ex.add_argument("--n-ranges", type=int, default=8, dest="n_ranges")
    _add_cfg_args(ex)

    tx = sub.add_parser(
        "txn",
        help="atomically apply one epoch to EACH of several tables "
             "(2PC: all become visible or none; state/txn.py)",
    )
    tx.add_argument("--txn-root", required=True, dest="txn_root")
    tx.add_argument("--part", nargs=3, action="append", required=True,
                    metavar=("TABLE", "EPOCH", "BINLOG"),
                    help="repeatable: one (table root, epoch, binlog dir) leg")
    _add_cfg_args(tx)

    txr = sub.add_parser(
        "txn-recover",
        help="resolve in-doubt transactions: roll decided ones forward, "
             "discard undecided staging",
    )
    txr.add_argument("--txn-root", required=True, dest="txn_root")
    txr.add_argument("--table", action="append", required=True,
                     dest="tables", help="repeatable")
    _add_cfg_args(txr)

    sx = sub.add_parser(
        "scan-export",
        help="zone-map-pruned scan of a clustered export (directories "
             "whose zone can't match every --col bound are skipped)",
    )
    sx.add_argument("--dest", required=True)
    sx.add_argument("--col", action="append", default=[],
                    help="predicate col:lo:hi (empty lo/hi = unbounded); "
                         "repeatable")
    sx.add_argument("--limit", type=int, default=5)

    exc = sub.add_parser(
        "export-changes",
        help="CDC egress: write changes_between(from, to) as parquet "
             "partitioned by change type + _EXPORT.json (idempotent)",
    )
    exc.add_argument("--table", required=True)
    exc.add_argument("--dest", required=True)
    exc.add_argument("--from-epoch", type=int, required=True, dest="from_epoch")
    exc.add_argument("--to-epoch", type=int, required=True, dest="to_epoch")
    exc.add_argument("--with-payload", action="store_true", dest="with_payload",
                     help="include tokens_after (replication-grade feed "
                          "consumable by apply-feed)")
    exc.add_argument("--format", default="parquet", choices=["parquet", "jsonl"],
                     dest="feed_format",
                     help="feed encoding: parquet (default) or jsonl "
                          "(Debezium-flavor envelope lines)")
    _add_cfg_args(exc)

    af = sub.add_parser(
        "apply-feed",
        help="replication ingest: apply a payload change feed "
             "(export-changes --with-payload output) onto this table as "
             "two fenced merge epochs (upserts at --epoch, deletes at +1)",
    )
    af.add_argument("--table", required=True)
    af.add_argument("--feed", required=True)
    af.add_argument("--epoch", type=int, required=True)
    af.add_argument("--format", default="parquet", choices=["parquet", "jsonl"],
                    dest="feed_format",
                    help="feed encoding (match the export-changes --format)")
    _add_cfg_args(af)

    cl = sub.add_parser(
        "clone",
        help="zero-copy table clone: hardlink data files + fresh rewritten "
             "manifest; clones are fully independent (vacuum-safe)",
    )
    cl.add_argument("--table", required=True)
    cl.add_argument("--dest", required=True)
    _add_cfg_args(cl)

    fk = sub.add_parser(
        "fsck",
        help="integrity check: manifest claims vs files on disk "
             "(footer-metadata only; --deep re-reads lsn columns)",
    )
    fk.add_argument("--table", required=True)
    fk.add_argument("--deep", action="store_true")
    fk.add_argument("--orphans", action="store_true",
                    help="also list unreferenced files (vacuum dry-run); "
                         "orphans never affect the exit status")
    _add_cfg_args(fk)

    rb = sub.add_parser(
        "rollback",
        help="truncate the log: drop committed epochs above --to-epoch "
             "(refuses below the compaction floor / across a delta segment)",
    )
    rb.add_argument("--table", required=True)
    rb.add_argument("--to-epoch", type=int, required=True, dest="to_epoch")
    _add_cfg_args(rb)

    v = sub.add_parser(
        "vacuum",
        help="reclaim superseded base snapshots (and, with --drop-audit, "
             "below-floor delta history) after compact",
    )
    v.add_argument("--table", required=True)
    v.add_argument("--drop-audit", action="store_true", dest="drop_audit")
    v.add_argument("--retain-snapshots", type=int, default=0,
                   dest="retain_snapshots",
                   help="keep the N most recently superseded base snapshots "
                        "(retention window for concurrent stale readers)")
    v.add_argument("--retain-versions", type=int, default=64,
                   dest="retain_versions",
                   help="manifest-log checkpointing: keep only the newest N "
                        "version files (0 = keep all)")
    _add_cfg_args(v)

    fo = sub.add_parser(
        "follow",
        help="streaming micro-batch ingest: tail a binlog root for epoch=N "
             "dirs and apply them in LSN-epoch order as they appear",
    )
    fo.add_argument("--table", required=True)
    fo.add_argument("--binlog-root", required=True, dest="binlog_root")
    fo.add_argument("--base", default=None)
    fo.add_argument("--poll", type=float, default=2.0,
                    help="seconds between directory polls")
    fo.add_argument("--until-epoch", type=int, default=None, dest="until_epoch",
                    help="exit after applying this epoch")
    fo.add_argument("--max-idle-polls", type=int, default=0, dest="max_idle",
                    help="exit after this many consecutive empty polls (0 = forever)")
    fo.add_argument("--marker", default=None,
                    help="only apply an epoch dir once this marker file exists "
                         "in it (for producers that do not publish atomically)")
    fo.add_argument("--format", default="parquet",
                    choices=["parquet", "jsonl", "jsonl-lenient"],
                    dest="source_format",
                    help="epoch encoding: parquet (default) or jsonl "
                         "(Debezium-flavor envelopes)")
    fo.add_argument("--view-root", default=None, dest="view_root",
                    help="keep the source-counts materialized view fresh: "
                         "incremental refresh after every applied epoch")
    fo.add_argument("--refresh-view", action="append", default=None,
                    dest="refresh_views", metavar="ROOT",
                    help="existing view root (agg / postings / scalar-index, "
                         "type read from its META.json) to refresh after "
                         "every applied epoch; repeatable")
    fo.add_argument("--dedup-gate-view", default=None,
                    dest="dedup_gate_view", metavar="ROOT",
                    help="MinHash index view root: before applying each "
                         "epoch, probe its insert/update payloads against "
                         "the view (near-dups of CURRENT state) and report "
                         "verified (incoming_id, dup_of, jaccard) pairs — "
                         "pair with --refresh-view ROOT to keep the index "
                         "at the table head")
    fo.add_argument("--dedup-gate-report", default=None,
                    dest="dedup_gate_report", metavar="DIR",
                    help="write each epoch's gate pairs to "
                         "DIR/epoch=<e>.parquet")
    fo.add_argument("--relay-dest", default=None, dest="relay_dest",
                    help="CDC relay: after each applied epoch e>0, export "
                         "the (payload) change feed e-1 -> e under "
                         "DEST/epoch=e — ingest and egress in one loop")
    fo.add_argument("--relay-format", default="parquet",
                    choices=["parquet", "jsonl"], dest="relay_format")
    fo.add_argument("--maintain-every", type=int, default=0,
                    dest="maintain_every", metavar="K",
                    help="run maintain() (auto compact/level-1 merge) after "
                         "every K applied epochs (0 = never)")
    fo.add_argument("--index-blooms", action="store_true", dest="index_blooms",
                    help="backfill .keybloom file-skipping sidecars after "
                         "each applied epoch (ingest writes them itself; "
                         "this only indexes files written by older code)")
    fo.add_argument("--max-deadletter-rate", type=float, default=None,
                    dest="max_dl_rate",
                    help="write-audit-publish gate: veto (and stop) when an "
                         "epoch's deadletter share of processed events "
                         "exceeds this rate — bad upstream extracts never "
                         "become visible")
    _add_cfg_args(fo)

    ch = sub.add_parser(
        "changes",
        help="change-data feed: per-row diff of table state between epochs",
    )
    ch.add_argument("--table", required=True)
    ch.add_argument("--from-epoch", type=int, required=True, dest="from_epoch")
    ch.add_argument("--to-epoch", type=int, required=True, dest="to_epoch")
    ch.add_argument("--out", default=None)
    ch.add_argument("--limit", type=int, default=20)
    _add_cfg_args(ch)

    mo = sub.add_parser(
        "modify",
        help="plugin-only transform of a table snapshot (reference --modify-recs, §3.2): "
             "read → policy chain → write partitioned by the online route flag",
    )
    mo.add_argument("--input", required=True, help="Parquet table to transform")
    mo.add_argument("--out", required=True)
    _add_cfg_args(mo)

    lk = sub.add_parser(
        "lookup",
        help="point lookup: fold ONLY the partitions that can hold the keys "
             "(reference S4 authority point-lookup)",
    )
    lk.add_argument("--table", required=True)
    lk.add_argument("--id", action="append", required=True, dest="ids",
                    help="doc_id to look up (repeatable)")
    lk.add_argument("--up-to-epoch", type=int, default=None, dest="up_to_epoch")
    _add_cfg_args(lk)

    dh = sub.add_parser(
        "doc-history",
        help="per-key lineage: every retained event that targeted a doc_id "
             "(partition-pruned, key-filtered reads) + optional as-of state "
             "reconstruction per event",
    )
    dh.add_argument("--table", required=True)
    dh.add_argument("--doc-id", required=True, action="append",
                    dest="doc_ids",
                    help="key whose lineage to list (repeatable: all keys "
                         "are served by ONE bloom-pruned scan pass)")
    dh.add_argument("--versions", action="store_true",
                    help="reconstruct the state as of each event (lsn-level "
                         "time-travel lookups)")
    dh.add_argument("--payload", action="store_true",
                    help="include event/state token arrays")
    _add_cfg_args(dh)

    vw = sub.add_parser(
        "view",
        help="incrementally-maintained (source, n_rows, n_tok_sum) view: "
             "refresh from the change feed, then print",
    )
    vw.add_argument("--table", required=True)
    vw.add_argument("--view-root", required=True, dest="view_root")
    vw.add_argument("--to-epoch", type=int, default=None, dest="to_epoch")
    vw.add_argument("--no-refresh", action="store_true", dest="no_refresh",
                    help="print the current view without refreshing")
    _add_cfg_args(vw)

    pv = sub.add_parser(
        "postings",
        help="incrementally-maintained inverted token index: refresh from "
             "the payload change feed, then query or print",
    )
    pv.add_argument("--table", required=True)
    pv.add_argument("--view-root", required=True, dest="view_root")
    pv.add_argument("--to-epoch", type=int, default=None, dest="to_epoch")
    pv.add_argument("--n-buckets", type=int, default=None, dest="n_buckets",
                    help="bucket count for a NEW view (default 16); on an "
                         "existing view-root, omitted adopts the stored "
                         "value and a mismatched value errors")
    pv.add_argument("--no-refresh", action="store_true", dest="no_refresh")
    pv.add_argument("--token", action="append", type=int, default=None,
                    dest="tokens", help="query token (repeatable)")
    pv.add_argument("--mode", choices=["and", "or"], default="and")
    pv.add_argument("--limit", type=int, default=20)
    _add_cfg_args(pv)

    mh = sub.add_parser(
        "minhash-index",
        help="incrementally-maintained MinHash-LSH near-dup index over "
             "token payloads: refresh from the payload change feed, then "
             "list candidate pairs or probe a doc",
    )
    mh.add_argument("--table", required=True)
    mh.add_argument("--view-root", required=True, dest="view_root")
    mh.add_argument("--to-epoch", type=int, default=None, dest="to_epoch")
    mh.add_argument("--n-buckets", type=int, default=None, dest="n_buckets")
    mh.add_argument("--no-refresh", action="store_true", dest="no_refresh")
    mh.add_argument("--pairs", action="store_true",
                    help="list candidate near-dup pairs from shared "
                         "signature entries")
    mh.add_argument("--probe-doc", default=None, dest="probe_doc",
                    help="doc_id whose CURRENT tokens to probe against "
                         "the index")
    mh.add_argument("--limit", type=int, default=20)
    _add_cfg_args(mh)

    en = sub.add_parser(
        "enrich",
        help="rate-limited external enrichment of the CURRENT state "
             "(reference S5's throttled authority lookup): actor pool of "
             "service clients, token-bucket rate limit, bounded retries, "
             "in-band dead-letter routing; writes enriched parquet",
    )
    en.add_argument("--table", required=True)
    en.add_argument("--dest", required=True,
                    help="output directory (partitioned parquet)")
    en.add_argument("--key-col", default="doc_id", dest="key_col")
    en.add_argument("--out-col", default="authority", dest="out_col")
    en.add_argument("--rate", type=float, default=None,
                    help="per-actor lookups/sec (cluster rate = "
                         "concurrency x rate); omit for unthrottled")
    en.add_argument("--burst", type=float, default=1.0)
    en.add_argument("--max-retries", type=int, default=3,
                    dest="max_retries")
    en.add_argument("--concurrency", type=int, default=4)
    en.add_argument("--service", default=None,
                    help="dotted path of a service factory "
                         "(module:attr); default = the deterministic "
                         "fixture service")
    _add_cfg_args(en)

    ib = sub.add_parser(
        "index-blooms",
        help="backfill .keybloom file-skipping sidecars for delta/segment "
             "files written without one by older code (point lookups "
             "then skip key-free files)",
    )
    ib.add_argument("--table", required=True)
    _add_cfg_args(ib)

    mt = sub.add_parser(
        "maintain",
        help="auto-optimize: execute explain's recommendations (level-1 "
             "delta merge / base compaction; repartition only with "
             "--apply-repartition) until the layout diagnostic is clean",
    )
    mt.add_argument("--table", required=True)
    mt.add_argument("--apply-repartition", action="store_true",
                    dest="apply_repartition")
    _add_cfg_args(mt)

    si = sub.add_parser(
        "scalar-index",
        help="incrementally-maintained secondary index on a scalar state "
             "column: refresh from the token-free change feed, then query",
    )
    si.add_argument("--table", required=True)
    si.add_argument("--view-root", required=True, dest="view_root")
    # None defaults: on an existing view-root an omitted flag adopts the
    # stored META (new views get n_tok/16/16); a mismatched explicit flag
    # errors instead of silently refreshing a different index
    si.add_argument("--column", default=None)
    si.add_argument("--bin-width", type=int, default=None, dest="bin_width")
    si.add_argument("--n-buckets", type=int, default=None, dest="n_buckets")
    si.add_argument("--to-epoch", type=int, default=None, dest="to_epoch")
    si.add_argument("--no-refresh", action="store_true", dest="no_refresh")
    si.add_argument("--eq", default=None, help="equality lookup value")
    si.add_argument("--range", nargs=2, type=int, default=None,
                    dest="range_q", metavar=("LO", "HI"))
    si.add_argument("--limit", type=int, default=20)
    _add_cfg_args(si)

    rep = sub.add_parser(
        "report",
        help="standalone reports over a binlog dir (reference §3.3 utilities)",
    )
    rep.add_argument("kind", choices=["dup-keys", "routes", "key-diff", "intra-dups"])
    rep.add_argument("--binlog", required=True)
    rep.add_argument("--limit", type=int, default=20)
    _add_cfg_args(rep)

    args = ap.parse_args(argv)

    if args.cmd == "gen-fixture":
        from marc_data_migration_ray.sources import fixtures

        info = fixtures.write_fixture(
            args.root, n_rows=args.rows, n_events=args.events,
            n_epochs=args.epochs, seed=args.seed,
        )
        print(json.dumps(info))
        return 0

    ray, started = _ray_session()
    try:
        if args.cmd == "modify":
            import ray.data

            from marc_data_migration_ray.stages.policy import apply_policies

            from marc_data_migration_ray.sources import readers

            cfg = _cfg_from_args(args)
            ds = readers.read_parquet(args.input)
            out = apply_policies(ds, cfg)
            if "online" in (out.schema().names or []):
                import pyarrow as pa

                out = out.map_batches(
                    lambda t: t.append_column(
                        "online_p", t["online"].combine_chunks()
                        if isinstance(t["online"], pa.ChunkedArray) else t["online"]
                    ),
                    batch_format="pyarrow",
                )
                out.write_parquet(args.out, partition_cols=["online_p"])
            else:
                out.write_parquet(args.out)
            print(json.dumps({"rows": out.count(), "out": args.out}))
            return 0
        if args.cmd == "report":
            import glob as _glob

            import ray.data

            from marc_data_migration_ray.stages.parse import ParseRoute

            cfg = _cfg_from_args(args)
            files = sorted(
                _glob.glob(os.path.join(args.binlog, "**", "*.parquet"), recursive=True)
            ) or args.binlog
            from marc_data_migration_ray.sources import readers

            ds = readers.read_parquet(files)
            parsed = ds.map_batches(ParseRoute(cfg), batch_format="pyarrow", zero_copy_batch=True)
            if args.kind == "dup-keys":
                import pyarrow.compute as _pc

                keyed = parsed.map_batches(
                    lambda t: t.filter(_pc.is_valid(t["key"])),
                    batch_format="pyarrow",
                    zero_copy_batch=True,
                )
                agg = keyed.groupby("key").count()
                import pyarrow.compute as pc
                import pyarrow as pa

                renamed = agg.map_batches(
                    lambda t: pa.table(
                        {"key": t["key"], "n_events": pc.cast(t[t.column_names[-1]], pa.int64())}
                    ),
                    batch_format="pyarrow",
                )
                rows = renamed.filter(expr="n_events > 1").take(args.limit)
                for r in rows:
                    print(json.dumps(r))
                print(json.dumps({"dup_keys_shown": len(rows)}))
            elif args.kind == "key-diff":
                # reference --compare_oclc_numbers (J3): raw key ≠ normalized
                import pyarrow.compute as pc

                def _diff(t):
                    raw, key = t["doc_id_raw"], t["key"]
                    differs = pc.fill_null(pc.not_equal(raw, key), False)
                    missing = pc.and_(pc.is_valid(raw), pc.is_null(key))
                    return t.select(["lsn", "doc_id_raw", "key", "op"]).filter(
                        pc.or_(differs, missing)
                    )

                diff = parsed.map_batches(_diff, batch_format="pyarrow",
                                          zero_copy_batch=True)
                rows = diff.take(args.limit)
                for r in rows:
                    print(json.dumps(r))
                print(json.dumps({"key_diffs_shown": len(rows),
                                  "key_diffs_total": diff.count()}))
            elif args.kind == "intra-dups":
                # reference R2/R3: a repeated single-valued column in a mask
                import pyarrow as pa
                import pyarrow.compute as pc

                def _dups(t):
                    import polars as pl

                    df = pl.from_arrow(t.select(["lsn", "doc_id_raw", "column_mask"]))
                    out = df.with_columns(
                        pl.col("column_mask").list.len().fill_null(0).alias("n_mask"),
                        pl.col("column_mask").list.n_unique().fill_null(0).alias("n_distinct"),
                    ).filter(pl.col("n_mask") > pl.col("n_distinct"))
                    a = out.to_arrow()
                    return pa.table(
                        {
                            "lsn": pc.cast(a["lsn"], pa.int64()),
                            "doc_id_raw": pc.cast(a["doc_id_raw"], pa.string()),
                            "n_mask": pc.cast(a["n_mask"], pa.int64()),
                            "n_distinct": pc.cast(a["n_distinct"], pa.int64()),
                        }
                    )

                dups = parsed.map_batches(_dups, batch_format="pyarrow",
                                          zero_copy_batch=True)
                rows = dups.take(args.limit)
                for r in rows:
                    print(json.dumps(r))
                print(json.dumps({"intra_dups_shown": len(rows),
                                  "intra_dups_total": dups.count()}))
            else:  # routes
                counts: dict = {}
                for b in parsed.iter_batches(batch_format="pyarrow"):
                    import pyarrow.compute as pc

                    for item in pc.value_counts(b["route"]).to_pylist():
                        counts[item["values"]] = counts.get(item["values"], 0) + item["counts"]
                print(json.dumps({"routes": counts, "processed": sum(counts.values())}))
            return 0

        if args.cmd in ("txn", "txn-recover"):
            from marc_data_migration_ray.pipelines.replay import Replayer
            from marc_data_migration_ray.state.txn import MultiTableTxn

            txn = MultiTableTxn(args.txn_root)
            cfg = _cfg_from_args(args)
            if args.cmd == "txn":
                parts = [(Replayer(t, cfg), int(e), b)
                         for t, e, b in args.part]
                res = txn.commit(parts)
                print(json.dumps({"txn_id": res["txn_id"], "entries": {
                    r: {k: v for k, v in e.items() if k != "dir"}
                    for r, e in res["entries"].items()}}))
            else:
                res = txn.recover([Replayer(t, cfg) for t in args.tables])
                print(json.dumps(res))
            return 0

        if args.cmd == "scan-export":
            from marc_data_migration_ray.pipelines.replay import scan_export

            preds = {}
            for spec in args.col:
                c, lo, hi = (spec.split(":") + ["", ""])[:3]
                preds[c] = (int(lo) if lo else None, int(hi) if hi else None)
            scan = scan_export(args.dest, **preds)
            ds = scan.pop("dataset")
            for r in ds.take(args.limit):
                r = dict(r)
                if r.get("tokens") is not None:
                    r["tokens"] = list(r["tokens"])[:8]
                print(json.dumps(r, default=str))
            print(json.dumps({**scan, "rows": ds.count()}))
            return 0

        from marc_data_migration_ray.pipelines.replay import Replayer

        rp = Replayer(args.table, _cfg_from_args(args), base_path=getattr(args, "base", None))
        if args.cmd == "apply":
            entry = rp.apply_epoch(
                args.epoch, args.binlog,
                source_format=getattr(args, "source_format", "parquet"),
            )
            print(json.dumps({"epoch": args.epoch, **{k: v for k, v in entry.items() if k != "dir"}}))
        elif args.cmd == "tag":
            if args.name is None:
                print(json.dumps(rp.tags()))
            elif args.delete:
                rp.delete_tag(args.name)
                print(json.dumps({"deleted": args.name}))
            else:
                e = rp.tag(args.name, epoch=args.epoch, replace=args.replace)
                print(json.dumps({"tag": args.name, "epoch": e}))
        elif args.cmd == "index-blooms":
            print(json.dumps(rp.build_key_blooms()))
        elif args.cmd == "maintain":
            print(json.dumps(
                rp.maintain(apply_repartition=args.apply_repartition)))
        elif args.cmd == "explain":
            rep = rp.explain_layout()
            if not args.per_part:
                rep.pop("per_part")
            print(json.dumps(rep))
        elif args.cmd == "virtual-column":
            if args.name is None:
                print(json.dumps(rp.virtual_columns()))
            elif args.delete:
                rp.drop_virtual_column(args.name)
                print(json.dumps({"deleted": args.name}))
            else:
                if not args.expr:
                    raise SystemExit("--expr required to define a column")
                ins = [c for c in args.inputs.split(",") if c]
                rp.set_virtual_column(args.name, args.expr, inputs=ins)
                print(json.dumps({"virtual_column": args.name,
                                  "expr": args.expr, "inputs": ins}))
        elif args.cmd == "state":
            cols = args.columns.split(",") if args.columns else None
            ds = rp.read_state(up_to_epoch=args.up_to_epoch,
                               up_to_lsn=args.up_to_lsn, tag=args.tag,
                               columns=cols)
            if args.out:
                ds.write_parquet(args.out)
                print(json.dumps({"rows": ds.count(), "out": args.out}))
            else:
                rows = ds.take(args.limit)
                for r in rows:
                    r = dict(r)
                    if r.get("tokens") is not None:
                        r["tokens"] = list(r["tokens"])[:8] + (["..."] if len(r["tokens"]) > 8 else [])
                    print(json.dumps(r, default=str))
                print(json.dumps({"total_rows": ds.count()}))
        elif args.cmd == "metrics":
            print(json.dumps(rp.fold_metrics()))
        elif args.cmd == "compact":
            path = rp.compact()
            print(json.dumps({"compacted_to": path}))
        elif args.cmd == "history":
            for r in rp.history().to_pylist():
                print(json.dumps(r))
        elif args.cmd == "delete-where":
            print(json.dumps(rp.delete_where(args.where, args.epoch)))
        elif args.cmd == "merge":
            print(json.dumps(rp.merge(
                args.source, args.epoch,
                when_matched=(None if args.when_matched == "none"
                              else args.when_matched),
                when_not_matched=(None if args.when_not_matched == "none"
                                  else args.when_not_matched),
                column_mask=(args.column_mask.split(",")
                             if args.column_mask else None),
            )))
        elif args.cmd == "repartition":
            path = rp.repartition(args.to_partitions, args.to_salts)
            print(json.dumps({
                "repartitioned_to": path,
                "num_partitions": rp.cfg.num_partitions,
                "num_salts": rp.cfg.num_salts,
            }))
        elif args.cmd == "export":
            cols = tuple(args.cluster_by.split(",")) if args.cluster_by else None
            info = rp.export_snapshot(args.dest, up_to_epoch=args.up_to_epoch,
                                      cluster_by=cols, n_ranges=args.n_ranges)
            print(json.dumps(info))
        elif args.cmd == "rollback":
            print(json.dumps(rp.rollback(args.to_epoch)))
        elif args.cmd == "clone":
            print(json.dumps(rp.clone(args.dest)))
        elif args.cmd == "fsck":
            res = rp.fsck(deep=args.deep)
            if args.orphans:
                res["orphan_report"] = rp.orphans()
            print(json.dumps(res))
            return 0 if res["ok"] else 1
        elif args.cmd == "export-changes":
            print(json.dumps(
                rp.export_changes(args.dest, args.from_epoch, args.to_epoch,
                                  with_payload=args.with_payload,
                                  fmt=getattr(args, "feed_format", "parquet"))
            ))
        elif args.cmd == "apply-feed":
            print(json.dumps(rp.apply_change_feed(
                args.feed, args.epoch,
                feed_format=getattr(args, "feed_format", "parquet"))))
        elif args.cmd == "vacuum":
            removed = rp.vacuum(retain_audit=not args.drop_audit,
                                retain_snapshots=args.retain_snapshots,
                                retain_versions=args.retain_versions)
            print(json.dumps({"removed": removed}))
        elif args.cmd == "follow":
            # streaming micro-batch loop: resume point comes from the
            # manifest (exactly-once across restarts — a re-applied epoch is
            # fenced to a no-op), epochs apply strictly in order
            import time as _time

            committed = rp.manifest.committed_epochs()
            e = (max(committed) + 1) if committed else 0
            idle = 0
            applied = []
            view = None
            if args.view_root:
                from marc_data_migration_ray.pipelines.views import SourceCountsView

                view = SourceCountsView(args.view_root, rp)
            extra_views = []
            if args.refresh_views:
                from marc_data_migration_ray.pipelines.views import open_view

                extra_views = [(r, open_view(r, rp)) for r in args.refresh_views]
            gate = None
            if args.dedup_gate_view:
                from marc_data_migration_ray.pipelines.views import (
                    MinHashIndexView, open_view)

                gate = open_view(args.dedup_gate_view, rp)
                if not isinstance(gate, MinHashIndexView):
                    raise SystemExit(
                        "--dedup-gate-view must point at a minhash_index "
                        f"view (got {type(gate).__name__})")
            # the bound is checked BEFORE applying: a resume where
            # until_epoch is already committed exits immediately instead of
            # polling forever or over-applying
            while args.until_epoch is None or e <= args.until_epoch:
                d = os.path.join(args.binlog_root, f"epoch={e}")
                ready = os.path.isdir(d) and (
                    args.marker is None or os.path.exists(os.path.join(d, args.marker))
                )
                if ready:
                    if gate is not None and gate.last_epoch() is not None:
                        # advisory pre-ingest gate: probe the EPOCH'S
                        # incoming payloads against the index over the
                        # state as of the last refresh, BEFORE the write
                        import pyarrow as pa
                        import pyarrow.compute as _pc
                        import ray.data

                        from marc_data_migration_ray.pipelines.derived \
                            import near_dup_gate

                        fmt = getattr(args, "source_format", "parquet")
                        if fmt == "jsonl":
                            from marc_data_migration_ray.sources.jsonl \
                                import read_jsonl_binlog

                            inc = read_jsonl_binlog(d, epoch=e)
                        else:
                            import glob as _glob

                            inc = ray.data.read_parquet(sorted(
                                _glob.glob(os.path.join(d, "*.parquet"))))

                        def _inc_rows(t):
                            keep = _pc.and_(
                                _pc.is_in(t["op"], value_set=pa.array(
                                    ["insert", "update"], pa.string())),
                                _pc.is_valid(t["doc_id"]))
                            t = t.filter(keep)
                            # lsn rides along so the gate's per-doc
                            # dedupe can pick latest-event-wins
                            return t.select(["doc_id", "tokens", "lsn"])

                        pairs = near_dup_gate(
                            rp, gate, inc.map_batches(
                                _inc_rows, batch_format="pyarrow",
                                zero_copy_batch=True))
                        gate_line = {"pairs": pairs.num_rows}
                        if args.dedup_gate_report and pairs.num_rows:
                            os.makedirs(args.dedup_gate_report,
                                        exist_ok=True)
                            import pyarrow.parquet as _pq

                            _pq.write_table(pairs, os.path.join(
                                args.dedup_gate_report,
                                f"epoch={e}.parquet"))
                    else:
                        gate_line = None
                    if args.max_dl_rate is not None:
                        rate = args.max_dl_rate

                        def _audit(staged, entry, rate=rate):
                            bad = staged.filter(
                                expr="route == 'deadletter'").count()
                            return bad <= entry["processed"] * rate

                        try:
                            entry = rp.apply_epoch_audited(
                                e, d, _audit,
                                source_format=getattr(args, "source_format", "parquet"),
                            )
                        except ValueError as err:
                            print(json.dumps({"vetoed_epoch": e,
                                              "reason": str(err)}), flush=True)
                            break
                    else:
                        entry = rp.apply_epoch(
                            e, d,
                            source_format=getattr(args, "source_format", "parquet"),
                        )
                    applied.append(e)
                    line = {"applied_epoch": e, "rows": entry["rows"],
                            "routes": entry["routes"]}
                    if view is not None:
                        line["view"] = view.refresh(to_epoch=e)
                    if extra_views:
                        line["views"] = {
                            r: v.refresh(to_epoch=e) for r, v in extra_views
                        }
                    if args.relay_dest and e > 0:
                        rel = rp.export_changes(
                            os.path.join(args.relay_dest, f"epoch={e}"),
                            e - 1, e, with_payload=True,
                            fmt=args.relay_format,
                        )
                        line["relay"] = {"epoch": e,
                                         "n_changes": rel["n_changes"]}
                    if args.maintain_every and (e + 1) % args.maintain_every == 0:
                        line["maintain"] = rp.maintain()["actions"]
                    if args.index_blooms:
                        line["blooms_built"] = rp.build_key_blooms()["built"]
                    if gate is not None and gate_line is not None:
                        line["dedup_gate"] = gate_line
                    print(json.dumps(line), flush=True)
                    e += 1
                    idle = 0
                    continue
                idle += 1
                if args.max_idle and idle >= args.max_idle:
                    break
                _time.sleep(args.poll)
            print(json.dumps({"followed": applied, "next_epoch": e}))
        elif args.cmd == "lookup":
            rows = rp.lookup(args.ids, up_to_epoch=args.up_to_epoch).take_all()
            for r in rows:
                r = dict(r)
                if r.get("tokens") is not None:
                    r["tokens"] = list(r["tokens"])[:8] + (["..."] if len(r["tokens"]) > 8 else [])
                print(json.dumps(r, default=str))
            print(json.dumps({"found": len(rows), "asked": len(args.ids)}))
        elif args.cmd == "doc-history":
            uniq = [k for k in dict.fromkeys(args.doc_ids)]
            t = rp.doc_history_many(uniq, with_payload=args.payload,
                                    with_versions=args.versions)
            if len(uniq) == 1:
                # single-key invocation keeps the pre-multi-key output
                # shape exactly (no doc_id column, {"doc_id": ...} summary)
                t = t.drop_columns(["doc_id"])
            for r in t.to_pylist():
                print(json.dumps(r, default=str))
            if len(uniq) == 1:
                print(json.dumps({"doc_id": uniq[0], "events": t.num_rows}))
            else:
                print(json.dumps({"doc_ids": uniq, "events": t.num_rows}))
        elif args.cmd == "view":
            from marc_data_migration_ray.pipelines.views import SourceCountsView

            v = SourceCountsView(args.view_root, rp)
            if not args.no_refresh:
                print(json.dumps(v.refresh(to_epoch=args.to_epoch)))
            for r in v.read().to_pylist():
                print(json.dumps(r))
        elif args.cmd == "postings":
            from marc_data_migration_ray.pipelines.views import PostingsView

            v = PostingsView(args.view_root, rp, n_buckets=args.n_buckets)
            if not args.no_refresh:
                print(json.dumps(v.refresh(to_epoch=args.to_epoch)))
            if args.tokens:
                docs = v.docs_for_tokens(args.tokens, mode=args.mode)
                print(json.dumps({"tokens": args.tokens, "mode": args.mode,
                                  "docs": docs[:args.limit],
                                  "total_docs": len(docs)}))
            else:
                t = v.read()
                for r in t.slice(0, args.limit).to_pylist():
                    print(json.dumps(r))
                print(json.dumps({"total_postings": t.num_rows}))
        elif args.cmd == "minhash-index":
            from marc_data_migration_ray.pipelines.views import MinHashIndexView

            v = MinHashIndexView(args.view_root, rp,
                                 n_buckets=args.n_buckets)
            if not args.no_refresh:
                print(json.dumps(v.refresh(to_epoch=args.to_epoch)))
            if args.pairs:
                pairs, dropped = v.candidate_pairs()
                out = sorted(pairs)
                print(json.dumps({"pairs": out[:args.limit],
                                  "total_pairs": len(out),
                                  "dropped": dropped}))
            if args.probe_doc is not None:
                rows = rp.lookup([args.probe_doc],
                                 columns=["doc_id", "tokens"]).take_all()
                toks = list(rows[0]["tokens"] or []) if rows else []
                cands = v.candidates_for_tokens([toks])[0] if toks else set()
                print(json.dumps({
                    "doc_id": args.probe_doc, "live": bool(rows),
                    "candidates": sorted(cands)[:args.limit],
                    "total_candidates": len(cands)}))
        elif args.cmd == "enrich":
            from marc_data_migration_ray.stages.enrich import EnrichStage

            factory = None
            if args.service:
                import importlib

                mod, _, attr = args.service.partition(":")
                factory = getattr(importlib.import_module(mod), attr)
            # refuse a dirty dest: write_parquet appends uuid-named files,
            # so a second run into the same dir would double-count the
            # summary and leave a mixed two-run dataset for readers
            if os.path.isdir(args.dest) and any(
                    f.endswith(".parquet") for f in os.listdir(args.dest)):
                raise SystemExit(
                    f"enrich: dest {args.dest!r} already holds parquet "
                    "output — use a fresh directory")
            rows = rp.read_state(columns=[args.key_col])
            enriched = rows.map_batches(
                EnrichStage,
                fn_constructor_kwargs={
                    "service_factory": factory,
                    "key_col": args.key_col,
                    "out_col": args.out_col,
                    "rate_per_sec": args.rate,
                    "burst": args.burst,
                    "max_retries": args.max_retries,
                },
                concurrency=args.concurrency,
                batch_size=512,
                batch_format="pyarrow",
            )
            enriched.write_parquet(args.dest)
            import pyarrow.parquet as _pq
            import glob as _glob

            counts: dict = {}
            att = 0
            for f in _glob.glob(os.path.join(args.dest, "*.parquet")):
                t = _pq.read_table(
                    f, columns=["enrich_status", "enrich_attempts"])
                for s, n in zip(
                        *[c.to_pylist() for c in
                          [t["enrich_status"], t["enrich_attempts"]]]):
                    counts[s] = counts.get(s, 0) + 1
                    att += n
            print(json.dumps({"dest": args.dest, "by_status": counts,
                              "total_attempts": att}))
        elif args.cmd == "scalar-index":
            from marc_data_migration_ray.pipelines.views import ScalarIndexView

            v = ScalarIndexView(args.view_root, rp, column=args.column,
                                n_buckets=args.n_buckets,
                                bin_width=args.bin_width)
            if not args.no_refresh:
                print(json.dumps(v.refresh(to_epoch=args.to_epoch)))
            if args.range_q is not None:
                lo, hi = args.range_q
                pairs = v.docs_in_range(lo, hi)
                print(json.dumps({"range": [lo, hi],
                                  "pairs": pairs[:args.limit],
                                  "total": len(pairs)}))
            elif args.eq is not None:
                val = int(args.eq) if v.is_int else args.eq
                docs = v.docs_where_eq(val)
                print(json.dumps({"eq": val, "docs": docs[:args.limit],
                                  "total_docs": len(docs)}))
            else:
                t = v.read()
                for r in t.slice(0, args.limit).to_pylist():
                    print(json.dumps(r))
                print(json.dumps({"total_entries": t.num_rows}))
        elif args.cmd == "changes":
            # materialize once: take/count after write would otherwise
            # re-fold both epoch states and re-diff every partition
            ds = rp.changes_between(args.from_epoch, args.to_epoch).materialize()
            if args.out:
                ds.write_parquet(args.out)
                print(json.dumps({"rows": ds.count(), "out": args.out}))
            else:
                for r in ds.take(args.limit):
                    print(json.dumps(dict(r), default=str))
                print(json.dumps({"total_changes": ds.count()}))
    finally:
        if started:
            ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
