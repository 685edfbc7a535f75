"""Pre-flight of the driver's correctness gate at driver scale (sf0.01).

Runs EVERY ``queries()`` entry against ``/root/testdata/sf0.01`` and
compares row count + column names + order-insensitive values against its
``oracle_sql()`` DuckDB result (same canonicalization as
tests/test_queries_vs_duckdb.py, which runs at sf0.001 in CI). Queries
without an oracle get a rows-only sanity check (>= 0 rows, stable schema).

    python scripts/preflight.py [--sf /root/testdata/sf0.01] [--only name...]

Every oracle must first DESCRIBE to ``ORACLE_TYPES`` only. Prints one
JSON line per query and a final summary; exit code 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

os.environ.setdefault("POLARS_MAX_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = [
    "region", "nation", "customer", "supplier", "part",
    "orders", "lineitem", "events", "documents", "embeddings",
]

#: column types an oracle may emit. INTEGER and TIMESTAMP oracles
#: (price_quantiles, tokenize_docs, pii_redact) have hash-matched in the
#: correctness gate; HUGEINT (DuckDB's type for list_sum over integers)
#: has not, so any other type fails here before a query runs.
ORACLE_TYPES = {"BIGINT", "VARCHAR", "BOOLEAN", "DOUBLE", "INTEGER",
                "TIMESTAMP"}


def oracle_type_violations(con, sql: dict[str, str]) -> dict[str, list]:
    """Oracle name → [(column, type)] of columns outside ORACLE_TYPES."""
    bad = {}
    for name, q in sorted(sql.items()):
        cols = [(c, t) for c, t, *_ in con.execute(f"DESCRIBE {q}").fetchall()
                if t not in ORACLE_TYPES]
        if cols:
            bad[name] = cols
    return bad


def to_pandas(res):
    import pandas as pd

    if hasattr(res, "to_pandas"):
        return res.to_pandas()
    return pd.DataFrame(res)


def canon(df):
    df = df.reindex(sorted(df.columns), axis=1)
    if len(df):
        df = df.sort_values(list(df.columns), ignore_index=True)
    return df


def values_equal(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
        return a == b or abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))
    an = a is None or (isinstance(a, float) and math.isnan(a))
    bn = b is None or (isinstance(b, float) and math.isnan(b))
    if an or bn:
        return an and bn
    return a == b


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", default="/root/testdata/sf0.01")
    ap.add_argument("--cpus", type=int,
                    default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    ap.add_argument("--only", nargs="*", default=None)
    args = ap.parse_args()

    import ray

    ray.init(address="local", num_cpus=args.cpus, include_dashboard=False,
             logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    import duckdb

    import __ray_entry__ as entry_mod

    qs, sql = entry_mod.queries(), entry_mod.oracle_sql()
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM '{args.sf}/{t}.parquet'")

    names = args.only or sorted(qs)
    n_ok = n_rows_only = 0
    bad_types = oracle_type_violations(
        con, {n: q for n, q in sql.items() if n in names})
    for name, cols in bad_types.items():
        print(json.dumps({"q": name, "ok": False,
                          "err": f"oracle column types {cols}"}), flush=True)
    fails: list[str] = sorted(bad_types)
    for name in names:
        t0 = time.time()
        try:
            got = canon(to_pandas(qs[name](args.sf)))
            if name not in sql:
                n_rows_only += 1
                print(json.dumps({"q": name, "rows": len(got),
                                  "mode": "rows_only",
                                  "sec": round(time.time() - t0, 2)}),
                      flush=True)
                continue
            want = canon(con.execute(sql[name]).fetchdf())
            ok = list(got.columns) == list(want.columns) \
                and len(got) == len(want)
            if ok:
                for c in got.columns:
                    for x, y in zip(got[c].tolist(), want[c].tolist()):
                        if not values_equal(x, y):
                            ok = False
                            break
                    if not ok:
                        break
            if ok:
                n_ok += 1
            else:
                fails.append(name)
            print(json.dumps({"q": name, "ok": ok, "rows": len(got),
                              "oracle_rows": len(want),
                              "sec": round(time.time() - t0, 2)}),
                  flush=True)
        except Exception as e:  # noqa: BLE001 — preflight must keep going
            fails.append(name)
            print(json.dumps({"q": name, "ok": False,
                              "err": f"{type(e).__name__}: {e}"[:300]}),
                  flush=True)
    print(json.dumps({"summary": True, "ok": n_ok,
                      "rows_only": n_rows_only, "fail": len(fails),
                      "failed": fails}), flush=True)
    ray.shutdown()
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
