"""Self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

Checks that the oracle comparison flags deliberately perturbed row sets,
and that every end-to-end and per-layer metric named in BENCHMARK.json
is emitted, with its unit, by a very short run of each workload.  Exits
non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(condition, what) -> None:
    if not condition:
        raise SystemExit(f"self-test failed: {what}")


def check_oracle() -> None:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from oracle import Gold, SQLiteOracle, answer_matches
    from repro.datasets import build_swiss_labour_registry

    domain = build_swiss_labour_registry(seed=0)
    oracle = SQLiteOracle(domain.registry.database.catalog)
    try:
        grouped = oracle.gold(Gold(
            "SELECT sector, SUM(employees) FROM employment GROUP BY sector"))
        columns = ["sector", "sum_employees"]
        rows = list(grouped.rows)
        check(answer_matches(columns, rows, grouped), "gold rows must match")
        check(answer_matches(columns, rows[::-1], grouped), "row order is free")
        nudged = [(rows[0][0], rows[0][1] * (1 + 1e-9))] + rows[1:]
        check(answer_matches(columns, nudged, grouped), "float tolerance")
        perturbed = [(rows[0][0], rows[0][1] + 1)] + rows[1:]
        check(not answer_matches(columns, perturbed, grouped), "perturbed value")
        check(not answer_matches(columns, rows[1:], grouped), "missing row")
        check(not answer_matches(columns, rows + rows[:1], grouped), "extra row")
        renamed = [("elsewhere", rows[0][1])] + rows[1:]
        check(not answer_matches(columns, renamed, grouped), "perturbed key")

        base = "SELECT * FROM employment ORDER BY year DESC"
        top = oracle.gold(Gold(base + " LIMIT 3", key="year", unlimited_sql=base))
        names = top.columns
        tied = [row for row in top.pool if row[names.index("year")] == 2022]
        check(answer_matches(names, tied[-3:], top), "ties may come in any order")
        ranked = ("SELECT canton, SUM(employees) AS total FROM employment "
                  "GROUP BY canton ORDER BY total DESC")
        ordered = oracle.gold(Gold(ranked + " LIMIT 3", key="total",
                                   unlimited_sql=ranked))
        swapped = [ordered.rows[1], ordered.rows[0], ordered.rows[2]]
        check(not answer_matches(["canton", "total"], swapped, ordered), "order")
    finally:
        oracle.close()
    print("oracle comparison: ok")


def check_metrics() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", "0", "--seconds", "0.1",
                 "--trace", str(trace),
                 "--out", os.path.join(HERE, "out", "selftest")],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            check(out.returncode == 0, out.stderr)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  "result keys")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == wanted[trace], (workload, trace, got))
            check(all(isinstance(m["value"], (int, float))
                      for m in result["metrics"].values()), "numeric values")
            print(f"{workload} --trace {trace}: {len(got)} metrics with units: ok")


if __name__ == "__main__":
    check_oracle()
    check_metrics()
