#!/usr/bin/env python3
"""Do two sets of runs of the same code agree?

    python3 benchmark/steady.py

First every workload of BENCHMARK.json is run once, briefly, with a
seed that neither set uses (the checks of a seed other than the
default).  Then, for each workload, set A runs seeds 1..10 and set B
seeds 11..20, one run after the other, each in its own process, with
BENCHMARK.json's ``run_seconds``.  For every end-to-end metric the
command prints both medians, each set's quartile spread (the distance
between the first and third quartile over the median) and whether the
sets agree: the two medians differ by at most the metric's bound, in
either direction, and both spreads are within the bound.  The share of
failed operations must be the same in both sets.  Exits 1 when
anything disagrees; the table is also written to benchmark/out/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHECK_SEED = 9973
CHECK_SECONDS = 1
RUNS = 10           # runs per set


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(metric: dict, a: list, b: list) -> dict:
    ma, mb = statistics.median(a), statistics.median(b)
    change = (mb - ma) / ma
    sa, sb = spread(a), spread(b)
    bound = metric["bound"]
    ok = abs(change) <= bound and sa <= bound and sb <= bound
    return {"median_a": ma, "median_b": mb, "change": change,
            "spread_a": sa, "spread_b": sb, "bound": bound, "agree": ok}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]

    all_ok = True
    for workload in workloads:
        res = run_once(workload, CHECK_SEED, CHECK_SECONDS)
        print(f"check {workload} seed {CHECK_SEED}: correct={res['correct']} "
              f"failed {res['failed']}/{res['attempted']}", flush=True)
        all_ok = all_ok and res["correct"]

    table = {}
    for workload in workloads:
        sets = []
        for first in (1, RUNS + 1):
            sets.append([run_once(workload, seed, bench["run_seconds"])
                         for seed in range(first, first + RUNS)])
        shares = [{r["failed"] / r["attempted"] for r in runs} for runs in sets]
        same_share = len(shares[0] | shares[1]) == 1
        correct = all(r["correct"] for runs in sets for r in runs)
        rows = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            rows[name] = compare(metric,
                                 [r["metrics"][name]["value"] for r in sets[0]],
                                 [r["metrics"][name]["value"] for r in sets[1]])
        table[workload] = {"correct": correct, "same_failed_share": same_share,
                           "failed_shares": sorted(shares[0] | shares[1]),
                           "metrics": rows,
                           "runs": [[{k: v["value"] for k, v in r["metrics"].items()}
                                     for r in runs] for runs in sets]}
        all_ok = all_ok and correct and same_share and all(
            row["agree"] for row in rows.values())
        print(f"\n{workload}: correct={correct} same failed share={same_share} "
              f"{sorted(shares[0] | shares[1])}")
        print(f"  {'metric':<15}{'median A':>12}{'median B':>12}{'change':>9}"
              f"{'spread A':>10}{'spread B':>10}{'bound':>7}  agree")
        for name, row in rows.items():
            print(f"  {name:<15}{row['median_a']:>12.5g}{row['median_b']:>12.5g}"
                  f"{row['change']:>+9.3f}{row['spread_a']:>10.3f}"
                  f"{row['spread_b']:>10.3f}{row['bound']:>7.2f}  "
                  f"{'yes' if row['agree'] else 'NO'}", flush=True)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(table, indent=1), encoding="utf-8")
    print("\nagree" if all_ok else "\nDISAGREE")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
