"""Before/after table from two benchmark result files.

    python3 bench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds the records ``bench/run.py`` appends, one untraced run per
line. Runs of the same workload and seed on the two sides form a pair. For
every workload and end-to-end metric of ``BENCHMARK.json`` it prints each
side's median and quartiles, the share of pairs the after side wins (ties
count for neither) and a verdict:

- better: at least ten pairs, the after side wins at least nine tenths of
  them, the medians differ by more than the before side's quartile
  distance, and no more ops failed than before;
- unresolved: the after side looks better by more than the before side's
  quartile distance but on fewer than ten pairs; or the before side's
  quartile distance, as a share of its median, is wider than the metric's
  bound, and not every after run beats every before run;
- worse: the after median is worse than the before median by more than
  the bound, as a share of the before median;
- within: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        if not record["traced"]:
            runs[record["workload"]].append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(before: list[dict], after: list[dict], name: str) -> list[tuple[float, float]]:
    """(before, after) values of runs with the same seed, in run order."""
    by_seed: dict[int, list[float]] = defaultdict(list)
    for record in before:
        by_seed[record["seed"]].append(record["metrics"][name]["value"])
    out = []
    for record in after:
        if by_seed[record["seed"]]:
            out.append((by_seed[record["seed"]].pop(0), record["metrics"][name]["value"]))
    return out


def verdict(metric: dict, before: list[float], after: list[float], paired, more_failed: bool) -> tuple[float, str]:
    sign = 1 if metric["better"] == "higher" else -1
    b_q1, b_med, b_q3 = quartiles(before)
    a_med = statistics.median(after)
    gain = sign * (a_med - b_med) / b_med
    wins = sum(1 for b, a in paired if sign * (a - b) > 0)
    share = wins / len(paired) if paired else 0.0
    clear_gain = gain > 0 and abs(a_med - b_med) > b_q3 - b_q1
    if clear_gain and share >= WIN_SHARE and not more_failed:
        return share, "better" if len(paired) >= MIN_PAIRS else "unresolved"
    every_run_better = all(sign * (a - b) > 0 for a in after for b in before)
    if (b_q3 - b_q1) / b_med > metric["bound"] and not every_run_better:
        return share, "unresolved"
    if -gain > metric["bound"]:
        return share, "worse"
    return share, "within"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="compare two benchmark result files")
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    before, after = load(args.before), load(args.after)

    header = ("workload", "metric", "unit", "before p50 [q1, q3]", "after p50 [q1, q3]",
              "change", "pairs", "wins", "verdict")
    rows = [header]
    for workload in sorted(set(before) & set(after)):
        more_failed = sum(r["failed"] for r in after[workload]) > sum(r["failed"] for r in before[workload])
        for metric in metrics:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in before[workload]]
            a = [r["metrics"][name]["value"] for r in after[workload]]
            paired = pairs(before[workload], after[workload], name)
            share, word = verdict(metric, b, a, paired, more_failed)
            bq, aq = quartiles(b), quartiles(a)
            rows.append((
                workload, name, metric["unit"],
                f"{bq[1]:.4g} [{bq[0]:.4g}, {bq[2]:.4g}] n={len(b)}",
                f"{aq[1]:.4g} [{aq[0]:.4g}, {aq[2]:.4g}] n={len(a)}",
                f"{(aq[1] - bq[1]) / bq[1]:+.1%}", str(len(paired)), f"{share:.0%}", word,
            ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    for workload in sorted(set(before) ^ set(after)):
        print(f"{workload}: runs on one side only, not compared")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
