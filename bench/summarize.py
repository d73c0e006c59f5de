"""Median, quartiles and spread of each metric over several runs of a workload.

    python3 bench/summarize.py cli_csv 1 2 3 4 5 6 7 8 9 10

Reads ``bench/out/<workload>-seed<n>-trace0.json`` as written by
``bench/run.py``, both the bounded metrics and the ones only shown, such as
``request_ms.p50``.  The spread is the distance between the first and third
quartile, as ``statistics.quantiles(values, n=4)`` gives them, over the median.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def load_runs(workload: str, seeds: list[int], trace: int = 0) -> list[dict]:
    return [json.loads((OUT / f"{workload}-seed{s}-trace{trace}.json").read_text())
            for s in seeds]


def values(run: dict) -> dict[str, float]:
    return {**{k: m["value"] for k, m in run["metrics"].items()}, **run.get("shown", {})}


def summarize(runs: list[dict]) -> dict[str, dict]:
    out = {}
    for name in values(runs[0]):
        series = [values(run)[name] for run in runs]
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0}
    return out


def main(argv: list[str]) -> int:
    workload, seeds = argv[0], [int(s) for s in argv[1:]]
    runs = load_runs(workload, seeds)
    for name, s in summarize(runs).items():
        print(f"{workload:14s} {name:16s} median {s['median']:<12.6g} "
              f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f}")
    failed = sum(run["failed"] for run in runs)
    attempted = sum(run["attempted"] for run in runs)
    print(f"{workload:14s} failed {failed} of {attempted} requests in {len(runs)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
