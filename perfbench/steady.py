#!/usr/bin/env python3
"""Steadiness check: run the benchmark once per seed and print, for every
metric, the median and the quartile spread (Q3 - Q1) / median over the runs,
as statistics.quantiles(values, n=4) gives them. Compare each spread with the
metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload gzip-plain --seeds 1-10 [--seconds 20] [--trace 0]
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import analysis  # noqa: E402


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    benchmark = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or benchmark["run_seconds"]
    bounds = {metric["name"]: metric.get("bound") for metric in benchmark["end_to_end"]}
    values = {}
    for seed in parse_seeds(args.seeds):
        result = subprocess.run([sys.executable, str(Path(__file__).resolve().parent / "run.py"),
                                 "--workload", args.workload, "--seed", str(seed), "--seconds", str(seconds),
                                 "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        last = json.loads(result.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {result.returncode}, correct {last['correct']}, "
              f"{last['attempted']} attempted, {last['failed']} failed", flush=True)
        for name, metric in last["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        median = analysis.median(series)
        spread = analysis.quartile_spread(series) if len(series) >= 2 else float("nan")
        bound = bounds.get(name)
        verdict = "" if bound is None else ("  ok" if spread <= bound else "  OVER BOUND")
        print(f"{name:32s} median {median:.6g}  spread {spread:.3f}"
              f"{'' if bound is None else f' (bound {bound})'}{verdict}")


if __name__ == "__main__":
    main()
