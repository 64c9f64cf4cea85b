"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload overlap-tails --seeds 1-10 [--trace 0]

Runs ``perfbench/run.py`` once per seed, one after another, with the run
length from BENCHMARK.json, and prints per metric the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the quartile
distance as a share of the median, next to the metric's bound.  Each run's
result line is appended to perfbench/_out/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    log = BENCH_DIR / "_out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    results = []
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        with log.open("a") as fh:
            fh.write(json.dumps(dict(result, seed=seed)) + "\n")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                         if args.trace == 0), flush=True)
        notes = [ln for ln in proc.stderr.splitlines() if ln.startswith("perfbench:")]
        if notes:
            print("    " + notes[-1], flush=True)

    print(f"{'metric':32s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'iqr/med':>8s} bound")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:32s} {med:11.5g} {q1:11.5g} {q3:11.5g} {share:8.4f} {bounds.get(name)}")
    failed = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(failed)}; all correct: "
          f"{all(r['correct'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
