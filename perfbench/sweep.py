"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --workload ensemble --seeds 1 2 3 4 5 --seconds 20

For every end-to-end metric it prints the median of the runs and the
interquartile distance as a share of the median (quartiles as
``statistics.quantiles(values, n=4)`` gives them), which is how a
benchmark's steadiness is judged against the bounds in BENCHMARK.json.
With ``--out`` the values and summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=BENCH_DIR.parent, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": None, "q3": None, "spread": None}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    summary = {}
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            start = time.monotonic()
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} in {time.monotonic() - start:.1f} s", flush=True)
        values = {m: [r["metrics"][m]["value"] for r in runs] for m in runs[0]["metrics"]}
        summary[workload] = {
            "seeds": args.seeds,
            "correct": all(r["correct"] for r in runs),
            "metrics": {m: {"values": v, **spread(v)} for m, v in values.items()},
        }
        for metric, stats in summary[workload]["metrics"].items():
            share = stats["spread"]
            print(f"  {metric:<44} median {stats['median']:12.6g}  "
                  f"spread {share if share is None else round(share, 4)}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
