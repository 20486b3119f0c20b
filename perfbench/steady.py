"""Steadiness of the end-to-end metrics over several runs of one workload.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--first-seed 1] [--seconds 20]

Runs ``run.py`` once per seed, one run at a time, and prints for every
end-to-end metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread (Q3 - Q1) / median and,
when ``BENCHMARK.json`` sits beside this directory, the metric's bound.
It also prints the share of failed operations of every run, which has to be
the same in each.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else {}
    seconds = args.seconds if args.seconds is not None else spec.get("run_seconds", 20)
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}

    values: dict = {}
    shares = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.append(res["failed"] / res["attempted"])
        line = [f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}"]
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.4g}")
        print(" ".join(line), flush=True)
    print(f"failed share per run: {sorted(set(shares))}")
    print(f"{'metric':16s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        bound = bounds.get(name)
        print(
            f"{name:16s} {med:10.4g} {q1:10.4g} {q3:10.4g} {(q3 - q1) / med:8.3f} "
            + (f"{bound:6.2f}" if bound is not None else "     -")
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
