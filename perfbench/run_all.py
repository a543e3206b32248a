#!/usr/bin/env python3
"""Run every workload, untraced and traced, each in its own fresh process.

Usage (from the repository root):

    python3 perfbench/run_all.py --seed 1 --seconds 10

Runs BENCHMARK.json's workloads and simulate-quartic.  Prints every
end-to-end metric per workload, then every per-layer metric
from the traced run, each with its unit and sample count, followed by the
layer -> end-to-end predictions from predictions.json.  Exits 1 if any run
fails or reports incorrect output.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Generated and checked like the others but left out of BENCHMARK.json: four
# workloads at its run length do not fit the time allowed for all its runs.
EXTRA_WORKLOADS = ["simulate-quartic"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args()
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]] + EXTRA_WORKLOADS
    ok = True
    for trace in (0, 1):
        for workload in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, check=False)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or result is None or not result["correct"]:
                ok = False
                print(f"{workload} trace={trace}: exit {proc.returncode}, result {result}")
                print(proc.stderr.strip()[-2000:], file=sys.stderr)
    print("\nlayer -> end-to-end predictions (predictions.json):")
    for row in json.loads((HERE / "predictions.json").read_text())["predictions"]:
        print(f"  {', '.join(row['layer_metrics'])} -> {row['moves']} on {row['workload']}; "
              f"no change on {', '.join(row['no_change_on']) or '-'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
