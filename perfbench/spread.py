"""Run-to-run spread of the benchmark, as its acceptance rule computes it.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Runs the BENCHMARK.json command once per seed and workload, one process
at a time, and prints for each end-to-end metric the median and the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound.  The runs'
results, with each run's summary line and duration, are kept in
perfbench/out/spread-WORKLOAD.json.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            runs.append({**json.loads(lines[-1]), "summary": lines[-2],
                         "run_s": time.perf_counter() - start})
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        (out / f"spread-{workload}.json").write_text(json.dumps(runs, indent=1))
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"{workload}: {len(runs)} runs, correct={correct}, failed share {sorted(shares)}, "
              f"longest run {max(r['run_s'] for r in runs):.1f} s")
        ok &= correct and len(shares) == 1
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            flag = "" if metric["name"] == "setup_s" or spread <= metric["bound"] / 3 else "  <-- above bound/3"
            print(f"  {metric['name']:<15} median {q2:12.6g} {metric['unit']:<5} "
                  f"spread {spread:6.3f}  bound {metric['bound']}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
