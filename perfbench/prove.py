"""Run the benchmark over several seeds and report its run-to-run spread.

    python3 perfbench/prove.py --seeds 1-10 [--workloads sweep_desk,...]
                               [--trace] [--out perfbench/BENCH_baseline.json]

Runs run.py once per workload and seed, one after another, with the run
length from BENCHMARK.json. For every end-to-end metric it prints the
median and the quartile distance as a share of the median, as
statistics.quantiles(values, n=4) gives them, against the metric's bound,
and the share of failed operations. ``--trace`` adds one traced run per
workload. ``--out`` writes the samples, medians and quartiles of every
metric with the environment as one JSON record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import ROOT, environment

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, trace: int, seconds: int) -> dict:
    """One run of the benchmark command; its result plus its wall time."""
    cmd = [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return dict(json.loads(proc.stdout.strip().splitlines()[-1]),
                wall_s=time.perf_counter() - start)


def spread(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / q2,
            "samples": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(x["name"] for x in BENCHMARK["workloads"]))
    ap.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    record = {"environment": environment(), "run_seconds": args.seconds, "seeds": seeds,
              "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, 0, args.seconds) for seed in seeds]
        entry = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "wall_s": [r["wall_s"] for r in runs],
            "metrics": {},
        }
        print(f"{workload}: correct {entry['correct']}, failed/attempted "
              f"{sum(entry['failed'])}/{sum(entry['attempted'])}, wall per run "
              f"{min(entry['wall_s']):.1f}-{max(entry['wall_s']):.1f} s")
        for name, bound in bounds.items():
            s = spread([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            entry["metrics"][name] = s
            ok = name == "setup_s" or s["iqr_share"] < bound / 3
            steady &= ok
            print(f"  {name:14s} median {s['median']:10.4f} {s['unit']:9s} "
                  f"IQR/median {s['iqr_share']:.4f} bound {bound} "
                  f"{'ok' if ok else 'WIDE'}")
        if args.trace:
            traced = run_once(workload, seeds[0], 1, args.seconds)
            entry["per_layer"] = traced["metrics"]
            entry["traced_wall_s"] = traced["wall_s"]
            for name, m in traced["metrics"].items():
                print(f"  {name:34s} {m['value']:12.4f} {m['unit']}")
        record["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
