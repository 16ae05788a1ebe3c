"""Self-test of the benchmark: quick runs of every workload, and proof that
the output checks reject broken outputs.

    python3 perfbench/selftest.py

1. Runs every workload in its reduced-size mode (``--quick``), untraced and
   traced, and requires correct outputs, no failed operation and every
   metric named in BENCHMARK.json.
2. Takes real outputs of a quick sweep_sparse run and a bound pass, breaks
   them one way at a time, and requires the checks to reject each: an RMSE
   doubled, a bound off by 1 %, one invalid trial, and two different CSVs
   from repeated calls.

Exits 0 when every case passes.
"""

from __future__ import annotations

import argparse
import copy
import csv
import io
import json
import sys
import time

import checks
import run
import workloads as w

SEED = 1
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
failures = []


def report(ok: bool, what: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def quick_args(workload: str, trace: int) -> argparse.Namespace:
    return argparse.Namespace(workload=workload, seed=SEED, seconds=1.0, trace=trace,
                              quick=True)


def quick_runs() -> None:
    for workload in w.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            record = run.run(quick_args(workload, trace))
            names = {m["name"] for m in BENCHMARK[key]}
            report(record["correct"] and record["failed"] == 0
                   and set(record["metrics"]) == names,
                   f"quick {workload} trace {trace}: correct {record['correct']}, "
                   f"failed {record['failed']}/{record['attempted']}, "
                   f"metrics match BENCHMARK.json {set(record['metrics']) == names}")
            for problem in record["problems"]:
                print(f"    {problem}")


def _edit_csv(text: str, row_idx: int, column: str, fn) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index(column)
    rows[row_idx + 1][col] = f"{fn(float(rows[row_idx + 1][col])):.12g}"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def rejections() -> None:
    args = quick_args("sweep_sparse", 0)
    deadline = time.perf_counter() + run.RUN_LIMIT_S
    result, _ = run.run_child("measure", args, run.child_env(), deadline)
    sweep_csv = result["outputs"]["sweep"][0]
    bounds = result["outputs"]["bounds"][0]
    moments = checks.ensemble_moments(SEED)
    trials = w.sweep_trials("sweep_sparse", quick=True)
    batch = w.arbitrary_batch(SEED, quick=True)

    def sweep_problems(text):
        return checks.check_sweep(text, "sweep_sparse", trials, moments)

    report(not sweep_problems(sweep_csv), "unaltered sweep_sparse CSV passes")
    report(not checks.check_bound_pass(bounds, batch, moments), "unaltered bound pass passes")
    n_rows = len(w.SWEEPS["sweep_sparse"]["snr_db"])
    for row in range(n_rows):
        for column in ("rmse_range_m", "rmse_vel_ms"):
            report(bool(sweep_problems(_edit_csv(sweep_csv, row, column, lambda v: 2 * v))),
                   f"row {row}: doubled {column} rejected")
        for column in ("sqrt_crb_ran_m", "ecrb_vel_ms"):
            report(bool(sweep_problems(_edit_csv(sweep_csv, row, column, lambda v: 1.01 * v))),
                   f"row {row}: {column} off by 1 % rejected")
        one_invalid = _edit_csv(sweep_csv, row, "valid_trial_fraction",
                                lambda v: (trials - 1) / trials)
        report(bool(sweep_problems(one_invalid)), f"row {row}: one invalid trial rejected")

    for where, path in (("table sqrt_crb_ran_m", ("table", 0, 3)),
                        ("table ecrb_vel_ms", ("table", 1, 4)),
                        ("rate", ("rates", 1, 1)),
                        ("arbitrary crb_ran_m2", ("arbitrary", 0, 0)),
                        ("arbitrary crb_vel_ms2", ("arbitrary", 5, 1))):
        broken = copy.deepcopy(bounds)
        key, i, j = path
        broken[key][i][j] *= 1.01
        report(bool(checks.check_bound_pass(broken, batch, moments)),
               f"{where} off by 1 % rejected")

    twice = copy.deepcopy(result)
    twice["outputs"]["sweep"].append(_edit_csv(sweep_csv, 0, "rmse_range_m",
                                               lambda v: v * (1 + 1e-9)))
    twice["ops"].append({"kind": "sweep", "seconds": 1.0, "trials": 0, "output": 1})
    problems, failed = run.check_outputs(args, twice)
    report(bool(problems) and len(failed) == sum(op["kind"] == "sweep" for op in twice["ops"]),
           "CSV differing between repeated calls rejected, every sweep call failed")


def main() -> int:
    quick_runs()
    rejections()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
