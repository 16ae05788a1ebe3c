"""bisac benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep_desk --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; bisac is imported from its src/ in fresh
interpreters (child.py), with single-threaded BLAS. ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced
replay. ``--quick`` shrinks every workload for a fast smoke run. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A record of the run (environment, every sample, median and quartiles)
goes to perfbench/runs/. See README.md for workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import reference
import workloads as w
from child import STDERR_BEGIN, STDERR_END

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

SETUP_PROBES = 7
RUN_LIMIT_S = 170.0  # a run must end within 180 s
BLAS_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END_UNITS = {
    "trials_per_s": "trials/s",
    "tables_per_s": "passes/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "sim.sample_scenario_us": "us",
    "sim.generate_frame_us": "us",
    "sim.apply_channel_us": "us",
    "sim.alloc_peak_kb": "KiB",
    "estimator.estimate_ms": "ms",
    "estimator.alloc_peak_mb": "MiB",
    "estimator.ls_channel_estimate_us": "us",
    "estimator.periodogram_2d_ms": "ms",
    "estimator.peak_search_ms": "ms",
    "estimator.refine_peak_us": "us",
    "geometry.invert_us": "us",
    "pilots.pattern_build_us": "us",
    "pilots.pattern_stats_us": "us",
    "bounds.crb_us": "us",
    "bounds.crb_arbitrary_us": "us",
    "bounds.ecrb_vel_ms": "ms",
    "harness.trial_chain_ms": "ms",
    "harness.bound_columns_ms": "ms",
    "harness.parallel_efficiency": "ratio",
    "harness.stderr_lines": "count",
    "trace.overhead_pct": "%",
}


class BenchError(RuntimeError):
    """The run cannot produce a result; run.py exits non-zero."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(BLAS_THREADS)
    return env


def probe_setup(args, env: dict, deadline: float) -> float:
    """Seconds from process start to bisac imported and the config built."""
    cmd = [sys.executable, str(HERE / "child.py"), "setup", args.workload,
           str(args.seed), "0", "1" if args.quick else "0"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed (exit {proc.returncode}):\n{err[-4000:]}")
    return elapsed


def run_child(mode: str, args, env: dict, deadline: float) -> tuple:
    cmd = [sys.executable, str(HERE / "child.py"), mode, args.workload, str(args.seed),
           str(args.seconds), "1" if args.quick else "0"]
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{mode} run exceeded {RUN_LIMIT_S:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} run failed (exit {proc.returncode}):\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1]), err


def check_outputs(args, result: dict) -> tuple:
    """Run the independent checks; returns (problems, indices of failed ops)."""
    moments = checks.ensemble_moments(args.seed)
    sweep_name = w.trial_replay_sweep(args.workload)
    if args.workload in w.SWEEPS:
        trials = w.sweep_trials(args.workload, args.quick)
    else:
        trials = w.COMPANION_TRIALS
    batch = w.arbitrary_batch(args.seed, args.quick)
    problems, bad = [], {}
    for kind, outputs in result["outputs"].items():
        bad[kind] = set()
        if len(outputs) > 1:
            problems.append(f"{kind}: {len(outputs)} different outputs from repeated calls "
                            f"with the same inputs")
            bad[kind] = set(range(len(outputs)))
        for idx, out in enumerate(outputs):
            if kind == "sweep":
                found = checks.check_sweep(out, sweep_name, trials, moments)
            else:
                found = checks.check_bound_pass(out, batch, moments)
            if found:
                bad[kind].add(idx)
                problems += found
    failed_ops = {i for i, op in enumerate(result["ops"])
                  if op["output"] is None or op["output"] in bad[op["kind"]]}
    if result.get("replay_mismatches"):
        problems.append(f"{result['replay_mismatches']} replayed trials differ from "
                        f"estimate's own result or peak bins")
    return problems, failed_ops


def summarize(samples: list) -> dict:
    if not samples:
        raise BenchError("no successful sample for a metric")
    q1, q2, q3 = (statistics.quantiles(samples, n=4) if len(samples) > 1
                  else samples * 3)
    return {"median": statistics.median(samples), "q1": q1, "q3": q3, "n": len(samples),
            "samples": samples}


def end_to_end(result: dict, failed: set, setup: dict) -> dict:
    """Samples of every end-to-end metric, raw and as reported.

    Each operation's throughput and each set-up time is scaled by the
    reference-kernel time measured just before and just after it, over
    reference.NOMINAL_S (see reference.py); the reported value is the
    median of the scaled samples.
    """
    ref = result["reference_s"]
    raw = {"trials_per_s": [], "tables_per_s": []}
    scaled = {"trials_per_s": [], "tables_per_s": []}
    for i, op in enumerate(result["ops"]):
        if i in failed:
            continue
        name = "trials_per_s" if op["kind"] == "sweep" else "tables_per_s"
        rate = (op["trials"] if op["kind"] == "sweep" else 1) / op["seconds"]
        raw[name].append(rate)
        scaled[name].append(rate * (ref[i] + ref[i + 1]) / (2 * reference.NOMINAL_S))
    setup_ref = setup["reference_s"]
    raw["setup_s"] = setup["seconds"]
    scaled["setup_s"] = [t * 2 * reference.NOMINAL_S / (setup_ref[i] + setup_ref[i + 1])
                         for i, t in enumerate(setup["seconds"])]
    rusage = result["rusage"]
    raw["peak_rss_mb"] = scaled["peak_rss_mb"] = [
        max(rusage["self_kib"], rusage["children_kib"]) / 1024]
    return {
        "raw": {name: summarize(v) for name, v in raw.items()},
        "scaled": {name: summarize(v) for name, v in scaled.items()},
        "reference_s": summarize(ref),
        "setup_reference_s": summarize(setup_ref),
    }


def count_sweep_stderr_lines(err: str) -> int:
    lines = err.splitlines()
    try:
        return lines.index(STDERR_END) - lines.index(STDERR_BEGIN) - 1
    except ValueError:
        raise BenchError("stderr markers of the traced sweep are missing") from None


def git_sha() -> str:
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=w.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="reduced-size workload for smoke runs and the self-test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def run(args) -> dict:
    """One benchmark run; returns the record written to perfbench/runs/."""
    if not (SRC / "bisac" / "__init__.py").is_file():
        raise BenchError(f"no bisac package under {SRC}; run from a checkout of the repo")
    deadline = time.perf_counter() + RUN_LIMIT_S
    env = child_env()
    setup = {"seconds": [], "reference_s": []}
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setup["reference_s"].append(reference.all_cores_mean())
            setup["seconds"].append(probe_setup(args, env, deadline))
        setup["reference_s"].append(reference.all_cores_mean())
    result, err = run_child("trace" if args.trace else "measure", args, env, deadline)
    problems, failed = check_outputs(args, result)
    attempted = len(result["ops"]) + result.get("replayed_trials", 0)
    n_failed = len(failed) + result.get("replay_mismatches", 0)
    if args.trace:
        values = dict(result["metrics"], **{
            "harness.stderr_lines": count_sweep_stderr_lines(err)})
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
        summary = None
    else:
        summary = end_to_end(result, failed, setup)
        metrics = {name: {"value": summary["scaled"][name]["median"], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "environment": dict(environment(), program=result["versions"]),
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": metrics,
        "samples": summary,
        "ops": result["ops"],
        "stderr": {"lines": len(err.splitlines()), "bytes": len(err)},
        "spans": result.get("spans"),
    }


def write_record(record: dict) -> Path:
    RUNS.mkdir(exist_ok=True)
    name = f"BENCH_{record['workload']}_seed{record['seed']}_trace{record['trace']}"
    path = RUNS / (name + ("_quick" if record["quick"] else "") + ".json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        record = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    path = write_record(record)
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}")
    for name, m in record["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted {record['attempted']} failed {record['failed']} "
          f"correct {record['correct']} record {path.relative_to(ROOT)}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
