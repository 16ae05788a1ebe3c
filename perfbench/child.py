"""One benchmark process, started by run.py in a fresh interpreter.

    python3 child.py setup|measure|trace WORKLOAD SEED SECONDS QUICK

``setup`` imports bisac, builds the workload's config and prints ``ready``.
``measure`` runs whole rounds of the workload's operations untraced until
SECONDS have passed and prints one JSON object with every operation's
time and distinct output plus the resident-memory high-water marks.
``trace`` replays a sample of trials serially with spans around each call
into the program, times one bound pass the same way, and prints the
per-layer figures, the spans and the outputs.

bisac comes from PYTHONPATH, which run.py points at the checkout's src/.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import resource
import statistics
import sys
import time
import traceback
import tracemalloc

import numpy as np

import workloads as w

# Markers around the untraced sweep of a traced run, so run.py can count
# the lines the program writes to stderr during one run_sweep call.
STDERR_BEGIN = "--- perfbench sweep begin ---"
STDERR_END = "--- perfbench sweep end ---"

BOUND_PASSES_PER_SWEEP = 4  # companion passes per sweep round (tables_per_s)
BOUND_PASSES_PER_ROUND = 5  # bounds_table: passes per companion sweep
TRACED_BOUND_PASSES = 3
ALLOC_TRIALS = 2
MIN_REPLAYED_TRIALS = 3

# Seed layout of harness._run_trial and the ECRB stream of run_sweep and
# run_table1. The traced replay must follow them to replay the same trials.
_TRIAL_STREAM = 0
_ECRB_STREAM = 1


def import_bisac(src_dir: str):
    import bisac

    if not bisac.__file__.startswith(src_dir):
        raise SystemExit(f"bisac imported from {bisac.__file__}, not from {src_dir}")
    return bisac


class Inputs:
    """Everything one workload hands to the program, built before timing."""

    def __init__(self, b, workload: str, seed: int, quick: bool):
        self.workload = workload
        if workload in w.SWEEPS:
            self.sweep = w.sweep_config(b, workload, seed, w.sweep_trials(workload, quick))
        else:
            self.sweep = w.sweep_config(b, w.COMPANION_SWEEP, seed, w.COMPANION_TRIALS,
                                        workers=1)
        self.table = w.table_config(b, seed)
        self.batch_numerology = b.OfdmNumerology(**w.BATCH_NUMEROLOGY)
        self.batch = None  # drawn by main after the set-up point


class Recorder:
    """Operation log: kind, wall seconds, trials, index of a distinct output."""

    def __init__(self):
        self.ops = []
        self.outputs = {"sweep": [], "bounds": []}

    def run(self, kind: str, fn, trials: int = 0):
        start = time.perf_counter()
        try:
            out = fn()
        except Exception:  # an operation that raises is counted, not fatal
            traceback.print_exc()
            self.ops.append({"kind": kind, "seconds": time.perf_counter() - start,
                             "trials": trials, "output": None})
            return None
        seconds = time.perf_counter() - start
        seen = self.outputs[kind]
        if out not in seen:
            seen.append(out)
        self.ops.append({"kind": kind, "seconds": seconds, "trials": trials,
                         "output": seen.index(out)})
        return out


def _sweep_op(b, config):
    return lambda: b.run_sweep(config).to_csv()


def _bound_op(b, inputs):
    return lambda: w.bound_pass(b, inputs.table, inputs.batch_numerology, inputs.batch)


def _warm_up(b, inputs) -> None:
    """One serial trial per SNR point and one bound pass, untimed and unchecked."""
    b.run_sweep(dataclasses.replace(inputs.sweep, trials_per_point=1, workers=1))
    w.bound_pass(b, inputs.table, inputs.batch_numerology, inputs.batch)


def _rusage_kib() -> dict:
    return {
        "self_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_kib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }


def measure(b, inputs, seconds: float) -> dict:
    """Whole rounds until ``seconds`` have passed; the reference kernel
    runs before every operation and once after the last."""
    import reference  # not at module level: set-up probes must not pay for it

    rec = Recorder()
    ref = []
    trials = len(inputs.sweep.snr_grid_db) * inputs.sweep.trials_per_point
    if inputs.workload in w.SWEEPS:
        round_ops = [("sweep", _sweep_op(b, inputs.sweep), trials)]
        round_ops += [("bounds", _bound_op(b, inputs), 0)] * BOUND_PASSES_PER_SWEEP
    else:
        round_ops = [("bounds", _bound_op(b, inputs), 0)] * BOUND_PASSES_PER_ROUND
        round_ops += [("sweep", _sweep_op(b, inputs.sweep), trials)]
    start = time.perf_counter()
    while True:
        for kind, fn, n in round_ops:
            ref.append(reference.all_cores_mean())
            rec.run(kind, fn, n)
        if time.perf_counter() - start >= seconds:
            break
    ref.append(reference.all_cores_mean())
    return {"ops": rec.ops, "outputs": rec.outputs, "rusage": _rusage_kib(),
            "reference_s": ref}


# -- traced run -----------------------------------------------------------------


class Tracer:
    """Spans kept in memory: name, start, end (perf_counter s), parent id."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        if attrs:
            rec["attrs"] = attrs
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]


def _trial_rng(config, snr_idx: int, trial_idx: int):
    return np.random.default_rng(
        np.random.SeedSequence([config.seed, _TRIAL_STREAM, snr_idx, trial_idx]))


def plain_chain(b, config, snr_idx: int, trial_idx: int):
    """harness._run_trial's chain without spans: the untraced reference."""
    rng = _trial_rng(config, snr_idx, trial_idx)
    scenario, truth = b.sample_scenario(config.ensemble, rng)
    params = b.SensingChannelParams.from_snr_db(
        config.snr_grid_db[snr_idx], tau=truth.tau, f_d=truth.f_d)
    frame = b.generate_frame(config.numerology, config.pattern, rng)
    received = b.apply_channel(frame, params, config.numerology, rng)
    return b.estimate(received, frame, config.pattern, config.numerology, config.fft,
                      baseline=scenario.baseline, theta=truth.theta)


def traced_chain(b, tr: Tracer, config, snr_idx: int, trial_idx: int) -> tuple:
    """The same chain with a span per call, then the estimator's breakdown.

    Returns the estimate, the peak bins the breakdown found and the
    duration of the chain's span.
    """
    with tr.span("trial", snr_idx=snr_idx, trial_idx=trial_idx) as trial:
        rng = _trial_rng(config, snr_idx, trial_idx)
        with tr.span("sim.sample_scenario"):
            scenario, truth = b.sample_scenario(config.ensemble, rng)
        params = b.SensingChannelParams.from_snr_db(
            config.snr_grid_db[snr_idx], tau=truth.tau, f_d=truth.f_d)
        with tr.span("sim.generate_frame"):
            frame = b.generate_frame(config.numerology, config.pattern, rng)
        with tr.span("sim.apply_channel"):
            received = b.apply_channel(frame, params, config.numerology, rng)
        with tr.span("estimator.estimate"):
            result = b.estimate(received, frame, config.pattern, config.numerology,
                                config.fft, baseline=scenario.baseline, theta=truth.theta)
    with tr.span("breakdown", snr_idx=snr_idx, trial_idx=trial_idx):
        with tr.span("estimator.ls_channel_estimate"):
            grid = b.ls_channel_estimate(received, frame, config.pattern)
        with tr.span("estimator.periodogram_2d"):
            surface = b.periodogram_2d(grid, config.fft)
        with tr.span("estimator.peak_search"):
            bins = np.unravel_index(int(np.argmax(surface)), surface.shape)
            bins = (int(bins[0]), int(bins[1]))
        with tr.span("estimator.refine_peak"):
            b.refine_peak(surface, bins)
        del surface
        with tr.span("geometry.invert"):
            b.invert_bistatic_range(result.d_bis_hat, scenario.baseline, truth.theta)
            b.beta_from_estimates(result.d_bis_hat, scenario.baseline, truth.theta)
    return result, bins, trial["end"] - trial["start"]


def traced_bound_columns(b, tr: Tracer, config) -> None:
    """crb and ecrb_vel per SNR point, as run_sweep computes its bound columns."""
    with tr.span("harness.bound_columns"):
        for snr_db in config.snr_grid_db:
            params = b.SensingChannelParams.from_snr_db(snr_db)
            with tr.span("bounds.crb"):
                b.crb(params, config.pattern, config.numerology, beta=0.0)
            with tr.span("bounds.ecrb_vel"):
                b.ecrb_vel(config.ensemble, params, config.pattern, config.numerology,
                           draws=config.ecrb_draws,
                           seed=np.random.SeedSequence([config.seed, _ECRB_STREAM]))


def traced_bound_pass(b, tr: Tracer, inputs) -> dict:
    """w.bound_pass with run_table1 and run_rate_table unrolled into spans."""
    config = inputs.table
    num = config.numerology
    with tr.span("bound_pass"):
        params = b.SensingChannelParams.from_snr_db(w.TABLE_SNR_DB)
        table = []
        for n_p, m_p in w.TABLE_PAIRS:
            with tr.span("pilots.pattern_build"):
                pattern = b.make_periodic(num.n_subcarriers, num.n_symbols, n_p, m_p)
            with tr.span("bounds.crb"):
                report = b.crb(params, pattern, num, beta=0.0)
            with tr.span("bounds.ecrb_vel"):
                ecrb = b.ecrb_vel(config.ensemble, params, pattern, num, draws=w.TABLE_DRAWS,
                                  seed=np.random.SeedSequence([config.seed, _ECRB_STREAM]))
            table.append([n_p, m_p, pattern.size, report.rmse_bound_ran_m, ecrb.value_ms])
        rates = [[rho, b.rate_upper_bound(num, rho, w.RATE_SNR_DB)] for rho in w.RATE_RHOS]
        arbitrary = []
        for cells, snr_db in inputs.batch:
            with tr.span("pilots.pattern_build"):
                pattern = b.PilotPattern(n_grid=w.BATCH_GRID, m_grid=w.BATCH_GRID, cells=cells)
            with tr.span("pilots.pattern_stats"):
                b.pattern_stats(pattern)
            with tr.span("bounds.crb_arbitrary"):
                report = b.crb(b.SensingChannelParams.from_snr_db(snr_db), pattern,
                               inputs.batch_numerology, beta=0.0)
            arbitrary.append([report.crb_ran_m2, report.crb_vel_ms2])
    return {"table": table, "rates": rates, "arbitrary": arbitrary}


def allocation_peaks(b, config, trials: int) -> tuple:
    """tracemalloc peaks (bytes) over frame plus channel, and inside estimate."""
    sim_peak = est_peak = 0
    tracemalloc.start()
    try:
        for trial_idx in range(trials):
            rng = _trial_rng(config, 0, trial_idx)
            scenario, truth = b.sample_scenario(config.ensemble, rng)
            params = b.SensingChannelParams.from_snr_db(
                config.snr_grid_db[0], tau=truth.tau, f_d=truth.f_d)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            frame = b.generate_frame(config.numerology, config.pattern, rng)
            received = b.apply_channel(frame, params, config.numerology, rng)
            sim_peak = max(sim_peak, tracemalloc.get_traced_memory()[1] - base)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            b.estimate(received, frame, config.pattern, config.numerology, config.fft,
                       baseline=scenario.baseline, theta=truth.theta)
            est_peak = max(est_peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return sim_peak, est_peak


def trace(b, inputs, seconds: float, quick: bool) -> dict:
    start = time.perf_counter()
    rec = Recorder()
    tr = Tracer()
    config = inputs.sweep
    n_snr = len(config.snr_grid_db)
    total_trials = n_snr * config.trials_per_point

    print(STDERR_BEGIN, file=sys.stderr, flush=True)
    rec.run("sweep", _sweep_op(b, config), total_trials)
    print(STDERR_END, file=sys.stderr, flush=True)
    sweep_wall = rec.ops[-1]["seconds"]

    traced_bound_columns(b, tr, config)
    for _ in range(TRACED_BOUND_PASSES):
        rec.run("bounds", lambda: traced_bound_pass(b, tr, inputs))
    sim_peak, est_peak = allocation_peaks(b, config, ALLOC_TRIALS)

    # Replay trials in sweep order, each once plain and once traced; the
    # order of the two alternates so neither always runs on a warm cache.
    plain_s = traced_s = 0.0
    mismatches = 0
    k = 0
    while k < MIN_REPLAYED_TRIALS or (not quick and time.perf_counter() - start < seconds):
        snr_idx, trial_idx = k % n_snr, k // n_snr
        for traced in ((True, False) if k % 2 else (False, True)):
            if traced:
                result, bins, seconds_traced = traced_chain(b, tr, config, snr_idx, trial_idx)
                traced_s += seconds_traced
            else:
                t0 = time.perf_counter()
                plain = plain_chain(b, config, snr_idx, trial_idx)
                plain_s += time.perf_counter() - t0
        mismatches += int(plain != result or tuple(result.peak_bins) != bins)
        k += 1

    chain = tr.durations("trial")
    median = statistics.median

    def mean(name):
        return statistics.fmean(tr.durations(name))

    def med(name):
        return median(tr.durations(name))

    metrics = {
        "sim.sample_scenario_us": med("sim.sample_scenario") * 1e6,
        "sim.generate_frame_us": med("sim.generate_frame") * 1e6,
        "sim.apply_channel_us": med("sim.apply_channel") * 1e6,
        "sim.alloc_peak_kb": sim_peak / 1024,
        "estimator.estimate_ms": med("estimator.estimate") * 1e3,
        "estimator.alloc_peak_mb": est_peak / 2**20,
        "estimator.ls_channel_estimate_us": med("estimator.ls_channel_estimate") * 1e6,
        "estimator.periodogram_2d_ms": med("estimator.periodogram_2d") * 1e3,
        "estimator.peak_search_ms": med("estimator.peak_search") * 1e3,
        "estimator.refine_peak_us": med("estimator.refine_peak") * 1e6,
        "geometry.invert_us": med("geometry.invert") * 1e6,
        "pilots.pattern_build_us": mean("pilots.pattern_build") * 1e6,
        "pilots.pattern_stats_us": mean("pilots.pattern_stats") * 1e6,
        "bounds.crb_us": mean("bounds.crb") * 1e6,
        "bounds.crb_arbitrary_us": mean("bounds.crb_arbitrary") * 1e6,
        "bounds.ecrb_vel_ms": mean("bounds.ecrb_vel") * 1e3,
        "harness.trial_chain_ms": median(chain) * 1e3,
        "harness.bound_columns_ms": med("harness.bound_columns") * 1e3,
        "harness.parallel_efficiency":
            statistics.fmean(chain) * total_trials / (config.workers * sweep_wall),
        "trace.overhead_pct": 100.0 * (traced_s - plain_s) / plain_s,
    }
    return {"ops": rec.ops, "outputs": rec.outputs, "rusage": _rusage_kib(),
            "metrics": metrics, "replayed_trials": k, "replay_mismatches": mismatches,
            "spans": tr.spans}


def main(argv: list) -> int:
    mode, workload, seed, seconds, quick = argv
    seed, seconds, quick = int(seed), float(seconds), quick == "1"
    src_dir = os.environ["PYTHONPATH"].split(os.pathsep)[0]
    b = import_bisac(src_dir)
    inputs = Inputs(b, workload, seed, quick)
    if mode == "setup":
        print("ready", flush=True)
        return 0
    inputs.batch = w.arbitrary_batch(seed, quick)
    _warm_up(b, inputs)
    if mode == "measure":
        result = measure(b, inputs, seconds)
    else:
        result = trace(b, inputs, seconds, quick)
    result["versions"] = {"bisac": b.__version__, "numpy": np.__version__,
                          "python": sys.version.split()[0]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
