"""Experiment orchestration: SNR sweeps, bound tables, CSV/JSON emission.

Every random quantity derives from the mandatory master seed through
fixed SeedSequence keys, so results are byte-identical across runs and
across worker counts. Each trial has its own key, and a block hashes all
its keys in one vectorised pass (``_trial_generators``); a sweep splits its
trials into blocks, runs each block on the pilot subgrid as one stack
(``_trial_block``) and reduces the squared errors in trial-index order
regardless of which process ran a block or when. A block packs
consecutive runs up to a length that depends on the config alone, never
on the worker count. The bound columns and the blocks are the tasks of
one dispatcher, ``_dispatch``, the bound columns first. ``workers`` is an
upper bound: the calling process runs the tasks in order and starts child
processes only once the work it projects to be left exceeds a break-even
(``_BREAK_EVEN_S``) that pays for a forked process's first-block faults.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__
from .bounds import (
    SensingChannelParams, _ecrb_means, _snr_powers, crb, rate_upper_bound,
)
from .estimator import (
    PeriodogramConfig, _block_length, _chunk_length, _estimate_grids, _estimates, _ls_divide,
)
from .geometry import GeometryError, ScenarioEnsemble, _checked, _checked_tuple
from .ofdm import OfdmNumerology
from .pilots import PilotPattern, make_periodic
from .sim import simulate_pilots

CSV_SCHEMA_VERSION = 1

# Stream tags for per-purpose seed derivation.
_TRIAL_STREAM = 0
_ECRB_STREAM = 1

DEFAULT_TABLE_PAIRS = ((1, 11), (2, 5), (5, 2), (11, 1))
DEFAULT_RATE_RHOS = (0.02, 0.1, 0.5, 1.0)

# seconds of projected work left above which ``_dispatch`` starts children:
# on 2 cores two processes overtook one on the sweep_desk inputs between
# 240 and 480 trials, 0.13-0.18 s of serial work (BENCH_lazy_dispatch.json)
_BREAK_EVEN_S = 0.15

# (field, type, whether None is allowed) of the config's object-valued fields
_SECTIONS = (("numerology", OfdmNumerology, False), ("pattern", PilotPattern, True),
             ("ensemble", ScenarioEnsemble, False), ("fft", PeriodogramConfig, False))


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, seedable description of one experiment.

    The pattern defaults to strides (2, 1) on the numerology's grid.
    """

    numerology: OfdmNumerology = field(default_factory=OfdmNumerology)
    pattern: PilotPattern | None = None
    snr_grid_db: tuple = (20.0,)
    trials_per_point: int = 200
    ensemble: ScenarioEnsemble = field(default_factory=ScenarioEnsemble)
    fft: PeriodogramConfig = field(default_factory=PeriodogramConfig)
    seed: int = 0
    workers: int = 1
    ecrb_draws: int = 100_000
    out: str | None = None

    def __post_init__(self):
        for name, kind, optional in _SECTIONS:
            value = getattr(self, name)
            if not (isinstance(value, kind) or optional and value is None):
                none = " or None" if optional else ""
                raise ValueError(f"{name} must be an instance of {kind.__name__}{none}, "
                                 f"got {value!r}")
        snrs = _checked_tuple(self.snr_grid_db, float, "snr_grid_db")
        for i, snr_db in enumerate(snrs):
            _snr_powers(snr_db, f"snr_grid_db[{i}]")
        object.__setattr__(self, "snr_grid_db", snrs)
        # the seed is mandatory: there is no wall-clock seeding
        for name, low in (("trials_per_point", 1), ("seed", 0), ("workers", 1),
                          ("ecrb_draws", 1)):
            object.__setattr__(self, name, _checked(getattr(self, name), int, name, low))
        if not isinstance(self.out, (str, type(None))):
            raise ValueError(f"out must be a path or None, got {self.out!r}")
        grid = (self.numerology.n_subcarriers, self.numerology.n_symbols)
        if self.pattern is None:
            object.__setattr__(self, "pattern", make_periodic(*grid, 2, 1))
        if (self.pattern.n_grid, self.pattern.m_grid) != grid:
            raise ValueError(
                f"pattern grid {self.pattern.n_grid}x{self.pattern.m_grid} does not "
                f"match the numerology grid {grid[0]}x{grid[1]}"
            )
        if self.ensemble.carrier_hz != self.numerology.carrier_hz:
            object.__setattr__(self, "ensemble",
                               replace(self.ensemble, carrier_hz=self.numerology.carrier_hz))

    def to_json_dict(self) -> dict:
        """The config file that ``from_json_dict`` reads back to this config."""
        if self.pattern.periodic is not None:
            pattern = {"periodic": list(self.pattern.periodic)}
        else:
            pattern = {"cells": self.pattern.cells.tolist()}
        d = {name: getattr(self, name) for name in _field_names(type(self))}
        d.update(numerology=asdict(self.numerology), pattern=pattern, fft=asdict(self.fft),
                 snr_grid_db=list(self.snr_grid_db),
                 ensemble={key: list(getattr(self.ensemble, key)) for key in _ENSEMBLE_KEYS})
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentConfig":
        """Build from a config; an unknown key or a malformed value raises ValueError.

        Each section must be an object whose keys are its constructor's
        arguments, in its units; the constructors check the values. A
        pattern lies on the numerology's grid, and the ensemble takes its
        carrier from the numerology.
        """
        _reject_unknown(d, _field_names(cls), "config")
        rest = dict(d)
        num_spec = rest.pop("numerology", {})
        fft_spec = rest.pop("fft", {})
        ens_spec = rest.pop("ensemble", {})
        _reject_unknown(num_spec, _field_names(OfdmNumerology), "numerology")
        _reject_unknown(rest.get("pattern", {}), ("periodic", "cells"), "pattern")
        _reject_unknown(fft_spec, _field_names(PeriodogramConfig), "fft")
        _reject_unknown(ens_spec, _ENSEMBLE_KEYS, "ensemble")
        numerology = OfdmNumerology(**num_spec)
        if "pattern" in rest:
            spec = rest["pattern"]
            rest["pattern"] = PilotPattern(
                n_grid=numerology.n_subcarriers, m_grid=numerology.n_symbols,
                cells=spec.get("cells"), periodic=spec.get("periodic"),
            )
        return cls(numerology=numerology, fft=PeriodogramConfig(**fft_spec),
                   ensemble=ScenarioEnsemble(**ens_spec), **rest)


# the ensemble's constructor arguments but the carrier, which follows the numerology
_ENSEMBLE_KEYS = ("tx_pos", "rx_pos", "x_range", "y_range", "speed_range", "delta_range")


def _field_names(cls) -> tuple:
    return tuple(f.name for f in fields(cls))


def _reject_unknown(spec, known, where: str) -> None:
    if not isinstance(spec, dict):
        raise ValueError(f"{where} must be a JSON object, got {spec!r}")
    unknown = sorted(set(spec) - set(known))
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(unknown)}")


@dataclass(frozen=True)
class SweepRow:
    snr_db: float
    rmse_range_m: float
    rmse_vel_ms: float
    sqrt_crb_ran_m: float
    ecrb_vel_ms: float
    valid_trial_fraction: float


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRow))


@dataclass(frozen=True)
class SweepResult:
    rows: tuple

    def to_csv(self) -> str:
        return rows_to_csv(self.rows, SweepRow)


def check_receiver(config: ExperimentConfig) -> None:
    """Raise before any trial if the receiver cannot run ``config``: a
    PatternError if the pilot pattern is not periodic. The search does not
    use the FFT sizes, so any power of two runs."""
    config.pattern.periodic_counts()


def simulate_trial(config: ExperimentConfig, snr_idx: int, trial_idx: int) -> tuple:
    """Trial ``trial_idx`` of SNR point ``snr_idx`` of ``run_sweep(config)``.

    Returns (truth, pilot_grid, outcome): the ground truth, the (K+1, L+1)
    least-squares channel estimates on the pilot subgrid, and the
    EstimationResult, or the GeometryError that made the trial invalid. A
    degenerate target draw (``ScenarioEnsemble.sample_truth`` raised) has
    no truth: it is None, and the grid is that of a zero delay and Doppler.
    Raises ValueError, before any draw, unless ``snr_idx`` indexes the SNR
    grid and ``trial_idx`` is a non-negative integer (any: it keys the
    trial's seed), and raises as ``check_receiver`` does.
    """
    snr_idx = _checked(snr_idx, int, "snr_idx", 0)
    trial_idx = _checked(trial_idx, int, "trial_idx", 0)
    if snr_idx >= len(config.snr_grid_db):
        raise ValueError(f"snr_idx must be < {len(config.snr_grid_db)}, the points of the "
                         f"SNR grid, got {snr_idx}")
    check_receiver(config)
    (truth,), grids = _trial_block(config, [(snr_idx, trial_idx, trial_idx + 1)])
    if isinstance(truth, GeometryError):
        return None, grids[0], truth
    (outcome,) = _estimate_grids(grids, config.pattern, config.numerology, config.fft,
                                 config.ensemble.baseline, [truth.theta])
    return truth, grids[0], outcome


def _trial_block(config: ExperimentConfig, runs) -> tuple:
    """The draws of the trials of ``runs``, (snr_idx, start, stop) for trials
    ``start`` to ``stop - 1`` of SNR point ``snr_idx``: their ground truths
    (a degenerate draw's GeometryError in place of its truth) and the stack
    (trials, K+1, L+1) of their least-squares pilot grids, drawn a chunk
    (``estimator._chunk_length``) at a time."""
    generators = _trial_generators(config.seed, runs)
    # the stack is allocated before any draw: the draws' arrays, freed before
    # the search, then leave one free block that the search reuses rather than
    # holes around the stack (about 1 MB less peak resident memory)
    shape = tuple(count + 1 for count in config.pattern.periodic_counts())
    grids = np.empty((len(generators), *shape), complex)
    step, truths = _chunk_length(*shape), []
    for snr_idx, start, stop in runs:
        for lo in range(start, stop, step):
            chunk_truths, symbols, received = simulate_pilots(
                config.ensemble, config.numerology, config.pattern, config.snr_grid_db[snr_idx],
                generators[len(truths):len(truths) + min(step, stop - lo)])
            _ls_divide(received, symbols,
                       out=grids[len(truths):len(truths) + len(chunk_truths)])
            truths += chunk_truths
            del symbols, received
    return truths, grids


def _trial_seed(seed: int, snr_idx: int, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, _TRIAL_STREAM, snr_idx, trial])


def _trial_generators(seed: int, runs) -> list:
    """``default_rng(_trial_seed(seed, snr_idx, trial))`` of each trial of
    ``runs`` in order, bit for bit. When every word of every key fits 32 bits,
    the keys are hashed in one vectorised pass (``_trial_words``) and each
    generator is seeded from its words (``_Words``); otherwise each trial
    takes ``_trial_seed``."""
    if max(seed, *(max(snr_idx, stop - 1) for snr_idx, _, stop in runs)) >= 2**32:
        return [np.random.default_rng(_trial_seed(seed, snr_idx, trial))
                for snr_idx, start, stop in runs for trial in range(start, stop)]
    keys = np.zeros((sum(stop - start for _, start, stop in runs), 4), np.uint32)
    keys[:, 0] = seed
    keys[:, 2] = np.repeat([snr_idx for snr_idx, _, _ in runs],
                           [stop - start for _, start, stop in runs])
    keys[:, 3] = np.concatenate([np.arange(start, stop) for _, start, stop in runs])
    _register_words()
    generator, pcg64 = np.random.Generator, np.random.PCG64
    return [generator(pcg64(_Words(words))) for words in _trial_words(keys)]


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """The (xor, multiplier) constants of ``calls`` successive hashmix steps of
    ``SeedSequence`` from ``init``: the step xors its value with the constant,
    multiplies the constant by ``mult`` and its value by the product. Shape
    (2, calls, 1), uint32."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult % 2**32)
    return np.array([consts[:-1], consts[1:]], np.uint32)[..., None]


# numpy's SeedSequence hash, stream-stable by NEP 19: its pool of four words
# takes 4 + 12 hashmix steps from the first constants and the state's 8 uint32
# words take 8 from the second; mix(x, y) xors (_MIX_LEFT x - _MIX_RIGHT y)
# with its own top half
_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_LEFT, _MIX_RIGHT = 0xCA01F9DD, 0x4973F715
_OTHERS = [[dst for dst in range(4) if dst != src] for src in range(4)]


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """One hashmix step of ``SeedSequence`` on uint32 ``values``, broadcast
    against the step's constants (``_hash_constants``); wraps modulo 2^32."""
    values = values ^ xor
    values *= mult
    values ^= values >> 16
    return values


def _trial_words(keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(key).generate_state(4, np.uint64)`` of each row of
    ``keys``, (trials, 4) uint32, bit for bit: numpy's mixing with a vector
    step for all trials at once, and for the three pool words that one word
    mixes into."""
    (xor, mult), pool = _POOL_HASH, np.empty((4, len(keys)), np.uint32)
    pool[:] = _hashmix(keys.T, xor[:4], mult[:4])
    for src, others in enumerate(_OTHERS):
        steps = slice(4 + 3 * src, 7 + 3 * src)
        mixed = (pool[others] * _MIX_LEFT
                 - _hashmix(pool[src], xor[steps], mult[steps]) * _MIX_RIGHT)
        pool[others] = mixed ^ (mixed >> 16)
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], *_STATE_HASH)
    # pairs of uint32 words, the low word first, make the uint64 words
    return np.ascontiguousarray(state.T, "<u4").view("<u8").astype(np.uint64, copy=False)


class _Words:
    """A stand-in for ``SeedSequence`` that ``PCG64`` seeds from: its
    ``generate_state(4, np.uint64)`` returns the four words already hashed
    (``_trial_words``). It cannot spawn."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("the words are the state of one PCG64 generator")
        return self.words


@functools.cache
def _register_words() -> None:
    """Register ``_Words`` as an ``ISeedSequence`` on first use: ``import bisac``
    leaves ``numpy.random`` unimported."""
    np.random.bit_generator.ISeedSequence.register(_Words)


def _block_errors(block: tuple) -> list:
    """(sq_err_d, sq_err_v, valid) per trial of ``_trial_block(*block)``, whose
    readout stops at the estimates (``estimator._estimates``)."""
    config, _ = block
    truths, grids = _trial_block(*block)
    estimates, _, _ = _estimates(grids, config.pattern, config.numerology, config.fft,
                                 config.ensemble.baseline,
                                 [getattr(truth, "theta", 0.0) for truth in truths])
    errors = []
    for truth, outcome in zip(truths, estimates):
        err_d = err_v = math.nan
        if not isinstance(truth, GeometryError) and not isinstance(outcome, GeometryError):
            _, _, d_bis_hat, v_bis_hat, *_ = outcome
            err_d, err_v = d_bis_hat - truth.d_bis, v_bis_hat - truth.v_bis
        valid = math.isfinite(err_d) and math.isfinite(err_v)
        errors.append((err_d**2, err_v**2, True) if valid else (math.nan, math.nan, False))
    return errors


def _bound_columns(config: ExperimentConfig, reports, draws: int) -> list:
    """(sqrt_crb_ran_m, ecrb_vel_ms) per ``crb`` report at beta = 0.

    Every report averages over one geometry draw on the config's ECRB stream,
    so the reports differ only by pattern and noise level.
    """
    seed = np.random.SeedSequence([config.seed, _ECRB_STREAM])
    means, _ = _ecrb_means(config.ensemble, [r.crb_vel_ms2 for r in reports], draws, seed)
    return [(r.rmse_bound_ran_m, mean) for r, mean in zip(reports, means)]


def _dispatch(tasks: list, workers: int) -> list:
    """The result of each of ``tasks``, a non-empty list of callables of no
    argument, in task order. The calling process runs the tasks in order, so
    the first raises first, and after each projects the time left: the mean
    task time so far times the tasks left. Once that exceeds
    ``_BREAK_EVEN_S`` it starts ``min(workers, tasks left) - 1`` child
    processes; then every process takes the next task index from one shared
    counter until none is left, so a slow task (a threshold SNR point) holds
    up one process only. A call that starts no child neither imports
    multiprocessing nor creates any of its objects. A child's exception is raised here; no child
    outlives the call."""
    results, began = [], time.perf_counter()
    for task in tasks:
        results.append(task())
        left = len(tasks) - len(results)
        spent = time.perf_counter() - began
        if min(workers, left) > 1 and spent * left > _BREAK_EVEN_S * len(results):
            break
    first = len(results)
    if first == len(tasks):
        return results
    import multiprocessing  # about 10 ms to import, so only here

    context = multiprocessing.get_context()
    counter = context.Value("q", first)
    children, outcomes, finished = [], {}, False
    try:
        for _ in range(min(workers, left) - 1):
            receive, send = context.Pipe(duplex=False)
            child = context.Process(target=_work, args=(tasks, counter, send))
            child.start()
            # the child holds the only sending end: its exit ends the pipe
            send.close()
            children.append((child, receive))
        outcomes.update(_take(tasks, counter))
        for child, receive in children:
            try:
                taken, error = receive.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"sweep worker process exited with code {child.exitcode} "
                                   "without sending its tasks") from None
            if error is not None:
                exc, text = error
                raise exc from RuntimeError(f"raised in a sweep worker process:\n{text}")
            outcomes.update(taken)
        finished = True
    finally:
        for child, receive in children:
            if not finished:
                child.terminate()
            child.join()
            receive.close()
    return results + [outcomes[index] for index in range(first, len(tasks))]


def _take(tasks: list, counter):
    """(index, result) of each task whose index this process takes from
    ``counter``, until the counter passes the last task."""
    while True:
        with counter.get_lock():
            index = counter.value
            counter.value = index + 1
        if index >= len(tasks):
            return
        yield index, tasks[index]()


def _work(tasks: list, counter, send) -> None:
    """A child process of ``_dispatch``: sends (its outcomes, None), or
    (None, (exception, traceback text)) if a task raised."""
    try:
        result = list(_take(tasks, counter)), None
    except Exception as exc:
        import traceback

        result = None, (exc, traceback.format_exc())
    send.send(result)


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Monte Carlo RMSE and bounds per SNR point.

    RMSE is computed over valid trials only (geometry failures and
    non-finite estimates are excluded); the valid fraction is reported
    alongside. Deterministic per master seed for any worker count, and the
    same at any FFT sizes (units of the estimator's labels alone). Raises
    before any trial as ``check_receiver`` does, as ``crb`` does
    (a collinear pattern, or a bound that overflows at an SNR of the grid),
    or as the bound columns do: SingularPatternError if the ensemble's
    target box meets the baseline segment (``bounds._check_off_baseline``)
    or all its draws are degenerate. The calling process runs the bound
    columns first and the blocks after them, and starts children
    (``_dispatch``) only once the work left pays for them.
    """
    check_receiver(config)
    reports = [crb(SensingChannelParams.from_snr_db(snr_db), config.pattern, config.numerology)
               for snr_db in config.snr_grid_db]
    n_snr = len(config.snr_grid_db)
    trials = config.trials_per_point
    length = _block_length(*(count + 1 for count in config.pattern.periodic_counts()))
    runs = [(snr_idx, start, min(start + length, trials))
            for snr_idx in range(n_snr) for start in range(0, trials, length)]
    # pack consecutive runs of min(length, trials) trials into blocks of up to
    # `length`, for any number of processes
    per = max(1, length // min(length, trials))
    blocks = [functools.partial(_block_errors, (config, runs[lo:lo + per]))
              for lo in range(0, len(runs), per)]
    tasks = [functools.partial(_bound_columns, config, reports, config.ecrb_draws), *blocks]
    # a forked process's first block pays some 1,650 page faults (strides
    # (2, 1), 20 trials): short sweeps run in the calling process alone
    bounds, *outcomes = _dispatch(tasks, config.workers)
    trial_errors = [errors for block in outcomes for errors in block]
    sq_d, sq_v, valid = (np.reshape(c, (n_snr, trials)) for c in zip(*trial_errors))

    rows = []
    for snr_idx, snr_db in enumerate(config.snr_grid_db):
        sqrt_crb_ran, ecrb = bounds[snr_idx]
        mask = valid[snr_idx]
        if mask.any():
            rmse_d = float(np.sqrt(np.mean(sq_d[snr_idx][mask])))
            rmse_v = float(np.sqrt(np.mean(sq_v[snr_idx][mask])))
        else:
            rmse_d = float("nan")
            rmse_v = float("nan")
        rows.append(
            SweepRow(
                snr_db=snr_db,
                rmse_range_m=rmse_d,
                rmse_vel_ms=rmse_v,
                sqrt_crb_ran_m=sqrt_crb_ran,
                ecrb_vel_ms=ecrb,
                valid_trial_fraction=float(mask.mean()),
            )
        )
    return SweepResult(rows=tuple(rows))


@dataclass(frozen=True)
class TableRow:
    n_p: int
    m_p: int
    pilot_count: int
    sqrt_crb_ran_m: float
    ecrb_vel_ms: float


def run_table1(
    config: ExperimentConfig,
    snr_db: float = 5.0,
    pairs: tuple = DEFAULT_TABLE_PAIRS,
    draws: int | None = None,
) -> tuple:
    """Bound table over overhead-preserving stride pairs at one SNR.

    The range bound is deterministic; the velocity bound is the seeded
    ensemble average over target geometry.
    Raises as ``crb`` and ``bounds._check_off_baseline`` do.
    """
    draws = config.ecrb_draws if draws is None else draws
    params = SensingChannelParams.from_snr_db(snr_db)
    num = config.numerology
    patterns = [
        make_periodic(num.n_subcarriers, num.n_symbols, n_p, m_p) for n_p, m_p in pairs
    ]
    reports = [crb(params, pattern, num) for pattern in patterns]
    bounds = _bound_columns(config, reports, draws)
    return tuple(
        TableRow(
            n_p=n_p,
            m_p=m_p,
            pilot_count=pattern.size,
            sqrt_crb_ran_m=sqrt_crb_ran,
            ecrb_vel_ms=ecrb,
        )
        for (n_p, m_p), pattern, (sqrt_crb_ran, ecrb) in zip(pairs, patterns, bounds)
    )


@dataclass(frozen=True)
class RateRow:
    rho: float
    rate_bps: float


def run_rate_table(
    config: ExperimentConfig,
    rhos: tuple = DEFAULT_RATE_RHOS,
    snr_comm_db: float = 5.0,
) -> tuple:
    """Rate ceiling per pilot overhead value [bit/s]."""
    return tuple(
        RateRow(rho=rho, rate_bps=rate_upper_bound(config.numerology, rho, snr_comm_db))
        for rho in rhos
    )


def rows_to_csv(rows, row_type) -> str:
    """CSV with one column per field of the row dataclass; floats to 12 digits."""
    columns = [f.name for f in fields(row_type)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(f"{v:.12g}" if isinstance(v, float) else str(v)
                        for v in (getattr(row, col) for col in columns))
    return buf.getvalue()


def write_manifest(config: ExperimentConfig, path) -> None:
    """Emit the run manifest: config echo plus version strings."""
    manifest = {
        "csv_schema_version": CSV_SCHEMA_VERSION,
        "package_version": __version__,
        "config": config.to_json_dict(),
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
