"""Experiment orchestration: SNR sweeps, bound tables, CSV/JSON emission.

Every random quantity derives from the mandatory master seed through
fixed SeedSequence keys, so results are byte-identical across runs and
across worker counts. Each trial has its own key; a sweep splits its
trials into blocks, runs each block on the pilot subgrid as one stack
(``_trial_block``) and reduces the squared errors in trial-index order
regardless of which process ran a block or when. A run's length
depends on the config alone, never on the worker count; a sweep packs
consecutive runs into blocks of up to that length while every process
still gets a block.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import multiprocessing
import traceback
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__
from .bounds import (
    SensingChannelParams, _check_off_baseline, _ecrb_geometry, _ecrb_mean, _snr_powers, crb,
    rate_upper_bound,
)
from .estimator import PeriodogramConfig, _estimate_grids, _ls_divide, _start_cells
from .geometry import GeometryError, ScenarioEnsemble, _checked, _checked_tuple
from .ofdm import OfdmNumerology
from .pilots import PilotPattern, make_periodic
from .sim import simulate_pilots

CSV_SCHEMA_VERSION = 1

# Stream tags for per-purpose seed derivation.
_TRIAL_STREAM = 0
_ECRB_STREAM = 1

# A block holds as many trials as fit this many bytes of the search's start delay
# stage, and at least one: 20 of 35 x 50 pilots (strides (2, 1)), 102 of 35 x 10.
_BLOCK_BYTES = 2**21

DEFAULT_TABLE_PAIRS = ((1, 11), (2, 5), (5, 2), (11, 1))
DEFAULT_RATE_RHOS = (0.02, 0.1, 0.5, 1.0)


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
    """Raise before any trial if the receiver cannot run ``config``.

    Raises PatternError if the pilot pattern is not periodic and
    ValueError if an FFT size is smaller than the pilot subgrid.
    """
    k, l = config.pattern.periodic_counts()
    config.fft.check_covers(k + 1, l + 1)


def simulate_trial(config: ExperimentConfig, snr_idx: int, trial_idx: int) -> tuple:
    """Trial ``trial_idx`` of SNR point ``snr_idx`` of ``run_sweep(config)``.

    Returns (truth, pilot_grid, outcome): the ground truth, the (K+1, L+1)
    least-squares channel estimates on the pilot subgrid, and the
    EstimationResult, or the GeometryError that made the trial invalid.
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
    return _trial_block(config, [(snr_idx, trial_idx, trial_idx + 1)])[0]


def _trial_block(config: ExperimentConfig, runs) -> list:
    """The trials of ``runs``, (snr_idx, start, stop) for trials ``start`` to
    ``stop - 1`` of SNR point ``snr_idx``, as ``simulate_trial`` returns each:
    one estimator pass over all their stacked pilot grids."""
    # the stack is allocated before any draw: the draws' arrays, freed before
    # the search, then leave one free block that the search reuses rather than
    # holes around the stack (about 1 MB less peak resident memory)
    shape = tuple(count + 1 for count in config.pattern.periodic_counts())
    grids = np.empty((sum(stop - start for _, start, stop in runs), *shape), complex)
    truths = []
    for snr_idx, start, stop in runs:
        run_truths, symbols, received = simulate_pilots(
            config.ensemble, config.numerology, config.pattern, config.snr_grid_db[snr_idx],
            [_trial_seed(config.seed, snr_idx, trial) for trial in range(start, stop)])
        _ls_divide(received, symbols, out=grids[len(truths):len(truths) + len(run_truths)])
        truths += run_truths
        del symbols, received
    outcomes = _estimate_grids(grids, config.pattern, config.numerology, config.fft,
                               config.ensemble.baseline, [truth.theta for truth in truths])
    return list(zip(truths, grids, outcomes))


def _trial_seed(seed: int, snr_idx: int, trial: int) -> np.random.SeedSequence:
    """``SeedSequence([seed, _TRIAL_STREAM, snr_idx, trial])``: the key's words go
    in as one uint32 array when each fits one word, which gives the same state
    at a third of the cost of coercing the list."""
    key = (seed, _TRIAL_STREAM, snr_idx, trial)
    if max(key) < 2**32:
        return np.random.SeedSequence(np.array(key, np.uint32))
    return np.random.SeedSequence(list(key))


def _block_errors(block: tuple) -> list:
    """(sq_err_d, sq_err_v, valid) per trial of ``_trial_block(*block)``."""
    errors = []
    for truth, _, outcome in _trial_block(*block):
        err_d = err_v = np.nan
        if not isinstance(outcome, GeometryError):
            err_d, err_v = outcome.d_bis_hat - truth.d_bis, outcome.v_bis_hat - truth.v_bis
        valid = bool(np.isfinite(err_d) and np.isfinite(err_v))
        errors.append((err_d**2, err_v**2, True) if valid else (np.nan, np.nan, False))
    return errors


def _bound_columns(config: ExperimentConfig, reports, draws: int) -> list:
    """(sqrt_crb_ran_m, ecrb_vel_ms) per ``crb`` report at beta = 0.

    Every report averages over one geometry draw on the config's ECRB stream,
    so the reports differ only by pattern and noise level.
    """
    seed = np.random.SeedSequence([config.seed, _ECRB_STREAM])
    cos_half, _ = _ecrb_geometry(config.ensemble, draws, seed)
    terms = np.empty_like(cos_half)
    return [(report.rmse_bound_ran_m, _ecrb_mean(report.crb_vel_ms2, cos_half, terms))
            for report in reports]


def _dispatch(blocks: list, workers: int, own) -> tuple:
    """(``own()``, the ``_block_errors`` of each block in block order): the
    calling process starts ``workers - 1`` child processes and runs ``own``
    while they take blocks; then it takes blocks too. Each process takes the
    next block index from one shared counter until none is left, so a slow
    block (a threshold SNR point) holds up one process only. A child's
    exception is raised here; no child outlives the call."""
    context = multiprocessing.get_context()
    counter = context.Value("q", 0)
    children, outcomes, finished = [], {}, False
    try:
        for _ in range(workers - 1):
            receive, send = context.Pipe(duplex=False)
            child = context.Process(target=_work, args=(blocks, counter, send))
            child.start()
            # the child holds the only sending end: its exit ends the pipe
            send.close()
            children.append((child, receive))
        result = own()
        outcomes.update(_take(blocks, counter))
        for child, receive in children:
            try:
                taken, error = receive.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"sweep worker process exited with code {child.exitcode} "
                                   "without sending its blocks") from None
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
    return result, [outcomes[index] for index in range(len(blocks))]


def _take(blocks: list, counter):
    """(index, ``_block_errors``) of each block whose index this process takes
    from ``counter``, until the counter passes the last block."""
    while True:
        with counter.get_lock():
            index = counter.value
            counter.value = index + 1
        if index >= len(blocks):
            return
        yield index, _block_errors(blocks[index])


def _work(blocks: list, counter, send) -> None:
    """A child process of ``_dispatch``: sends (its outcomes, None), or
    (None, (exception, traceback text)) if a block raised."""
    try:
        result = list(_take(blocks, counter)), None
    except Exception as exc:
        result = None, (exc, traceback.format_exc())
    send.send(result)


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Monte Carlo RMSE and bounds per SNR point.

    RMSE is computed over valid trials only (geometry failures and
    non-finite estimates are excluded); the valid fraction is reported
    alongside. Deterministic per master seed for any worker count.
    Raises before any trial as ``check_receiver`` does, as ``crb`` does
    (a collinear pattern, or a bound that overflows at an SNR of the grid),
    or with SingularPatternError if the ensemble's target box meets the
    baseline segment (``bounds._check_off_baseline``).
    The ECRB column's geometry draw runs in the calling process while any
    child processes run trials; an ensemble whose draws are all degenerate
    raises SingularPatternError there.
    """
    check_receiver(config)
    reports = [crb(SensingChannelParams.from_snr_db(snr_db), config.pattern, config.numerology)
               for snr_db in config.snr_grid_db]
    _check_off_baseline(config.ensemble)
    bound_columns = functools.partial(_bound_columns, config, reports, config.ecrb_draws)
    n_snr = len(config.snr_grid_db)
    trials = config.trials_per_point
    pilot_rows, pilot_cols = (count + 1 for count in config.pattern.periodic_counts())
    length = max(1, _BLOCK_BYTES // (_start_cells(pilot_rows, 1)[0] * pilot_cols * 16))
    runs = [(snr_idx, start, min(start + length, trials))
            for snr_idx in range(n_snr) for start in range(0, trials, length)]
    # pack consecutive runs of min(length, trials) trials into blocks of up to
    # `length` while every process still gets a block; start no more
    # processes than there are blocks
    per = max(1, min(length // min(length, trials), len(runs) // config.workers))
    blocks = [(config, runs[lo:lo + per]) for lo in range(0, len(runs), per)]
    workers = min(config.workers, len(blocks))
    if workers == 1:
        bounds, outcomes = bound_columns(), list(map(_block_errors, blocks))
    else:
        bounds, outcomes = _dispatch(blocks, workers, bound_columns)
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
    _check_off_baseline(config.ensemble)
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
