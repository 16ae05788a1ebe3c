"""Experiment orchestration: SNR sweeps, bound tables, CSV/JSON emission.

Every random quantity derives from the mandatory master seed through
fixed SeedSequence keys, so results are byte-identical across runs and
across worker counts. Trials are independent work items; squared errors
are reduced in trial-index order regardless of completion order.
"""

from __future__ import annotations

import csv
import io
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__
from .bounds import SensingChannelParams, crb, ecrb_vel, rate_upper_bound
from .estimator import PeriodogramConfig, estimate
from .geometry import GeometryError, ScenarioEnsemble
from .ofdm import OfdmNumerology
from .pilots import PilotPattern, make_periodic
from .sim import apply_channel, generate_frame, sample_scenario

CSV_SCHEMA_VERSION = 1
SWEEP_COLUMNS = (
    "snr_db",
    "rmse_range_m",
    "rmse_vel_ms",
    "sqrt_crb_ran_m",
    "ecrb_vel_ms",
    "valid_trial_fraction",
)

# Stream tags for per-purpose seed derivation.
_TRIAL_STREAM = 0
_ECRB_STREAM = 1

DEFAULT_TABLE_PAIRS = ((1, 11), (2, 5), (5, 2), (11, 1))
DEFAULT_RATE_RHOS = (0.02, 0.1, 0.5, 1.0)


@dataclass
class ExperimentConfig:
    """Complete, seedable description of one experiment."""

    numerology: OfdmNumerology = field(default_factory=OfdmNumerology)
    pattern: PilotPattern = field(default_factory=lambda: make_periodic(70, 50, 2, 1))
    snr_grid_db: tuple = (20.0,)
    trials_per_point: int = 200
    ensemble: ScenarioEnsemble = field(default_factory=ScenarioEnsemble)
    fft: PeriodogramConfig = field(default_factory=PeriodogramConfig)
    seed: int = 0
    workers: int = 1
    ecrb_draws: int = 100_000
    out: str | None = None

    def __post_init__(self):
        self.snr_grid_db = tuple(float(s) for s in self.snr_grid_db)
        if not self.snr_grid_db:
            raise ValueError("snr grid must be nonempty")
        # the seed is mandatory: there is no wall-clock seeding
        for name, low in (("trials_per_point", 1), ("seed", 0), ("workers", 1),
                          ("ecrb_draws", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        grid = (self.numerology.n_subcarriers, self.numerology.n_symbols)
        if (self.pattern.n_grid, self.pattern.m_grid) != grid:
            raise ValueError(
                f"pattern grid {self.pattern.n_grid}x{self.pattern.m_grid} does not "
                f"match the numerology grid {grid[0]}x{grid[1]}"
            )
        if self.ensemble.carrier_hz != self.numerology.carrier_hz:
            self.ensemble = replace(self.ensemble, carrier_hz=self.numerology.carrier_hz)

    def to_json_dict(self) -> dict:
        return {
            "numerology": self.numerology.to_json_dict(),
            "pattern": self.pattern.to_json_dict(),
            "snr_grid_db": list(self.snr_grid_db),
            "trials_per_point": self.trials_per_point,
            "ensemble": self.ensemble.to_json_dict(),
            "fft": asdict(self.fft),
            "seed": self.seed,
            "workers": self.workers,
            "ecrb_draws": self.ecrb_draws,
            "out": self.out,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentConfig":
        """Parse a config; unknown keys at any level raise ValueError.

        A pattern takes its grid from the numerology; an explicit N or M
        must agree with it.
        """
        rest = dict(d)
        _reject_unknown(rest, [f.name for f in fields(cls)], "config")
        num_spec = rest.pop("numerology", {})
        pattern_spec = rest.pop("pattern", {"periodic": [2, 1]})
        fft_spec = rest.pop("fft", {})
        ens_spec = rest.pop("ensemble", {})
        _reject_unknown(num_spec, OfdmNumerology().to_json_dict(), "numerology")
        _reject_unknown(pattern_spec, ("N", "M", "periodic", "cells"), "pattern")
        _reject_unknown(fft_spec, [f.name for f in fields(PeriodogramConfig)], "fft")
        _reject_unknown(ens_spec, ScenarioEnsemble().to_json_dict(), "ensemble")
        numerology = OfdmNumerology.from_json_dict(num_spec)
        grid = {"N": numerology.n_subcarriers, "M": numerology.n_symbols}
        return cls(
            numerology=numerology,
            pattern=PilotPattern.from_json_dict({**grid, **pattern_spec}),
            fft=PeriodogramConfig(**fft_spec),
            ensemble=ScenarioEnsemble.from_json_dict(
                ens_spec, carrier_hz=numerology.carrier_hz
            ),
            **rest,
        )


def _reject_unknown(spec: dict, known, where: str) -> None:
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


@dataclass(frozen=True)
class SweepResult:
    rows: tuple

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for row in self.rows:
            writer.writerow(
                _fmt(getattr(row, col)) for col in SWEEP_COLUMNS
            )
        return buf.getvalue()


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _trial_seed(seed: int, snr_idx: int, trial_idx: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, _TRIAL_STREAM, snr_idx, trial_idx])


def _run_trial(args) -> tuple:
    """One Monte Carlo trial; returns (snr_idx, trial_idx, sq_err_d, sq_err_v, valid)."""
    config, snr_idx, trial_idx = args
    snr_db = config.snr_grid_db[snr_idx]
    rng = np.random.default_rng(_trial_seed(config.seed, snr_idx, trial_idx))
    scenario, truth = sample_scenario(config.ensemble, rng)
    params = SensingChannelParams.from_snr_db(snr_db, tau=truth.tau, f_d=truth.f_d)
    frame = generate_frame(config.numerology, config.pattern, rng)
    received = apply_channel(frame, params, config.numerology, rng)
    try:
        result = estimate(
            received,
            frame,
            config.pattern,
            config.numerology,
            config.fft,
            baseline=scenario.baseline,
            theta=truth.theta,
        )
    except GeometryError:
        return snr_idx, trial_idx, np.nan, np.nan, False
    err_d = result.d_bis_hat - truth.d_bis
    err_v = result.v_bis_hat - truth.v_bis
    if not (np.isfinite(err_d) and np.isfinite(err_v)):
        return snr_idx, trial_idx, np.nan, np.nan, False
    return snr_idx, trial_idx, err_d**2, err_v**2, True


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Monte Carlo RMSE and bounds per SNR point.

    RMSE is computed over valid trials only (geometry failures and
    non-finite estimates are excluded); the valid fraction is reported
    alongside. Deterministic per master seed for any worker count.
    """
    n_snr = len(config.snr_grid_db)
    trials = config.trials_per_point
    sq_d = np.full((n_snr, trials), np.nan)
    sq_v = np.full((n_snr, trials), np.nan)
    valid = np.zeros((n_snr, trials), dtype=bool)

    tasks = [
        (config, snr_idx, trial_idx)
        for snr_idx in range(n_snr)
        for trial_idx in range(trials)
    ]
    if config.workers == 1:
        outcomes = list(map(_run_trial, tasks))
    else:
        chunk = max(1, len(tasks) // (config.workers * 4))
        with ProcessPoolExecutor(max_workers=config.workers) as executor:
            outcomes = list(executor.map(_run_trial, tasks, chunksize=chunk))
    for snr_idx, trial_idx, sd, sv, ok in outcomes:
        sq_d[snr_idx, trial_idx] = sd
        sq_v[snr_idx, trial_idx] = sv
        valid[snr_idx, trial_idx] = ok

    rows = []
    for snr_idx, snr_db in enumerate(config.snr_grid_db):
        params = SensingChannelParams.from_snr_db(snr_db)
        report = crb(params, config.pattern, config.numerology, beta=0.0)
        # one geometry stream for the whole curve, so the bound columns
        # scale exactly with the noise level across SNR points
        ecrb = ecrb_vel(
            config.ensemble,
            params,
            config.pattern,
            config.numerology,
            draws=config.ecrb_draws,
            seed=np.random.SeedSequence([config.seed, _ECRB_STREAM]),
        )
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
                sqrt_crb_ran_m=report.rmse_bound_ran_m,
                ecrb_vel_ms=ecrb.value_ms,
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
    """
    draws = config.ecrb_draws if draws is None else draws
    params = SensingChannelParams.from_snr_db(snr_db)
    rows = []
    for n_p, m_p in pairs:
        pattern = make_periodic(
            config.numerology.n_subcarriers, config.numerology.n_symbols, n_p, m_p
        )
        report = crb(params, pattern, config.numerology, beta=0.0)
        # shared geometry stream across rows: differences are then purely
        # pattern-driven
        ecrb = ecrb_vel(
            config.ensemble,
            params,
            pattern,
            config.numerology,
            draws=draws,
            seed=np.random.SeedSequence([config.seed, _ECRB_STREAM]),
        )
        rows.append(
            TableRow(
                n_p=n_p,
                m_p=m_p,
                pilot_count=pattern.size,
                sqrt_crb_ran_m=report.rmse_bound_ran_m,
                ecrb_vel_ms=ecrb.value_ms,
            )
        )
    return tuple(rows)


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


def rows_to_csv(rows, columns) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(_fmt(v) if isinstance(v, float) else str(v)
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
