"""Workload definitions and input generation for the bisac benchmark.

This module imports numpy only. The functions that call the program take
the imported ``bisac`` module as their first argument, so the checks in
``checks.py`` can share the input definitions without importing bisac.

Every input the program receives is written out here; sweeps pass values
equal to the package defaults explicitly, so the independent checks never
depend on a default inside bisac.
"""

from __future__ import annotations

import math

import numpy as np

SPEED_OF_LIGHT = 3.0e8

# The 70 x 50 frame of the paper: 200 kHz spacing, 1 us CP, 30 GHz carrier.
NUMEROLOGY = {
    "n_subcarriers": 70,
    "n_symbols": 50,
    "subcarrier_spacing_hz": 200e3,
    "cp_duration_s": 1e-6,
    "carrier_hz": 30e9,
}
# The grid of the arbitrary-pattern batch.
BATCH_GRID = 128
BATCH_NUMEROLOGY = dict(NUMEROLOGY, n_subcarriers=BATCH_GRID, n_symbols=BATCH_GRID)

# Default target ensemble: terminals and the 20 m x 20 m target box.
TX_POS = (-40.0, 0.0)
RX_POS = (0.0, 40.0)
X_RANGE = (80.0, 100.0)
Y_RANGE = (-100.0, -80.0)
SPEED_RANGE = (-30.0, 30.0)
DELTA_RANGE_DEG = (-5.0, 5.0)

ECRB_DRAWS = 100_000
WORKERS = 2  # the measuring machine has two cores

# Trials per call trade the power of the chi-square check in checks.py
# (a doubled RMSE leaves its band at 100 trials, mostly at 40) against the
# number of calls a run can time; see README.md, "Output checks".
SWEEPS = {
    "sweep_desk": {"strides": (2, 1), "fft": 1024, "snr_db": (0.0, 10.0, 20.0),
                   "trials": 40, "quick_trials": 20},
    "sweep_full": {"strides": (2, 1), "fft": 4096, "snr_db": (20.0,),
                   "trials": 40, "quick_trials": 4},
    "sweep_sparse": {"strides": (2, 5), "fft": 256, "snr_db": (-10.0, 0.0, 10.0, 20.0),
                     "trials": 100, "quick_trials": 100},
}
# bounds_table reports trials_per_s from a serial, reduced sweep_sparse.
COMPANION_SWEEP = "sweep_sparse"
COMPANION_TRIALS = 10

# One bound pass: the stride quadruple at criterion 2's draw count, the
# rate table, and crb over the arbitrary-pattern batch.
TABLE_PAIRS = ((1, 11), (2, 5), (5, 2), (11, 1))
TABLE_SNR_DB = 5.0
TABLE_DRAWS = 100_000
RATE_RHOS = (0.02, 0.1, 0.5, 1.0)
RATE_SNR_DB = 5.0
BATCH_COUNT = 200
BATCH_QUICK_COUNT = 20
BATCH_CELLS = (8, 4000)
BATCH_SNR_DB = (-10.0, 20.0)

WORKLOADS = ("sweep_desk", "sweep_full", "sweep_sparse", "bounds_table")

# SeedSequence stream tags of the benchmark's own generators. The program
# derives its streams from [seed, 0 | 1, ...]; these never coincide.
BATCH_STREAM = 0xB0
ENSEMBLE_CHECK_STREAM = 0xB1


def symbol_duration_s(numerology: dict) -> float:
    return 1.0 / numerology["subcarrier_spacing_hz"] + numerology["cp_duration_s"]


def wavelength_m(numerology: dict) -> float:
    return SPEED_OF_LIGHT / numerology["carrier_hz"]


def sweep_trials(name: str, quick: bool) -> int:
    spec = SWEEPS[name]
    return spec["quick_trials"] if quick else spec["trials"]


def trial_replay_sweep(workload: str) -> str:
    """The sweep whose trials the traced run replays for this workload."""
    return workload if workload in SWEEPS else COMPANION_SWEEP


def arbitrary_batch(seed: int, quick: bool = False) -> list:
    """Seeded batch of (cells, snr_db) on the 128 x 128 grid.

    Cell counts are log-uniform in [8, 4000]; cells are drawn without
    replacement, uniformly over the grid. Collinear sets, whose bounds are
    infinite, are redrawn, so no bound evaluation on the batch fails.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, BATCH_STREAM]))
    count = BATCH_QUICK_COUNT if quick else BATCH_COUNT
    lo, hi = (math.log(v) for v in BATCH_CELLS)
    batch = []
    while len(batch) < count:
        size = int(round(math.exp(rng.uniform(lo, hi))))
        flat = rng.choice(BATCH_GRID * BATCH_GRID, size=size, replace=False)
        n, m = np.divmod(flat, BATCH_GRID)
        if _collinear(n, m):
            continue
        snr_db = float(rng.uniform(*BATCH_SNR_DB))
        batch.append((np.column_stack([n, m]).astype(np.int64), snr_db))
    return batch


def _collinear(n: np.ndarray, m: np.ndarray) -> bool:
    p = len(n)
    sn, sm = int(n.sum()), int(m.sum())
    snn, smm, snm = int((n * n).sum()), int((m * m).sum()), int((n * m).sum())
    return (p * snn - sn * sn) * (p * smm - sm * sm) - (p * snm - sn * sm) ** 2 <= 0


# ---------------------------------------------------------------------------
# Functions that call the program. ``b`` is the imported bisac package.


def ensemble(b):
    return b.ScenarioEnsemble(
        tx_pos=np.array(TX_POS),
        rx_pos=np.array(RX_POS),
        x_range=X_RANGE,
        y_range=Y_RANGE,
        speed_range=SPEED_RANGE,
        delta_range=tuple(math.radians(d) for d in DELTA_RANGE_DEG),
        carrier_hz=NUMEROLOGY["carrier_hz"],
    )


def sweep_config(b, name: str, seed: int, trials: int, workers: int = WORKERS):
    spec = SWEEPS[name]
    num = b.OfdmNumerology(**NUMEROLOGY)
    return b.ExperimentConfig(
        numerology=num,
        pattern=b.make_periodic(num.n_subcarriers, num.n_symbols, *spec["strides"]),
        snr_grid_db=spec["snr_db"],
        trials_per_point=trials,
        ensemble=ensemble(b),
        fft=b.PeriodogramConfig(spec["fft"], spec["fft"], interpolate=True),
        seed=seed,
        workers=workers,
        ecrb_draws=ECRB_DRAWS,
    )


def table_config(b, seed: int):
    return b.ExperimentConfig(
        numerology=b.OfdmNumerology(**NUMEROLOGY),
        ensemble=ensemble(b),
        seed=seed,
        ecrb_draws=TABLE_DRAWS,
    )


def bound_pass(b, config, batch_numerology, batch) -> dict:
    """One pass of the bounds_table workload; returns plain numbers."""
    table = b.run_table1(config, snr_db=TABLE_SNR_DB, pairs=TABLE_PAIRS, draws=TABLE_DRAWS)
    rates = b.run_rate_table(config, rhos=RATE_RHOS, snr_comm_db=RATE_SNR_DB)
    arbitrary = []
    for cells, snr_db in batch:
        pattern = b.PilotPattern(n_grid=BATCH_GRID, m_grid=BATCH_GRID, cells=cells)
        report = b.crb(b.SensingChannelParams.from_snr_db(snr_db), pattern,
                       batch_numerology, beta=0.0)
        arbitrary.append([report.crb_ran_m2, report.crb_vel_ms2])
    return {
        "table": [[r.n_p, r.m_p, r.pilot_count, r.sqrt_crb_ran_m, r.ecrb_vel_ms]
                  for r in table],
        "rates": [[r.rho, r.rate_bps] for r in rates],
        "arbitrary": arbitrary,
    }
