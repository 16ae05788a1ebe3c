"""Output checks built apart from the program.

Nothing here imports bisac. Every expected value is derived from the
inputs in ``workloads.py`` with the paper's closed forms, an explicit
Fisher-information Jacobian, an independent Monte Carlo over the target
ensemble, or the chi-square spread of a Monte Carlo RMSE. Each check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

import workloads as w

REL_EXACT = 1e-9  # closed form against the program's generic route (CSV keeps 12 digits)
REL_JACOBIAN = 1e-6  # explicit 4x4 inversion against the program's Schur route
Z_SPREAD = 5.0  # standard deviations allowed for Monte Carlo comparisons
# The periodogram receiver's RMSE sits 2-3 % above the bound (2000-trial
# probes on sweep_sparse); the band's upper edge allows 10 %.
RMSE_ALLOWANCE = 1.10
ENSEMBLE_CHECK_DRAWS = 400_000
SWEEP_COLUMNS = ("snr_db", "rmse_range_m", "rmse_vel_ms", "sqrt_crb_ran_m",
                 "ecrb_vel_ms", "valid_trial_fraction")


# -- closed forms -----------------------------------------------------------


def _noise_var(snr_db: float) -> float:
    return 10.0 ** (-snr_db / 10.0)


def periodic_crb_range_m2(num: dict, n_p: int, m_p: int, snr_db: float) -> float:
    """12/(K(K+2)P n_p^2) * noise c^2 / (8 pi^2 df^2), unit gain."""
    big_k = (num["n_subcarriers"] - 1) // n_p
    big_l = (num["n_symbols"] - 1) // m_p
    size = (big_k + 1) * (big_l + 1)
    df = num["subcarrier_spacing_hz"]
    return (12.0 / (big_k * (big_k + 2) * size * n_p**2) * _noise_var(snr_db)
            * w.SPEED_OF_LIGHT**2 / (8.0 * math.pi**2 * df**2))


def periodic_crb_vel_m2s2(num: dict, n_p: int, m_p: int, snr_db: float) -> float:
    """12/(L(L+2)P m_p^2) * noise lam^2 / (32 pi^2 T_s^2), unit gain, beta = 0."""
    big_k = (num["n_subcarriers"] - 1) // n_p
    big_l = (num["n_symbols"] - 1) // m_p
    size = (big_k + 1) * (big_l + 1)
    ts = w.symbol_duration_s(num)
    return (12.0 / (big_l * (big_l + 2) * size * m_p**2) * _noise_var(snr_db)
            * w.wavelength_m(num)**2 / (32.0 * math.pi**2 * ts**2))


def jacobian_crb(cells: np.ndarray, snr_db: float, num: dict) -> tuple:
    """(range m^2, velocity (m/s)^2) bounds from J = (2/noise) Re(D^H D).

    D is the derivative of the noiseless pilot response with respect to
    (gain_re, gain_im, nu, kappa) at unit gain, zero delay and Doppler,
    with nu = f_d T_s and kappa = tau df, so J stays well conditioned.
    """
    n = cells[:, 0].astype(float)
    m = cells[:, 1].astype(float)
    ones = np.ones_like(n)
    d = np.column_stack([ones, 1j * ones, 2j * math.pi * m, -2j * math.pi * n])
    fisher = (2.0 / _noise_var(snr_db)) * (d.conj().T @ d).real
    inverse = np.linalg.inv(fisher)
    df = num["subcarrier_spacing_hz"]
    ts = w.symbol_duration_s(num)
    crb_ran = w.SPEED_OF_LIGHT**2 * inverse[3, 3] / df**2
    crb_vel = (w.wavelength_m(num) / 2.0) ** 2 * inverse[2, 2] / ts**2
    return crb_ran, crb_vel


def rate_bps(num: dict, rho: float, snr_db: float) -> float:
    """N (1 - rho) / T_s * log2(1 + snr)."""
    return (num["n_subcarriers"] * (1.0 - rho) / w.symbol_duration_s(num)
            * math.log2(1.0 + 10.0 ** (snr_db / 10.0)))


# -- ensemble velocity bound --------------------------------------------------


@dataclass(frozen=True)
class EnsembleMoments:
    """Mean and standard deviation of 1/cos(beta/2) over the target box."""

    mean: float
    sd: float
    draws: int

    def ecrb(self, crb_vel_beta0: float) -> float:
        return math.sqrt(crb_vel_beta0) * self.mean

    def ecrb_tolerance(self, crb_vel_beta0: float, program_draws: int) -> float:
        """Z_SPREAD standard errors of the difference of two ensemble means."""
        se = self.sd * math.sqrt(1.0 / program_draws + 1.0 / self.draws)
        return Z_SPREAD * math.sqrt(crb_vel_beta0) * se


def ensemble_moments(seed: int, draws: int = ENSEMBLE_CHECK_DRAWS) -> EnsembleMoments:
    """Independent Monte Carlo of 1/cos(beta/2), beta from the dot product."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, w.ENSEMBLE_CHECK_STREAM]))
    tx, rx = np.array(w.TX_POS), np.array(w.RX_POS)
    total = total_sq = 0.0
    chunk = 100_000
    for start in range(0, draws, chunk):
        size = min(chunk, draws - start)
        target = np.column_stack([rng.uniform(*w.X_RANGE, size), rng.uniform(*w.Y_RANGE, size)])
        u, v = tx - target, rx - target
        cos_beta = (u * v).sum(axis=1) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
        inv_cos_half = np.sqrt(2.0 / (1.0 + cos_beta))
        total += inv_cos_half.sum()
        total_sq += (inv_cos_half**2).sum()
    mean = total / draws
    return EnsembleMoments(mean=mean, sd=math.sqrt(max(total_sq / draws - mean**2, 0.0)),
                           draws=draws)


# -- Monte Carlo RMSE band ------------------------------------------------------


def _chi2_quantile(dof: int, z: float) -> float:
    """Wilson-Hilferty approximation of the chi-square quantile at normal z."""
    h = 2.0 / (9.0 * dof)
    return dof * max(1.0 - h + z * math.sqrt(h), 0.0) ** 3


def rmse_ratio_band(trials: int) -> tuple:
    """Accepted range of RMSE/bound over ``trials`` valid trials.

    An efficient unbiased estimator with Gaussian errors gives
    trials * (RMSE/bound)^2 ~ chi-square(trials); the band is that spread
    at Z_SPREAD, with RMSE_ALLOWANCE on the upper edge.
    """
    lo = math.sqrt(_chi2_quantile(trials, -Z_SPREAD) / trials)
    hi = math.sqrt(_chi2_quantile(trials, Z_SPREAD) / trials) * RMSE_ALLOWANCE
    return lo, hi


# -- checks --------------------------------------------------------------------


def _rel_err(value: float, expected: float) -> float:
    return abs(value - expected) / abs(expected)


def check_sweep(csv_text: str, sweep: str, trials: int, moments: EnsembleMoments) -> list:
    """Check one sweep CSV against the closed forms and the chi-square band."""
    spec = w.SWEEPS[sweep]
    num = w.NUMEROLOGY
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    missing = [c for c in SWEEP_COLUMNS if rows and c not in rows[0]]
    if missing or len(rows) != len(spec["snr_db"]):
        return [f"{sweep}: expected {len(spec['snr_db'])} rows with columns "
                f"{SWEEP_COLUMNS}, got {len(rows)} rows, missing {missing}"]
    problems = []
    lo, hi = rmse_ratio_band(trials)
    for row, snr_db in zip(rows, spec["snr_db"]):
        r = {c: float(row[c]) for c in SWEEP_COLUMNS}
        where = f"{sweep} at {snr_db:g} dB"
        if r["snr_db"] != snr_db:
            problems.append(f"{where}: snr_db column reads {r['snr_db']}")
        crb_ran = periodic_crb_range_m2(num, *spec["strides"], snr_db)
        crb_vel = periodic_crb_vel_m2s2(num, *spec["strides"], snr_db)
        if _rel_err(r["sqrt_crb_ran_m"], math.sqrt(crb_ran)) > REL_EXACT:
            problems.append(f"{where}: sqrt_crb_ran_m {r['sqrt_crb_ran_m']} "
                            f"!= closed form {math.sqrt(crb_ran)}")
        ecrb = moments.ecrb(crb_vel)
        if abs(r["ecrb_vel_ms"] - ecrb) > moments.ecrb_tolerance(crb_vel, w.ECRB_DRAWS):
            problems.append(f"{where}: ecrb_vel_ms {r['ecrb_vel_ms']} != "
                            f"independent ensemble mean {ecrb}")
        if r["valid_trial_fraction"] != 1.0:
            problems.append(f"{where}: valid_trial_fraction {r['valid_trial_fraction']} != 1")
        for column, bound in (("rmse_range_m", math.sqrt(crb_ran)), ("rmse_vel_ms", ecrb)):
            ratio = r[column] / bound
            if not lo <= ratio <= hi:
                problems.append(f"{where}: {column}/bound = {ratio:.4f} outside "
                                f"[{lo:.4f}, {hi:.4f}] for {trials} trials")
    return problems


def check_bound_pass(out: dict, batch: list, moments: EnsembleMoments) -> list:
    """Check one bound pass: table rows, rate rows and the arbitrary batch."""
    problems = []
    num = w.NUMEROLOGY
    table = out["table"]
    if [tuple(r[:2]) for r in table] != list(w.TABLE_PAIRS):
        problems.append(f"table: stride pairs {[r[:2] for r in table]}")
    for n_p, m_p, count, sqrt_crb_ran, ecrb_vel in table:
        big_k = (num["n_subcarriers"] - 1) // n_p
        big_l = (num["n_symbols"] - 1) // m_p
        if count != (big_k + 1) * (big_l + 1):
            problems.append(f"table ({n_p}, {m_p}): pilot_count {count}")
        crb_ran = periodic_crb_range_m2(num, n_p, m_p, w.TABLE_SNR_DB)
        if _rel_err(sqrt_crb_ran, math.sqrt(crb_ran)) > REL_EXACT:
            problems.append(f"table ({n_p}, {m_p}): sqrt_crb_ran_m {sqrt_crb_ran} "
                            f"!= closed form {math.sqrt(crb_ran)}")
        crb_vel = periodic_crb_vel_m2s2(num, n_p, m_p, w.TABLE_SNR_DB)
        ecrb = moments.ecrb(crb_vel)
        if abs(ecrb_vel - ecrb) > moments.ecrb_tolerance(crb_vel, w.TABLE_DRAWS):
            problems.append(f"table ({n_p}, {m_p}): ecrb_vel_ms {ecrb_vel} != "
                            f"independent ensemble mean {ecrb}")
    if [r[0] for r in out["rates"]] != list(w.RATE_RHOS):
        problems.append(f"rates: overheads {[r[0] for r in out['rates']]}")
    for rho, rate in out["rates"]:
        expected = rate_bps(num, rho, w.RATE_SNR_DB)
        if abs(rate - expected) > 1e-12 * max(abs(expected), 1.0):
            problems.append(f"rates: rho {rho} gives {rate} bit/s, formula {expected}")
    if len(out["arbitrary"]) != len(batch):
        problems.append(f"arbitrary: {len(out['arbitrary'])} results for {len(batch)} patterns")
    for i, ((cells, snr_db), got) in enumerate(zip(batch, out["arbitrary"])):
        expected = jacobian_crb(cells, snr_db, w.BATCH_NUMEROLOGY)
        for name, value, ref in zip(("crb_ran_m2", "crb_vel_ms2"), got, expected):
            if _rel_err(value, ref) > REL_JACOBIAN:
                problems.append(f"arbitrary pattern {i} ({len(cells)} cells): "
                                f"{name} {value} != Jacobian route {ref}")
    return problems
