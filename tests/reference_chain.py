"""The receiver and the sweep trial rebuilt from the full surface, for the
tests to compare the program against: ``periodogram_2d`` and ``np.argmax``
give the peak bins, not the program's peak search."""

import math

import numpy as np

from bisac import (
    SPEED_OF_LIGHT,
    GeometryError,
    SensingChannelParams,
    beta_from_estimates,
    channel_response,
    invert_bistatic_range,
    ls_channel_estimate,
    periodogram_2d,
    sample_scenario,
)
from bisac.estimator import _refine
from bisac.harness import _TRIAL_STREAM
from bisac.sim import _qpsk


def reference_estimate(received, frame, pattern, num, config, baseline, theta):
    """The receiver on the full surface: periodogram_2d, np.argmax, then the
    refinement of those bins. Returns the fields of the EstimationResult."""
    n_p, m_p = pattern.periodic_strides()
    grid = ls_channel_estimate(received, frame, pattern)
    surface = periodogram_2d(grid, config)
    b_r, b_v = (int(b) for b in np.unravel_index(np.argmax(surface), surface.shape))
    offsets, power, kept = _refine(grid[None], [(b_r, b_v)], config)
    off_r, off_v = offsets[0].tolist()
    # the refinement's power at the bins is the surface value up to rounding
    scale = np.abs(grid).sum() ** 2
    assert abs(power[0] - surface[b_r, b_v]) <= 1e-12 * scale
    tau_hat = ((b_r + off_r) % config.fft_n) / (n_p * num.subcarrier_spacing_hz * config.fft_n)
    signed_bin = b_v - config.fft_m if b_v > config.fft_m // 2 else b_v
    f_d_hat = (signed_bin + off_v) / (m_p * num.symbol_duration_s * config.fft_m)
    d_bis_hat = SPEED_OF_LIGHT * tau_hat
    d_rx_hat = invert_bistatic_range(d_bis_hat, baseline, theta)
    beta_hat, clamped = beta_from_estimates(d_bis_hat, baseline, theta)
    v_bis_hat = f_d_hat * num.wavelength / (2.0 * np.cos(beta_hat / 2.0))
    return dict(
        tau_hat=float(tau_hat), f_d_hat=float(f_d_hat), d_bis_hat=float(d_bis_hat),
        v_bis_hat=float(v_bis_hat), d_rx_hat=float(d_rx_hat), beta_hat=float(beta_hat),
        beta_clamped=clamped, peak_power=float(power[0]),
        peak_bins=(b_r, b_v), fractional_offsets=(off_r, off_v), refine_fallback=kept[0],
    )


def reference_trial(config, snr_idx, trial_idx):
    """Trial ``trial_idx`` of SNR point ``snr_idx`` of a sweep: (pilot grid,
    outcome, (sq_err_d, sq_err_v, valid)), the outcome being the fields of
    ``reference_estimate`` or the text of its GeometryError.

    The trial's generator draws the scenario, then the QPSK indices and the
    two standard normal noise components of the (K+1, L+1) pilot cells. The
    pilots and their received values go onto their cells of N x M frames
    whose other cells are zero, and ``reference_estimate`` runs on those.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, _TRIAL_STREAM, snr_idx, trial_idx]))
    scenario, truth = sample_scenario(config.ensemble, rng)
    params = SensingChannelParams.from_snr_db(
        config.snr_grid_db[snr_idx], tau=truth.tau, f_d=truth.f_d)
    n_p, m_p = config.pattern.periodic_strides()
    shape = tuple(c + 1 for c in config.pattern.periodic_counts())
    symbols = _qpsk(rng.integers(0, 4, size=shape))
    received = channel_response(params, config.numerology)[::n_p, ::m_p] * symbols
    if params.noise_var > 0:
        re, im = (rng.standard_normal(shape) for _ in range(2))
        received = received + np.sqrt(params.noise_var / 2.0) * (re + 1j * im)
    grid_shape = (config.numerology.n_subcarriers, config.numerology.n_symbols)
    frame, frame_received = np.zeros(grid_shape, complex), np.zeros(grid_shape, complex)
    frame[::n_p, ::m_p], frame_received[::n_p, ::m_p] = symbols, received
    grid = received / symbols
    try:
        outcome = reference_estimate(frame_received, frame, config.pattern, config.numerology,
                                     config.fft, scenario.baseline, truth.theta)
    except GeometryError as exc:
        return grid, str(exc), (math.nan, math.nan, False)
    err_d = outcome["d_bis_hat"] - truth.d_bis
    err_v = outcome["v_bis_hat"] - truth.v_bis
    return grid, outcome, (err_d**2, err_v**2, True)
