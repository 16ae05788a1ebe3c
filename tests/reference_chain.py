"""References for the tests to compare the program against.

``dense_maximum`` is the brute-force maximum of the continuous periodogram:
Newton's method from every local maximum of a dense surface, the best
result. ``reference_estimate`` is the receiver rebuilt on it and on the
``periodogram_2d`` surface. ``reference_trial`` is a sweep trial rebuilt on
full N x M frames, whose pilots are drawn as the trial block draws them.
``block_trials`` is each trial of a block as ``simulate_trial`` returns it.
``ground_truth`` and ``invert`` are the geometry in scalar ``math``, the
reference of the column kernels ``geometry._truth_columns`` and
``geometry._invert_columns``.
"""

import math

import numpy as np

from bisac import (
    SPEED_OF_LIGHT,
    GeometryError,
    PeriodogramConfig,
    SensingChannelParams,
    SensingGroundTruth,
    channel_response,
    estimate,
    ls_channel_estimate,
    periodogram_2d,
)
from bisac.estimator import _centred, _estimate_grids, _moments, _newton
from bisac.geometry import DEGENERATE_EPS
from bisac.harness import _TRIAL_STREAM, _trial_block, _trial_seed
from bisac.sim import _QPSK


def ground_truth(tx_pos, rx_pos, target_pos, speed, delta, carrier_hz):
    """The SensingGroundTruth of a scenario with these fields, one ``math``
    call per step; raises GeometryError for a degenerate one."""
    (tx_x, tx_y), (rx_x, rx_y), (x, y) = tx_pos, rx_pos, target_pos
    d_tx = math.hypot(x - tx_x, y - tx_y)
    d_rx = math.hypot(x - rx_x, y - rx_y)
    baseline = math.hypot(tx_x - rx_x, tx_y - rx_y)
    if min(d_tx, d_rx, baseline) < DEGENERATE_EPS:
        raise GeometryError(
            f"degenerate geometry: pairwise distance below {DEGENERATE_EPS} m "
            f"(d_tx={d_tx:.3g}, d_rx={d_rx:.3g}, D={baseline:.3g})"
        )
    cos_beta = (d_tx**2 + d_rx**2 - baseline**2) / (2.0 * d_tx * d_rx)
    beta = math.acos(min(1.0, max(-1.0, cos_beta)))

    cos_theta = ((x - rx_x) * (tx_x - rx_x) + (y - rx_y) * (tx_y - rx_y)) / (d_rx * baseline)
    theta = math.acos(min(1.0, max(-1.0, cos_theta)))

    d_bis = d_tx + d_rx
    v_bis = speed * math.cos(delta)
    tau = d_bis / SPEED_OF_LIGHT
    f_d = 2.0 * v_bis * math.cos(beta / 2.0) / (SPEED_OF_LIGHT / carrier_hz)
    return SensingGroundTruth(
        d_bis=d_bis, v_bis=v_bis, tau=tau, f_d=f_d, beta=beta, theta=theta
    )


def scenario_truth(scenario):
    """``ground_truth`` of a BistaticScenario."""
    return ground_truth(scenario.tx_pos, scenario.rx_pos, scenario.target_pos,
                        scenario.speed, scenario.delta, scenario.carrier_hz)


def invert(d_bis, baseline, theta):
    """(d_rx, beta, clamped) of a bistatic range, one ``math`` call per step:
    the receiver leg of the ellipse, the bistatic angle of the two legs by the
    law of cosines, its cosine clipped to [-1, 1], and whether the clipping
    was needed; raises GeometryError where the inversion fails."""
    if baseline < 0:
        raise GeometryError("baseline must be nonnegative")
    if d_bis <= baseline:
        raise GeometryError(
            f"bistatic range {d_bis:.6g} m does not exceed baseline {baseline:.6g} m"
        )
    denom = d_bis - baseline * math.cos(theta)
    if denom <= 0:
        raise GeometryError("nonpositive ellipse denominator")
    d_rx = (d_bis**2 - baseline**2) / (2.0 * denom)
    d_tx = d_bis - d_rx
    if d_tx <= 0 or d_rx <= 0:
        raise GeometryError("nonpositive leg after bistatic-range inversion")
    arg = (d_tx**2 + d_rx**2 - baseline**2) / (2.0 * d_tx * d_rx)
    clamped = bool(arg < -1.0 or arg > 1.0)
    return d_rx, math.acos(min(1.0, max(-1.0, arg))), clamped


def dense_maximum(grid, padding=8):
    """The local maxima of P = |sum_kl H[k, l] exp(j (k theta - l phi))|^2 of a
    pilot grid, centred indices k and l, reached by Newton's method from the
    local maxima of P on a grid at least ``padding`` times as dense as the
    pilots per axis: their (theta, phi) in [0, 2 pi) and P, the largest first.

    Only the local maxima of the samples above 0.8 of the largest sample
    start Newton: with 8-fold padding the sample nearest to the global
    maximum m holds at least cos(pi / 8)^2 m > 0.85 m (the Bernstein-Szegő
    inequality along each axis). An axis of 2 to 7 pilots takes 64 samples,
    as for 8 pilots: the lobes of a small grid are broad, and Newton's method
    from a sample as far out as 16 per axis allow may not converge (from the
    saddle between the mirrored maxima of a real 2 x 2 grid and all its
    neighbours, say). Returns None for a surface that is flat, zero or not
    finite.
    """
    rows, cols = grid.shape
    sizes = [1 << (padding * max(n, 8) - 1).bit_length() if n > 1 else 1 for n in (rows, cols)]
    surface = periodogram_2d(grid, PeriodogramConfig(*sizes))
    top = surface.max()
    if not np.isfinite(top) or top - surface.min() <= 1e-12 * top:
        return None
    local = surface >= 0.8 * top
    for shift in ((1, 0), (-1, 0), (0, 1), (-1, 1), (1, 1), (0, -1), (1, -1), (-1, -1)):
        local &= surface >= np.roll(surface, shift, axis=(0, 1))
    cells = np.argwhere(local)
    points, moved = _climb(grid, cells * (2 * np.pi / np.array(sizes)), sizes)
    if not moved.all():
        # a sample on a saddle (a mirror point of a real grid, say) stays there:
        # start again from its neighbours
        near = (cells[~moved][:, None] + np.array([[a, b] for a in (-1, 0, 1)
                                                   for b in (-1, 0, 1)])) % sizes
        again, still = _climb(grid, near.reshape(-1, 2) * (2 * np.pi / np.array(sizes)), sizes)
        points, moved = np.r_[points[moved], again], np.r_[moved[moved], still]
    points = points[moved] if moved.any() else points
    power = np.abs(_moments(np.broadcast_to(grid, (len(points),) + grid.shape), points,
                            *_centred(rows, cols), 1)[:, 0, 0]) ** 2
    order = np.argsort(-power, kind="stable")
    return points[order] % (2 * np.pi), power[order]


def _climb(grid, starts, sizes):
    """Newton's method on ``grid`` from each start; (points, moved flags)."""
    stack = np.ascontiguousarray(np.broadcast_to(grid, (len(starts),) + grid.shape))
    return _newton(stack, starts, 4 * np.pi / np.array(sizes))


def bracket_bins(grid, point, config):
    """The largest of the ``periodogram_2d`` samples on the four (fft_n, fft_m)
    grid points around ``point`` (the first in row-major order on ties): its
    bins, the offsets in bins from them to ``point`` and its P."""
    surface = periodogram_2d(grid, config)
    sizes = np.array([config.fft_n, config.fft_m])
    frac = point * sizes / (2 * np.pi)
    corners = [(int(np.floor(frac[0])) + a, int(np.floor(frac[1])) + b)
               for a in (0, 1) for b in (0, 1)]
    best = max(sorted(corners, key=lambda c: (c[0] % sizes[0], c[1] % sizes[1])),
               key=lambda c: surface[c[0] % sizes[0], c[1] % sizes[1]])
    bins = (best[0] % config.fft_n, best[1] % config.fft_m)
    return bins, tuple((frac - best).tolist()), float(surface[bins])


def reference_estimate(received, frame, pattern, num, config, baseline, theta):
    """The receiver on the dense maximum and the ``periodogram_2d`` surface:
    the fields of its EstimationResult, or the text of its GeometryError.
    Only for grids whose maximum is unique (``dense_maximum`` not None)."""
    n_p, m_p = pattern.periodic_strides()
    grid = ls_channel_estimate(received, frame, pattern)
    (b_r, b_v), (off_r, off_v), power = bracket_bins(grid, dense_maximum(grid)[0][0], config)
    if not config.interpolate:
        off_r = off_v = 0.0
    tau_hat = ((b_r + off_r) % config.fft_n) / (n_p * num.subcarrier_spacing_hz * config.fft_n)
    signed_bin = b_v - config.fft_m if b_v + off_v > config.fft_m / 2 else b_v
    f_d_hat = (signed_bin + off_v) / (m_p * num.symbol_duration_s * config.fft_m)
    d_bis_hat = SPEED_OF_LIGHT * tau_hat
    try:
        d_rx_hat, beta_hat, clamped = invert(float(d_bis_hat), baseline, theta)
    except GeometryError as exc:
        return str(exc)
    v_bis_hat = f_d_hat * num.wavelength / (2.0 * np.cos(beta_hat / 2.0))
    return dict(
        tau_hat=float(tau_hat), f_d_hat=float(f_d_hat), d_bis_hat=float(d_bis_hat),
        v_bis_hat=float(v_bis_hat), d_rx_hat=float(d_rx_hat), beta_hat=float(beta_hat),
        beta_clamped=clamped, peak_power=power, peak_bins=(b_r, b_v),
        fractional_offsets=(off_r, off_v), refine_fallback=False,
    )


def reference_trial(config, snr_idx, trial_idx):
    """Trial ``trial_idx`` of SNR point ``snr_idx`` of a sweep: (pilot grid,
    outcome, (sq_err_d, sq_err_v, valid)), the outcome being the fields of
    ``estimate`` on full frames or the text of its GeometryError.

    The trial's generator draws the scenario, then the QPSK indices and the
    two standard normal noise components of the (K+1, L+1) pilot cells. The
    pilots and their received values go onto their cells of N x M frames
    whose other cells are zero, and ``estimate`` runs on those.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, _TRIAL_STREAM, snr_idx, trial_idx]))
    scenario = config.ensemble.sample(rng)
    truth = scenario_truth(scenario)
    params = SensingChannelParams.from_snr_db(
        config.snr_grid_db[snr_idx], tau=truth.tau, f_d=truth.f_d)
    n_p, m_p = config.pattern.periodic_strides()
    shape = tuple(c + 1 for c in config.pattern.periodic_counts())
    symbols = _QPSK[rng.integers(0, 4, size=shape)]
    received = channel_response(params, config.numerology)[::n_p, ::m_p] * symbols
    if params.noise_var > 0:
        re, im = (rng.standard_normal(shape) for _ in range(2))
        received = received + np.sqrt(params.noise_var / 2.0) * (re + 1j * im)
    grid_shape = (config.numerology.n_subcarriers, config.numerology.n_symbols)
    frame, frame_received = np.zeros(grid_shape, complex), np.zeros(grid_shape, complex)
    frame[::n_p, ::m_p], frame_received[::n_p, ::m_p] = symbols, received
    grid = received / symbols
    try:
        outcome = vars(estimate(frame_received, frame, config.pattern, config.numerology,
                                config.fft, scenario.baseline, truth.theta))
    except GeometryError as exc:
        return grid, str(exc), (math.nan, math.nan, False)
    err_d = outcome["d_bis_hat"] - truth.d_bis
    err_v = outcome["v_bis_hat"] - truth.v_bis
    return grid, outcome, (err_d**2, err_v**2, True)


def block_trials(config, runs):
    """(truth, grid, outcome) of each trial of ``_trial_block(config, runs)``,
    as ``simulate_trial`` returns it: one ``_estimate_grids`` pass over the
    block's stack, the truths built from the block's columns, and for a
    degenerate draw no truth and the GeometryError of ``ground_truth`` on
    the trial's draw."""
    (columns, degenerate, _), grids = _trial_block(config, runs)
    outcomes = _estimate_grids(grids, config.pattern, config.numerology, config.fft,
                               config.ensemble.baseline, columns[5])
    keys = [(snr_idx, trial) for snr_idx, start, stop in runs for trial in range(start, stop)]
    trials = []
    for key, values, failed, grid, outcome in zip(keys, columns.T.tolist(), degenerate,
                                                 grids, outcomes):
        if failed:
            rng = np.random.default_rng(_trial_seed(config.seed, *key))
            try:
                scenario_truth(config.ensemble.sample(rng))
            except GeometryError as exc:
                outcome = exc
            trials.append((None, grid, outcome))
        else:
            trials.append((SensingGroundTruth(*values), grid, outcome))
    return trials
