"""Pilot-based delay-Doppler receiver.

Least-squares channel estimates on the periodic pilot subgrid, the
global peak of the zero-padded 2-D periodogram over that subgrid, guarded
Newton refinement of that peak on the continuous periodogram, and
conversion of the refined peak to bistatic range, velocity and
receiver-leg distance.

The peak search (``peak_search``; its docstring gives the method) is exact
without building the periodogram: its bins equal the argmax of
``periodogram_2d``, which stays as the reference and for surface dumps.
``refine_peak`` is the three-point parabola on such a surface; ``estimate``
refines on the LS grid instead (``_refine``).

Transform sign conventions: the subcarrier (delay) axis uses the
positive-exponent kernel so a delay tau peaks at bin
tau * n_p * df * fft_n, and the symbol (Doppler) axis uses the
negative-exponent kernel so a Doppler f_d peaks at bin
f_d * m_p * T_s * fft_m (mod fft_m). Doppler bins are read on the signed
interval (-fft_m/2, fft_m/2]; delay estimates live in [0, unambiguous
span) since delays are physically nonnegative.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    SPEED_OF_LIGHT, GeometryError, _checked, beta_from_estimates, invert_bistatic_range,
)
from .ofdm import OfdmNumerology
from .pilots import PilotPattern

# Multiply-adds per matrix product on the trial path. OpenBLAS 0.3.31 ran a
# complex 36 x 35 @ 35 x 50 product (63000) on one thread and a 40 x 35 one
# (70000) on two, which took 8-16 ms instead of 20 us in some calls.
_BLAS_MNK = 2**15

# The refinement (see _refine) stops a trial after a step shorter than
# _NEWTON_TOL bins, and every trial after _NEWTON_STEPS steps.
_NEWTON_STEPS = 6
_NEWTON_TOL = 1e-6

@dataclass(frozen=True)
class PeriodogramConfig:
    """FFT sizes (powers of two, default the desk profile's) and the switch of
    the Newton refinement (``interpolate``)."""

    fft_n: int = 1024
    fft_m: int = 1024
    interpolate: bool = True

    def __post_init__(self):
        for name, kind in (("fft_n", int), ("fft_m", int), ("interpolate", bool)):
            object.__setattr__(self, name, _checked(getattr(self, name), kind, name))
        for size, name in ((self.fft_n, "fft_n"), (self.fft_m, "fft_m")):
            if size < 1 or size & (size - 1):
                raise ValueError(f"{name} must be a power of two, got {size}")

    def check_covers(self, rows: int, cols: int) -> None:
        """Raise ValueError unless the FFT sizes cover a rows x cols pilot grid."""
        if self.fft_n < rows or self.fft_m < cols:
            raise ValueError(
                f"FFT sizes ({self.fft_n}, {self.fft_m}) smaller than the "
                f"pilot grid ({rows}, {cols})"
            )


@dataclass(frozen=True)
class EstimationResult:
    """Outputs of one estimation pass.

    peak_bins are the integer argmax coordinates on the power surface,
    peak_power the periodogram there, and fractional_offsets the Newton
    refinement applied to them, within one bin per axis.
    refine_fallback flags a refinement that kept the bins: a Hessian of
    the log periodogram that is not negative definite (a flat neighbourhood
    included) or a step beyond one bin; it is False when interpolation is
    off. A grid of one pilot row (column) refines the Doppler (delay) axis
    alone; the other keeps its bin without the flag.
    beta_clamped flags a degenerate bistatic-angle inversion.
    """

    tau_hat: float
    f_d_hat: float
    d_bis_hat: float
    v_bis_hat: float
    d_rx_hat: float
    beta_hat: float
    beta_clamped: bool
    peak_power: float
    peak_bins: tuple
    fractional_offsets: tuple
    refine_fallback: bool

    def to_json_dict(self) -> dict:
        return {
            "tau_hat_s": self.tau_hat,
            "f_d_hat_hz": self.f_d_hat,
            "d_bis_hat_m": self.d_bis_hat,
            "v_bis_hat_ms": self.v_bis_hat,
            "d_rx_hat_m": self.d_rx_hat,
            "beta_hat_rad": self.beta_hat,
            "beta_clamped": self.beta_clamped,
            "peak_power": self.peak_power,
            "peak_bins": list(self.peak_bins),
            "fractional_offsets": list(self.fractional_offsets),
            "refine_fallback": self.refine_fallback,
        }


def ls_channel_estimate(
    received: np.ndarray, transmitted: np.ndarray, pattern: PilotPattern
) -> np.ndarray:
    """Per-pilot least-squares channel estimates on the periodic subgrid.

    Returns the (K+1, L+1) grid Y[k n_p, l m_p] / X[k n_p, l m_p] of the
    N x M complex received grid Y and transmitted grid X. With unit-modulus
    pilots the division is a pure rotation, so the noise on each estimate
    keeps its variance.
    """
    n_p, m_p = pattern.periodic_strides()
    if received.shape != transmitted.shape:
        raise ValueError("received and transmitted grids differ in shape")
    if received.shape != (pattern.n_grid, pattern.m_grid):
        raise ValueError("grids do not match the pattern dimensions")
    return _ls_divide(received[::n_p, ::m_p], transmitted[::n_p, ::m_p])


def _ls_divide(received: np.ndarray, pilots: np.ndarray) -> np.ndarray:
    """Least-squares estimates ``received / pilots`` of pilot values, any shape."""
    if np.abs(pilots).min() < 1.0 - 1e-9:
        raise ValueError("pilot symbol modulus below unity")
    return received / pilots


def _grid_shape(pilot_grid: np.ndarray, config: PeriodogramConfig) -> tuple:
    """(rows, cols) of a pilot grid or stack; raises unless ``config`` covers them."""
    rows, cols = pilot_grid.shape[-2:]
    if rows < 1 or cols < 1:
        raise ValueError("empty pilot grid")
    config.check_covers(rows, cols)
    return rows, cols


def _delay_stage(pilot_grid: np.ndarray, config: PeriodogramConfig) -> np.ndarray:
    """Positive-exponent delay-axis transform, zero-padded: shape (..., fft_n, cols).

    Each grid of a stack (..., rows, cols) transforms as it would alone. The
    result is a transposed view of a (..., cols, fft_n) array.
    """
    _grid_shape(pilot_grid, config)
    return np.swapaxes(_padded_fft(np.swapaxes(pilot_grid, -1, -2), config.fft_n, True), -1, -2)


def _padded_fft(lines: np.ndarray, n: int, inverse: bool) -> np.ndarray:
    """Unscaled n-point FFT along the last axis of ``lines``, zero-padded to n:
    ``np.fft.ifft(lines, n, norm="forward")`` if ``inverse``, else
    ``np.fft.fft(lines, n)``, bit for bit (NaN payloads aside).

    Transforming a zero-padded copy in place takes about half the time of
    padding inside ``np.fft`` (numpy 2.4: 1.4 against 2.6 ms for 50 lines
    of 35 points at n = 4096).
    """
    padded = np.zeros(lines.shape[:-1] + (n,), complex)
    padded[..., :lines.shape[-1]] = lines
    if inverse:
        return np.fft.ifft(padded, norm="forward", out=padded)
    return np.fft.fft(padded, out=padded)


def _doppler_power(stage: np.ndarray, rows, fft_m: int) -> np.ndarray:
    """Negative-exponent Doppler-axis transform of the given delay rows, squared."""
    spectrum = _padded_fft(stage[rows], fft_m, False)
    return spectrum.real**2 + spectrum.imag**2


def periodogram_2d(pilot_grid: np.ndarray, config: PeriodogramConfig) -> np.ndarray:
    """Zero-padded 2-D periodogram of the pilot-subgrid channel estimates.

    Positive-exponent transform along the delay axis, negative-exponent
    along the Doppler axis; returns squared magnitude, shape
    (fft_n, fft_m). The reference for ``peak_search``.
    """
    return _doppler_power(_delay_stage(pilot_grid, config), slice(None), config.fft_m)


def peak_search(pilot_grid: np.ndarray, config: PeriodogramConfig) -> tuple:
    """Peak bins of ``periodogram_2d(pilot_grid, config)`` without building it.

    Returns ``(b_r, b_v)``, equal to
    ``np.unravel_index(np.argmax(surface), surface.shape)``, ties and NaN
    included.

    The search bounds cells of delay rows on a coarse delay transform S_c
    of ``F_c`` points, the smallest power of two at least twice the grid's
    K + 1 rows. Coarse row c stands for the cell of ``R = fft_n / F_c``
    fine rows ``c R - R/2 .. c R + R/2 - 1``, each within half a coarse bin
    of it, so that for the fine delay stage S and the grid H

        |S(u, l)| <= |S_c(c, l)| + (pi / F_c) sum_k |k - K/2| |H[k, l]|

    and the squared column sum of the right side, with a 1e-9 rounding
    slack, bounds every surface value of the cell. Coarse row c is surface
    row c R, so the Doppler maximum of the highest-bound coarse row is a
    surface value; only the cells whose bound reaches it are kept. Their
    delay rows come from a direct DFT of the grid (``_dft_rows``). The DFT
    rows differ from the FFT rows of ``periodogram_2d`` by rounding, so the
    search keeps their peak only when a rounding slack (``_dft_slack``)
    separates it from every other value; otherwise it takes every row of
    the full delay stage.

    When ``R < 4``, or when the kept cells would cover more than a quarter
    of ``fft_n`` (noise-only, tied, NaN and single-row grids), the search
    takes every row of the full delay stage too. The FFT rows of the full
    stage finish in one row search: no Doppler bin of delay row u
    exceeds ``(sum_l |S(u, l)|)**2`` (triangle inequality), so only the
    rows whose bound reaches the Doppler maximum of the highest-bound row
    are transformed along the Doppler axis, in ascending order, which
    keeps the first-occurrence tie rule.

    Every transform runs in complex128, whatever the grid's dtype.
    """
    return _peak_searches(pilot_grid[None], config)[0]


def _peak_searches(pilot_grids: np.ndarray, config: PeriodogramConfig) -> list:
    """``peak_search`` of each grid of a stack (trials, rows, cols)."""
    rows, _ = _grid_shape(pilot_grids, config)
    # complex128 throughout: the 1e-9 slacks of the bounds assume float64
    pilot_grids = np.asarray(pilot_grids, complex)
    if config.fft_n < 4 * _coarse_size(rows):
        return [_row_peak(stage, None, config) for stage in _delay_stage(pilot_grids, config)]
    peaks, slack = [], _dft_slack(rows, config)
    for grid in pilot_grids:
        fine = _coarse_rows(grid, config)
        if fine is None:
            peaks.append(_row_peak(_delay_stage(grid, config), None, config))
        else:
            # the DFT rows' amplitudes lie within delta of the FFT's
            delta = slack * np.abs(grid).sum()
            peaks.append(_row_peak(_dft_rows(grid, fine, config), fine, config, delta)
                         or _row_peak(_delay_stage(grid, config), None, config))
    return peaks


def _coarse_size(rows: int) -> int:
    """F_c: the smallest power of two at least twice the grid's rows."""
    return 1 << (2 * rows - 1).bit_length()


def _coarse_stage(pilot_grid: np.ndarray, coarse_n: int) -> tuple:
    """The coarse delay stage of ``coarse_n`` points and the bound
    ``(sum_l |S_c(c, l)| + slack)**2`` on every surface value of each of its cells."""
    rows = pilot_grid.shape[0]
    lines = _padded_fft(pilot_grid.T, coarse_n, True)
    lever = np.abs(np.arange(rows) - (rows - 1) / 2.0) * (np.pi / coarse_n)
    slack = lever @ np.abs(pilot_grid).sum(axis=1)
    return lines.T, (np.abs(lines).sum(axis=0) + slack) ** 2 * (1.0 + 1e-9)


def _coarse_rows(pilot_grid: np.ndarray, config: PeriodogramConfig):
    """The delay rows of the cells whose bound reaches the Doppler maximum of
    the highest-bound coarse row, ascending; None when those cells cover more
    than a quarter of fft_n."""
    coarse, cell_bound = _coarse_stage(pilot_grid, _coarse_size(pilot_grid.shape[0]))
    # coarse row c is surface row c * cell; the negation keeps the cells of a
    # NaN bound or maximum
    best = _doppler_power(coarse, [int(np.argmax(cell_bound))], config.fft_m).max()
    cells = np.flatnonzero(~(cell_bound < best))
    if cells.size > cell_bound.size // 4:
        return None
    cell = config.fft_n // cell_bound.size
    rows = np.zeros(config.fft_n, bool)
    rows[(cells[:, None] * cell + np.arange(-(cell // 2), cell - cell // 2)) % config.fft_n] = 1
    return np.flatnonzero(rows)


def _dft_rows(pilot_grid: np.ndarray, fine: np.ndarray, config: PeriodogramConfig
              ) -> np.ndarray:
    """Rows ``fine`` of the delay stage by a direct DFT of the grid: they differ
    from the FFT rows of ``_delay_stage`` by rounding alone (see ``_dft_slack``)."""
    twiddles = _roots_of_unity(config.fft_n)[np.outer(fine, np.arange(pilot_grid.shape[0]))
                                             % config.fft_n]
    return _small_matmul(twiddles, pilot_grid)


def _dft_slack(rows: int, config: PeriodogramConfig) -> float:
    """Bound, per unit of ``sum |H|`` of a grid of ``rows`` rows, on how far a
    surface amplitude computed from ``_dft_rows`` lies from that of
    ``periodogram_2d`` (measured at most 4.8e-16 on 300 random grids of up to
    70 x 60 cells at fft sizes up to 4096 x 4096; this bound is 3.4e-12 at
    35 rows and 4096 x 4096).

    With unit roundoff u and gamma_k = k u / (1 - k u) (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 2002):

    - a root of unity of ``_roots_of_unity`` is within (4 pi + 2) u of the
      exact one (np.pi and the product with the index move the angle by up
      to 4 pi u, and exp by u per part);
    - each DFT row entry is a complex dot product of ``rows`` terms, within
      sqrt(2) gamma_{rows + 2} sum_k |H[k, l]| of the exact (Sec. 3.6);
    - an n-point FFT of x is within e_n ||F x||_2 = e_n sqrt(n) ||x||_2
      <= e_n sqrt(n) ||x||_1 of the exact, entry by entry, with
      e_n = log2(n) eta / (1 - log2(n) eta), eta = u + gamma_4 (sqrt(2) + u)
      (Theorem 24.2, twiddles within u); eta is doubled here as a margin for
      the mixed radices of numpy's pocketfft.

    So the delay rows differ by at most
    a = sqrt(2) gamma_{rows + 2} + (4 pi + 2) u + e_fft_n sqrt(fft_n) per unit of
    sum_k |H[k, l]|, and the Doppler transforms of the two row sets, each
    within e_fft_m sqrt(fft_m) (1 + a) sum |H| of the exact transform of its
    own rows, add twice that. The margin ``_row_peak`` derives from the
    bound also covers the rounding of the squares, as sqrt(P) <= sum |H|.
    """
    u = 2.0**-53

    def gamma(k):
        return k * u / (1.0 - k * u)

    eta = 2.0 * (u + gamma(4) * (math.sqrt(2.0) + u))

    def fft_error(n):
        stages = n.bit_length() - 1
        return stages * eta / (1.0 - stages * eta) * math.sqrt(n)

    rows_error = (math.sqrt(2.0) * gamma(rows + 2) + (4.0 * math.pi + 2.0) * u
                  + fft_error(config.fft_n))
    return rows_error + 2.0 * fft_error(config.fft_m) * (1.0 + rows_error)


@functools.lru_cache(maxsize=8)
def _roots_of_unity(n: int) -> np.ndarray:
    """exp(2 pi j r / n) for r = 0 .. n - 1, read-only (the DFT rows index it)."""
    roots = np.exp((2j * np.pi / n) * np.arange(n))
    roots.flags.writeable = False
    return roots


def _small_matmul(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left @ right``, stacks included, a block of columns of ``right`` at a
    time: each block's product is small enough (``_BLAS_MNK`` multiply-adds per
    matrix) that OpenBLAS runs it on one thread."""
    step = max(1, _BLAS_MNK // (left.shape[-2] * left.shape[-1]))
    if step >= right.shape[-1]:
        return left @ right
    return np.concatenate([left @ right[..., start:start + step]
                           for start in range(0, right.shape[-1], step)], axis=-1)


def _row_peak(stage: np.ndarray, fine, config: PeriodogramConfig, delta: float = 0.0):
    """``peak_search`` from delay rows: row i of ``stage`` is delay row
    ``fine[i]``, or row i when ``fine`` is None (the full delay stage).
    Rows are bounded and pruned as ``peak_search`` describes; the 1e-9 slack
    covers FFT rounding.

    ``delta`` bounds how far each surface amplitude of ``stage`` may lie
    from the FFT's (0 for FFT rows), so a power p lies within
    ``margin = delta (2 sqrt(p) + delta)`` of it. With ``delta`` > 0 the
    peak p1 is returned only when ``p1 - margin`` exceeds both the runner-up
    plus ``margin`` and the bound of every row left untransformed: then it is
    the FFT surface's unique maximum over these rows. Otherwise None.
    """
    bound = (np.abs(stage).sum(axis=1) + delta) ** 2 * (1.0 + 1e-9)
    best = _doppler_power(stage, [int(np.argmax(bound))], config.fft_m).max()
    # written as a negation so that a NaN bound or NaN best keeps the row
    floor = best - delta * (2.0 * np.sqrt(best) + delta) if delta else best
    keep = ~(bound < floor)
    power = _doppler_power(stage, keep, config.fft_m).ravel()
    peak = int(np.argmax(power))
    if delta:
        top = power[peak]
        power[peak] = -np.inf
        margin = delta * (2.0 * np.sqrt(top) + delta)
        # a NaN anywhere fails the test
        if not top - margin > np.maximum(power.max() + margin,
                                         bound[~keep].max(initial=-np.inf)):
            return None
    row, b_v = divmod(peak, config.fft_m)
    row = np.flatnonzero(keep)[row]
    return int(row if fine is None else fine[row]), b_v


def _refine(pilot_grids: np.ndarray, bins: list, config: PeriodogramConfig) -> tuple:
    """Guarded Newton refinement of each grid's peak bins on the continuous periodogram.

    ``P(u, v) = |a(u)^T H b(v)|^2`` with ``a_k = exp(+2 pi j k u / fft_n)``
    and ``b_l = exp(-2 pi j l v / fft_m)`` is the surface of
    ``periodogram_2d`` at fractional bins (u, v). From the bins, each step
    solves the Hessian system of log P (``_newton_step``), until a step is
    shorter than ``_NEWTON_TOL`` bins or ``_NEWTON_STEPS`` were taken. A grid
    of one row (column) leaves P independent of u (v): that axis keeps its
    bin and the steps run on the other axis alone. A trial whose Hessian is
    not negative definite (a flat neighbourhood and a 1 x 1 grid included)
    or whose step leaves the square of one bin around the bins keeps the
    bins.
    Without ``config.interpolate`` no step is taken and no trial keeps its
    bins. P and its derivatives are computed for the whole stack at once,
    and each trial's steps depend on its own grid alone.

    Returns the offsets in bins (trials, 2), P at the bins (trials,) and the
    kept-bin flags.
    """
    rows, cols = pilot_grids.shape[-2:]
    # centred indices drop a common phase: P is unchanged and the moments stay small
    alpha = (np.arange(rows) - (rows - 1) / 2.0) * (2.0 * np.pi / config.fft_n)
    beta = (np.arange(cols) - (cols - 1) / 2.0) * (2.0 * np.pi / config.fft_m)
    axes = (1j * alpha, np.stack([alpha**0, alpha, alpha**2]),
            -1j * beta, np.stack([beta**0, beta, beta**2], axis=1))
    start = np.array(bins, float).reshape(-1, 2)
    m = _moments(pilot_grids, start, *axes)
    peak_power = m[:, 0, 0].real**2 + m[:, 0, 0].imag**2
    pos, kept = start.tolist(), [False] * len(start)
    active = list(range(len(start))) if config.interpolate else []
    for _ in range(_NEWTON_STEPS):
        moments, still = m.tolist(), []
        for t in active:
            (u0, v0), move = start[t], _newton_step(moments[t], rows > 1, cols > 1)
            u, v = (math.nan, math.nan) if move is None else (pos[t][0] + move[0],
                                                                pos[t][1] + move[1])
            # written so that a NaN step keeps the bins
            if not (abs(u - u0) <= 1.0 and abs(v - v0) <= 1.0):
                pos[t], kept[t] = [u0, v0], True
            else:
                pos[t] = [u, v]
                if max(abs(move[0]), abs(move[1])) >= _NEWTON_TOL:
                    still.append(t)
        active = still
        if not active:
            break
        m = _moments(pilot_grids, np.array(pos), *axes)
    return np.array(pos) - start, peak_power, kept


def _moments(pilot_grids, pos, j_alpha, alpha_pow, j_beta, beta_pow) -> np.ndarray:
    """m[t, p, q] = sum_kl alpha_k^p beta_l^q H[t, k, l] a_k b_l at (u, v) = pos[t]."""
    left = np.exp(pos[:, :1] * j_alpha)[:, None, :] * alpha_pow
    right = np.exp(pos[:, 1:] * j_beta)[:, :, None] * beta_pow
    return _small_matmul(left, pilot_grids) @ right


def _newton_step(m: list, on_u: bool, on_v: bool):
    """The Newton step (du, dv) towards the maximum of log P from the moments
    ``m[p][q]`` at a point, or None where the Hessian of log P is not negative
    definite (P = 0 and NaN moments included). Only the axes flagged
    ``on_u`` and ``on_v`` move: the step and the Hessian are those of log P
    restricted to them (None when neither is flagged).

    log P has the maximum of P and a wider concave region around it: for a
    separable P = f(u) g(v) the Hessian of P is indefinite wherever
    f'^2 / (f |f''|) + g'^2 / (g |g''|) > 1 (both axes half a bin off the
    peak at twice the padding), that of log P only where f or g is not
    log-concave.
    """
    (z, m01, m02), (m10, m11, _), (m20, _, _) = m
    # half the gradient and Hessian of P = |z|^2: z_u = j m10, z_v = -j m01,
    # z_uu = -m20, z_vv = -m02, z_uv = m11
    zc = z.conjugate()
    power = z.real * z.real + z.imag * z.imag
    if not power > 0.0:
        return None
    g_u, g_v = -(zc * m10).imag, (zc * m01).imag
    # (P / 2) times the Hessian of log P: half that of P less 2 g g^T / P
    h_uu = m10.real * m10.real + m10.imag * m10.imag - (zc * m20).real - 2.0 * g_u * g_u / power
    h_vv = m01.real * m01.real + m01.imag * m01.imag - (zc * m02).real - 2.0 * g_v * g_v / power
    if not on_u or not on_v:
        # the 1-D Newton step on the flagged axis
        g, h = (g_u, h_uu) if on_u else (g_v, h_vv)
        if not (on_u or on_v) or not h < 0.0:
            return None
        return (-g / h, 0.0) if on_u else (0.0, -g / h)
    h_uv = (zc * m11 - m10.conjugate() * m01).real - 2.0 * g_u * g_v / power
    det = h_uu * h_vv - h_uv * h_uv
    if not (h_uu < 0.0 and det > 0.0):
        return None
    return (h_uv * g_v - h_vv * g_u) / det, (h_uv * g_u - h_uu * g_v) / det


@dataclass(frozen=True)
class PeakRefinement:
    """Sub-bin offsets per axis; flat_axes flags a degenerate fit."""

    offsets: tuple
    flat_axes: tuple


def refine_peak(surface: np.ndarray, peak_bins: tuple) -> PeakRefinement:
    """Three-point parabolic interpolation through the peak, per axis.

    Neighbors are taken circularly (DFT periodicity). The offset on each
    axis is (P- - P+) / (2 (P- - 2 P0 + P+)), clipped to [-0.5, 0.5] and
    computed on the power surface. A flat neighborhood (vanishing
    curvature) yields offset 0 with the corresponding flag set.
    """
    offsets = []
    flats = []
    for axis, bin_idx in enumerate(peak_bins):
        size = surface.shape[axis]
        if axis == 0:
            line = surface[:, peak_bins[1]]
        else:
            line = surface[peak_bins[0], :]
        p_minus = line[(bin_idx - 1) % size]
        p_zero = line[bin_idx % size]
        p_plus = line[(bin_idx + 1) % size]
        denom = p_minus - 2.0 * p_zero + p_plus
        scale = abs(p_minus) + 2.0 * abs(p_zero) + abs(p_plus)
        if scale == 0.0 or abs(denom) <= 1e-12 * scale:
            offsets.append(0.0)
            flats.append(True)
        else:
            offsets.append(float(np.clip((p_minus - p_plus) / (2.0 * denom), -0.5, 0.5)))
            flats.append(False)
    return PeakRefinement(offsets=tuple(offsets), flat_axes=tuple(flats))


def estimate(
    received: np.ndarray,
    transmitted: np.ndarray,
    pattern: PilotPattern,
    numerology: OfdmNumerology,
    config: PeriodogramConfig,
    baseline: float,
    theta: float,
) -> EstimationResult:
    """Full receiver pass: LS estimates, periodogram peak, refinement, geometry.

    The peak bins are those of the full zero-padded periodogram, found by
    the exact ``peak_search``; with ``config.interpolate`` guarded Newton
    steps on the continuous periodogram of the LS grid refine them.

    ``baseline`` and ``theta`` are the known transmitter-receiver distance
    and angle of arrival used to invert the bistatic range.

    Raises:
        GeometryError: if the range estimate cannot be inverted
            (d_bis_hat <= baseline); callers count such trials as invalid.
    """
    pilot_grid = ls_channel_estimate(received, transmitted, pattern)
    (outcome,) = _estimate_grids(pilot_grid[None], pattern, numerology, config, baseline,
                                 [theta])
    if isinstance(outcome, GeometryError):
        raise outcome
    return outcome


def _estimate_grids(pilot_grids: np.ndarray, pattern: PilotPattern,
                    numerology: OfdmNumerology, config: PeriodogramConfig, baseline: float,
                    thetas) -> list:
    """``estimate`` of each LS pilot grid of a stack (trials, K+1, L+1), with its
    own ``theta``; a trial whose range cannot be inverted gets its GeometryError
    in place of a result. One refinement runs over the whole stack."""
    bins = _peak_searches(pilot_grids, config)
    offsets, powers, kept = _refine(pilot_grids, bins, config)
    outcomes = []
    for peak, offset, power, fallback, theta in zip(bins, offsets.tolist(), powers.tolist(),
                                                    kept, thetas):
        try:
            outcomes.append(_peak_estimate(peak, offset, power, fallback, pattern, numerology,
                                           config, baseline, theta))
        except GeometryError as exc:
            outcomes.append(exc)
    return outcomes


def _peak_estimate(peak: tuple, offsets: list, power: float, fallback: bool,
                   pattern: PilotPattern, numerology: OfdmNumerology,
                   config: PeriodogramConfig, baseline: float, theta: float
                   ) -> EstimationResult:
    """``estimate`` from the peak bins, their refinement and the power there;
    raises as ``estimate`` does."""
    n_p, m_p = pattern.periodic_strides()
    b_r, b_v = peak
    off_r, off_v = offsets

    df = numerology.subcarrier_spacing_hz
    ts = numerology.symbol_duration_s
    tau_hat = ((b_r + off_r) % config.fft_n) / (n_p * df * config.fft_n)
    signed_bin = b_v - config.fft_m if b_v > config.fft_m // 2 else b_v
    f_d_hat = (signed_bin + off_v) / (m_p * ts * config.fft_m)

    d_bis_hat = SPEED_OF_LIGHT * tau_hat
    d_rx_hat = invert_bistatic_range(d_bis_hat, baseline, theta)
    beta_hat, clamped = beta_from_estimates(d_bis_hat, baseline, theta)
    v_bis_hat = f_d_hat * numerology.wavelength / (2.0 * np.cos(beta_hat / 2.0))

    return EstimationResult(
        tau_hat=float(tau_hat),
        f_d_hat=float(f_d_hat),
        d_bis_hat=float(d_bis_hat),
        v_bis_hat=float(v_bis_hat),
        d_rx_hat=float(d_rx_hat),
        beta_hat=float(beta_hat),
        beta_clamped=clamped,
        peak_power=power,
        peak_bins=(b_r, b_v),
        fractional_offsets=(off_r, off_v),
        refine_fallback=fallback,
    )
