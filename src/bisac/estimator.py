"""Pilot-based delay-Doppler receiver.

Least-squares channel estimates on the periodic pilot subgrid, the
global peak of the zero-padded 2-D periodogram over that subgrid with
per-axis quadratic interpolation, and conversion of the refined peak to
bistatic range, velocity and receiver-leg distance.

The peak search (``peak_search``; its docstring gives the method) is exact
without building the periodogram: its bins and rows equal those of
``periodogram_2d``, which stays as the reference and for surface dumps.

Transform sign conventions: the subcarrier (delay) axis uses the
positive-exponent kernel so a delay tau peaks at bin
tau * n_p * df * fft_n, and the symbol (Doppler) axis uses the
negative-exponent kernel so a Doppler f_d peaks at bin
f_d * m_p * T_s * fft_m (mod fft_m). Doppler bins are read on the signed
interval (-fft_m/2, fft_m/2]; delay estimates live in [0, unambiguous
span) since delays are physically nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    SPEED_OF_LIGHT, GeometryError, _checked, beta_from_estimates, invert_bistatic_range,
)
from .ofdm import OfdmNumerology
from .pilots import PilotPattern

# the delay-stage bytes the coarse search transforms at a time (see _delay_rows)
_COLUMN_BYTES = 2**18

@dataclass(frozen=True)
class PeriodogramConfig:
    """FFT sizes (powers of two, default the desk profile's) and interpolation switch."""

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

    peak_bins are the integer argmax coordinates on the power surface and
    fractional_offsets the sub-bin corrections applied to them.
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
    """Peak of ``periodogram_2d(pilot_grid, config)`` without building it.

    Returns ``((b_r, b_v), rows)``: ``(b_r, b_v)`` equals
    ``np.unravel_index(np.argmax(surface), surface.shape)``, ties and NaN
    included, and ``rows`` holds the surface rows
    ``(b_r - 1, b_r, b_r + 1) mod fft_n``, so ``rows[1, b_v]`` is the peak
    power and ``refine_peak(rows, (1, b_v))`` equals ``refine_peak`` on the
    full surface at ``(b_r, b_v)``.

    The search bounds cells of delay rows on a coarse delay transform S_c
    of ``F_c`` points, the smallest power of two at least twice the grid's
    K + 1 rows. Coarse row c stands for the cell of ``R = fft_n / F_c``
    fine rows ``c R - R/2 .. c R + R/2 - 1``, each within half a coarse bin
    of it, so that for the fine delay stage S and the grid H

        |S(u, l)| <= |S_c(c, l)| + (pi / F_c) sum_k |k - K/2| |H[k, l]|

    and the squared column sum of the right side, with a 1e-9 rounding
    slack, bounds every surface value of the cell. Coarse row c is surface
    row c R, so the Doppler maximum of the highest-bound coarse row is a
    surface value; only the cells whose bound reaches it are kept. The
    delay transform then runs a block of columns at a time and keeps only
    the fine rows of those cells, one more on either side.

    When ``R < 4``, or when the kept cells would cover more than a quarter
    of ``fft_n`` (noise-only, tied, NaN and single-row grids), the search
    takes every row of the full delay stage instead. Either way one row
    search finishes it: no Doppler bin of delay row u exceeds
    ``(sum_l |S(u, l)|)**2`` (triangle inequality), so only the rows whose
    bound reaches the Doppler maximum of the highest-bound row are
    transformed along the Doppler axis, in ascending order, which keeps the
    first-occurrence tie rule. The three rows around the peak reuse those
    powers where they were computed.

    Every transform runs in complex128, whatever the grid's dtype, and
    takes its values from the FFTs ``periodogram_2d`` runs, so the rows are
    the surface's bit for bit (NaN payloads aside).
    """
    return _peak_searches(pilot_grid[None], config)[0]


def _peak_searches(pilot_grids: np.ndarray, config: PeriodogramConfig) -> list:
    """``peak_search`` of each grid of a stack (trials, rows, cols)."""
    rows, _ = _grid_shape(pilot_grids, config)
    # complex128 throughout: the 1e-9 slacks of the bounds assume float64
    pilot_grids = np.asarray(pilot_grids, complex)
    if config.fft_n < 4 * _coarse_size(rows):
        return [_row_peak(stage, None, config) for stage in _delay_stage(pilot_grids, config)]
    peaks = []
    for grid in pilot_grids:
        fine = _coarse_rows(grid, config)
        stage = _delay_stage(grid, config) if fine is None else _delay_rows(grid, fine, config)
        peaks.append(_row_peak(stage, fine, config))
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
    the highest-bound coarse row, one more on either side, ascending; None
    when those cells cover more than a quarter of fft_n."""
    coarse, cell_bound = _coarse_stage(pilot_grid, _coarse_size(pilot_grid.shape[0]))
    # coarse row c is surface row c * cell; the negation keeps the cells of a
    # NaN bound or maximum
    best = _doppler_power(coarse, [int(np.argmax(cell_bound))], config.fft_m).max()
    cells = np.flatnonzero(~(cell_bound < best))
    if cells.size > cell_bound.size // 4:
        return None
    cell = config.fft_n // cell_bound.size
    rows = np.zeros(config.fft_n, bool)
    rows[(cells[:, None] * cell + np.arange(-(cell // 2) - 1, cell - cell // 2 + 1))
         % config.fft_n] = 1
    return np.flatnonzero(rows)


def _delay_rows(pilot_grid: np.ndarray, fine: np.ndarray, config: PeriodogramConfig
                ) -> np.ndarray:
    """Rows ``fine`` of ``_delay_stage(pilot_grid, config)``, computed a block of
    columns at a time (at most ``_COLUMN_BYTES`` of stage), so that the full
    (fft_n, cols) stage never exists."""
    cols = pilot_grid.shape[1]
    rows = np.empty((fine.size, cols), complex)
    step = max(1, _COLUMN_BYTES // (16 * config.fft_n))
    for start in range(0, cols, step):
        rows[:, start:start + step] = _delay_stage(pilot_grid[:, start:start + step], config)[fine]
    return rows


def _row_peak(stage: np.ndarray, fine, config: PeriodogramConfig) -> tuple:
    """``peak_search`` from delay rows: row i of ``stage`` is delay row
    ``fine[i]``, or row i when ``fine`` is None (the full delay stage).
    Rows are bounded and pruned as ``peak_search`` describes; the 1e-9 slack
    covers FFT rounding.
    """
    fft_n, fft_m = config.fft_n, config.fft_m
    bound = np.abs(stage).sum(axis=1) ** 2 * (1.0 + 1e-9)
    best = _doppler_power(stage, [int(np.argmax(bound))], fft_m).max()
    # written as a negation so that a NaN bound or NaN best keeps the row
    keep = np.flatnonzero(~(bound < best))
    power = _doppler_power(stage, keep, fft_m)
    row, b_v = np.unravel_index(int(np.argmax(power)), power.shape)
    b_r = int(keep[row] if fine is None else fine[keep[row]])
    around = [(b_r - 1) % fft_n, b_r, (b_r + 1) % fft_n]
    if fine is not None:
        # the peak row lies inside a kept cell, so its neighbours are fine rows
        around = np.searchsorted(fine, around).tolist()
    done = dict(zip(keep.tolist(), power))
    missing = [i for i in around if i not in done]
    if missing:
        done.update(zip(missing, _doppler_power(stage, missing, fft_m)))
    return (b_r, int(b_v)), np.array([done[i] for i in around])


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
    """Full receiver pass: LS estimates, periodogram peak, geometry.

    The peak bins are those of the full zero-padded periodogram, found by
    the exact ``peak_search``; the peak power and the interpolation read
    the three surface rows around the peak that it returns.

    ``baseline`` and ``theta`` are the known transmitter-receiver distance
    and angle of arrival used to invert the bistatic range.

    Raises:
        GeometryError: if the range estimate cannot be inverted
            (d_bis_hat <= baseline); callers count such trials as invalid.
    """
    pilot_grid = ls_channel_estimate(received, transmitted, pattern)
    return _peak_estimate(peak_search(pilot_grid, config), pattern, numerology, config,
                          baseline, theta)


def _estimate_grids(pilot_grids: np.ndarray, pattern: PilotPattern,
                    numerology: OfdmNumerology, config: PeriodogramConfig, baseline: float,
                    thetas) -> list:
    """``estimate`` of each LS pilot grid of a stack (trials, K+1, L+1), with its
    own ``theta``; a trial whose range cannot be inverted gets its GeometryError
    in place of a result."""
    outcomes = []
    for peak, theta in zip(_peak_searches(pilot_grids, config), thetas):
        try:
            outcomes.append(_peak_estimate(peak, pattern, numerology, config, baseline, theta))
        except GeometryError as exc:
            outcomes.append(exc)
    return outcomes


def _peak_estimate(peak: tuple, pattern: PilotPattern, numerology: OfdmNumerology,
                   config: PeriodogramConfig, baseline: float, theta: float
                   ) -> EstimationResult:
    """``estimate`` from the ``peak_search`` result of the LS pilot grid; raises as it does."""
    n_p, m_p = pattern.periodic_strides()
    (b_r, b_v), rows = peak
    if config.interpolate:
        refined = refine_peak(rows, (1, b_v))
        off_r, off_v = refined.offsets
    else:
        off_r, off_v = 0.0, 0.0

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
        peak_power=float(rows[1, b_v]),
        peak_bins=(b_r, b_v),
        fractional_offsets=(float(off_r), float(off_v)),
    )
