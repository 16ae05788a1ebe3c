"""Pilot-based delay-Doppler receiver.

Least-squares channel estimates on the periodic pilot subgrid, the
global peak of the zero-padded 2-D periodogram over that subgrid with
per-axis quadratic interpolation, and conversion of the refined peak to
bistatic range, velocity and receiver-leg distance.

The peak search is exact without building the periodogram: after the
delay-axis transform, the triangle inequality bounds every Doppler bin
of a delay row by the squared sum of that row's magnitudes. Only the rows
whose bound reaches the power of the most promising row are transformed
along the Doppler axis, so the peak bins and value equal those of
``np.argmax`` on ``periodogram_2d``, ties included. With a clear target a
few rows of ``fft_n`` are kept; when noise dominates every row is, which
costs what the full surface costs. ``periodogram_2d`` stays as the
reference and for surface dumps.

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

from .geometry import SPEED_OF_LIGHT, _checked, beta_from_estimates, invert_bistatic_range
from .ofdm import OfdmNumerology
from .pilots import PilotPattern


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


def _delay_stage(pilot_grid: np.ndarray, config: PeriodogramConfig) -> np.ndarray:
    """Positive-exponent delay-axis transform, zero-padded: shape (..., fft_n, cols).

    Each grid of a stack (..., rows, cols) transforms as it would alone.
    """
    rows, cols = pilot_grid.shape[-2:]
    if rows < 1 or cols < 1:
        raise ValueError("empty pilot grid")
    config.check_covers(rows, cols)
    return np.fft.ifft(pilot_grid, n=config.fft_n, axis=-2, norm="forward")


def _doppler_power(stage: np.ndarray, rows, fft_m: int) -> np.ndarray:
    """Negative-exponent Doppler-axis transform of the given delay rows, squared."""
    spectrum = np.fft.fft(stage[rows], n=fft_m, axis=1)
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
    ``np.unravel_index(np.argmax(surface), surface.shape)``, ties and
    NaN included, and ``rows`` holds the surface rows
    ``(b_r - 1, b_r, b_r + 1) mod fft_n``, so ``rows[1, b_v]`` is the peak
    power and ``refine_peak(rows, (1, b_v))`` equals ``refine_peak`` on the
    full surface at ``(b_r, b_v)``.

    No Doppler bin of delay row u exceeds ``(sum_l |stage[u, l]|)**2``
    (triangle inequality; the 1e-9 slack covers FFT rounding). A row whose
    bound is below the maximum power of the row with the largest bound
    cannot hold the peak, so only the other rows are transformed, in
    ascending order, which keeps the first-occurrence tie rule.
    """
    return _stage_peak(_delay_stage(pilot_grid, config), config)


def _stage_peak(stage: np.ndarray, config: PeriodogramConfig) -> tuple:
    """``peak_search`` from the delay stage of the pilot grid."""
    bound = np.abs(stage).sum(axis=1) ** 2 * (1.0 + 1e-9)
    best = _doppler_power(stage, [int(np.argmax(bound))], config.fft_m).max()
    # written as a negation so that a NaN bound or NaN best keeps the row
    keep = np.flatnonzero(~(bound < best))
    power = _doppler_power(stage, keep, config.fft_m)
    row, b_v = np.unravel_index(int(np.argmax(power)), power.shape)
    b_r = int(keep[row])
    around = [(b_r - 1) % config.fft_n, b_r, (b_r + 1) % config.fft_n]
    return (b_r, int(b_v)), _doppler_power(stage, around, config.fft_m)


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

    The peak bins and power are those of the full zero-padded periodogram,
    found by the exact row-pruned ``peak_search``; the interpolation reads
    the three surface rows around the peak.

    ``baseline`` and ``theta`` are the known transmitter-receiver distance
    and angle of arrival used to invert the bistatic range.

    Raises:
        GeometryError: if the range estimate cannot be inverted
            (d_bis_hat <= baseline); callers count such trials as invalid.
    """
    pilot_grid = ls_channel_estimate(received, transmitted, pattern)
    return _stage_estimate(_delay_stage(pilot_grid, config), pattern, numerology, config,
                           baseline, theta)


def _stage_estimate(stage: np.ndarray, pattern: PilotPattern, numerology: OfdmNumerology,
                    config: PeriodogramConfig, baseline: float, theta: float
                    ) -> EstimationResult:
    """``estimate`` from the delay stage of the LS pilot grid; raises as it does."""
    n_p, m_p = pattern.periodic_strides()
    (b_r, b_v), rows = _stage_peak(stage, config)
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
