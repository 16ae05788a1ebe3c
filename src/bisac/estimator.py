"""Pilot-based delay-Doppler receiver: least-squares channel estimates on the
periodic pilot subgrid, the certified global maximum of their continuous
periodogram (``_search``, which depends on the pilot grid alone), and its
conversion to bistatic range, velocity and receiver-leg distance. The FFT
sizes set only ``periodogram_2d`` and the units of the peak bins.

Sign conventions: the subcarrier (delay) axis uses the positive-exponent
kernel, so a delay tau peaks at tau * n_p * df cycles, and the symbol
(Doppler) axis the negative one, so a Doppler f_d peaks at f_d * m_p * T_s
cycles (mod 1), read on (-1/2, 1/2]; delays live in [0, unambiguous span).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import SPEED_OF_LIGHT, GeometryError, _checked, _inversion_error, _invert_columns
from .ofdm import OfdmNumerology
from .pilots import PilotPattern

# Multiply-adds per matrix product on the trial path. OpenBLAS 0.3.31 ran a
# complex 36 x 35 @ 35 x 50 product (63000) on one thread and a 40 x 35 one
# (70000) on two, which took 8-16 ms instead of 20 us in some calls: a 900-trial
# (2, 1) sweep at 2 workers took 0.34-0.50 s with plain ``@``, 0.17 s blocked
# (``_small_matmul``), unless its threads are pinned to one, as in the benchmark.
_BLAS_MNK = 2**15

# Newton's method (see _newton) stops a trial after a step shorter than
# _NEWTON_TOL radians, and every trial after _NEWTON_STEPS steps.
_NEWTON_STEPS = 8
_NEWTON_TOL = 1e-9

# The search (_search) widens every |z| by _SLACK sum |H|, splits a cell
# into _SPLIT cells per axis at most _MAX_LEVELS times, at most _FLAT cells at
# a time, and gives a grid up past _FLAT open cells after a split; a ball
# keeps _BALL_MARGIN of its curvature.
_SLACK = 1e-10
_SPLIT = 4
_MAX_LEVELS = 20
_FLAT = 1024
_BALL_MARGIN = 0.1

# A sweep block may allocate _BLOCK_BYTES, the traced peak of the bound
# columns' 1e5-draw geometry when it was drawn as whole arrays: its LS grids
# and one chunk, which the search's start phase and the block's draws take
# _CHUNK_BYTES at a time (``_chunk_length``, ``_block_length``).
_BLOCK_BYTES = 5_601_744
_CHUNK_BYTES = 2**21

# The largest FFT size: peak bins up to 2^40 keep offsets of 2^-12 bin in a
# float64, and larger sizes lose them
_MAX_FFT = 2**40

# _search runs a grid whose sum |H| lies outside [2^-_SAFE_EXPONENT,
# 2^_SAFE_EXPONENT] as a copy scaled by a power of two, which every step of
# the search commutes with; inside, its powers up to |z|^4 (extent)^6 stay
# normal and finite for any pilot grid up to 2^20 a side
_SAFE_EXPONENT = 128
# the largest sum |H| that _search climbs: every |z| <= sum |H| is finite
_MAX_TOTAL = np.finfo(float).max / 2

# The derivatives P_pq of P = z conj(z) that _curvature takes: the third,
# the second and the first, each group a run, and those of more Leibniz terms
# C(p, a) C(q, b) z_ab conj(z_(p-a)(q-b)) first
_DERIVATIVES = ((2, 1), (1, 2), (3, 0), (0, 3), (1, 1), (2, 0), (0, 2), (1, 0), (0, 1))
# z_ab = j^a (-j)^b m_ab (_curvature)
_Z_ROWS, _Z_COLS = 1j ** np.arange(4), (-1j) ** np.arange(4)
# the gradient signs (g_u, g_v) of _newton_step in its cross terms
_SIGNS = np.array([-1.0, 1.0])
# a grid's entry in the balls of _search until its climb adds one
_NO_BALL = np.array([0.0, 0.0, -1.0, 0.0])


def _leibniz_terms() -> tuple:
    """Per Leibniz term t of ``_DERIVATIVES``, in the order of Python's ``sum``
    over a, then b: the number of derivatives with a t-th term (a leading
    run of them), their complex weights C(p, a) C(q, b), and the indices of
    their factors z_ab, 4 a + b, then of their factors conj(z_(p-a)(q-b)),
    16 + 4 (p - a) + q - b, in z and conj(z) flat side by side."""
    terms = [[(math.comb(p, a) * math.comb(q, b), 4 * a + b, 16 + 4 * (p - a) + q - b)
              for a in range(p + 1) for b in range(q + 1)] for p, q in _DERIVATIVES]
    columns = ([row[t] for row in terms if t < len(row)] for t in range(len(terms[0])))
    return tuple((len(column), np.array([w for w, _, _ in column], complex),
                  np.array([i for _, i, _ in column] + [j for _, _, j in column]))
                 for column in columns)


_LEIBNIZ = _leibniz_terms()


@dataclass(frozen=True)
class PeriodogramConfig:
    """FFT sizes (powers of two, default the desk profile's), the units of the
    peak bins and the size of the ``periodogram_2d`` surface, and whether the
    estimate is the continuous maximum (``interpolate``) or its peak bins."""

    fft_n: int = 1024
    fft_m: int = 1024
    interpolate: bool = True

    def __post_init__(self):
        for name, kind in (("fft_n", int), ("fft_m", int), ("interpolate", bool)):
            object.__setattr__(self, name, _checked(getattr(self, name), kind, name))
        for size, name in ((self.fft_n, "fft_n"), (self.fft_m, "fft_m")):
            if size < 1 or size & (size - 1):
                raise ValueError(f"{name} must be a power of two, got {size}")
            if size > _MAX_FFT:
                raise ValueError(f"{name} must be at most {_MAX_FFT}, got {size}")


@dataclass(frozen=True)
class EstimationResult:
    """Outputs of one estimation pass, at the global maximum of the continuous
    periodogram P of the LS grid at any FFT sizes, which are the units of the
    labels: peak_bins, the largest-P of the four (fft_n, fft_m) grid points
    around it (the ``periodogram_2d`` argmax when that lies within one bin);
    peak_power, P there; fractional_offsets, from them to the maximum, under
    one bin (zero without interpolation: the bins are the estimate).
    refine_fallback: the maximum is no certified Newton maximum (a zero,
    non-finite, overflowing, 1 x 1, flat or ridged grid, or failed Newton;
    False without interpolation). An axis of one pilot stays at bin 0.
    beta_clamped flags a degenerate bistatic-angle inversion."""

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
    pilots = transmitted[::n_p, ::m_p]
    if np.abs(pilots).min() < 1.0 - 1e-9:
        raise ValueError("pilot symbol modulus below unity")
    return received[::n_p, ::m_p] / pilots


def _grid_shape(shape: tuple, config: PeriodogramConfig) -> tuple:
    """(rows, cols) of a grid or stack of this shape; raises unless the FFT sizes cover them."""
    rows, cols = shape[-2:]
    if rows < 1 or cols < 1:
        raise ValueError("empty pilot grid")
    if config.fft_n < rows or config.fft_m < cols:
        raise ValueError(f"FFT sizes ({config.fft_n}, {config.fft_m}) smaller than the "
                         f"pilot grid ({rows}, {cols})")
    return rows, cols


def _delay_stage(pilot_grid: np.ndarray, config: PeriodogramConfig) -> np.ndarray:
    """Positive-exponent delay-axis transform, zero-padded: shape (..., fft_n, cols).

    Each grid of a stack (..., rows, cols) transforms as it would alone. The
    result is a transposed view of a (..., cols, fft_n) array.
    """
    _grid_shape(pilot_grid.shape, config)
    return np.swapaxes(_padded_fft(np.swapaxes(pilot_grid, -1, -2), config.fft_n, True), -1, -2)


def _padded_fft(lines: np.ndarray, n: int, inverse: bool) -> np.ndarray:
    """Unscaled n-point FFT along the last axis of ``lines``, zero-padded to n:
    ``np.fft.ifft(lines, n, norm="forward")`` if ``inverse``, else
    ``np.fft.fft(lines, n)``, bit for bit (NaN payloads aside), in place on a
    padded copy (half the time of padding inside ``np.fft``)."""
    padded = np.zeros(lines.shape[:-1] + (n,), complex)
    padded[..., :lines.shape[-1]] = lines
    if inverse:
        return np.fft.ifft(padded, norm="forward", out=padded)
    return np.fft.fft(padded, out=padded)


def periodogram_2d(pilot_grid: np.ndarray, config: PeriodogramConfig) -> np.ndarray:
    """Zero-padded 2-D periodogram of the pilot-subgrid channel estimates.

    Positive-exponent transform along the delay axis, negative-exponent
    along the Doppler axis; returns squared magnitude, shape
    (fft_n, fft_m): P (see ``_search``) at the bins. The Doppler transforms
    run ``_CHUNK_BYTES`` of spectrum rows at a time, so beside the surface
    only one block of its complex spectrum is held.
    """
    stage = _delay_stage(pilot_grid, config)
    surface = np.empty(stage.shape[:-1] + (config.fft_m,))
    step = max(1, _CHUNK_BYTES // (16 * config.fft_m))
    for lo in range(0, config.fft_n, step):
        spectrum = _padded_fft(stage[..., lo:lo + step, :], config.fft_m, False)
        surface[..., lo:lo + step, :] = spectrum.real**2 + spectrum.imag**2
    return surface


def _start_cells(rows: int, cols: int) -> np.ndarray:
    """Cells of the search's start grid per axis: the smallest powers of two at
    least twice the pilot rows and four times the pilot columns (one for a
    single pilot)."""
    return np.array([_cells(rows, 2), _cells(cols, 4)])


def _cells(n: int, per: int) -> int:
    """The smallest power of two at least ``per`` times n, one for n = 1."""
    return 1 if n == 1 else 1 << (per * n - 1).bit_length()


def _chunk_length(rows: int, cols: int) -> int:
    """Trials of rows x cols pilot grids per chunk of the search's start phase
    and of a block's draws: as many as fit ``_CHUNK_BYTES`` of the start delay
    stage, and at least one; 20 of 35 x 50 pilots (strides (2, 1)), 102 of
    35 x 10 (strides (2, 5))."""
    return max(1, _CHUNK_BYTES // (_cells(rows, 2) * cols * 16))


def _block_length(rows: int, cols: int) -> int:
    """Trials per sweep block of rows x cols pilot grids, and at least one: as
    many as keep a full block within ``_BLOCK_BYTES`` at any SNR. Per trial a
    block keeps its LS grid, 16 bytes a pilot, and a quarter as much again
    (its truth, the search's per-trial arrays and start cells); beside them
    runs one chunk, whose start phase takes up to 1.3 ``_CHUNK_BYTES``. That
    is 82 trials of 35 x 50 pilots (strides (2, 1)) and 410 of 35 x 10
    (strides (2, 5)). An aliasing pattern, whose grids open many more cells
    per trial, can exceed the budget at low SNR."""
    return max(1, int(_BLOCK_BYTES - 1.3 * _CHUNK_BYTES) // (rows * cols * 20))


@functools.lru_cache(maxsize=16)
def _centred(rows: int, cols: int) -> tuple:
    """The centred pilot indices k and l of a rows x cols grid, read-only."""
    indices = tuple(np.arange(n) - (n - 1) / 2.0 for n in (rows, cols))
    for index in indices:
        index.flags.writeable = False
    return indices


def _search(pilot_grids: np.ndarray) -> tuple:
    """The global maximum of the continuous periodogram of each grid of a
    stack (trials, rows, cols), certified.

    With the centred indices k, l (``_centred``), z(x) = sum_kl H[k, l]
    exp(j (k theta - l phi)) at x = (theta, phi) and P = |z|^2, which
    ``periodogram_2d`` samples at theta = 2 pi u / fft_n, phi = 2 pi v / fft_m.
    With m = ((rows - 1) / 2, (cols - 1) / 2) and s(D) = m . |D|, z along a
    line x + t D is a sum of exp(j w t) with |w| <= s(D).

    *Cell test.* Let M = sup |z| = |z(x0)|. Along a line from x0,
    r(t) = Re(exp(-j arg z(x0)) z(x0 + t D)) is real, entire of exponential
    type s(D), at most M on the real line and r(0) = M, so
    r'^2 + s(D)^2 r^2 <= s(D)^2 M^2 (Duffin and Schaeffer, 1937; Boas,
    Entire Functions, 1954, Sec. 11.4): r(t) >= M cos(s(D) t) while
    s(D) |t| <= pi / 2. The centre c of a cell of half-widths h holding x0 so
    has |z(c)| >= M cos(s(h)) >= |z(p)| cos(s(h)) for any p, and a cell below
    that cannot hold x0; M is at most the largest |z(c)| / cos(s(h)) of the
    cells that pass.

    *Ball.* At a point q let g = max_i |P_i| / m_i, kappa = min over
    s(D) = 1 of -D^T (Hessian of P) D and c3 = max over p + q = 3 of
    |P_pq| / (m_theta^p m_phi^q) (``_curvature``). Along a line P - M^2 / 2
    is entire of type 2 s(D) and at most M^2 / 2 in modulus, so its fourth
    derivative is at most 8 s(D)^4 M^2 (Bernstein's inequality, Boas Thm
    11.1.2) and, with s = s(D), P(q + D) <= P(q) + g s - kappa s^2 / 2
    + c3 s^3 / 6 + M^2 s^4 / 3. Where c3 s / 6 + M^2 s^2 / 3 <= (1 - b)
    kappa / 2, b = ``_BALL_MARGIN``, that is at most P(q) + g^2 / (2 b kappa);
    a ball counts where that is within 2 delta |z(q)| of P(q).

    *Search* (README, "Peak search"). FFTs sample the start grid's cells
    (``_start_cells``, so s(h) < 3 pi / 8): the delay rows, then, as
    |z| <= sum_l |S(theta, l)|, the Doppler transform of the rows whose bound
    reaches cos(s(h)) times the best sample of the highest-bound row, a
    chunk of grids at a time (``_start_samples``), which keeps of each grid
    its best sample and a superset of the cells that can pass the first cell
    test. Newton's method (``_newton``) from the best sample, over the whole
    stack, gives the best point p* and a ball. Then every cell that passes the cell test against |z(p*)|
    and lies in no ball splits into ``_SPLIT`` per axis, evaluated by direct
    DFTs (``_lattice``), and from the second level the best such cell of each
    grid farther than twice its own s(h) from all its balls starts Newton
    again (a maximum that ties with p* never rises above it), as does a
    centre above |z(p*)|: each Newton point adds a ball and becomes p* where
    higher. When no cell is left, P(p*) is the maximum within 2 delta |z(p*)|.

    *Rounding.* Sums of n terms are within n u sum|H| of exact (Higham, 2002,
    Sec. 3.1), under 1e-11 sum|H| here: every |z| is widened by delta =
    ``_SLACK`` sum|H|, and a point must beat |z(p*)| by 2 delta.

    1 x 1 grids stay at (0, 0), and so do all but 0 < sum|H| < (largest
    float) / 2, where every |z| <= sum|H| is finite. A grid with sum|H|
    outside [2^-``_SAFE_EXPONENT``, 2^``_SAFE_EXPONENT``] is searched scaled
    by the power of two that takes sum|H| into [1/2, 1), which every step
    commutes with, so its P and ball terms stay finite and normal. A grid
    with over half its start cells open or over ``_FLAT`` after a split
    (flat, or with maxima on a ridge; a noise-dominated grid can open a
    third of its start cells), or with any left after ``_MAX_LEVELS``
    splits, keeps the best point found (the first sample within rounding of
    the largest if none rose above it). Returns the points (trials, 2) in
    [0, 2 pi), the flags of certified Newton maxima and the cells split per
    trial.
    """
    trials, rows, cols = pilot_grids.shape
    pos, found, kept = np.zeros((trials, 2)), np.zeros(trials, bool), np.zeros(trials, int)
    step = _chunk_length(rows, cols)
    total = np.abs(pilot_grids).sum(axis=(1, 2))
    live = np.flatnonzero((total > 0.0) & (total < _MAX_TOTAL) & (rows * cols > 1))
    if not live.size:
        return pos, found, kept
    # a grid far from unit scale runs as a copy scaled by a power of two,
    # sum |H| in [1/2, 1): every step of the search commutes with it
    exponent = np.abs(np.frexp(total[live])[1])
    if exponent.max() > _SAFE_EXPONENT:
        far = live[exponent > _SAFE_EXPONENT]
        pilot_grids = np.array(pilot_grids, complex)
        shift = -np.frexp(total[far])[1][:, None, None]
        pilot_grids[far] = np.ldexp(pilot_grids[far].view(float), shift).view(complex)
        total[far] = np.abs(pilot_grids[far]).sum(axis=(1, 2))
    slack, n = _SLACK * total[live], live.size
    k, l = _centred(rows, cols)
    extent = np.array([(rows - 1) / 2.0, (cols - 1) / 2.0])
    cells = _start_cells(rows, cols)
    half, split, reach = np.pi / cells, np.where(extent > 0, _SPLIT, 1), 2 * np.pi / cells
    # s(h) of the cells of half-widths half and its cosine
    s_h = extent @ half
    cos_h = math.cos(s_h)

    # the start phase a chunk of grids at a time: the largest sample of each
    # grid, and its samples that can pass the level-0 test, row-major
    samples, amps, top = (np.concatenate(part) for part in zip(*(
        _start_samples(_take(pilot_grids, live[lo:lo + step]), lo, cells, slack[lo:lo + step],
                       cos_h) for lo in range(0, n, step))))
    t, sample = np.divmod(samples, cells.prod())
    i, j = np.divmod(sample, cells[1])
    del samples, sample
    # Newton from the first sample within rounding of the largest, row-major
    _, at = _best_per_trial(t, (amps >= (top - 2 * slack)[t]) * 1.0)
    start = np.column_stack([i[at], j[at]])

    best, peak, newton = np.zeros((n, 2)), np.full(n, -np.inf), np.zeros(n, bool)
    # per grid and ball: its centre, kappa (-1 for no ball) and c3
    balls = np.zeros((n, 0, 4))

    def climb(up, points, heights):
        # Newton from points of heights |z| on the grids up: a ball where it
        # converged, and the new best point where higher
        nonlocal balls
        index, room = live[up], slack[up]
        moved, converged = _newton(pilot_grids, points, reach, index)
        m = _moments(pilot_grids, moved, 4, index)
        height = np.abs(m[:, 0, 0])
        better = height >= heights - 2 * room
        kappa, third = _curvature(m, extent, room)
        kappa = np.where(converged & better, kappa, -1.0)
        balls = np.concatenate([balls, np.broadcast_to(_NO_BALL, (n, 1, 4))], axis=1)
        balls[up, -1] = np.column_stack([moved, kappa, third])
        height, point = np.where(better, height, heights), np.where(better[:, None], moved, points)
        rise = height > peak[up] + 2 * room
        top = up[rise]
        best[top], peak[top], newton[top] = point[rise], height[rise], kappa[rise] > 0

    def margin(owner):
        # a cell of |z| v on the grid owner passes the cell test against the
        # best point unless v + margin < 0
        return (slack - (peak - slack) * cos_h)[owner]

    def passing(owner, centre, values, offsets):
        # the cells around centre + offsets of |z| values (n, offsets...) that pass
        p, a, b = np.nonzero(~(values + margin(owner)[:, None, None] < 0))
        shift = np.column_stack([offsets[0][a], offsets[1][b]])
        return owner[p], centre[p] + shift, values[p, a, b]

    climb(np.arange(n), start * reach, amps[at])
    # the start samples that pass, before their centres are built
    keep = np.flatnonzero(~(amps + margin(t) < 0))
    owner, centre, values = t[keep], np.column_stack([i[keep], j[keep]]) * 2 * half, amps[keep]
    del t, i, j, amps, keep
    sup, split_cells = np.full(n, np.inf), np.zeros(n, int)
    # at most _FLAT parents a lattice, whose Doppler rows take half of
    # _CHUNK_BYTES in the three arrays of them _lattice makes: the pairs'
    # products, their gather per cell and _small_matmul's padded copy
    parents = max(1, min(_FLAT, _CHUNK_BYTES // (96 * split[0] * cols)))
    # a split's cell centres in half-widths of its parent, and the open cells
    # a grid may keep at level 0
    lattice = [2 * np.arange(size) - size + 1 for size in split]
    start_cap = max(_FLAT, cells.prod() // 2)
    for level in range(_MAX_LEVELS + 1):
        np.maximum.at(bound := peak.copy(), owner, values)
        sup = np.minimum(sup, (bound + slack) / cos_h)
        # the ball: M^2 s^2 / 3 + c3 s / 6 <= (1 - b) kappa / 2
        quad, lin, kappas = sup[:, None] ** 2 / 3, balls[..., 3] / 6, balls[..., 2]
        root = np.sqrt(lin**2 + 2 * quad * (1 - _BALL_MARGIN) * np.maximum(kappas, 0.0))
        radius = np.where(kappas > 0, (root - lin) / (2 * quad), -1.0)
        gap = np.abs(np.angle(np.exp(1j * (centre[:, None] - balls[owner, :, :2])))) @ extent
        counts = np.bincount(owner, minlength=n)
        cap = start_cap if level == 0 else _FLAT
        stop = (counts > cap) | (counts > 0) & (level == _MAX_LEVELS)
        newton[stop] = False
        open_ = ~stop[owner] & ~(gap + s_h <= radius[owner]).any(axis=1)
        owner, centre, values = owner[open_], centre[open_], values[open_]
        split_cells += np.bincount(owner, minlength=n)
        if not owner.size:
            break
        # the best cell of a grid farther than twice its size from all its balls,
        # or of one without any, starts Newton: a maximum that ties with p*
        # (the mirrored twin of a real grid's, say) never rises above it
        far = (gap[open_] > 2 * s_h).all(axis=1)
        if level and far.any():
            up, at = _best_per_trial(owner[far], values[far])
            climb(up, centre[far][at], values[far][at])
        offsets = [steps * (h / size) for steps, size, h in zip(lattice, split, half)]
        half = half / split
        s_h = extent @ half
        cos_h = math.cos(s_h)
        parts = [passing(owner[cut], centre[cut],
                         np.abs(_lattice(pilot_grids, live[owner[cut]], centre[cut], offsets, k, l)),
                         offsets)
                 for cut in (slice(lo, lo + parents) for lo in range(0, owner.size, parents))]
        owner, centre, values = (np.concatenate(part) for part in zip(*parts))
        rise = values > (peak + 2 * slack)[owner]
        if rise.any():
            up, at = _best_per_trial(owner[rise], values[rise])
            climb(up, centre[rise][at], values[rise][at])
    pos[live], found[live], kept[live] = best % (2 * np.pi), newton, split_cells
    return pos, found, kept


def _start_samples(grids: np.ndarray, offset: int, cells: np.ndarray, slack: np.ndarray,
                   cos_h: float) -> tuple:
    """The start phase of ``_search`` on a chunk of its live grids, numbered
    from ``offset``: the delay stage, the row bounds, then the Doppler
    transform of the passing rows, a sixteenth of ``_CHUNK_BYTES`` of
    samples at a time. Returns the samples of a superset of the start cells
    that pass the level-0 test, row-major, as (grid cells[0] + row) cells[1]
    + column, their |z|, and each grid's largest sample, top. A batch keeps
    the samples not below ``_kept_floor`` of the best sample of the
    highest-bound row, first <= top; top comes from them, and the ones not
    below ``_kept_floor(top)`` (the climbed peak is at least top - 4 slack)."""
    stage = _padded_fft(np.swapaxes(grids, -1, -2), cells[0], True)
    # sum_l |S(theta, l)|, a quarter of a full chunk at a time
    quarter = -(-_chunk_length(grids.shape[1], grids.shape[2]) // 4)
    row_bound = np.concatenate([np.abs(stage[lo:lo + quarter]).sum(axis=1)
                                for lo in range(0, len(grids), quarter)]) + slack[:, None]
    first = np.abs(_padded_fft(stage[np.arange(len(grids)), :, row_bound.argmax(axis=1)],
                               cells[1], False)).max(axis=1)
    # the passing rows, grid cells[0] + row
    rows = np.flatnonzero(~(row_bound < ((first - slack) * cos_h)[:, None]))
    del row_bound
    floor, parts = _kept_floor(first, slack, cos_h), []
    batch = max(1, _CHUNK_BYTES // (256 * int(cells[1])))
    for lo in range(0, rows.size, batch):
        t, i = np.divmod(rows[lo:lo + batch], cells[0])
        amps = np.abs(_padded_fft(stage[t, :, i], cells[1], False))
        r, c = np.nonzero(~(amps < floor[t][:, None]))
        parts.append((rows[lo + r] * cells[1] + c, amps[r, c]))
    del stage
    samples, amps = (np.concatenate(part) for part in zip(*parts))
    count = cells.prod()
    np.maximum.at(top := np.zeros(len(grids)), grid := samples // count, amps)
    keep = ~(amps < _kept_floor(top, slack, cos_h)[grid])
    return samples[keep] + offset * count, amps[keep], top


def _kept_floor(top: np.ndarray, slack: np.ndarray, cos_h: float) -> np.ndarray:
    """The level-0 floor of ``_search`` for a climbed peak of top - 4 slack,
    less one slack of rounding: (top - 5 slack) cos(s(h)) - 2 slack."""
    return (top - 5 * slack) * cos_h - 2 * slack


def _take(pilot_grids: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``pilot_grids[index]`` for non-decreasing ``index``: a view where it is
    a run of consecutive grids."""
    if _is_run(index):
        return pilot_grids[index[0]:index[-1] + 1]
    return pilot_grids[index]


def _is_run(index: np.ndarray) -> bool:
    """Whether a non-decreasing ``index`` is a run of consecutive grids: it
    spans size - 1 and never repeats."""
    return bool(index.size and index[-1] - index[0] == index.size - 1
                and (index[1:] > index[:-1]).all())


def _grid_products(left: np.ndarray, pilot_grids: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``_small_matmul(left, pilot_grids[index])`` for non-decreasing ``index``
    (repeats included), gathering at most ``_chunk_length`` grids at a time
    where it is no run."""
    step = _chunk_length(*pilot_grids.shape[-2:])
    if index.size > step and not _is_run(index):
        return np.concatenate([_small_matmul(left[lo:lo + step],
                                             _take(pilot_grids, index[lo:lo + step]))
                               for lo in range(0, index.size, step)])
    return _small_matmul(left, _take(pilot_grids, index))


def _curvature(m: np.ndarray, extent: np.ndarray, slack: np.ndarray) -> tuple:
    """kappa and c3 of balls (``_search``) at points of moments m (n, 4, 4) of
    ``_moments``; kappa is -1 where the Hessian or the gradient rules one out."""
    scale = np.divide(1.0, extent, out=np.zeros(2), where=extent > 0)
    # z_ab = j^a (-j)^b m_ab, and by Leibniz the derivatives of P = z conj(z),
    # scaled to unit s: P_pq / (m_theta^p m_phi^q), each summed term by term
    # from 0 as ``sum`` adds, all nine a term at a time (``_LEIBNIZ``); with
    # z and conj(z) flat side by side, a term gathers its two factors at once
    z = np.empty((len(m), 32), complex)
    z[:, :16] = (m * _Z_ROWS[:, None] * _Z_COLS).reshape(len(m), 16)
    np.conjugate(z[:, :16], out=z[:, 16:])
    total = np.zeros((len(m), len(_DERIVATIVES)), complex)
    for count, weight, factors in _LEIBNIZ:
        pair = z[:, factors]
        total[:, :count] += weight * pair[:, :count] * pair[:, count:]
    power = total.real * np.array([scale[0] ** p * scale[1] ** q for p, q in _DERIVATIVES])
    g = np.abs(power[:, 7:]).max(axis=1)
    b, a, c = -power[:, 4:7].T
    # a y0^2 + 2 b y0 y1 + c y1^2 is at least its smaller eigenvalue times
    # y0^2 + y1^2 >= 1 / 2 where |y0| + |y1| = 1
    kappa = a if not extent[1] else c if not extent[0] else (a + c - np.hypot(a - c, 2 * b)) / 4
    # the third derivative along a unit-s line, sum_p C(3, p) P_p(3-p) y0^p
    # y1^(3-p) with |y0| + |y1| = 1, is at most the largest |P_p(3-p)|
    third = np.abs(power[:, :4]).max(axis=1)
    certain = (kappa > 0) & (g * g <= 4 * _BALL_MARGIN * kappa * slack * np.abs(m[:, 0, 0]))
    return np.where(certain, kappa, -1.0), third


def _best_per_trial(owner: np.ndarray, values: np.ndarray) -> tuple:
    """The trials in ``owner`` (ascending) and the index of each one's largest value."""
    order = np.lexsort((-values, owner))
    owner = owner[order]
    first = np.ones(owner.size, bool)
    np.not_equal(owner[1:], owner[:-1], out=first[1:])
    return owner[first], order[first]


def _lattice(pilot_grids: np.ndarray, owner: np.ndarray, centre: np.ndarray, offsets: list,
             k, l) -> np.ndarray:
    """z at ``centre`` (n, 2) plus the lattice of ``offsets`` (an array per axis)
    on the grids ``owner`` (ascending), (n, theta offsets, phi offsets). The
    delay rows of each distinct (grid, theta) pair come from one
    ``_grid_products`` call over the pairs, and one more product gives each
    cell's Doppler transforms."""
    # the distinct (grid, theta) pairs in ascending order and each cell's pair
    order = np.lexsort((centre[:, 0], owner))
    pair_grid, theta = owner[order], centre[order, 0]
    new = np.ones(owner.size, bool)
    new[1:] = (pair_grid[1:] != pair_grid[:-1]) | (theta[1:] != theta[:-1])
    inverse = np.empty(owner.size, int)
    inverse[order] = np.cumsum(new) - 1
    left = _phasors(theta[new], k)[:, None, :] * np.exp(1j * np.outer(offsets[0], k))
    delay = _grid_products(left, pilot_grids, pair_grid[new])[inverse]
    delay *= _phasors(-centre[:, 1], l)[:, None, :]
    return _small_matmul(delay.reshape(-1, l.size), np.exp(-1j * np.outer(l, offsets[1]))
                         ).reshape(owner.size, offsets[0].size, -1)


def _small_matmul(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left @ right``, stacks included, a block of rows of ``left`` at a time:
    each block's product is small enough (``_BLAS_MNK`` multiply-adds per
    matrix) that OpenBLAS runs it on one thread. The blocks are one stack."""
    rows, inner = left.shape[-2:]
    step = max(1, _BLAS_MNK // (inner * right.shape[-1]))
    if step >= rows:
        return left @ right
    blocks = -(-rows // step)
    padded = np.zeros(left.shape[:-2] + (blocks * step, inner), complex)
    padded[..., :rows, :] = left
    out = padded.reshape(left.shape[:-2] + (blocks, step, inner)) @ right[..., None, :, :]
    return out.reshape(left.shape[:-2] + (blocks * step, -1))[..., :rows, :]


def _newton(pilot_grids: np.ndarray, start: np.ndarray, reach: np.ndarray,
            index: np.ndarray) -> tuple:
    """Guarded Newton ascent of log P (``_newton_step``) from ``start``, (trials,
    2) points in radians, on the grids ``index`` (non-decreasing), until a
    step is shorter than ``_NEWTON_TOL`` or ``_NEWTON_STEPS`` were taken; an
    axis of one pilot stays. A trial whose Hessian is not negative definite
    or whose point moves further than ``reach`` from its start stays there.
    Returns the points and the flags of the trials that did not stay."""
    rows, cols = pilot_grids.shape[-2:]
    pos, moved = start.copy(), np.ones(len(start), bool)
    # the active trials, their points, starts and grids
    active, at, origin = np.arange(len(start)), start, start
    for _ in range(_NEWTON_STEPS):
        # the moments of the active trials alone: a stacked product runs one
        # matrix at a time, so each trial's bits are those of the whole stack's
        step = _newton_step(_moments(pilot_grids, at, 3, index), rows > 1, cols > 1)
        # written so that a NaN step stays
        at = at + step
        inside = (np.abs(at - origin) <= reach).all(axis=1)
        on = inside & (np.abs(step).max(axis=1) >= _NEWTON_TOL)
        pos[active] = np.where(inside[:, None], at, origin)
        moved[active[~inside]] = False
        active, at, origin, index = active[on], at[on], origin[on], index[on]
        if not active.size:
            break
    return pos, moved


def _moments(pilot_grids: np.ndarray, pos: np.ndarray, order: int,
             index: np.ndarray) -> np.ndarray:
    """m[t, p, q] = sum_kl k^p l^q H[index[t], k, l] exp(j (k theta - l phi)) at
    (theta, phi) = pos[t], for p, q < ``order`` and the centred indices k, l
    of the grids; ``index`` non-decreasing."""
    k, l, k_powers, l_powers = _index_powers(*pilot_grids.shape[-2:], order)
    left = _phasors(pos[:, 0], k)[:, None, :] * k_powers
    right = _phasors(-pos[:, 1], l)[:, :, None] * l_powers
    return _grid_products(left, pilot_grids, index) @ right


@functools.lru_cache(maxsize=16)
def _index_powers(rows: int, cols: int, order: int) -> tuple:
    """The centred indices k and l of a rows x cols grid (``_centred``) and the
    tables k^p (order, rows) and l^q (cols, order) of ``_moments``, p, q <
    ``order``; read-only, built once per shape."""
    k, l = _centred(rows, cols)
    powers = np.arange(order)[:, None]
    tables = k, l, k**powers, (l**powers).T
    for table in tables:
        table.flags.writeable = False
    return tables


def _phasors(angles: np.ndarray, index: np.ndarray) -> np.ndarray:
    """exp(j angles[:, None] index) for an index of unit steps, as a running
    product of exp(j angles): within 2 index.size u of the exponentials, at
    two complex exponentials per angle (numpy's cost ~50 ns each)."""
    table = np.empty(angles.shape + index.shape, complex)
    turn = 1j * angles
    table[:, 0] = np.exp(turn * index[0])
    table[:, 1:] = np.exp(turn)[:, None]
    return np.multiply.accumulate(table, axis=1, out=table)


def _peak_bins(pilot_grids: np.ndarray, pos: np.ndarray, config: PeriodogramConfig) -> tuple:
    """The peak bins of each maximiser ``pos`` (trials, 2): of the four (fft_n,
    fft_m) grid points around it, the one of largest P (the first row-major on
    ties within rounding), the offsets in bins from them to it and P there."""
    sizes = np.array([config.fft_n, config.fft_m])
    frac = pos * (sizes / (2 * np.pi))
    corner = np.floor(frac)[:, None] + np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    order = np.argsort((corner % sizes) @ [sizes[1], 1], axis=1, kind="stable")
    corner = np.take_along_axis(corner, order[..., None], 1)
    theta, (k, l) = corner * (2 * np.pi / sizes), _centred(*pilot_grids.shape[-2:])
    z = (_small_matmul(np.exp(1j * theta[..., :1] * k), pilot_grids)
         * np.exp(-1j * theta[..., 1:] * l)).sum(axis=-1)
    power = z.real**2 + z.imag**2
    pick = np.argmax(power >= power.max(axis=1, keepdims=True) * (1 - 1e-12), axis=1)
    at = np.arange(len(pos)), pick
    return (corner[at] % sizes).astype(int), frac - corner[at], power[at]


def _newton_step(m: np.ndarray, on_u: bool, on_v: bool) -> np.ndarray:
    """The Newton steps (du, dv) towards the maximum of log P from the moments
    ``m[t, p, q]`` (trials, 3, 3), NaN where the Hessian of log P is not
    negative definite (P = 0 and NaN moments included); only the axes
    flagged ``on_u`` and ``on_v`` move. log P is concave on a wider region
    around the maximum than P."""
    # m flat: z = m00 at 0, m01 at 1, m02 at 2, m10 at 3, m11 at 4, m20 at 6
    m = m.reshape(len(m), 9)
    zc = m[:, 0].conj()
    with np.errstate(divide="ignore", invalid="ignore"):
        # zc m_pq and |m_pq|^2 of every moment: z_u = j m10, z_v = -j m01,
        # z_uu = -m20, z_vv = -m02, z_uv = m11
        cross, square = zc[:, None] * m, m.real * m.real + m.imag * m.imag
        power = square[:, 0]
        # half the gradient of P = |z|^2, (g_u, g_v) from m10 and m01
        g = cross.imag[:, 3:0:-2] * _SIGNS
        # (P / 2) times the Hessian of log P: half that of P less 2 g g^T / P;
        # its diagonal (h_uu, h_vv) from m10, m01, m20 and m02
        h = square[:, 3:0:-2] - cross.real[:, 6:1:-4] - 2 * g * g / power[:, None]
        # an axis of one pilot (centred index 0) has zero gradient and cross term:
        # curvature -1 keeps it in place, and the other axis takes its 1-D step
        if not on_u:
            h[:, 0] = -1.0
        if not on_v:
            h[:, 1] = -1.0
        h_uv = (cross[:, 4] - m[:, 3].conj() * m[:, 1]).real - 2 * g[:, 0] * g[:, 1] / power
        det = h[:, 0] * h[:, 1] - h_uv * h_uv
        step = (h_uv[:, None] * g[:, ::-1] - h[:, ::-1] * g) / det[:, None]
        concave = (h[:, 0] < 0) & (det > 0)
    return np.where((concave & (power > 0))[:, None], step, np.nan)


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
    offsets, flats = [], []
    for axis, bin_idx in enumerate(peak_bins):
        line = surface[:, peak_bins[1]] if axis == 0 else surface[peak_bins[0], :]
        p_minus, p_zero, p_plus = (line[(bin_idx + d) % line.size] for d in (-1, 0, 1))
        denom = p_minus - 2.0 * p_zero + p_plus
        flat = bool(abs(denom) <= 1e-12 * (abs(p_minus) + 2.0 * abs(p_zero) + abs(p_plus)))
        offsets.append(0.0 if flat else float(np.clip((p_minus - p_plus) / (2.0 * denom),
                                                      -0.5, 0.5)))
        flats.append(flat)
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
    """Full receiver pass: LS estimates, certified periodogram maximum, geometry.

    The estimate is the global maximum of the continuous periodogram of
    the LS grid (``_search``); with ``config.interpolate`` off it is the
    peak bins instead (see ``EstimationResult``).

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
    own ``theta``: the ``_estimates`` of the stack, each labelled with its
    peak bins, or its GeometryError."""
    pilot_grids = np.asarray(pilot_grids, complex)
    estimates, reasons, maxima, found = _estimates(pilot_grids, pattern, numerology, config,
                                                   baseline, thetas)
    bins, offsets, powers = _peak_bins(pilot_grids, maxima, config)
    if not config.interpolate:  # the bins are the estimate
        offsets, found = np.zeros_like(offsets), np.ones_like(found)
    return [_inversion_error(reason, row[2], baseline) if reason else EstimationResult(
                *row, peak_power=power, peak_bins=tuple(peak),
                fractional_offsets=tuple(offset), refine_fallback=not newton)
            for row, reason, peak, offset, power, newton in zip(
                zip(*(column.tolist() for column in estimates)), reasons.tolist(),
                bins.tolist(), offsets.tolist(), powers.tolist(), found.tolist())]


def _estimates(pilot_grids: np.ndarray, pattern: PilotPattern, numerology: OfdmNumerology,
               config: PeriodogramConfig, baseline: float, thetas) -> tuple:
    """The estimates of each LS pilot grid of a stack (trials, K+1, L+1), with
    its own ``theta``, read off its certified maximum, or off the peak bins
    with ``config.interpolate`` off: the columns of the first seven fields of
    ``EstimationResult`` (delays on [0, span), Dopplers on (-1/2, 1/2] cycles
    of the strides) and the reason codes of one ``_invert_columns`` call.
    Also returns the maxima (trials, 2) and the flags of certified Newton
    maxima of the one search over the stack; peak bins are evaluated only
    where they are the estimate."""
    pilot_grids = np.asarray(pilot_grids, complex)
    maxima, found, _ = _search(pilot_grids)
    cycles = (maxima * (1 / (2 * np.pi)) if config.interpolate else
              _peak_bins(pilot_grids, maxima, config)[0] / np.array([config.fft_n, config.fft_m]))
    n_p, m_p = pattern.periodic_strides()
    u, v = cycles.T
    taus = (u % 1.0) / (n_p * numerology.subcarrier_spacing_hz)
    dopplers = (v - (v > 0.5)) / (m_p * numerology.symbol_duration_s)
    d_bis = SPEED_OF_LIGHT * taus
    d_rx, beta, clamped, reasons = _invert_columns(d_bis, baseline, thetas)
    v_bis = dopplers * numerology.wavelength / (2.0 * np.cos(beta / 2.0))
    return (taus, dopplers, d_bis, v_bis, d_rx, beta, clamped), reasons, maxima, found
