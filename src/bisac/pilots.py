"""Pilot patterns on the subcarrier/symbol grid and their index statistics.

A pattern is an arbitrary set of (n, m) cells. The quantities that drive
the sensing bounds are the centered second moments of the pilot index
set (q_n2, q_m2 and the cross term q_nm); they are accumulated from exact
integer sums so that closed-form and generic evaluations agree bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import SPEED_OF_LIGHT, _checked, _checked_tuple
from .ofdm import OfdmNumerology


_INT64_MAX = int(np.iinfo(np.int64).max)


class PatternError(ValueError):
    """Raised for invalid pilot pattern construction or usage."""


@dataclass(frozen=True, eq=False)
class PilotPattern:
    """A set of pilot cells on an N x M grid; immutable after construction.

    Attributes:
        n_grid: number of subcarriers N.
        m_grid: number of symbols M.
        cells: (P, 2) int64 array of (n, m) pairs, unique, lexicographically
            sorted and read-only on construction; given as an integer array
            or a list of [n, m] pairs, or as None with ``periodic``. It is
            the transpose of a (2, P) array, so each index column is
            contiguous.
        periodic: (n_p, m_p) strides, 1 <= n_p <= N and 1 <= m_p <= M, of a
            pattern given as the full lattice {(k*n_p, l*m_p)}; else None.
    """

    n_grid: int
    m_grid: int
    cells: np.ndarray | None
    periodic: tuple | None = None

    def __post_init__(self):
        n_grid, m_grid = self.n_grid, self.m_grid
        # plain positive ints are kept as given; anything else is checked
        if type(n_grid) is not int or n_grid < 1:
            n_grid = _checked(n_grid, int, "n_grid", 1, error=PatternError)
        if type(m_grid) is not int or m_grid < 1:
            m_grid = _checked(m_grid, int, "m_grid", 1, error=PatternError)
        if (self.cells is None) == (self.periodic is None):
            raise PatternError("a pattern needs exactly one of periodic and cells")
        if n_grid * m_grid > _INT64_MAX:
            raise PatternError(f"grid {n_grid}x{m_grid} has too many cells to index")
        if self.periodic is not None:
            n_p, m_p = _checked_tuple(self.periodic, int, "periodic", 2, error=PatternError)
            if not (1 <= n_p <= n_grid and 1 <= m_p <= m_grid):
                raise PatternError(f"periodic strides must lie in [1, {n_grid}] x "
                                   f"[1, {m_grid}], got {(n_p, m_p)}")
            # the lattice's row-major keys n * M + m, sorted and unique by construction
            keys = (np.arange(0, n_grid, n_p, dtype=np.int64)[:, None] * m_grid
                    + np.arange(0, m_grid, m_p, dtype=np.int64)).ravel()
            object.__setattr__(self, "periodic", (n_p, m_p))
        else:
            if isinstance(self.cells, np.ndarray):
                cells = self.cells
                if cells.ndim != 2 or cells.shape[1] != 2 or cells.dtype.kind not in "iu":
                    raise PatternError(f"cells must be an integer (P, 2) array, got {cells!r}")
                # a uint64 index of 2**63 or more wraps negative, and reads
                # as itself again through the unsigned view below
                cells = cells.astype(np.int64, copy=False)
            elif isinstance(self.cells, (list, tuple)):
                pairs = [_checked_tuple(c, int, f"cells[{i}]", 2, error=PatternError)
                         for i, c in enumerate(self.cells)]
                try:
                    cells = np.array(pairs, dtype=np.int64).reshape(-1, 2)
                except OverflowError:  # an index beyond int64 is off any grid
                    off = any(not 0 <= n < n_grid for n, _ in pairs)
                    raise PatternError(f"{'subcarrier' if off else 'symbol'} index out of "
                                       "grid bounds") from None
            else:
                raise PatternError(f"cells must be a list of [n, m] pairs, got {self.cells!r}")
            if cells.shape[0] < 1:
                raise PatternError("pattern must contain at least one cell")
            # a negative index reads as a huge one in uint64
            unsigned = cells.view(np.uint64)
            if np.maximum.reduce(unsigned[:, 0]) >= n_grid:
                raise PatternError("subcarrier index out of grid bounds")
            if np.maximum.reduce(unsigned[:, 1]) >= m_grid:
                raise PatternError("symbol index out of grid bounds")
            # row-major keys sort the cells by subcarrier, then by symbol
            keys = cells[:, 0] * m_grid
            keys += cells[:, 1]
            keys.sort()
            if np.logical_or.reduce(np.equal(keys[1:], keys[:-1])):
                raise PatternError("duplicate pilot cells")
        # bounds every index sum and product that pattern_stats forms in int64
        if keys.size * (max(n_grid, m_grid) - 1) ** 2 > _INT64_MAX:
            raise PatternError(f"grid {n_grid}x{m_grid} with {keys.size} cells is too large "
                               "for exact int64 index sums")
        # rows n and m, each contiguous; cells is their (P, 2) transpose
        columns = np.empty((2, keys.size), dtype=np.int64)
        np.divmod(keys, m_grid, out=(columns[0], columns[1]))
        columns.setflags(write=False)
        cells = columns.T
        object.__setattr__(self, "n_grid", n_grid)
        object.__setattr__(self, "m_grid", m_grid)
        object.__setattr__(self, "cells", cells)

    @property
    def size(self) -> int:
        """Number of pilot cells."""
        return int(self.cells.shape[0])

    @property
    def overhead(self) -> float:
        """Fraction of grid resources used by pilots."""
        return self.size / (self.n_grid * self.m_grid)

    def periodic_strides(self) -> tuple:
        """(n_p, m_p) for a periodic pattern, else raises PatternError."""
        if self.periodic is None:
            raise PatternError("operation requires a periodic pilot pattern")
        return self.periodic

    def periodic_counts(self) -> tuple:
        """(K, L): largest lattice indices of a periodic pattern."""
        n_p, m_p = self.periodic_strides()
        return (self.n_grid - 1) // n_p, (self.m_grid - 1) // m_p

    def mask(self) -> np.ndarray:
        """Boolean (N, M) grid, True at pilot cells."""
        out = np.zeros((self.n_grid, self.m_grid), dtype=bool)
        out[self.cells[:, 0], self.cells[:, 1]] = True
        return out


@dataclass(frozen=True)
class PatternStats:
    """Exact index sums and centered second moments of a pilot set.

    The integer sums are exact; q_* values are the single correctly
    rounded float of the exact rational they represent.
    """

    size: int
    sum_n: int
    sum_m: int
    sum_nm: int
    sum_n2: int
    sum_m2: int
    q_n2: float
    q_m2: float
    q_nm: float

    @property
    def q_det(self) -> float:
        """q_n2*q_m2 - q_nm^2; positive iff the cells are not collinear."""
        return self.q_n2 * self.q_m2 - self.q_nm**2


def make_periodic(n_grid: int, m_grid: int, n_p: int, m_p: int) -> PilotPattern:
    """Build the periodic lattice pattern {(k*n_p, l*m_p)} inside the grid.

    Covers k = 0..K with K = floor((N-1)/n_p) and similarly for l, so the
    cell count is (K+1)(L+1). Index 0 is always included on both axes.

    Raises:
        PatternError: unless 1 <= n_p <= N and 1 <= m_p <= M are integers.
    """
    return PilotPattern(n_grid=n_grid, m_grid=m_grid, cells=None, periodic=(n_p, m_p))


def pattern_stats(pattern: PilotPattern) -> PatternStats:
    """Index sums and centered moments of an arbitrary pattern."""
    return PatternStats(*_index_stats(pattern.cells))


def _index_stats(cells: np.ndarray) -> tuple:
    """The PatternStats fields, in order, of a pattern's ``cells``: (size,
    sum_n, sum_m, sum_nm, sum_n2, sum_m2, q_n2, q_m2, q_nm).

    The five sums come from the contiguous index columns in two calls, the
    row sums and the 2 x 2 Gram matrix ``cells.T @ cells``; the
    constructor's guard keeps both exact in int64. Each q value is formed
    by one division of an exact integer numerator by the cell count.
    """
    columns = cells.T
    size = columns.shape[1]
    sum_n, sum_m = np.add.reduce(columns, axis=1).tolist()
    (sum_n2, sum_nm), (_, sum_m2) = np.matmul(columns, cells).tolist()
    return (size, sum_n, sum_m, sum_nm, sum_n2, sum_m2, (size * sum_n2 - sum_n**2) / size,
            (size * sum_m2 - sum_m**2) / size, (size * sum_nm - sum_n * sum_m) / size)


def periodic_stats_closed_form(
    n_grid: int, m_grid: int, n_p: int, m_p: int
) -> PatternStats:
    """Closed-form statistics of a periodic pattern.

    Equals pattern_stats(make_periodic(...)) exactly: the integer sums are
    identities in K, L and the strides, and q_nm vanishes because the
    lattice factorizes over the two axes.
    """
    if not (1 <= n_p <= n_grid) or not (1 <= m_p <= m_grid):
        raise PatternError("strides out of bounds")
    big_k = (n_grid - 1) // n_p
    big_l = (m_grid - 1) // m_p
    size = (big_k + 1) * (big_l + 1)
    tri_k = big_k * (big_k + 1) // 2
    tri_l = big_l * (big_l + 1) // 2
    sq_k = big_k * (big_k + 1) * (2 * big_k + 1) // 6
    sq_l = big_l * (big_l + 1) * (2 * big_l + 1) // 6
    return PatternStats(
        size=size,
        sum_n=(big_l + 1) * n_p * tri_k,
        sum_m=(big_k + 1) * m_p * tri_l,
        sum_nm=n_p * m_p * tri_k * tri_l,
        sum_n2=(big_l + 1) * n_p**2 * sq_k,
        sum_m2=(big_k + 1) * m_p**2 * sq_l,
        q_n2=(big_k * (big_k + 2) * size * n_p**2) / 12,
        q_m2=(big_l * (big_l + 2) * size * m_p**2) / 12,
        q_nm=0.0,
    )


def max_unambiguous(
    numerology: OfdmNumerology, n_p: int, m_p: int, beta: float = 0.0
) -> tuple:
    """Unambiguous (range [m], velocity [m/s]) spans of a periodic pattern.

    Pilot spacing n_p on the frequency axis limits the alias-free delay
    span to 1/(n_p*spacing); spacing m_p in time limits the Doppler span
    to 1/(m_p*T_s). Both are expressed in target units:

        range span    = c / (n_p * spacing)
        velocity span = c / (2 * f_c * m_p * T_s * cos(beta/2))
    """
    rng = SPEED_OF_LIGHT / (n_p * numerology.subcarrier_spacing_hz)
    vel = SPEED_OF_LIGHT / (
        2.0
        * numerology.carrier_hz
        * m_p
        * numerology.symbol_duration_s
        * np.cos(beta / 2.0)
    )
    return rng, float(vel)
