"""Pilot patterns on the subcarrier/symbol grid and their index statistics.

A pattern is an arbitrary set of (n, m) cells. The quantities that drive
the sensing bounds are the centered second moments of the pilot index
set (q_n2, q_m2 and the cross term q_nm); they are accumulated from exact
integer sums so that closed-form and generic evaluations agree bitwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .geometry import SPEED_OF_LIGHT, _json_list, _json_value
from .ofdm import OfdmNumerology


class PatternError(ValueError):
    """Raised for invalid pilot pattern construction or usage."""


@dataclass(frozen=True, eq=False)
class PilotPattern:
    """A set of pilot cells on an N x M grid; immutable after construction.

    Attributes:
        n_grid: number of subcarriers N.
        m_grid: number of symbols M.
        cells: (P, 2) int array of (n, m) pairs, unique, lexicographically
            sorted on construction.
        periodic: optional (n_p, m_p) strides when the set is the full
            periodic lattice {(k*n_p, l*m_p)}.
    """

    n_grid: int
    m_grid: int
    cells: np.ndarray
    periodic: tuple | None = None

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=np.int64).reshape(-1, 2)
        if cells.shape[0] < 1:
            raise PatternError("pattern must contain at least one cell")
        if cells[:, 0].min() < 0 or cells[:, 0].max() >= self.n_grid:
            raise PatternError("subcarrier index out of grid bounds")
        if cells[:, 1].min() < 0 or cells[:, 1].max() >= self.m_grid:
            raise PatternError("symbol index out of grid bounds")
        order = np.lexsort((cells[:, 1], cells[:, 0]))
        cells = cells[order]
        if cells.shape[0] > 1 and (np.diff(cells, axis=0) == 0).all(axis=1).any():
            raise PatternError("duplicate pilot cells")
        cells.setflags(write=False)
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

    def to_json_dict(self) -> dict:
        d = {"N": self.n_grid, "M": self.m_grid}
        if self.periodic is not None:
            d["periodic"] = [int(self.periodic[0]), int(self.periodic[1])]
        else:
            d["cells"] = [[int(n), int(m)] for n, m in self.cells]
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d: dict) -> "PilotPattern":
        """Parse integer ``N`` and ``M`` plus one of ``periodic`` or ``cells``.

        Raises ValueError naming a missing or malformed key.
        """
        n_grid = _json_value(d.get("N"), int, "N")
        m_grid = _json_value(d.get("M"), int, "M")
        if ("periodic" in d) == ("cells" in d):
            raise ValueError("a pattern needs exactly one of the keys periodic and cells")
        if "periodic" in d:
            n_p, m_p = _json_list(d["periodic"], int, "periodic", 2)
            return make_periodic(n_grid, m_grid, n_p, m_p)
        cells = d["cells"]
        if not isinstance(cells, list):
            raise ValueError(f"cells must be a list of [n, m] pairs, got {cells!r}")
        pairs = [_json_list(c, int, f"cells[{i}]", 2) for i, c in enumerate(cells)]
        return cls(n_grid=n_grid, m_grid=m_grid, cells=np.array(pairs, dtype=np.int64))

    @classmethod
    def from_json(cls, text: str) -> "PilotPattern":
        return cls.from_json_dict(json.loads(text))


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
        PatternError: unless 1 <= n_p <= N and 1 <= m_p <= M.
    """
    if not (1 <= n_p <= n_grid):
        raise PatternError(f"n_p must be in [1, {n_grid}], got {n_p}")
    if not (1 <= m_p <= m_grid):
        raise PatternError(f"m_p must be in [1, {m_grid}], got {m_p}")
    ns = np.arange(0, n_grid, n_p, dtype=np.int64)
    ms = np.arange(0, m_grid, m_p, dtype=np.int64)
    nn, mm = np.meshgrid(ns, ms, indexing="ij")
    cells = np.column_stack([nn.ravel(), mm.ravel()])
    return PilotPattern(
        n_grid=n_grid, m_grid=m_grid, cells=cells, periodic=(int(n_p), int(m_p))
    )


def pattern_stats(pattern: PilotPattern) -> PatternStats:
    """Index sums and centered moments of an arbitrary pattern.

    Sums are accumulated as exact integers; each q value is formed by one
    division of an exact integer numerator by the cell count.
    """
    n = pattern.cells[:, 0]
    m = pattern.cells[:, 1]
    size = pattern.size
    sum_n = int(n.sum())
    sum_m = int(m.sum())
    sum_nm = int((n * m).sum())
    sum_n2 = int((n * n).sum())
    sum_m2 = int((m * m).sum())
    return PatternStats(
        size=size,
        sum_n=sum_n,
        sum_m=sum_m,
        sum_nm=sum_nm,
        sum_n2=sum_n2,
        sum_m2=sum_m2,
        q_n2=(size * sum_n2 - sum_n**2) / size,
        q_m2=(size * sum_m2 - sum_m**2) / size,
        q_nm=(size * sum_nm - sum_n * sum_m) / size,
    )


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
