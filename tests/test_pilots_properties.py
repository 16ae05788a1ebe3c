"""Property tests: a pattern's cells are its sorted unique (n, m) pairs,
however they are given, a periodic pattern is its listed lattice, and
pattern_stats is the exact integer sums of the cells."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bisac import PatternError, PilotPattern, make_periodic, pattern_stats  # noqa: E402

INT64_MAX = 2**63 - 1
# integer dtypes, each also as a non-contiguous view: every other row of a
# doubled array
FORMS = ("list", np.int8, np.uint8, np.int32, np.int64, np.uint64,
         *((dtype, "strided") for dtype in (np.int8, np.uint8, np.int32, np.uint64)))


def as_form(cells, form):
    if form == "list":
        return [list(c) for c in cells]
    if isinstance(form, tuple):
        array = np.repeat(np.array(cells, dtype=form[0]).reshape(-1, 2), 2, axis=0)[::2]
        assert not array.flags.c_contiguous or len(cells) == 1
        return array
    return np.array(cells, dtype=form)


def reference_stats(cells):
    """(size, sum_n, sum_m, sum_nm, sum_n2, sum_m2, q_n2, q_m2, q_nm) in Python
    integers, each q one correctly rounded division."""
    size = len(cells)
    sum_n, sum_m = sum(n for n, _ in cells), sum(m for _, m in cells)
    sum_nm = sum(n * m for n, m in cells)
    sum_n2, sum_m2 = sum(n * n for n, _ in cells), sum(m * m for _, m in cells)
    return (size, sum_n, sum_m, sum_nm, sum_n2, sum_m2, (size * sum_n2 - sum_n**2) / size,
            (size * sum_m2 - sum_m**2) / size, (size * sum_nm - sum_n * sum_m) / size)


def stats_tuple(stats):
    fields = (stats.size, stats.sum_n, stats.sum_m, stats.sum_nm, stats.sum_n2, stats.sum_m2)
    assert all(type(v) is int for v in fields)
    return (*fields, stats.q_n2, stats.q_m2, stats.q_nm)


@st.composite
def cell_sets(draw):
    """(N, M, shuffled unique cells, form) on a random grid."""
    n, m = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    cells = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
                          min_size=1, max_size=60, unique=True))
    return n, m, draw(st.permutations(cells)), draw(st.sampled_from(FORMS))


@settings(max_examples=100, deadline=None)
@given(case=cell_sets())
def test_cells_are_the_sorted_unique_pairs(case):
    n, m, cells, form = case
    given_cells = as_form(cells, form)
    before = given_cells.copy() if isinstance(given_cells, np.ndarray) else None
    pattern = PilotPattern(n_grid=n, m_grid=m, cells=given_cells)
    assert pattern.cells.dtype == np.int64
    assert pattern.cells.tolist() == sorted(map(list, cells))
    # each index column is contiguous, and the input is left as it was
    assert pattern.cells.T.flags.c_contiguous
    if before is not None:
        assert np.array_equal(given_cells, before)


@settings(max_examples=100, deadline=None)
@given(case=cell_sets())
def test_stats_are_the_exact_integer_sums(case):
    n, m, cells, form = case
    pattern = PilotPattern(n_grid=n, m_grid=m, cells=as_form(cells, form))
    assert stats_tuple(pattern_stats(pattern)) == reference_stats(cells)


@settings(max_examples=50, deadline=None)
@given(size=st.integers(1, 8), data=st.data())
def test_stats_are_exact_at_the_int64_guard(size, data):
    # the largest square grid whose index sums the constructor admits for
    # this many cells (for one cell, the largest whose cells int64 indexes),
    # with the cells in its far corner: the sums of squares come close to
    # the int64 limit, and one more cell would trip the guard
    grid = min(math.isqrt(INT64_MAX // size) + 1, math.isqrt(INT64_MAX))
    assert (size + 1) * (grid - 1) ** 2 > INT64_MAX
    corner = st.integers(grid - 4, grid - 1)
    cells = data.draw(st.lists(st.tuples(corner, corner), min_size=size, max_size=size,
                               unique=True))
    pattern = PilotPattern(n_grid=grid, m_grid=grid, cells=cells)
    assert stats_tuple(pattern_stats(pattern)) == reference_stats(cells)


# off-grid indices per input form: -1 where it is signed, an unsigned value
# that casts to a negative int64 (2**63 and up) or to 255, and for a list an
# integer beyond int64
OFF_GRID = {"list": (-1, 2**64 - 1), "int8": (-1,), "int32": (-1,),
            "int64": (-1, -2**63), "uint8": (255,), "uint64": (2**63, 2**64 - 1)}


@pytest.mark.parametrize("dtype", list(OFF_GRID))
@pytest.mark.parametrize("column, name", [(0, "subcarrier"), (1, "symbol")])
def test_off_grid_index_names_its_column(dtype, column, name):
    def build(cells):
        given_cells = cells if dtype == "list" else np.array(cells, dtype=dtype)
        PilotPattern(n_grid=4, m_grid=4, cells=given_cells)

    for value in OFF_GRID[dtype]:
        cells = [[0, 0], [1, 1], [2, 2]]
        cells[1][column] = value
        with pytest.raises(PatternError, match=f"^{name} index out of grid bounds$"):
            build(cells)
        # the subcarrier is checked first
        cells[2] = [value, value]
        with pytest.raises(PatternError, match="^subcarrier index out of grid bounds$"):
            build(cells)


@pytest.mark.parametrize("periodic", [True, False])
def test_cells_and_their_base_are_read_only(periodic):
    pattern = (make_periodic(8, 6, 2, 3) if periodic
               else PilotPattern(n_grid=8, m_grid=6, cells=[[3, 1], [0, 0], [7, 5]]))
    for array in (pattern.cells, pattern.cells.base, pattern.cells.T):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1


@settings(max_examples=100, deadline=None)
@given(case=cell_sets(), data=st.data())
def test_repeated_cell_raises(case, data):
    n, m, cells, form = case
    repeated = data.draw(st.permutations(cells + [data.draw(st.sampled_from(cells))]))
    with pytest.raises(PatternError, match="duplicate"):
        PilotPattern(n_grid=n, m_grid=m, cells=as_form(repeated, form))


@settings(max_examples=100, deadline=None)
@given(grid=st.tuples(st.integers(1, 40), st.integers(1, 40)), data=st.data())
def test_periodic_equals_listed_lattice(grid, data):
    n, m = grid
    n_p, m_p = data.draw(st.integers(1, n)), data.draw(st.integers(1, m))
    lattice = [(a, b) for a in range(0, n, n_p) for b in range(0, m, m_p)]
    shuffled = data.draw(st.permutations(lattice))
    listed = PilotPattern(n_grid=n, m_grid=m,
                          cells=as_form(shuffled, data.draw(st.sampled_from(FORMS))))
    periodic = make_periodic(n, m, n_p, m_p)
    assert periodic.cells.dtype == listed.cells.dtype == np.int64
    assert np.array_equal(periodic.cells, listed.cells)
