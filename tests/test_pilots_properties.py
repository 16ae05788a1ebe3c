"""Property tests: a pattern's cells are its sorted unique (n, m) pairs,
however they are given, and a periodic pattern is its listed lattice."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bisac import PatternError, PilotPattern, make_periodic  # noqa: E402

FORMS = ("list", np.int32, np.int64)


def as_form(cells, form):
    return [list(c) for c in cells] if form == "list" else np.array(cells, dtype=form)


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
    pattern = PilotPattern(n_grid=n, m_grid=m, cells=as_form(cells, form))
    assert pattern.cells.dtype == np.int64
    assert pattern.cells.tolist() == sorted(map(list, cells))


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
