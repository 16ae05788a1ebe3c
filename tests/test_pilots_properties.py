"""Property tests: a pattern's cells are its sorted unique (n, m) pairs,
however they are given, a periodic pattern is its listed lattice, and
pattern_stats is the exact integer sums of the cells."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bisac import (  # noqa: E402
    OfdmNumerology, PatternError, PilotPattern, SensingChannelParams, SingularPatternError, crb,
    efim, make_periodic, pattern_stats,
)

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
    with pytest.raises(PatternError, match="^duplicate pilot cells$"):
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


# ---------------------------------------------------------------------------
# The bounds of an arbitrary pattern against a pure-Python reference, and the
# messages of the constructors' rejections.

def reference_bounds(cells, params, num, beta):
    """(crb_ran_m2, crb_vel_ms2, efim rows) in Python floats from
    ``reference_stats``, by the formulas of ``crb`` and ``efim`` in their
    order, or the class of the error that ``crb`` raises."""
    *_, q_n2, q_m2, q_nm = reference_stats(cells)
    re, im, noise_var = params.alpha_re, params.alpha_im, params.noise_var
    gain_sq = re * re + im * im
    if noise_var <= 0 or gain_sq <= 0:
        return ValueError
    q_det = q_n2 * q_m2 - q_nm**2
    if q_det <= 0:
        return SingularPatternError
    df = num.subcarrier_spacing_hz
    ts = 1.0 / df + num.cp_duration_s
    lam = 3e8 / num.carrier_hz
    noise_over_gain = noise_var / gain_sq
    crb_ran = q_m2 / q_det * noise_over_gain * 3e8**2 / (8.0 * math.pi**2 * df**2)
    crb_vel = (q_n2 / q_det * noise_over_gain * lam**2
               / (32.0 * math.pi**2 * ts**2 * math.cos(beta / 2.0) ** 2))
    if not (0.0 < crb_ran < math.inf and 0.0 < crb_vel < math.inf):
        return ValueError
    scale = 8.0 * math.pi**2 * gain_sq / noise_var
    info = [[scale * (ts**2 * q_m2), scale * (-ts * df * q_nm)],
            [scale * (-ts * df * q_nm), scale * (df**2 * q_n2)]]
    return crb_ran, crb_vel, info


def bits(values):
    return [float(v).hex() for v in values]


gains = st.floats(-3.0, 3.0)


@settings(max_examples=150, deadline=None)
@given(case=cell_sets(), alpha=st.tuples(gains, gains), noise_var=st.floats(1e-3, 1e3),
       beta=st.floats(0.0, 3.1), spacing=st.floats(1e3, 1e6), cp=st.floats(0.0, 1e-5),
       carrier=st.floats(1e9, 1e11))
def test_bounds_equal_the_python_reference(case, alpha, noise_var, beta, spacing, cp, carrier):
    n, m, cells, form = case
    pattern = PilotPattern(n_grid=n, m_grid=m, cells=as_form(cells, form))
    params = SensingChannelParams(alpha_re=alpha[0], alpha_im=alpha[1], noise_var=noise_var)
    num = OfdmNumerology(subcarrier_spacing_hz=spacing, cp_duration_s=cp, carrier_hz=carrier)
    expected = reference_bounds(cells, params, num, beta)
    if isinstance(expected, type):
        with pytest.raises(expected):
            crb(params, pattern, num, beta=beta)
        if expected is SingularPatternError:
            with pytest.raises(expected):
                efim(params, pattern, num)
        return
    crb_ran, crb_vel, info = expected
    report = crb(params, pattern, num, beta=beta)
    assert bits([report.crb_ran_m2, report.crb_vel_ms2]) == bits([crb_ran, crb_vel])
    assert bits([report.rmse_bound_ran_m, report.rmse_bound_vel_ms]) == bits(
        [math.sqrt(crb_ran), math.sqrt(crb_vel)])
    assert bits(efim(params, pattern, num).ravel()) == bits(info[0] + info[1])


GRID_SIZES = [(np.int64(5), 5), (np.int32(5), 5), (np.uint8(5), 5), (7, 7)]
BAD_GRID_SIZES = [True, False, np.bool_(True), 0, -3, np.int64(0), 5.0, np.float64(5.0), "5"]


@pytest.mark.parametrize("axis", ["n_grid", "m_grid"])
@pytest.mark.parametrize("value, plain", GRID_SIZES, ids=repr)
def test_integer_grid_size_stored_as_plain_int(axis, value, plain):
    sizes = {"n_grid": 9, "m_grid": 9, axis: value}
    for pattern in (PilotPattern(**sizes, cells=[[0, 0], [1, 2], [3, 4]]),
                    PilotPattern(**sizes, cells=None, periodic=(1, 2))):
        assert type(getattr(pattern, axis)) is int and getattr(pattern, axis) == plain


@pytest.mark.parametrize("axis", ["n_grid", "m_grid"])
@pytest.mark.parametrize("value", BAD_GRID_SIZES, ids=repr)
def test_bad_grid_size_keeps_its_message(axis, value):
    sizes = {"n_grid": 9, "m_grid": 9, axis: value}
    message = f"{axis} must be an integer >= 1, got {value!r}"
    for cells in ([[0, 0]], np.array([[0, 0]])):
        with pytest.raises(PatternError) as info:
            PilotPattern(**sizes, cells=cells)
        assert str(info.value) == message


def off_grid_values(form, size):
    """Indices outside [0, size) that the form can hold."""
    if form == "list":
        return st.one_of(st.integers(-2**70, -1), st.integers(size, 2**70))
    info = np.iinfo(form[0] if isinstance(form, tuple) else form)
    low = st.integers(int(info.min), -1) if info.min < 0 else st.nothing()
    return st.one_of(low, st.integers(size, int(info.max)))


@settings(max_examples=200, deadline=None)
@given(case=cell_sets(), column=st.sampled_from([0, 1]), data=st.data())
def test_off_grid_index_keeps_its_message_in_every_form(case, column, data):
    n, m, cells, form = case
    value = data.draw(off_grid_values(form, (n, m)[column]))
    index = data.draw(st.integers(0, len(cells) - 1))
    bad = [list(c) for c in cells]
    bad[index][column] = value
    name = ("subcarrier", "symbol")[column]
    with pytest.raises(PatternError) as info:
        PilotPattern(n_grid=n, m_grid=m, cells=as_form(bad, form))
    assert str(info.value) == f"{name} index out of grid bounds"


def test_strided_uint64_index_beyond_int64_is_off_grid():
    # 2**63 and up wrap negative in int64 and read as themselves unsigned
    for value in (2**63, 2**64 - 1):
        for column, name in ((0, "subcarrier"), (1, "symbol")):
            cells = np.array([[0, 0], [1, 1]], dtype=np.uint64)
            cells[1, column] = value
            with pytest.raises(PatternError, match=f"^{name} index out of grid bounds$"):
                PilotPattern(n_grid=4, m_grid=4, cells=np.repeat(cells, 2, axis=0)[::2])


CHANNEL_FIELDS = ("alpha_re", "alpha_im", "tau", "f_d", "noise_var")
BAD_CHANNEL_VALUES = [math.nan, math.inf, -math.inf, np.float64(math.nan), np.float32(math.inf),
                      True, False, np.bool_(True), 10**400, "1.0", None, 1 + 0j]


@pytest.mark.parametrize("value", BAD_CHANNEL_VALUES, ids=repr)
@pytest.mark.parametrize("field", CHANNEL_FIELDS)
def test_bad_channel_value_keeps_its_message(field, value):
    with pytest.raises(ValueError) as info:
        SensingChannelParams(**{field: value})
    assert str(info.value) == f"{field} must be a finite number, got {value!r}"


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.sampled_from([0.5, np.float32(2.0), 3, *BAD_CHANNEL_VALUES]),
                       min_size=5, max_size=5))
def test_first_bad_channel_field_is_named(values):
    # the fields are checked in declaration order
    bad = [i for i, v in enumerate(values) if any(v is b for b in BAD_CHANNEL_VALUES)]
    kwargs = dict(zip(CHANNEL_FIELDS, values))
    if not bad:
        params = SensingChannelParams(**kwargs)
        assert [getattr(params, f) for f in CHANNEL_FIELDS] == [float(v) for v in values]
        return
    with pytest.raises(ValueError) as info:
        SensingChannelParams(**kwargs)
    field = CHANNEL_FIELDS[bad[0]]
    assert str(info.value) == f"{field} must be a finite number, got {values[bad[0]]!r}"
