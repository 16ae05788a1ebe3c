"""Property tests: the sliced closed-form ECRB geometry draw against the
reference whole-array path (hypot legs, then the bistatic angle by arccos),
the baseline-segment check against a rational clip, the per-axis phase
kernel against one exponential a cell and against the exact phase, and the
ensemble's draws against ``rng.uniform``."""

import math
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from bisac import (  # noqa: E402
    DEGENERATE_EPS, OfdmNumerology, ScenarioEnsemble, SingularPatternError,
)
from bisac.bounds import (  # noqa: E402
    _ECRB_SLICE, _check_off_baseline, _ecrb_geometry, _phasor,
)
from bisac.geometry import bistatic_angle  # noqa: E402

EPS = np.finfo(float).eps


def reference_geometry(ensemble, draws, seed):
    """(cos(beta/2), kept mask, d_tx, d_rx) of every draw, as whole arrays."""
    xs, ys = ensemble.sample_targets(np.random.default_rng(seed), draws)
    d_tx = np.hypot(xs - ensemble.tx_pos[0], ys - ensemble.tx_pos[1])
    d_rx = np.hypot(xs - ensemble.rx_pos[0], ys - ensemble.rx_pos[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_half = np.cos(bistatic_angle(d_tx, d_rx, ensemble.baseline) / 2.0)
    ok = (d_tx > DEGENERATE_EPS) & (d_rx > DEGENERATE_EPS) & (cos_half > 1e-12)
    return cos_half, ok, d_tx, d_rx


def assert_matches_reference(ensemble, draws, seed):
    ref, ok, d_tx, d_rx = reference_geometry(ensemble, draws, seed)
    s, baseline = d_tx + d_rx, ensemble.baseline
    # on the baseline segment cos(beta/2) is 0; a draw within rounding of it,
    # where s - D is a few ulp of s, is kept or skipped as each path's
    # rounding falls (the exact points are checked below)
    assume(not np.any(ok & (s - baseline <= 16 * EPS * s)))
    cos_half, skipped = _ecrb_geometry(ensemble, draws, seed)
    assert skipped == draws - ok.sum()
    # within a few ulp of the rounding that the legs carry into s - D, the
    # one difference that cancels
    ref, s = ref[ok], s[ok]
    tol = 4 * EPS * (1 + s / (s - baseline)) * ref
    assert np.all(np.abs(cos_half - ref) <= tol)


coordinate = st.floats(-1e4, 1e4)
points = st.tuples(coordinate, coordinate)
width = st.floats(1e-3, 1e3)


@st.composite
def ensembles(draw):
    """Boxes of positive area anywhere around the terminals: over them, across
    the baseline, far off."""
    (x, y), w, h = draw(points), draw(width), draw(width)
    return ScenarioEnsemble(tx_pos=draw(points), rx_pos=draw(points),
                            x_range=(x, x + w), y_range=(y, y + h))


@settings(max_examples=200, deadline=None)
@given(ensemble=ensembles(), draws=st.integers(1, 3 * _ECRB_SLICE),
       seed=st.integers(0, 2**32 - 1))
def test_draw_equals_the_reference_path(ensemble, draws, seed):
    assert_matches_reference(ensemble, draws, seed)


@settings(max_examples=100, deadline=None)
@given(tx=points, rx=points, target=points, seed=st.integers(0, 2**32 - 1))
def test_point_mass_draws_equal_the_reference_path(tx, rx, target, seed):
    point = ScenarioEnsemble(tx_pos=tx, rx_pos=rx, x_range=(target[0],) * 2,
                             y_range=(target[1],) * 2)
    assume(reference_geometry(point, 1, seed)[1].all())
    assert_matches_reference(point, 50, seed)


@pytest.mark.parametrize("tx, rx, target", [
    ((-40.0, 0.0), (0.0, 40.0), (-40.0, 0.0)),  # on the transmitter
    ((-40.0, 0.0), (0.0, 40.0), (0.0, 40.0)),  # on the receiver
    ((-40.0, 0.0), (0.0, 40.0), (-20.0, 20.0)),  # midway along the baseline
    ((-40.0, 0.0), (40.0, 0.0), (-30.0, 0.0)),
    ((-40.0, 0.0), (40.0, 0.0), (25.0, 0.0)),
    ((0.0, -8.0), (0.0, 8.0), (0.0, 0.5)),
])
def test_degenerate_point_is_skipped_on_both_paths(tx, rx, target):
    point = ScenarioEnsemble(tx_pos=tx, rx_pos=rx, x_range=(target[0],) * 2,
                             y_range=(target[1],) * 2)
    assert not reference_geometry(point, 10, 0)[1].any()
    with pytest.raises(SingularPatternError, match="all ensemble draws"):
        _ecrb_geometry(point, 10, 0)


def meets_open_segment(ensemble):
    """Whether the closed box holds a point t in (0, 1) of the segment from
    the transmitter to the receiver: the segment clipped in Fractions."""
    start = [Fraction(c) for c in ensemble.tx_pos]
    step = [Fraction(c) - a for c, a in zip(ensemble.rx_pos, start)]
    lo, hi = Fraction(0), Fraction(1)
    for a, d, ends in zip(start, step, (ensemble.x_range, ensemble.y_range)):
        e0, e1 = sorted(Fraction(e) for e in ends)
        if d:
            t0, t1 = sorted(((e0 - a) / d, (e1 - a) / d))
            lo, hi = max(lo, t0), min(hi, t1)
        elif not e0 <= a <= e1:
            return False
    return any(step) and (lo < hi or 0 < lo == hi < 1)


# small integers make boxes that touch the segment at a corner or along an edge
lattice = st.integers(-4, 4).map(float)
near = st.tuples(lattice, lattice) | points


@settings(max_examples=400, deadline=None)
@given(tx=near, rx=near, x=near, y=near)
def test_baseline_check_equals_the_rational_clip(tx, rx, x, y):
    ensemble = ScenarioEnsemble(tx_pos=tx, rx_pos=rx, x_range=x, y_range=y)
    if meets_open_segment(ensemble):
        with pytest.raises(SingularPatternError, match="baseline segment"):
            _check_off_baseline(ensemble)
    else:
        _check_off_baseline(ensemble)


def bits(values):
    return np.ascontiguousarray(values).view(np.uint64).tolist()


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                       max_size=40))
@example(values=[-0.0, 0.0, -1.0, -7.0, 3.0, 2.0**53, -2.0**60, 0.5, -0.5, -0.75])
@example(values=[5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308,
                 -1e-300, -1.7976931348623157e308])
def test_floor_reduction_is_mod_one_bit_for_bit(values):
    # the phase kernel's reduction: finite values only, as cycle counts are
    x = np.array(values)
    assert bits(x - np.floor(x)) == bits(np.mod(x, 1.0))


NUM = OfdmNumerology()
N_INDEX = np.arange(NUM.n_subcarriers, dtype=float)[:, None]
M_INDEX = np.arange(NUM.n_symbols, dtype=float)[None, :]


def cell_phase(tau, f_d, n, m):
    """The reference kernel: one exponential a cell of the reduced sum of cycles."""
    cycles = f_d * NUM.symbol_duration_s * m - tau * NUM.subcarrier_spacing_hz * n
    return np.exp(2j * np.pi * np.mod(cycles, 1.0))


def exact_phase(tau, f_d):
    """exp(j 2 pi c) on the full grid, c the exact rational cycle count of the
    float inputs, reduced modulo one before it is rounded."""
    doppler = [Fraction(f_d) * Fraction(NUM.symbol_duration_s) * m
               for m in range(NUM.n_symbols)]
    delay = [Fraction(tau) * Fraction(NUM.subcarrier_spacing_hz) * n
             for n in range(NUM.n_subcarriers)]
    frac = np.array([[float((d - t) - math.floor(d - t)) for d in doppler] for t in delay])
    return np.exp(2j * np.pi * frac)


@settings(max_examples=200, deadline=None)
@given(tau=st.floats(-1e-5, 1e-5), f_d=st.floats(-1e5, 1e5))
def test_phase_per_axis_is_within_rounding_of_one_exponential_a_cell(tau, f_d):
    fast = _phasor(tau, f_d, NUM, N_INDEX, M_INDEX)
    assert np.abs(fast - cell_phase(tau, f_d, N_INDEX, M_INDEX)).max() <= 2e-13


@settings(max_examples=40, deadline=None)
@given(tau=st.floats(0.0, 2e-6), f_d=st.floats(-2e4, 2e4))
def test_phase_per_axis_is_no_further_from_the_exact_phase(tau, f_d):
    # delays and Doppler shifts of the default ensemble and beyond; over the
    # grid, since at a single cell the reference's rounding of the sum may
    # cancel the rounding that both kernels make in the per-axis products
    exact = exact_phase(tau, f_d)
    fast = np.abs(_phasor(tau, f_d, NUM, N_INDEX, M_INDEX) - exact).max()
    reference = np.abs(cell_phase(tau, f_d, N_INDEX, M_INDEX) - exact).max()
    assert fast <= reference + 1e-14


@settings(max_examples=50, deadline=None)
@given(taus=st.lists(st.floats(0.0, 2e-6), min_size=1, max_size=5),
       f_ds=st.lists(st.floats(-2e4, 2e4), min_size=5, max_size=5))
def test_stacked_phase_equals_each_trial_alone(taus, f_ds):
    # a block of trials broadcasts (trials, 1, 1) parameters over the grid
    tau = np.array(taus)[:, None, None]
    f_d = np.array(f_ds[:len(taus)])[:, None, None]
    stack = _phasor(tau, f_d, NUM, N_INDEX, M_INDEX)
    for k in range(len(taus)):
        alone = _phasor(float(tau[k, 0, 0]), float(f_d[k, 0, 0]), NUM, N_INDEX, M_INDEX)
        assert bits(stack[k].view(float)) == bits(alone.view(float))


@st.composite
def draw_ranges(draw, scale):
    """(lo, hi), lo <= hi, anywhere in [-scale, scale]; often zero-width."""
    lo = draw(st.floats(-scale, scale))
    width = draw(st.one_of(st.just(0.0), st.floats(0.0, scale)))
    return lo, lo + width


# a box of targets may span at most about 1e153 m (the squared bistatic range
# must stay finite); speed and delta ranges may be 1e300 wide
boxes = draw_ranges(1e150)
spans = draw_ranges(1e300)


@settings(max_examples=200, deadline=None)
@given(x=boxes, y=boxes, size=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
@example(x=(3.0, 3.0), y=(-0.0, -0.0), size=7, seed=1)
@example(x=(-1e150, 1e150), y=(-100.0, -80.0), size=7, seed=2)
def test_target_draw_is_uniform_bit_for_bit(x, y, size, seed):
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    xs, ys = ScenarioEnsemble(x_range=x, y_range=y).sample_targets(rng, size)
    assert bits(xs) == bits(reference.uniform(*x, size))
    assert bits(ys) == bits(reference.uniform(*y, size))
    # and the generator is left where the two uniform calls leave it
    assert bits(rng.random(3)) == bits(reference.random(3))


@settings(max_examples=200, deadline=None)
@given(x=boxes, y=boxes, speed=spans, delta=spans, seed=st.integers(0, 2**32 - 1))
@example(x=(3.0, 3.0), y=(-100.0, -80.0), speed=(-5e299, 5e299), delta=(-0.0, -0.0), seed=1)
def test_scenario_draw_is_uniform_bit_for_bit(x, y, speed, delta, seed):
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    ensemble = ScenarioEnsemble(x_range=x, y_range=y, speed_range=speed, delta_range=delta)
    values = ensemble._draw(rng)
    assert all(type(v) is float for v in values)
    assert bits(values) == bits([reference.uniform(*r) for r in (x, y, speed, delta)])
    assert bits(rng.random(3)) == bits(reference.random(3))
