"""Property tests: the sliced closed-form ECRB geometry draw against the
reference whole-array path (hypot legs, then the bistatic angle by arccos)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from bisac import DEGENERATE_EPS, ScenarioEnsemble, SingularPatternError  # noqa: E402
from bisac.bounds import _ECRB_SLICE, _ecrb_geometry  # noqa: E402
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
