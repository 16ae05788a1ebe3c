"""Property tests: the geometry column kernels (``geometry._truth_columns``,
``geometry._invert_columns``) against the scalar ``math`` reference in
``reference_chain``, compared as packed float64 bits, with each failing
row's GeometryError text; the scalar distances against the kernels' legs;
the sweep's column readout against the reference chain at aliasing stride
pairs; and the sweep builds no per-trial objects."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import bisac  # noqa: E402
from bisac import (  # noqa: E402
    BistaticScenario,
    EstimationResult,
    ExperimentConfig,
    GeometryError,
    ScenarioEnsemble,
    SensingGroundTruth,
    beta_from_estimates,
    derive_ground_truth,
    invert_bistatic_range,
    make_periodic,
    run_sweep,
)
from bisac.geometry import _invert_columns, _inversion_error, _truth_columns  # noqa: E402
from bisac.harness import _block_errors, simulate_trial  # noqa: E402
from bisac.sim import _QPSK  # noqa: E402
from reference_chain import ground_truth, invert, reference_trial  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore::bisac.sim.IsiWarning")


def bits(values):
    return np.asarray(values, float).view(np.uint64).tolist()


coords = st.one_of(st.floats(-1e3, 1e3), st.just(math.nan))
points = st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))


@st.composite
def targets(draw, tx, rx):
    """A target (x, y): anywhere, on a terminal or next to one, on the
    baseline segment or its line, or NaN."""
    kind = draw(st.sampled_from(["free", "terminal", "near", "segment", "nan"]))
    if kind == "free":
        return draw(coords), draw(coords)
    if kind == "nan":
        return math.nan, draw(coords)
    end = draw(st.sampled_from([tx, rx]))
    if kind == "terminal":
        return end
    if kind == "near":
        return tuple(c + draw(st.floats(-1e-6, 1e-6)) for c in end)
    t = draw(st.floats(-2.0, 3.0))
    return tuple(a + t * (b - a) for a, b in zip(tx, rx))


@st.composite
def scenes(draw):
    """Terminals (sometimes coincident), a carrier and draws (x, y, speed, delta)."""
    tx = draw(points)
    rx = draw(st.one_of(points, st.just(tx)))
    draws = draw(st.lists(st.tuples(targets(tx, rx), st.one_of(st.floats(-1e3, 1e3),
                                                                st.just(math.nan)),
                                    st.one_of(st.floats(-10.0, 10.0), st.just(math.nan))),
                          min_size=1, max_size=8))
    scene = SimpleNamespace(tx_pos=tx, rx_pos=rx, carrier_hz=draw(st.floats(1e6, 1e11)))
    return scene, [(*target, speed, delta) for target, speed, delta in draws]


@settings(max_examples=300, deadline=None)
@given(scenes())
@example((SimpleNamespace(tx_pos=(-40.0, 0.0), rx_pos=(0.0, 40.0), carrier_hz=30e9),
          [(-20.0, 20.0, 1.0, 0.1), (-40.0, 0.0, 1.0, 0.1), (90.0, -90.0, 10.0, 0.0),
           (-80.0, -40.0, 3.0, math.nan), (math.nan, 5.0, 1.0, 0.0)]))
def test_truth_columns_equal_the_scalar_reference(case):
    scene, draws = case
    columns, degenerate, _ = _truth_columns(scene, draws)
    assert columns.shape == (6, len(draws)) and degenerate.shape == (len(draws),)
    for row, values, failed in zip(draws, columns.T, degenerate.tolist()):
        # the public one-row wrapper takes finite scenarios alone
        scenario = (BistaticScenario(scene.tx_pos, scene.rx_pos, row[:2], *row[2:],
                                     scene.carrier_hz) if np.isfinite(row).all() else None)
        try:
            want = ground_truth(scene.tx_pos, scene.rx_pos, row[:2], *row[2:], scene.carrier_hz)
        except GeometryError as exc:
            assert failed and bits(values) == bits([0.0] * 6)
            if scenario is not None:
                with pytest.raises(GeometryError) as info:
                    derive_ground_truth(scenario)
                assert str(info.value) == str(exc)
            continue
        assert not failed
        assert bits(values) == bits(list(vars(want).values()))
        if scenario is not None:
            assert bits(list(vars(derive_ground_truth(scenario)).values())) == bits(values)


@settings(max_examples=300, deadline=None)
@given(tx=points, rx=points, target=points)
# numpy's norm read this baseline one ulp off libm's hypot
@example(tx=(-25.0, -72.0), rx=(48.5, 98.1), target=(0.0, 0.0))
def test_scenario_distances_are_the_kernels_legs(tx, rx, target):
    # a scenario's legs and baseline and the ensemble's baseline are the
    # column kernels' d_tx, d_rx and D, bit for bit: the sweep inverts its
    # estimates with the baseline its truths were drawn with
    scenario = BistaticScenario(tx, rx, target)
    _, _, (d_tx, d_rx, baseline) = _truth_columns(scenario, [(*target, 0.0, 0.0)])
    ensemble = ScenarioEnsemble(tx_pos=tx, rx_pos=rx)
    assert bits([scenario.d_tx, scenario.d_rx, scenario.baseline, ensemble.baseline]) == bits(
        [d_tx[0], d_rx[0], baseline, baseline])


lengths = st.one_of(st.floats(-1e4, 1e4), st.just(math.nan))
angles = st.one_of(st.floats(-10.0, 10.0), st.just(math.nan), st.sampled_from([0.0, math.pi]))


@st.composite
def inversions(draw):
    """A baseline (negative, zero, NaN or positive) and ranges at angles: any,
    and ranges next to the baseline, where rounding clips the cosine."""
    baseline = draw(st.one_of(st.floats(-10.0, 1e3), st.just(0.0), st.just(math.nan)))
    near = st.floats(0.0, 1e-9).map(lambda e: baseline * (1.0 + e))
    rows = draw(st.lists(st.tuples(st.one_of(lengths, near), angles), min_size=1, max_size=8))
    return baseline, rows


@settings(max_examples=300, deadline=None)
@given(inversions())
@example((58.45290621269822, [(58.452906212715675, 3.141393138145825), (712.5, 0.0),
                              (50.0, 1.0), (math.nan, 1.0), (200.0, math.nan)]))
@example((math.nextafter(712.5, 0.0), [(712.5, 0.0), (700.0, 0.0)]))
@example((-1.0, [(5.0, 0.0), (math.nan, 0.0)]))
def test_invert_columns_equal_the_scalar_reference(case):
    baseline, rows = case
    d_bis, theta = (np.array(c, float) for c in zip(*rows))
    d_rx, beta, clamped, reasons = _invert_columns(d_bis, baseline, theta)
    for (d, t), got_d_rx, got_beta, got_clamped, reason in zip(
            rows, d_rx.tolist(), beta.tolist(), clamped.tolist(), reasons.tolist()):
        try:
            want = invert(d, baseline, t)
        except GeometryError as exc:
            assert reason != 0
            assert str(_inversion_error(reason, d, baseline)) == str(exc)
            for public in (invert_bistatic_range, beta_from_estimates):
                with pytest.raises(GeometryError) as info:
                    public(d, baseline, t)
                assert str(info.value) == str(exc)
            continue
        assert reason == 0
        assert bits([got_d_rx, got_beta]) == bits(want[:2]) and got_clamped is want[2]
        assert bits([invert_bistatic_range(d, baseline, t)]) == bits(want[:1])
        got = beta_from_estimates(d, baseline, t)
        assert bits(got[:1]) == bits(want[1:2]) and got[1] is want[2]


def test_clipped_cosine_is_flagged():
    # one ulp-scale range past the baseline, seen from behind the receiver:
    # the law-of-cosines argument rounds past -1 or 1
    _, beta, clamped, reasons = _invert_columns([58.452906212715675], 58.45290621269822,
                                                [3.141393138145825])
    assert reasons.tolist() == [0] and clamped.tolist() == [True] and beta.tolist() == [0.0]


def test_qpsk_symbols_are_unit_modulus():
    # the sweep's LS division takes the internally drawn symbols unchecked
    assert np.all(np.abs(np.abs(_QPSK) - 1.0) <= 1e-9)


def test_public_ls_estimate_checks_the_pilot_modulus():
    pattern = make_periodic(4, 2, 2, 1)
    frame = np.ones((4, 2), complex)
    frame[2, 1] = 0.5
    with pytest.raises(ValueError, match="pilot symbol modulus below unity"):
        bisac.ls_channel_estimate(frame, frame, pattern)


SNRS_DB = tuple(float(snr) for snr in range(-30, 31, 10))


@pytest.mark.parametrize("strides", [(5, 2), (11, 1)])
def test_block_errors_equal_the_reference_chain_at_aliasing_strides(strides):
    # pairs the golden CSVs do not cover: squared errors and valid flags of
    # the column readout, as packed bits, against the full-grid chain
    config = ExperimentConfig(pattern=make_periodic(70, 50, *strides), snr_grid_db=SNRS_DB,
                              trials_per_point=1, seed=7)
    for snr_idx in range(len(SNRS_DB)):
        sq_d, sq_v, valid = _block_errors((config, [(snr_idx, 0, 6)]))
        want = [reference_trial(config, snr_idx, trial)[2] for trial in range(6)]
        assert bits(sq_d) == bits([w[0] for w in want])
        assert bits(sq_v) == bits([w[1] for w in want])
        assert valid.tolist() == [w[2] for w in want]


def test_all_degenerate_block_is_invalid():
    on_tx = ScenarioEnsemble(x_range=(-40.0, -40.0), y_range=(0.0, 0.0))
    config = ExperimentConfig(ensemble=on_tx, snr_grid_db=(0.0, 20.0), seed=5)
    sq_d, sq_v, valid = _block_errors((config, [(0, 0, 5), (1, 3, 6)]))
    assert not valid.any() and np.isnan(sq_d).all() and np.isnan(sq_v).all()


def test_sweep_builds_no_per_trial_objects(monkeypatch):
    built = []
    for cls in (SensingGroundTruth, EstimationResult):
        def counted(self, *args, init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    config = ExperimentConfig(pattern=make_periodic(70, 50, 2, 5), snr_grid_db=(-20.0, 20.0),
                              trials_per_point=30, seed=2, ecrb_draws=1000)
    run_sweep(config)
    assert built == []
    # the count sees the objects that a single trial's replay builds
    simulate_trial(config, 1, 4)
    assert built == ["SensingGroundTruth", "EstimationResult"]
