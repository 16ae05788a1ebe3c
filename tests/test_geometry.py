import math

import numpy as np
import pytest

from bisac import (
    BistaticScenario,
    GeometryError,
    SPEED_OF_LIGHT,
    ScenarioEnsemble,
    beta_from_estimates,
    derive_ground_truth,
    invert_bistatic_range,
)


def vector_angle_beta(scenario):
    """Independent oracle: beta as the angle between the target-to-terminal
    direction vectors, no law of cosines."""
    to_tx = np.subtract(scenario.tx_pos, scenario.target_pos)
    to_rx = np.subtract(scenario.rx_pos, scenario.target_pos)
    cosine = np.dot(to_tx, to_rx) / (
        np.linalg.norm(to_tx) * np.linalg.norm(to_rx)
    )
    return math.acos(min(1.0, max(-1.0, cosine)))


NAN, INF = math.nan, math.inf
SCENE = dict(tx_pos=[-40.0, 0.0], rx_pos=[0.0, 40.0], target_pos=[90.0, -90.0],
             speed=10.0, delta=0.0, carrier_hz=30e9)


@pytest.mark.parametrize("field, value", [
    ("tx_pos", [NAN, 0.0]), ("tx_pos", [INF, 0.0]),
    ("rx_pos", [0.0, NAN]), ("rx_pos", [0.0, -INF]),
    ("target_pos", [NAN, -90.0]), ("target_pos", [INF, -90.0]),
    ("speed", NAN), ("speed", INF),
    ("delta", NAN), ("delta", -INF),
    ("carrier_hz", NAN), ("carrier_hz", INF),
])
def test_scenario_rejects_non_finite_value(field, value):
    with pytest.raises(ValueError, match=field):
        BistaticScenario(**dict(SCENE, **{field: value}))


@pytest.mark.parametrize("field", ["x_range", "y_range", "speed_range", "delta_range"])
def test_reversed_range_is_not_drawn(field):
    # the ensemble holds a reversed range, which the baseline check reads as
    # a box, but no draw takes it: the error names it, and the generator
    # has not moved
    ensemble = ScenarioEnsemble(**{field: (1.0, -1.0)})
    rng = np.random.default_rng(3)
    draws = [ensemble.sample, ensemble.sample_truth]
    if field in ("x_range", "y_range"):
        draws.append(lambda rng: ensemble.sample_targets(rng, 10))
    for draw in draws:
        with pytest.raises(ValueError, match=f"{field} must run from low to high"):
            draw(rng)
    assert rng.random() == np.random.default_rng(3).random()


class TestDeriveGroundTruth:
    def test_symmetric_scene(self, reference_scenario):
        gt = derive_ground_truth(reference_scenario)
        leg = math.sqrt(25000.0)
        assert reference_scenario.d_tx == pytest.approx(leg, rel=1e-12)
        assert reference_scenario.d_rx == pytest.approx(leg, rel=1e-12)
        assert reference_scenario.baseline == pytest.approx(math.sqrt(3200.0), rel=1e-12)
        assert gt.d_bis == pytest.approx(2 * leg, rel=1e-12)
        assert math.degrees(gt.beta) == pytest.approx(20.61, abs=0.005)
        assert gt.beta == pytest.approx(vector_angle_beta(reference_scenario), rel=1e-12)
        assert gt.f_d == 0.0
        assert gt.tau == pytest.approx(2 * leg / SPEED_OF_LIGHT, rel=1e-15)

    def test_perpendicular_bisector_symmetry(self):
        # any target on the bisector of the tx-rx segment has equal legs
        rng = np.random.default_rng(3)
        tx = np.array([-7.0, 1.0])
        rx = np.array([5.0, 9.0])
        mid = (tx + rx) / 2
        normal = np.array([-(rx - tx)[1], (rx - tx)[0]])
        for _ in range(20):
            target = mid + rng.uniform(1.0, 300.0) * normal / np.linalg.norm(normal)
            sc = BistaticScenario(tx_pos=tx, rx_pos=rx, target_pos=target)
            gt = derive_ground_truth(sc)
            assert sc.d_tx == pytest.approx(sc.d_rx, rel=1e-12)
            assert gt.tau == pytest.approx(2 * sc.d_tx / SPEED_OF_LIGHT, rel=1e-12)

    def test_collinear_target_zero_beta_doppler(self):
        # target on the baseline ray beyond rx: beta = 0, wavelength 1 cm
        sc = BistaticScenario(
            tx_pos=[0.0, 0.0],
            rx_pos=[10.0, 0.0],
            target_pos=[1000.0, 0.0],
            speed=10.0,
            delta=0.0,
            carrier_hz=30e9,
        )
        gt = derive_ground_truth(sc)
        assert gt.beta == pytest.approx(0.0, abs=1e-7)
        assert gt.f_d == pytest.approx(2 * 10.0 / 0.01, rel=1e-9)

    def test_degenerate_distance_raises(self):
        sc = BistaticScenario(
            tx_pos=[0.0, 0.0], rx_pos=[10.0, 0.0], target_pos=[1e-9, 1e-9]
        )
        with pytest.raises(GeometryError):
            derive_ground_truth(sc)

    def test_doppler_parity_in_speed_and_delta(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            target = rng.uniform(-200, 200, 2)
            v = rng.uniform(0.1, 40)
            delta = rng.uniform(-1.2, 1.2)
            def f_d(speed, dl):
                sc = BistaticScenario(
                    tx_pos=[-40, 0], rx_pos=[0, 40], target_pos=target,
                    speed=speed, delta=dl,
                )
                return derive_ground_truth(sc).f_d
            assert f_d(-v, delta) == -f_d(v, delta)
            assert f_d(v, -delta) == f_d(v, delta)

    def test_beta_in_open_interval_and_decays_on_ray(self):
        tx, rx = np.array([-40.0, 0.0]), np.array([0.0, 40.0])
        direction = np.array([0.6, -0.8])
        base = np.array([50.0, -30.0])
        betas = []
        for t in np.linspace(0.0, 5000.0, 40):
            sc = BistaticScenario(tx_pos=tx, rx_pos=rx, target_pos=base + t * direction)
            beta = derive_ground_truth(sc).beta
            assert 0.0 < beta < math.pi
            betas.append(beta)
        assert all(b1 > b2 for b1, b2 in zip(betas, betas[1:]))
        assert betas[-1] < 0.05


    def test_sample_truth_is_the_truth_of_the_sampled_scenario(self, ensemble):
        for seed in range(50):
            truth = ensemble.sample_truth(np.random.default_rng(seed))
            assert truth == derive_ground_truth(ensemble.sample(np.random.default_rng(seed)))


class TestInvertBistaticRange:
    def test_monostatic_collapse(self):
        assert invert_bistatic_range(123.4, 0.0, 0.7) == pytest.approx(61.7, rel=1e-15)

    def test_round_trip_reference(self, reference_scenario):
        gt = derive_ground_truth(reference_scenario)
        d_rx = invert_bistatic_range(gt.d_bis, reference_scenario.baseline, gt.theta)
        assert d_rx == pytest.approx(reference_scenario.d_rx, rel=1e-12)

    def test_right_angle_closed_form(self):
        big_d = 37.0
        d_rx = invert_bistatic_range(2 * big_d, big_d, math.radians(90.0))
        assert d_rx == pytest.approx(3 * big_d / 4, rel=1e-12)

    def test_domain_error_inside_baseline(self):
        with pytest.raises(GeometryError):
            invert_bistatic_range(50.0, 56.6, 1.0)
        with pytest.raises(GeometryError):
            invert_bistatic_range(56.6, 56.6, 1.0)
        # one ulp outside the baseline the receiver leg rounds to 768 m, past
        # the 712.5 m range, which leaves the transmitter no leg
        with pytest.raises(GeometryError, match="nonpositive leg"):
            invert_bistatic_range(712.5, math.nextafter(712.5, 0.0), 0.0)

    def test_round_trip_random_scenarios(self):
        # bulk property: inversion recovers the receiver leg to 1e-9 relative
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 10_000:
            tx = rng.uniform(-500, 500, 2)
            rx = rng.uniform(-500, 500, 2)
            target = rng.uniform(-500, 500, 2)
            sc = BistaticScenario(tx_pos=tx, rx_pos=rx, target_pos=target)
            d = min(sc.d_tx, sc.d_rx, sc.baseline)
            if d < 1e-3:
                continue
            gt = derive_ground_truth(sc)
            if gt.d_bis - sc.baseline < 1e-3 * gt.d_bis:
                continue  # near the degenerate ellipse region: the
                # inversion is ill-conditioned there by construction
            d_rx = invert_bistatic_range(gt.d_bis, sc.baseline, gt.theta)
            assert d_rx == pytest.approx(sc.d_rx, rel=1e-9)
            assert gt.d_bis - d_rx >= 0.0
            checked += 1


class TestBetaFromEstimates:
    def test_round_trip_identity(self, reference_scenario):
        gt = derive_ground_truth(reference_scenario)
        beta, clamped = beta_from_estimates(
            gt.d_bis, reference_scenario.baseline, gt.theta
        )
        assert not clamped
        assert beta == pytest.approx(gt.beta, rel=1e-12)

    def test_perturbation_matches_numeric_derivative(self, reference_scenario):
        # secant over +1 m vs central difference at the interval midpoint
        gt = derive_ground_truth(reference_scenario)
        baseline, theta = reference_scenario.baseline, gt.theta
        step = 1.0
        actual = (
            beta_from_estimates(gt.d_bis + step, baseline, theta)[0]
            - beta_from_estimates(gt.d_bis, baseline, theta)[0]
        )
        h = 1e-4
        mid = gt.d_bis + step / 2
        slope = (
            beta_from_estimates(mid + h, baseline, theta)[0]
            - beta_from_estimates(mid - h, baseline, theta)[0]
        ) / (2 * h)
        assert actual == pytest.approx(slope * step, rel=1e-5)

    def test_monostatic_collapse_zero_angle(self):
        beta, clamped = beta_from_estimates(200.0, 0.0, 1.3)
        assert beta == 0.0
        assert not clamped

    def test_domain_error_propagates(self):
        with pytest.raises(GeometryError):
            beta_from_estimates(10.0, 56.6, 0.5)
