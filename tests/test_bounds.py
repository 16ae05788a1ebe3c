import dataclasses
import math
import warnings

import numpy as np
import pytest

from bisac import (
    OfdmNumerology,
    PilotPattern,
    ScenarioEnsemble,
    SensingChannelParams,
    SingularPatternError,
    crb,
    crb_periodic_closed_form,
    derive_ground_truth,
    ecrb_vel,
    efim,
    fisher_matrix,
    make_periodic,
    mean_response,
    mean_response_jacobian,
    pattern_stats,
    rate_upper_bound,
)

C = 3e8


def random_pattern(rng, n_lo=8, n_hi=129):
    """Random non-collinear pattern on a random grid."""
    while True:
        n_grid = int(rng.integers(n_lo, n_hi))
        m_grid = int(rng.integers(n_lo, n_hi))
        count = int(rng.integers(6, min(200, n_grid * m_grid)))
        flat = rng.choice(n_grid * m_grid, size=count, replace=False)
        p = PilotPattern(
            n_grid=n_grid, m_grid=m_grid,
            cells=np.column_stack([flat // m_grid, flat % m_grid]),
        )
        if pattern_stats(p).q_det > 0:
            return p


def random_params(rng):
    return SensingChannelParams(
        alpha_re=rng.uniform(0.3, 2.0),
        alpha_im=rng.uniform(-2.0, 2.0),
        tau=rng.uniform(0.0, 2e-6),
        f_d=rng.uniform(-5e3, 5e3),
        noise_var=rng.uniform(0.01, 10.0),
    )


class TestFisherMatrix:
    def test_gain_diagonal(self, num):
        p = make_periodic(70, 50, 2, 5)
        params = SensingChannelParams(noise_var=0.37)
        fb = fisher_matrix(params, p, num)
        assert fb.j[0, 0] == pytest.approx(2 * 350 / 0.37, rel=1e-14)
        assert fb.j[1, 1] == pytest.approx(2 * 350 / 0.37, rel=1e-14)
        assert np.array_equal(fb.a, 350 * np.eye(2))

    def test_real_gain_zeroes_first_cross_row(self, num):
        p = make_periodic(70, 50, 2, 5)
        fb = fisher_matrix(SensingChannelParams(alpha_re=1.0, alpha_im=0.0), p, num)
        assert np.all(fb.b[0] == 0.0)

    def test_single_origin_pilot_zero_delay_doppler_block(self, num):
        p = PilotPattern(n_grid=70, m_grid=50, cells=[[0, 0]])
        fb = fisher_matrix(SensingChannelParams(), p, num)
        assert np.all(fb.d == 0.0)

    def test_structure_invariants(self, num):
        rng = np.random.default_rng(21)
        for _ in range(20):
            p = random_pattern(rng)
            fb = fisher_matrix(random_params(rng), p, num)
            assert np.array_equal(fb.c, fb.b.T)
            assert np.allclose(fb.j, fb.j.T, rtol=0, atol=0)
            assert np.linalg.eigvalsh(fb.j).min() >= -1e-6 * np.abs(fb.j).max()

    def test_matches_outer_product_route_with_random_nuisance(self, num):
        # Gram construction from the analytic response derivatives, with
        # randomized delay, Doppler and symbol values: all must cancel.
        rng = np.random.default_rng(33)
        for _ in range(20):
            p = random_pattern(rng)
            params = random_params(rng)
            symbols = np.exp(2j * np.pi * rng.uniform(0, 1, p.size))
            jac = mean_response_jacobian(params, p, num, symbols)
            gram = (2.0 / params.noise_var) * np.real(jac.conj().T @ jac)
            fb = fisher_matrix(params, p, num)
            assert np.allclose(gram, fb.j, rtol=1e-12, atol=1e-9 * np.abs(fb.j).max())

    def test_analytic_derivatives_vs_central_differences(self, num):
        rng = np.random.default_rng(8)
        for _ in range(25):
            p = random_pattern(rng, n_lo=4, n_hi=71)
            params = random_params(rng)
            symbols = np.exp(2j * np.pi * rng.uniform(0, 1, p.size))
            jac = mean_response_jacobian(params, p, num, symbols)
            steps = {
                "alpha_re": 1e-6,
                "alpha_im": 1e-6,
                "f_d": 1e-4 / (2 * np.pi * num.n_symbols * num.symbol_duration_s),
                "tau": 1e-4 / (2 * np.pi * num.n_subcarriers * num.subcarrier_spacing_hz),
            }
            for k, (name, h) in enumerate(steps.items()):
                hi = dataclasses.replace(params, **{name: getattr(params, name) + h})
                lo = dataclasses.replace(params, **{name: getattr(params, name) - h})
                fd = (mean_response(hi, p, num, symbols)
                      - mean_response(lo, p, num, symbols)) / (2 * h)
                scale = np.abs(jac[:, k]).max()
                assert np.abs(fd - jac[:, k]).max() <= 1e-6 * scale


class TestEfim:
    def test_periodic_cross_term_exactly_zero(self, num):
        for strides in [(2, 5), (11, 1), (1, 1), (7, 3)]:
            m = efim(SensingChannelParams(noise_var=0.5), make_periodic(70, 50, *strides), num)
            assert m[0, 1] == 0.0
            assert m[1, 0] == 0.0

    def test_two_by_two_unit_grid(self):
        # unit spacing, no CP: both diagonal entries collapse to 8 pi^2
        unit = OfdmNumerology(
            n_subcarriers=2, n_symbols=2, subcarrier_spacing_hz=1.0,
            cp_duration_s=0.0, carrier_hz=30e9,
        )
        m = efim(SensingChannelParams(), make_periodic(2, 2, 1, 1), unit)
        assert np.allclose(m, 8 * np.pi**2 * np.eye(2), rtol=1e-14)

    def test_matches_block_schur_route(self, num):
        rng = np.random.default_rng(44)
        for _ in range(20):
            p = random_pattern(rng)
            params = random_params(rng)
            fb = fisher_matrix(params, p, num)
            schur = (2.0 / params.noise_var) * (
                fb.d - fb.c @ np.linalg.inv(fb.a) @ fb.b
            )
            m = efim(params, p, num)
            assert np.allclose(m, schur, rtol=1e-10, atol=1e-10 * np.abs(m).max())

    def test_schur_inverse_identity(self, num):
        # diagonal of the full 4x4 inverse against the 2x2 reduced inverse
        rng = np.random.default_rng(55)
        for _ in range(30):
            p = random_pattern(rng)
            params = random_params(rng)
            j_inv = np.linalg.inv(fisher_matrix(params, p, num).j)
            e_inv = np.linalg.inv(efim(params, p, num))
            for k in range(2):
                assert j_inv[k + 2, k + 2] == pytest.approx(e_inv[k, k], rel=1e-10)

    def test_singular_pattern_raises(self, num):
        line = PilotPattern(n_grid=70, m_grid=50, cells=[[n, 0] for n in range(6)])
        with pytest.raises(SingularPatternError):
            efim(SensingChannelParams(), line, num)


class TestCrb:
    def test_reference_point_against_scalar_oracle(self, num):
        # stride (2, 5) at 5 dB: independent scalar evaluation
        params = SensingChannelParams.from_snr_db(5.0)
        report = crb(params, make_periodic(70, 50, 2, 5), num)
        expected = (
            12.0 / (34 * 36 * 350 * 4)
            * 10 ** (-0.5) * C**2 / (8 * math.pi**2 * (2e5) ** 2)
        )
        assert report.crb_ran_m2 == pytest.approx(expected, rel=1e-12)
        assert report.rmse_bound_ran_m == pytest.approx(0.2512, rel=5e-3)

    def test_gain_scaling(self, num):
        p = make_periodic(70, 50, 2, 5)
        one = crb(SensingChannelParams(alpha_re=1.0, noise_var=0.2), p, num, beta=0.3)
        dbl = crb(
            SensingChannelParams(alpha_re=math.sqrt(2.0), noise_var=0.2), p, num, beta=0.3
        )
        assert dbl.crb_ran_m2 == pytest.approx(one.crb_ran_m2 / 2, rel=1e-12)
        assert dbl.crb_vel_ms2 == pytest.approx(one.crb_vel_ms2 / 2, rel=1e-12)

    def test_independent_of_true_delay_doppler(self, num):
        p = make_periodic(70, 50, 2, 1)
        a = crb(SensingChannelParams(tau=0.0, f_d=0.0, noise_var=0.5), p, num, beta=0.2)
        b = crb(SensingChannelParams(tau=1.3e-6, f_d=4.2e3, noise_var=0.5), p, num, beta=0.2)
        assert a.crb_ran_m2 == b.crb_ran_m2
        assert a.crb_vel_ms2 == b.crb_vel_ms2

    def test_singular_raises(self, num):
        diag = PilotPattern(n_grid=50, m_grid=50, cells=[[k, k] for k in range(10)])
        with pytest.raises(SingularPatternError):
            crb(SensingChannelParams(), diag, num)

    def test_overflowing_bound_raises(self):
        params = SensingChannelParams.from_snr_db(-3000)
        with pytest.raises(ValueError, match="not finite, positive"):
            crb(params, make_periodic(70, 50, 2, 1), OfdmNumerology())

    @pytest.mark.parametrize("gain", [1e200, np.float64(1e200)], ids=["float", "float64"])
    def test_overflowing_gain_raises(self, gain):
        # squaring raised OverflowError on a Python float and warned on a numpy one
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite, positive floats"):
                crb(SensingChannelParams(alpha_re=gain), make_periodic(70, 50, 2, 5),
                    OfdmNumerology(), beta=0.0)

    @pytest.mark.parametrize("beta", [math.pi, -0.1, 3 * math.pi, math.nan])
    def test_bistatic_angle_outside_zero_to_pi_raises(self, num, beta):
        # at beta = pi the velocity bound is infinite; beyond it cos^2 repeats
        with pytest.raises(ValueError, match="beta"):
            crb(SensingChannelParams(), make_periodic(70, 50, 2, 5), num, beta=beta)

    def test_bistatic_angle_just_below_pi_accepted(self, num):
        report = crb(SensingChannelParams(), make_periodic(70, 50, 2, 5), num,
                     beta=math.pi - 1e-6)
        assert math.isfinite(report.crb_vel_ms2)

    @pytest.mark.parametrize("field", ["alpha_re", "alpha_im", "tau", "f_d", "noise_var"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, 10**400])
    def test_non_finite_channel_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SensingChannelParams(**{field: value})

    def test_equals_full_fisher_inverse_on_arbitrary_patterns(self, num):
        # random cells have q_nm != 0, so the cross term does not vanish
        rng = np.random.default_rng(41)
        cross = 0
        for _ in range(200):
            p, params, beta = random_pattern(rng), random_params(rng), rng.uniform(0.0, 2.8)
            cross += pattern_stats(p).q_nm != 0
            inv = np.linalg.inv(fisher_matrix(params, p, num).j)
            report = crb(params, p, num, beta=beta)
            assert report.crb_ran_m2 == pytest.approx(C**2 * inv[3, 3], rel=1e-10)
            scale = num.wavelength / (2.0 * math.cos(beta / 2.0))
            assert report.crb_vel_ms2 == pytest.approx(scale**2 * inv[2, 2], rel=1e-10)
        assert cross > 150

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
    def test_non_finite_snr_rejected(self, snr_db):
        with pytest.raises(ValueError, match="noise_var"):
            SensingChannelParams.from_snr_db(snr_db)

    @pytest.mark.parametrize("snr_db", ["5", True, None, np.array(5.0)])
    def test_non_number_snr_rejected(self, snr_db):
        with pytest.raises(ValueError, match="^snr_db must be a number in dB"):
            SensingChannelParams.from_snr_db(snr_db)


# numbers of each accepted type; each field stores float(value)
CHANNEL_VALUES = [0.3, np.float32(7.3), np.float64(-2.5e-7), np.float16(0.1), 3,
                  np.int64(-4), np.uint8(9)]


class TestChannelParamsPlainFloats:
    @pytest.mark.parametrize("value", CHANNEL_VALUES, ids=repr)
    @pytest.mark.parametrize("field", ["alpha_re", "alpha_im", "tau", "f_d", "noise_var"])
    def test_field_is_the_float_of_its_value(self, field, value):
        if field == "noise_var":
            value = abs(value)
        params = SensingChannelParams(**{field: value})
        # a float keeps its bits: float() of any of these types is exact
        assert getattr(params, field) == float(value)
        assert all(type(getattr(params, f.name)) is float
                   for f in dataclasses.fields(params))

    def test_float32_snr_computes_in_double(self):
        snr_db = np.float32(7.3)
        params = SensingChannelParams.from_snr_db(snr_db)
        assert type(params.noise_var) is float
        assert params.noise_var == 10.0 ** (-float(snr_db) / 10.0)
        pattern, num = make_periodic(70, 50, 2, 5), OfdmNumerology()
        report = crb(params, pattern, num)
        assert all(type(v) is float for v in dataclasses.astuple(report))
        assert report == crb(SensingChannelParams.from_snr_db(float(snr_db)), pattern, num)

    def test_bounds_are_plain_floats_for_numpy_fields(self):
        pattern, num = make_periodic(70, 50, 2, 5), OfdmNumerology()
        params = SensingChannelParams(alpha_re=np.float32(0.5), alpha_im=np.float64(0.25),
                                      noise_var=np.float32(2.0))
        report = crb(params, pattern, num, beta=0.4)
        assert all(type(v) is float for v in dataclasses.astuple(report))
        plain = SensingChannelParams(alpha_re=0.5, alpha_im=0.25, noise_var=2.0)
        assert report == crb(plain, pattern, num, beta=0.4)


class TestCrbPeriodicClosedForm:
    def test_reference_quadruple(self, num):
        params = SensingChannelParams.from_snr_db(5.0)
        expected = {(1, 11): 0.2511, (2, 5): 0.2512, (5, 2): 0.2517, (11, 1): 0.2306}
        for strides, value in expected.items():
            report = crb_periodic_closed_form(params, num, *strides)
            assert report.rmse_bound_ran_m == pytest.approx(value, rel=5e-3)

    def test_agrees_with_generic_route(self, num):
        rng = np.random.default_rng(66)
        for _ in range(50):
            n_grid = int(rng.integers(3, 129))
            m_grid = int(rng.integers(3, 129))
            n_p = int(rng.integers(1, n_grid))
            m_p = int(rng.integers(1, m_grid))
            params = random_params(rng)
            beta = rng.uniform(0.0, 2.8)
            closed = crb_periodic_closed_form(params, dataclasses.replace(
                num, n_subcarriers=n_grid, n_symbols=m_grid), n_p, m_p, beta)
            generic = crb(params, make_periodic(n_grid, m_grid, n_p, m_p),
                          dataclasses.replace(num, n_subcarriers=n_grid,
                                              n_symbols=m_grid), beta)
            assert closed.crb_ran_m2 == pytest.approx(generic.crb_ran_m2, rel=1e-12)
            assert closed.crb_vel_ms2 == pytest.approx(generic.crb_vel_ms2, rel=1e-12)

    def test_unobservable_axes_raise(self, num):
        params = SensingChannelParams()
        with pytest.raises(SingularPatternError):
            crb_periodic_closed_form(params, num, 70, 1)  # K = 0
        with pytest.raises(SingularPatternError):
            crb_periodic_closed_form(params, num, 1, 50)  # L = 0

    def test_decay_law_argmin(self, num, ensemble):
        # at fixed overhead the range bound is smallest at the largest
        # stride in frequency, the velocity bound at the largest in time
        params = SensingChannelParams.from_snr_db(5.0)
        pairs = [(1, 11), (2, 5), (5, 2), (11, 1)]
        ran = [crb_periodic_closed_form(params, num, *p).crb_ran_m2 for p in pairs]
        vel = [
            ecrb_vel(ensemble, params, make_periodic(70, 50, *p), num,
                     draws=4000, seed=9).value_ms
            for p in pairs
        ]
        assert int(np.argmin(ran)) == pairs.index((11, 1))
        assert int(np.argmin(vel)) == pairs.index((1, 11))


class TestEcrbVel:
    def test_point_mass_equals_single_evaluation(self, num, reference_scenario):
        params = SensingChannelParams.from_snr_db(5.0)
        point = ScenarioEnsemble(x_range=(90.0, 90.0), y_range=(-90.0, -90.0))
        p = make_periodic(70, 50, 2, 5)
        beta = derive_ground_truth(reference_scenario).beta
        direct = crb(params, p, num, beta=beta).rmse_bound_vel_ms
        est = ecrb_vel(point, params, p, num, draws=500, seed=4)
        assert est.value_ms == pytest.approx(direct, rel=1e-12)
        assert est.skipped == 0

    def test_center_of_box_scalar_oracle(self, num, reference_scenario):
        beta = derive_ground_truth(reference_scenario).beta
        oracle = math.sqrt(
            12.0 / (9 * 11 * 350 * 25)
            * 10 ** (-0.5) * 0.01**2
            / (32 * math.pi**2 * (6e-6) ** 2 * math.cos(beta / 2) ** 2)
        )
        params = SensingChannelParams.from_snr_db(5.0)
        point = ScenarioEnsemble(x_range=(90.0, 90.0), y_range=(-90.0, -90.0))
        est = ecrb_vel(point, params, make_periodic(70, 50, 2, 5), num, draws=10, seed=0)
        assert est.value_ms == pytest.approx(oracle, rel=1e-12)
        assert est.value_ms == pytest.approx(0.1995, abs=2e-4)

    def test_box_average_reference_value(self, num, ensemble):
        params = SensingChannelParams.from_snr_db(5.0)
        est = ecrb_vel(ensemble, params, make_periodic(70, 50, 2, 5), num,
                       draws=100_000, seed=12)
        assert est.value_ms == pytest.approx(0.2016, rel=0.02)

    def test_deterministic_per_seed(self, num, ensemble):
        params = SensingChannelParams.from_snr_db(0.0)
        p = make_periodic(70, 50, 2, 5)
        a = ecrb_vel(ensemble, params, p, num, draws=1000, seed=7)
        b = ecrb_vel(ensemble, params, p, num, draws=1000, seed=7)
        assert a.value_ms == b.value_ms

    def test_fully_degenerate_ensemble_raises(self, num):
        params = SensingChannelParams.from_snr_db(0.0)
        broken = ScenarioEnsemble(
            tx_pos=np.array([90.0, -90.0]), x_range=(90.0, 90.0), y_range=(-90.0, -90.0)
        )
        with pytest.raises(SingularPatternError):
            ecrb_vel(broken, params, make_periodic(70, 50, 2, 5), num, draws=10, seed=1)

    @pytest.mark.parametrize("x_range, y_range", [
        ((-21.0, -19.0), (19.0, 21.0)),  # holds the segment's point (-20, 20)
        ((-21.0, -19.0), (21.0, 25.0)),  # meets it at the corner (-19, 21) alone
        ((-19.0, -21.0), (21.0, 19.0)),  # the first box, its ranges reversed
        ((-20.0, -20.0), (20.0, 20.0)),  # a point mass on it
        ((-50.0, 10.0), (-10.0, 50.0)),  # the whole segment and the terminals
    ])
    def test_box_on_the_baseline_segment_raises(self, num, x_range, y_range):
        # the mean of 1/cos(beta/2) diverges: no draw count gives it
        params = SensingChannelParams.from_snr_db(5.0)
        on_segment = ScenarioEnsemble(x_range=x_range, y_range=y_range)
        with pytest.raises(SingularPatternError, match="baseline segment"):
            ecrb_vel(on_segment, params, make_periodic(70, 50, 2, 5), num, draws=1000, seed=0)

    @pytest.mark.parametrize("x_range, y_range", [
        ((-21.0, -19.0), (21.0 + math.sqrt(2.0), 25.0)),  # 1 m off the segment
        ((-50.0, -40.0), (-10.0, 0.0)),  # meets it at the transmitter alone
        ((-60.0, -50.0), (-20.0, -10.0)),  # on the baseline's line, beyond a terminal
    ])
    def test_box_off_the_baseline_segment_is_finite(self, num, x_range, y_range):
        params = SensingChannelParams.from_snr_db(5.0)
        box = ScenarioEnsemble(x_range=x_range, y_range=y_range)
        est = ecrb_vel(box, params, make_periodic(70, 50, 2, 5), num, draws=1000, seed=0)
        assert math.isfinite(est.value_ms)

    @pytest.mark.parametrize("draws", [0, 2.5, True])
    def test_draws_must_be_a_positive_integer(self, num, ensemble, draws):
        params = SensingChannelParams.from_snr_db(0.0)
        with pytest.raises(ValueError, match="draws"):
            ecrb_vel(ensemble, params, make_periodic(70, 50, 2, 5), num, draws=draws)


class TestRateUpperBound:
    def test_reference_values(self, num):
        expected = {0.02: 23.523e6, 0.1: 21.602e6, 0.5: 12.001e6, 1.0: 0.0}
        for rho, value in expected.items():
            assert rate_upper_bound(num, rho, 5.0) == pytest.approx(value, abs=1e3)

    def test_zero_cases(self, num):
        assert rate_upper_bound(num, 1.0, 5.0) == 0.0
        assert rate_upper_bound(num, 0.3, -math.inf) == 0.0

    def test_intermediate_overhead_oracle(self, num):
        oracle = 70 * 0.7 / 6e-6 * math.log2(1 + 10**0.5)
        assert rate_upper_bound(num, 0.3, 5.0) == pytest.approx(oracle, rel=1e-15)
        assert rate_upper_bound(num, 0.3, 5.0) == pytest.approx(16.801e6, abs=1e3)

    def test_monotone_in_overhead(self, num):
        rates = [rate_upper_bound(num, rho, 5.0) for rho in np.linspace(0, 1, 11)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_domain(self, num):
        with pytest.raises(ValueError):
            rate_upper_bound(num, 1.2, 5.0)
