import dataclasses
import math
import struct
import warnings

import numpy as np
import pytest

from bisac import (
    BistaticScenario,
    ExperimentConfig,
    IsiWarning,
    OfdmNumerology,
    ScenarioEnsemble,
    SensingChannelParams,
    apply_channel,
    channel_response,
    derive_ground_truth,
    generate_frame,
    make_periodic,
    read_grid,
    sample_scenario,
    write_grid,
)


class TestGenerateFrame:
    def test_unit_modulus_everywhere(self, num):
        frame = generate_frame(num, make_periodic(70, 50, 2, 5), seed=1)
        assert np.allclose(np.abs(frame), 1.0, rtol=0, atol=1e-15)

    def test_deterministic_per_seed(self, num):
        p = make_periodic(70, 50, 2, 5)
        a = generate_frame(num, p, seed=42)
        b = generate_frame(num, p, seed=42)
        c = generate_frame(num, p, seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_qpsk_alphabet(self, num):
        frame = generate_frame(num, make_periodic(70, 50, 1, 1), seed=9)
        points = np.unique(np.round(frame * math.sqrt(2)).view(float))
        assert set(points) == {-1.0, 1.0}


class TestApplyChannel:
    def test_identity_channel_exact(self, num):
        p = make_periodic(70, 50, 1, 1)
        frame = generate_frame(num, p, seed=3)
        out = apply_channel(frame, SensingChannelParams(noise_var=0.0), num, seed=4)
        assert np.array_equal(out, frame)

    def test_subcarrier_phase_progression(self, num):
        # delay of 1 us at 200 kHz spacing: 0.2 cycles per subcarrier step
        params = SensingChannelParams(tau=1e-6, noise_var=0.0)
        h = channel_response(params, num)
        expected = np.exp(-2j * np.pi * 0.2)
        ratios = h[1:, :] / h[:-1, :]
        assert np.allclose(ratios, expected, rtol=1e-12)

    def test_symbol_phase_progression(self, num):
        params = SensingChannelParams(f_d=1.5e3, noise_var=0.0)
        h = channel_response(params, num)
        expected = np.exp(2j * np.pi * 1.5e3 * num.symbol_duration_s)
        assert np.allclose(h[:, 1:] / h[:, :-1], expected, rtol=1e-12)

    def test_noise_variance_statistics(self):
        big = OfdmNumerology(n_subcarriers=1000, n_symbols=1000)
        p = make_periodic(1000, 1000, 1, 1)
        frame = generate_frame(big, p, seed=5)
        sigma2 = 0.73
        params = SensingChannelParams(tau=0.5e-6, f_d=300.0, noise_var=sigma2)
        out = apply_channel(frame, params, big, seed=6)
        resid = out - channel_response(params, big) * frame
        assert resid.real.mean() == pytest.approx(0.0, abs=3e-3)
        var = np.mean(np.abs(resid) ** 2)
        assert var == pytest.approx(sigma2, rel=0.01)
        # half the variance on each real component
        assert np.var(resid.real) == pytest.approx(sigma2 / 2, rel=0.02)

    def test_received_energy(self):
        big = OfdmNumerology(n_subcarriers=500, n_symbols=500)
        frame = generate_frame(big, make_periodic(500, 500, 1, 1), seed=7)
        params = SensingChannelParams(
            alpha_re=1.2, alpha_im=-0.5, tau=0.3e-6, f_d=800.0, noise_var=0.4
        )
        out = apply_channel(frame, params, big, seed=8)
        expected = params.gain_sq + params.noise_var
        assert np.mean(np.abs(out) ** 2) == pytest.approx(expected, rel=0.01)

    def test_cp_violation_flagged(self, num):
        frame = generate_frame(num, make_periodic(70, 50, 1, 1), seed=1)
        params = SensingChannelParams(tau=1.5e-6, noise_var=0.0)
        with pytest.warns(IsiWarning):
            apply_channel(frame, params, num, seed=2)

    def test_cp_violation_message_independent_of_delay(self, num):
        # one text for every delay, so the default filter prints it once
        frame = generate_frame(num, make_periodic(70, 50, 1, 1), seed=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for tau in (1.5e-6, 2.7e-6):
                apply_channel(frame, SensingChannelParams(tau=tau), num, seed=2)
        messages = {str(w.message) for w in caught if w.category is IsiWarning}
        assert len(caught) == 2 and len(messages) == 1

    def test_delay_aliasing_identity_exact(self):
        # dyadic arrangement: spacing 2^18 Hz, stride 4, delays and the
        # alias step 2^-20 s all exactly representable, so the pilot-cell
        # values must match bitwise
        dy = OfdmNumerology(
            n_subcarriers=64, n_symbols=32,
            subcarrier_spacing_hz=2.0**18, cp_duration_s=2.0**-18,
        )
        p = make_periodic(64, 32, 4, 2)
        frame = generate_frame(dy, p, seed=11)
        tau = 2.0**-20 + 2.0**-23
        step = 1.0 / (4 * dy.subcarrier_spacing_hz)
        assert step == 2.0**-20
        base = apply_channel(
            frame, SensingChannelParams(tau=tau, f_d=2.0**10, noise_var=0.0), dy, 0
        )
        alias = apply_channel(
            frame, SensingChannelParams(tau=tau + step, f_d=2.0**10, noise_var=0.0), dy, 0
        )
        mask = p.mask()
        assert np.array_equal(base[mask], alias[mask])
        # off-pilot cells must differ (the shift is visible between pilots)
        assert not np.array_equal(base[~mask], alias[~mask])

    def test_doppler_aliasing_identity_exact(self):
        dy = OfdmNumerology(
            n_subcarriers=64, n_symbols=32,
            subcarrier_spacing_hz=2.0**18, cp_duration_s=2.0**-18,
        )
        p = make_periodic(64, 32, 4, 2)
        frame = generate_frame(dy, p, seed=12)
        step = 1.0 / (2 * dy.symbol_duration_s)
        assert step == 2.0**16
        tau = 2.0**-20
        base = apply_channel(
            frame, SensingChannelParams(tau=tau, f_d=2.0**10, noise_var=0.0), dy, 0
        )
        alias = apply_channel(
            frame, SensingChannelParams(tau=tau, f_d=2.0**10 + step, noise_var=0.0), dy, 0
        )
        mask = p.mask()
        assert np.array_equal(base[mask], alias[mask])


class TestSampleScenario:
    def test_default_box_moments(self, ensemble):
        rng = np.random.default_rng(100)
        xs, ys = rng.random(100_000), rng.random(100_000)
        ensemble._scale(xs, ys)
        assert xs.mean() == pytest.approx(90.0, abs=0.2)
        assert ys.mean() == pytest.approx(-90.0, abs=0.2)
        assert xs.min() >= 80.0 and xs.max() <= 100.0

    def test_point_mass_reproduces_ground_truth(self):
        point = ScenarioEnsemble(
            x_range=(90.0, 90.0), y_range=(-90.0, -90.0),
            speed_range=(12.0, 12.0), delta_range=(0.1, 0.1),
        )
        scenario, truth = sample_scenario(point, seed=1)
        assert tuple(scenario.target_pos) == (90.0, -90.0)
        direct = derive_ground_truth(scenario)
        assert truth == direct
        assert truth.v_bis == pytest.approx(12.0 * math.cos(0.1), rel=1e-15)

    def test_deterministic(self, ensemble):
        a, ta = sample_scenario(ensemble, seed=77)
        b, tb = sample_scenario(ensemble, seed=77)
        assert np.array_equal(a.target_pos, b.target_pos)
        assert ta == tb

    def test_ensembles_and_draws_compare_by_value(self):
        assert ScenarioEnsemble() == ScenarioEnsemble()
        assert ScenarioEnsemble(tx_pos=np.array([-40, 0])) == ScenarioEnsemble()
        a = ScenarioEnsemble().sample(np.random.default_rng(77))
        b = ScenarioEnsemble().sample(np.random.default_rng(77))
        assert a == b
        assert a.tx_pos == (-40.0, 0.0)

    # assignments that would otherwise pass every check unseen
    @pytest.mark.parametrize("build, field, value", [
        (ScenarioEnsemble, "x_range", (0.0, 1.0)),
        (ExperimentConfig, "numerology", OfdmNumerology(n_subcarriers=90)),
        (ExperimentConfig, "ensemble", ScenarioEnsemble(carrier_hz=60e9)),
        (ExperimentConfig, "workers", 0),
        (ExperimentConfig, "trials_per_point", 0),
        (lambda: BistaticScenario((-40.0, 0.0), (0.0, 40.0), (90.0, -90.0)),
         "target_pos", (math.nan, 0.0)),
    ], ids=["ensemble", "config-numerology", "config-ensemble", "config-workers",
            "config-trials", "scenario"])
    def test_ensemble_is_immutable(self, build, field, value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(build(), field, value)


class TestGridFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        grid = rng.normal(size=(7, 5)) + 1j * rng.normal(size=(7, 5))
        path = tmp_path / "grid.bin"
        write_grid(grid, path)
        back = read_grid(path)
        assert np.array_equal(back, grid)

    def test_binary_layout(self, tmp_path):
        grid = np.array([[1 + 2j, 3 + 4j], [5 + 6j, 7 + 8j]])
        path = tmp_path / "grid.bin"
        write_grid(grid, path)
        raw = path.read_bytes()
        rows, cols = struct.unpack("<II", raw[:8])
        assert (rows, cols) == (2, 2)
        floats = struct.unpack("<8d", raw[8:])
        # row-major in the subcarrier axis, (re, im) interleaved
        assert floats == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)

    @pytest.mark.parametrize("size", [0, 4, 7])
    def test_truncated_header_rejected(self, tmp_path, size):
        path = tmp_path / "bad.bin"
        path.write_bytes(struct.pack("<II", 2, 2)[:size])
        with pytest.raises(ValueError, match="header"):
            read_grid(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        # one whole value of four, and 15 bytes: not even one value
        for size in (16, 15):
            path.write_bytes(struct.pack("<II", 2, 2) + b"\x00" * size)
            with pytest.raises(ValueError, match="payload"):
                read_grid(path)
