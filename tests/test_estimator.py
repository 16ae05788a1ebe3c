import math
import tracemalloc

import numpy as np
import pytest

from bisac import (
    BistaticScenario,
    EstimationResult,
    GeometryError,
    OfdmNumerology,
    PatternError,
    PeriodogramConfig,
    SensingChannelParams,
    apply_channel,
    channel_response,
    derive_ground_truth,
    estimate,
    generate_frame,
    ls_channel_estimate,
    make_periodic,
    periodogram_2d,
    refine_peak,
)
from bisac import estimator
from bisac.geometry import _inversion_error

pytestmark = pytest.mark.filterwarnings("ignore::bisac.sim.IsiWarning")


def moving_reference_scenario(speed=10.0):
    return BistaticScenario(
        tx_pos=[-40.0, 0.0], rx_pos=[0.0, 40.0], target_pos=[90.0, -90.0],
        speed=speed, delta=0.0,
    )


class TestLsChannelEstimate:
    def test_noiseless_equals_channel(self, num):
        p = make_periodic(70, 50, 2, 5)
        frame = generate_frame(num, p, seed=1)
        params = SensingChannelParams(tau=0.8e-6, f_d=1.2e3, noise_var=0.0)
        received = apply_channel(frame, params, num, seed=2)
        h_hat = ls_channel_estimate(received, frame, p)
        h_true = channel_response(params, num)[::2, ::5]
        assert h_hat.shape == (35, 10)
        assert np.allclose(h_hat, h_true, rtol=1e-12)

    def test_phase_advance_along_delay_axis(self, num):
        p = make_periodic(70, 50, 2, 5)
        frame = generate_frame(num, p, seed=3)
        params = SensingChannelParams(tau=0.6e-6, noise_var=0.0)
        h_hat = ls_channel_estimate(apply_channel(frame, params, num, 0), frame, p)
        expected = np.exp(-2j * np.pi * params.tau * 2 * num.subcarrier_spacing_hz)
        assert np.allclose(h_hat[1:, :] / h_hat[:-1, :], expected, rtol=1e-12)

    def test_noise_variance_preserved(self):
        big = OfdmNumerology(n_subcarriers=512, n_symbols=512)
        p = make_periodic(512, 512, 1, 1)
        frame = generate_frame(big, p, seed=4)
        sigma2 = 0.31
        params = SensingChannelParams(tau=0.2e-6, f_d=500.0, noise_var=sigma2)
        h_hat = ls_channel_estimate(apply_channel(frame, params, big, 5), frame, p)
        resid = h_hat - channel_response(params, big)
        assert np.mean(np.abs(resid) ** 2) == pytest.approx(sigma2, rel=0.02)

    def test_requires_periodic_pattern(self, num):
        from bisac import PilotPattern

        p = PilotPattern(n_grid=70, m_grid=50, cells=[[0, 0], [3, 7], [10, 2]])
        frame = generate_frame(num, make_periodic(70, 50, 1, 1), seed=1)
        with pytest.raises(PatternError):
            ls_channel_estimate(frame, frame, p)


class TestPeriodogram:
    def test_zero_input_zero_surface(self):
        cfg = PeriodogramConfig(64, 64)
        surface = periodogram_2d(np.zeros((5, 4), dtype=complex), cfg)
        assert surface.shape == (64, 64)
        assert np.all(surface == 0.0)

    @pytest.mark.parametrize("chunk_bytes", [1, 16 * 64 * 3, 2**21])
    def test_surface_is_the_whole_spectrum_squared(self, chunk_bytes, monkeypatch):
        # the acceptance reference: row blocks of Doppler transforms (of one
        # row, three, or all) give the surface of one whole transform, bit for bit
        rng = np.random.default_rng(3)
        grid = rng.standard_normal((35, 10)) + 1j * rng.standard_normal((35, 10))
        cfg = PeriodogramConfig(256, 64)
        spectrum = estimator._padded_fft(estimator._delay_stage(grid, cfg), 64, False)
        monkeypatch.setattr(estimator, "_CHUNK_BYTES", chunk_bytes)
        surface = periodogram_2d(grid, cfg)
        assert surface.tobytes() == (spectrum.real**2 + spectrum.imag**2).tobytes()

    def test_static_target_peaks_at_origin(self, num):
        p = make_periodic(70, 50, 1, 1)
        frame = generate_frame(num, p, seed=6)
        received = apply_channel(frame, SensingChannelParams(noise_var=0.0), num, 0)
        surface = periodogram_2d(ls_channel_estimate(received, frame, p), PeriodogramConfig(256, 256))
        assert np.unravel_index(np.argmax(surface), surface.shape) == (0, 0)
        # peak power is the squared coherent sum of all pilot cells
        assert surface[0, 0] == pytest.approx(3500.0**2, rel=1e-9)

    def test_delay_peak_bin_position(self, num):
        # 1 us delay, unit stride, 4096 bins: peak at 819.2 bins
        p = make_periodic(70, 50, 1, 1)
        frame = generate_frame(num, p, seed=7)
        params = SensingChannelParams(tau=1e-6, noise_var=0.0)
        received = apply_channel(frame, params, num, 0)
        cfg = PeriodogramConfig(4096, 4096)
        surface = periodogram_2d(ls_channel_estimate(received, frame, p), cfg)
        b_r, b_v = np.unravel_index(np.argmax(surface), surface.shape)
        assert (b_r, b_v) == (819, 0)
        refined = refine_peak(surface, (819, 0))
        assert b_r + refined.offsets[0] == pytest.approx(819.2, abs=0.05)
        assert refined.offsets[0] > 0

    def test_fft_size_bounds_enforced(self):
        with pytest.raises(ValueError):
            periodogram_2d(np.ones((5, 4), dtype=complex), PeriodogramConfig(4, 64))
        with pytest.raises(ValueError):
            PeriodogramConfig(100, 64)  # not a power of two
        # float64 keeps the offsets of peak bins up to 2^40 to 2^-12 bin
        assert PeriodogramConfig(2**40, 2**40).fft_m == estimator._MAX_FFT == 2**40
        for fft_n, fft_m, name in ((2**41, 64, "fft_n"), (64, 2**70, "fft_m")):
            with pytest.raises(ValueError, match=f"{name} must be at most 1099511627776"):
                PeriodogramConfig(fft_n, fft_m)


def peak_bins(grid, cfg):
    """The receiver's peak bins of a pilot grid, and its certified maximum in
    bins of ``cfg``."""
    maxima, _, _ = estimator._search(grid[None])
    bins, offsets, _ = estimator._peak_bins(grid[None], maxima, cfg)
    return tuple(bins[0].tolist()), bins[0] + offsets[0]


def assert_peak_bins_match_surface(grid, cfg):
    """Peak bins equal the surface argmax; returns them and the maximum."""
    surface = periodogram_2d(grid, cfg)
    bins, maximum = peak_bins(grid, cfg)
    assert bins == np.unravel_index(np.argmax(surface), surface.shape)
    return bins, maximum


class TestPeakSearch:
    # The peak bins are the largest-P grid point of the four around the
    # certified maximum of the continuous periodogram.

    def test_all_zero_grid(self):
        grid = np.zeros((5, 4), complex)
        for fft_n in (64, 256, 1024):
            assert assert_peak_bins_match_surface(grid, PeriodogramConfig(fft_n, 32))[0] == (0, 0)

    def test_equal_rows_first_wins(self):
        # one entry: P is the same everywhere, and the search stays at (0, 0)
        grid = np.zeros((5, 4), complex)
        grid[0, 2] = 3.0 - 4.0j
        for fft_n in (64, 256, 1024):
            bins, maximum = peak_bins(grid, PeriodogramConfig(fft_n, 32))
            assert bins == (0, 0) and maximum.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("rows, fft_n", [(1, 1), (1, 2), (2, 2)])
    def test_tiny_delay_axis_wraps_neighbors(self, rows, fft_n):
        # the bracket wraps around the surface: its bins are the largest of the
        # four around the maximum, within one bin of it on either axis
        rng = np.random.default_rng(rows * 10 + fft_n)
        grid = rng.standard_normal((rows, 6)) + 1j * rng.standard_normal((rows, 6))
        cfg = PeriodogramConfig(fft_n, 16)
        surface = periodogram_2d(grid, cfg)
        bins, maximum = peak_bins(grid, cfg)
        low = np.floor(maximum).astype(int)
        around = {((low[0] + a) % fft_n, (low[1] + b) % 16) for a in (0, 1) for b in (0, 1)}
        assert bins in around
        assert surface[bins] == pytest.approx(max(surface[c] for c in around), rel=1e-12)
        assert np.all(np.abs(maximum - np.array(bins)) < 1.0) or fft_n == 1

    def test_nan_entry_matches_full_argmax(self):
        grid = np.ones((5, 4), complex)
        grid[3, 1] = np.nan
        for fft_n in (16, 64, 256, 1024):
            assert assert_peak_bins_match_surface(grid, PeriodogramConfig(fft_n, 16))[0] == (0, 0)

    @pytest.mark.parametrize("fft_n, coarse", [(32, True), (64, False), (1024, False),
                                               (4096, False)])
    def test_off_grid_target(self, fft_n, coarse):
        # the same exact maximum whether the FFT grid is coarser than the
        # search's start grid or finer
        k, l = np.arange(5)[:, None], np.arange(7)[None, :]
        grid = np.exp(2j * np.pi * (-0.3137 * k + 0.2113 * l))
        assert bool(fft_n <= estimator._start_cells(5, 7).max()) is coarse
        (b_r, _), maximum = assert_peak_bins_match_surface(grid, PeriodogramConfig(fft_n, 64))
        assert b_r == round(0.3137 * fft_n) % fft_n
        assert maximum[0] == pytest.approx(0.3137 * fft_n, abs=1e-9)

    def test_peak_at_a_cell_edge_next_to_a_dropped_cell(self):
        # 35 rows: start cells of 2 pi / 128. The peak sits on the edge between
        # two of them, half a cell from either centre, next to cells the search
        # drops; it is found exactly, and its bins are the surface's.
        k, l = np.arange(35)[:, None], np.arange(8)[None, :]
        x = 55.5 / 128  # cycles: between start cells 55 and 56
        grid = np.exp(-2j * np.pi * x * k + 2j * np.pi * (3 / 64) * l)
        cfg = PeriodogramConfig(4096, 64)
        assert estimator._start_cells(35, 8)[0] == 128
        (b_r, b_v), maximum = assert_peak_bins_match_surface(grid, cfg)
        assert (b_r, b_v) == (round(x * 4096), 3)
        assert maximum == pytest.approx([x * 4096, 3.0], abs=1e-9)

    def test_estimate_memory_at_full_profile(self, num):
        # the full 4096 x 4096 surface and its squares take 512 MiB
        p = make_periodic(70, 50, 2, 1)
        frame = generate_frame(num, p, seed=17)
        sc = moving_reference_scenario()
        gt = derive_ground_truth(sc)
        params = SensingChannelParams.from_snr_db(20.0, tau=gt.tau, f_d=gt.f_d)
        received = apply_channel(frame, params, num, seed=18)
        tracemalloc.start()
        try:
            estimate(received, frame, p, num, PeriodogramConfig(4096, 4096),
                     baseline=sc.baseline, theta=gt.theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 0.64 MiB (numpy 2.4; the former full delay stage took 4.9), held
        # to about twice that
        assert peak < 1.3 * 2**20


class TestRefinePeak:
    def test_symmetric_neighbors_zero_offset(self):
        surface = np.zeros((8, 8))
        surface[3, 4] = 10.0
        surface[2, 4] = surface[4, 4] = 4.0
        surface[3, 3] = surface[3, 5] = 2.0
        ref = refine_peak(surface, (3, 4))
        assert ref.offsets == (0.0, 0.0)
        assert ref.flat_axes == (False, False)

    def test_three_point_formula(self):
        # delay axis samples 1, 4, 3 around the peak: offset 0.25
        surface = np.zeros((8, 8))
        surface[2, 0], surface[3, 0], surface[4, 0] = 1.0, 4.0, 3.0
        ref = refine_peak(surface, (3, 0))
        assert ref.offsets[0] == pytest.approx(0.25, rel=1e-15)

    def test_flat_neighborhood_guard(self):
        surface = np.ones((8, 8))
        ref = refine_peak(surface, (3, 3))
        assert ref.offsets == (0.0, 0.0)
        assert ref.flat_axes == (True, True)

    def test_circular_neighbors_at_edges(self):
        surface = np.zeros((8, 8))
        surface[0, 0] = 4.0
        surface[7, 0] = 1.0
        surface[1, 0] = 3.0
        ref = refine_peak(surface, (0, 0))
        assert ref.offsets[0] == pytest.approx((1 - 3) / (2 * (1 - 8 + 3)), rel=1e-15)


class TestEstimate:
    def test_noiseless_full_overhead_reference(self, num):
        # full pilot grid, 4096-point transforms: sub-centimeter accuracy
        sc = moving_reference_scenario(speed=10.0)
        gt = derive_ground_truth(sc)
        p = make_periodic(70, 50, 1, 1)
        frame = generate_frame(num, p, seed=8)
        params = SensingChannelParams(tau=gt.tau, f_d=gt.f_d, noise_var=0.0)
        received = apply_channel(frame, params, num, 0)
        result = estimate(received, frame, p, num, PeriodogramConfig(4096, 4096),
                          baseline=sc.baseline, theta=gt.theta)
        assert result.d_bis_hat == pytest.approx(gt.d_bis, abs=0.02)
        assert result.v_bis_hat == pytest.approx(gt.v_bis, abs=0.02)
        assert result.d_rx_hat == pytest.approx(sc.d_rx, abs=0.02)
        assert result.beta_hat == pytest.approx(gt.beta, abs=1e-3)
        assert not result.beta_clamped

    def test_aliased_delay_wraps_to_unambiguous_interval(self, num):
        # delay beyond the stride-10 span aliases by exactly one period
        p = make_periodic(70, 50, 10, 5)
        span_s = 1.0 / (10 * num.subcarrier_spacing_hz)
        frame = generate_frame(num, p, seed=9)
        tau = 1.054e-6
        params = SensingChannelParams(tau=tau, f_d=0.0, noise_var=0.0)
        received = apply_channel(frame, params, num, 0)
        h_hat = ls_channel_estimate(received, frame, p)
        cfg = PeriodogramConfig(1024, 1024)
        surface = periodogram_2d(h_hat, cfg)
        b_r, _ = np.unravel_index(np.argmax(surface), surface.shape)
        refined = refine_peak(surface, (int(b_r), 0))
        tau_hat = (b_r + refined.offsets[0]) / (10 * num.subcarrier_spacing_hz * 1024)
        assert tau_hat == pytest.approx(math.fmod(tau, span_s), abs=0.001 * span_s)

    def test_all_zero_parameters_exact_zeros(self, num):
        from bisac import GeometryError

        p = make_periodic(70, 50, 2, 1)
        frame = generate_frame(num, p, seed=10)
        received = apply_channel(frame, SensingChannelParams(noise_var=0.0), num, 0)
        # a zero range estimate cannot exceed any baseline, so the full
        # pipeline reports a geometry domain error; the delay/Doppler part
        # must still be exactly zero on the surface
        with pytest.raises(GeometryError):
            estimate(received, frame, p, num, PeriodogramConfig(256, 256),
                     baseline=0.0, theta=0.0)
        surface = periodogram_2d(ls_channel_estimate(received, frame, p),
                                 PeriodogramConfig(256, 256))
        peak = np.unravel_index(np.argmax(surface), surface.shape)
        assert peak == (0, 0)
        refined = refine_peak(surface, (0, 0))
        assert refined.offsets == (0.0, 0.0)

    def test_output_invariant_to_data_symbols(self, num):
        p = make_periodic(70, 50, 2, 5)
        frame_a = generate_frame(num, p, seed=11)
        frame_b = generate_frame(num, p, seed=12)
        # same pilot cells, different payload cells
        mixed = frame_b.copy()
        mask = p.mask()
        mixed[mask] = frame_a[mask]
        frame_m = mixed
        sc = moving_reference_scenario()
        gt = derive_ground_truth(sc)
        params = SensingChannelParams(tau=gt.tau, f_d=gt.f_d, noise_var=0.0)
        received = apply_channel(frame_a, params, num, 0)
        cfg = PeriodogramConfig(512, 512)
        res_a = estimate(received, frame_a, p, num, cfg, sc.baseline, gt.theta)
        res_m = estimate(received, frame_m, p, num, cfg, sc.baseline, gt.theta)
        assert res_a == res_m

    def test_doppler_sign_antisymmetry(self, num):
        p = make_periodic(70, 50, 2, 1)
        frame = generate_frame(num, p, seed=13)
        cfg = PeriodogramConfig(1024, 1024)
        results = []
        for speed in (19.0, -19.0):
            sc = moving_reference_scenario(speed=speed)
            gt = derive_ground_truth(sc)
            params = SensingChannelParams(tau=gt.tau, f_d=gt.f_d, noise_var=0.0)
            received = apply_channel(frame, params, num, 0)
            results.append(estimate(received, frame, p, num, cfg, sc.baseline, gt.theta))
        assert results[0].f_d_hat == pytest.approx(-results[1].f_d_hat, rel=1e-9)
        assert results[0].v_bis_hat == pytest.approx(-results[1].v_bis_hat, rel=1e-9)

    def test_negative_velocity_stays_negative_in_regime(self, num):
        # stride 11 in time still covers +-30 m/s without Doppler aliasing
        p = make_periodic(70, 50, 1, 11)
        frame = generate_frame(num, p, seed=14)
        sc = moving_reference_scenario(speed=-30.0)
        gt = derive_ground_truth(sc)
        params = SensingChannelParams(tau=gt.tau, f_d=gt.f_d, noise_var=0.0)
        received = apply_channel(frame, params, num, 0)
        result = estimate(received, frame, p, num, PeriodogramConfig(1024, 1024),
                          baseline=sc.baseline, theta=gt.theta)
        assert result.f_d_hat < 0
        assert result.v_bis_hat == pytest.approx(-30.0, abs=0.05)

    @pytest.mark.parametrize("v_bins, signed", [(31.7, 31.7), (32.3, -31.7)])
    def test_doppler_is_read_off_the_maximum_not_its_bin(self, num, v_bins, signed):
        # bin 32 of 64 labels both maxima; the one above half the span reads
        # as a negative Doppler, as it does at fft 4096
        grid = np.exp(2j * np.pi * (-0.4 * np.arange(35)[:, None]
                                    + v_bins / 64 * np.arange(10)[None, :]))
        results = [estimator._estimate_grids(grid[None], make_periodic(70, 50, 2, 5), num,
                                             PeriodogramConfig(fft, fft), 56.6, [1.0])[0]
                   for fft in (64, 4096)]
        assert results[0].peak_bins[1] == 32
        assert results[0].f_d_hat == pytest.approx(
            signed / (5 * num.symbol_duration_s * 64), rel=1e-9)
        assert results[1].f_d_hat == pytest.approx(results[0].f_d_hat, rel=1e-12)

    def test_nonpositive_leg_is_its_trials_error_in_both_readouts(self, num):
        # the first grid's range estimate is 712.5 m: at a baseline one ulp
        # below it and theta 0 the receiver leg rounds to no less than the
        # range, a nonpositive transmitter leg. That trial gets its
        # GeometryError, the other trial of the stack its estimate, and the
        # sweep's readout agrees slot for slot.
        k, l = np.arange(35)[:, None], np.arange(10)[None, :]
        stack = np.exp(2j * np.pi * (np.array([0.05, 0.02])[:, None, None] * k - 0.1 * l))
        args = (make_periodic(70, 50, 2, 5), num, PeriodogramConfig(256, 256),
                math.nextafter(712.5, 0.0), [0.0, 0.0])
        outcomes = estimator._estimate_grids(stack, *args)
        estimates, reasons, _, _ = estimator._estimates(stack, *args)
        rows = list(zip(*(column.tolist() for column in estimates)))
        assert isinstance(outcomes[0], GeometryError) and reasons.tolist() == [4, 0]
        assert str(outcomes[0]) == str(_inversion_error(4, rows[0][2], args[3])) == (
            "nonpositive leg after bistatic-range inversion")
        assert isinstance(outcomes[1], EstimationResult) and outcomes[1].d_bis_hat == 735.0
        assert rows[1] == tuple(vars(outcomes[1]).values())[:7]

    def test_estimates_confined_to_unambiguous_intervals(self, num):
        rng = np.random.default_rng(15)
        p = make_periodic(70, 50, 2, 5)
        cfg = PeriodogramConfig(256, 256)
        frame = generate_frame(num, p, seed=16)
        delay_span = 1.0 / (2 * num.subcarrier_spacing_hz)
        doppler_half_span = 1.0 / (2 * 5 * num.symbol_duration_s)
        for _ in range(10):
            params = SensingChannelParams(
                tau=rng.uniform(0, delay_span),
                f_d=rng.uniform(-doppler_half_span, doppler_half_span),
                noise_var=0.5,
            )
            received = apply_channel(frame, params, num, rng)
            h_hat = ls_channel_estimate(received, frame, p)
            surface = periodogram_2d(h_hat, cfg)
            b_r, b_v = np.unravel_index(np.argmax(surface), surface.shape)
            refined = refine_peak(surface, (int(b_r), int(b_v)))
            tau_hat = ((b_r + refined.offsets[0]) % 256) / (2 * num.subcarrier_spacing_hz * 256)
            assert 0.0 <= tau_hat < delay_span
            signed = b_v - 256 if b_v > 128 else b_v
            f_d_hat = (signed + refined.offsets[1]) / (5 * num.symbol_duration_s * 256)
            assert abs(f_d_hat) <= doppler_half_span * (1 + 1.0 / 256)
