"""The receiver's maximum of the continuous periodogram: exact on noiseless
off-grid targets, a local maximum against a dense search of P, efficient at
high SNR, and its fallback flag."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from bisac import (  # noqa: E402
    ExperimentConfig,
    PeriodogramConfig,
    make_periodic,
    run_sweep,
)
from bisac.estimator import _peaks  # noqa: E402
from bisac.harness import simulate_trial  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore::bisac.sim.IsiWarning")


def padded_size(points, data):
    """A power of two from twice ``points`` (the padding rule) up to 4096."""
    return 2 ** data.draw(st.integers((2 * points - 1).bit_length(), 12))


def tone(rows, cols, x, y):
    """The LS grid of one target whose surface peaks at delay cycle x, Doppler cycle y."""
    k, l = np.arange(rows)[:, None], np.arange(cols)[None, :]
    return np.exp(2j * np.pi * (-x * k + y * l))


def refined_peak(grid, config):
    """(u, v) in fractional bins and the fallback flag of ``grid``'s estimate."""
    bins, offsets, _, fallback = _peaks(grid[None], config)
    return bins[0] + offsets[0], bool(fallback[0])


def circular_error(value, truth, size):
    return (value - truth + size / 2) % size - size / 2


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 60), cols=st.integers(1, 60),
       x=st.floats(0.0, 1.0, exclude_max=True), y=st.floats(0.0, 1.0, exclude_max=True),
       data=st.data())
def test_noiseless_off_grid_target_within_1e6_bins(rows, cols, x, y, data):
    config = PeriodogramConfig(padded_size(rows, data), padded_size(cols, data))
    (u, v), kept = refined_peak(tone(rows, cols, x, y), config)
    # a 1 x 1 grid has a flat P; an axis of one point keeps bin 0 (P does
    # not depend on it) and the other axis is refined alone
    assert kept is (rows == cols == 1)
    for value, points, cycle, size in ((u, rows, x, config.fft_n), (v, cols, y, config.fft_m)):
        if points == 1:
            assert value == 0.0
        else:
            assert abs(circular_error(value, cycle * size, size)) < 1e-6


def test_half_a_bin_off_on_both_axes_at_twice_the_padding():
    # the Hessian of P is indefinite at these bins, that of log P is not
    config = PeriodogramConfig(32, 32)
    (u, v), kept = refined_peak(tone(9, 16, 63 / 64, 63 / 64), config)
    assert not kept
    assert abs(circular_error(u, 31.5, 32)) < 1e-6 and abs(circular_error(v, 31.5, 32)) < 1e-6


def dense_power(grid, config, us, vs):
    """P on the grid ``us`` x ``vs`` of fractional bins, by explicit DFT matrices."""
    rows, cols = grid.shape
    left = np.exp(2j * np.pi * np.outer(us, np.arange(rows)) / config.fft_n)
    right = np.exp(-2j * np.pi * np.outer(np.arange(cols), vs) / config.fft_m)
    return np.abs(left @ grid @ right) ** 2


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 40), cols=st.integers(1, 40), snr_db=st.floats(10.0, 60.0),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_refined_peak_is_the_maximum_of_a_dense_search(rows, cols, snr_db, seed, data):
    rng = np.random.default_rng(seed)
    grid = sum(rng.uniform(0.3, 1.0) * tone(rows, cols, *rng.uniform(size=2))
               for _ in range(data.draw(st.integers(1, 2))))
    noise = rng.standard_normal((rows, cols, 2)) @ np.array([1.0, 1j]) / np.sqrt(2.0)
    grid = grid + noise * 10.0 ** (-snr_db / 20.0)
    config = PeriodogramConfig(padded_size(rows, data), padded_size(cols, data))
    (u, v), kept = refined_peak(grid, config)
    assume(not kept)
    # 41 x 41 points over one bin either way, the refined peak among them
    steps = np.linspace(-1.0, 1.0, 41)
    dense = dense_power(grid, config, u + steps, v + steps)
    assert dense.max() <= dense[20, 20] * (1.0 + 1e-12)


def chi_square_band(trials: int, z: float = 5.0, allowance: float = 1.10) -> tuple:
    """RMSE/bound band of an efficient estimator over ``trials`` trials: the
    Wilson-Hilferty chi-square quantiles at +-z, the upper edge widened by
    ``allowance`` (the band of the benchmark's sweep checks)."""
    h = 2.0 / (9.0 * trials)
    quantile = [trials * max(1.0 - h + s * z * math.sqrt(h), 0.0) ** 3 for s in (-1, 1)]
    return math.sqrt(quantile[0] / trials), math.sqrt(quantile[1] / trials) * allowance


def test_sweep_at_50_db_tracks_both_bounds():
    # strides (2, 1) at fft 256: the parabola gave ratios of 16 (range) and 46
    # (velocity) here
    config = ExperimentConfig(pattern=make_periodic(70, 50, 2, 1), snr_grid_db=(50.0,),
                              trials_per_point=200, fft=PeriodogramConfig(256, 256),
                              seed=1, ecrb_draws=20_000)
    row = run_sweep(config).rows[0]
    lo, hi = chi_square_band(config.trials_per_point)
    assert row.valid_trial_fraction == 1.0
    assert lo <= row.rmse_range_m / row.sqrt_crb_ran_m <= hi
    assert lo <= row.rmse_vel_ms / row.ecrb_vel_ms <= hi


class TestKeptBins:
    def test_flat_neighbourhood_keeps_the_bins(self):
        bins, offsets, power, fallback = _peaks(np.zeros((1, 5, 4), complex),
                                                PeriodogramConfig(64, 64))
        assert bins.tolist() == [[0, 0]] and offsets.tolist() == [[0.0, 0.0]]
        assert power.tolist() == [0.0] and fallback.tolist() == [True]

    def test_nan_grid_keeps_the_bins(self):
        grid = np.ones((1, 5, 4), complex)
        grid[0, 3, 1] = np.nan
        bins, offsets, _, fallback = _peaks(grid, PeriodogramConfig(64, 64))
        assert bins.tolist() == [[0, 0]] and offsets.tolist() == [[0.0, 0.0]]
        assert fallback.tolist() == [True]

    def test_single_row_grid_refines_the_doppler_axis(self):
        # P does not depend on the delay: the delay bin stays, the Doppler axis is refined
        (u, v), kept = refined_peak(tone(1, 8, 0.0, 0.3), PeriodogramConfig(4, 64))
        assert not kept and u == 0.0 and abs(v - 0.3 * 64) < 1e-6

    def test_single_column_grid_refines_the_delay_axis(self):
        (u, v), kept = refined_peak(tone(7, 1, 0.41, 0.0), PeriodogramConfig(64, 2))
        assert not kept and v == 0.0 and abs(u - 0.41 * 64) < 1e-6

    def test_one_cell_grid_keeps_the_bins(self):
        bins, offsets, _, fallback = _peaks(np.ones((1, 1, 1), complex), PeriodogramConfig(2, 2))
        assert bins.tolist() == [[0, 0]] and offsets.tolist() == [[0.0, 0.0]]
        assert fallback.tolist() == [True]

    def test_without_interpolation_nothing_is_kept(self):
        grid = tone(5, 8, 0.31, 0.77)
        config = PeriodogramConfig(64, 64, interpolate=False)
        bins, offsets, power, fallback = _peaks(grid[None], config)
        assert offsets.tolist() == [[0.0, 0.0]] and fallback.tolist() == [False]
        assert bins.tolist() == [[round(0.31 * 64), round(0.77 * 64)]]
        assert power[0] == pytest.approx(dense_power(grid, config, bins[0, :1], bins[0, 1:])[0, 0],
                                         rel=1e-12)

    def test_each_trial_of_a_stack_refines_as_it_would_alone(self):
        config = PeriodogramConfig(64, 64)
        grids = np.stack([tone(5, 8, 0.31, 0.77), np.zeros((5, 8)), tone(5, 8, 0.9, 0.1)])
        stacked = _peaks(grids, config)
        for t, grid in enumerate(grids):
            alone = _peaks(grid[None], config)
            for together, single in zip(stacked, alone):
                assert together[t].tolist() == single[0].tolist()

    def test_simulate_trial_reports_the_flag(self):
        config = ExperimentConfig(pattern=make_periodic(70, 50, 2, 5), snr_grid_db=(20.0,),
                                  trials_per_point=1, fft=PeriodogramConfig(256, 256))
        outcome = simulate_trial(config, 0, 0)[2]
        assert outcome.refine_fallback is False
        assert outcome.to_json_dict()["refine_fallback"] is False
        assert max(abs(o) for o in outcome.fractional_offsets) <= 1.0
