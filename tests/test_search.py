"""The certified search of the continuous periodogram: the brute-force
maximum on random grids, never below Newton's method from the surface
argmax, start samples equal to the dense start-grid transform's, no
dependence on the grid's scale or on the FFT sizes."""

import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import bisac  # noqa: E402
from bisac import (  # noqa: E402
    ExperimentConfig,
    PeriodogramConfig,
    make_periodic,
    periodogram_2d,
)
from bisac import estimator  # noqa: E402
from bisac.estimator import (  # noqa: E402
    _SLACK, _kept_floor, _moments, _newton, _search, _start_cells, _start_samples,
)
from bisac.harness import _block_errors, _trial_block, simulate_trial  # noqa: E402
from reference_chain import block_trials, dense_maximum  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore::bisac.sim.IsiWarning")


def modulus(grid, point):
    """|z| of a grid at (theta, phi)."""
    return abs(_moments(grid[None], np.array([point]), 1, np.arange(1))[0, 0, 0])


def strategy_grid(rows, cols, seed, targets, snr_db, kind):
    """A rows x cols grid as ``grids`` draws it: ``targets`` off-grid targets
    from the generator of ``seed`` in noise at ``snr_db`` per cell, made
    real-valued, given a NaN or zeroed by ``kind``."""
    rng = np.random.default_rng(seed)
    k, l = np.arange(rows)[:, None], np.arange(cols)[None, :]
    grid = np.zeros((rows, cols), complex)
    for _ in range(targets):
        delay, doppler, phase = rng.uniform(size=3)
        grid += rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * (-delay * k + doppler * l + phase))
    noise = rng.standard_normal((rows, cols, 2)) @ np.array([1.0, 1j]) / np.sqrt(2.0)
    grid += noise * 10.0 ** (-snr_db / 20.0)
    if kind == "real":
        grid = grid.real + 0j
    elif kind == "nan":
        grid[rng.integers(rows), rng.integers(cols)] = np.nan
    elif kind == "zero":
        grid[:] = 0.0
    return grid


@st.composite
def grids(draw):
    """A grid of 1-60 rows and columns: one or two off-grid targets in noise
    at -30 to 40 dB per cell, or a real-valued one (its maxima come in
    mirrored pairs that tie), or one with a NaN, or all zero."""
    rows, cols, seed = draw(st.integers(1, 60)), draw(st.integers(1, 60)), draw(
        st.integers(0, 2**32 - 1))
    targets, snr_db = draw(st.integers(1, 2)), draw(st.floats(-30.0, 40.0))
    kind = draw(st.sampled_from(["targets"] * 5 + ["real", "nan", "zero"]))
    return strategy_grid(rows, cols, seed, targets, snr_db, kind)


@settings(max_examples=150, deadline=None)
@given(grid=grids())
# tied maxima: a real grid's mirrored twin of the first maximum found needs a
# ball of its own
@example(grid=np.array([[-1.75160579, -1.09616383], [0.49313354, -1.47462981]]) + 0j)
@example(grid=np.array([[-0.49357444, 0.71004477], [0.27710626, 1.55809309]]) + 0j)
# the reference's samples around a broad maximum: a saddle and its neighbours
@example(grid=np.array([[-1.52125264, 0.10022821], [0.08126337, 0.47373295]]) + 0j)
# noise-dominated: 1862 of 8192 and 1215 of 4096 start cells pass the cell test
@example(grid=strategy_grid(56, 30, 2633833181, 1, -25.17, "real"))
@example(grid=strategy_grid(16, 32, 48, 1, -20.0, "targets"))
def test_fast_path_returns_the_dense_maximum(grid):
    # within 1e-9 bins at fft 4096 of the brute-force maximiser, unless another
    # maximum comes within the rounding slack of its P (a tie); its P within
    # that slack either way
    (point,), (newton,), _ = _search(grid[None])
    reference = dense_maximum(grid)
    if reference is None:
        # zero, NaN, flat and 1 x 1 grids stay at (0, 0) and are flagged
        assert point.tolist() == [0.0, 0.0] and not newton
        return
    points, power = reference
    slack = 6 * _SLACK * np.abs(grid).sum()
    assert modulus(grid, point) >= math.sqrt(power[0]) - slack
    assert newton
    rivals = np.sqrt(power[1:]) >= math.sqrt(power[0]) - 2 * slack
    gap = np.abs((point - points + np.pi) % (2 * np.pi) - np.pi)
    gap[:, np.array(grid.shape) == 1] = 0.0
    tolerance = 2 * np.pi * 1e-9 / 4096
    assert gap[0].max() <= tolerance or (rivals & (gap[1:].max(axis=1) <= tolerance)).any()


@settings(max_examples=100, deadline=None)
@given(grid=grids(), log_pad=st.integers(1, 4))
def test_never_below_newton_from_the_surface_argmax(grid, log_pad):
    # the receiver before the search: Newton's method from the periodogram_2d
    # argmax, at 2 to 16 times the pilot grid
    rows, cols = grid.shape
    sizes = np.array([1 << (2**log_pad * n - 1).bit_length() for n in (rows, cols)])
    surface = periodogram_2d(grid, PeriodogramConfig(*sizes.tolist()))
    if not np.isfinite(surface).all():
        return
    start = np.array(np.unravel_index(np.argmax(surface), surface.shape)) * 2 * np.pi / sizes
    newton, _ = _newton(grid[None], start[None], 2 * np.pi / sizes, np.arange(1))
    (point,), _, _ = _search(grid[None])
    slack = 6 * _SLACK * np.abs(grid).sum()
    assert modulus(grid, point) >= modulus(grid, newton[0]) - slack


@st.composite
def trial_stacks(draw):
    """A stack of 1-5 LS grids of strides (2, 1), (2, 5) or (10, 5), each at -30
    to 30 dB."""
    pattern = make_periodic(70, 50, *draw(st.sampled_from([(2, 1), (2, 5), (10, 5)])))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.stack([_trial_block(ExperimentConfig(
        pattern=pattern, snr_grid_db=(draw(st.floats(-30, 30)),), trials_per_point=1, seed=seed),
        [(0, trial, trial + 1)])[1][0] for trial in range(draw(st.integers(1, 5)))])


@settings(max_examples=30, deadline=None)
@given(stack=trial_stacks(), chunk_bytes=st.sampled_from([1, 2**40]))
def test_start_samples_are_the_dense_samples_above_the_floor(stack, chunk_bytes):
    # against the zero-padded 2-D transform at the start cells, with row
    # batches of one row or of the whole stack: top is its largest sample,
    # and every sample above _kept_floor(top) comes back with its |z|, in
    # row-major order, and none below it (beyond rounding)
    trials, rows, cols = stack.shape
    cells = _start_cells(rows, cols)
    slack = _SLACK * np.abs(stack).sum(axis=(1, 2))
    cos_h = math.cos(np.array([rows - 1, cols - 1]) / 2 @ (np.pi / cells))
    dense = np.abs(np.fft.fft(np.fft.ifft(stack, cells[0], axis=1, norm="forward"),
                              cells[1], axis=2)).reshape(trials, -1)
    with mock.patch.object(estimator, "_CHUNK_BYTES", chunk_bytes):
        samples, amps, top = _start_samples(stack, 2, cells, slack, cos_h)
    assert np.all(np.abs(top - dense.max(axis=1)) <= slack)
    assert np.all(np.diff(samples) > 0)
    t, at = np.divmod(samples - 2 * cells.prod(), cells.prod())
    assert np.all(np.abs(amps - dense[t, at]) <= slack[t])
    floor = _kept_floor(top, slack, cos_h)[:, None]
    returned = np.zeros(dense.shape, bool)
    returned[t, at] = True
    assert returned[dense > floor + slack[:, None]].all()
    assert not returned[dense < floor - slack[:, None]].any()


def test_grid_past_half_the_largest_float_stays_at_the_origin():
    # |z| <= sum|H| keeps the start samples finite only below half the
    # largest float: a grid past it stays at (0, 0), unflagged and unsplit,
    # and its stack's other grid is searched as it would be alone
    k, l = np.arange(6)[:, None], np.arange(5)
    tone = np.exp(2j * np.pi * (-0.3 * k + 0.2 * l))
    huge = tone * (0.6 * np.finfo(float).max / tone.size)
    assert np.abs(huge).sum() > np.finfo(float).max / 2
    pos, found, split = _search(np.stack([huge, tone]))
    assert pos[0].tolist() == [0.0, 0.0] and not found[0] and split[0] == 0
    alone = _search(tone[None])
    assert pos[1:].tobytes() == alone[0].tobytes() and found[1] and split[1] == alone[2][0]


def tone_grid():
    """A 6 x 5 single-tone grid."""
    k, l = np.arange(6)[:, None], np.arange(5)
    return np.exp(2j * np.pi * (-0.3 * k + 0.2 * l))


@pytest.mark.parametrize("exponent", [300, -300])
def test_search_commutes_with_a_power_of_two(exponent):
    # a grid far from unit scale is searched as a copy scaled by a power of
    # two, which every step commutes with: the unscaled grid's point, flag
    # and split count, bit for bit, and the caller's grid is left as it was
    grid = tone_grid()
    scaled = np.ldexp(grid.view(float), exponent).view(complex)
    before = scaled.copy()
    assert [a.tobytes() for a in _search(scaled[None])] == [
        a.tobytes() for a in _search(grid[None])]
    assert scaled.tobytes() == before.tobytes()


@pytest.mark.parametrize("total", [1e77, 1e100, 1e-90])
def test_far_scaled_grid_ends_certified_without_a_warning(total):
    # P = |z|^2 and the ball's M^2 s^4 square and fourth-power a grid's scale:
    # unscaled, these grids overflowed or underflowed into uncertified points
    # after hundreds of split cells, with RuntimeWarnings
    grid = tone_grid() * (total / tone_grid().size)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pos, found, split = _search(np.stack([grid, tone_grid()]))
    assert found.all() and split[0] == split[1] < 20
    assert np.abs(pos[0] - pos[1]).max() < 1e-12


def sweep_config(fft, snr_db=20.0, strides=(2, 1)):
    return ExperimentConfig(pattern=make_periodic(70, 50, *strides), snr_grid_db=(snr_db,),
                            trials_per_point=20, fft=PeriodogramConfig(fft, fft), seed=5)


def test_trial_path_runs_no_fft_n_point_transform(monkeypatch, num):
    # neither a sweep block, nor a block's full results, nor estimate
    # transforms fft_n or fft_m points
    lengths = []
    for name in ("fft", "ifft"):
        transform = getattr(np.fft, name)

        def spy(a, n=None, *args, transform=transform, **kwargs):
            lengths.append(np.shape(a)[kwargs.get("axis", -1)] if n is None else n)
            return transform(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, spy)
    config = sweep_config(2048)
    _block_errors((config, [(0, 0, 5)]))
    block_trials(config, [(0, 0, 5)])
    truth, _, _ = simulate_trial(config, 0, 7)
    frame = bisac.generate_frame(num, config.pattern, seed=1)
    received = bisac.apply_channel(frame, bisac.SensingChannelParams.from_snr_db(
        10.0, tau=truth.tau, f_d=truth.f_d), num, 2)
    bisac.estimate(received, frame, config.pattern, num, config.fft, 56.6, truth.theta)
    assert lengths and 2048 not in lengths
    assert set(lengths) <= set(estimator._start_cells(35, 50).tolist())


def test_trial_block_is_independent_of_the_fft_size():
    # the same estimates, bit for bit, at fft 16 to 4096: 20 trials of strides
    # (2, 1), and a trial of (2, 5) whose Doppler, when read off the peak bins
    # and their offsets, was one ulp off at fft 128
    results = {}
    for fft in (16, 128, 1024, 4096):
        sparse = dataclasses.replace(sweep_config(fft, strides=(2, 5)), seed=1,
                                     snr_grid_db=(-30.0, -10.0, 0.0, 10.0, 30.0))
        outcomes = [outcome for config, runs in ((sweep_config(fft), [(0, 0, 20)]),
                                                 (sparse, [(1, 10, 11)]))
                    for _, _, outcome in block_trials(config, runs)]
        results[fft] = np.array([[o.tau_hat, o.f_d_hat, o.d_bis_hat, o.v_bis_hat]
                                 for o in outcomes])
    for fft in (128, 1024, 4096):
        assert results[fft].tobytes() == results[16].tobytes()


@pytest.mark.parametrize("strides", [(2, 1), (2, 5)])
def test_sweep_csv_is_independent_of_the_fft_size(strides):
    # seed 1 puts maxima just above half the Doppler span in trial 54 at
    # -30 dB and 107 at -20 dB for (2, 1), and 109 at -30 dB for (2, 5): the
    # bin that labels such a maximum, 32 of 64 say, must not set its sign; fft
    # 16, smaller than the pilot grid, labels the same maxima
    csvs = {bisac.run_sweep(ExperimentConfig(
        pattern=make_periodic(70, 50, *strides), snr_grid_db=(-30.0, -20.0, -10.0, 20.0),
        trials_per_point=110, fft=PeriodogramConfig(fft, fft), seed=1, workers=2,
        ecrb_draws=100)).to_csv() for fft in (16, 64, 256, 1024, 4096)}
    assert len(csvs) == 1


@pytest.mark.parametrize("strides", [(2, 1), (2, 5)])
def test_high_snr_certifies_with_few_cells(strides):
    # a clear peak: every trial a Newton maximum, with a handful of cells past
    # the start grid's rows
    _, grids_ = _trial_block(sweep_config(256, strides=strides), [(0, 0, 20)])
    _, newton, kept = _search(grids_)
    assert newton.all() and kept.max() <= 64


def test_ridge_keeps_the_best_point_found():
    # two entries on a diagonal: P depends on 7 theta - 7 phi alone, so its
    # maxima form lines and no ball closes; the search gives up, unflagged as a
    # Newton maximum, at a point on the ridge rather than at (0, 0)
    grid = np.zeros((35, 50), complex)
    grid[3, 4], grid[10, 11] = 1.0, 0.7j
    (point,), (newton,), _ = _search(grid[None])
    assert not newton
    assert modulus(grid, point) >= 1.7 * (1 - 1e-9)
    assert modulus(grid, np.zeros(2)) < 1.7 * 0.9
