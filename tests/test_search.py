"""The certified search of the continuous periodogram: the brute-force
maximum on random grids, never below Newton's method from the surface
argmax, and no dependence on the FFT sizes."""

import math

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
from bisac.estimator import _SLACK, _centred, _moments, _newton, _search  # noqa: E402
from bisac.harness import _trial_block, simulate_trial  # noqa: E402
from reference_chain import dense_maximum  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore::bisac.sim.IsiWarning")


def modulus(grid, point):
    """|z| of a grid at (theta, phi)."""
    return abs(_moments(grid[None], np.array([point]), *_centred(*grid.shape), 1)[0, 0, 0])


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
    newton, _ = _newton(grid[None], start[None], 2 * np.pi / sizes)
    (point,), _, _ = _search(grid[None])
    slack = 6 * _SLACK * np.abs(grid).sum()
    assert modulus(grid, point) >= modulus(grid, newton[0]) - slack


def sweep_config(fft, snr_db=20.0, strides=(2, 1)):
    return ExperimentConfig(pattern=make_periodic(70, 50, *strides), snr_grid_db=(snr_db,),
                            trials_per_point=20, fft=PeriodogramConfig(fft, fft), seed=5)


def test_trial_path_runs_no_fft_n_point_transform(monkeypatch, num):
    # neither a trial block nor estimate transforms fft_n or fft_m points
    lengths = []
    for name in ("fft", "ifft"):
        transform = getattr(np.fft, name)

        def spy(a, n=None, *args, transform=transform, **kwargs):
            lengths.append(np.shape(a)[kwargs.get("axis", -1)] if n is None else n)
            return transform(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, spy)
    config = sweep_config(2048)
    _trial_block(config, [(0, 0, 5)])
    truth, _, _ = simulate_trial(config, 0, 7)
    frame = bisac.generate_frame(num, config.pattern, seed=1)
    received = bisac.apply_channel(frame, bisac.SensingChannelParams.from_snr_db(
        10.0, tau=truth.tau, f_d=truth.f_d), num, 2)
    bisac.estimate(received, frame, config.pattern, num, config.fft, 56.6, truth.theta)
    assert lengths and 2048 not in lengths
    assert set(lengths) <= set(estimator._start_cells(35, 50).tolist())


def test_trial_block_is_independent_of_the_fft_size():
    # the same estimates to 1e-9 relative at fft 128, 1024 and 4096
    results = {}
    for fft in (128, 1024, 4096):
        outcomes = [outcome for _, _, outcome in _trial_block(sweep_config(fft), [(0, 0, 20)])]
        results[fft] = np.array([[o.d_bis_hat, o.v_bis_hat] for o in outcomes])
    for fft in (1024, 4096):
        assert results[fft] == pytest.approx(results[128], rel=1e-9)


@pytest.mark.parametrize("strides", [(2, 1), (2, 5)])
def test_high_snr_certifies_with_few_cells(strides):
    # a clear peak: every trial a Newton maximum, with a handful of cells past
    # the start grid's rows
    grids_ = np.stack([grid for _, grid, _ in _trial_block(
        sweep_config(256, strides=strides), [(0, 0, 20)])])
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
