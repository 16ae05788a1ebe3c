"""Property tests: the receiver against the dense-surface reference, the
search's cell test, its direct DFTs against FFTs, its ball, the peak bins
against the ``periodogram_2d`` argmax, and the delay stage's scaling."""

import math
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

import bisac.estimator  # noqa: E402

from bisac import (  # noqa: E402
    GeometryError,
    OfdmNumerology,
    PeriodogramConfig,
    ScenarioEnsemble,
    SensingChannelParams,
    apply_channel,
    estimate,
    generate_frame,
    ls_channel_estimate,
    make_periodic,
    periodogram_2d,
    sample_scenario,
)
from bisac.estimator import (  # noqa: E402
    _BALL_MARGIN, _SLACK, _centred, _curvature, _delay_stage, _grid_products, _lattice, _moments,
    _newton, _start_cells,
)
from reference_chain import dense_maximum, reference_estimate  # noqa: E402
from test_estimator import assert_peak_bins_match_surface  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore::bisac.sim.IsiWarning")

NUM = OfdmNumerology()


def outcome(fn, *args):
    try:
        result = fn(*args)
    except GeometryError as exc:
        return str(exc)
    return result if isinstance(result, (dict, str)) else vars(result)


def fft_size(rows):
    """Powers of two from the pilot-grid size up to 1024."""
    low = max(rows - 1, 0).bit_length()
    return st.integers(low, 10).map(lambda k: 2**k)


@st.composite
def receiver_inputs(draw):
    n_p = draw(st.integers(1, NUM.n_subcarriers))
    m_p = draw(st.integers(1, NUM.n_symbols))
    pattern = make_periodic(NUM.n_subcarriers, NUM.n_symbols, n_p, m_p)
    rows, cols = (c + 1 for c in pattern.periodic_counts())
    config = PeriodogramConfig(draw(fft_size(rows)), draw(fft_size(cols)),
                               interpolate=draw(st.booleans()))
    return pattern, config, draw(st.floats(-30.0, 30.0)), draw(st.integers(0, 2**32 - 1))


def unique_maximum(grid):
    """Whether the dense reference finds one maximum, clear of any other by
    more than the search's rounding slack."""
    found = dense_maximum(grid)
    if found is None:
        return False
    points, power = found
    slack = 6 * _SLACK * np.abs(grid).sum()
    rivals = power[1:] >= (math.sqrt(power[0]) - slack) ** 2
    apart = np.abs((points[1:] - points[0] + np.pi) % (2 * np.pi) - np.pi).max(axis=1) > 1e-6
    return not np.any(rivals & apart)


@settings(max_examples=40, deadline=None)
@given(inputs=receiver_inputs())
def test_estimate_equals_full_surface_reference(inputs):
    # the receiver on its certified maximum equals the receiver rebuilt on a
    # dense surface: the same peak bins, flags and errors, and the same
    # estimates up to rounding
    pattern, config, snr_db, seed = inputs
    rng = np.random.default_rng(seed)
    scenario, truth = sample_scenario(ScenarioEnsemble(), rng)
    params = SensingChannelParams.from_snr_db(snr_db, tau=truth.tau, f_d=truth.f_d)
    frame = generate_frame(NUM, pattern, rng)
    received = apply_channel(frame, params, NUM, rng)
    assume(unique_maximum(ls_channel_estimate(received, frame, pattern)))
    args = (received, frame, pattern, NUM, config, scenario.baseline, truth.theta)
    result, reference = outcome(estimate, *args), outcome(reference_estimate, *args)
    if isinstance(reference, str):
        assert result == reference
        return
    for name, value in reference.items():
        if isinstance(value, float):
            assert result[name] == pytest.approx(value, rel=1e-9, abs=1e-12), name
        elif name == "fractional_offsets":
            assert result[name] == pytest.approx(value, abs=1e-9), name
        else:
            assert result[name] == value, name


@st.composite
def target_grids(draw):
    """A (K+1, L+1) grid of 1-60 rows and columns: one or two off-grid targets
    in complex white noise at -10 to 60 dB per cell."""
    rows, cols = draw(st.integers(1, 60)), draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, l = np.arange(rows)[:, None], np.arange(cols)[None, :]
    grid = np.zeros((rows, cols), complex)
    for _ in range(draw(st.integers(1, 2))):
        delay, doppler, phase = rng.uniform(size=3)
        grid += rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * (-delay * k + doppler * l + phase))
    noise = rng.standard_normal((rows, cols, 2)) @ np.array([1.0, 1j]) / np.sqrt(2.0)
    return grid + noise * 10.0 ** (-draw(st.floats(-10.0, 60.0)) / 20.0)


@settings(max_examples=60, deadline=None)
@given(grid=target_grids(), log_cell=st.integers(0, 3), data=st.data())
def test_cell_bound_covers_every_row_of_its_cell(grid, log_cell, data):
    # the cell test that drops cells: a cell of half-widths h holding the
    # maximiser x0 has |z| >= M cos(s(h)) at its centre, wherever x0 lies in it
    # (s(h) at most pi / 2; a 1 x 1 grid has no cells)
    assume(grid.size > 1)
    reference = dense_maximum(grid)
    assume(reference is not None)
    (x0, *_), (power, *_) = reference
    rows, cols = grid.shape
    extent = np.array([(rows - 1) / 2, (cols - 1) / 2])
    half = np.pi / _start_cells(rows, cols) / 2**log_cell
    assume(extent @ half <= np.pi / 2)
    where = np.array([data.draw(st.floats(-1.0, 1.0)) for _ in range(2)])
    centre = x0 + where * half
    z = abs(_moments(grid[None], centre[None], *_centred(rows, cols), 1, np.arange(1))[0, 0, 0])
    slack = 2 * _SLACK * np.abs(grid).sum()
    assert z + slack >= math.sqrt(power) * math.cos(extent @ half)


@settings(max_examples=60, deadline=None)
@given(grid=target_grids(), split=st.integers(1, 5), data=st.data())
def test_dft_rows_lie_within_their_slack_of_the_fft_rows(grid, split, data):
    # the direct DFTs of the search's lattices against an FFT of the same
    # points, within the slack that widens every |z|
    rows, cols = grid.shape
    k, l = _centred(rows, cols)
    cells = _start_cells(rows, cols) * split
    owner = np.zeros(3, int)
    index = np.array([[data.draw(st.integers(0, size - 1)) for size in cells] for _ in owner])
    offsets = [np.arange(split) * 2 * np.pi / size for size in cells]
    values = _lattice(grid[None], owner, index * (2 * np.pi / cells), offsets, k, l)
    surface = np.fft.fft(np.fft.ifft(grid, cells[0], axis=0, norm="forward"), cells[1], axis=1)
    # centred indices: the FFT's run from 0
    spot = (index[:, :, None] + np.arange(split)) % cells[:, None]
    fft = surface[spot[:, 0, :, None], spot[:, 1, None, :]]
    assert np.all(np.abs(np.abs(fft) - np.abs(values)) <= _SLACK * np.abs(grid).sum())


@settings(max_examples=100, deadline=None)
@given(shape=st.tuples(st.integers(1, 5), st.integers(1, 6), st.integers(1, 6)),
       index=st.lists(st.integers(0, 4), max_size=12).map(sorted),
       order=st.integers(1, 4), chunk_bytes=st.integers(1, 2**12),
       seed=st.integers(0, 2**32 - 1))
# repeats whose ends span as many grids as a run, a run, and both in one index
@example(shape=(3, 2, 3), index=[0, 0, 2], order=2, chunk_bytes=2**21, seed=0)
@example(shape=(5, 3, 2), index=[1, 2, 3, 4], order=1, chunk_bytes=1, seed=1)
@example(shape=(5, 4, 4), index=[0, 1, 2, 2, 2, 3, 4, 4], order=3, chunk_bytes=1, seed=2)
def test_grid_products_equal_the_gathered_product(shape, index, order, chunk_bytes, seed):
    # any non-decreasing index, repeats included, at any chunk of gathered
    # grids: the product of each grid it names, bit for bit
    trials, rows, cols = shape
    index = np.array([i % trials for i in index], int)
    index.sort()
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((trials, rows, cols, 2)) @ np.array([1.0, 1j])
    left = rng.standard_normal((index.size, order, rows)) + 0j
    with mock.patch.object(bisac.estimator, "_CHUNK_BYTES", chunk_bytes):
        got = _grid_products(left, stack, index)
    assert got.tobytes() == (left @ stack[index]).tobytes()


@settings(max_examples=60, deadline=None)
@given(grid=target_grids(), data=st.data())
def test_ball_bounds_the_periodogram_around_a_newton_point(grid, data):
    # within the ball's radius of a Newton point q, P <= P(q) + 2 delta |z(q)|,
    # at random points of it and along its rim
    assume(grid.size > 1)
    rows, cols = grid.shape
    k, l = _centred(rows, cols)
    (start, *_), _ = dense_maximum(grid) or (np.zeros((1, 2)), None)
    point, moved = _newton(grid[None], start[None], np.full(2, 0.1), np.arange(1))
    m = _moments(grid[None], point, k, l, 4, np.arange(1))
    extent = np.array([(rows - 1) / 2, (cols - 1) / 2])
    slack = _SLACK * np.abs(grid).sum()
    (kappa,), (third,) = _curvature(m, extent, np.array([slack]))
    assume(moved[0] and kappa > 0)
    sizes = [1 << (8 * n - 1).bit_length() for n in (rows, cols)]
    sup = math.sqrt(periodogram_2d(grid, PeriodogramConfig(*sizes)).max()) / math.cos(math.pi / 8)
    quad, lin = sup**2 / 3, third / 6
    radius = (math.sqrt(lin**2 + 2 * quad * (1 - _BALL_MARGIN) * kappa) - lin) / (2 * quad)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    y = rng.uniform(-1, 1, (64, 2))
    y[:32] /= np.abs(y[:32]).sum(axis=1, keepdims=True)
    y[32:] /= 2
    steps = np.divide(y * radius, extent, out=np.zeros_like(y), where=extent > 0)
    z = np.abs(_moments(np.broadcast_to(grid, (64,) + grid.shape), point + steps, k, l, 1,
                        np.arange(64)))
    peak = abs(m[0, 0, 0])
    assert np.all(z[:, 0, 0] ** 2 <= peak**2 + 2 * slack * peak + 4 * slack**2)


@settings(max_examples=40, deadline=None)
@given(strides=st.sampled_from([(2, 1), (2, 5)]), snr_db=st.floats(0.0, 20.0),
       log_fft=st.integers(7, 12), seed=st.integers(0, 2**32 - 1))
def test_peak_search_equals_surface_argmax(strides, snr_db, log_fft, seed):
    # on the benchmark's grids at 0-20 dB the peak bins are the periodogram_2d
    # argmax, as the traced replay of perfbench/child.py requires
    rng = np.random.default_rng(seed)
    pattern = make_periodic(NUM.n_subcarriers, NUM.n_symbols, *strides)
    scenario, truth = sample_scenario(ScenarioEnsemble(), rng)
    params = SensingChannelParams.from_snr_db(snr_db, tau=truth.tau, f_d=truth.f_d)
    frame = generate_frame(NUM, pattern, rng)
    grid = ls_channel_estimate(apply_channel(frame, params, NUM, rng), frame, pattern)
    assert_peak_bins_match_surface(grid, PeriodogramConfig(2**log_fft, 2**log_fft))


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 40), cols=st.integers(1, 20), log_fft=st.integers(6, 10),
       exponent=st.integers(-30, 30), seed=st.integers(0, 2**32 - 1))
def test_delay_stage_equals_rescaled_ifft_bit_for_bit(rows, cols, log_fft, exponent, seed):
    # norm="forward" and "* fft_n" are both exact for a power-of-two fft_n
    rng = np.random.default_rng(seed)
    grid = (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) * 10.0**exponent
    config = PeriodogramConfig(2**log_fft, 2**log_fft)
    reference = np.fft.ifft(grid, n=config.fft_n, axis=0) * config.fft_n
    stage = np.ascontiguousarray(_delay_stage(grid, config))
    assert np.array_equal(stage.view(np.uint64), reference.view(np.uint64))
