"""Property tests: the coarse-to-fine and row-pruned peak search against the
full periodogram, the coarse cell bound, the DFT rows' rounding bound, and
the delay stage's scaling."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bisac import (  # noqa: E402
    GeometryError,
    OfdmNumerology,
    PeriodogramConfig,
    ScenarioEnsemble,
    SensingChannelParams,
    apply_channel,
    estimate,
    generate_frame,
    make_periodic,
    periodogram_2d,
    sample_scenario,
)
from bisac.estimator import (  # noqa: E402
    _coarse_size, _coarse_stage, _delay_stage, _dft_rows, _dft_slack, _padded_fft,
)
from reference_chain import reference_estimate  # noqa: E402
from test_estimator import assert_peak_search_matches_surface  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore::bisac.sim.IsiWarning")

NUM = OfdmNumerology()


def outcome(fn, *args):
    try:
        result = fn(*args)
    except GeometryError as exc:
        return str(exc)
    return result if isinstance(result, dict) else vars(result)


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


@settings(max_examples=40, deadline=None)
@given(inputs=receiver_inputs())
def test_estimate_equals_full_surface_reference(inputs):
    pattern, config, snr_db, seed = inputs
    rng = np.random.default_rng(seed)
    scenario, truth = sample_scenario(ScenarioEnsemble(), rng)
    params = SensingChannelParams.from_snr_db(snr_db, tau=truth.tau, f_d=truth.f_d)
    frame = generate_frame(NUM, pattern, rng)
    received = apply_channel(frame, params, NUM, rng)
    args = (received, frame, pattern, NUM, config, scenario.baseline, truth.theta)
    assert outcome(estimate, *args) == outcome(reference_estimate, *args)


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


def doppler_size(cols, data):
    """A power of two from the grid's columns up to four times that, at most 256."""
    low = max(cols - 1, 0).bit_length()
    return 2 ** data.draw(st.integers(low, min(low + 2, 8)))


@settings(max_examples=60, deadline=None)
@given(grid=target_grids(), log_cell=st.integers(2, 5), data=st.data())
def test_cell_bound_covers_every_row_of_its_cell(grid, log_cell, data):
    # the inequality that makes the coarse search exact
    rows, cols = grid.shape
    coarse_n, cell = _coarse_size(rows), 2**log_cell
    _, bound = _coarse_stage(grid, coarse_n)
    surface = periodogram_2d(grid, PeriodogramConfig(coarse_n * cell, doppler_size(cols, data)))
    # cell c holds the rows c * cell - cell / 2 .. c * cell + cell / 2 - 1
    cell_max = np.roll(surface, cell // 2, axis=0).reshape(coarse_n, cell, -1).max(axis=(1, 2))
    assert np.all(cell_max <= bound)


@settings(max_examples=60, deadline=None)
@given(grid=target_grids(), log_fft=st.integers(0, 12), data=st.data())
def test_dft_rows_lie_within_their_slack_of_the_fft_rows(grid, log_fft, data):
    # every complex surface value, Doppler transform included, of the DFT
    # rows against the FFT rows that periodogram_2d transforms
    rows, cols = grid.shape
    config = PeriodogramConfig(2 ** max(log_fft, max(rows - 1, 0).bit_length()),
                               doppler_size(cols, data))
    fft = _padded_fft(_delay_stage(grid, config), config.fft_m, False)
    dft = _padded_fft(_dft_rows(grid, np.arange(config.fft_n), config), config.fft_m, False)
    assert np.abs(dft - fft).max() <= _dft_slack(rows, config) * np.abs(grid).sum()


@settings(max_examples=100, deadline=None)
@given(grid=target_grids(), dtype=st.sampled_from([np.complex64, np.complex128]),
       data=st.data())
def test_peak_search_equals_surface_argmax(grid, dtype, data):
    # both search and surface run in complex128, whatever the grid's dtype
    grid = grid.astype(dtype)
    rows, cols = grid.shape
    # every size up to 4096, and as often one with cells of at least 4 rows
    coarse = _coarse_size(rows).bit_length() + 1
    fft_n = 2 ** data.draw(st.integers(max(rows - 1, 0).bit_length(), 12)
                           | st.integers(min(coarse, 12), 12))
    assert_peak_search_matches_surface(grid, PeriodogramConfig(fft_n, doppler_size(cols, data)))


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
