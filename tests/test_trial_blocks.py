"""Property tests: sweep trial blocks on the pilot subgrid against the
reference chain (pilot-cell draws, then the receiver on the full surface),
the block's bulk draws against the generator calls they replace, the stacked
delay stage against per-grid transforms, the chunked search and draws
against each grid alone and against any chunk size, ``simulate_trial``
against its block, the sweep's readout, which stops at the estimates, and
the memory a block allocates."""

import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import bisac.estimator  # noqa: E402
from bisac import (  # noqa: E402
    ExperimentConfig,
    GeometryError,
    PeriodogramConfig,
    ScenarioEnsemble,
    make_periodic,
    run_sweep,
)
from bisac.bounds import _ECRB_SLICE, _ecrb_means  # noqa: E402
from bisac.estimator import (  # noqa: E402
    _block_length, _chunk_length, _delay_stage, _search, _start_cells,
)
from bisac.harness import _block_errors, _trial_block, _trial_seed, simulate_trial  # noqa: E402
from bisac.sim import _qpsk_indices, simulate_pilots  # noqa: E402
from reference_chain import block_trials, reference_trial  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore::bisac.sim.IsiWarning")

def bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


def comparable(outcome):
    return str(outcome) if isinstance(outcome, GeometryError) else vars(outcome)


def fft_size(rows):
    """Powers of two from the pilot-grid size up to 512."""
    return st.integers(max(rows - 1, 0).bit_length(), 9).map(lambda k: 2**k)


@st.composite
def blocks(draw, snr_db):
    """A config of one SNR point and a block (start, stop) of its trials."""
    # strides over the whole grid: 1 x 1, ones that do not divide 70 x 50, aliasing ones
    pattern = make_periodic(70, 50, draw(st.integers(1, 70)), draw(st.integers(1, 50)))
    rows, cols = (c + 1 for c in pattern.periodic_counts())
    config = ExperimentConfig(
        pattern=pattern, snr_grid_db=(0.0,), trials_per_point=1,
        fft=PeriodogramConfig(draw(fft_size(rows)), draw(fft_size(cols)), draw(st.booleans())),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    # a config takes finite SNRs only; set the grid after its check to
    # reach the noiseless path as well, which draws no noise
    object.__setattr__(config, "snr_grid_db", (snr_db,))
    start = draw(st.integers(0, 1000))
    return config, start, start + draw(st.integers(1, 6))


# every noise regime, from outliers and geometry errors to the noiseless path
SNRS_DB = [-30.0, -15.0, 0.0, 15.0, 30.0, math.inf]


@pytest.mark.parametrize("snr_db", SNRS_DB)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_block_trials_equal_the_full_grid_chain_bit_for_bit(snr_db, data):
    config, start, stop = data.draw(blocks(snr_db))
    trials = block_trials(config, [(0, start, stop)])
    errors = _block_errors((config, [(0, start, stop)]))
    assert len(trials) == stop - start and [len(c) for c in errors] == [stop - start] * 3
    for trial_idx, (_, grid, outcome), *sq_errors in zip(range(start, stop), trials, *errors):
        ref_grid, ref_outcome, ref_errors = reference_trial(config, 0, trial_idx)
        assert np.array_equal(bits(grid), bits(ref_grid))
        # equal fields: equal peak bins, offsets, estimates and flags
        assert comparable(outcome) == ref_outcome
        assert bits(sq_errors[:2]).tolist() == bits(ref_errors[:2]).tolist()
        assert sq_errors[2].item() is ref_errors[2]


# strides of the default grid: the benchmark's two and two aliasing ones
CHUNK_STRIDES = [(2, 1), (2, 5), (10, 5), (5, 2)]


def chunk_budgets(rows, cols):
    """``_CHUNK_BYTES`` of chunks of one trial (and row batches of one row),
    of three trials, and of any stack, for rows x cols pilot grids."""
    stage = int(_start_cells(rows, cols)[0]) * cols * 16
    return [1, 3 * stage, 2**40]


@st.composite
def stacks(draw):
    """A stack of LS grids of one pattern: trials at -30 to 30 dB, all-zero and
    NaN grids, and real grids, whose mirrored maxima tie."""
    pattern = make_periodic(70, 50, *draw(st.sampled_from(CHUNK_STRIDES)))
    seed, grids = draw(st.integers(0, 2**32 - 1)), []
    for trial in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["trial", "trial", "zero", "nan", "mirror"]))
        config = ExperimentConfig(pattern=pattern, snr_grid_db=(draw(st.floats(-30, 30)),),
                                  trials_per_point=1, seed=seed)
        grid = _trial_block(config, [(0, trial, trial + 1)])[1][0]
        if kind == "zero":
            grid[:] = 0.0
        elif kind == "nan":
            grid[draw(st.integers(0, grid.shape[0] - 1)), 0] = math.nan
        elif kind == "mirror":
            grid = grid.real.astype(complex)
        grids.append(grid)
    return np.stack(grids)


@settings(max_examples=40, deadline=None)
@given(stack=stacks(), budget=st.integers(0, 2))
def test_chunked_search_of_a_stack_is_each_grid_alone(stack, budget):
    # points, Newton flags and split cells, bit for bit, with chunks of one
    # trial (and row batches of one row), of three trials or of the stack
    alone = [_search(grid[None]) for grid in stack]
    with mock.patch.object(bisac.estimator, "_CHUNK_BYTES",
                           chunk_budgets(*stack.shape[1:])[budget]):
        together = _search(stack)
    for got, want in zip(together, zip(*alone)):
        assert got.tobytes() == np.concatenate(want).tobytes()


@settings(max_examples=20, deadline=None)
@given(strides=st.sampled_from(CHUNK_STRIDES), seed=st.integers(0, 2**32 - 1),
       runs=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 50), st.integers(1, 12)),
                     min_size=1, max_size=3), budget=st.integers(0, 1))
def test_trial_block_is_independent_of_the_draw_chunk(strides, seed, runs, budget):
    # chunks of one and of three trials against the default, 20 to 1024
    # trials at these strides, which holds every run here
    config = ExperimentConfig(pattern=make_periodic(70, 50, *strides), snr_grid_db=(-25.0, 15.0),
                              trials_per_point=1, seed=seed)
    runs = [(snr_idx, start, start + length) for snr_idx, start, length in runs]
    (truths, degenerate, legs), grids = _trial_block(config, runs)
    with mock.patch.object(bisac.estimator, "_CHUNK_BYTES",
                           chunk_budgets(*grids.shape[1:])[budget]):
        (chunked_truths, chunked_degenerate, chunked_legs), chunked = _trial_block(config, runs)
    assert bits(chunked_truths).tolist() == bits(truths).tolist()
    assert chunked_degenerate.tolist() == degenerate.tolist()
    assert bits(chunked_legs).tolist() == bits(legs).tolist()
    assert bits(chunked).tolist() == bits(grids).tolist()


@pytest.mark.parametrize("size", [1, 7, 350, 1750])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**64 - 1))
def test_raw_bit_indices_equal_bounded_integers(size, seed):
    # pilot counts of strides (70, 50), (10, 50), (2, 5) and (2, 1); the odd
    # ones leave a 32-bit half buffered in the generator that integers drew from
    raw_rng, int_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    raw = raw_rng.bit_generator.random_raw(-(-size // 2))
    indices = _qpsk_indices(raw[None], size)[0]
    assert indices.tolist() == int_rng.integers(0, 4, size).tolist()
    assert bits(raw_rng.standard_normal(size)).tolist() == bits(
        int_rng.standard_normal(size)).tolist()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), rows=st.integers(1, 40), cols=st.integers(1, 50))
def test_one_noise_call_equals_the_two_it_replaces(seed, rows, cols):
    one, two = np.random.default_rng(seed), np.random.default_rng(seed)
    pair = np.empty((2, rows, cols))
    one.standard_normal(out=pair)
    assert bits(pair).tolist() == bits(np.stack(
        [two.standard_normal((rows, cols)) for _ in range(2)])).tolist()
    assert one.bit_generator.state == two.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(trials=st.integers(1, 30), rows=st.integers(1, 40), cols=st.integers(1, 20),
       log_fft=st.integers(6, 10), seed=st.integers(0, 2**32 - 1))
def test_stacked_delay_stage_equals_each_grid_alone(trials, rows, cols, log_fft, seed):
    rng = np.random.default_rng(seed)
    shape = (trials, rows, cols)
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    config = PeriodogramConfig(2**log_fft, 2**log_fft)
    stages = _delay_stage(stack, config)
    for grid, stage in zip(stack, stages):
        assert np.array_equal(bits(stage), bits(_delay_stage(grid, config)))


@settings(max_examples=20, deadline=None)
@given(block=blocks(10.0))
def test_simulate_trial_is_its_trial_of_the_block(block):
    config, start, stop = block
    config = dataclasses.replace(config, snr_grid_db=(5.0, *config.snr_grid_db))
    for trial_idx, (truth, grid, outcome) in zip(range(start, stop),
                                                 block_trials(config, [(1, start, stop)])):
        alone = simulate_trial(config, 1, trial_idx)
        assert alone[0] == truth
        assert np.array_equal(bits(alone[1]), bits(grid))
        assert comparable(alone[2]) == comparable(outcome)


def test_packed_runs_equal_their_blocks():
    # a sweep in one process packs runs of several SNR points into one
    # estimator pass; every trial comes out as its own block gives it
    config = ExperimentConfig(pattern=make_periodic(70, 50, 2, 5), snr_grid_db=(-10.0, 20.0),
                              trials_per_point=3, seed=9)
    packed = block_trials(config, [(0, 0, 3), (1, 0, 3)])
    alone = block_trials(config, [(0, 0, 3)]) + block_trials(config, [(1, 0, 3)])
    for (truth, grid, outcome), (truth1, grid1, outcome1) in zip(packed, alone):
        assert truth == truth1 and np.array_equal(bits(grid), bits(grid1))
        assert comparable(outcome) == comparable(outcome1)


def test_interpolating_sweep_reads_no_peak_bins(monkeypatch):
    # with interpolation on, the estimate is the search's maximiser: a sweep
    # block stops there and evaluates no peak-bin corners
    def no_bins(*args):
        raise AssertionError("peak bins read")

    monkeypatch.setattr(bisac.estimator, "_peak_bins", no_bins)
    config = ExperimentConfig(pattern=make_periodic(70, 50, 2, 5), snr_grid_db=(-30.0, 20.0),
                              trials_per_point=20, seed=1, ecrb_draws=1000)
    assert len(run_sweep(config).rows) == 2


# the sweep CSVs of strides (2, 5) and (2, 1) with interpolation off, where
# the peak bins are the estimate: run_sweep at seed 1 over -30, -10, 10 and
# 30 dB, 20 trials per point, fft 64, when a block built every trial's
# EstimationResult
_PEAK_BIN_CSV = {
    (2, 5): (
        "snr_db,rmse_range_m,rmse_vel_ms,sqrt_crb_ran_m,ecrb_vel_ms,valid_trial_fraction\n"
        "-30,290.802863166,42.185959686,14.1264256858,11.2192979063,0.9\n"
        "-10,3.59484993285,1.3766245062,1.41264256858,1.12192979063,1\n"
        "10,3.50001438781,0.693924871212,0.141264256858,0.112192979063,1\n"
        "30,2.94954119665,0.752908315337,0.0141264256858,0.0112192979063,1\n"
    ),
    (2, 1): (
        "snr_db,rmse_range_m,rmse_vel_ms,sqrt_crb_ran_m,ecrb_vel_ms,valid_trial_fraction\n"
        "-30,198.45842653,252.589303304,6.31752962252,4.99327116368,1\n"
        "-10,3.38009443472,3.47304867088,0.631752962252,0.499327116368,1\n"
        "10,3.50001438781,3.68817109284,0.0631752962252,0.0499327116368,1\n"
        "30,2.94954119665,3.67796346105,0.00631752962252,0.00499327116368,1\n"
    ),
}


@pytest.mark.parametrize("strides", sorted(_PEAK_BIN_CSV), ids="{0[0]}x{0[1]}".format)
def test_peak_bin_sweep_csv_is_unchanged(strides):
    config = ExperimentConfig(
        pattern=make_periodic(70, 50, *strides), snr_grid_db=(-30.0, -10.0, 10.0, 30.0),
        trials_per_point=20, fft=PeriodogramConfig(64, 64, interpolate=False), seed=1,
    )
    assert run_sweep(config).to_csv() == _PEAK_BIN_CSV[strides]


def allocation_peak(fn, *args) -> int:
    """Peak bytes that ``fn(*args)`` allocates, traced after one untimed call."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the traced peak of the 1e5-draw geometry (seed [1, 1]) when it was drawn
# as whole arrays, by ``allocation_peak``: the memory budget of one block
_WHOLE_ARRAY_DRAW_PEAK = 5_601_744


@pytest.mark.parametrize("strides, snr_db", [
    ((2, 1), 20.0), ((2, 5), -10.0),
    # below the threshold nearly every start row passes its bound
    ((2, 1), -20.0), ((2, 1), -30.0), ((2, 5), -20.0), ((2, 5), -30.0),
])
def test_block_allocates_no_more_than_the_geometry_draw(strides, snr_db):
    # the calling process of a parallel sweep runs blocks beside its children,
    # so a full block may take no more memory than the bound columns'
    # geometry draw took when it was drawn as whole arrays, at any SNR
    assert bisac.estimator._BLOCK_BYTES == _WHOLE_ARRAY_DRAW_PEAK
    pattern = make_periodic(70, 50, *strides)
    rows, cols = (count + 1 for count in pattern.periodic_counts())
    trials = _block_length(rows, cols)
    assert trials == {(2, 1): 82, (2, 5): 410}[strides] and type(trials) is int
    config = ExperimentConfig(pattern=pattern, snr_grid_db=(snr_db,), trials_per_point=trials,
                              seed=1)
    peak = allocation_peak(_block_errors, (config, [(0, 0, trials)]))
    assert peak <= _WHOLE_ARRAY_DRAW_PEAK


def test_aliasing_block_passes_on_its_start_samples_alone():
    # an aliasing pattern opens many start cells at low SNR: the search keeps
    # the samples that pass the level-0 test before it builds their centres
    # (a full (10, 5) block at -30 dB traced 15.9 MiB when every sample got
    # one; the level loop's cells still take it past _BLOCK_BYTES)
    pattern = make_periodic(70, 50, 10, 5)
    trials = _block_length(*(count + 1 for count in pattern.periodic_counts()))
    assert trials == 2053
    config = ExperimentConfig(pattern=pattern, snr_grid_db=(-30.0,), trials_per_point=trials,
                              seed=1)
    assert allocation_peak(_block_errors, (config, [(0, 0, trials)])) <= 14 * 2**20


# the traced peak of a strides-(2, 1) draw chunk's pilot draw and LS divide
# (20 trials, 20 dB, seed 1) by ``allocation_peak``, when each trial's phase
# took one exponential a cell and its noise a complex temporary
_CELL_PHASE_DRAW_PEAK = 3_089_512


def test_block_draw_allocates_no_more_than_a_phase_per_cell():
    pattern = make_periodic(70, 50, 2, 1)
    rows, cols = (count + 1 for count in pattern.periodic_counts())
    trials = _chunk_length(rows, cols)
    assert trials == 20
    config = ExperimentConfig(pattern=pattern, snr_grid_db=(20.0,), seed=1)
    seeds = [_trial_seed(config.seed, 0, trial) for trial in range(trials)]

    def draw():
        _, symbols, received = simulate_pilots(config.ensemble, config.numerology, pattern,
                                               config.snr_grid_db[0], seeds)
        return np.divide(received, symbols)

    assert allocation_peak(draw) <= _CELL_PHASE_DRAW_PEAK


def test_geometry_draw_allocates_one_array_of_draws():
    # at most the x draws, the skip mask and the temporaries of one slice,
    # when the x draws were one whole array; the y draws were a second one,
    # 0.8 MB more
    draws = ExperimentConfig().ecrb_draws
    slack = draws + 8 * (8 * _ECRB_SLICE)
    peak = allocation_peak(_ecrb_means, ScenarioEnsemble(), [1.0], draws,
                           np.random.SeedSequence([1, 1]))
    assert peak <= 8 * draws + slack


def test_geometry_draw_memory_does_not_grow_with_the_draws():
    # every slice of draws is reduced before the next is drawn; the x draws
    # were one array of 8 bytes a draw, 1.4 MB more at 2e5 draws
    peaks = [allocation_peak(_ecrb_means, ScenarioEnsemble(), [1.0], draws,
                             np.random.SeedSequence([1, 1])) for draws in (2 * 10**4, 2 * 10**5)]
    assert peaks[1] <= peaks[0] + _ECRB_SLICE
