"""Property tests: sweep trial blocks on the pilot subgrid against the
reference chain (pilot-cell draws, then the receiver on the full surface),
the stacked delay stage against per-grid transforms, and ``simulate_trial``
against its block."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bisac import (  # noqa: E402
    ExperimentConfig,
    GeometryError,
    PeriodogramConfig,
    ScenarioEnsemble,
    make_periodic,
)
from bisac.bounds import _ECRB_SLICE, _ecrb_geometry  # noqa: E402
from bisac.estimator import _delay_stage, _ls_divide, _start_cells  # noqa: E402
from bisac.harness import (  # noqa: E402
    _BLOCK_BYTES, _block_errors, _trial_block, _trial_seed, simulate_trial,
)
from bisac.sim import simulate_pilots  # noqa: E402
from reference_chain import reference_trial  # noqa: E402

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
    trials = _trial_block(config, [(0, start, stop)])
    errors = _block_errors((config, [(0, start, stop)]))
    assert len(trials) == len(errors) == stop - start
    for trial_idx, (_, grid, outcome), sq_errors in zip(range(start, stop), trials, errors):
        ref_grid, ref_outcome, ref_errors = reference_trial(config, 0, trial_idx)
        assert np.array_equal(bits(grid), bits(ref_grid))
        # equal fields: equal peak bins, offsets, estimates and flags
        assert comparable(outcome) == ref_outcome
        assert bits(sq_errors[:2]).tolist() == bits(ref_errors[:2]).tolist()
        assert sq_errors[2] is ref_errors[2]


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
                                                 _trial_block(config, [(1, start, stop)])):
        alone = simulate_trial(config, 1, trial_idx)
        assert alone[0] == truth
        assert np.array_equal(bits(alone[1]), bits(grid))
        assert comparable(alone[2]) == comparable(outcome)


def test_packed_runs_equal_their_blocks():
    # a sweep in one process packs runs of several SNR points into one
    # estimator pass; every trial comes out as its own block gives it
    config = ExperimentConfig(pattern=make_periodic(70, 50, 2, 5), snr_grid_db=(-10.0, 20.0),
                              trials_per_point=3, seed=9)
    packed = _trial_block(config, [(0, 0, 3), (1, 0, 3)])
    alone = _trial_block(config, [(0, 0, 3)]) + _trial_block(config, [(1, 0, 3)])
    for (truth, grid, outcome), (truth1, grid1, outcome1) in zip(packed, alone):
        assert truth == truth1 and np.array_equal(bits(grid), bits(grid1))
        assert comparable(outcome) == comparable(outcome1)


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


@pytest.mark.parametrize("strides, snr_db", [((2, 1), 20.0), ((2, 5), -10.0)])
def test_block_allocates_no_more_than_the_geometry_draw(strides, snr_db):
    # the calling process of a parallel sweep runs blocks beside its children,
    # so a full block may take no more memory than the bound columns'
    # geometry draw took when it was drawn as whole arrays
    pattern = make_periodic(70, 50, *strides)
    rows, cols = (count + 1 for count in pattern.periodic_counts())
    trials = _BLOCK_BYTES // (_start_cells(rows, 1)[0] * cols * 16)
    config = ExperimentConfig(pattern=pattern, snr_grid_db=(snr_db,), trials_per_point=trials,
                              seed=1)
    peak = allocation_peak(_block_errors, (config, [(0, 0, trials)]))
    assert peak <= _WHOLE_ARRAY_DRAW_PEAK


# the traced peak of a full strides-(2, 1) block's pilot draw and LS divide
# (20 trials, 20 dB, seed 1) by ``allocation_peak``, when each trial's phase
# took one exponential a cell and its noise a complex temporary
_CELL_PHASE_DRAW_PEAK = 3_089_512


def test_block_draw_allocates_no_more_than_a_phase_per_cell():
    pattern = make_periodic(70, 50, 2, 1)
    rows, cols = (count + 1 for count in pattern.periodic_counts())
    trials = _BLOCK_BYTES // (_start_cells(rows, 1)[0] * cols * 16)
    config = ExperimentConfig(pattern=pattern, snr_grid_db=(20.0,), seed=1)
    seeds = [_trial_seed(config.seed, 0, trial) for trial in range(trials)]

    def draw():
        _, symbols, received = simulate_pilots(config.ensemble, config.numerology, pattern,
                                               config.snr_grid_db[0], seeds)
        return _ls_divide(received, symbols)

    assert allocation_peak(draw) <= _CELL_PHASE_DRAW_PEAK


def test_geometry_draw_allocates_two_arrays_of_draws():
    # the two coordinate draws, the first of which takes the output, plus
    # the skip mask and the temporaries of one slice
    draws = ExperimentConfig().ecrb_draws
    slack = draws + 8 * (8 * _ECRB_SLICE)
    peak = allocation_peak(_ecrb_geometry, ScenarioEnsemble(), draws,
                           np.random.SeedSequence([1, 1]))
    assert peak <= 2 * 8 * draws + slack
