"""Property tests: sweep trial blocks on the pilot subgrid against the
full-grid reference chain, the stacked delay stage against per-grid
transforms, and ``simulate_trial`` against its block."""

import dataclasses
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bisac import (  # noqa: E402
    ExperimentConfig,
    GeometryError,
    PeriodogramConfig,
    SensingChannelParams,
    apply_channel,
    estimate,
    generate_frame,
    ls_channel_estimate,
    make_periodic,
    sample_scenario,
)
from bisac.estimator import _delay_stage  # noqa: E402
from bisac.harness import (  # noqa: E402
    _TRIAL_STREAM, _block_errors, _trial_block, simulate_trial,
)

pytestmark = pytest.mark.filterwarnings("ignore::bisac.sim.IsiWarning")

def reference_trial(config, snr_idx, trial_idx):
    """The full-grid chain: (pilot grid, outcome, (sq_err_d, sq_err_v, valid))."""
    rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, _TRIAL_STREAM, snr_idx, trial_idx]))
    scenario, truth = sample_scenario(config.ensemble, rng)
    params = SensingChannelParams.from_snr_db(
        config.snr_grid_db[snr_idx], tau=truth.tau, f_d=truth.f_d)
    frame = generate_frame(config.numerology, config.pattern, rng)
    received = apply_channel(frame, params, config.numerology, rng)
    grid = ls_channel_estimate(received, frame, config.pattern)
    try:
        outcome = estimate(received, frame, config.pattern, config.numerology, config.fft,
                           baseline=scenario.baseline, theta=truth.theta)
    except GeometryError as exc:
        return grid, str(exc), (math.nan, math.nan, False)
    err_d = outcome.d_bis_hat - truth.d_bis
    err_v = outcome.v_bis_hat - truth.v_bis
    return grid, outcome, (err_d**2, err_v**2, True)


def bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


def comparable(outcome):
    return str(outcome) if isinstance(outcome, GeometryError) else outcome


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
    trials = _trial_block(config, 0, start, stop)
    errors = _block_errors((config, 0, start, stop))
    assert len(trials) == len(errors) == stop - start
    for trial_idx, (_, grid, outcome), sq_errors in zip(range(start, stop), trials, errors):
        ref_grid, ref_outcome, ref_errors = reference_trial(config, 0, trial_idx)
        assert np.array_equal(bits(grid), bits(ref_grid))
        # equal EstimationResults have equal peak bins, offsets and estimates
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
                                                 _trial_block(config, 1, start, stop)):
        alone = simulate_trial(config, 1, trial_idx)
        assert alone[0] == truth
        assert np.array_equal(bits(alone[1]), bits(grid))
        assert comparable(alone[2]) == comparable(outcome)
