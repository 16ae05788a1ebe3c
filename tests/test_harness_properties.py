"""Property tests: the shared bound-row path against per-row ecrb_vel calls,
JSON round trips of whole configs, trial seeds from uint32 entropy against
the list key, and the bulk-seeded trial generators against ``default_rng``
of each trial's seed."""

import dataclasses
import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from bisac import (  # noqa: E402
    ExperimentConfig,
    OfdmNumerology,
    PeriodogramConfig,
    PilotPattern,
    ScenarioEnsemble,
    SensingChannelParams,
    crb,
    ecrb_vel,
    make_periodic,
    run_sweep,
    run_table1,
)
from bisac.harness import (  # noqa: E402
    _ECRB_STREAM, _TRIAL_STREAM, _trial_generators, _trial_seed, _trial_words, _Words,
)

pytestmark = pytest.mark.filterwarnings("ignore::bisac.sim.IsiWarning")

strides = st.tuples(st.integers(1, 12), st.integers(1, 12))
snr_db = st.floats(-20.0, 30.0, allow_nan=False)


def per_row_bounds(config, snr_db, pattern):
    params = SensingChannelParams.from_snr_db(snr_db)
    ecrb = ecrb_vel(
        config.ensemble, params, pattern, config.numerology, draws=config.ecrb_draws,
        seed=np.random.SeedSequence([config.seed, _ECRB_STREAM]),
    )
    report = crb(params, pattern, config.numerology, beta=0.0)
    return report.rmse_bound_ran_m, ecrb.value_ms


@settings(max_examples=20, deadline=None)
@given(pairs=st.lists(strides, min_size=1, max_size=4),
       snr_grid=st.lists(snr_db, min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_bound_columns_equal_per_row_ecrb_vel(pairs, snr_grid, seed):
    config = ExperimentConfig(
        pattern=make_periodic(70, 50, *pairs[0]), snr_grid_db=snr_grid,
        trials_per_point=1, fft=PeriodogramConfig(128, 128), seed=seed,
        ecrb_draws=500,
    )
    for row in run_sweep(config).rows:
        expected = per_row_bounds(config, row.snr_db, config.pattern)
        assert (row.sqrt_crb_ran_m, row.ecrb_vel_ms) == expected
    for row in run_table1(config, snr_db=snr_grid[0], pairs=tuple(pairs)):
        expected = per_row_bounds(config, snr_grid[0], make_periodic(70, 50, row.n_p, row.m_p))
        assert (row.sqrt_crb_ran_m, row.ecrb_vel_ms) == expected


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
finite_pairs = st.tuples(finite, finite)
# a range's width hi - lo must be finite too
ranges = finite_pairs.filter(lambda r: math.isfinite(r[1] - r[0]))
# terminals and box lie within 1e153 m of the origin, so 8 times any
# squared extent, at most 8 * (2e153)**2, is finite
coordinate = st.floats(-1e153, 1e153)
points = st.tuples(coordinate, coordinate)
# beyond about +-3082 dB the linear SNR or its reciprocal overflows or underflows
snr_range = st.floats(-3000.0, 3000.0)


@st.composite
def configs(draw):
    num = draw(st.builds(
        OfdmNumerology, n_subcarriers=st.integers(1, 80), n_symbols=st.integers(1, 60),
        subcarrier_spacing_hz=positive, cp_duration_s=st.floats(0.0, 1e-3), carrier_hz=positive,
    ))
    n, m = num.n_subcarriers, num.n_symbols
    if draw(st.booleans()):
        pattern = make_periodic(n, m, draw(st.integers(1, n)), draw(st.integers(1, m)))
    else:
        cells = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
                              min_size=1, max_size=20, unique=True))
        pattern = PilotPattern(n_grid=n, m_grid=m, cells=[list(c) for c in cells])
    ensemble = ScenarioEnsemble(
        tx_pos=draw(points), rx_pos=draw(points), x_range=draw(points),
        y_range=draw(points), speed_range=draw(ranges), delta_range=draw(ranges),
    )
    fft = st.integers(0, 12).map(lambda k: 2**k)
    return ExperimentConfig(
        numerology=num, pattern=pattern, ensemble=ensemble,
        snr_grid_db=draw(st.lists(snr_range, min_size=1, max_size=5)),
        fft=PeriodogramConfig(draw(fft), draw(fft), draw(st.booleans())),
        trials_per_point=draw(st.integers(1, 10**6)), seed=draw(st.integers(0, 2**64)),
        workers=draw(st.integers(1, 64)), ecrb_draws=draw(st.integers(1, 10**7)),
        out=draw(st.none() | st.text(max_size=8)),
    )


def field_values(value):
    """A dataclass's field values, nested, with arrays as (dtype, list), for ==."""
    if dataclasses.is_dataclass(value):
        return {f.name: field_values(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.tolist()
    return value


@settings(max_examples=50, deadline=None)
@given(config=configs())
def test_config_json_round_trip(config):
    spec = config.to_json_dict()
    back = ExperimentConfig.from_json_dict(json.loads(json.dumps(spec)))
    assert back.to_json_dict() == spec
    assert field_values(back) == field_values(config)


def bits_of(seed_sequence):
    return seed_sequence.generate_state(8).tolist()


# key words below 2**32, which the bulk path hashes, and larger ones
key_word = st.integers(0, 2**32 - 1) | st.integers(2**32, 2**70)


@settings(max_examples=300, deadline=None)
@given(seed=key_word, snr_idx=key_word, trial=key_word)
@example(seed=2**32 - 1, snr_idx=0, trial=2**32 - 1)
@example(seed=2**32, snr_idx=0, trial=0)
@example(seed=0, snr_idx=0, trial=2**32)
def test_trial_seed_equals_the_list_key(seed, snr_idx, trial):
    key = [seed, _TRIAL_STREAM, snr_idx, trial]
    fast = _trial_seed(seed, snr_idx, trial)
    assert bits_of(fast) == bits_of(np.random.SeedSequence(key))


word = st.integers(0, 2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(keys=st.lists(st.tuples(word, word, word, word), min_size=1, max_size=200))
@example(keys=[(0, 0, 0, 0), (2**32 - 1,) * 4, (0, 2**32 - 1, 0, 2**32 - 1)])
def test_bulk_words_equal_the_seed_sequence_state(keys):
    words = _trial_words(np.array(keys, np.uint32))
    assert words.dtype == np.uint64 and words.shape == (len(keys), 4)
    assert words.tolist() == [np.random.SeedSequence(list(key)).generate_state(4, np.uint64)
                              .tolist() for key in keys]


def reference_state(seed, snr_idx, trial):
    return np.random.default_rng(_trial_seed(seed, snr_idx, trial)).bit_generator.state


# runs (snr_idx, start, stop) of up to 200 trials in all below 2**32
trial_runs = st.lists(st.tuples(word, st.integers(0, 2**32 - 200), st.integers(1, 50)),
                      min_size=1, max_size=4).map(
    lambda rs: [(snr_idx, start, start + count) for snr_idx, start, count in rs])


@settings(max_examples=60, deadline=None)
@given(seed=word, runs=trial_runs)
@example(seed=2**32 - 1, runs=[(2**32 - 1, 2**32 - 3, 2**32)])
@example(seed=0, runs=[(0, 0, 1)])
def test_bulk_seeded_generators_equal_default_rng_of_the_seed(seed, runs):
    generators = _trial_generators(seed, runs)
    expected = [reference_state(seed, snr_idx, trial)
                for snr_idx, start, stop in runs for trial in range(start, stop)]
    assert [g.bit_generator.state for g in generators] == expected
    assert all(isinstance(g.bit_generator.seed_seq, _Words) for g in generators)
    # equal states draw alike: the last trial's next normals
    snr_idx, _, stop = runs[-1]
    reference = np.random.default_rng(_trial_seed(seed, snr_idx, stop - 1))
    assert generators[-1].standard_normal(3).tolist() == reference.standard_normal(3).tolist()


@settings(max_examples=100, deadline=None)
@given(seed=key_word, snr_idx=key_word, trial=key_word)
@example(seed=2**32, snr_idx=0, trial=0)
@example(seed=0, snr_idx=2**32, trial=0)
@example(seed=0, snr_idx=0, trial=2**32 - 1)
@example(seed=0, snr_idx=0, trial=2**32)
def test_key_beyond_32_bits_takes_the_list_path(seed, snr_idx, trial):
    (generator,) = _trial_generators(seed, [(snr_idx, trial, trial + 1)])
    assert generator.bit_generator.state == reference_state(seed, snr_idx, trial)
    bulk = isinstance(generator.bit_generator.seed_seq, _Words)
    assert bulk == (max(seed, snr_idx, trial) < 2**32)


def test_words_seed_one_pcg64_alone():
    # the stand-in holds the state of one generator; it cannot give another
    words = _Words(_trial_words(np.zeros((1, 4), np.uint32))[0])
    with pytest.raises(ValueError, match="one PCG64"):
        words.generate_state(8)
