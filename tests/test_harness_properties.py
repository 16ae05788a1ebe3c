"""Property tests: the shared bound-row path against per-row ecrb_vel calls,
and JSON round trips of whole configs."""

import dataclasses
import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

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
from bisac.harness import _ECRB_STREAM  # noqa: E402

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
        tx_pos=draw(finite_pairs), rx_pos=draw(finite_pairs), x_range=draw(finite_pairs),
        y_range=draw(finite_pairs), speed_range=draw(finite_pairs),
        delta_range=draw(finite_pairs),
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
