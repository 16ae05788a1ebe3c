"""Property test: the shared bound-row path against per-row ecrb_vel calls."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bisac import (  # noqa: E402
    ExperimentConfig,
    PeriodogramConfig,
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
