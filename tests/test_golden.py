"""Golden sweep CSVs: the text of small sweeps, pinned.

Each is the CSV of ``run_sweep`` at seed 1 over -30, -10, 10 and 30 dB, 20
trials per point and fft 64, with the default ensemble and 1e5 ECRB draws.
A change to the trial draw, the receiver or the bounds that moves any value
in its twelfth digit fails here; so does one that makes the text depend on
the worker count.
"""

import pytest

from bisac import ExperimentConfig, PeriodogramConfig, make_periodic, run_sweep

pytestmark = pytest.mark.filterwarnings("ignore::bisac.sim.IsiWarning")

GOLDEN = {
    (2, 1): (
        "snr_db,rmse_range_m,rmse_vel_ms,sqrt_crb_ran_m,ecrb_vel_ms,valid_trial_fraction\n"
        "-30,199.537678621,254.266821489,6.31752962252,4.99327116368,1\n"
        "-10,0.670250924578,0.422505369233,0.631752962252,0.499327116368,1\n"
        "10,0.0852591716976,0.041419338023,0.0631752962252,0.0499327116368,1\n"
        "30,0.00630290152887,0.00487129327408,0.00631752962252,0.00499327116368,1\n"
    ),
    (2, 5): (
        "snr_db,rmse_range_m,rmse_vel_ms,sqrt_crb_ran_m,ecrb_vel_ms,valid_trial_fraction\n"
        "-30,291.017947305,42.1977361211,14.1264256858,11.2192979063,0.9\n"
        "-10,1.38316254004,1.19331535486,1.41264256858,1.12192979063,1\n"
        "10,0.165005821783,0.0989499840559,0.141264256858,0.112192979063,1\n"
        "30,0.0165356781857,0.0109648021899,0.0141264256858,0.0112192979063,1\n"
    ),
    (10, 5): (
        "snr_db,rmse_range_m,rmse_vel_ms,sqrt_crb_ran_m,ecrb_vel_ms,valid_trial_fraction\n"
        "-30,215.036706624,43.2862685181,31.9019608104,25.0871127784,0.75\n"
        "-10,234.608734706,62.137524009,3.19019608104,2.50871127784,0.35\n"
        "10,149.855865262,1.60235127283,0.319019608104,0.250871127784,0.15\n"
        "30,149.974206399,1.47487811272,0.0319019608104,0.0250871127784,0.05\n"
    ),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("strides", sorted(GOLDEN), ids="{0[0]}x{0[1]}".format)
def test_sweep_csv_is_golden(strides, workers):
    config = ExperimentConfig(
        pattern=make_periodic(70, 50, *strides), snr_grid_db=(-30.0, -10.0, 10.0, 30.0),
        trials_per_point=20, fft=PeriodogramConfig(64, 64), seed=1, workers=workers,
    )
    assert run_sweep(config).to_csv() == GOLDEN[strides]
