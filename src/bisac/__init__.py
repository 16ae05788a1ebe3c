"""Numerical laboratory for a bistatic OFDM joint sensing/communication link.

Computes exact range/velocity estimation bounds as a function of the
pilot pattern and simulates the full transmit, channel, least-squares
estimate, delay-Doppler periodogram receiver chain to verify that
measured RMSE tracks those bounds.
"""

__version__ = "0.1.0"

from .bounds import (
    CrbReport,
    EcrbVelocity,
    FisherBlocks,
    SensingChannelParams,
    SingularPatternError,
    crb,
    crb_periodic_closed_form,
    ecrb_vel,
    efim,
    fisher_matrix,
    mean_response,
    mean_response_jacobian,
    rate_upper_bound,
)
from .estimator import (
    EstimationResult,
    PeakRefinement,
    PeriodogramConfig,
    estimate,
    ls_channel_estimate,
    periodogram_2d,
    refine_peak,
)
from .geometry import (
    DEGENERATE_EPS,
    SPEED_OF_LIGHT,
    BistaticScenario,
    GeometryError,
    ScenarioEnsemble,
    SensingGroundTruth,
    beta_from_estimates,
    bistatic_angle,
    derive_ground_truth,
    invert_bistatic_range,
)
from .harness import (
    ExperimentConfig,
    RateRow,
    SweepResult,
    SweepRow,
    TableRow,
    run_rate_table,
    run_sweep,
    run_table1,
)
from .ofdm import OfdmNumerology
from .pilots import (
    PatternError,
    PatternStats,
    PilotPattern,
    make_periodic,
    max_unambiguous,
    pattern_stats,
    periodic_stats_closed_form,
)
from .sim import (
    IsiWarning,
    apply_channel,
    channel_response,
    generate_frame,
    read_grid,
    sample_scenario,
    write_grid,
)

__all__ = [
    "__version__",
    "BistaticScenario",
    "CrbReport",
    "DEGENERATE_EPS",
    "EcrbVelocity",
    "EstimationResult",
    "ExperimentConfig",
    "FisherBlocks",
    "GeometryError",
    "IsiWarning",
    "OfdmNumerology",
    "PatternError",
    "PatternStats",
    "PeakRefinement",
    "PeriodogramConfig",
    "PilotPattern",
    "RateRow",
    "SPEED_OF_LIGHT",
    "ScenarioEnsemble",
    "SensingChannelParams",
    "SensingGroundTruth",
    "SingularPatternError",
    "SweepResult",
    "SweepRow",
    "TableRow",
    "apply_channel",
    "beta_from_estimates",
    "bistatic_angle",
    "channel_response",
    "crb",
    "crb_periodic_closed_form",
    "derive_ground_truth",
    "ecrb_vel",
    "efim",
    "estimate",
    "fisher_matrix",
    "generate_frame",
    "invert_bistatic_range",
    "ls_channel_estimate",
    "make_periodic",
    "max_unambiguous",
    "mean_response",
    "mean_response_jacobian",
    "pattern_stats",
    "periodic_stats_closed_form",
    "periodogram_2d",
    "rate_upper_bound",
    "read_grid",
    "refine_peak",
    "run_rate_table",
    "run_sweep",
    "run_table1",
    "sample_scenario",
    "write_grid",
]
