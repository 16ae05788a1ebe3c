"""Property test: the row-pruned peak search against the full periodogram."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bisac import (  # noqa: E402
    GeometryError,
    OfdmNumerology,
    SPEED_OF_LIGHT,
    PeriodogramConfig,
    ScenarioEnsemble,
    SensingChannelParams,
    apply_channel,
    beta_from_estimates,
    estimate,
    generate_frame,
    invert_bistatic_range,
    ls_channel_estimate,
    make_periodic,
    periodogram_2d,
    refine_peak,
    sample_scenario,
)

pytestmark = pytest.mark.filterwarnings("ignore::bisac.sim.IsiWarning")

NUM = OfdmNumerology()


def reference_estimate(received, frame, pattern, num, config, baseline, theta):
    """The receiver on the full surface: periodogram_2d, np.argmax, refine_peak."""
    n_p, m_p = pattern.periodic_strides()
    surface = periodogram_2d(ls_channel_estimate(received, frame, pattern), config)
    b_r, b_v = (int(b) for b in np.unravel_index(np.argmax(surface), surface.shape))
    off_r, off_v = 0.0, 0.0
    if config.interpolate:
        off_r, off_v = refine_peak(surface, (b_r, b_v)).offsets
    tau_hat = ((b_r + off_r) % config.fft_n) / (n_p * num.subcarrier_spacing_hz * config.fft_n)
    signed_bin = b_v - config.fft_m if b_v > config.fft_m // 2 else b_v
    f_d_hat = (signed_bin + off_v) / (m_p * num.symbol_duration_s * config.fft_m)
    d_bis_hat = SPEED_OF_LIGHT * tau_hat
    d_rx_hat = invert_bistatic_range(d_bis_hat, baseline, theta)
    beta_hat, clamped = beta_from_estimates(d_bis_hat, baseline, theta)
    v_bis_hat = f_d_hat * num.wavelength / (2.0 * np.cos(beta_hat / 2.0))
    return dict(
        tau_hat=float(tau_hat), f_d_hat=float(f_d_hat), d_bis_hat=float(d_bis_hat),
        v_bis_hat=float(v_bis_hat), d_rx_hat=float(d_rx_hat), beta_hat=float(beta_hat),
        beta_clamped=clamped, peak_power=float(surface[b_r, b_v]),
        peak_bins=(b_r, b_v), fractional_offsets=(float(off_r), float(off_v)),
    )


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
