"""Forward simulator for the frequency-domain sensing link.

Generates QPSK frames with an embedded pilot pattern, applies the scalar
delay-Doppler channel directly on the (subcarrier, symbol) grid and adds
complex Gaussian noise. The simulation is purely post-DFT: no time-domain
waveform, CP insertion or ICI is modeled, which is exact as long as the
delay stays within the cyclic prefix (violations are flagged, not
rejected, so aliasing behavior can be studied).

Channel phases come from the phase kernel shared with the bounds, which
reduces them modulo one cycle before conversion to radians, so
delay/Doppler aliasing identities are exact on pilot cells.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .bounds import SensingChannelParams, _phasor
from .geometry import ScenarioEnsemble, derive_ground_truth
from .ofdm import OfdmNumerology
from .pilots import PilotPattern

_SQRT_HALF = 1.0 / np.sqrt(2.0)


class IsiWarning(UserWarning):
    """Delay exceeds the cyclic prefix; inter-symbol leakage is unmodeled."""


@dataclass
class FrameGrid:
    """One N x M complex grid of a transmitted or received frame.

    Transmitted grids carry unit-modulus cells.
    """

    values: np.ndarray


def generate_frame(
    numerology: OfdmNumerology, pattern: PilotPattern, seed
) -> FrameGrid:
    """Draw a full frame of Gray-mapped QPSK symbols.

    Every cell is unit modulus; the same seed reproduces the same grid.
    """
    if pattern.n_grid != numerology.n_subcarriers or pattern.m_grid != numerology.n_symbols:
        raise ValueError("pattern grid does not match numerology")
    rng = np.random.default_rng(seed)
    idx = rng.integers(
        0, 4, size=(numerology.n_subcarriers, numerology.n_symbols)
    )
    re = (1 - 2 * (idx & 1)) * _SQRT_HALF
    im = (1 - 2 * (idx >> 1)) * _SQRT_HALF
    return FrameGrid(values=re + 1j * im)


def channel_response(
    params: SensingChannelParams, numerology: OfdmNumerology
) -> np.ndarray:
    """Noiseless channel coefficients on the full grid, shape (N, M).

    H[n, m] = gain * bounds._phasor at subcarrier n, symbol m.
    """
    n = np.arange(numerology.n_subcarriers, dtype=float)[:, None]
    m = np.arange(numerology.n_symbols, dtype=float)[None, :]
    return params.alpha * _phasor(params, numerology, n, m)


def apply_channel(
    frame: FrameGrid,
    params: SensingChannelParams,
    numerology: OfdmNumerology,
    seed,
) -> FrameGrid:
    """Pass a transmitted frame through the channel and add noise.

    Noise is i.i.d. circular complex Gaussian with total variance
    ``params.noise_var`` per cell (half per real component); zero variance
    yields the exact noiseless product. Deterministic per seed.
    """
    if frame.values.shape != (numerology.n_subcarriers, numerology.n_symbols):
        raise ValueError("frame shape does not match numerology")
    if params.tau > numerology.cp_duration_s:
        # the text leaves the delay out, so the default filter prints the
        # warning once per call site and process rather than once per trial
        warnings.warn(
            f"delay exceeds the cyclic prefix {numerology.cp_duration_s:.3g} s; "
            "ISI is not modeled",
            IsiWarning,
            stacklevel=2,
        )
    received = channel_response(params, numerology) * frame.values
    if params.noise_var > 0:
        rng = np.random.default_rng(seed)
        scale = np.sqrt(params.noise_var / 2.0)
        noise = scale * (
            rng.standard_normal(received.shape)
            + 1j * rng.standard_normal(received.shape)
        )
        received = received + noise
    return FrameGrid(values=received)


def sample_scenario(ensemble: ScenarioEnsemble, seed) -> tuple:
    """Draw one scenario from the ensemble and derive its ground truth.

    Returns:
        (BistaticScenario, SensingGroundTruth)
    """
    rng = np.random.default_rng(seed)
    scenario = ensemble.sample(rng)
    return scenario, derive_ground_truth(scenario)


def write_grid(values: np.ndarray, path) -> None:
    """Write a 2-D complex grid to the binary interchange format.

    Layout: little-endian header {rows: u32, cols: u32} followed by
    rows*cols interleaved float64 (re, im) pairs, row-major in the first
    (subcarrier) axis.
    """
    arr = np.ascontiguousarray(values, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError("grid must be 2-D")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes())


def read_grid(path) -> np.ndarray:
    """Read a grid written by write_grid."""
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) < 8:
            raise ValueError("grid file header is shorter than 8 bytes")
        rows, cols = struct.unpack("<II", header)
        data = np.frombuffer(fh.read(), dtype=np.complex128)
    if data.size != rows * cols:
        raise ValueError("grid file payload does not match header")
    return data.reshape(rows, cols).copy()
