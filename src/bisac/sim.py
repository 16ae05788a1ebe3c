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

Trials are independent: each draws from its own seed. ``simulate_pilots``
runs a block of them on the pilot cells alone and draws only their symbols
and noise; the full-grid functions draw every cell of the frame.
"""

from __future__ import annotations

import struct
import warnings

import numpy as np

from .bounds import SensingChannelParams, _phasor
from .geometry import ScenarioEnsemble, _truth_columns, derive_ground_truth
from .ofdm import OfdmNumerology
from .pilots import PilotPattern

# Bytes of complex128 rows that ``write_grid`` converts and writes at a time
_WRITE_BYTES = 2**20

# Gray-mapped QPSK symbols of the integers 0-3, indexed by them
_QPSK = 1.0 / np.sqrt(2.0) * np.array([1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j])


class IsiWarning(UserWarning):
    """Delay exceeds the cyclic prefix; inter-symbol leakage is unmodeled."""


def _warn_isi(tau: float, numerology: OfdmNumerology) -> None:
    """Warn IsiWarning for the caller's caller if ``tau`` exceeds the cyclic prefix."""
    if tau > numerology.cp_duration_s:
        # the text leaves the delay out, so the default filter prints the
        # warning once per call site and process rather than once per trial
        warnings.warn(f"delay exceeds the cyclic prefix {numerology.cp_duration_s:.3g} s; "
                      "ISI is not modeled", IsiWarning, stacklevel=3)


def _qpsk_indices(raw: np.ndarray, size: int) -> np.ndarray:
    """The indices of ``integers(0, 4, size)`` from each row of ``raw``, the
    ``ceil(size / 2)`` 64-bit words that ``bit_generator.random_raw`` draws
    instead: the top two bits of each 32-bit half, the low half first. A
    generator's bounded integers take 32-bit draws, each half of a 64-bit
    word, and Lemire's method over a range of 4 keeps the top two bits and
    rejects nothing. After either draw a generator's 64-bit draws (its normals)
    are the same; an odd ``size`` leaves ``integers``' unused high half
    buffered."""
    return raw.astype("<u8", copy=False).view("<u4")[:, :size] >> 30


def generate_frame(numerology: OfdmNumerology, pattern: PilotPattern, seed) -> np.ndarray:
    """Draw a full N x M complex frame of Gray-mapped QPSK symbols.

    Every cell is unit modulus; the same seed reproduces the same grid.
    """
    if pattern.n_grid != numerology.n_subcarriers or pattern.m_grid != numerology.n_symbols:
        raise ValueError("pattern grid does not match numerology")
    rng = np.random.default_rng(seed)
    return _QPSK[rng.integers(0, 4, size=(numerology.n_subcarriers, numerology.n_symbols))]


def channel_response(
    params: SensingChannelParams, numerology: OfdmNumerology
) -> np.ndarray:
    """Noiseless channel coefficients on the full grid, shape (N, M).

    H[n, m] = gain * bounds._phasor at subcarrier n, symbol m: what a unit
    symbol receives without noise.
    """
    return _receive(1.0, params, params.tau, params.f_d, numerology, (1, 1), None)


def _receive(symbols, params: SensingChannelParams, tau, f_d, numerology: OfdmNumerology,
             strides: tuple, normals) -> np.ndarray:
    """``symbols`` received on every ``strides``-th subcarrier and symbol, with the
    params' gain, delay ``tau`` and Doppler ``f_d`` (broadcast as in ``_phasor``)
    and the noise that the standard normal pair ``normals`` makes (None: none).

    The gain, the symbols and the scaled noise go into the phase array in
    place, in the order of ``alpha * phasor * symbols + scale * (re + 1j im)``
    and bit for bit its value; ``normals`` are scaled in place."""
    n = np.arange(numerology.n_subcarriers, dtype=float)[::strides[0], None]
    m = np.arange(numerology.n_symbols, dtype=float)[None, ::strides[1]]
    received = _phasor(tau, f_d, numerology, n, m)
    np.multiply(params.alpha, received, out=received)
    received *= symbols
    if normals is not None:
        scale = np.sqrt(params.noise_var / 2.0)
        for part, noise in zip((received.real, received.imag), normals):
            noise *= scale
            part += noise
    return received


def apply_channel(
    frame: np.ndarray,
    params: SensingChannelParams,
    numerology: OfdmNumerology,
    seed,
) -> np.ndarray:
    """Pass a transmitted N x M frame through the channel and add noise.

    Noise is i.i.d. circular complex Gaussian with total variance
    ``params.noise_var`` per cell (half per real component); zero variance
    yields the exact noiseless product. Deterministic per seed.
    """
    if frame.shape != (numerology.n_subcarriers, numerology.n_symbols):
        raise ValueError("frame shape does not match numerology")
    _warn_isi(params.tau, numerology)
    normals = None
    if params.noise_var > 0:
        rng = np.random.default_rng(seed)
        normals = [rng.standard_normal(frame.shape) for _ in range(2)]
    return _receive(frame, params, params.tau, params.f_d, numerology, (1, 1), normals)


def sample_scenario(ensemble: ScenarioEnsemble, seed) -> tuple:
    """Draw one scenario from the ensemble and derive its ground truth.

    Returns:
        (BistaticScenario, SensingGroundTruth)
    """
    rng = np.random.default_rng(seed)
    scenario = ensemble.sample(rng)
    return scenario, derive_ground_truth(scenario)


def simulate_pilots(ensemble: ScenarioEnsemble, numerology: OfdmNumerology,
                    pattern: PilotPattern, snr_db: float, seeds) -> tuple:
    """One trial of the sensing link at ``snr_db`` per seed, on the pilot cells
    of a periodic pattern alone.

    Each trial draws from ``default_rng(seed)`` (a Generator is used as is),
    in the order of ``sample_scenario``, ``generate_frame`` and
    ``apply_channel``: the scenario, then QPSK symbols and the two standard
    normal noise components, each of shape (K+1, L+1), the pilot cells only.
    The QPSK indices come from ``ceil(S / 2)`` raw words for S pilots
    (``_qpsk_indices``), and one ``standard_normal`` call draws both noise
    components, bit for bit the values of the two calls.
    Returns the truths (``geometry._truth_columns``' columns, degenerate
    mask and legs d_tx, d_rx), pilot symbols and received pilot values, shape
    (trials, K+1, L+1).
    A degenerate draw's trial receives with zero delay and Doppler.
    """
    params = SensingChannelParams.from_snr_db(snr_db)
    n_p, m_p = pattern.periodic_strides()
    shape = tuple(c + 1 for c in pattern.periodic_counts())
    size = shape[0] * shape[1]
    uniforms, raw = np.empty((len(seeds), 4)), np.empty((len(seeds), -(-size // 2)), np.uint64)
    # each trial's (real, imaginary) standard normal pair, drawn in place by one call
    normals = np.empty((len(seeds), 2, *shape)) if params.noise_var > 0 else None
    for trial, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        rng.random(out=uniforms[trial])
        raw[trial] = rng.bit_generator.random_raw(raw.shape[1])
        if normals is not None:
            rng.standard_normal(out=normals[trial])
    ensemble._scale(*uniforms.T)
    columns, degenerate, legs = _truth_columns(ensemble, uniforms)
    tau, f_d = columns[2:4, :, None, None]
    _warn_isi(tau.max(), numerology)
    symbols = _QPSK[_qpsk_indices(raw, size).reshape(len(seeds), *shape)]
    del raw
    if normals is not None:
        normals = normals.swapaxes(0, 1)
    received = _receive(symbols, params, tau, f_d, numerology, (n_p, m_p), normals)
    return (columns, degenerate, legs[:2]), symbols, received


def write_grid(values: np.ndarray, path) -> None:
    """Write a 2-D grid, complex or real, to the binary interchange format.

    Layout: little-endian header {rows: u32, cols: u32} followed by
    rows*cols interleaved float64 (re, im) pairs, row-major in the first
    (subcarrier) axis. Rows are converted and written ``_WRITE_BYTES`` of
    them at a time, so a real grid is never held as complex in full.
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError("grid must be 2-D")
    rows, cols = values.shape
    step = max(1, _WRITE_BYTES // (16 * max(cols, 1)))
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", rows, cols))
        for lo in range(0, rows, step):
            fh.write(np.ascontiguousarray(values[lo:lo + step], dtype="<c16"))


def read_grid(path) -> np.ndarray:
    """Read a grid written by write_grid."""
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) < 8:
            raise ValueError("grid file header is shorter than 8 bytes")
        rows, cols = struct.unpack("<II", header)
        payload = fh.read()
    if len(payload) != rows * cols * 16:
        raise ValueError("grid file payload does not match header")
    return np.frombuffer(payload, dtype=np.complex128).reshape(rows, cols).copy()
