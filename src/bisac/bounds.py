"""Estimation-theoretic bounds for pilot-based delay/Doppler sensing.

Builds the 4x4 Fisher information of the unknown vector
(gain_re, gain_im, doppler, delay) for unit-modulus pilot symbols, reduces
it to the 2x2 equivalent information on (doppler, delay) by eliminating the
complex gain, and converts the diagonal into range/velocity variance
bounds. Closed-form specializations are provided for periodic patterns,
plus the ensemble-averaged velocity bound over random target geometry and
the pilot-overhead rate ceiling of the communication link.

Unit conventions: noise variance is the total per-cell complex variance,
SNR = |gain|^2 / noise_var, dB at API surfaces and linear internally.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import (
    DEGENERATE_EPS,
    SPEED_OF_LIGHT,
    ScenarioEnsemble,
    _checked,
)
from .ofdm import OfdmNumerology
from .pilots import PilotPattern, _index_stats, pattern_stats


class SingularPatternError(ValueError):
    """Raised when a pattern cannot support range/velocity estimation."""


_CHANNEL_FIELDS = ("alpha_re", "alpha_im", "tau", "f_d", "noise_var")


@dataclass(frozen=True)
class SensingChannelParams:
    """Scalar sensing channel: complex gain, delay, Doppler, noise level.

    Attributes:
        alpha_re, alpha_im: real/imaginary parts of the channel gain.
        tau: propagation delay [s].
        f_d: Doppler shift [Hz].
        noise_var: total complex noise variance per received cell
            (zero allowed for noiseless simulation; bounds require > 0).

    Each field is a finite number, stored as a plain float.
    """

    alpha_re: float = 1.0
    alpha_im: float = 0.0
    tau: float = 0.0
    f_d: float = 0.0
    noise_var: float = 1.0

    def __post_init__(self):
        # plain finite floats are kept as given; anything else is checked
        for name in _CHANNEL_FIELDS:
            value = getattr(self, name)
            if type(value) is not float or not math.isfinite(value):
                object.__setattr__(self, name, _checked(value, float, name))
        if self.noise_var < 0:
            raise ValueError("noise_var must be nonnegative")

    @property
    def alpha(self) -> complex:
        return complex(self.alpha_re, self.alpha_im)

    @property
    def gain_sq(self) -> float:
        """|alpha|^2, infinite without an error or warning when it overflows."""
        re, im = self.alpha_re, self.alpha_im
        return re * re + im * im

    @classmethod
    def from_snr_db(
        cls, snr_db: float, tau: float = 0.0, f_d: float = 0.0
    ) -> "SensingChannelParams":
        """Unit gain with noise variance set from the SNR in dB.

        Raises ValueError as ``_snr_powers`` does.
        """
        return cls(
            alpha_re=1.0,
            alpha_im=0.0,
            tau=tau,
            f_d=f_d,
            noise_var=_snr_powers(snr_db, "snr_db")[1],
        )


# the types ``_snr_powers`` reads as a number of dB, bools aside
_NUMBERS = (int, float, np.integer, np.floating)


def _snr_powers(snr_db: float, name: str) -> tuple:
    """(10^(snr_db/10), 10^(-snr_db/10)): the linear SNR and its reciprocal,
    as Python floats computed from ``float(snr_db)``.

    An infinite ``snr_db`` gives the limits inf and 0. Raises ValueError
    naming ``name`` unless ``snr_db`` is a number (not a bool), or when a
    finite one makes either power not a finite, nonzero float.
    """
    value = snr_db
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, _NUMBERS):
            raise ValueError(f"{name} must be a number in dB, got {snr_db!r}")
        value = float(value)
    try:
        powers = (10.0 ** (value / 10.0), 10.0 ** (-value / 10.0))
    except OverflowError:
        powers = (math.inf, 0.0)
    if math.isfinite(value) and not (0.0 < powers[0] < math.inf
                                     and 0.0 < powers[1] < math.inf):
        raise ValueError(f"{name} = {snr_db!r} dB is out of range: its linear value or "
                         "reciprocal is not a finite, nonzero float")
    return powers


@dataclass(frozen=True)
class FisherBlocks:
    """2x2 blocks of the 4x4 information matrix and the full matrix.

    Parameter order is (gain_re, gain_im, doppler, delay). The blocks a,
    b, c, d exclude the common 2/noise_var prefactor; the assembled
    matrix j includes it. c is always b transposed.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    j: np.ndarray


def fisher_matrix(
    params: SensingChannelParams,
    pattern: PilotPattern,
    numerology: OfdmNumerology,
) -> FisherBlocks:
    """Fisher information of (gain_re, gain_im, doppler, delay).

    Assumes unit-modulus pilot symbols, under which the result depends
    only on the gain, the noise variance and the pilot index sums; the
    actual symbol values and the true delay/Doppler cancel.
    """
    if params.noise_var <= 0:
        raise ValueError("fisher information requires positive noise variance")
    st = pattern_stats(pattern)
    ts = numerology.symbol_duration_s
    df = numerology.subcarrier_spacing_hz
    a_re, a_im = params.alpha_re, params.alpha_im
    two_pi = 2.0 * math.pi

    a = st.size * np.eye(2)
    b = two_pi * np.array(
        [
            [-a_im * ts * st.sum_m, a_im * df * st.sum_n],
            [a_re * ts * st.sum_m, -a_re * df * st.sum_n],
        ]
    )
    c = b.T.copy()
    d = (
        4.0
        * math.pi**2
        * params.gain_sq
        * np.array(
            [
                [ts**2 * st.sum_m2, -ts * df * st.sum_nm],
                [-ts * df * st.sum_nm, df**2 * st.sum_n2],
            ]
        )
    )
    j = (2.0 / params.noise_var) * np.block([[a, b], [c, d]])
    return FisherBlocks(a=a, b=b, c=c, d=d, j=j)


def efim(
    params: SensingChannelParams,
    pattern: PilotPattern,
    numerology: OfdmNumerology,
) -> np.ndarray:
    """Equivalent 2x2 information on (doppler, delay) after gain removal.

    This is the Schur complement of the gain block, which collapses to
    the centered index moments:

        (8 pi^2 |gain|^2 / noise_var) *
            [[T_s^2 q_m2,      -T_s df q_nm],
             [-T_s df q_nm,     df^2 q_n2 ]]

    Raises:
        SingularPatternError: if the pattern is collinear (degenerate in
            n or m), making the matrix singular.
    """
    noise_var = params.noise_var
    if noise_var <= 0:
        raise ValueError("information matrix requires positive noise variance")
    *_, q_n2, q_m2, q_nm = _index_stats(pattern.cells)
    if q_n2 * q_m2 - q_nm**2 <= 0:
        raise SingularPatternError(
            "pilot cells are collinear; delay/Doppler information is singular"
        )
    ts = numerology.symbol_duration_s
    df = numerology.subcarrier_spacing_hz
    scale = 8.0 * math.pi**2 * params.gain_sq / noise_var
    return scale * np.array(
        [
            [ts**2 * q_m2, -ts * df * q_nm],
            [-ts * df * q_nm, df**2 * q_n2],
        ]
    )


@dataclass(frozen=True)
class CrbReport:
    """Range/velocity estimation bounds for one configuration.

    Attributes:
        crb_ran_m2: variance bound on bistatic range [m^2].
        crb_vel_ms2: variance bound on bistatic velocity [(m/s)^2].
        rmse_bound_ran_m: sqrt of crb_ran_m2 [m].
        rmse_bound_vel_ms: sqrt of crb_vel_ms2 [m/s].
    """

    crb_ran_m2: float
    crb_vel_ms2: float
    rmse_bound_ran_m: float
    rmse_bound_vel_ms: float

    def to_json_dict(self) -> dict:
        return {
            "crb_ran_m2": self.crb_ran_m2,
            "crb_vel_ms2": self.crb_vel_ms2,
            "sqrt_crb_ran_m": self.rmse_bound_ran_m,
            "sqrt_crb_vel_ms": self.rmse_bound_vel_ms,
        }


def crb(
    params: SensingChannelParams,
    pattern: PilotPattern,
    numerology: OfdmNumerology,
    beta: float = 0.0,
) -> CrbReport:
    """Range/velocity variance bounds for an arbitrary pilot pattern.

    The diagonal of the inverse of the equivalent information (see
    ``efim``), converted to range and velocity units. ``beta`` is the
    true bistatic angle; it only rescales the velocity bound through
    1/cos^2(beta/2), in [0, pi). Raises ValueError for another beta, or if
    either bound is not a finite, positive float (an SNR so low or so high
    that it overflows or underflows).
    """
    if not 0.0 <= beta < math.pi:
        raise ValueError(f"beta must lie in [0, pi), got {beta!r}")
    noise_var, gain_sq = params.noise_var, params.gain_sq
    if noise_var <= 0 or gain_sq <= 0:
        raise ValueError("bounds require positive noise variance and gain")
    *_, q_n2, q_m2, q_nm = _index_stats(pattern.cells)
    q_det = q_n2 * q_m2 - q_nm**2
    if q_det <= 0:
        raise SingularPatternError(
            "pilot cells are collinear; range/velocity bounds are infinite"
        )
    df = numerology.subcarrier_spacing_hz
    ts = numerology.symbol_duration_s
    lam = numerology.wavelength
    noise_over_gain = noise_var / gain_sq
    crb_ran = (
        q_m2 / q_det * noise_over_gain * SPEED_OF_LIGHT**2 / (8.0 * math.pi**2 * df**2)
    )
    crb_vel = (
        q_n2
        / q_det
        * noise_over_gain
        * lam**2
        / (32.0 * math.pi**2 * ts**2 * math.cos(beta / 2.0) ** 2)
    )
    if not (0.0 < crb_ran < math.inf and 0.0 < crb_vel < math.inf):
        raise ValueError(f"bounds crb_ran_m2 = {crb_ran!r}, crb_vel_ms2 = {crb_vel!r} are "
                         "not finite, positive floats at this SNR")
    return CrbReport(
        crb_ran_m2=crb_ran,
        crb_vel_ms2=crb_vel,
        rmse_bound_ran_m=math.sqrt(crb_ran),
        rmse_bound_vel_ms=math.sqrt(crb_vel),
    )


def crb_periodic_closed_form(
    params: SensingChannelParams,
    numerology: OfdmNumerology,
    n_p: int,
    m_p: int,
    beta: float = 0.0,
) -> CrbReport:
    """Closed-form bounds for a periodic pattern with strides (n_p, m_p).

    Range bound:    12 / (K (K+2) P n_p^2) * noise c^2 / (8 pi^2 |g|^2 df^2)
    Velocity bound: 12 / (L (L+2) P m_p^2) * noise lam^2
                        / (32 pi^2 |g|^2 T_s^2 cos^2(beta/2))

    Raises:
        SingularPatternError: if K = 0 (single pilot column, range
            unobservable) or L = 0 (single pilot row, velocity
            unobservable).
    """
    if params.noise_var <= 0 or params.gain_sq <= 0:
        raise ValueError("bounds require positive noise variance and gain")
    if not (1 <= n_p <= numerology.n_subcarriers):
        raise ValueError("n_p out of bounds")
    if not (1 <= m_p <= numerology.n_symbols):
        raise ValueError("m_p out of bounds")
    big_k = (numerology.n_subcarriers - 1) // n_p
    big_l = (numerology.n_symbols - 1) // m_p
    if big_k == 0:
        raise SingularPatternError("single pilot column: range unobservable")
    if big_l == 0:
        raise SingularPatternError("single pilot row: velocity unobservable")
    size = (big_k + 1) * (big_l + 1)
    ts = numerology.symbol_duration_s
    df = numerology.subcarrier_spacing_hz
    lam = numerology.wavelength
    noise_over_gain = params.noise_var / params.gain_sq
    crb_ran = (
        12.0
        / (big_k * (big_k + 2) * size * n_p**2)
        * noise_over_gain
        * SPEED_OF_LIGHT**2
        / (8.0 * math.pi**2 * df**2)
    )
    crb_vel = (
        12.0
        / (big_l * (big_l + 2) * size * m_p**2)
        * noise_over_gain
        * lam**2
        / (32.0 * math.pi**2 * ts**2 * math.cos(beta / 2.0) ** 2)
    )
    return CrbReport(
        crb_ran_m2=crb_ran,
        crb_vel_ms2=crb_vel,
        rmse_bound_ran_m=math.sqrt(crb_ran),
        rmse_bound_vel_ms=math.sqrt(crb_vel),
    )


@dataclass(frozen=True)
class EcrbVelocity:
    """Ensemble-averaged root velocity bound with draw accounting."""

    value_ms: float
    draws: int
    skipped: int


def ecrb_vel(
    ensemble: ScenarioEnsemble,
    params: SensingChannelParams,
    pattern: PilotPattern,
    numerology: OfdmNumerology,
    draws: int = 100_000,
    seed=0,
) -> EcrbVelocity:
    """Expected root velocity bound over random target positions.

    Averages sqrt(crb_vel) over bistatic angles induced by the target
    distribution (RMSE-comparable convention), as the sweep and table bound
    columns do (``_ecrb_means``). Deterministic for a given seed, which is
    anything ``np.random.default_rng`` takes whose bit generator has
    ``advance`` (PCG64, its default). Degenerate draws (target on a
    terminal) are skipped and counted.
    Raises SingularPatternError, as ``_check_off_baseline`` does, for a
    target box that meets the baseline segment.
    """
    base = crb(params, pattern, numerology, beta=0.0)
    (value,), skipped = _ecrb_means(ensemble, [base.crb_vel_ms2], draws, seed)
    return EcrbVelocity(value_ms=value, draws=draws, skipped=skipped)


def _check_off_baseline(ensemble: ScenarioEnsemble) -> None:
    """Raise SingularPatternError if the closed target box meets the baseline
    segment at a point other than a terminal.

    There cos(beta/2) = 0, and it falls linearly with the distance to the
    segment, so the ensemble mean of 1/cos(beta/2) diverges and a finite draw
    of it is a seed-dependent number. The segment is clipped to the box in
    exact rational arithmetic.
    """
    tx, rx = (tuple(map(Fraction, pos)) for pos in (ensemble.tx_pos, ensemble.rx_pos))
    steps = [b - a for a, b in zip(tx, rx)]
    if not any(steps):
        return
    # the parameters t in [0, 1] of the segment's points inside the box
    lo, hi = Fraction(0), Fraction(1)
    for a, d, box in zip(tx, steps, (ensemble.x_range, ensemble.y_range)):
        box = sorted(map(Fraction, box))
        if d:
            t0, t1 = sorted((e - a) / d for e in box)
            lo, hi = max(lo, t0), min(hi, t1)
        elif not box[0] <= a <= box[1]:
            return
    if lo < hi or 0 < lo == hi < 1:
        raise SingularPatternError(
            "the target box meets the baseline segment between the terminals, where "
            "cos(beta/2) = 0: the ensemble velocity bound diverges")


# draws per slice of the ECRB geometry: a slice's temporaries stay in cache
_ECRB_SLICE = 8192


def _ecrb_geometry(ensemble: ScenarioEnsemble, draws: int, seed):
    """Yields cos(beta/2) of each slice of ``_ECRB_SLICE`` seeded target draws
    and the mask of its nondegenerate draws; raises SingularPatternError after
    the last slice if no draw was.

    Independent of pattern and noise level: one draw serves every bound.
    The law of cosines with the half-angle identity gives, with the legs
    d_tx, d_rx, the baseline D and s = d_tx + d_rx,

        cos(beta/2) = sqrt((s - D)(s + D) / (4 d_tx d_rx)).

    The targets are bit for bit ``rng.uniform(*x_range, draws),
    rng.uniform(*y_range, draws)`` of ``rng = default_rng(seed)``, scaled
    in place (``ScenarioEnsemble._scale``): each slice's x from ``rng``,
    its y from a copy of it advanced past the x draws, so memory does not
    grow with ``draws``.
    """
    draws = _checked(draws, int, "draws", 1)
    rng = np.random.default_rng(seed)
    y_rng = copy.deepcopy(rng)
    y_rng.bit_generator.advance(draws)
    (tx_x, tx_y), (rx_x, rx_y) = ensemble.tx_pos, ensemble.rx_pos
    baseline, kept = ensemble.baseline, 0
    for lo in range(0, draws, _ECRB_SLICE):
        size = min(_ECRB_SLICE, draws - lo)
        x, y = rng.random(size), y_rng.random(size)
        ensemble._scale(x, y)
        # a leg of zero length divides by zero, and on the baseline segment
        # rounding can make s - D negative; the mask drops those draws
        with np.errstate(divide="ignore", invalid="ignore"):
            d_tx = np.sqrt((x - tx_x) ** 2 + (y - tx_y) ** 2)
            d_rx = np.sqrt((x - rx_x) ** 2 + (y - rx_y) ** 2)
            s = d_tx + d_rx
            np.sqrt((s - baseline) * (s + baseline) / (4.0 * d_tx * d_rx), out=x)
        ok = (d_tx > DEGENERATE_EPS) & (d_rx > DEGENERATE_EPS) & (x > 1e-12)
        kept += int(np.count_nonzero(ok))
        yield x, ok
    if not kept:
        raise SingularPatternError("all ensemble draws were degenerate")


def _ecrb_means(ensemble: ScenarioEnsemble, crb_vels, draws: int, seed) -> tuple:
    """(means, skipped): per crb_vel [(m/s)^2] of ``crb_vels``, the mean of
    sqrt(crb_vel / cos^2(beta/2)) [m/s] over one seeded geometry draw,
    sqrt(crb_vel) times the one mean of 1 / cos(beta/2), summed a slice at
    a time; and the draw's skip count. Raises as ``_check_off_baseline``
    does, then as ``_ecrb_geometry`` does."""
    _check_off_baseline(ensemble)
    total, kept = 0.0, 0
    for cos_half, ok in _ecrb_geometry(ensemble, draws, seed):
        terms = 1.0 / cos_half[ok]
        total, kept = total + float(terms.sum()), kept + terms.size
    return [math.sqrt(v) * (total / kept) for v in crb_vels], draws - kept


def rate_upper_bound(
    numerology: OfdmNumerology, rho: float, snr_comm_db: float
) -> float:
    """Ceiling on the communication rate left by the pilot overhead [bit/s].

    N*(1-rho)/T_s * log2(1 + snr), with the communication SNR given in dB.
    Monotone decreasing in the overhead rho; zero at rho = 1. Raises
    ValueError as ``_snr_powers`` does.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    snr_lin = _snr_powers(snr_comm_db, "snr_comm_db")[0]
    return (
        numerology.n_subcarriers
        * (1.0 - rho)
        / numerology.symbol_duration_s
        * math.log2(1.0 + snr_lin)
    )


def _phasor(tau, f_d, numerology: OfdmNumerology, n: np.ndarray, m: np.ndarray) -> np.ndarray:
    """exp(j 2 pi (f_d m T_s - tau n df)) at subcarrier n, symbol m.

    ``tau`` and ``f_d`` are scalars or arrays that broadcast against ``n``
    and ``m``; each element is computed as for scalars. The phase is the
    product exp(j 2 pi frac(f_d T_s m)) exp(-j 2 pi frac(tau df n)), one
    factor per axis: each is accumulated in cycles and reduced modulo one
    (``x - floor(x)``, bit for bit ``np.mod(x, 1.0)``) before conversion to
    radians, so its accuracy does not depend on the index magnitude and
    delay/Doppler aliasing identities hold exactly. A grid of rows n and
    columns m takes one exponential per row and per column.
    """
    doppler = f_d * numerology.symbol_duration_s * m
    delay = tau * numerology.subcarrier_spacing_hz * n
    return (np.exp(2j * np.pi * (doppler - np.floor(doppler)))
            * np.exp(-2j * np.pi * (delay - np.floor(delay))))


def mean_response(
    params: SensingChannelParams,
    pattern: PilotPattern,
    numerology: OfdmNumerology,
    symbols: np.ndarray | None = None,
) -> np.ndarray:
    """Noiseless received values on the pilot cells, shape (P,).

    ``symbols`` are the pilot symbol values in pattern cell order
    (unit modulus expected); defaults to all ones.
    """
    jac = mean_response_jacobian(params, pattern, numerology, symbols)
    return params.alpha * jac[:, 0]


def mean_response_jacobian(
    params: SensingChannelParams,
    pattern: PilotPattern,
    numerology: OfdmNumerology,
    symbols: np.ndarray | None = None,
) -> np.ndarray:
    """Analytic derivatives of the pilot-cell response, shape (P, 4).

    Columns follow the parameter order (gain_re, gain_im, doppler, delay):

        d/d gain_re = e^{j phase} X
        d/d gain_im = j e^{j phase} X
        d/d doppler = j gain 2 pi m T_s e^{j phase} X
        d/d delay   = -j gain 2 pi n df e^{j phase} X
    """
    n = pattern.cells[:, 0].astype(float)
    m = pattern.cells[:, 1].astype(float)
    ts = numerology.symbol_duration_s
    df = numerology.subcarrier_spacing_hz
    carrier = _phasor(params.tau, params.f_d, numerology, n, m)
    if symbols is not None:
        carrier = carrier * symbols
    jac = np.empty((pattern.size, 4), dtype=complex)
    jac[:, 0] = carrier
    jac[:, 1] = 1j * carrier
    jac[:, 2] = 1j * params.alpha * 2.0 * math.pi * m * ts * carrier
    jac[:, 3] = -1j * params.alpha * 2.0 * math.pi * n * df * carrier
    return jac
