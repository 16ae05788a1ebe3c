r"""Bistatic sensing geometry.

Deterministic conversions between a Cartesian scenario description
(transmitter, receiver, target, velocity) and the sensing parameters a
delay/Doppler receiver works with: bistatic range, bistatic velocity,
propagation delay, Doppler shift and the bistatic angle.

All geometry is planar (2-D). Angle conventions::

                 target
                    o
                   / \
            d_tx  /   \  d_rx
                 /beta \
                /       \
        tx o---+---------o rx
             D       theta = angle at rx between the baseline
                     direction (tx - rx) and the target direction
                     (target - rx), in [0, pi]

    beta  : angle at the target subtended by transmitter and receiver.
    theta : angle of arrival at the receiver, measured from the baseline.
            With this convention the bistatic-range inversion
            d_rx = (d_bis^2 - D^2) / (2 (d_bis - D cos(theta)))
            is an exact algebraic identity on round trips.
    delta : angle between the target velocity vector and the bisector of
            beta; only cos(delta) enters (bistatic velocity v*cos(delta)).

Speed of light is fixed to 3e8 m/s throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT = 3.0e8  # m/s

# Pairwise distances below this are treated as degenerate geometry.
DEGENERATE_EPS = 1e-6  # m


class GeometryError(ValueError):
    """Raised for degenerate or out-of-domain bistatic geometry."""


# kind: (what the error says, the types accepted)
_KINDS = {
    int: ("an integer", (int, np.integer)),
    float: ("a finite number", (int, float, np.integer, np.floating)),
    bool: ("true or false", (bool, np.bool_)),
}


def _checked(value, kind: type, name: str, low=None, *, above=False, error: type = ValueError):
    """``value`` as a plain ``kind`` (int, float or bool), else ``error`` naming ``name``.

    Python and numpy scalars are accepted; a float may be given as an
    integer, and a bool is never a number. A number must also be >= ``low``,
    or > ``low`` if ``above``, where ``low`` is given.
    """
    what, types = _KINDS[kind]
    ok = (isinstance(value, types) and (kind is bool or not isinstance(value, bool))
          and (kind is not float or math.isfinite(value))
          and (low is None or (value > low if above else value >= low)))
    if not ok:
        bound = "" if low is None else f" {'>' if above else '>='} {low}"
        raise error(f"{name} must be {what}{bound}, got {value!r}")
    return kind(value)


def _checked_tuple(value, kind: type, name: str, length: int | None = None,
                   error: type = ValueError) -> tuple:
    """A nonempty list, tuple or 1-D array of ``kind`` values, as a tuple.

    Holds ``length`` values if given; each is checked as ``_checked`` does.
    """
    if isinstance(value, np.ndarray) and value.ndim == 1:
        value = list(value)
    if not isinstance(value, (list, tuple)) or not value or length not in (None, len(value)):
        count = length or "one or more"
        raise error(f"{name} must be a list of {count} values, got {value!r}")
    return tuple(_checked(v, kind, f"{name}[{i}]", error=error) for i, v in enumerate(value))


@dataclass
class BistaticScenario:
    """A single planar bistatic scene.

    Attributes:
        tx_pos: transmitter position [m], length-2.
        rx_pos: receiver position [m], length-2.
        target_pos: target position [m], length-2.
        speed: signed magnitude of target velocity [m/s].
        delta: angle between velocity vector and the bistatic bisector [rad].
        carrier_hz: carrier frequency [Hz].
    """

    tx_pos: np.ndarray
    rx_pos: np.ndarray
    target_pos: np.ndarray
    speed: float = 0.0
    delta: float = 0.0
    carrier_hz: float = 30e9

    def __post_init__(self):
        for name in ("tx_pos", "rx_pos", "target_pos"):
            setattr(self, name, np.array(_checked_tuple(getattr(self, name), float, name, 2)))
        self.speed = _checked(self.speed, float, "speed")
        self.delta = _checked(self.delta, float, "delta")
        self.carrier_hz = _checked(self.carrier_hz, float, "carrier_hz", 0, above=True)

    @property
    def d_tx(self) -> float:
        """Transmitter-to-target distance [m]."""
        return float(np.linalg.norm(self.target_pos - self.tx_pos))

    @property
    def d_rx(self) -> float:
        """Target-to-receiver distance [m]."""
        return float(np.linalg.norm(self.target_pos - self.rx_pos))

    @property
    def baseline(self) -> float:
        """Transmitter-to-receiver distance D [m]."""
        return float(np.linalg.norm(self.tx_pos - self.rx_pos))

    @property
    def wavelength(self) -> float:
        """Carrier wavelength [m]."""
        return SPEED_OF_LIGHT / self.carrier_hz


@dataclass(frozen=True)
class SensingGroundTruth:
    """True sensing parameters derived from a scenario.

    Attributes:
        d_bis: bistatic range d_tx + d_rx [m].
        v_bis: bistatic velocity v*cos(delta) [m/s].
        tau: propagation delay d_bis / c [s].
        f_d: Doppler shift 2*v_bis*cos(beta/2)/lambda [Hz].
        beta: bistatic angle [rad].
        theta: angle of arrival at the receiver [rad], see module docstring.
    """

    d_bis: float
    v_bis: float
    tau: float
    f_d: float
    beta: float
    theta: float


@dataclass
class ScenarioEnsemble:
    """Uniform distribution over scenarios with fixed terminals.

    Target position is uniform over the box x_range x y_range, speed
    uniform over speed_range, delta uniform over delta_range (radians).
    Draw order per sample is fixed: x, y, speed, delta.
    """

    tx_pos: np.ndarray = field(default_factory=lambda: np.array([-40.0, 0.0]))
    rx_pos: np.ndarray = field(default_factory=lambda: np.array([0.0, 40.0]))
    x_range: tuple = (80.0, 100.0)
    y_range: tuple = (-100.0, -80.0)
    speed_range: tuple = (-30.0, 30.0)
    delta_range: tuple = (-math.pi / 36.0, math.pi / 36.0)
    carrier_hz: float = 30e9

    def __post_init__(self):
        self.tx_pos = np.array(_checked_tuple(self.tx_pos, float, "tx_pos", 2))
        self.rx_pos = np.array(_checked_tuple(self.rx_pos, float, "rx_pos", 2))
        for name in ("x_range", "y_range", "speed_range", "delta_range"):
            setattr(self, name, _checked_tuple(getattr(self, name), float, name, 2))
        self.carrier_hz = _checked(self.carrier_hz, float, "carrier_hz", 0, above=True)

    def sample_targets(self, rng: np.random.Generator, size: int) -> tuple:
        """Draw target x, y coordinates, shape (size,) each."""
        x = rng.uniform(self.x_range[0], self.x_range[1], size)
        y = rng.uniform(self.y_range[0], self.y_range[1], size)
        return x, y

    def sample(self, rng: np.random.Generator) -> BistaticScenario:
        """Draw one scenario."""
        x = rng.uniform(self.x_range[0], self.x_range[1])
        y = rng.uniform(self.y_range[0], self.y_range[1])
        speed = rng.uniform(self.speed_range[0], self.speed_range[1])
        delta = rng.uniform(self.delta_range[0], self.delta_range[1])
        return BistaticScenario(
            tx_pos=self.tx_pos,
            rx_pos=self.rx_pos,
            target_pos=np.array([x, y]),
            speed=speed,
            delta=delta,
            carrier_hz=self.carrier_hz,
        )

    def center_scenario(self) -> BistaticScenario:
        """Scenario at the box center with zero speed."""
        x = 0.5 * (self.x_range[0] + self.x_range[1])
        y = 0.5 * (self.y_range[0] + self.y_range[1])
        return BistaticScenario(
            tx_pos=self.tx_pos,
            rx_pos=self.rx_pos,
            target_pos=np.array([x, y]),
            speed=0.0,
            delta=0.0,
            carrier_hz=self.carrier_hz,
        )


def bistatic_angle(d_tx, d_rx, baseline):
    """Bistatic angle beta from the three side lengths (law of cosines).

    Vectorized over the inputs. The cosine argument is clipped to [-1, 1]
    to absorb rounding on near-collinear geometries.
    """
    arg = (d_tx**2 + d_rx**2 - baseline**2) / (2.0 * d_tx * d_rx)
    return np.arccos(np.clip(arg, -1.0, 1.0))


def derive_ground_truth(scenario: BistaticScenario) -> SensingGroundTruth:
    """Compute the true sensing parameters for a scenario.

    Raises:
        GeometryError: if any pairwise distance is below ``DEGENERATE_EPS``.
    """
    d_tx = scenario.d_tx
    d_rx = scenario.d_rx
    baseline = scenario.baseline
    if min(d_tx, d_rx, baseline) < DEGENERATE_EPS:
        raise GeometryError(
            f"degenerate geometry: pairwise distance below {DEGENERATE_EPS} m "
            f"(d_tx={d_tx:.3g}, d_rx={d_rx:.3g}, D={baseline:.3g})"
        )
    beta = float(bistatic_angle(d_tx, d_rx, baseline))

    u = scenario.target_pos - scenario.rx_pos
    w = scenario.tx_pos - scenario.rx_pos
    cos_theta = float(np.dot(u, w) / (d_rx * baseline))
    theta = math.acos(min(1.0, max(-1.0, cos_theta)))

    d_bis = d_tx + d_rx
    v_bis = scenario.speed * math.cos(scenario.delta)
    tau = d_bis / SPEED_OF_LIGHT
    f_d = 2.0 * v_bis * math.cos(beta / 2.0) / scenario.wavelength
    return SensingGroundTruth(
        d_bis=d_bis, v_bis=v_bis, tau=tau, f_d=f_d, beta=beta, theta=theta
    )


def invert_bistatic_range(d_bis: float, baseline: float, theta: float) -> float:
    """Recover the target-to-receiver distance from a bistatic range.

    Solves the bistatic ellipse for the receiver leg:
    d_rx = (d_bis^2 - D^2) / (2 (d_bis - D cos(theta))).

    Args:
        d_bis: bistatic range estimate [m], must exceed the baseline.
        baseline: transmitter-receiver distance D [m], >= 0.
        theta: angle of arrival at the receiver [rad].

    Raises:
        GeometryError: if d_bis <= D (inside the degenerate ellipse region)
            or the denominator is not positive.
    """
    if baseline < 0:
        raise GeometryError("baseline must be nonnegative")
    if d_bis <= baseline:
        raise GeometryError(
            f"bistatic range {d_bis:.6g} m does not exceed baseline {baseline:.6g} m"
        )
    denom = d_bis - baseline * math.cos(theta)
    if denom <= 0:
        raise GeometryError("nonpositive ellipse denominator")
    return (d_bis**2 - baseline**2) / (2.0 * denom)


def beta_from_estimates(d_bis: float, baseline: float, theta: float) -> tuple:
    """Bistatic angle implied by a bistatic-range estimate.

    Inverts the range to (d_tx, d_rx) and applies the law of cosines. The
    cosine argument is clipped to [-1, 1]; the second return value flags
    whether clipping was needed (degenerate estimate).

    Returns:
        (beta_rad, clamped)
    """
    d_rx = invert_bistatic_range(d_bis, baseline, theta)
    d_tx = d_bis - d_rx
    if d_tx <= 0 or d_rx <= 0:
        raise GeometryError("nonpositive leg after bistatic-range inversion")
    arg = (d_tx**2 + d_rx**2 - baseline**2) / (2.0 * d_tx * d_rx)
    clamped = bool(arg < -1.0 or arg > 1.0)
    beta = math.acos(min(1.0, max(-1.0, arg)))
    return beta, clamped
