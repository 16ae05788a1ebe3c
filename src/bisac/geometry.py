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
from dataclasses import dataclass

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
    integer, but not one beyond the largest float, and a bool is never a
    number. A number must also be >= ``low``, or > ``low`` if ``above``,
    where ``low`` is given.
    """
    what, types = _KINDS[kind]
    try:
        ok = (isinstance(value, types) and (kind is bool or not isinstance(value, bool))
              and (kind is not float or math.isfinite(value))
              and (low is None or (value > low if above else value >= low)))
    except OverflowError:  # math.isfinite of an integer beyond the largest float
        ok = False
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


@dataclass(frozen=True)
class BistaticScenario:
    """A single planar bistatic scene.

    Attributes:
        tx_pos: transmitter position (x, y) [m].
        rx_pos: receiver position (x, y) [m].
        target_pos: target position (x, y) [m].
        speed: signed magnitude of target velocity [m/s].
        delta: angle between velocity vector and the bistatic bisector [rad].
        carrier_hz: carrier frequency [Hz].
    """

    tx_pos: tuple
    rx_pos: tuple
    target_pos: tuple
    speed: float = 0.0
    delta: float = 0.0
    carrier_hz: float = 30e9

    def __post_init__(self):
        for name in ("tx_pos", "rx_pos", "target_pos"):
            object.__setattr__(self, name, _checked_tuple(getattr(self, name), float, name, 2))
        for name in ("speed", "delta"):
            object.__setattr__(self, name, _checked(getattr(self, name), float, name))
        object.__setattr__(self, "carrier_hz",
                           _checked(self.carrier_hz, float, "carrier_hz", 0, above=True))

    @property
    def d_tx(self) -> float:
        """Transmitter-to-target distance [m]."""
        return _distance(self.target_pos, self.tx_pos)

    @property
    def d_rx(self) -> float:
        """Target-to-receiver distance [m]."""
        return _distance(self.target_pos, self.rx_pos)

    @property
    def baseline(self) -> float:
        """Transmitter-to-receiver distance D [m]."""
        return _distance(self.tx_pos, self.rx_pos)


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


@dataclass(frozen=True)
class ScenarioEnsemble:
    """Uniform distribution over scenarios with fixed terminals.

    Target position is uniform over the box x_range x y_range, speed
    uniform over speed_range, delta uniform over delta_range (radians);
    each range's width hi - lo must be finite, and so must the square of
    any bistatic range the terminals and the box allow. Draw order per
    sample is fixed: x, y, speed, delta.
    """

    tx_pos: tuple = (-40.0, 0.0)
    rx_pos: tuple = (0.0, 40.0)
    x_range: tuple = (80.0, 100.0)
    y_range: tuple = (-100.0, -80.0)
    speed_range: tuple = (-30.0, 30.0)
    delta_range: tuple = (-math.pi / 36.0, math.pi / 36.0)
    carrier_hz: float = 30e9

    def __post_init__(self):
        for name in ("tx_pos", "rx_pos", "x_range", "y_range", "speed_range", "delta_range"):
            value = _checked_tuple(getattr(self, name), float, name, 2)
            if name.endswith("_range") and not math.isfinite(value[1] - value[0]):
                raise ValueError(f"{name} must have a finite width, got {value!r}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "carrier_hz",
                           _checked(self.carrier_hz, float, "carrier_hz", 0, above=True))
        # a squared bistatic range is at most 8 times the larger squared
        # extent of the terminals and the box along x or y
        for axis, name in enumerate(("x_range", "y_range")):
            coords = (self.tx_pos[axis], self.rx_pos[axis], *getattr(self, name))
            extent = max(coords) - min(coords)
            if not math.isfinite(8.0 * extent * extent):
                raise ValueError(f"tx_pos, rx_pos and {name} span {extent:.3g} m along "
                                 f"{'xy'[axis]}: the squared bistatic range would overflow")

    @property
    def baseline(self) -> float:
        """Transmitter-to-receiver distance D [m]."""
        return _distance(self.tx_pos, self.rx_pos)

    def sample_targets(self, rng: np.random.Generator, size: int) -> tuple:
        """Draw target x, y coordinates, shape (size,) each.

        Bit for bit ``rng.uniform(*x_range, size), rng.uniform(*y_range,
        size)``, and leaves ``rng`` where they would: each coordinate is one
        ``rng.random(size)`` scaled in place to lo + (hi - lo) * u, the
        product and sum ``uniform`` forms, with no temporary array.
        """
        ranges = self._ranges(2)
        coords = rng.random(size), rng.random(size)
        for u, (lo, width) in zip(coords, ranges):
            u *= width
            u += lo
        return coords

    def _draw(self, rng: np.random.Generator) -> tuple:
        """One draw of x, y, speed and delta, in that order.

        Bit for bit four scalar ``rng.uniform(*range)`` calls, and leaves
        ``rng`` where they would: one ``rng.random(4)``, each value scaled to
        lo + (hi - lo) * u in Python floats.
        """
        return tuple(lo + width * u
                     for (lo, width), u in zip(self._ranges(4), rng.random(4).tolist()))

    def _ranges(self, count: int) -> list:
        """(lo, hi - lo) of the first ``count`` drawn ranges, in draw order.

        A draw needs lo <= hi, as ``uniform`` does.
        """
        ranges = []
        for name in ("x_range", "y_range", "speed_range", "delta_range")[:count]:
            lo, hi = getattr(self, name)
            if hi < lo:
                raise ValueError(f"{name} must run from low to high to be drawn, "
                                 f"got {(lo, hi)!r}")
            ranges.append((lo, hi - lo))
        return ranges

    def sample(self, rng: np.random.Generator) -> BistaticScenario:
        """Draw one scenario."""
        return self._scenario(*self._draw(rng))

    def sample_truth(self, rng: np.random.Generator) -> SensingGroundTruth:
        """``derive_ground_truth(self.sample(rng))``, without building the scenario."""
        x, y, speed, delta = self._draw(rng)
        return _ground_truth(self.tx_pos, self.rx_pos, (x, y), speed, delta, self.carrier_hz)

    def center_scenario(self) -> BistaticScenario:
        """Scenario at the box center with zero speed."""
        (x0, x1), (y0, y1) = self.x_range, self.y_range
        # lo + (hi - lo) / 2 stays finite wherever the width is
        return self._scenario(x0 + (x1 - x0) / 2, y0 + (y1 - y0) / 2)

    def _scenario(self, x, y, speed=0.0, delta=0.0) -> BistaticScenario:
        return BistaticScenario(self.tx_pos, self.rx_pos, (x, y), speed, delta, self.carrier_hz)


def bistatic_angle(d_tx, d_rx, baseline):
    """Bistatic angle beta from the three side lengths (law of cosines).

    Vectorized over the inputs. The cosine argument is clipped to [-1, 1]
    to absorb rounding on near-collinear geometries.
    """
    arg = (d_tx**2 + d_rx**2 - baseline**2) / (2.0 * d_tx * d_rx)
    return np.arccos(np.clip(arg, -1.0, 1.0))


def _distance(a, b) -> float:
    return float(np.linalg.norm(np.subtract(a, b)))


def derive_ground_truth(scenario: BistaticScenario) -> SensingGroundTruth:
    """Compute the true sensing parameters for a scenario.

    Raises:
        GeometryError: if any pairwise distance is below ``DEGENERATE_EPS``.
    """
    return _ground_truth(scenario.tx_pos, scenario.rx_pos, scenario.target_pos,
                         scenario.speed, scenario.delta, scenario.carrier_hz)


def _ground_truth(tx_pos, rx_pos, target_pos, speed, delta, carrier_hz) -> SensingGroundTruth:
    """``derive_ground_truth`` of the scenario with these (already checked) fields,
    in scalar ``math``: a trial's truth costs a few microseconds."""
    (tx_x, tx_y), (rx_x, rx_y), (x, y) = tx_pos, rx_pos, target_pos
    d_tx = math.hypot(x - tx_x, y - tx_y)
    d_rx = math.hypot(x - rx_x, y - rx_y)
    baseline = math.hypot(tx_x - rx_x, tx_y - rx_y)
    if min(d_tx, d_rx, baseline) < DEGENERATE_EPS:
        raise GeometryError(
            f"degenerate geometry: pairwise distance below {DEGENERATE_EPS} m "
            f"(d_tx={d_tx:.3g}, d_rx={d_rx:.3g}, D={baseline:.3g})"
        )
    cos_beta = (d_tx**2 + d_rx**2 - baseline**2) / (2.0 * d_tx * d_rx)
    beta = math.acos(min(1.0, max(-1.0, cos_beta)))

    cos_theta = ((x - rx_x) * (tx_x - rx_x) + (y - rx_y) * (tx_y - rx_y)) / (d_rx * baseline)
    theta = math.acos(min(1.0, max(-1.0, cos_theta)))

    d_bis = d_tx + d_rx
    v_bis = speed * math.cos(delta)
    tau = d_bis / SPEED_OF_LIGHT
    f_d = 2.0 * v_bis * math.cos(beta / 2.0) / (SPEED_OF_LIGHT / carrier_hz)
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
        GeometryError: if d_bis <= D (inside the degenerate ellipse region),
            the denominator is not positive or, in rounding, a leg is not.
    """
    return _invert(d_bis, baseline, theta)[0]


def beta_from_estimates(d_bis: float, baseline: float, theta: float) -> tuple:
    """Bistatic angle implied by a bistatic-range estimate.

    Inverts the range to (d_tx, d_rx) and applies the law of cosines. The
    cosine argument is clipped to [-1, 1]; the second return value flags
    whether clipping was needed (degenerate estimate).

    Returns:
        (beta_rad, clamped)

    Raises:
        GeometryError: as ``invert_bistatic_range`` does.
    """
    return _invert(d_bis, baseline, theta)[1:]


def _invert(d_bis: float, baseline: float, theta: float) -> tuple:
    """(d_rx, beta, clamped) of a bistatic range: the receiver leg of the
    ellipse, the bistatic angle of the two legs by the law of cosines, its
    cosine clipped to [-1, 1], and whether the clipping was needed; raises
    as ``invert_bistatic_range`` does."""
    if baseline < 0:
        raise GeometryError("baseline must be nonnegative")
    if d_bis <= baseline:
        raise GeometryError(
            f"bistatic range {d_bis:.6g} m does not exceed baseline {baseline:.6g} m"
        )
    denom = d_bis - baseline * math.cos(theta)
    if denom <= 0:
        raise GeometryError("nonpositive ellipse denominator")
    d_rx = (d_bis**2 - baseline**2) / (2.0 * denom)
    d_tx = d_bis - d_rx
    if d_tx <= 0 or d_rx <= 0:
        raise GeometryError("nonpositive leg after bistatic-range inversion")
    arg = (d_tx**2 + d_rx**2 - baseline**2) / (2.0 * d_tx * d_rx)
    clamped = bool(arg < -1.0 or arg > 1.0)
    return d_rx, math.acos(min(1.0, max(-1.0, arg))), clamped
