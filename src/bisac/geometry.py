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

    def _ranges(self, count: int) -> list:
        """(lo, hi - lo) of the first ``count`` drawn ranges, in draw order; a
        draw needs lo <= hi, as ``uniform`` does."""
        ranges = []
        for name in ("x_range", "y_range", "speed_range", "delta_range")[:count]:
            lo, hi = getattr(self, name)
            if hi < lo:
                raise ValueError(f"{name} must run from low to high to be drawn, "
                                 f"got {(lo, hi)!r}")
            ranges.append((lo, hi - lo))
        return ranges

    def _scale(self, *uniforms) -> None:
        """Scale each of ``uniforms``, arrays of ``rng.random`` values, in place
        to lo + (hi - lo) * u of the range at its position in draw order (x, y,
        speed, delta): bit for bit the values of ``rng.uniform(lo, hi)``, the
        product and sum it forms, with no temporary array."""
        for u, (lo, width) in zip(uniforms, self._ranges(len(uniforms))):
            u *= width
            u += lo

    def sample(self, rng: np.random.Generator) -> BistaticScenario:
        """Draw one scenario: x, y, speed and delta, in that order, bit for bit
        four scalar ``rng.uniform(*range)`` calls, leaving ``rng`` where they
        would. A range that cannot be drawn raises before the draw."""
        self._ranges(4)
        values = rng.random((4, 1))
        self._scale(*values)
        return self._scenario(*values.ravel().tolist())

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
    # libm's hypot, as the column kernels (_truth_columns) take it
    return math.hypot(a[0] - b[0], a[1] - b[1])


def derive_ground_truth(scenario: BistaticScenario) -> SensingGroundTruth:
    """Compute the true sensing parameters for a scenario.

    Raises:
        GeometryError: if any pairwise distance is below ``DEGENERATE_EPS``.
    """
    columns, degenerate, (d_tx, d_rx, baseline) = _truth_columns(
        scenario, [(*scenario.target_pos, scenario.speed, scenario.delta)])
    if degenerate[0]:
        raise _degenerate_error(d_tx[0], d_rx[0], baseline)
    return SensingGroundTruth(*columns[:, 0].tolist())


def _truth_columns(scene, draws) -> tuple:
    """The truths of targets ``draws``, rows (x, y, speed, delta), seen from
    ``scene`` (a scenario or an ensemble): columns (6, n) in the field order
    of ``SensingGroundTruth``; the mask of degenerate draws, whose columns are
    zero; and the legs d_tx, d_rx and D that name a degenerate draw."""
    (tx_x, tx_y), (rx_x, rx_y) = scene.tx_pos, scene.rx_pos
    x, y, speed, delta = np.asarray(draws, float).T
    d_tx = _each(math.hypot, x - tx_x, y - tx_y)
    d_rx = _each(math.hypot, x - rx_x, y - rx_y)
    baseline = math.hypot(tx_x - rx_x, tx_y - rx_y)
    nearest = np.where(d_rx < d_tx, d_rx, d_tx)  # Python's min, NaN and all
    degenerate = np.where(baseline < nearest, baseline, nearest) < DEGENERATE_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = _acos((_sq(d_tx) + _sq(d_rx) - baseline**2) / (2.0 * d_tx * d_rx))
        theta = _acos(((x - rx_x) * (tx_x - rx_x) + (y - rx_y) * (tx_y - rx_y))
                      / (d_rx * baseline))
    d_bis = d_tx + d_rx
    v_bis = speed * _each(math.cos, delta)
    f_d = 2.0 * v_bis * _each(math.cos, beta / 2.0) / (SPEED_OF_LIGHT / scene.carrier_hz)
    columns = np.array([d_bis, v_bis, d_bis / SPEED_OF_LIGHT, f_d, beta, theta])
    columns[:, degenerate] = 0.0
    return columns, degenerate, (d_tx, d_rx, baseline)


# The kernels give the scalar math's bits: libm's hypot, acos and cos once
# per element (numpy's hypot and arccos round differently), float_power for
# a Python square, which is libm's pow, and acos of min(1.0, max(-1.0, c)),
# which reads a NaN c as -1.
def _each(func, *columns) -> np.ndarray:
    return np.array(list(map(func, *(np.asarray(c, float).tolist() for c in columns))), float)


def _sq(values):
    return np.float_power(values, 2.0)


def _acos(cosines) -> np.ndarray:
    return _each(math.acos, np.minimum(np.fmax(cosines, -1.0), 1.0))


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
    """One row of ``_invert_columns``, or its GeometryError."""
    d_rx, beta, clamped, reason = _invert_columns([d_bis], baseline, [theta])
    if reason[0]:
        raise _inversion_error(reason[0], d_bis, baseline)
    return float(d_rx[0]), float(beta[0]), bool(clamped[0])


def _inversion_error(reason: int, d_bis: float, baseline: float) -> GeometryError:
    """The GeometryError of a range ``d_bis`` whose inversion failed for the
    nonzero ``reason`` code of ``_invert_columns``."""
    return GeometryError((None, "baseline must be nonnegative",
                          "bistatic range {d_bis:.6g} m does not exceed baseline {baseline:.6g} m",
                          "nonpositive ellipse denominator",
                          "nonpositive leg after bistatic-range inversion",
                          )[reason].format(d_bis=d_bis, baseline=baseline))


def _degenerate_error(d_tx: float, d_rx: float, baseline: float) -> GeometryError:
    """The GeometryError of a degenerate draw, named by its legs and the baseline."""
    return GeometryError(f"degenerate geometry: pairwise distance below {DEGENERATE_EPS} m "
                         f"(d_tx={d_tx:.3g}, d_rx={d_rx:.3g}, D={baseline:.3g})")


def _invert_columns(d_bis, baseline: float, theta) -> tuple:
    """(d_rx, beta, clamped, reason) of the bistatic ranges ``d_bis`` at the
    angles of arrival ``theta``, 1-D: the receiver leg of the ellipse, the
    bistatic angle of the legs (its cosine clipped to [-1, 1]) and whether it
    was clipped; ``reason`` is 0, or the code (1-4) of the first check that
    fails in ``invert_bistatic_range``'s order, where the values mean nothing."""
    d_bis = np.asarray(d_bis, float)
    denom = d_bis - baseline * _each(math.cos, theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        d_rx = (_sq(d_bis) - baseline**2) / (2.0 * denom)
        d_tx = d_bis - d_rx
        arg = (_sq(d_tx) + _sq(d_rx) - baseline**2) / (2.0 * d_tx * d_rx)
    reason = np.where(baseline < 0, 1, np.where(d_bis <= baseline, 2, np.where(
        denom <= 0, 3, np.where((d_tx <= 0) | (d_rx <= 0), 4, 0))))
    return d_rx, _acos(arg), (arg < -1.0) | (arg > 1.0), reason
