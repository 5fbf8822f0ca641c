"""Parametrized boundary curves and the edge segments cut from them.

Curved mesh edges carry an exact parametrization gamma : [t0, t1] -> R^2
instead of a chord.  A ``BoundaryCurve`` owns the global parametrization
(one per physical boundary or interface piece), a ``CurveSegment`` is the
sub-interval a single mesh edge occupies.  Everything downstream (quadrature,
projectors, boundary conditions) evaluates gamma and gamma' through these
objects, so the geometry is represented exactly rather than through an
interpolated approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import quad


class GeometryError(Exception):
    """Raised for degenerate curves or out-of-range parameters."""


_SPEED_SAMPLES = 64


@dataclass(frozen=True)
class BoundaryCurve:
    """A smooth injective parametrization of one boundary/interface piece.

    Parameters
    ----------
    id : str
        Name used by mesh files and meshes to reference the curve.
    param_interval : (float, float)
        Global parameter interval [a, b], a < b.
    kind : str
        ``"circle"``, ``"graph"`` or ``"generic"``.  The first two have
        closed-form coefficients in ``params`` and can be serialized;
        generic callables cannot.
    params : tuple of float
        Closed-form coefficients (empty for generic curves).

    The evaluation callables are vectorized: ``eval(t)`` accepts a scalar
    or an array of parameters and returns points with a trailing axis of
    length 2.
    """

    id: str
    param_interval: tuple[float, float]
    kind: str
    params: tuple[float, ...]
    _fn: Callable = field(repr=False)
    _dfn: Callable = field(repr=False)

    def eval(self, t):
        """Point gamma(t); shape (..., 2)."""
        return self._fn(np.asarray(t, dtype=float))

    def eval_derivative(self, t):
        """Velocity gamma'(t); shape (..., 2)."""
        return self._dfn(np.asarray(t, dtype=float))


def _validate_curve(curve: BoundaryCurve) -> BoundaryCurve:
    a, b = curve.param_interval
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise GeometryError(f"curve {curve.id!r}: invalid parameter interval [{a}, {b}]")
    t = np.linspace(a, b, _SPEED_SAMPLES)
    d = curve.eval_derivative(t)
    speed = np.hypot(d[..., 0], d[..., 1])
    if np.any(~np.isfinite(speed)) or np.any(speed < 1e-14):
        raise GeometryError(f"curve {curve.id!r}: vanishing or non-finite speed on [{a}, {b}]")
    return curve


def circle_curve(curve_id, center, radius, omega=1.0, phase=0.0,
                 param_interval=(0.0, 2.0 * np.pi)) -> BoundaryCurve:
    """Arc gamma(t) = center + radius*(cos(omega t + phase), sin(omega t + phase)).

    The angular span |omega|*(b - a) must not exceed 2*pi, which makes the
    parametrization injective (up to the closed-curve endpoint).
    """
    cx, cy = float(center[0]), float(center[1])
    radius = float(radius)
    omega = float(omega)
    phase = float(phase)
    if radius <= 0.0:
        raise GeometryError(f"curve {curve_id!r}: radius must be positive")
    a, b = param_interval
    if abs(omega) * (b - a) > 2.0 * np.pi + 1e-12:
        raise GeometryError(f"curve {curve_id!r}: angular span exceeds a full turn")

    def fn(t):
        ang = omega * t + phase
        return np.stack([cx + radius * np.cos(ang), cy + radius * np.sin(ang)], axis=-1)

    def dfn(t):
        ang = omega * t + phase
        return np.stack([-radius * omega * np.sin(ang), radius * omega * np.cos(ang)], axis=-1)

    return _validate_curve(BoundaryCurve(
        id=str(curve_id), param_interval=(float(a), float(b)), kind="circle",
        params=(cx, cy, radius, omega, phase), _fn=fn, _dfn=dfn))


def graph_curve(curve_id, amplitude, frequency, offset=0.0,
                param_interval=(0.0, 1.0)) -> BoundaryCurve:
    """Graph gamma(t) = (t, offset + amplitude*sin(frequency t)).

    Injective for free since the first component is the parameter itself.
    """
    amplitude = float(amplitude)
    frequency = float(frequency)
    offset = float(offset)
    a, b = param_interval

    def fn(t):
        return np.stack([t, offset + amplitude * np.sin(frequency * t)], axis=-1)

    def dfn(t):
        return np.stack([np.ones_like(t), amplitude * frequency * np.cos(frequency * t)], axis=-1)

    return _validate_curve(BoundaryCurve(
        id=str(curve_id), param_interval=(float(a), float(b)), kind="graph",
        params=(amplitude, frequency, offset), _fn=fn, _dfn=dfn))


def generic_curve(curve_id, fn, dfn, param_interval) -> BoundaryCurve:
    """Wrap user callables gamma, gamma' (both vectorized over t).

    Generic curves cannot be written to mesh files; injectivity is the
    caller's responsibility, only the speed is sample-checked.
    """
    a, b = param_interval
    return _validate_curve(BoundaryCurve(
        id=str(curve_id), param_interval=(float(a), float(b)), kind="generic",
        params=(), _fn=fn, _dfn=dfn))


_CURVE_BUILDERS = {
    "circle": lambda cid, p, iv: circle_curve(cid, (p[0], p[1]), p[2], p[3], p[4], iv),
    "graph": lambda cid, p, iv: graph_curve(cid, p[0], p[1], p[2], iv),
}

_CURVE_NPARAMS = {"circle": 5, "graph": 3}


def curve_from_params(curve_id, kind, params, param_interval) -> BoundaryCurve:
    """Rebuild a serializable curve from its (kind, params) record."""
    if kind not in _CURVE_BUILDERS:
        raise GeometryError(f"unknown curve kind {kind!r}")
    if len(params) != _CURVE_NPARAMS[kind]:
        raise GeometryError(
            f"curve {curve_id!r}: kind {kind!r} takes {_CURVE_NPARAMS[kind]} parameters, "
            f"got {len(params)}")
    return _CURVE_BUILDERS[kind](curve_id, tuple(float(p) for p in params), param_interval)


@dataclass(frozen=True)
class CurveSegment:
    """The sub-interval [t0, t1] of a curve occupied by one mesh edge."""

    curve: BoundaryCurve
    t0: float
    t1: float

    def __post_init__(self):
        a, b = self.curve.param_interval
        slack = 1e-12 * (b - a)
        if not self.t0 < self.t1:
            raise GeometryError(
                f"curve {self.curve.id!r}: segment needs t0 < t1, got [{self.t0}, {self.t1}]")
        if self.t0 < a - slack or self.t1 > b + slack:
            raise GeometryError(
                f"curve {self.curve.id!r}: segment [{self.t0}, {self.t1}] leaves "
                f"parameter interval [{a}, {b}]")


def arc_length(segment: CurveSegment) -> float:
    """Arc length of the segment.

    Adaptive Gauss-Kronrod integration of the speed; raises if the
    integrator cannot certify a relative accuracy of 1e-12.
    """
    curve = segment.curve

    def speed(t):
        d = curve.eval_derivative(t)
        return float(np.hypot(d[0], d[1]))

    lo, hi = segment.t0, segment.t1
    value, abserr, *_ = quad(speed, lo, hi, epsabs=1e-15, epsrel=1e-12,
                             limit=200, full_output=True)
    if abserr > max(1e-12 * abs(value), 1e-13):
        raise GeometryError(
            f"curve {curve.id!r}: arc length on [{lo}, {hi}] did not converge "
            f"(estimated error {abserr:.2e})")
    return value
