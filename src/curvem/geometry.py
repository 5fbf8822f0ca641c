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

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from ._checks import is_real


class GeometryError(Exception):
    """Raised for degenerate curves or out-of-range parameters."""


_SPEED_SAMPLES = 64

# The 21-point Gauss-Kronrod rule of QUADPACK's dqk21: Kronrod nodes on
# [0, 1] (entries 1, 3, ..., 9 are the 10-point Gauss nodes, entry 10 the
# centre), their weights, and the Gauss weights of entries 1, 3, ..., 9.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_EPMACH = float(np.finfo(float).eps)
_UFLOW = float(np.finfo(float).tiny)
# arc length tolerances and the most subintervals the adaptive rule may use
_EPSABS, _EPSREL, _LIMIT = 1e-15, 1e-12, 200


def _circle(t, cx, cy, radius, omega, phase):
    ang = omega * t + phase
    return np.stack([cx + radius * np.cos(ang), cy + radius * np.sin(ang)], axis=-1)


def _circle_velocity(t, cx, cy, radius, omega, phase):
    ang = omega * t + phase
    return np.stack([-radius * omega * np.sin(ang), radius * omega * np.cos(ang)], axis=-1)


def _graph(t, amplitude, frequency, offset):
    return np.stack([t, offset + amplitude * np.sin(frequency * t)], axis=-1)


def _graph_velocity(t, amplitude, frequency, offset):
    return np.stack([np.ones_like(t), amplitude * frequency * np.cos(frequency * t)], axis=-1)


# each curve kind: its coefficients in ``params`` order, gamma and gamma'
_Kind = namedtuple("_Kind", "coefficients gamma velocity")
_KINDS = {"circle": _Kind(("cx", "cy", "radius", "omega", "phase"), _circle, _circle_velocity),
          "graph": _Kind(("amplitude", "frequency", "offset"), _graph, _graph_velocity)}


@dataclass(frozen=True)
class BoundaryCurve:
    """A smooth injective parametrization of one boundary/interface piece.

    Parameters
    ----------
    id : str
        Name used by mesh files and meshes to reference the curve: a
        non-empty word of printable characters other than space and ``#``.
    param_interval : (float, float)
        Global parameter interval [a, b], a < b.
    kind : str
        ``"circle"`` (see ``circle_curve``) or ``"graph"`` (``graph_curve``).
    params : tuple of float
        The kind's coefficients: cx cy radius omega phase for a circle,
        amplitude frequency offset for a graph.

    The record is the curve: equal fields make equal curves, and every
    construction checks them (an interval of two finite real numbers a < b,
    finite real coefficients of a known kind, not bool, a circle's radius
    and span, nonzero speed at 64 samples).
    ``eval(t)`` takes a scalar or an array and returns points with a
    trailing axis of length 2.
    """

    id: str
    param_interval: tuple[float, float]
    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        cid, kind = self.id, _KINDS.get(self.kind)
        if not (isinstance(cid, str) and cid.isprintable() and cid) or set(cid) & {" ", "#"}:
            raise GeometryError(f"curve id {cid!r} must be a printable word without '#'")
        if kind is None:
            raise GeometryError(f"curve {cid!r}: unknown curve kind {self.kind!r}")
        if len(self.params) != len(kind.coefficients):
            raise GeometryError(
                f"curve {cid!r}: kind {self.kind!r} takes {len(kind.coefficients)} parameters "
                f"({' '.join(kind.coefficients)}), got {len(self.params)}")
        if len(self.param_interval) != 2 or not all(map(is_real, self.param_interval)):
            raise GeometryError(f"curve {cid!r}: param_interval must be two real numbers, "
                                f"got {self.param_interval!r}")
        for name, value in zip(kind.coefficients, self.params):
            if not is_real(value):
                raise GeometryError(f"curve {cid!r}: {name} must be a real number, got {value!r}")
        (a, b), p = map(float, self.param_interval), tuple(map(float, self.params))
        object.__setattr__(self, "param_interval", (a, b))
        object.__setattr__(self, "params", p)
        bad = [f"{name} {v}" for name, v in zip(kind.coefficients, p) if not np.isfinite(v)]
        if bad:
            raise GeometryError(f"curve {cid!r}: non-finite {', '.join(bad)}")
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise GeometryError(f"curve {cid!r}: invalid parameter interval [{a}, {b}]")
        if self.kind == "circle" and p[2] <= 0.0:
            raise GeometryError(f"curve {cid!r}: radius must be positive")
        if self.kind == "circle" and abs(p[3]) * (b - a) > 2.0 * np.pi + 1e-12:
            raise GeometryError(f"curve {cid!r}: angular span exceeds a full turn")
        d = self.eval_derivative(np.linspace(a, b, _SPEED_SAMPLES))
        speed = np.hypot(d[..., 0], d[..., 1])
        if np.any(~np.isfinite(speed)) or np.any(speed < 1e-14):
            raise GeometryError(f"curve {cid!r}: vanishing or non-finite speed on [{a}, {b}]")

    def eval(self, t):
        """Point gamma(t); shape (..., 2)."""
        return _KINDS[self.kind].gamma(np.asarray(t, dtype=float), *self.params)

    def eval_derivative(self, t):
        """Velocity gamma'(t); shape (..., 2)."""
        return _KINDS[self.kind].velocity(np.asarray(t, dtype=float), *self.params)


def circle_curve(curve_id, center, radius, omega=1.0, phase=0.0,
                 param_interval=(0.0, 2.0 * np.pi)) -> BoundaryCurve:
    """Arc gamma(t) = center + radius*(cos(omega t + phase), sin(omega t + phase)).

    The angular span |omega|*(b - a) must not exceed 2*pi, which makes the
    parametrization injective (up to the closed-curve endpoint).
    """
    cid = str(curve_id)
    try:
        cx, cy = center
    except (TypeError, ValueError):
        raise GeometryError(f"curve {cid!r}: center must be two real numbers, "
                            f"got {center!r}") from None
    return BoundaryCurve(cid, param_interval, "circle", (cx, cy, radius, omega, phase))


def graph_curve(curve_id, amplitude, frequency, offset=0.0,
                param_interval=(0.0, 1.0)) -> BoundaryCurve:
    """Graph gamma(t) = (t, offset + amplitude*sin(frequency t)).

    Injective for free since the first component is the parameter itself.
    """
    return BoundaryCurve(str(curve_id), param_interval, "graph", (amplitude, frequency, offset))


@dataclass(frozen=True)
class CurveSegment:
    """The sub-interval [t0, t1] of a curve occupied by one mesh edge."""

    curve: BoundaryCurve
    t0: float
    t1: float

    def __post_init__(self):
        for name, value in (("t0", self.t0), ("t1", self.t1)):
            if not is_real(value):
                raise GeometryError(f"curve {self.curve.id!r}: segment {name} must be a real "
                                    f"number, got {value!r}")
        a, b = self.curve.param_interval
        slack = 1e-12 * (b - a)
        if not self.t0 < self.t1:
            raise GeometryError(
                f"curve {self.curve.id!r}: segment needs t0 < t1, got [{self.t0}, {self.t1}]")
        if self.t0 < a - slack or self.t1 > b + slack:
            raise GeometryError(
                f"curve {self.curve.id!r}: segment [{self.t0}, {self.t1}] leaves "
                f"parameter interval [{a}, {b}]")


def _qk21(curve: BoundaryCurve, lo: float, hi: float) -> tuple[float, float, float]:
    """QUADPACK's dqk21 on the speed |gamma'| over [lo, hi].

    Returns (result, abserr, resasc).  The speed is evaluated on all
    21 nodes at once; the sums run in dqk21's order (centre, Gauss nodes,
    then the remaining Kronrod nodes), so the result equals QUADPACK's bit
    for bit.
    """
    centr = 0.5 * (lo + hi)
    hlgth = 0.5 * (hi - lo)
    absc = hlgth * np.array(_XGK[:10])
    d = curve.eval_derivative(np.concatenate([[centr], centr - absc, centr + absc]))
    speed = np.hypot(d[:, 0], d[:, 1]).tolist()
    fc, fv1, fv2 = speed[0], speed[1:11], speed[11:]
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = abs(resk)
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        fsum = fv1[j] + fv2[j]
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fv1[j]) + abs(fv2[j]))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * abs(hlgth)
    resasc = resasc * abs(hlgth)
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max(50.0 * _EPMACH * resabs, abserr)
    return result, abserr, resasc


def arc_length(segment: CurveSegment) -> float:
    """Arc length of the segment.

    Integrates the speed with QUADPACK's 21-point Gauss-Kronrod rule to an
    accuracy of max(1e-15, 1e-12 * length).  A segment that the rule
    certifies on its own (QAGS's first-interval test) gets exactly the value
    ``scipy.integrate.quad`` returns; otherwise the rule is applied to up to
    200 subintervals, always bisecting the one of largest estimated error.
    Raises GeometryError if that does not reach the accuracy.
    """
    curve = segment.curve
    lo, hi = segment.t0, segment.t1
    value, abserr, resasc = _qk21(curve, lo, hi)
    errbnd = max(_EPSABS, _EPSREL * abs(value))
    if (abserr <= errbnd and abserr != resasc) or abserr == 0.0:
        return value
    # globally adaptive bisection: rows (a, b, result, abserr)
    parts = [(lo, hi, value, abserr)]
    while len(parts) < _LIMIT:
        worst = max(range(len(parts)), key=lambda i: parts[i][3])
        a, b = parts[worst][:2]
        mid = 0.5 * (a + b)
        parts[worst:worst + 1] = [(a, mid, *_qk21(curve, a, mid)[:2]),
                                  (mid, b, *_qk21(curve, mid, b)[:2])]
        value = sum(part[2] for part in parts)
        abserr = sum(part[3] for part in parts)
        if abserr <= max(_EPSABS, _EPSREL * abs(value)):
            return value
    raise GeometryError(
        f"curve {curve.id!r}: arc length on [{lo}, {hi}] did not converge "
        f"(estimated error {abserr:.2e})")
