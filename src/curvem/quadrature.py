"""Gauss rules on intervals and (curved) polygons.

The 2D rules integrate over a polygon bounded by straight sides and
optionally one or more exactly parametrized curved sides, without any
subdivision into triangles: the double integral is reduced to the boundary
by Green's theorem applied to the x-primitive of the integrand, and the
resulting line integrals are handled by nested Gauss-Legendre rules.  With
M+1 points per direction the rule is exact for polynomials of degree 2M on
straight sides; on curved sides the integrand is no longer polynomial in
the parameter and the point count is raised instead (see ``rule_points``).

Nodes can fall outside the region (between the boundary and the vertical
line x = alpha), so integrands must be defined and smooth on the bounding
box of the (curved) boundary, not only on the polygon.

A polygon's boundary is described by one ``SideBatch`` per side, in
traversal order; the sides' ``start`` rows are its chord corners.
``green_rule`` builds the rules of a batch of like polygons at once, as
arrays of shape (polygons, points), and checks nothing about their shape:
mesh elements are checked once, by the ``Mesh`` constructor
(counterclockwise chords, positive area).
``polygon_quadrature`` is its rule on one all-straight polygon given from
outside a mesh, so it rejects clockwise and zero-area input itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._checks import check_integer

_MAX_POINTS = 64
# extra Gauss points per direction on curved sides (``rule_points``): the
# one value that assembly, the error norms and the audits integrate with
BOOST = 2


class QuadratureError(Exception):
    """Raised for invalid rule requests or degenerate integration domains."""


@dataclass(frozen=True)
class QuadratureRule1D:
    """Nodes (ascending, in [-1, 1]) and positive weights summing to 2."""

    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class QuadratureRule2D:
    """Planar rule with signed weights; ``points`` has shape (Q, 2)."""

    points: np.ndarray
    weights: np.ndarray

    def integrate(self, f) -> float:
        """Apply the rule to a vectorized integrand f(x, y)."""
        return float(self.weights @ f(self.points[:, 0], self.points[:, 1]))


def _legendre_pair(n: int, x: np.ndarray):
    """P_{n-1}(x) and P_n(x) by the three-term recurrence."""
    pm = np.ones_like(x)
    p = x.copy()
    for m in range(2, n + 1):
        pm, p = p, ((2 * m - 1) * x * p - (m - 1) * pm) / m
    return pm, p


# typed, so that 3.0 and True reach the check instead of the rules cached
# for 3 and 1
@lru_cache(maxsize=None, typed=True)
def gauss_legendre(n: int) -> QuadratureRule1D:
    """n-point Gauss-Legendre rule on [-1, 1], exact for degree 2n-1.

    Nodes are Newton-refined from the Chebyshev asymptotic guesses to
    1e-15; weights use 2 / ((1 - x^2) P_n'(x)^2).
    """
    check_integer(QuadratureError, "gauss_legendre: n", n, 1, _MAX_POINTS)
    i = np.arange(1, n + 1)
    x = np.cos(np.pi * (4 * i - 1) / (4 * n + 2))
    for _ in range(100):
        pm, p = _legendre_pair(n, x)
        dp = n * (x * p - pm) / (x * x - 1.0)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    else:
        raise QuadratureError(f"gauss_legendre: Newton iteration stalled for n={n}")
    pm, p = _legendre_pair(n, x)
    dp = n * (x * p - pm) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    x, w = x[order], w[order]
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    return _freeze_rule(x, w)


@lru_cache(maxsize=None, typed=True)  # typed, as gauss_legendre
def gauss_lobatto(n: int) -> QuadratureRule1D:
    """n-point Gauss-Lobatto rule on [-1, 1] including both endpoints.

    Exact for degree 2n-3.  Interior nodes are the roots of P_{n-1}',
    Newton-refined from Chebyshev-Lobatto guesses; weights are
    2 / (n (n-1) P_{n-1}(x)^2).
    """
    check_integer(QuadratureError, "gauss_lobatto: n", n, 2, _MAX_POINTS)
    if n == 2:
        return _freeze_rule(np.array([-1.0, 1.0]), np.array([1.0, 1.0]))
    m = n - 1
    j = np.arange(1, n - 1)
    x = np.cos(np.pi * j / m)
    for _ in range(100):
        pm, p = _legendre_pair(m, x)
        dp = m * (x * p - pm) / (x * x - 1.0)
        d2p = (2.0 * x * dp - m * (m + 1) * p) / (1.0 - x * x)
        dx = dp / d2p
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    else:
        raise QuadratureError(f"gauss_lobatto: Newton iteration stalled for n={n}")
    nodes = np.concatenate([[-1.0], np.sort(x), [1.0]])
    nodes = 0.5 * (nodes - nodes[::-1])
    _, p = _legendre_pair(m, nodes)
    w = 2.0 / (n * m * p * p)
    w = 0.5 * (w + w[::-1])
    return _freeze_rule(nodes, w)


def _freeze_rule(nodes, weights) -> QuadratureRule1D:
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule1D(nodes=nodes, weights=weights)


def lagrange_values(nodes, x) -> np.ndarray:
    """Values of the Lagrange basis on ``nodes`` at points ``x``.

    Barycentric form; entry [..., i, j] is ell_j(x[..., i]).  Leading axes
    of ``nodes`` (..., m) and ``x`` (..., q) are batch axes.
    """
    nodes = np.asarray(nodes, dtype=float)
    x = np.asarray(x, dtype=float)
    diff = nodes[..., :, None] - nodes[..., None, :]
    diag = np.arange(nodes.shape[-1])
    diff[..., diag, diag] = 1.0
    bw = 1.0 / np.prod(diff, axis=-1)
    dx = x[..., :, None] - nodes[..., None, :]
    hit = dx == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = bw[..., None, :] / dx
        vals = terms / np.sum(terms, axis=-1, keepdims=True)
    vals[hit.any(axis=-1)] = 0.0
    vals[hit] = 1.0
    return vals


@dataclass(frozen=True)
class SideBatch:
    """Side j of E polygons that share their side pattern, in traversal order.

    ``start`` and ``end`` are the traversal endpoints, shape (E, 2).  A
    curved side also holds the curve of each polygon (the polygons may lie
    on different curves), the parameter interval (t0, t1) of each, shape
    (E,), and ``sign``, -1.0 where the traversal runs t1 -> t0.
    """

    start: np.ndarray
    end: np.ndarray
    curves: tuple = ()
    t0: np.ndarray | None = None
    t1: np.ndarray | None = None
    sign: np.ndarray | None = None

    @property
    def is_curved(self) -> bool:
        return bool(self.curves)

    @property
    def half(self) -> np.ndarray:
        """Half the parameter length, shape (E, 1)."""
        return (0.5 * (self.t1 - self.t0))[:, None]

    def rows(self, part: slice) -> SideBatch:
        """The side of polygons ``part`` of the batch, as views."""
        if not self.is_curved:
            return SideBatch(self.start[part], self.end[part])
        return SideBatch(self.start[part], self.end[part], self.curves[part],
                         self.t0[part], self.t1[part], self.sign[part])

    def params(self, nodes) -> np.ndarray:
        """Curve parameters of reference nodes in [-1, 1], shape (E, m)."""
        return (0.5 * (self.t0 + self.t1))[:, None] + self.half * nodes[None, :]

    def trace(self, t):
        """gamma(t) and gamma'(t), each (E, m, 2), one call per distinct curve."""
        return trace_curves(self.curves, t)


def trace_curves(curves, t):
    """gamma(t) and gamma'(t) with row i of ``t`` on ``curves[i]``.

    Each has shape t.shape + (2,); every distinct curve is evaluated in one
    call on all of its rows.
    """
    groups: dict[int, tuple] = {}
    for i, curve in enumerate(curves):
        groups.setdefault(id(curve), (curve, []))[1].append(i)
    gamma = np.empty(t.shape + (2,))
    dgamma = np.empty(t.shape + (2,))
    for curve, rows in groups.values():
        tt = t[rows]
        gamma[rows] = curve.eval(tt.ravel()).reshape(tt.shape + (2,))
        dgamma[rows] = curve.eval_derivative(tt.ravel()).reshape(tt.shape + (2,))
    return gamma, dgamma


def green_rule(sides, n_straight: int, n_curved: int):
    """Green-rule nodes and weights of E like polygons.

    ``sides`` is one ``SideBatch`` per side of the polygons, in traversal
    order, so the ``start`` rows of the sides are the polygons' corners.
    Straight sides use ``n_straight`` points per direction and curved sides
    ``n_curved``; the inner rules run from the vertical line x = alpha, the
    mean corner abscissa.  A straight side horizontal in every polygon
    carries no nodes; one horizontal in some polygons only gets zero
    weights there.  The polygons are taken as they are: element shape is
    checked once, by the ``Mesh`` constructor.  Returns x, y and w, each of
    shape (E, Q).
    """
    alpha = np.stack([side.start[:, 0] for side in sides], axis=1).mean(axis=1)[:, None, None]
    e = len(alpha)
    rule_s = gauss_legendre(n_straight)
    rule_c = gauss_legendre(n_curved) if n_curved else None
    xs, ys, ws = [], [], []
    for side in sides:
        if side.is_curved:
            # outer rule in parameter space; the traversal direction only
            # flips the sign of dy = gamma_2' dt
            rule = rule_c
            gamma, dgamma = side.trace(side.params(rule.nodes))
            xj, yj = gamma[..., 0], gamma[..., 1]
            scale = (side.sign[:, None] * side.half * 0.5)[:, :, None] * (xj[:, :, None] - alpha) \
                * dgamma[..., 1][:, :, None]
        else:
            if (side.start[:, 1] == side.end[:, 1]).all():
                continue
            rule = rule_s
            (x0, y0), (x1, y1) = side.start.T[:, :, None], side.end.T[:, :, None]
            xj = 0.5 * (x0 + x1) + 0.5 * (x1 - x0) * rule.nodes
            yj = 0.5 * (y0 + y1) + 0.5 * (y1 - y0) * rule.nodes
            scale = (0.25 * (y1 - y0))[:, :, None] * (xj[:, :, None] - alpha)
        nodes, vj = rule.nodes, rule.weights
        xm = 0.5 * (xj[:, :, None] + alpha) + 0.5 * (xj[:, :, None] - alpha) * nodes
        w = scale * vj[:, None] * vj[None, :]
        xs.append(xm.reshape(e, -1))
        ys.append(np.repeat(yj, len(nodes), axis=1))
        ws.append(w.reshape(e, -1))
    return np.concatenate(xs, axis=1), np.concatenate(ys, axis=1), np.concatenate(ws, axis=1)


def polygon_quadrature(vertices, M: int) -> QuadratureRule2D:
    """Green-rule quadrature on the straight polygon with CCW corners
    ``vertices`` (n, 2), exact for degree 2M.

    Uses (M+1)-point Gauss-Legendre rules in each direction, at most
    (M+1)^2 nodes per side.  Rejects clockwise and zero-area input by its
    shoelace area.
    """
    if M < 0:
        raise QuadratureError(f"polygon_quadrature: M={M} must be nonnegative")
    v = np.asarray(vertices, dtype=float)
    nxt = np.roll(v, -1, axis=0)
    area = 0.5 * np.sum(v[:, 0] * nxt[:, 1] - nxt[:, 0] * v[:, 1])
    scale = np.max(np.abs(v)) + 1.0
    if abs(area) < 1e-14 * scale * scale:
        raise QuadratureError("degenerate (zero-area) polygon")
    if area < 0.0:
        raise QuadratureError("polygon must be counterclockwise")
    sides = tuple(SideBatch(v[None, i], v[None, (i + 1) % len(v)]) for i in range(len(v)))
    x, y, w = green_rule(sides, M + 1, 0)
    return QuadratureRule2D(points=np.stack([x[0], y[0]], axis=-1), weights=w[0])


def rule_points(k: int, boost: int = BOOST) -> tuple[int, int]:
    """Points per direction of the Green rule of degree-k element computations.

    Straight sides get k (exact for degree 2k-2, the degree of products of
    gradients of degree-k polynomials); curved sides get k+1+boost, where
    the extra points compensate for the non-polynomial parametrization.
    """
    check_integer(QuadratureError, "rule_points: k", k, 1)
    check_integer(QuadratureError, "rule_points: boost", boost, 0)
    return k, k + 1 + boost
