"""Reference integration by subdivision, independent of the Green-rule path.

Two oracles used for audits and cross-checks:

* ``polygon_integrate``: ear-clipping triangulation plus a Duffy-mapped
  tensor Gauss rule per triangle, for straight polygons.
* ``fan_integrate``: centroid fan with transfinite blending maps, handling
  curved sides exactly through their parametrization.

Neither shares any machinery with ``quadrature``; agreement between the two
routes is what the quadrature audit checks.
"""

from __future__ import annotations

import numpy as np

from .quadrature import gauss_legendre


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def triangulate(vertices) -> list[tuple[int, int, int]]:
    """Ear-clipping triangulation of a simple CCW polygon.

    Returns index triples into ``vertices``; near-degenerate ears are
    clipped last so collinear corners do not stall the loop.
    """
    v = np.asarray(vertices, dtype=float)
    n = len(v)
    if n < 3:
        raise ValueError("polygon needs at least 3 vertices")
    scale = float(np.max(np.abs(v))) + 1.0
    eps = 1e-14 * scale * scale
    remaining = list(range(n))
    triangles = []
    while len(remaining) > 3:
        clipped = False
        for pos in range(len(remaining)):
            i0 = remaining[pos - 1]
            i1 = remaining[pos]
            i2 = remaining[(pos + 1) % len(remaining)]
            if _cross(v[i0], v[i1], v[i2]) <= eps:
                continue
            ear = True
            for j in remaining:
                if j in (i0, i1, i2):
                    continue
                d0 = _cross(v[i0], v[i1], v[j])
                d1 = _cross(v[i1], v[i2], v[j])
                d2 = _cross(v[i2], v[i0], v[j])
                if d0 > -eps and d1 > -eps and d2 > -eps:
                    ear = False
                    break
            if ear:
                triangles.append((i0, i1, i2))
                remaining.pop(pos)
                clipped = True
                break
        if not clipped:
            # only (near-)degenerate ears left; clip the least harmful one
            pos = max(range(len(remaining)),
                      key=lambda p: _cross(v[remaining[p - 1]], v[remaining[p]],
                                           v[remaining[(p + 1) % len(remaining)]]))
            triangles.append((remaining[pos - 1], remaining[pos],
                              remaining[(pos + 1) % len(remaining)]))
            remaining.pop(pos)
    triangles.append(tuple(remaining))
    return triangles


def _unit_interval_rule(n):
    rule = gauss_legendre(n)
    return 0.5 * (rule.nodes + 1.0), 0.5 * rule.weights


def triangle_integrate(p0, p1, p2, f, n=16) -> float:
    """Integral of f over one triangle via the Duffy-collapsed tensor rule."""
    p0 = np.asarray(p0, float)
    p1 = np.asarray(p1, float)
    p2 = np.asarray(p2, float)
    u, wu = _unit_interval_rule(n)
    v, wv = _unit_interval_rule(n)
    two_area = _cross(p0, p1, p2)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    px = (1 - uu) * p0[0] + uu * ((1 - vv) * p1[0] + vv * p2[0])
    py = (1 - uu) * p0[1] + uu * ((1 - vv) * p1[1] + vv * p2[1])
    w = np.outer(wu * u, wv) * two_area
    return float(np.sum(w * f(px, py)))


def polygon_integrate(vertices, f, n=16) -> float:
    """Integral of f over a simple CCW polygon by triangulation."""
    v = np.asarray(vertices, dtype=float)
    total = 0.0
    for i0, i1, i2 in triangulate(v):
        total += triangle_integrate(v[i0], v[i1], v[i2], f, n=n)
    return total


def _chord_centroid(vertices):
    x, y = vertices[:, 0], vertices[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * float(np.sum(cross))
    cx = float(np.sum((x + xn) * cross)) / (6.0 * area)
    cy = float(np.sum((y + yn) * cross)) / (6.0 * area)
    return np.array([cx, cy])


def fan_integrate(vertices, sides, f, n=32) -> float:
    """Integral of f over a curved polygon by a centroid fan.

    ``vertices`` is the chord polygon (n, 2) and ``sides`` its boundary as
    ``quadrature.SideBatch`` records of one polygon each, in CCW order.
    Each side sigma(u) spans a blended patch X(u, v) = c + v (sigma(u) - c)
    with signed Jacobian v sigma'(u) x (sigma(u) - c); summed over sides
    this reproduces the region integral for any simple CCW loop.  f must
    be defined on the convex hull of the element and centroid.
    """
    c = _chord_centroid(np.asarray(vertices, dtype=float))
    u, wu = _unit_interval_rule(n)
    v, wv = _unit_interval_rule(n)
    total = 0.0
    for side in sides:
        if side.curves:
            t0, t1 = side.t0[0], side.t1[0]
            if side.sign[0] < 0:
                t = t1 + u * (t0 - t1)
                dt = t0 - t1
            else:
                t = t0 + u * (t1 - t0)
                dt = t1 - t0
            curve = side.curves[0]
            sigma = curve.eval(t)
            dsigma = curve.eval_derivative(t) * dt
        else:
            p0 = side.start[0]
            direction = side.end[0] - p0
            sigma = p0[None, :] + u[:, None] * direction[None, :]
            dsigma = np.broadcast_to(direction, sigma.shape)
        rel = sigma - c[None, :]
        jac_u = dsigma[:, 0] * rel[:, 1] - dsigma[:, 1] * rel[:, 0]
        px = c[0] + np.outer(v, rel[:, 0])
        py = c[1] + np.outer(v, rel[:, 1])
        w = np.outer(v * wv, -jac_u * wu)
        total += float(np.sum(w * f(px, py)))
    return total
