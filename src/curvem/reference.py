"""Reference integration by subdivision, independent of the Green-rule path.

Two oracles used for audits and cross-checks; each subdivides its region
once and returns one float per integrand of the sequence ``fs``:

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


def _integrals(pieces, fs) -> list[float]:
    """Per f, the sum of w * f(px, py) over the (px, py, w) pieces, in order."""
    totals = []
    for f in fs:
        total = 0.0
        for px, py, w in pieces:
            total += float(np.sum(w * f(px, py)))
        totals.append(total)
    return totals


def polygon_integrate(vertices, fs, n=16) -> list[float]:
    """Integrals of each f in ``fs`` over a simple CCW polygon: one
    triangulation, each triangle by the Duffy-collapsed tensor rule."""
    v = np.asarray(vertices, dtype=float)
    u, wu = _unit_interval_rule(n)
    uu, vv = np.meshgrid(u, u, indexing="ij")
    pieces = []
    for p0, p1, p2 in (v[list(tri)] for tri in triangulate(v)):
        px = (1 - uu) * p0[0] + uu * ((1 - vv) * p1[0] + vv * p2[0])
        py = (1 - uu) * p0[1] + uu * ((1 - vv) * p1[1] + vv * p2[1])
        pieces.append((px, py, np.outer(wu * u, wu) * _cross(p0, p1, p2)))
    return _integrals(pieces, fs)


def _chord_centroid(vertices):
    x, y = vertices[:, 0], vertices[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * float(np.sum(cross))
    cx = float(np.sum((x + xn) * cross)) / (6.0 * area)
    cy = float(np.sum((y + yn) * cross)) / (6.0 * area)
    return np.array([cx, cy])


def fan_integrate(sides, fs, n=32) -> list[float]:
    """Integrals of each f in ``fs`` over a curved polygon by one centroid fan.

    ``sides`` is the polygon's boundary as ``quadrature.SideBatch`` records
    of one polygon each, in CCW order; their ``start`` points are the
    corners of the chord polygon, whose centroid c is the fan's center.
    Each side sigma(u) spans a blended patch X(u, v) = c + v (sigma(u) - c)
    with signed Jacobian v sigma'(u) x (sigma(u) - c); summed over sides
    this reproduces the region integral for any simple CCW loop.  Each f
    must be defined on the convex hull of the element and centroid.
    """
    c = _chord_centroid(np.array([side.start[0] for side in sides], dtype=float))
    u, wu = _unit_interval_rule(n)
    pieces = []
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
        # the radial coordinate v runs over the same nodes as u
        pieces.append((c[0] + np.outer(u, rel[:, 0]), c[1] + np.outer(u, rel[:, 1]),
                       np.outer(u * wu, -jac_u * wu)))
    return _integrals(pieces, fs)
