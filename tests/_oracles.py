"""Independent numerical oracles used only by the tests.

Deliberately built on different algorithms than the package (adaptive
Simpson instead of Gauss-Kronrod, explicit recursion instead of library
calls) so a shared bug cannot hide.
"""

import itertools

import numpy as np


def simpson_arc_length(curve, t0, t1, tol=1e-12, max_depth=40):
    """Adaptive Simpson integration of the curve speed over [t0, t1]."""

    def speed(t):
        d = curve.eval_derivative(np.array([t]))[0]
        return float(np.hypot(d[0], d[1]))

    def simpson(a, b, fa, fm, fb):
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, b, fa, fm, fb, whole, eps, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = speed(lm), speed(rm)
        left = simpson(a, m, fa, flm, fm)
        right = simpson(m, b, fm, frm, fb)
        if depth <= 0:
            return left + right
        if abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (recurse(a, m, fa, flm, fm, left, 0.5 * eps, depth - 1)
                + recurse(m, b, fm, frm, fb, right, 0.5 * eps, depth - 1))

    fa, fb = speed(t0), speed(t1)
    fm = speed(0.5 * (t0 + t1))
    whole = simpson(t0, t1, fa, fm, fb)
    return recurse(t0, t1, fa, fm, fb, whole, tol, max_depth)


def shoelace_area(vertices):
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def finite_difference_gradient(f, x, y, h=1e-6):
    return ((f(x + h, y) - f(x - h, y)) / (2.0 * h),
            (f(x, y + h) - f(x, y - h)) / (2.0 * h))


def finite_difference_laplacian(f, x, y, h=1e-5):
    return (f(x + h, y) + f(x - h, y) + f(x, y + h) + f(x, y - h)
            - 4.0 * f(x, y)) / (h * h)


def kernel_chebyshev_radius(polygon):
    """Radius of the largest disk in the kernel of a CCW polygon (0 if empty).

    Vertex enumeration instead of an LP.  The disk of radius r around c lies
    left of side i when u_i . c - r >= u_i . p_i (u_i the inward unit normal).
    The largest r is reached where three side lines are at distance r from
    c, so every triple of side lines is solved as a 3x3 system and the
    feasible solution with the largest r is kept.
    """
    p = np.asarray(polygon, dtype=float)
    d = np.roll(p, -1, axis=0) - p
    length = np.hypot(d[:, 0], d[:, 1])
    keep = length > 0.0
    unit = np.stack([-d[keep, 1], d[keep, 0]], axis=-1) / length[keep, None]
    offset = np.sum(unit * p[keep], axis=1)
    triples = np.array(list(itertools.combinations(range(len(unit)), 3)))
    mat = np.concatenate([unit[triples], -np.ones(triples.shape + (1,))], axis=-1)
    regular = np.abs(np.linalg.det(mat)) > 1e-12
    sol = np.linalg.solve(mat[regular], offset[triples][regular][..., None])[..., 0]
    slack = sol[:, :2] @ unit.T - sol[:, 2:] - offset
    scale = np.max(np.ptp(p, axis=0))
    feasible = np.all(slack >= -1e-12 * scale, axis=1) & (sol[:, 2] >= 0.0)
    return float(np.max(sol[feasible, 2], initial=0.0))
