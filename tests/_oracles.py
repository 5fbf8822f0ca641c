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


def element_loop_geometry(mesh):
    """Edge lengths and element areas, centroids and diameters, one element
    at a time: the loop ``Mesh.build`` ran before it computed them as arrays.

    Reads the ``Vertex``, ``Edge`` and ``Element`` objects only.  Returns
    (lengths, areas, centroids, diameters, h).
    """
    from curvem.geometry import arc_length
    from curvem.quadrature import gauss_legendre

    def positions(ids):
        return np.array([mesh.vertices[i].position for i in ids])

    def traversal_endpoints(edge_id, sign):
        edge = mesh.edges[edge_id]
        return (edge.v0, edge.v1) if sign > 0 else (edge.v1, edge.v0)

    def edge_samples(edge, n=8):
        seg = edge.segment
        t = np.linspace(seg.t0, seg.t1, n + 2)[1:-1]
        return seg.curve.eval(t)

    rule = gauss_legendre(24)
    lengths = []
    for edge in mesh.edges:
        p0 = mesh.vertices[edge.v0].position
        p1 = mesh.vertices[edge.v1].position
        if edge.segment is None:
            lengths.append(float(np.hypot(*(p1 - p0))))
        else:
            lengths.append(arc_length(edge.segment))

    areas, centroids, diameters = [], [], []
    for element in mesh.elements:
        verts = positions([traversal_endpoints(eid, sign)[0] for eid, sign in element.edge_loop])
        x, y = verts[:, 0], verts[:, 1]
        xn, yn = np.roll(x, -1), np.roll(y, -1)
        cross = x * yn - xn * y
        chord_area = 0.5 * float(np.sum(cross))
        centroids.append(np.array([float(np.sum((x + xn) * cross)),
                                   float(np.sum((y + yn) * cross))]) / (6.0 * chord_area))

        alpha = float(np.mean(x))
        area = 0.0
        pts = [verts]
        for eid, sign in element.edge_loop:
            edge = mesh.edges[eid]
            a, b = traversal_endpoints(eid, sign)
            pa, pb = mesh.vertices[a].position, mesh.vertices[b].position
            if edge.segment is None:
                area += (0.5 * (pa[0] + pb[0]) - alpha) * (pb[1] - pa[1])
            else:
                seg = edge.segment
                half = 0.5 * (seg.t1 - seg.t0)
                t = 0.5 * (seg.t0 + seg.t1) + half * rule.nodes
                gamma = seg.curve.eval(t)
                dgamma = seg.curve.eval_derivative(t)
                area += sign * half * float(
                    rule.weights @ ((gamma[:, 0] - alpha) * dgamma[:, 1]))
                pts.append(edge_samples(edge))
        areas.append(area)
        cloud = np.concatenate(pts, axis=0)
        diff = cloud[:, None, :] - cloud[None, :, :]
        diameters.append(float(np.sqrt(np.max(np.sum(diff * diff, axis=-1)))))
    return (np.array(lengths), np.array(areas), np.array(centroids), np.array(diameters),
            max(diameters))


def _power_table(t, n):
    out = np.ones(np.shape(t) + (n + 1,))
    for a in range(1, n + 1):
        out[..., a] = out[..., a - 1] * t
    return out


def _basis_exponents(degree):
    return [(a, d - a) for d in range(degree + 1) for a in range(d + 1)]


def monomials(degree, xi, eta):
    """xi^a eta^b over the basis exponents, shape xi.shape + (dim,).

    Values alone, each as one product of two powers: the bits the kernel's
    combined evaluation of values and gradients must reproduce.
    """
    exponents = _basis_exponents(degree)
    xp, yp = _power_table(xi, degree), _power_table(eta, degree)
    out = np.empty(np.shape(xi) + (len(exponents),))
    for i, (a, b) in enumerate(exponents):
        out[..., i] = xp[..., a] * yp[..., b]
    return out


def monomial_gradients(degree, xi, eta, h):
    """x and y derivatives of the monomials of scale ``h``, without the values."""
    exponents = _basis_exponents(degree)
    xp, yp = _power_table(xi, degree), _power_table(eta, degree)
    gx = np.zeros(np.shape(xi) + (len(exponents),))
    gy = np.zeros(np.shape(xi) + (len(exponents),))
    for i, (a, b) in enumerate(exponents):
        if a:
            gx[..., i] = a / h * xp[..., a - 1] * yp[..., b]
        if b:
            gy[..., i] = b / h * xp[..., a] * yp[..., b - 1]
    return gx, gy


def first_problem_formulas():
    """exact, gradient and source of the first test problem, one formula each.

    The hand-written formulas with every term evaluated where it is used,
    as the package wrote them before it shared their subexpressions.
    """

    def g1(x):
        return np.sin(np.pi * x) / 20.0

    def g2(x):
        return 1.0 + np.sin(3.0 * np.pi * x) / 20.0

    def dg1(x):
        return np.pi * np.cos(np.pi * x) / 20.0

    def dg2(x):
        return 3.0 * np.pi * np.cos(3.0 * np.pi * x) / 20.0

    def ddg1(x):
        return -np.pi ** 2 * np.sin(np.pi * x) / 20.0

    def ddg2(x):
        return -9.0 * np.pi ** 2 * np.sin(3.0 * np.pi * x) / 20.0

    def wf(x, y):
        return 3.0 + np.sin(5.0 * x) * np.sin(7.0 * y)

    def exact(x, y):
        return -(y - g1(x)) * (y - g2(x)) * wf(x, y)

    def gradient(x, y):
        p = (y - g1(x)) * (y - g2(x))
        px = -dg1(x) * (y - g2(x)) - dg2(x) * (y - g1(x))
        py = 2.0 * y - g1(x) - g2(x)
        w = wf(x, y)
        wx = 5.0 * np.cos(5.0 * x) * np.sin(7.0 * y)
        wy = 7.0 * np.sin(5.0 * x) * np.cos(7.0 * y)
        return -(px * w + p * wx), -(py * w + p * wy)

    def source(x, y):
        p = (y - g1(x)) * (y - g2(x))
        px = -dg1(x) * (y - g2(x)) - dg2(x) * (y - g1(x))
        pxx = -ddg1(x) * (y - g2(x)) - ddg2(x) * (y - g1(x)) + 2.0 * dg1(x) * dg2(x)
        py = 2.0 * y - g1(x) - g2(x)
        w = wf(x, y)
        wx = 5.0 * np.cos(5.0 * x) * np.sin(7.0 * y)
        wy = 7.0 * np.sin(5.0 * x) * np.cos(7.0 * y)
        lap_w = -74.0 * np.sin(5.0 * x) * np.sin(7.0 * y)
        return (pxx + 2.0) * w + 2.0 * (px * wx + py * wy) + p * lap_w

    return exact, gradient, source


def textbook_cg(matrix, b, tol, maxiter):
    """Jacobi-preconditioned CG, each update written as a new array."""
    diag = matrix.diagonal()
    bnorm = float(np.linalg.norm(b))
    x = np.zeros_like(b)
    r = b.copy()
    z = r / diag
    p = z.copy()
    rz = float(r @ z)
    for _ in range(maxiter):
        ap = matrix @ p
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        if float(np.linalg.norm(r)) <= tol * bnorm:
            return x
        z = r / diag
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise RuntimeError("textbook_cg did not converge")
