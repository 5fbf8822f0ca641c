"""Independent numerical oracles used only by the tests.

Deliberately built on different algorithms than the package (adaptive
Simpson instead of Gauss-Kronrod, explicit recursion instead of library
calls) so a shared bug cannot hide.  ``traced_peak`` is the one tool
the memory tests share; ``recorded_rows`` reads the recorded outputs that
the CLI's errors are checked against; ``respelled`` rewrites the text of a
mesh file in the other spellings of its line grammar; ``mixed_mesh`` turns a
test1 mesh into one of curved triangles and hexagons; ``contrast_problem``
is test2's interface problem at any diffusion contrast.

The quadrature audit, acceptance checks 1 and 7, compares the package's
Green rules with two subdivision oracles that share only the Gauss-Legendre
nodes with them: ``polygon_integrate`` triangulates a straight polygon and
``fan_integrate`` fans a curved element out from its chord centroid.
"""

import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np

from curvem import ManufacturedProblem, Mesh, circle_curve, test1_problem, test2_problem
from curvem.quadrature import BOOST, gauss_legendre, polygon_quadrature
from curvem.vem import element_chunks

# The recorded outputs of `curvem run test1-curved` and `curvem run test2` at
# defaults, the rows the benchmark checks its runs against.  A change that
# is meant to move them re-records them there, and nowhere else.
RECORDED = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

# CG stops at a relative residual of 1e-12, so its errors are not those of
# an exact solve of the same system.  On the levels pinned in test_kernel.py
# they differ by at most 4.5e-11 relative (test1 at k = 2), which this bound
# exceeds 22x.  At test1's k = 3, n = 32, which no test pins, they differ by
# 4.5e-9.
EXACT_SOLVE_RTOL = 1e-9


def recorded_rows(experiment, k, ns):
    """The recorded rows of ``experiment`` at degree k, one per level of ns."""
    rows = [row for row in json.loads(RECORDED.read_text(encoding="utf-8"))["cli"][experiment]
            if row["k"] == k and row["n"] in ns]
    assert [row["n"] for row in rows] == list(ns)
    return rows


def respelled(text):
    """``text`` with CRLF line ends, a comment-only line and a blank line
    before each of its lines and a trailing comment after each, as bytes."""
    return "".join(f"# note {i}\r\n \t\r\n{line}  # trailing = 0\r\n"
                   for i, line in enumerate(text.splitlines())).encode("utf-8")


def traced_peak(run):
    """Peak bytes ``run()`` holds above what was held when it started, as
    tracemalloc counts them; tracing is restored to its state before."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


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


def contrast_problem(beta):
    """test2's interface problem at contrast beta, on test2's meshes.

    kappa = beta outside r = 1/2 (label 1) and 1 inside (label 2), with
    f = beta outside and 1 inside, so -lap u = 1 on both sides:
    u = A - r^2/4 inside and u = 1/4 - r^2/4 + C ln r outside, with
    C = (beta - 1) / (8 beta) and A = 1/4 - C ln 2.  For every beta, u is
    continuous across the interface, its flux kappa du/dr is -1/4 on both
    sides of it, and it vanishes on the unit circle.
    """
    c = (beta - 1.0) / (8.0 * beta)
    a = 0.25 - c * np.log(2.0)

    def outer(x, y):
        r2 = x * x + y * y
        g = c / r2 - 0.5
        return 0.25 - 0.25 * r2 + 0.5 * c * np.log(r2), g * x, g * y

    def inner(x, y):
        return a - 0.25 * (x * x + y * y), -0.5 * x, -0.5 * y

    return ManufacturedProblem(
        name=f"contrast-{beta:g}", mesh_factory=test2_problem().mesh_factory,
        diffusion={1: beta, 2: 1.0}, solution={1: outer, 2: inner},
        source={1: lambda x, y: np.full(np.shape(x), beta), 2: lambda x, y: np.ones(np.shape(x))},
        boundary=lambda x, y: np.zeros(np.shape(x)))


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


def mixed_mesh(quads):
    """A test1 mesh of even level n (``build_mapped_tensor_mesh``) made into
    one of triangles and hexagons through the ``Mesh`` array constructor.

    In even rows each pair of horizontally adjacent quads merges into a
    hexagon, whose middle corners sit on the grid lines; in odd rows each
    quad splits along its rising diagonal into two triangles.  The curved
    sides of the bottom row go to hexagons, those of the top row to
    triangles.  Vertices keep their ids, the edges still used keep their
    order and the diagonals follow them.
    """
    n = int(round(np.sqrt(len(quads.labels))))
    assert n * n == len(quads.labels) and n % 2 == 0

    def right(i, j):  # edge (i, j) -> (i + 1, j)
        return j * n + i

    def up(i, j):  # edge (i, j) -> (i, j + 1)
        return n * (n + 1) + i * n + j

    diagonals, loops = [], []  # each loop a list of (edge, sign)
    for j in range(n):
        if j % 2 == 0:
            loops += [[(right(i, j), 1), (right(i + 1, j), 1), (up(i + 2, j), 1),
                       (right(i + 1, j + 1), -1), (right(i, j + 1), -1), (up(i, j), -1)]
                      for i in range(0, n, 2)]
            continue
        for i in range(n):
            diagonal = len(quads.edge_vertices) + len(diagonals)
            diagonals.append((j * (n + 1) + i, (j + 1) * (n + 1) + i + 1))
            loops.append([(right(i, j), 1), (up(i + 1, j), 1), (diagonal, -1)])
            loops.append([(diagonal, 1), (right(i, j + 1), -1), (up(i, j), -1)])
    edges = np.array([edge for loop in loops for edge, _ in loop])
    kept = np.unique(edges)
    renumber = np.full(len(quads.edge_vertices) + len(diagonals), -1)
    renumber[kept] = np.arange(len(kept))
    n_diagonals = len(diagonals)
    return Mesh(quads.points, np.concatenate([quads.edge_vertices, diagonals])[kept],
                np.concatenate([quads.edge_curves, np.full(n_diagonals, None)])[kept],
                np.concatenate([quads.edge_params, np.full((n_diagonals, 2), np.nan)])[kept],
                np.cumsum([0] + [len(loop) for loop in loops]), renumber[edges],
                [sign for loop in loops for _, sign in loop], np.ones(len(loops)))


def blockwise_dofs(mesh, k, elements):
    """Like ``element_dofs``, in the blockwise numbering, which leaves the
    boundary DoFs in place: vertex v is DoF v, interior DoF j of edge e is
    nv + e (k-1) + j, and moment beta of element p is nv + ne (k-1) + p nm +
    beta."""
    elements = np.asarray(elements, dtype=np.int64)
    nv, ne, nm = len(mesh.points), len(mesh.edge_vertices), k * (k - 1) // 2
    (n,) = set(np.diff(mesh.loop_offsets)[elements].tolist())
    rows = mesh.loop_offsets[elements, None] + np.arange(n)
    out = np.empty((len(elements), n, k), dtype=np.int64)
    out[:, :, 0] = mesh.loop_corners[rows]
    if k > 1:
        j = np.arange(k - 1)
        along = np.where(mesh.loop_signs[rows][:, :, None] > 0, j, k - 2 - j)
        out[:, :, 1:] = nv + mesh.loop_edges[rows][:, :, None] * (k - 1) + along
    moments = nv + ne * (k - 1) + elements[:, None] * nm + np.arange(nm)
    return np.concatenate([out.reshape(len(elements), n * k), moments], axis=1)


def blockwise_on_boundary(mesh, k):
    """Which DoFs of the blockwise numbering lie on the boundary, from the
    records: the boundary vertices and the k-1 DoFs of each boundary edge."""
    counts = np.bincount([edge for element in mesh.elements for edge, _ in element.edge_loop],
                         minlength=len(mesh.edges))
    on_vertices = np.array([vertex.on_boundary for vertex in mesh.vertices], dtype=bool)
    return np.concatenate([on_vertices, np.repeat(counts == 1, k - 1),
                           np.zeros(len(mesh.elements) * (k * (k - 1) // 2), dtype=bool)])


def boundary_last(mesh, k):
    """The package's DoF of each DoF of the blockwise numbering: the
    blockwise one with its boundary DoFs moved to the end, so interior
    vertices, interior edges' DoFs and moments come first and the boundary
    vertices and boundary edges' DoFs last, each part in its blockwise
    order."""
    on_boundary = blockwise_on_boundary(mesh, k)
    renumber = np.empty(len(on_boundary), dtype=np.int64)
    renumber[np.argsort(on_boundary, kind="stable")] = np.arange(len(on_boundary))
    return renumber


def element_dofs(mesh, k, elements):
    """Global DoFs of like elements in the local layout, shape (E, n_dof):
    ``blockwise_dofs`` renumbered by ``boundary_last``.

    Each corner is followed by the interior DoFs of its outgoing edge,
    reversed where the side runs against the edge; the moments come last.
    """
    return boundary_last(mesh, k)[blockwise_dofs(mesh, k, elements)]


def chunk_partition(mesh, elements):
    """``elements`` grouped by signature, one element at a time.

    An element's signature has one code per side: curved (0), horizontal
    straight (1) or other straight (2), the corners read from the edges'
    endpoints.  Returns (signature, members) pairs, signatures in order of
    first appearance, members in the order of ``elements``, repeats kept.
    """
    groups = {}
    for p in elements:
        sides = range(mesh.loop_offsets[p], mesh.loop_offsets[p + 1])
        corners = [mesh.edge_vertices[mesh.loop_edges[j]][0 if mesh.loop_signs[j] > 0 else 1]
                   for j in sides]
        y = [float(mesh.points[v, 1]) for v in corners]
        signature = tuple(0 if mesh.edge_curved[mesh.loop_edges[j]]
                          else 1 if y[i] == y[(i + 1) % len(y)] else 2
                          for i, j in enumerate(sides))
        groups.setdefault(signature, []).append(int(p))
    return list(groups.items())


def lexsort_stiffness(mesh, k, coeff, boost=2):
    """The global stiffness matrix by the earlier triplet pipeline.

    Lower-triangle rows and columns are kept as separate arrays in element
    order, sorted by ``np.lexsort``, summed per entry with
    ``np.add.reduceat``, turned into CSR through a COO round trip and
    mirrored.  The element operators come from the package's kernel.
    """
    from scipy import sparse

    from curvem.solver import build_dof_map
    from curvem.vem import ChunkOperators, element_chunks

    dof_map = build_dof_map(mesh, k)
    total = dof_map.total
    per_element = {}
    for chunk in element_chunks(mesh, k):
        ops = ChunkOperators(chunk, boost)
        gdofs = element_dofs(mesh, k, chunk.elements)
        stiffness = ops.stiffness([coeff.kappa(label) for label in chunk.labels.tolist()])
        iu, ju = np.triu_indices(chunk.n_dof)
        for i, element in enumerate(chunk.elements.tolist()):
            a, b = gdofs[i, iu], gdofs[i, ju]
            per_element[element] = (np.maximum(a, b), np.minimum(a, b), stiffness[i, iu, ju])
    rows, cols, vals = (np.concatenate([per_element[e][j] for e in sorted(per_element)])
                        for j in range(3))
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    boundary = np.nonzero((rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1]))[0] + 1
    starts = np.concatenate([[0], boundary])
    lower = sparse.csr_matrix((np.add.reduceat(vals, starts), (rows[starts], cols[starts])),
                              shape=(total, total))
    return (lower + lower.T - sparse.diags(lower.diagonal())).tocsr()


# ---------------------------------------------------------------------------
# the quadrature audit: Green rules against subdivision oracles

POLYGON_AUDIT_TOL = 1e-12
DISK_AUDIT_TOL = 1e-10
CURVED_MONOMIAL_TOL = 1e-9
MONOTONICITY_FLOOR = 1e-13


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


def random_star_polygon(rng: np.random.Generator) -> np.ndarray:
    """Random simple polygon: star-shaped, in the positive quadrant.

    Positive coordinates keep monomial integrals away from cancellation, so
    relative comparisons against the oracle stay meaningful.
    """
    nv = int(rng.integers(5, 11))
    angles = (np.arange(nv) + rng.uniform(0.15, 0.85, nv)) * 2.0 * np.pi / nv
    radii = rng.uniform(0.3, 0.9, nv)
    center = rng.uniform(1.0, 1.5, 2)
    return center[None, :] + radii[:, None] * np.stack(
        [np.cos(angles), np.sin(angles)], axis=-1)


def monomial_integrands(degree: int):
    """x^a y^b for each basis exponent pair (a, b) up to ``degree``."""
    return [lambda x, y, a=a, b=b: x ** a * y ** b for a, b in _basis_exponents(degree)]


def audit_polygon_exactness(m_list, trials: int, seed: int):
    """Worst relative deviation from the triangulation oracle per (M, trial)."""
    rng = np.random.default_rng(seed)
    rows = []
    for m_order in m_list:
        monomials = monomial_integrands(2 * m_order)
        for trial in range(trials):
            verts = random_star_polygon(rng)
            rule = polygon_quadrature(verts, m_order)
            oracles = polygon_integrate(verts, monomials, n=max(12, m_order + 1))
            worst = 0.0
            for f, oracle in zip(monomials, oracles):
                worst = max(worst, abs(rule.integrate(f) - oracle) / max(abs(oracle), 1e-30))
            rows.append((m_order, trial, worst))
    return rows


def quarter_disk_mesh() -> Mesh:
    """Unit disk split into four quarter elements with exactly curved arcs."""
    circle = circle_curve("Gamma", (0.0, 0.0), 1.0)
    ts = [0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi, 2.0 * np.pi]
    # edges: the spokes from the center, then the arcs
    return Mesh([np.zeros(2)] + [circle.eval(t) for t in ts[:4]],
                [(0, 1 + q) for q in range(4)] + [(1 + q, 1 + (q + 1) % 4) for q in range(4)],
                [None] * 4 + [circle] * 4, [(np.nan, np.nan)] * 4 + list(zip(ts, ts[1:])),
                3 * np.arange(5), [e for q in range(4) for e in (q, 4 + q, (q + 1) % 4)],
                [1, 1, -1] * 4, [1] * 4)


def audit_disk_area() -> float:
    """Absolute gap between pi and the degree-4 quadrature area of the quarter-disk mesh."""
    mesh = quarter_disk_mesh()
    areas = [0.0] * len(mesh.labels)
    for chunk in element_chunks(mesh, 4):
        x, y, w = chunk.rule(4, BOOST)
        for i, p in enumerate(chunk.elements.tolist()):
            areas[p] = float(w[i] @ np.ones(x.shape[1]))
    return abs(sum(areas) - float(np.pi))


def audit_curved_elements(boosts=(0, 2, 4, 6)):
    """``{(element name, boost): [(a, b, rel), ...]}``, the relative gaps between the
    degree-3 rule and the fan oracle for x^a y^b up to degree 4, on the first test1
    n=4 element (gently curved) and a quarter disk (strongly curved).  Each
    element's oracle is computed once, for every boost."""
    monomials = monomial_integrands(4)
    elements = (("test1-element", test1_problem().mesh_factory(4)),
                ("quarter-disk", quarter_disk_mesh()))
    table = {}
    for name, mesh in elements:
        chunk = element_chunks(mesh, 3, [0])[0]
        oracles = fan_integrate(chunk.sides, monomials, n=32)
        for boost in boosts:
            x, y, w = chunk.rule(3, boost)
            table[name, boost] = [
                (a, b, abs(float(w[0] @ f(x[0], y[0])) - oracle) / max(abs(oracle), 1e-30))
                for (a, b), f, oracle in zip(_basis_exponents(4), monomials, oracles)]
    return table


def monotone_within_floor(errs, floor: float = MONOTONICITY_FLOOR) -> bool:
    return all(errs[i + 1] <= errs[i] or errs[i + 1] <= floor
               for i in range(len(errs) - 1))
