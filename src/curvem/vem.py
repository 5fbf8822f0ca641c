"""Local virtual element operators on polygons with curved sides.

For local degree k the element space has degree-k polynomial traces on
straight edges, degree-k polynomial-in-parameter traces on curved edges,
and Laplacian in P_{k-2}.  Its functions are known only through degrees of
freedom: vertex values, values at the k-1 interior Gauss-Lobatto points of
each edge (placed in the curve parameter on curved edges), and scaled
interior moments against the monomials of degree <= k-2.

Polynomials are generally *not* contained in the local space on curved
elements, so all consistency runs through projections onto P_k computed
from the DoFs alone: the H1-seminorm projector (pinned by the boundary
average), and the L2 projector available from the interior moments.  The
local stiffness is the projected bilinear form plus a dofi-dofi
stabilization of the projection complement; the local load pairs the
source with the L2 projection of the test function.

Boundary integrals against monomials are exact Gauss-Lobatto sums on
straight edges; on curved edges the trace is the Lagrange interpolant of
the DoF values in the curve parameter, integrated with a boosted
Gauss-Legendre rule.  Interior integrals use the Green-rule quadrature of
:mod:`curvem.quadrature`.

All of it runs on chunks of at most ``CHUNK_SIZE`` like elements
(``element_chunks``): elements with the same edge count, the same curved
sides and the same horizontal straight sides, whose quadrature rules and
local matrices therefore have equal shapes and stack along a leading axis.
Every product is a stacked ``np.matmul`` whose operands have the layout of
the per-element product, so an element's operators are the same bits
whichever chunk computes them; ``local_operators`` builds them for one
element alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .mesh import Mesh, curve_points
from .quadrature import (SideBatch, gauss_legendre, gauss_lobatto, green_rule,
                         lagrange_values, rule_points)


class ElementOperatorError(Exception):
    """Raised when a local projector system is singular or ill-conditioned."""


_COND_LIMIT = 1e13

CHUNK_SIZE = 128  # elements per kernel batch; bounds the kernel's memory


def _exponents(degree: int) -> list[tuple[int, int]]:
    return [(a, d - a) for d in range(degree + 1) for a in range(d + 1)]


def _powers(t, n):
    out = np.ones(np.shape(t) + (n + 1,))
    for a in range(1, n + 1):
        out[..., a] = out[..., a - 1] * t
    return out


def _monomials(degree, xi, eta, h=None):
    """xi^a eta^b over the basis exponents, shape xi.shape + (dim,).

    With the scale ``h`` (broadcasting against xi), returns (values, gx, gy):
    the values and their x and y derivatives from one table of powers.
    """
    exponents = _exponents(degree)
    xp, yp = _powers(xi, degree), _powers(eta, degree)
    out = np.empty(np.shape(xi) + (len(exponents),))
    for i, (a, b) in enumerate(exponents):
        out[..., i] = xp[..., a] * yp[..., b]
    if h is None:
        return out
    gx, gy = np.zeros(out.shape), np.zeros(out.shape)
    for i, (a, b) in enumerate(exponents):
        if a:
            gx[..., i] = a / h * xp[..., a - 1] * yp[..., b]
        if b:
            gy[..., i] = b / h * xp[..., a] * yp[..., b - 1]
    return out, gx, gy


def n_moments(k: int) -> int:
    return k * (k - 1) // 2


def dof_count(n_edges: int, k: int) -> int:
    """DoFs of one element with n_edges sides."""
    return n_edges * k + n_moments(k)


def edge_dof_points(mesh: Mesh, edge_ids, k: int):
    """Interior edge DoF locations in each edge's canonical v0 -> v1 order.

    ``edge_ids`` is an edge index or an array of them.  Returns (params,
    points) of shapes edge_ids.shape + (k-1,) and + (k-1, 2): params are
    curve parameters on curved edges and reference coordinates in (-1, 1)
    on straight ones.
    """
    ids = np.asarray(edge_ids, dtype=np.int64)
    flat = ids.reshape(-1)
    nodes = gauss_lobatto(k + 1).nodes[1:-1] if k > 1 else np.empty(0)
    ends = mesh.points[mesh.edge_vertices[flat]]
    p0, p1 = ends[:, :1], ends[:, 1:]
    points = p0 + 0.5 * (nodes[:, None] + 1.0) * (p1 - p0)
    params = np.broadcast_to(nodes, (len(flat), len(nodes))).copy()
    curved = np.flatnonzero(mesh.edge_curved[flat])
    if len(curved):
        t0, t1 = mesh.edge_params[flat[curved]].T[..., None]
        params[curved] = 0.5 * (t0 + t1) + 0.5 * (t1 - t0) * nodes
        points[curved] = curve_points(mesh, flat[curved], params[curved])[0]
    return params.reshape(ids.shape + nodes.shape), points.reshape(ids.shape + (len(nodes), 2))


def _for_label(table, label: int, what: str):
    """``table`` itself, or its entry for ``label`` when it is a mapping.

    A mapping without the label raises ``ElementOperatorError`` naming
    ``what`` and the label.
    """
    if not isinstance(table, Mapping):
        return table
    try:
        return table[label]
    except KeyError:
        raise ElementOperatorError(f"no {what} for label {label}") from None


@dataclass(frozen=True)
class Coefficient:
    """Problem data: piecewise-constant diffusion and source by element label.

    ``diffusion`` is a single positive number or a mapping label -> kappa;
    ``source`` is a vectorized callable f(x, y) or a mapping label -> callable
    for data with subdomain-dependent smooth branches.
    """

    diffusion: Mapping[int, float] | float = 1.0
    source: Callable | Mapping[int, Callable] | None = None

    def kappa(self, label: int) -> float:
        value = float(_for_label(self.diffusion, label, "diffusion value"))
        if not value > 0.0:
            raise ElementOperatorError(f"diffusion must be positive, got {value}")
        return value

    def source_for(self, label: int):
        if self.source is None:
            return lambda x, y: np.zeros(np.shape(x))
        return _for_label(self.source, label, "source")


def _values(f, x, y):
    """f at points (x, y) of any shape, called on flattened arrays.

    Returns an array shaped like x, or a tuple of them when f returns one.
    """
    out = f(x.ravel(), y.ravel())
    if isinstance(out, tuple):
        return tuple(np.broadcast_to(np.asarray(o, dtype=float), (x.size,)).reshape(x.shape)
                     for o in out)
    return np.broadcast_to(np.asarray(out, dtype=float), (x.size,)).reshape(x.shape)


@dataclass(frozen=True, eq=False)
class ElementChunk:
    """Geometry and DoF layout of up to ``CHUNK_SIZE`` like elements.

    Per-element arrays stack along a leading axis of length E, in the order
    of ``elements``; ``n`` is the shared edge count.  Side j runs from
    corner j to corner j+1.
    """

    k: int
    elements: np.ndarray    # (E,) element ids
    labels: np.ndarray      # (E,)
    vertex_ids: np.ndarray  # (E, n)
    edge_ids: np.ndarray    # (E, n)
    signs: np.ndarray       # (E, n) +1 where side j runs from its edge's v0 to v1
    vertices: np.ndarray    # (E, n, 2) corner positions
    sides: tuple            # n SideBatch
    lengths: np.ndarray     # (E, n) edge lengths, arc length on curved edges
    center: np.ndarray      # (E, 2) chord centroids
    h: np.ndarray           # (E,) diameters
    area: np.ndarray        # (E,)
    dof_points: np.ndarray  # (E, n k, 2) boundary DoF locations in local order

    @property
    def n_bnd(self) -> int:
        return self.vertex_ids.shape[1] * self.k

    @property
    def n_dof(self) -> int:
        return dof_count(self.vertex_ids.shape[1], self.k)

    def rule(self, k: int, boost: int):
        """Green rule of degree-k computations on every element of the chunk.

        Point counts per direction come from ``rule_points(k, boost)``.
        Returns x, y and w of shape (E, Q); row i is element i's rule, the
        same bits in a chunk of any size.
        """
        return green_rule(self.vertices, self.sides, *rule_points(k, boost))

    def _scaled(self, x, y):
        h = self.h[:, None]
        return (x - self.center[:, 0, None]) / h, (y - self.center[:, 1, None]) / h

    def basis(self, x, y) -> np.ndarray:
        """Scaled monomials of degree <= k at points (E, m): shape (E, m, dim)."""
        return _monomials(self.k, *self._scaled(x, y))

    def basis_grad(self, x, y):
        """``basis`` values and their x and y derivatives, three (E, m, dim) arrays."""
        return _monomials(self.k, *self._scaled(x, y), self.h[:, None])

    def by_label(self, lookup: Callable, x, y):
        """Evaluate ``lookup(label)`` at each element's points (x, y), shape (E, m)."""
        out = None
        for label in np.unique(self.labels):
            rows = self.labels == label
            vals = _values(lookup(int(label)), x[rows], y[rows])
            vals = vals if isinstance(vals, tuple) else (vals,)
            if out is None:
                out = tuple(np.empty(x.shape) for _ in vals)
            for o, v in zip(out, vals):
                o[rows] = v
        return out if len(out) > 1 else out[0]

    def interpolate(self, u, boost: int = 2) -> np.ndarray:
        """DoF vectors of a smooth function: point values plus scaled moments."""
        e = len(self.elements)
        out = np.empty((e, self.n_dof))
        pts = self.dof_points.reshape(-1, 2)
        out[:, :self.n_bnd] = _values(u, pts[:, 0], pts[:, 1]).reshape(e, self.n_bnd)
        nm = n_moments(self.k)
        if nm:
            x, y, w = self.rule(self.k + 2, boost)
            vals = self.basis(x, y)[..., :nm]
            out[:, self.n_bnd:] = ((w * _values(u, x, y))[:, None, :] @ vals)[:, 0] \
                / self.area[:, None]
        return out


def _signature_groups(mesh: Mesh, ids: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Elements ``ids`` grouped by signature: (side codes, members) pairs.

    Side j of a signature is curved (0), horizontal straight (1) or other
    straight (2).  Signatures come in order of first appearance, members in
    the order of ``ids``.
    """
    sizes = np.diff(mesh.loop_offsets)[ids]
    key = np.empty(len(ids), dtype=np.int64)
    table = []
    for n in np.unique(sizes).tolist():
        at = np.flatnonzero(sizes == n)
        rows = mesh.loop_offsets[ids[at], None] + np.arange(n)
        y = mesh.points[mesh.loop_corners[rows], 1]
        codes = np.where(mesh.edge_curved[mesh.loop_edges[rows]], 0,
                         np.where(y == np.roll(y, -1, axis=1), 1, 2))
        unique, inverse = np.unique(codes, axis=0, return_inverse=True)
        key[at] = len(table) + inverse.reshape(-1)
        table.extend(unique)
    groups, first, inverse, counts = np.unique(key, return_index=True, return_inverse=True,
                                               return_counts=True)
    by_first = np.argsort(first)
    rank = np.empty(len(groups), dtype=np.int64)
    rank[by_first] = np.arange(len(groups))
    members = ids[np.argsort(rank[inverse.reshape(-1)], kind="stable")]
    return [(table[groups[g]], part) for g, part in
            zip(by_first, np.split(members, np.cumsum(counts[by_first])[:-1]))]


def _gather(mesh: Mesh, k: int, codes: np.ndarray, ids: np.ndarray) -> ElementChunk:
    n = len(codes)
    rows = mesh.loop_offsets[ids, None] + np.arange(n)
    edge_ids = mesh.loop_edges[rows]
    signs = mesh.loop_signs[rows]
    vertex_ids = mesh.loop_corners[rows]
    vertices = mesh.points[vertex_ids]
    sides = []
    for j in range(n):
        start, end = vertices[:, j], vertices[:, (j + 1) % n]
        if codes[j] == 0:
            t0, t1 = mesh.edge_params[edge_ids[:, j]].T
            sides.append(SideBatch(
                start, end, curves=tuple(mesh.edge_curves[edge_ids[:, j]]),
                t0=t0, t1=t1, sign=signs[:, j].astype(float)))
        else:
            sides.append(SideBatch(start, end))

    # boundary DoF points: each corner, then the interior Gauss-Lobatto
    # points of its outgoing edge, walked in traversal order
    points = np.empty((len(ids), n, k, 2))
    points[:, :, 0] = vertices
    if k > 1:
        inner = edge_dof_points(mesh, edge_ids, k)[1]
        points[:, :, 1:] = np.where(signs[..., None, None] > 0, inner, inner[:, :, ::-1])

    return ElementChunk(
        k=k, elements=ids, labels=mesh.labels[ids], vertex_ids=vertex_ids,
        edge_ids=edge_ids, signs=signs, vertices=vertices, sides=tuple(sides),
        lengths=mesh.edge_lengths[edge_ids], center=mesh.centroids[ids],
        h=mesh.diameters[ids], area=mesh.areas[ids],
        dof_points=points.reshape(len(ids), n * k, 2))


def element_chunks(mesh: Mesh, k: int, elements=None) -> list[ElementChunk]:
    """Chunks of at most ``CHUNK_SIZE`` like elements covering ``elements``.

    ``elements`` defaults to the whole mesh.  Each chunk keeps the order of
    ``elements``; chunks come grouped by signature, signatures in order of
    first appearance.
    """
    ids = (np.arange(len(mesh.labels)) if elements is None
           else np.asarray(elements, dtype=np.int64).reshape(-1))
    return [_gather(mesh, k, codes, members[i:i + CHUNK_SIZE])
            for codes, members in _signature_groups(mesh, ids)
            for i in range(0, len(members), CHUNK_SIZE)]


class ChunkOperators:
    """Projectors of one chunk of like elements; stiffness and load on request.

    The G, B and D matrices of the Hitchhiker's-guide construction, built
    for all elements of the chunk at once.
    """

    def __init__(self, chunk: ElementChunk, boost: int = 2):
        self.chunk = chunk
        self.boost = boost
        nm = n_moments(chunk.k)
        x, y, w = chunk.rule(chunk.k, boost)
        vals, gx, gy = chunk.basis_grad(x, y)
        wc = w[..., None]
        self.g_tilde = gx.mT @ (gx * wc) + gy.mT @ (gy * wc)
        if nm:
            self.mass_rect = vals[..., :nm].mT @ (vals * wc)
        else:
            self.mass_rect = np.empty((len(chunk.elements), 0, gx.shape[-1]))
        self._projectors(*self._boundary_terms())

    def _boundary_terms(self):
        """Flux matrix, boundary averages of DoFs and of monomials."""
        chunk, k = self.chunk, self.chunk.k
        e, nk, n_bnd = len(chunk.elements), len(_exponents(k)), chunk.n_bnd
        b_flux = np.zeros((e, nk, chunk.n_dof))
        bavg = np.zeros((e, chunk.n_dof))
        mavg = np.zeros((e, nk))
        lobatto = gauss_lobatto(k + 1)
        legendre = gauss_legendre(k + 1 + self.boost)
        for piece, side in enumerate(chunk.sides):
            slots = list(range(piece * k, piece * k + k)) + [(piece + 1) * k % n_bnd]
            if side.is_curved:
                t_dof = side.params(lobatto.nodes)
                t_dof = np.where(side.sign[:, None] < 0, t_dof[:, ::-1], t_dof)
                tq = side.params(legendre.nodes)
                wq = side.half * legendre.weights
                trace = lagrange_values(t_dof, tq)
                gamma, dgamma = side.trace(tq)
                vals, gx, gy = chunk.basis_grad(gamma[..., 0], gamma[..., 1])
                flux = side.sign[:, None, None] * (gx * dgamma[..., 1, None]
                                                   - gy * dgamma[..., 0, None])
                wspeed = wq * np.hypot(dgamma[..., 0], dgamma[..., 1])
                for col, slot in enumerate(slots):
                    b_flux[:, :, slot] += ((wq * trace[..., col])[:, None, :] @ flux)[:, 0]
                    bavg[:, slot] += np.vecdot(wspeed, trace[..., col])
                mavg += (wspeed[:, None, :] @ vals)[:, 0]
            else:
                pa, pb = side.start[:, None, :], side.end[:, None, :]
                pts = pa + 0.5 * (lobatto.nodes[:, None] + 1.0) * (pb - pa)
                length = chunk.lengths[:, piece, None]
                w = 0.5 * length * lobatto.weights
                d = (side.end - side.start) / length
                vals, gx, gy = chunk.basis_grad(pts[..., 0], pts[..., 1])
                flux = gx * d[:, 1, None, None] + gy * (-d[:, 0])[:, None, None]
                for row, slot in enumerate(slots):
                    b_flux[:, :, slot] += w[:, row, None] * flux[:, row]
                    bavg[:, slot] += w[:, row]
                mavg += (w[:, None, :] @ vals)[:, 0]
        return b_flux, bavg, mavg

    def _check(self, cond, what: str) -> None:
        bad = ~(cond <= _COND_LIMIT)
        if bad.any():
            i = int(np.argmax(bad))
            raise ElementOperatorError(
                f"element {self.chunk.elements[i]}: {what} has condition {cond[i]:.3e}")

    def _projectors(self, b_flux, bavg, mavg):
        chunk, k = self.chunk, self.chunk.k
        e, nk, n_dof, n_bnd = len(chunk.elements), b_flux.shape[1], chunk.n_dof, chunk.n_bnd
        nm = n_moments(k)
        perimeter = chunk.lengths[:, 0]
        for j in range(1, chunk.lengths.shape[1]):
            perimeter = perimeter + chunk.lengths[:, j]
        perimeter = perimeter[:, None]

        b_mat = b_flux
        h2 = chunk.h * chunk.h
        index = {ab: i for i, ab in enumerate(_exponents(k))}
        for alpha, (a, b) in enumerate(_exponents(k)):
            if a >= 2:
                b_mat[:, alpha, n_bnd + index[a - 2, b]] -= a * (a - 1) / h2 * chunk.area
            if b >= 2:
                b_mat[:, alpha, n_bnd + index[a, b - 2]] -= b * (b - 1) / h2 * chunk.area
        b_mat[:, 0, :] = bavg / perimeter

        g_mat = self.g_tilde.copy()
        g_mat[:, 0, :] = mavg / perimeter
        self._check(np.linalg.cond(g_mat), "H1 projector system")
        self.pi_nabla = np.linalg.solve(g_mat, b_mat)

        d_mat = np.empty((e, n_dof, nk))
        d_mat[:, :n_bnd] = chunk.basis(chunk.dof_points[..., 0], chunk.dof_points[..., 1])
        if nm:
            d_mat[:, n_bnd:] = self.mass_rect / chunk.area[:, None, None]
            h_mat = self.mass_rect[..., :nm]
            self._check(np.linalg.cond(h_mat), "moment mass matrix")
            self.pi0 = np.zeros((e, nm, n_dof))
            self.pi0[:, :, n_bnd:] = chunk.area[:, None, None] * np.linalg.inv(h_mat)
        else:
            # degree 1: the only computable constant projection is the
            # average of the boundary DoFs
            self.pi0 = np.full((e, 1, n_dof), 1.0 / n_dof)
        self.d_mat = d_mat

    def stiffness(self, kappa) -> np.ndarray:
        """Local stiffness matrices for per-element diffusion ``kappa`` (E,)."""
        consistency = self.pi_nabla.mT @ self.g_tilde @ self.pi_nabla
        residual = np.eye(self.chunk.n_dof) - self.d_mat @ self.pi_nabla
        k_mat = np.asarray(kappa, dtype=float)[:, None, None] * (consistency + residual.mT @ residual)
        return 0.5 * (k_mat + k_mat.mT)

    def load(self, source_for: Callable) -> np.ndarray:
        """Load vectors for (f, v), with ``source_for(label)`` giving f.

        The leading term pairs the projection of f onto P_{k-2} with the
        exact interior moments of v (the boundary average of v for k = 1).
        That term alone caps the L2 rate of the lowest orders, so the
        projection residual of f is paired with the H1 projection of v as
        a correction.  The correction vanishes whenever f lies in P_{k-2},
        keeping polynomial solutions with polynomial sources reproduced to
        solver precision.  The source is integrated with the degree-(k+2)
        rule, exact to degree 2k+2 on straight sides.
        """
        chunk, k = self.chunk, self.chunk.k
        x, y, w = chunk.rule(k + 2, self.boost)
        fvals = chunk.by_label(source_for, x, y)
        moments = ((w * fvals)[:, None, :] @ chunk.basis(x, y))[:, 0]
        nm = max(n_moments(k), 1)
        lead = (self.pi0.mT @ moments[:, :nm, None])[..., 0]
        if k == 1:
            return lead
        coeff = np.linalg.solve(self.mass_rect[..., :nm], moments[:, :nm, None])
        residual = moments - (self.mass_rect.mT @ coeff)[..., 0]
        return lead + (self.pi_nabla.mT @ residual[..., None])[..., 0]


def local_operators(mesh: Mesh, element_id: int, k: int, boost: int = 2) -> ChunkOperators:
    """Operators of one element: ``ChunkOperators`` of a chunk of one.

    Row 0 of every stack holds the same bits as the element's row in any
    larger chunk.
    """
    return ChunkOperators(element_chunks(mesh, k, [element_id])[0], boost)
