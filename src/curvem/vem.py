"""Local virtual element operators on polygons with curved sides.

For local degree k the element space has degree-k polynomial traces on
straight edges, degree-k polynomial-in-parameter traces on curved edges,
and Laplacian in P_{k-2}.  Its functions are known only through degrees of
freedom: vertex values, values at the k-1 interior Gauss-Lobatto points of
each edge (placed in the curve parameter on curved edges), and scaled
interior moments against the monomials of degree <= k-2.

An element's local DoFs are its corners, each followed by the interior DoFs
of its outgoing edge in traversal order, then its moments.  This module
alone knows the global numbering (``_numbering``): vertex values, then the
k-1 interior DoFs of each edge in the edge's canonical v0 -> v1 direction,
so the two elements that share an edge agree on them, then the moments
element by element, each block in id order, with the boundary vertices and
edges moved behind everything else by a stable partition.  The Dirichlet
DoFs are thus the trailing block, and the unknowns the leading
``DofMap.n_unknowns`` DoFs.  ``ElementChunk.dofs`` is the one map from the
local layout to the global one.

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
element alone.  For the same reason the error integration, whose rule has
the most points, runs on slices of at most ``_SLICE_SIZE`` elements of a
chunk (``ElementChunk.slices``), which bound its memory.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields, replace
from typing import Callable, Iterator, Mapping

import numpy as np

from .mesh import Mesh, curve_points
from .quadrature import (BOOST, SideBatch, gauss_legendre, gauss_lobatto, green_rule,
                         lagrange_values, rule_points)


class ElementOperatorError(Exception):
    """Raised when an element's problem data is missing or not real, or its
    local projector system is singular or ill-conditioned."""


_COND_LIMIT = 1e13
# the conditioning screen of ChunkOperators._check errs by far less than
# this factor, so an element it passes has a condition number under _COND_LIMIT
_SCREEN_LIMIT = _COND_LIMIT / 10.0

CHUNK_SIZE = 128  # elements per kernel batch; bounds the kernel's memory
# elements per slice of a chunk (ElementChunk.slices); bounds the memory of
# the error integration, whose degree-(k+2) rule has the most points
_SLICE_SIZE = 32


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


def global_dof_count(mesh: Mesh, k: int) -> int:
    """DoFs of the degree-k space on ``mesh``."""
    return len(mesh.points) + len(mesh.edge_vertices) * (k - 1) + len(mesh.labels) * n_moments(k)


def _numbering(mesh: Mesh, k: int):
    """The first DoF of each vertex, of each edge's interior DoFs and of each
    element's moments: vertices, edges and elements, holding 1, k-1 and
    ``n_moments(k)`` DoFs, in that block order, stably partitioned by their
    boundary flag (no element is on the boundary)."""
    counts = len(mesh.points), len(mesh.edge_vertices), len(mesh.labels)
    widths = np.repeat([1, k - 1, n_moments(k)], counts)
    on_boundary = np.concatenate([mesh.vertex_on_boundary, mesh.edge_on_boundary,
                                  np.zeros(counts[2], dtype=bool)])
    order = np.argsort(on_boundary, kind="stable")
    first = np.empty(len(order), dtype=np.int64)
    first[order] = np.cumsum(widths[order]) - widths[order]
    return np.split(first, np.cumsum(counts[:2]))


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


@dataclass
class DofMap:
    """Global facts of the numbering: its size and the boundary DoFs'
    locations.  The boundary DoFs are its trailing block, so the unknowns
    are the leading ``n_unknowns``."""

    n_elements: int
    total: int
    boundary_points: np.ndarray

    @property
    def n_unknowns(self) -> int:
        return self.total - len(self.boundary_points)

    @property
    def boundary_dofs(self) -> np.ndarray:
        return np.arange(self.n_unknowns, self.total)


def build_dof_map(mesh: Mesh, k: int) -> DofMap:
    """Count the DoFs of the degree-k space and locate the boundary ones in
    the order of ``_numbering``: the boundary vertices, then the boundary
    edges' DoFs, each in id order."""
    vertices = np.flatnonzero(mesh.vertex_on_boundary)
    edges = np.flatnonzero(mesh.edge_on_boundary) if k > 1 else np.empty(0, dtype=np.int64)
    _, points = edge_dof_points(mesh, edges, k)
    return DofMap(n_elements=len(mesh.labels), total=global_dof_count(mesh, k),
                  boundary_points=np.concatenate([mesh.points[vertices], points.reshape(-1, 2)]))


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

    ``diffusion`` is a single positive number or a mapping label -> kappa
    (``kappa`` checks that the value is a real number, ``solver.assemble``
    that every value it reads is positive and finite);
    ``source`` is a vectorized callable f(x, y) or a mapping label -> callable
    for data with subdomain-dependent smooth branches.
    """

    diffusion: Mapping[int, float] | float = 1.0
    source: Callable | Mapping[int, Callable] | None = None

    def kappa(self, label: int) -> float:
        value = _for_label(self.diffusion, label, "diffusion value")
        # bool is an int to Python, and numpy's bool is no number at all
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            raise ElementOperatorError(
                f"label {label}: diffusion must be a real number, got {value!r}")
        return float(value)

    def source_for(self, label: int):
        if self.source is None:
            return lambda x, y: np.zeros(np.shape(x))
        return _for_label(self.source, label, "source")


def _values(f, x, y, what: str, count: int = 1):
    """f at points (x, y) of any shape, called on flattened arrays.

    Returns an array shaped like x, or a tuple of ``count`` of them when
    ``count`` > 1, where f must return a tuple of that length.  Each value
    must be a real scalar or one real number per point; otherwise raises
    ``ElementOperatorError`` naming ``what``.
    """
    out = f(x.ravel(), y.ravel())
    if count > 1 and not (isinstance(out, tuple) and len(out) == count):
        got = f"a tuple of {len(out)}" if isinstance(out, tuple) else type(out).__name__
        raise ElementOperatorError(f"{what} must return a tuple of {count} arrays, got {got}")
    arrays = []
    for o in out if count > 1 else (out,):
        o = np.asarray(o)
        if o.ndim and o.shape != (x.size,):
            raise ElementOperatorError(f"{what} must give a scalar or {x.size} values, one "
                                       f"per point, got shape {o.shape}")
        if o.dtype.kind not in "iuf":
            raise ElementOperatorError(f"{what} must give real numbers, got dtype {o.dtype}")
        arrays.append(np.broadcast_to(o.astype(float, copy=False), (x.size,)).reshape(x.shape))
    return tuple(arrays) if count > 1 else arrays[0]


@dataclass(frozen=True, eq=False)
class ElementChunk:
    """Geometry and DoF layout of up to ``CHUNK_SIZE`` like elements.

    Per-element arrays stack along a leading axis of length E, in the order
    of ``elements``; ``n`` is the shared edge count.  Side j runs from
    corner j to corner j+1, so the ``start`` rows of the sides are the
    corners.
    """

    k: int
    elements: np.ndarray    # (E,) element ids
    labels: np.ndarray      # (E,)
    dofs: np.ndarray        # (E, n_dof) global DoFs in local order
    sides: tuple            # n SideBatch
    lengths: np.ndarray     # (E, n) edge lengths, arc length on curved edges
    center: np.ndarray      # (E, 2) chord centroids
    h: np.ndarray           # (E,) diameters
    area: np.ndarray        # (E,)
    dof_points: np.ndarray  # (E, n k, 2) boundary DoF locations in local order

    @property
    def n_bnd(self) -> int:
        return len(self.sides) * self.k

    @property
    def n_dof(self) -> int:
        return self.dofs.shape[1]

    def slices(self) -> Iterator[tuple[slice, ElementChunk]]:
        """The chunk in consecutive parts of at most ``_SLICE_SIZE`` elements.

        Yields (rows, part) pairs: ``part`` is the chunk of elements
        ``rows``, every per-element array and side a view of this chunk's.
        Per-element results are the same bits in any part (see ``rule``).
        """
        for start in range(0, len(self.elements), _SLICE_SIZE):
            rows = slice(start, start + _SLICE_SIZE)
            yield rows, replace(self, sides=tuple(side.rows(rows) for side in self.sides),
                                **{f.name: getattr(self, f.name)[rows] for f in fields(self)
                                   if f.name not in ("k", "sides")})

    def rule(self, k: int, boost: int = BOOST):
        """Green rule of degree-k computations on every element of the chunk.

        Point counts per direction come from ``rule_points(k, boost)``.
        Returns x, y and w of shape (E, Q); row i is element i's rule, the
        same bits in a chunk of any size.
        """
        return green_rule(self.sides, *rule_points(k, boost))

    def _scaled(self, x, y):
        h = self.h[:, None]
        return (x - self.center[:, 0, None]) / h, (y - self.center[:, 1, None]) / h

    def basis(self, x, y) -> np.ndarray:
        """Scaled monomials of degree <= k at points (E, m): shape (E, m, dim)."""
        return _monomials(self.k, *self._scaled(x, y))

    def basis_grad(self, x, y):
        """``basis`` values and their x and y derivatives, three (E, m, dim) arrays."""
        return _monomials(self.k, *self._scaled(x, y), self.h[:, None])

    def by_label(self, lookup: Callable, x, y, what: str, count: int = 1):
        """Evaluate ``lookup(label)`` at each element's points (x, y), shape (E, m).

        Returns ``count`` such arrays as a tuple when ``count`` > 1; the
        checks of ``_values`` raise ``ElementOperatorError`` naming the
        label and ``what``.
        """
        out = tuple(np.empty(x.shape) for _ in range(count))
        for label in np.unique(self.labels):
            rows = self.labels == label
            vals = _values(lookup(int(label)), x[rows], y[rows], f"label {label}: {what}", count)
            for o, v in zip(out, vals if count > 1 else (vals,)):
                o[rows] = v
        return out if count > 1 else out[0]

    def interpolate(self, u, boost: int = BOOST) -> np.ndarray:
        """DoF vectors of a smooth function: point values plus scaled moments."""
        e = len(self.elements)
        out = np.empty((e, self.n_dof))
        pts = self.dof_points.reshape(-1, 2)
        out[:, :self.n_bnd] = _values(u, pts[:, 0], pts[:, 1], "u").reshape(e, self.n_bnd)
        nm = n_moments(self.k)
        if nm:
            x, y, w = self.rule(self.k + 2, boost)
            vals = self.basis(x, y)[..., :nm]
            out[:, self.n_bnd:] = ((w * _values(u, x, y, "u"))[:, None, :] @ vals)[:, 0] \
                / self.area[:, None]
        return out


def _gather(mesh: Mesh, k: int, numbering, codes: np.ndarray, ids: np.ndarray) -> ElementChunk:
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

    # boundary DoFs and their points: each corner, then the interior DoFs of
    # its outgoing edge, which a side against the edge's direction walks
    # in reverse
    vertex_dofs, edge_first, moment_first = numbering
    e, nm = len(ids), n_moments(k)
    dofs = np.empty((e, n, k), dtype=np.int64)
    points = np.empty((e, n, k, 2))
    dofs[:, :, 0] = vertex_dofs[vertex_ids]
    points[:, :, 0] = vertices
    if k > 1:
        j = np.arange(k - 1)
        along = np.where(signs[..., None] > 0, j, k - 2 - j)
        dofs[:, :, 1:] = edge_first[edge_ids][..., None] + along
        inner = edge_dof_points(mesh, edge_ids, k)[1]
        points[:, :, 1:] = np.take_along_axis(inner, along[..., None], axis=2)
    moments = moment_first[ids, None] + np.arange(nm)

    return ElementChunk(
        k=k, elements=ids, labels=mesh.labels[ids],
        dofs=np.concatenate([dofs.reshape(e, n * k), moments], axis=1),
        sides=tuple(sides),
        lengths=mesh.edge_lengths[edge_ids], center=mesh.centroids[ids],
        h=mesh.diameters[ids], area=mesh.areas[ids],
        dof_points=points.reshape(e, n * k, 2))


def element_chunks(mesh: Mesh, k: int, elements=None) -> list[ElementChunk]:
    """Chunks of at most ``CHUNK_SIZE`` like elements covering ``elements``.

    Like elements share a signature: the edge count and, for each side j,
    whether it is curved (0), horizontal straight (1) or other straight
    (2).  ``elements`` defaults to the whole mesh.  Chunks come grouped by
    signature, signatures in order of first appearance, and each chunk
    keeps the order of ``elements``.
    """
    ids = (np.arange(len(mesh.labels)) if elements is None
           else np.asarray(elements, dtype=np.int64).reshape(-1))
    sizes = np.diff(mesh.loop_offsets)[ids]
    groups = []  # (side codes, positions in ids)
    for n in np.unique(sizes).tolist():
        at = np.flatnonzero(sizes == n)
        rows = mesh.loop_offsets[ids[at], None] + np.arange(n)
        y = mesh.points[mesh.loop_corners[rows], 1]
        codes = np.where(mesh.edge_curved[mesh.loop_edges[rows]], 0,
                         np.where(y == np.roll(y, -1, axis=1), 1, 2))
        unique, inverse = np.unique(codes, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        groups += [(signature, at[inverse == g]) for g, signature in enumerate(unique)]
    groups.sort(key=lambda group: group[1][0])
    numbering = _numbering(mesh, k)
    return [_gather(mesh, k, numbering, codes, ids[at[i:i + CHUNK_SIZE]])
            for codes, at in groups for i in range(0, len(at), CHUNK_SIZE)]


class ChunkOperators:
    """Projectors of one chunk of like elements; stiffness and load on request.

    The G, B and D matrices of the Hitchhiker's-guide construction, built
    for all elements of the chunk at once.
    """

    def __init__(self, chunk: ElementChunk, boost: int = BOOST):
        self.chunk = chunk
        self.boost = boost
        x, y, w = chunk.rule(chunk.k, boost)
        vals, gx, gy = chunk.basis_grad(x, y)
        wc = w[..., None]
        self.g_tilde = gx.mT @ (gx * wc) + gy.mT @ (gy * wc)
        self.mass_rect = vals[..., :n_moments(chunk.k)].mT @ (vals * wc)
        self._projectors(*self._boundary_terms())

    def _boundary_terms(self):
        """Flux matrix, boundary averages of DoFs and of monomials."""
        chunk, k = self.chunk, self.chunk.k
        e, nk, n_bnd = len(chunk.elements), len(_exponents(k)), chunk.n_bnd
        b_flux = np.zeros((e, nk, chunk.n_dof))
        bavg = np.zeros((e, chunk.n_dof))
        mavg = np.zeros((e, nk))
        lobatto = gauss_lobatto(k + 1)
        legendre = gauss_legendre(rule_points(k, self.boost)[1])
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

    def _check(self, matrices, what: str):
        """Raise for the first element whose ``matrices`` member has a
        condition number over the limit.

        The screen ||G||_F ||G^-1||_F, ``np.linalg.cond(G, "fro")``, is at
        least the 2-norm condition number and infinite for a singular G.
        Only the members it flags get the exact (SVD) condition number,
        which decides and is the one the message reports.
        """
        (rows,) = np.nonzero(~(np.linalg.cond(matrices, "fro") <= _SCREEN_LIMIT))
        cond = np.linalg.cond(matrices[rows])
        bad = ~(cond <= _COND_LIMIT)
        if bad.any():
            i = int(np.argmax(bad))
            raise ElementOperatorError(
                f"element {self.chunk.elements[rows[i]]}: {what} has condition {cond[i]:.3e}")

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
        self._check(g_mat, "H1 projector system")
        self.pi_nabla = np.linalg.solve(g_mat, b_mat)

        d_mat = np.empty((e, n_dof, nk))
        d_mat[:, :n_bnd] = chunk.basis(chunk.dof_points[..., 0], chunk.dof_points[..., 1])
        if nm:
            d_mat[:, n_bnd:] = self.mass_rect / chunk.area[:, None, None]
            self._check(self.mass_rect[..., :nm], "moment mass matrix")
            self.pi0 = np.zeros((e, nm, n_dof))
            self.pi0[:, :, n_bnd:] = chunk.area[:, None, None] * np.linalg.inv(
                self.mass_rect[..., :nm])
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
        rule, exact to degree 2k+2 on straight sides.  A source value that
        is not finite raises ``ElementOperatorError`` naming its label.
        """
        chunk, k = self.chunk, self.chunk.k
        x, y, w = chunk.rule(k + 2, self.boost)
        fvals = chunk.by_label(source_for, x, y, "source")
        finite = np.isfinite(fvals)
        if not finite.all():
            e, q = np.argwhere(~finite)[0]
            raise ElementOperatorError(
                f"label {chunk.labels[e]}: source must be finite, got {fvals[e, q]} "
                f"at ({x[e, q]:.17g}, {y[e, q]:.17g})")
        moments = ((w * fvals)[:, None, :] @ chunk.basis(x, y))[:, 0]
        nm = max(n_moments(k), 1)
        lead = (self.pi0.mT @ moments[:, :nm, None])[..., 0]
        if k == 1:
            return lead
        coeff = np.linalg.solve(self.mass_rect[..., :nm], moments[:, :nm, None])
        residual = moments - (self.mass_rect.mT @ coeff)[..., 0]
        return lead + (self.pi_nabla.mT @ residual[..., None])[..., 0]


def local_operators(mesh: Mesh, element_id: int, k: int, boost: int = BOOST) -> ChunkOperators:
    """Operators of one element: ``ChunkOperators`` of a chunk of one.

    Row 0 of every stack holds the same bits as the element's row in any
    larger chunk.
    """
    return ChunkOperators(element_chunks(mesh, k, [element_id])[0], boost)
