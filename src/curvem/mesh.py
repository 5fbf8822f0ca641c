"""Polygonal meshes whose edges may be exact curve segments.

A mesh is a set of flat arrays (V vertices, N edges, P elements, L element
sides in all).  Its input arrays are

* ``points`` (V, 2), the vertex positions;
* ``edge_vertices`` (N, 2), the endpoints of each edge; ``edge_curves``
  (N,), the ``BoundaryCurve`` an edge follows (None on straight edges), and
  ``edge_params`` (N, 2), the curve parameters (t0, t1) of curved edges
  (nan on straight ones);
* the element loops in one ragged layout: the sides of element p are rows
  ``loop_offsets[p]:loop_offsets[p + 1]`` of ``loop_edges`` and
  ``loop_signs``, each a counterclockwise loop of signed edge references
  (sign +1 = traversal from the edge's first vertex to its second);
* ``labels`` (P,), the element labels.

The ``Mesh`` constructor checks them: shapes and lengths that agree (offsets
rising from 0 to L, side signs of +1 or -1), finite input, and conformity (each
edge joins two distinct vertices, a curved one at its curve's points; each
element is a closed loop of at least 3 distinct edges; each edge is used by
one element, or by two in opposite directions; each vertex is on an edge,
so every DoF belongs to an element).  It derives, once and in one
vectorized pass,

* ``vertex_on_boundary`` (V,), ``edge_on_boundary`` (N,) and
  ``edge_curved`` (N,);
* ``edge_lengths`` (N,), arc lengths on curved edges;
* ``loop_corners`` (L,), the vertex each side starts at;
* ``areas``, ``centroids`` (P, 2) of the chord polygons and ``diameters``
  (P,), taken over each element's boundary polyline (corners plus 8 samples
  per curved side).

The arrays are the mesh: the generators and ``mesh_io.parse_mesh`` build
them directly, and the solver, the validation and ``mesh_io.format_mesh``
read them.  The frozen ``Vertex``, ``Edge`` and ``Element`` records are
input to ``Mesh.build``, which turns them into arrays, and a read-only view
of a built mesh (``mesh.vertices``, ``mesh.edges``, ``mesh.elements``),
made on first access; editing a view record does not change the mesh.  The
derived arrays reproduce an element-by-element loop bit for bit: elements
are grouped by edge count, side contributions to an area are added in loop
order, and each curved side keeps its own 24-point dot product (see the
README's notes on floating-point reproducibility).

Two structured generators cover the solver's test domains: a tensor grid
mapped between two boundary graphs, and a polar grid on the unit disk with
an exactly curved internal interface circle.  Unstructured (e.g. Voronoi)
meshes enter through ``mesh_io.import_mesh``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Real

import numpy as np

from ._checks import check_integer
from .geometry import BoundaryCurve, CurveSegment, GeometryError, arc_length, circle_curve
from .quadrature import gauss_legendre, trace_curves

_ENDPOINT_TOL = 1e-12
_INT64 = np.iinfo(np.int64)
_CURVE_SAMPLES = 8
# Entries per block of every walk over the elements' polylines: (element,
# point pair) of the diameters, (element, point) of the polylines and
# (element, side triple, side) of validate_mesh's kernel vertex enumeration;
# bounds their memory.
_SLACKS_PER_BLOCK = 1 << 16
# A disk counts as inside a side when it crosses it by at most this much, in
# units of the element diameter.
_SLACK_TOL = 1e-12


class MeshError(Exception):
    """Raised for non-conforming or degenerate meshes."""


@dataclass(frozen=True)
class Vertex:
    position: np.ndarray
    on_boundary: bool = False
    curve_ref: tuple[str, float] | None = None


@dataclass(frozen=True)
class Edge:
    v0: int
    v1: int
    segment: CurveSegment | None = None

    @property
    def is_curved(self) -> bool:
        return self.segment is not None


@dataclass(frozen=True)
class Element:
    edge_loop: list[tuple[int, int]]
    label: int = 1


class Mesh:
    """A finalized mesh: the arrays of the module docstring, the curves of
    its curved edges by id (``curves``) and the largest element diameter
    (``h``)."""

    def __init__(self, points, edge_vertices, edge_curves, edge_params,
                 loop_offsets, loop_edges, loop_signs, labels):
        """Check and finalize a mesh given as its input arrays; raises MeshError."""
        self.points = _array(points, "points", float, 2)
        self.edge_vertices = _array(edge_vertices, "edge_vertices", int, 2)
        self.edge_curves = _array(edge_curves, "edge_curves", object)
        self.edge_curved = np.array([c is not None for c in self.edge_curves], dtype=bool)
        self.edge_params = _array(edge_params, "edge_params", float, 2)
        self.loop_offsets = _array(loop_offsets, "loop_offsets", int)
        self.loop_edges = _array(loop_edges, "loop_edges", int)
        self.loop_signs = _array(loop_signs, "loop_signs", int)
        self.labels = _array(labels, "labels", int)
        _check_layout(self)
        errors = _finite_errors(self) or _conformity_errors(self)
        if errors:
            raise MeshError("; ".join(errors[:5]))
        _derive_topology(self)
        _derive_geometry(self)

    @classmethod
    def build(cls, vertices, edges, elements) -> "Mesh":
        """Finalize a mesh from entity records; raises MeshError."""
        edges, elements = list(edges), list(elements)
        params = np.array([(np.nan, np.nan) if edge.segment is None
                           else (edge.segment.t0, edge.segment.t1) for edge in edges],
                          dtype=float).reshape(-1, 2)
        loop = np.array([ref for el in elements for ref in el.edge_loop],
                        dtype=np.int64).reshape(-1, 2)
        return cls([v.position for v in vertices], [(edge.v0, edge.v1) for edge in edges],
                   [None if edge.segment is None else edge.segment.curve for edge in edges],
                   params, np.cumsum([0] + [len(el.edge_loop) for el in elements]),
                   loop[:, 0], loop[:, 1], [el.label for el in elements])

    @cached_property
    def vertices(self) -> tuple[Vertex, ...]:
        """The vertices as records.  A vertex's ``curve_ref`` is (curve id, t)
        of the first curved edge, in edge order, that ends at it."""
        refs = {}
        for i in np.flatnonzero(self.edge_curved).tolist():
            cid = self.edge_curves[i].id
            for v, t in zip(self.edge_vertices[i].tolist(), self.edge_params[i].tolist()):
                refs.setdefault(v, (cid, t))
        return tuple(Vertex(position=p, on_boundary=flag, curve_ref=refs.get(i))
                     for i, (p, flag) in enumerate(zip(self.points.copy(),
                                                       self.vertex_on_boundary.tolist())))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as records."""
        return tuple(Edge(v0=v0, v1=v1,
                          segment=None if curve is None else CurveSegment(curve, t0, t1))
                     for (v0, v1), curve, (t0, t1) in zip(self.edge_vertices.tolist(),
                                                         self.edge_curves,
                                                         self.edge_params.tolist()))

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        """The elements as records."""
        loop = list(zip(self.loop_edges.tolist(), self.loop_signs.tolist()))
        bounds = self.loop_offsets.tolist()
        return tuple(Element(edge_loop=loop[a:b], label=label)
                     for a, b, label in zip(bounds, bounds[1:], self.labels.tolist()))


def _fits_int64(value) -> bool:
    try:
        return value == int(value) and _INT64.min <= int(value) <= _INT64.max
    except (TypeError, ValueError, OverflowError):
        return False


def _array(values, name: str, dtype, *width: int) -> np.ndarray:
    """A copy of ``values`` as an array of ``dtype`` (int: int64) and shape
    (n, *width); raises MeshError naming the array, or the row or entry that
    numpy cannot convert."""
    try:
        array = np.asarray(values) if dtype is int else np.array(values, dtype=dtype)
    except (ValueError, TypeError):
        raise MeshError(_row_error(values, name, dtype, width)) from None
    return _shaped(_int_array(array, name) if dtype is int else array, name, *width)


def _row_error(values, name: str, dtype, width: tuple) -> str:
    """Why ``values`` is no array: its first row that is not ``width``
    values, or that holds an entry numpy cannot read as ``dtype``."""
    want = f"{width[0]} values" if width else "a single value"
    for i, row in enumerate(values if np.iterable(values) else ()):
        try:
            if np.shape(row) != width:
                return f"{name}[{i}]: expected {want}, got shape {np.shape(row)}"
            np.array(row, dtype=None if dtype is int else dtype)
        except (ValueError, TypeError) as exc:
            return f"{name}[{i}]: {exc}"
    return f"{name} cannot be read as an array"


def _int_array(array: np.ndarray, name: str) -> np.ndarray:
    """``array`` as int64; raises MeshError naming the first entry that is
    not an integer or does not fit in 64 bits."""
    if array.dtype.kind in "bi":
        return array.astype(np.int64)
    if array.dtype.kind == "f":  # nan fails every comparison, +-inf a bound
        fits = (array == np.floor(array)) & (array >= -2.0 ** 63) & (array < 2.0 ** 63)
    else:  # uint64, object or text entries
        fits = np.array([_fits_int64(v) for v in array.ravel().tolist()],
                        dtype=bool).reshape(array.shape)
    bad = np.flatnonzero(~fits)
    if len(bad):
        first = int(bad[0])
        index = ", ".join(str(int(i)) for i in np.unravel_index(first, array.shape))
        (value,) = array.ravel()[first:first + 1].tolist()
        raise MeshError(f"{name}[{index}]: {value!r} is not an integer that fits in 64 bits")
    return array.astype(np.int64)


def _shaped(array: np.ndarray, name: str, *width: int) -> np.ndarray:
    """``array`` if its shape is (n, *width), an empty one given that shape;
    raises MeshError naming the array otherwise."""
    if array.size == 0:
        return array.reshape(0, *width)
    if array.shape[1:] != width or array.ndim != 1 + len(width):
        want = ", ".join(["n", *map(str, width)]) + ("" if width else ",")
        raise MeshError(f"{name} must have shape ({want}), got {array.shape}")
    return array


def _check_layout(mesh: Mesh) -> None:
    """Raise MeshError naming the first input array whose length disagrees
    with the others, offsets that do not rise from 0 to the side count, or
    a side sign that is not +1 or -1."""
    offsets, sides = mesh.loop_offsets, len(mesh.loop_edges)
    ends = offsets[[0, -1]].tolist() if len(offsets) else []
    if ends != [0, sides]:
        raise MeshError(f"loop_offsets must run from 0 to len(loop_edges) = {sides}, "
                        f"got ends {ends}")
    drops = np.flatnonzero(np.diff(offsets) < 0)
    if len(drops):
        i = int(drops[0])
        raise MeshError(f"loop_offsets[{i + 1}]: {offsets[i + 1]} is below "
                        f"loop_offsets[{i}] = {offsets[i]}")
    for name, length, want in (
            ("edge_curves", len(mesh.edge_curves), len(mesh.edge_vertices)),
            ("edge_params", len(mesh.edge_params), len(mesh.edge_vertices)),
            ("loop_signs", len(mesh.loop_signs), sides),
            ("labels", len(mesh.labels), len(offsets) - 1)):
        if length != want:
            raise MeshError(f"{name} has {length} entries, expected {want}")
    bad = np.flatnonzero(np.abs(mesh.loop_signs) != 1)
    if len(bad):
        i = int(bad[0])
        raise MeshError(f"loop_signs[{i}]: {mesh.loop_signs[i]} is not +1 or -1")


def _param_errors(curves, params) -> list[str]:
    """The curved edges whose parameters are not finite or not a segment
    t0 < t1 of their curve's interval (a curve checks its own)."""
    errors = []
    for i, curve in enumerate(curves):
        if curve is None:
            continue
        if not np.all(np.isfinite(params[i])):
            errors.append(f"edge {i}: curve {curve.id!r} has a non-finite parameter")
            continue
        try:
            CurveSegment(curve, *params[i].tolist())
        except GeometryError as exc:
            errors.append(f"edge {i}: {exc}")
    return errors


def _finite_errors(mesh: Mesh) -> list[str]:
    """The vertices that are not finite and the curved edges whose
    parameters are not finite or leave their curve (``_param_errors``)."""
    bad = np.flatnonzero(~np.isfinite(mesh.points).all(axis=1))
    return ([f"vertex {i}: non-finite position {tuple(mesh.points[i].tolist())}"
             for i in bad.tolist()] + _param_errors(mesh.edge_curves, mesh.edge_params))


def curve_points(mesh: Mesh, edge_ids, t):
    """gamma(t) and gamma'(t) on curved edges, row i of ``t`` on edge
    ``edge_ids[i]``; each of shape t.shape + (2,)."""
    return trace_curves(tuple(mesh.edge_curves[np.asarray(edge_ids, dtype=np.int64)]), t)


def _edge_samples(mesh: Mesh, edge_ids: np.ndarray) -> np.ndarray:
    """Interior samples of curved edges, v0 -> v1, shape (m, _CURVE_SAMPLES, 2)."""
    t0, t1 = mesh.edge_params[edge_ids].T
    t = np.linspace(t0, t1, _CURVE_SAMPLES + 2, axis=-1)[:, 1:-1]
    return curve_points(mesh, edge_ids, t)[0]


def _loop_owner(mesh: Mesh) -> np.ndarray:
    """The element of each side, shape (L,)."""
    return np.repeat(np.arange(len(mesh.loop_offsets) - 1), np.diff(mesh.loop_offsets))


def _loop_rows(mesh: Mesh, ids) -> np.ndarray:
    """The side rows of elements ``ids``, concatenated in order."""
    sizes = np.diff(mesh.loop_offsets)[ids]
    before = np.cumsum(sizes) - sizes
    return np.repeat(mesh.loop_offsets[ids] - before, sizes) + np.arange(int(sizes.sum()))


def _next_side(mesh: Mesh) -> np.ndarray:
    """Row of the side that follows each side in its element's loop, shape (L,)."""
    nxt = np.arange(1, len(mesh.loop_edges) + 1)
    full = np.diff(mesh.loop_offsets) > 0
    nxt[mesh.loop_offsets[1:][full] - 1] = mesh.loop_offsets[:-1][full]
    return nxt


def _polylines(mesh: Mesh, ids) -> np.ndarray:
    """Boundary polylines of elements ``ids``, concatenated, shape (M, 2).

    Each is walked in traversal order: every corner, followed on a curved
    side by 8 samples of the curve.
    """
    ids = np.asarray(ids, dtype=np.int64)
    rows = _loop_rows(mesh, ids)
    edges, signs = mesh.loop_edges[rows], mesh.loop_signs[rows]
    curved = np.flatnonzero(mesh.edge_curved[edges])
    count = np.ones(len(rows), dtype=np.int64)
    count[curved] += _CURVE_SAMPLES
    start = np.cumsum(count) - count
    pts = np.empty((int(count.sum()), 2))
    pts[start] = mesh.points[mesh.loop_corners[rows]]
    if len(curved):
        samples = _edge_samples(mesh, edges[curved])
        samples = np.where(signs[curved, None, None] > 0, samples, samples[:, ::-1])
        pts[start[curved, None] + 1 + np.arange(_CURVE_SAMPLES)] = samples
    return pts


def _polyline_groups(mesh: Mesh, cost):
    """Every element's boundary polyline, grouped by length m and each group
    cut into blocks of at most ``_SLACKS_PER_BLOCK // cost(m)`` elements (at
    least one), where ``cost(m)`` counts a walk's entries per element: yields
    the elements ``ids`` of each block and their polylines, shape (E, m, 2)."""
    count = np.add.reduceat(1 + _CURVE_SAMPLES * mesh.edge_curved[mesh.loop_edges],
                            mesh.loop_offsets[:-1])
    for m in np.unique(count).tolist():
        group = np.flatnonzero(count == m)
        block = max(1, _SLACKS_PER_BLOCK // cost(m))
        for lo in range(0, len(group), block):
            ids = group[lo:lo + block]
            yield ids, _polylines(mesh, ids).reshape(len(ids), m, 2)


def _conformity_errors(mesh: Mesh) -> list[str]:
    """Collect structural problems instead of failing on the first one."""
    nv, ne = len(mesh.points), len(mesh.edge_vertices)
    v0, v1 = mesh.edge_vertices.T
    bad_pair = (v0 < 0) | (v0 >= nv) | (v1 < 0) | (v1 >= nv) | (v0 == v1)
    by_edge = {i: [f"edge {i}: bad vertex pair ({v0[i]}, {v1[i]})"]
               for i in np.flatnonzero(bad_pair).tolist()}
    check = np.flatnonzero(mesh.edge_curved & ~bad_pair)
    if len(check):
        ends = mesh.edge_vertices[check]
        pos = mesh.points[ends]
        diff = curve_points(mesh, check, mesh.edge_params[check])[0] - pos
        gap = np.hypot(diff[..., 0], diff[..., 1])
        scale = 1.0 + np.max(np.abs(pos[:, 0]), axis=1)
        for row, end in zip(*np.nonzero(gap > _ENDPOINT_TOL * scale[:, None])):
            i = int(check[row])
            by_edge.setdefault(i, []).append(
                f"edge {i}: vertex {ends[row, end]} is {gap[row, end]:.2e} away from curve "
                f"{mesh.edge_curves[i].id!r} at t={mesh.edge_params[i].tolist()[end]}")
    errors = [msg for i in sorted(by_edge) for msg in by_edge[i]]

    sizes = np.diff(mesh.loop_offsets)
    if not len(sizes):
        errors.append("mesh has no elements")
    eids, signs = mesh.loop_edges, mesh.loop_signs
    owner = _loop_owner(mesh)

    def owners_of(entries):
        flags = np.zeros(len(sizes), dtype=bool)
        flags[owner[entries]] = True
        return flags

    in_range = (eids >= 0) & (eids < ne)
    order = np.lexsort((eids, owner))
    twice = (owner[order][1:] == owner[order][:-1]) & (eids[order][1:] == eids[order][:-1])
    # traversal endpoints; an edge index out of range reads the pair (-1, -1)
    ends = np.vstack([mesh.edge_vertices, [[-1, -1]]])[np.where(in_range, eids, ne)]
    forward = signs > 0
    start = np.where(forward, ends[:, 0], ends[:, 1])
    finish = np.where(forward, ends[:, 1], ends[:, 0])
    nxt = _next_side(mesh)
    breaks = np.flatnonzero(finish != start[nxt])
    first_break = np.full(len(sizes), -1)
    broken, at = np.unique(owner[breaks], return_index=True)
    first_break[broken] = breaks[at]

    few = sizes < 3
    outside = owners_of(~in_range)
    repeated = owners_of(order[1:][twice])
    for p in np.flatnonzero(few | outside | repeated | (first_break >= 0)).tolist():
        if few[p]:
            errors.append(f"element {p}: fewer than 3 edges")
        elif outside[p]:
            errors.append(f"element {p}: edge index out of range")
        elif repeated[p]:
            errors.append(f"element {p}: repeated edge in loop")
        else:
            j = first_break[p]
            errors.append(f"element {p}: loop breaks between edges {eids[j]} and {eids[nxt[j]]}")
    if not errors:
        counts = np.bincount(eids, minlength=ne)
        signed = np.bincount(eids, weights=signs, minlength=ne)
        for i in np.flatnonzero((counts == 0) | (counts > 2)
                                | ((counts == 2) & (signed != 0))).tolist():
            if counts[i] == 0:
                errors.append(f"edge {i}: referenced by no element")
            elif counts[i] > 2:
                errors.append(f"edge {i}: shared by {counts[i]} elements")
            else:
                errors.append(f"edge {i}: traversed twice in the same direction")
        unused = np.bincount(mesh.edge_vertices.ravel(), minlength=len(mesh.points)) == 0
        errors += [f"vertex {v}: on no edge" for v in np.flatnonzero(unused).tolist()]
    return errors


def _derive_topology(mesh: Mesh) -> None:
    ends = mesh.edge_vertices[mesh.loop_edges]
    mesh.loop_corners = np.where(mesh.loop_signs > 0, ends[:, 0], ends[:, 1])
    mesh.edge_on_boundary = np.bincount(mesh.loop_edges, minlength=len(mesh.edge_vertices)) == 1
    mesh.vertex_on_boundary = np.zeros(len(mesh.points), dtype=bool)
    mesh.vertex_on_boundary[mesh.edge_vertices[mesh.edge_on_boundary].ravel()] = True
    curves: dict[str, BoundaryCurve] = {}
    for curve in mesh.edge_curves[mesh.edge_curved]:
        if (seen := curves.setdefault(curve.id, curve)) is not curve and seen != curve:
            raise MeshError(f"two distinct curves share the id {curve.id!r}")
    mesh.curves = curves


def _edge_lengths(mesh: Mesh) -> np.ndarray:
    """Chord lengths, arc lengths on curved edges; raises at the first edge of
    length zero, as a loop over the edges would."""
    ends = mesh.points[mesh.edge_vertices]
    diff = ends[:, 1] - ends[:, 0]
    lengths = np.hypot(diff[:, 0], diff[:, 1])
    straight_bad = np.flatnonzero((lengths <= 0.0) & ~mesh.edge_curved)
    stop = int(straight_bad[0]) if len(straight_bad) else len(lengths)
    for i in np.flatnonzero(mesh.edge_curved[:stop]).tolist():
        lengths[i] = arc_length(CurveSegment(mesh.edge_curves[i], *mesh.edge_params[i].tolist()))
    bad = np.flatnonzero(lengths[:stop + 1] <= 0.0)
    if len(bad):
        v0, v1 = mesh.edge_vertices[bad[0]].tolist()
        raise MeshError(f"degenerate edge between vertices {v0} and {v1}")
    return lengths


def _diameters(clouds: np.ndarray) -> np.ndarray:
    """Largest point distance within each cloud of shape (E, m, 2)."""
    x, y = clouds[..., 0], clouds[..., 1]
    dx = x[:, :, None] - x[:, None, :]
    dy = y[:, :, None] - y[:, None, :]
    return np.sqrt(np.max(dx * dx + dy * dy, axis=(1, 2)))


def _derive_geometry(mesh: Mesh) -> None:
    """Edge lengths and element areas, chord centroids and diameters.

    Areas and centroids are computed in groups of equal edge count with the
    arithmetic of an element-by-element loop: the area is the chord
    polygon's Green-theorem sum with each curved side's 24-point rule term
    added in loop order.  The diameter is the largest distance between two
    points of the element's boundary polyline (corners plus 8 samples per
    curved side), the same polyline the star-shapedness check walks.
    """
    rule = gauss_legendre(24)
    mesh.edge_lengths = _edge_lengths(mesh)

    # the 24-point rule on every curved edge
    curved = np.flatnonzero(mesh.edge_curved)
    t0, t1 = mesh.edge_params[curved].T
    half = 0.5 * (t1 - t0)
    t = (0.5 * (t0 + t1))[:, None] + half[:, None] * rule.nodes
    gamma, dgamma = curve_points(mesh, curved, t)
    gamma_x, dgamma_y = gamma[..., 0], dgamma[..., 1]

    sizes = np.diff(mesh.loop_offsets)
    side_curved = mesh.edge_curved[mesh.loop_edges]
    chord = np.empty(len(sizes))
    area = np.empty(len(sizes))
    moments = np.empty((len(sizes), 2))
    for n in np.unique(sizes).tolist():
        ids = np.flatnonzero(sizes == n)
        rows = mesh.loop_offsets[ids, None] + np.arange(n)
        verts = mesh.points[mesh.loop_corners[rows]]
        x, y = verts[..., 0], verts[..., 1]
        xn, yn = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
        cross = x * yn - xn * y
        chord[ids] = 0.5 * np.sum(cross, axis=1)
        moments[ids, 0] = np.sum((x + xn) * cross, axis=1)
        moments[ids, 1] = np.sum((y + yn) * cross, axis=1)

        alpha = np.mean(x, axis=1)
        terms = (0.5 * (x + xn) - alpha[:, None]) * (yn - y)
        at = np.nonzero(side_curved[rows])
        if len(at[0]):
            slot = np.searchsorted(curved, mesh.loop_edges[rows][at])
            values = (gamma_x[slot] - alpha[at[0], None]) * dgamma_y[slot]
            dots = np.array([rule.weights @ v for v in values])
            terms[at] = mesh.loop_signs[rows][at] * half[slot] * dots
        total = np.zeros(len(ids))
        for j in range(n):
            total += terms[:, j]
        area[ids] = total

    bad = np.flatnonzero((chord <= 0.0) | (area <= 0.0))
    if len(bad):
        p = int(bad[0])
        if chord[p] <= 0.0:
            raise MeshError(f"element {p}: chord polygon is not counterclockwise "
                            f"(signed area {chord[p]:.3e})")
        raise MeshError(f"element {p}: nonpositive area {area[p]:.3e}")
    mesh.areas = area
    mesh.centroids = moments / (6.0 * chord)[:, None]
    diameters = np.empty(len(sizes))
    for ids, polylines in _polyline_groups(mesh, lambda m: m * m):
        diameters[ids] = _diameters(polylines)
    mesh.diameters = diameters
    mesh.h = float(np.max(diameters))


# ---------------------------------------------------------------------------
# structured generators


def _segment_is_straight(curve: BoundaryCurve, t0: float, t1: float) -> bool:
    p0, p1 = curve.eval(t0), curve.eval(t1)
    chord = np.hypot(*(p1 - p0))
    t = np.linspace(t0, t1, _CURVE_SAMPLES + 2)[1:-1]
    pts = curve.eval(t)
    d = p1 - p0
    dev = np.abs(d[0] * (pts[:, 1] - p0[1]) - d[1] * (pts[:, 0] - p0[0])) / chord
    return float(np.max(dev)) <= 1e-13 * (chord + 1.0)


def _check_graph_curve(curve: BoundaryCurve, name: str) -> None:
    a, b = curve.param_interval
    if abs(a) > 1e-14 or abs(b - 1.0) > 1e-14:
        raise MeshError(f"{name}: graph must be parametrized over [0, 1]")
    if curve.kind != "graph":
        raise MeshError(f"{name}: curve is not the graph of a function of x")


def build_mapped_tensor_mesh(n: int, bottom: BoundaryCurve | None = None,
                             top: BoundaryCurve | None = None) -> Mesh:
    """n-by-n tensor mesh mapped onto the region between two boundary graphs.

    The unit-square grid (x_Q, y_Q) is mapped vertically: points with
    y_Q <= 1/2 go to (x_Q, (1 - 2 g1) y_Q + g1), points above to
    (x_Q, (2 g2 - 1) y_Q + 1 - g2), where g1, g2 are the y-values of the
    bottom/top graphs at x_Q.  Both branches fix the midline y_Q = 1/2 and
    the bottom/top rows land exactly on the curves, so the curved boundary
    edges carry exact segments of the input graphs.  A ``None`` curve means
    a straight side at y = 0 or y = 1; curve pieces indistinguishable from
    their chord are emitted as straight edges.
    """
    check_integer(MeshError, "build_mapped_tensor_mesh: n", n, 1)
    if bottom is not None:
        _check_graph_curve(bottom, "bottom")
    if top is not None:
        _check_graph_curve(top, "top")

    xs = np.arange(n + 1) / n
    g1 = bottom.eval(xs)[:, 1] if bottom is not None else np.zeros(n + 1)
    g2 = top.eval(xs)[:, 1] if top is not None else np.ones(n + 1)

    # vertex (i, j) of the grid is row j (n + 1) + i, at y_Q = xs[j]
    yq = xs[:, None]
    y = np.where(yq <= 0.5, (1.0 - 2.0 * g1) * yq + g1, (2.0 * g2 - 1.0) * yq + (1.0 - g2))
    y[0], y[n] = g1, g2
    points = np.stack([np.broadcast_to(xs, y.shape), y], axis=-1).reshape(-1, 2)

    # edge (i, j) to the right of vertex (i, j) is row j n + i; edge (i, j)
    # above it is row n (n + 1) + i n + j
    grid = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)
    edge_vertices = np.concatenate([
        np.stack([grid[:, :-1], grid[:, 1:]], axis=-1).reshape(-1, 2),
        np.stack([grid[:-1].T, grid[1:].T], axis=-1).reshape(-1, 2)])
    curves = np.full(len(edge_vertices), None, dtype=object)
    params = np.full((len(edge_vertices), 2), np.nan)
    for j, curve in ((0, bottom), (n, top)):
        for i in range(n if curve is not None else 0):
            if not _segment_is_straight(curve, xs[i], xs[i + 1]):
                curves[j * n + i] = curve
                params[j * n + i] = xs[i], xs[i + 1]

    i, j = np.arange(n), np.arange(n)[:, None]
    right, up = j * n + i, n * (n + 1) + i * n + j
    loops = np.stack([right, up + n, right + n, up], axis=-1).reshape(-1)
    return Mesh(points, edge_vertices, curves, params, 4 * np.arange(n * n + 1), loops,
                np.tile([1, 1, -1, -1], n * n), np.ones(n * n))


def build_annulus_interface_mesh(n_rings: int, n_sectors: int) -> Mesh:
    """Polar mesh of the unit disk with an exact interface circle at r = 1/2.

    ``n_rings`` rings per subdomain (uniform radial spacing 1/(2 n_rings)),
    ``n_sectors`` equal sectors.  The outer boundary edges carry exact arcs
    of the unit circle (parameter = angle), the interface edges exact arcs
    of the half-radius circle (parameter = angle/2).  The disk center is
    covered by wedge elements each spanning two sectors, which keeps their
    shape ratios bounded under refinement; ``n_sectors`` must be even.
    Elements are labeled 1 outside the interface and 2 inside.
    """
    check_integer(MeshError, "build_annulus_interface_mesh: n_rings", n_rings, 2)
    check_integer(MeshError, "build_annulus_interface_mesh: n_sectors", n_sectors, 4)
    if n_sectors % 2 != 0:
        raise MeshError(f"build_annulus_interface_mesh: n_sectors must be even, got {n_sectors}")
    R, S = n_rings, n_sectors
    gamma1 = circle_curve("Gamma1", (0.0, 0.0), 1.0)
    gamma2 = circle_curve("Gamma2", (0.0, 0.0), 0.5, omega=2.0,
                          param_interval=(0.0, np.pi))

    thetas = 2.0 * np.pi * np.arange(S) / S
    # vertex 0 is the center, vertex (m, s) of ring m = 1..2R is row 1 + (m - 1) S + s
    rings = [0.5 * m / R * np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)
             for m in range(1, 2 * R + 1)]
    rings[R - 1] = gamma2.eval(0.5 * thetas)
    rings[2 * R - 1] = gamma1.eval(thetas)
    points = np.concatenate([np.zeros((1, 2)), *rings])

    # edges: the ring arcs (m, s) at rows (m - 1) S + s, the radial edges
    # (m, s) from ring m outwards at rows 2 R S + (m - 1) S + s, then the
    # S / 2 spokes from the center
    s = np.arange(S)
    first = 1 + S * np.arange(2 * R)[:, None]
    spoke = (4 * R - 1) * S + np.arange(S // 2)
    edge_vertices = np.concatenate([
        np.stack([first + s, first + (s + 1) % S], axis=-1).reshape(-1, 2),
        np.stack([first[:-1] + s, first[1:] + s], axis=-1).reshape(-1, 2),
        np.stack([np.zeros(S // 2, dtype=np.int64), 1 + 2 * np.arange(S // 2)], axis=-1)])
    curves = np.full(len(edge_vertices), None, dtype=object)
    params = np.full((len(edge_vertices), 2), np.nan)
    for ring, curve, span in ((2 * R, gamma1, 2.0 * np.pi), (R, gamma2, np.pi)):
        curves[(ring - 1) * S + s] = curve
        params[(ring - 1) * S + s] = np.stack([span * s / S, span * (s + 1) / S], axis=-1)

    m = np.arange(1, 2 * R)[:, None]
    radial = 2 * R * S + (m - 1) * S
    wedges = np.stack([spoke, s[::2], s[::2] + 1, np.roll(spoke, -1)], axis=-1)
    quads = np.stack([radial + s, m * S + s, radial + (s + 1) % S, (m - 1) * S + s], axis=-1)
    labels = np.concatenate([np.full(S // 2, 2), np.repeat(np.where(m[:, 0] < R, 2, 1), S)])
    signs = np.concatenate([np.tile([1, 1, 1, -1], S // 2),
                            np.tile([1, 1, -1, -1], (2 * R - 1) * S)])
    return Mesh(points, edge_vertices, curves, params, 4 * np.arange(len(labels) + 1),
                np.concatenate([wedges.ravel(), quads.ravel()]), signs, labels)


def straighten_mesh(mesh: Mesh) -> Mesh:
    """Copy of the mesh with every curved edge replaced by its chord.

    Vertex positions are kept, so boundary vertices stay on the original
    curves while the edges between them become straight.
    """
    return Mesh(mesh.points, mesh.edge_vertices, [None] * len(mesh.edge_vertices),
                np.full(mesh.edge_params.shape, np.nan), mesh.loop_offsets, mesh.loop_edges,
                mesh.loop_signs, mesh.labels)


# ---------------------------------------------------------------------------
# shape-regularity validation


@dataclass
class MeshQualityReport:
    """``validate_mesh``'s result: ``elements`` is a (P,) structured array,
    row p holding element p's ``edge_ratio``, ``star_ratio`` and ``ok``."""

    rho: float
    ok: bool
    elements: np.ndarray

    @property
    def worst_edge_ratio(self) -> float:
        return float(np.min(self.elements["edge_ratio"]))

    @property
    def worst_star_ratio(self) -> float:
        return float(np.min(self.elements["star_ratio"]))


def _triples(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every index triple i < j < k below m, in lexicographic order."""
    i, j = np.triu_indices(m, 1)
    count = m - 1 - j
    first = np.cumsum(count) - count
    k = np.arange(int(count.sum())) - np.repeat(first - j - 1, count)
    return np.repeat(i, count), np.repeat(j, count), k


def _chebyshev_radii(poly: np.ndarray) -> np.ndarray:
    """Radius of the largest disk in the kernel of each closed polyline of
    shape (E, m, 2), or 0 where the kernel holds no disk.

    The disk of radius r around c lies left of side l when
    u_l . c - r >= u_l . p_l, with u_l the side's inward unit normal.  The
    largest r is reached where three of these constraints are equalities, so
    every side triple is solved by Cramer's rule and the largest r >= 0 whose
    disk violates no constraint by more than ``_SLACK_TOL`` is kept.  A side
    of length zero has no normal; its row becomes r <= 1, which every disk
    in a polyline of diameter 1 meets.
    """
    d = np.roll(poly, -1, axis=1) - poly
    length = np.hypot(d[..., 0], d[..., 1])
    keep = length > 0.0
    length = np.where(keep, length, 1.0)
    ux, uy = -d[..., 1] / length, d[..., 0] / length
    offset = np.where(keep, ux * poly[..., 0] + uy * poly[..., 1], -1.0)
    best = np.zeros(len(poly))
    first, second, third = _triples(poly.shape[1])
    block = max(1, _SLACKS_PER_BLOCK // poly[..., 0].size)
    for lo in range(0, len(first), block):
        i, j, k = first[lo:lo + block], second[lo:lo + block], third[lo:lo + block]
        xi, xj, xk = ux[:, i], ux[:, j], ux[:, k]
        yi, yj, yk = uy[:, i], uy[:, j], uy[:, k]
        oi, oj, ok = offset[:, i], offset[:, j], offset[:, k]
        cross_ij, cross_jk, cross_ki = xi * yj - yi * xj, xj * yk - yj * xk, xk * yi - yk * xi
        det = cross_ij + cross_jk + cross_ki
        regular = np.abs(det) > 1e-12
        det = np.where(regular, det, 1.0)
        r = -(oi * cross_jk + oj * cross_ki + ok * cross_ij) / det
        cx = (oi * (yj - yk) + oj * (yk - yi) + ok * (yi - yj)) / det
        cy = -(oi * (xj - xk) + oj * (xk - xi) + ok * (xi - xj)) / det
        e, t = np.nonzero(regular & (r > best[:, None]))
        slack = (ux[e] * cx[e, t, None] + uy[e] * cy[e, t, None]
                 - r[e, t, None] - offset[e])
        feasible = np.all(slack >= -_SLACK_TOL, axis=1)
        np.maximum.at(best, e[feasible], r[e[feasible], t[feasible]])
    return best


def _star_ratios(mesh: Mesh) -> np.ndarray:
    """Kernel Chebyshev radius of every element's boundary polyline over the
    element's diameter.  Each polyline is taken in its element's frame:
    coordinates relative to the centroid in units of the diameter."""
    ratios = np.empty(len(mesh.diameters))
    for ids, polylines in _polyline_groups(mesh, lambda m: m):
        ratios[ids] = _chebyshev_radii((polylines - mesh.centroids[ids, None])
                                       / mesh.diameters[ids, None, None])
    return ratios


def validate_mesh(mesh: Mesh, rho: float) -> MeshQualityReport:
    """Check the two shape-regularity assumptions on a built mesh.

    Conformity is not checked again: the ``Mesh`` constructor has already
    rejected a non-conforming mesh with a ``MeshError``.  Per element:
    every edge length (arc length for curved edges) must be at least rho
    times the element diameter, and the element must be star-shaped with
    respect to a disk of radius rho times the diameter.  Star-shapedness is
    tested on the boundary polyline (chord corners plus samples along
    curved edges) via the kernel's Chebyshev radius, found by exact vertex
    enumeration over the polyline's side triples; an empty kernel gives
    ratio 0.  A disk inside an element has at most half its diameter as
    radius, so rho must lie in (0, 0.5], as the CLI's ``--rho`` does; any other
    value raises ``MeshError``.
    """
    if not (isinstance(rho, Real) and 0.0 < rho <= 0.5):
        raise MeshError(f"validate_mesh: rho must lie in (0, 0.5], got {rho!r}")
    lengths = mesh.edge_lengths[mesh.loop_edges]
    edge_ratio = np.minimum.reduceat(lengths, mesh.loop_offsets[:-1]) / mesh.diameters
    star_ratio = _star_ratios(mesh)
    ok = (edge_ratio >= rho) & (star_ratio >= rho)
    checks = np.empty(len(ok), dtype=[("edge_ratio", float), ("star_ratio", float),
                                      ("ok", bool)])
    checks["edge_ratio"], checks["star_ratio"], checks["ok"] = edge_ratio, star_ratio, ok
    return MeshQualityReport(rho=rho, ok=bool(np.all(ok)), elements=checks)
