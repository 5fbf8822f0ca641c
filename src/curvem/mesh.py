"""Polygonal meshes whose edges may be exact curve segments.

Entities are index-based: edges store vertex indices plus an optional
``CurveSegment``, elements store a counterclockwise loop of signed edge
references (positive sign = traversal from v0 to v1).  ``Mesh.build``
finalizes a mesh: conformity is checked, and topology and per-element
geometry are derived once, in one vectorized pass, into flat arrays on the
mesh (V vertices, N edges, P elements, L element sides in all):

* ``points`` (V, 2) vertex positions and ``vertex_on_boundary`` (V,);
* ``edge_vertices`` (N, 2) endpoints, ``edge_lengths`` (N,) (arc length on
  curved edges), ``edge_on_boundary`` (N,), ``edge_curved`` (N,) and
  ``edge_params`` (N, 2), the curve parameters (t0, t1) of curved edges
  (nan on straight ones);
* the element loops in one ragged layout: the sides of element p are rows
  ``loop_offsets[p]:loop_offsets[p + 1]`` of ``loop_edges``, ``loop_signs``
  and ``loop_corners`` (the vertex each side starts at), all of shape (L,);
* ``labels``, ``areas``, ``centroids`` (P, 2) of the chord polygons and
  ``diameters`` (P,).

The ``Vertex``, ``Edge`` and ``Element`` objects carry the same values as
attributes; the solver and the validation read the arrays.  The arrays
reproduce an element-by-element loop bit for bit: elements are grouped by
edge count, side contributions to an area are added in loop order, and each
curved side keeps its own 24-point dot product (see the README's notes on
floating-point reproducibility).

Two structured generators cover the solver's test domains: a tensor grid
mapped between two boundary graphs, and a polar grid on the unit disk with
an exactly curved internal interface circle.  Unstructured (e.g. Voronoi)
meshes enter through ``mesh_io.import_mesh``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .geometry import BoundaryCurve, CurveSegment, arc_length, circle_curve
from .quadrature import gauss_legendre, trace_curves

_ENDPOINT_TOL = 1e-12
_CURVE_SAMPLES = 8
# Point pairs per block of the diameter computation; bounds its memory.
_PAIRS_PER_BLOCK = 1 << 16
# (element, side triple, side) entries per block of the kernel vertex
# enumeration in validate_mesh; bounds its memory.
_SLACKS_PER_BLOCK = 1 << 20
# A disk counts as inside a side when it crosses it by at most this much, in
# units of the element diameter.
_SLACK_TOL = 1e-12


class MeshError(Exception):
    """Raised for non-conforming or degenerate meshes."""


@dataclass
class Vertex:
    position: np.ndarray
    on_boundary: bool = False
    curve_ref: tuple[str, float] | None = None


@dataclass
class Edge:
    v0: int
    v1: int
    segment: CurveSegment | None = None
    elements: tuple[int, ...] = ()
    on_boundary: bool = False
    length: float = 0.0

    @property
    def is_curved(self) -> bool:
        return self.segment is not None


@dataclass
class Element:
    edge_loop: list[tuple[int, int]]
    label: int = 1
    vertices: list[int] = field(default_factory=list)
    area: float = 0.0
    centroid: np.ndarray | None = None
    diameter: float = 0.0


def _derived():
    return field(default=None, repr=False, compare=False)


@dataclass
class Mesh:
    vertices: list[Vertex]
    edges: list[Edge]
    elements: list[Element]
    curves: dict[str, BoundaryCurve] = field(default_factory=dict)
    h: float = 0.0
    # derived by ``build``; see the module docstring
    points: np.ndarray = _derived()
    vertex_on_boundary: np.ndarray = _derived()
    edge_vertices: np.ndarray = _derived()
    edge_lengths: np.ndarray = _derived()
    edge_on_boundary: np.ndarray = _derived()
    edge_curved: np.ndarray = _derived()
    edge_params: np.ndarray = _derived()
    loop_offsets: np.ndarray = _derived()
    loop_edges: np.ndarray = _derived()
    loop_signs: np.ndarray = _derived()
    loop_corners: np.ndarray = _derived()
    labels: np.ndarray = _derived()
    areas: np.ndarray = _derived()
    centroids: np.ndarray = _derived()
    diameters: np.ndarray = _derived()

    @classmethod
    def build(cls, vertices, edges, elements) -> "Mesh":
        """Finalize a mesh from raw entity lists; raises MeshError."""
        mesh = cls(vertices=list(vertices), edges=list(edges), elements=list(elements))
        errors = _read_entities(mesh) or _conformity_errors(mesh)
        if errors:
            raise MeshError("; ".join(errors[:5]))
        _derive_topology(mesh)
        _derive_geometry(mesh)
        _fill_entities(mesh)
        return mesh


def _vertex_points(vertices) -> tuple[np.ndarray | None, list[str]]:
    """Positions as a (V, 2) array, or None and the vertices whose position
    is not a 2-vector."""
    failure = None
    try:
        points = np.array([v.position for v in vertices], dtype=float)
        if points.shape == (len(vertices), 2) or not vertices:
            return points.reshape(-1, 2), []
    except ValueError as exc:  # positions of different shapes, or not numbers
        failure = exc
    errors = [f"vertex {i}: position must have 2 coordinates, got shape {np.shape(v.position)}"
              for i, v in enumerate(vertices) if np.shape(v.position) != (2,)]
    if not errors:
        raise failure
    return None, errors


def _read_entities(mesh: Mesh) -> list[str]:
    """Copy the entity lists into arrays; report vertices that are not finite
    2-vectors and curved edges with a non-finite parameter."""
    points, errors = _vertex_points(mesh.vertices)
    if points is not None:
        bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
        errors = [f"vertex {i}: non-finite position {tuple(points[i].tolist())}"
                  for i in bad.tolist()]
    curved = [i for i, edge in enumerate(mesh.edges) if edge.segment is not None]
    params = np.full((len(mesh.edges), 2), np.nan)
    for i in curved:
        seg = mesh.edges[i].segment
        params[i] = seg.t0, seg.t1
        if not np.all(np.isfinite(
                [seg.t0, seg.t1, *seg.curve.param_interval, *seg.curve.params])):
            errors.append(f"edge {i}: curve {seg.curve.id!r} has a non-finite parameter")
    if errors:
        return errors

    mesh.points = points
    mesh.edge_vertices = np.fromiter(
        chain.from_iterable((edge.v0, edge.v1) for edge in mesh.edges),
        dtype=np.int64, count=2 * len(mesh.edges)).reshape(-1, 2)
    mesh.edge_curved = np.zeros(len(mesh.edges), dtype=bool)
    mesh.edge_curved[curved] = True
    mesh.edge_params = params
    sizes = np.fromiter((len(el.edge_loop) for el in mesh.elements), dtype=np.int64,
                        count=len(mesh.elements))
    mesh.loop_offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    loop = np.fromiter(chain.from_iterable(chain.from_iterable(
        el.edge_loop for el in mesh.elements)), dtype=np.int64,
        count=2 * int(mesh.loop_offsets[-1])).reshape(-1, 2)
    mesh.loop_edges = np.ascontiguousarray(loop[:, 0])
    mesh.loop_signs = np.ascontiguousarray(loop[:, 1])
    mesh.labels = np.fromiter((el.label for el in mesh.elements), dtype=np.int64,
                              count=len(mesh.elements))
    return []


def curve_points(mesh: Mesh, edge_ids, t):
    """gamma(t) and gamma'(t) on curved edges, row i of ``t`` on edge
    ``edge_ids[i]``; each of shape t.shape + (2,)."""
    return trace_curves(tuple(mesh.edges[eid].segment.curve
                              for eid in np.asarray(edge_ids).tolist()), t)


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
            seg = mesh.edges[i].segment
            by_edge.setdefault(i, []).append(
                f"edge {i}: vertex {ends[row, end]} is {gap[row, end]:.2e} away from curve "
                f"{seg.curve.id!r} at t={(seg.t0, seg.t1)[end]}")
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
    return errors


def _derive_topology(mesh: Mesh) -> None:
    ends = mesh.edge_vertices[mesh.loop_edges]
    mesh.loop_corners = np.where(mesh.loop_signs > 0, ends[:, 0], ends[:, 1])
    mesh.edge_on_boundary = np.bincount(mesh.loop_edges, minlength=len(mesh.edges)) == 1
    mesh.vertex_on_boundary = np.zeros(len(mesh.points), dtype=bool)
    mesh.vertex_on_boundary[mesh.edge_vertices[mesh.edge_on_boundary].ravel()] = True
    curves: dict[str, BoundaryCurve] = {}
    for i in np.flatnonzero(mesh.edge_curved).tolist():
        curve = mesh.edges[i].segment.curve
        if curves.get(curve.id, curve) is not curve:
            raise MeshError(f"two distinct curves share the id {curve.id!r}")
        curves[curve.id] = curve
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
        lengths[i] = arc_length(mesh.edges[i].segment)
    bad = np.flatnonzero(lengths[:stop + 1] <= 0.0)
    if len(bad):
        v0, v1 = mesh.edge_vertices[bad[0]].tolist()
        raise MeshError(f"degenerate edge between vertices {v0} and {v1}")
    return lengths


def _diameters(clouds: np.ndarray) -> np.ndarray:
    """Largest point distance within each cloud of shape (E, m, 2)."""
    out = np.empty(len(clouds))
    m = clouds.shape[1]
    block = max(1, _PAIRS_PER_BLOCK // (m * m))
    for lo in range(0, len(clouds), block):
        x, y = clouds[lo:lo + block, :, 0], clouds[lo:lo + block, :, 1]
        dx = x[:, :, None] - x[:, None, :]
        dy = y[:, :, None] - y[:, None, :]
        out[lo:lo + block] = np.sqrt(np.max(dx * dx + dy * dy, axis=(1, 2)))
    return out


def _derive_geometry(mesh: Mesh) -> None:
    """Edge lengths and element areas, chord centroids and diameters.

    Elements are handled in groups of equal edge count with the arithmetic
    of an element-by-element loop: the area is the chord polygon's
    Green-theorem sum with each curved side's 24-point rule term added in
    loop order, and the diameter spans the corners and 8 samples per curved
    side.
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
    samples = _edge_samples(mesh, curved)

    sizes = np.diff(mesh.loop_offsets)
    side_curved = mesh.edge_curved[mesh.loop_edges]
    n_curved = np.bincount(_loop_owner(mesh), weights=side_curved, minlength=len(sizes))
    chord = np.empty(len(sizes))
    area = np.empty(len(sizes))
    moments = np.empty((len(sizes), 2))
    diameter = np.empty(len(sizes))
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

        for c in np.unique(n_curved[ids]).astype(int).tolist():
            sub = n_curved[ids] == c
            cloud = verts[sub]
            if c:
                slot = np.searchsorted(curved, mesh.loop_edges[rows[sub]][side_curved[rows[sub]]])
                cloud = np.concatenate(
                    [cloud, samples[slot].reshape(len(cloud), c * _CURVE_SAMPLES, 2)], axis=1)
            diameter[ids[sub]] = _diameters(cloud)

    bad = np.flatnonzero((chord <= 0.0) | (area <= 0.0))
    if len(bad):
        p = int(bad[0])
        if chord[p] <= 0.0:
            raise MeshError(f"element {p}: chord polygon is not counterclockwise "
                            f"(signed area {chord[p]:.3e})")
        raise MeshError(f"element {p}: nonpositive area {area[p]:.3e}")
    mesh.areas = area
    mesh.centroids = moments / (6.0 * chord)[:, None]
    mesh.diameters = diameter
    mesh.h = float(np.max(diameter))


def _fill_entities(mesh: Mesh) -> None:
    """Copy the derived arrays onto the Vertex, Edge and Element objects."""
    for vertex, flag in zip(mesh.vertices, mesh.vertex_on_boundary.tolist()):
        vertex.on_boundary = flag
    # one int object per vertex and per element id, shared by every list
    # and tuple that holds it
    vertex_ids = list(range(len(mesh.vertices)))
    element_ids = list(range(len(mesh.elements)))
    # the elements of each edge, in element order
    owner = _loop_owner(mesh)[np.argsort(mesh.loop_edges, kind="stable")]
    last = np.cumsum(np.bincount(mesh.loop_edges, minlength=len(mesh.edges))) - 1
    pairs = zip(owner[last - 1].tolist(), owner[last].tolist())
    for edge, length, boundary, (a, b) in zip(mesh.edges, mesh.edge_lengths.tolist(),
                                               mesh.edge_on_boundary.tolist(), pairs):
        edge.length = length
        edge.on_boundary = boundary
        edge.elements = (element_ids[b],) if boundary else (element_ids[a], element_ids[b])
    corners = list(map(vertex_ids.__getitem__, mesh.loop_corners.tolist()))
    offsets = mesh.loop_offsets.tolist()
    for p, (element, area, centroid, diameter) in enumerate(zip(
            mesh.elements, mesh.areas.tolist(), mesh.centroids, mesh.diameters.tolist())):
        element.vertices = corners[offsets[p]:offsets[p + 1]]
        element.area = area
        element.centroid = centroid
        element.diameter = diameter


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
    t = np.linspace(0.0, 1.0, 17)
    if np.max(np.abs(curve.eval(t)[:, 0] - t)) > 1e-13:
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
    if n < 1:
        raise MeshError(f"build_mapped_tensor_mesh: n={n} must be >= 1")
    if bottom is not None:
        _check_graph_curve(bottom, "bottom")
    if top is not None:
        _check_graph_curve(top, "top")

    xs = np.arange(n + 1) / n
    g1 = bottom.eval(xs)[:, 1] if bottom is not None else np.zeros(n + 1)
    g2 = top.eval(xs)[:, 1] if top is not None else np.ones(n + 1)

    vertices = []
    for j in range(n + 1):
        yq = j / n
        for i in range(n + 1):
            if j == 0:
                y = g1[i]
                ref = (bottom.id, xs[i]) if bottom is not None else None
            elif j == n:
                y = g2[i]
                ref = (top.id, xs[i]) if top is not None else None
            elif yq <= 0.5:
                y = (1.0 - 2.0 * g1[i]) * yq + g1[i]
                ref = None
            else:
                y = (2.0 * g2[i] - 1.0) * yq + (1.0 - g2[i])
                ref = None
            vertices.append(Vertex(position=np.array([xs[i], y]), curve_ref=ref))

    def vid(i, j):
        return j * (n + 1) + i

    edges = []
    h_edge = {}
    v_edge = {}
    for j in range(n + 1):
        curve = bottom if j == 0 else top if j == n else None
        for i in range(n):
            segment = None
            if curve is not None and not _segment_is_straight(curve, xs[i], xs[i + 1]):
                segment = CurveSegment(curve, xs[i], xs[i + 1])
            h_edge[i, j] = len(edges)
            edges.append(Edge(v0=vid(i, j), v1=vid(i + 1, j), segment=segment))
    for i in range(n + 1):
        for j in range(n):
            v_edge[i, j] = len(edges)
            edges.append(Edge(v0=vid(i, j), v1=vid(i, j + 1)))

    elements = [Element(edge_loop=[(h_edge[i, j], 1), (v_edge[i + 1, j], 1),
                                   (h_edge[i, j + 1], -1), (v_edge[i, j], -1)])
                for j in range(n) for i in range(n)]
    return Mesh.build(vertices, edges, elements)


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
    if n_rings < 2 or n_sectors < 4 or n_sectors % 2 != 0:
        raise MeshError("build_annulus_interface_mesh: need n_rings >= 2 and even "
                        f"n_sectors >= 4, got ({n_rings}, {n_sectors})")
    R, S = n_rings, n_sectors
    gamma1 = circle_curve("Gamma1", (0.0, 0.0), 1.0)
    gamma2 = circle_curve("Gamma2", (0.0, 0.0), 0.5, omega=2.0,
                          param_interval=(0.0, np.pi))

    thetas = 2.0 * np.pi * np.arange(S) / S
    vertices = [Vertex(position=np.zeros(2))]
    for m in range(1, 2 * R + 1):
        r = 0.5 * m / R
        for s in range(S):
            if m == 2 * R:
                pos = gamma1.eval(thetas[s])
                ref = ("Gamma1", thetas[s])
            elif m == R:
                pos = gamma2.eval(0.5 * thetas[s])
                ref = ("Gamma2", 0.5 * thetas[s])
            else:
                pos = r * np.array([np.cos(thetas[s]), np.sin(thetas[s])])
                ref = None
            vertices.append(Vertex(position=pos, curve_ref=ref))

    def vid(m, s):
        return 1 + (m - 1) * S + s % S

    edges = []
    circ = {}
    for m in range(1, 2 * R + 1):
        for s in range(S):
            segment = None
            if m == 2 * R:
                segment = CurveSegment(gamma1, 2.0 * np.pi * s / S, 2.0 * np.pi * (s + 1) / S)
            elif m == R:
                segment = CurveSegment(gamma2, np.pi * s / S, np.pi * (s + 1) / S)
            circ[m, s] = len(edges)
            edges.append(Edge(v0=vid(m, s), v1=vid(m, s + 1), segment=segment))
    radial = {}
    for m in range(1, 2 * R):
        for s in range(S):
            radial[m, s] = len(edges)
            edges.append(Edge(v0=vid(m, s), v1=vid(m + 1, s)))
    spoke = {}
    for q in range(S // 2):
        spoke[q] = len(edges)
        edges.append(Edge(v0=0, v1=vid(1, 2 * q)))

    elements = []
    for q in range(S // 2):
        elements.append(Element(
            edge_loop=[(spoke[q], 1), (circ[1, 2 * q], 1), (circ[1, 2 * q + 1], 1),
                       (spoke[(q + 1) % (S // 2)], -1)],
            label=2))
    for m in range(1, 2 * R):
        label = 2 if m + 1 <= R else 1
        for s in range(S):
            elements.append(Element(
                edge_loop=[(radial[m, s], 1), (circ[m + 1, s], 1),
                           (radial[m, (s + 1) % S], -1), (circ[m, s], -1)],
                label=label))
    return Mesh.build(vertices, edges, elements)


def straighten_mesh(mesh: Mesh) -> Mesh:
    """Copy of the mesh with every curved edge replaced by its chord.

    Vertex positions are kept, so boundary vertices stay on the original
    curves while the edges between them become straight.
    """
    vertices = [Vertex(position=v.position.copy()) for v in mesh.vertices]
    edges = [Edge(v0=e.v0, v1=e.v1) for e in mesh.edges]
    elements = [Element(edge_loop=list(el.edge_loop), label=el.label)
                for el in mesh.elements]
    return Mesh.build(vertices, edges, elements)


# ---------------------------------------------------------------------------
# shape-regularity validation


@dataclass
class ElementQuality:
    element: int
    edge_ratio: float
    star_ratio: float
    ok: bool


@dataclass
class MeshQualityReport:
    rho: float
    ok: bool
    conformity_errors: list[str]
    elements: list[ElementQuality]

    @property
    def worst_edge_ratio(self) -> float:
        return min(e.edge_ratio for e in self.elements)

    @property
    def worst_star_ratio(self) -> float:
        return min(e.star_ratio for e in self.elements)


def _polylines(mesh: Mesh, ids) -> tuple[np.ndarray, np.ndarray]:
    """Boundary polylines of elements ``ids``, concatenated.

    Each is walked in traversal order: every corner, followed on a curved
    side by 8 samples of the curve.  Returns the points (M, 2) and the
    position in ``ids`` of each point's element (M,).
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
    sides = np.repeat(np.arange(len(ids)), np.diff(mesh.loop_offsets)[ids])
    return pts, np.repeat(sides, count)


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
    coordinates relative to the centroid in units of the diameter.  Elements
    are grouped by polyline length."""
    ids = np.arange(len(mesh.elements))
    pts, owner = _polylines(mesh, ids)
    pts = (pts - mesh.centroids[owner]) / mesh.diameters[owner, None]
    count = np.bincount(owner, minlength=len(ids))
    start = np.cumsum(count) - count
    ratios = np.empty(len(ids))
    for m in np.unique(count).tolist():
        group = np.flatnonzero(count == m)
        ratios[group] = _chebyshev_radii(pts[start[group, None] + np.arange(m)])
    return ratios


def validate_mesh(mesh: Mesh, rho: float) -> MeshQualityReport:
    """Check conformity and the two shape-regularity assumptions.

    Per element: every edge length (arc length for curved edges) must be at
    least rho times the element diameter, and the element must be
    star-shaped with respect to a disk of radius rho times the diameter.
    Star-shapedness is tested on the boundary polyline (chord corners plus
    samples along curved edges) via the kernel's Chebyshev radius, found by
    exact vertex enumeration over the polyline's side triples; an empty
    kernel gives ratio 0.
    """
    conformity = _conformity_errors(mesh)
    diameters = mesh.diameters
    lengths = mesh.edge_lengths[mesh.loop_edges]
    edge_ratio = np.minimum.reduceat(lengths, mesh.loop_offsets[:-1]) / diameters
    star_ratio = _star_ratios(mesh)
    ok = (edge_ratio >= rho) & (star_ratio >= rho)
    checks = [ElementQuality(element=p, edge_ratio=float(edge_ratio[p]),
                             star_ratio=float(star_ratio[p]), ok=bool(ok[p]))
              for p in range(len(mesh.elements))]
    return MeshQualityReport(rho=rho, ok=not conformity and bool(np.all(ok)),
                             conformity_errors=conformity, elements=checks)
