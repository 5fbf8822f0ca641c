"""Polygonal meshes whose edges may be exact curve segments.

Entities are index-based: edges store vertex indices plus an optional
``CurveSegment``, elements store a counterclockwise loop of signed edge
references (positive sign = traversal from v0 to v1).  ``Mesh.build``
finalizes a mesh: conformity is checked, adjacency and boundary flags are
derived, and per-element geometry (area, chord centroid, diameter) is
computed once.

Two structured generators cover the solver's test domains: a tensor grid
mapped between two boundary graphs, and a polar grid on the unit disk with
an exactly curved internal interface circle.  Unstructured (e.g. Voronoi)
meshes enter through ``mesh_io.import_mesh``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .geometry import BoundaryCurve, CurveSegment, arc_length, circle_curve

_ENDPOINT_TOL = 1e-12
_CURVE_SAMPLES = 8
# Elements per kernel LP in validate_mesh; one LP for a whole large mesh costs
# more time and memory than a few small ones.
LP_CHUNK_SIZE = 128


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


@dataclass
class Mesh:
    vertices: list[Vertex]
    edges: list[Edge]
    elements: list[Element]
    curves: dict[str, BoundaryCurve] = field(default_factory=dict)
    h: float = 0.0

    @classmethod
    def build(cls, vertices, edges, elements) -> "Mesh":
        """Finalize a mesh from raw entity lists; raises MeshError."""
        mesh = cls(vertices=list(vertices), edges=list(edges), elements=list(elements))
        errors = _finiteness_errors(mesh) or _conformity_errors(mesh)
        if errors:
            raise MeshError("; ".join(errors[:5]))
        _derive_topology(mesh)
        _derive_geometry(mesh)
        return mesh

    def positions(self, ids) -> np.ndarray:
        return np.array([self.vertices[i].position for i in ids])

    def traversal_endpoints(self, edge_id: int, sign: int) -> tuple[int, int]:
        edge = self.edges[edge_id]
        return (edge.v0, edge.v1) if sign > 0 else (edge.v1, edge.v0)


def _finiteness_errors(mesh: Mesh) -> list[str]:
    """Vertices and curved edges whose numbers are nan or infinite."""
    errors = [f"vertex {i}: non-finite position {tuple(map(float, v.position))}"
              for i, v in enumerate(mesh.vertices) if not np.all(np.isfinite(v.position))]
    for i, edge in enumerate(mesh.edges):
        seg = edge.segment
        if seg is not None and not np.all(np.isfinite(
                [seg.t0, seg.t1, *seg.curve.param_interval, *seg.curve.params])):
            errors.append(f"edge {i}: curve {seg.curve.id!r} has a non-finite parameter")
    return errors


def _conformity_errors(mesh: Mesh) -> list[str]:
    """Collect structural problems instead of failing on the first one."""
    errors = []
    nv, ne = len(mesh.vertices), len(mesh.edges)
    for i, edge in enumerate(mesh.edges):
        if not (0 <= edge.v0 < nv and 0 <= edge.v1 < nv) or edge.v0 == edge.v1:
            errors.append(f"edge {i}: bad vertex pair ({edge.v0}, {edge.v1})")
            continue
        if edge.segment is not None:
            seg = edge.segment
            scale = 1.0 + float(np.max(np.abs(mesh.vertices[edge.v0].position)))
            for vid, t in ((edge.v0, seg.t0), (edge.v1, seg.t1)):
                gap = np.hypot(*(seg.curve.eval(t) - mesh.vertices[vid].position))
                if gap > _ENDPOINT_TOL * scale:
                    errors.append(
                        f"edge {i}: vertex {vid} is {gap:.2e} away from curve "
                        f"{seg.curve.id!r} at t={t}")
    if not mesh.elements:
        errors.append("mesh has no elements")
    for p, element in enumerate(mesh.elements):
        if len(element.edge_loop) < 3:
            errors.append(f"element {p}: fewer than 3 edges")
            continue
        if any(not (0 <= eid < ne) for eid, _ in element.edge_loop):
            errors.append(f"element {p}: edge index out of range")
            continue
        seen = [eid for eid, _ in element.edge_loop]
        if len(set(seen)) != len(seen):
            errors.append(f"element {p}: repeated edge in loop")
            continue
        for pos, (eid, sign) in enumerate(element.edge_loop):
            _, end = mesh.traversal_endpoints(eid, sign)
            nxt_eid, nxt_sign = element.edge_loop[(pos + 1) % len(element.edge_loop)]
            start, _ = mesh.traversal_endpoints(nxt_eid, nxt_sign)
            if end != start:
                errors.append(f"element {p}: loop breaks between edges {eid} and {nxt_eid}")
                break
    if not errors:
        counts = np.zeros(ne, dtype=int)
        signed = np.zeros(ne, dtype=int)
        for element in mesh.elements:
            for eid, sign in element.edge_loop:
                counts[eid] += 1
                signed[eid] += sign
        for i in range(ne):
            if counts[i] == 0:
                errors.append(f"edge {i}: referenced by no element")
            elif counts[i] > 2:
                errors.append(f"edge {i}: shared by {counts[i]} elements")
            elif counts[i] == 2 and signed[i] != 0:
                errors.append(f"edge {i}: traversed twice in the same direction")
    return errors


def _derive_topology(mesh: Mesh) -> None:
    adjacency = [[] for _ in mesh.edges]
    for p, element in enumerate(mesh.elements):
        element.vertices = [mesh.traversal_endpoints(eid, sign)[0]
                            for eid, sign in element.edge_loop]
        for eid, _ in element.edge_loop:
            adjacency[eid].append(p)
    curves: dict[str, BoundaryCurve] = {}
    for i, edge in enumerate(mesh.edges):
        edge.elements = tuple(adjacency[i])
        edge.on_boundary = len(adjacency[i]) == 1
        if edge.on_boundary:
            for vid in (edge.v0, edge.v1):
                mesh.vertices[vid].on_boundary = True
        if edge.segment is not None:
            curve = edge.segment.curve
            if curves.get(curve.id, curve) is not curve:
                raise MeshError(f"two distinct curves share the id {curve.id!r}")
            curves[curve.id] = curve
    mesh.curves = curves


def _edge_samples(edge: Edge, n: int = _CURVE_SAMPLES) -> np.ndarray:
    seg = edge.segment
    t = np.linspace(seg.t0, seg.t1, n + 2)[1:-1]
    return seg.curve.eval(t)


def _derive_geometry(mesh: Mesh) -> None:
    from .quadrature import gauss_legendre

    rule = gauss_legendre(24)
    for edge in mesh.edges:
        p0 = mesh.vertices[edge.v0].position
        p1 = mesh.vertices[edge.v1].position
        if edge.segment is None:
            edge.length = float(np.hypot(*(p1 - p0)))
        else:
            edge.length = arc_length(edge.segment)
        if edge.length <= 0.0:
            raise MeshError(f"degenerate edge between vertices {edge.v0} and {edge.v1}")

    for p, element in enumerate(mesh.elements):
        verts = mesh.positions(element.vertices)
        x, y = verts[:, 0], verts[:, 1]
        xn, yn = np.roll(x, -1), np.roll(y, -1)
        cross = x * yn - xn * y
        chord_area = 0.5 * float(np.sum(cross))
        if chord_area <= 0.0:
            raise MeshError(f"element {p}: chord polygon is not counterclockwise "
                            f"(signed area {chord_area:.3e})")
        element.centroid = np.array([float(np.sum((x + xn) * cross)),
                                     float(np.sum((y + yn) * cross))]) / (6.0 * chord_area)

        alpha = float(np.mean(x))
        area = 0.0
        pts = [verts]
        for eid, sign in element.edge_loop:
            edge = mesh.edges[eid]
            a, b = mesh.traversal_endpoints(eid, sign)
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
                pts.append(_edge_samples(edge))
        if area <= 0.0:
            raise MeshError(f"element {p}: nonpositive area {area:.3e}")
        element.area = area
        cloud = np.concatenate(pts, axis=0)
        diff = cloud[:, None, :] - cloud[None, :, :]
        element.diameter = float(np.sqrt(np.max(np.sum(diff * diff, axis=-1))))
    mesh.h = max(el.diameter for el in mesh.elements)


def curved_polygon(mesh: Mesh, element_id: int):
    """Boundary description of one element for the quadrature module."""
    from .quadrature import CurvedPiece, CurvedPolygon, StraightPiece

    element = mesh.elements[element_id]
    pieces = []
    for eid, sign in element.edge_loop:
        edge = mesh.edges[eid]
        if edge.segment is None:
            a, b = mesh.traversal_endpoints(eid, sign)
            pieces.append(StraightPiece(mesh.vertices[a].position,
                                        mesh.vertices[b].position))
        else:
            pieces.append(CurvedPiece(edge.segment, reversed=sign < 0))
    return CurvedPolygon(vertices=mesh.positions(element.vertices), pieces=tuple(pieces))


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


def _element_polyline(mesh: Mesh, element: Element) -> np.ndarray:
    pts = []
    for eid, sign in element.edge_loop:
        edge = mesh.edges[eid]
        a, _ = mesh.traversal_endpoints(eid, sign)
        pts.append(mesh.vertices[a].position[None, :])
        if edge.segment is not None:
            samples = _edge_samples(edge)
            pts.append(samples if sign > 0 else samples[::-1])
    return np.concatenate(pts, axis=0)


def _kernel_inradii(mesh: Mesh, elements: range, diameters: np.ndarray) -> np.ndarray:
    """Chebyshev radii of the kernels of consecutive elements' polylines.

    One LP for the chunk: maximize the sum of the radii r_e subject to the
    disk of radius r_e around (x_e, y_e) lying left of every directed side
    of element e.  The blocks share no variable, so each r_e is maximal on
    its own.  r_e is free with upper bound diameter_e, which keeps the LP
    feasible and bounded; an empty kernel shows as r_e < 0.
    """
    polys = [_element_polyline(mesh, mesh.elements[p]) for p in elements]
    owner = np.repeat(np.arange(len(polys)), [len(poly) for poly in polys])
    pts = np.concatenate(polys)
    d = np.concatenate([np.roll(poly, -1, axis=0) - poly for poly in polys])
    normals = np.stack([-d[:, 1], d[:, 0]], axis=-1)
    norms = np.hypot(normals[:, 0], normals[:, 1])
    keep = norms > 1e-300
    normals, norms, base, owner = normals[keep], norms[keep], pts[keep], owner[keep]
    rows = np.repeat(np.arange(len(owner)), 3)
    cols = (3 * owner[:, None] + np.arange(3)).ravel()
    vals = np.column_stack([-normals, norms]).ravel()
    a_ub = sparse.csr_matrix((vals, (rows, cols)), shape=(len(owner), 3 * len(polys)))
    b_ub = -np.sum(normals * base, axis=1)
    c = np.zeros(3 * len(polys))
    c[2::3] = -1.0
    bounds = np.tile([-np.inf, np.inf], (3 * len(polys), 1))
    bounds[2::3, 1] = diameters
    res = linprog(c=c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise MeshError(f"kernel LP of elements {elements.start}..{elements.stop - 1} "
                        f"failed: {res.message}")
    return res.x[2::3]


def validate_mesh(mesh: Mesh, rho: float) -> MeshQualityReport:
    """Check conformity and the two shape-regularity assumptions.

    Per element: every edge length (arc length for curved edges) must be at
    least rho times the element diameter, and the element must be
    star-shaped with respect to a disk of radius rho times the diameter.
    Star-shapedness is tested on the boundary polyline (chord corners plus
    samples along curved edges) via the kernel's Chebyshev radius, found by
    one LP per chunk of ``LP_CHUNK_SIZE`` elements; an empty kernel gives
    ratio 0.  Raises MeshError if HiGHS fails on a chunk.
    """
    conformity = _conformity_errors(mesh)
    diameters = np.array([el.diameter for el in mesh.elements])
    n_edges = np.array([len(el.edge_loop) for el in mesh.elements], dtype=int)
    lengths = np.array([mesh.edges[eid].length
                        for el in mesh.elements for eid, _ in el.edge_loop])
    edge_ratio = np.minimum.reduceat(lengths, np.cumsum(n_edges) - n_edges) / diameters
    radii = np.empty(len(mesh.elements))
    for lo in range(0, len(mesh.elements), LP_CHUNK_SIZE):
        chunk = range(lo, min(lo + LP_CHUNK_SIZE, len(mesh.elements)))
        radii[lo:chunk.stop] = _kernel_inradii(mesh, chunk, diameters[lo:chunk.stop])
    star_ratio = np.maximum(radii, 0.0) / diameters
    ok = (edge_ratio >= rho) & (star_ratio >= rho)
    checks = [ElementQuality(element=p, edge_ratio=float(edge_ratio[p]),
                             star_ratio=float(star_ratio[p]), ok=bool(ok[p]))
              for p in range(len(mesh.elements))]
    return MeshQualityReport(rho=rho, ok=not conformity and bool(np.all(ok)),
                             conformity_errors=conformity, elements=checks)
