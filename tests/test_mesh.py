import re
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvem import (BoundaryCurve, CurveSegment, Edge, Element, GeometryError, Mesh,
                    MeshError, Vertex, build_annulus_interface_mesh,
                    build_mapped_tensor_mesh, circle_curve, graph_curve,
                    straighten_mesh, validate_mesh)
from curvem import test1_boundary_curves as boundary_curves
from curvem import test1_problem as problem1
from curvem import test2_problem as problem2
from curvem import mesh as mesh_module
from curvem.geometry import arc_length
from curvem.mesh import _SLACKS_PER_BLOCK, _polyline_groups, _polylines, _star_ratios
from curvem.vem import element_chunks

from _oracles import (element_loop_geometry, kernel_chebyshev_radius, random_star_polygon,
                      traced_peak)


def unit_square_mesh():
    vertices = [Vertex(position=np.array(p, dtype=float))
                for p in [(0, 0), (1, 0), (1, 1), (0, 1)]]
    edges = [Edge(v0=0, v1=1), Edge(v0=1, v1=2), Edge(v0=2, v1=3), Edge(v0=3, v1=0)]
    elements = [Element(edge_loop=[(0, 1), (1, 1), (2, 1), (3, 1)])]
    return Mesh.build(vertices, edges, elements)


def test_unit_square_derived_quantities():
    mesh = unit_square_mesh()
    assert mesh.areas[0] == pytest.approx(1.0, rel=1e-14)
    assert np.allclose(mesh.centroids[0], [0.5, 0.5])
    assert mesh.diameters[0] == pytest.approx(np.sqrt(2.0), rel=1e-14)
    assert mesh.h == pytest.approx(np.sqrt(2.0), rel=1e-14)
    assert mesh.edge_on_boundary.all()
    assert all(v.on_boundary for v in mesh.vertices)


def test_entity_records_hold_input_only():
    assert [f.name for f in fields(Edge)] == ["v0", "v1", "segment"]
    assert [f.name for f in fields(Element)] == ["edge_loop", "label"]


# every array the curvem.mesh docstring lists
MESH_ARRAYS = ("points", "edge_vertices", "edge_curves", "edge_params", "loop_offsets",
               "loop_edges", "loop_signs", "labels", "vertex_on_boundary", "edge_on_boundary",
               "edge_curved", "edge_lengths", "loop_corners", "areas", "centroids", "diameters")


@pytest.mark.parametrize("make_mesh", [
    lambda: build_mapped_tensor_mesh(8, *boundary_curves()),
    lambda: build_annulus_interface_mesh(4, 16),
    lambda: straighten_mesh(build_mapped_tensor_mesh(8, *boundary_curves())),
], ids=["test1-n8", "test2-n4", "test1-straight-n8"])
def test_rebuilding_from_the_views_gives_the_same_arrays(make_mesh):
    mesh = make_mesh()
    rebuilt = Mesh.build(mesh.vertices, mesh.edges, mesh.elements)
    for name in MESH_ARRAYS:
        assert np.array_equal(getattr(rebuilt, name), getattr(mesh, name),
                              equal_nan=name == "edge_params"), name


def test_views_cannot_change_the_mesh():
    mesh = build_annulus_interface_mesh(2, 8)
    with pytest.raises(FrozenInstanceError):
        mesh.elements[0].label = 3
    mesh.vertices[0].position[0] = 5.0
    mesh.elements[0].edge_loop.append((0, 1))
    assert mesh.points[0, 0] == 0.0
    assert np.diff(mesh.loop_offsets)[0] == 4
    assert mesh.vertices is mesh.vertices  # built once
    assert [v.on_boundary for v in mesh.vertices] == mesh.vertex_on_boundary.tolist()
    assert [el.label for el in mesh.elements] == mesh.labels.tolist()


def test_curve_ref_is_taken_from_the_first_curved_edge_at_a_vertex():
    # ring vertices with s = 0 close their circle: the arcs ending there are
    # the first (t = 0) and the last (t = the interval's end)
    mesh = build_annulus_interface_mesh(2, 8)
    assert mesh.vertices[9].curve_ref == ("Gamma2", 0.0)
    assert mesh.vertices[25].curve_ref == ("Gamma1", 0.0)
    assert mesh.vertices[26].curve_ref == ("Gamma1", 2.0 * np.pi / 8)
    assert mesh.vertices[0].curve_ref is None


def test_build_rejects_open_loop():
    vertices = [Vertex(position=np.array(p, dtype=float))
                for p in [(0, 0), (1, 0), (1, 1), (0, 1)]]
    edges = [Edge(v0=0, v1=1), Edge(v0=1, v1=2), Edge(v0=2, v1=3), Edge(v0=3, v1=0)]
    with pytest.raises(MeshError):
        Mesh.build(vertices, edges, [Element(edge_loop=[(0, 1), (1, 1), (2, 1)])])


def test_build_rejects_curve_endpoint_mismatch():
    c = circle_curve("c", (0, 0), 1.0)
    vertices = [Vertex(position=np.array([1.0, 0.0])),
                Vertex(position=np.array([0.0, 1.5])),  # not on the circle
                Vertex(position=np.array([-1.0, -1.0]))]
    edges = [Edge(v0=0, v1=1, segment=CurveSegment(c, 0.0, np.pi / 2)),
             Edge(v0=1, v1=2), Edge(v0=2, v1=0)]
    with pytest.raises(MeshError):
        Mesh.build(vertices, edges, [Element(edge_loop=[(0, 1), (1, 1), (2, 1)])])


def test_build_rejects_doubly_used_direction():
    mesh_verts = [Vertex(position=np.array(p, dtype=float))
                  for p in [(0, 0), (1, 0), (1, 1), (0, 1)]]
    edges = [Edge(v0=0, v1=1), Edge(v0=1, v1=2), Edge(v0=2, v1=3), Edge(v0=3, v1=0)]
    loops = [Element(edge_loop=[(0, 1), (1, 1), (2, 1), (3, 1)]),
             Element(edge_loop=[(0, 1), (1, 1), (2, 1), (3, 1)])]
    with pytest.raises(MeshError):
        Mesh.build(mesh_verts, edges, loops)


def test_build_rejects_empty_mesh():
    with pytest.raises(MeshError, match="mesh has no elements"):
        Mesh.build([], [], [])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_build_rejects_non_finite_vertex(bad):
    vertices = [Vertex(position=np.array(p, dtype=float))
                for p in [(0, 0), (1, 0), (1, bad), (0, 1)]]
    edges = [Edge(v0=0, v1=1), Edge(v0=1, v1=2), Edge(v0=2, v1=3), Edge(v0=3, v1=0)]
    with pytest.raises(MeshError, match="vertex 2: non-finite position"):
        Mesh.build(vertices, edges, [Element(edge_loop=[(0, 1), (1, 1), (2, 1), (3, 1)])])


@pytest.mark.parametrize("edit, message", [
    ("reverse", "segment needs t0 < t1, got [0.39269908169872414, 0.0]"),
    ("shift", "segment [3.141592653589793, 3.5342917352885173] leaves parameter interval "
              "[0.0, 3.141592653589793]"),
], ids=["reversed", "shifted-by-pi"])
def test_arrays_with_a_bad_curve_segment_name_the_edge(edit, message):
    # curved edge 8 of test2 n = 2 lies on Gamma2, t in [0, pi], whose
    # points repeat with period pi; either edit keeps the mesh conforming
    base = problem2().mesh_factory(2)
    edge_vertices, params, signs = (base.edge_vertices.copy(), base.edge_params.copy(),
                                    base.loop_signs.copy())
    if edit == "reverse":
        edge_vertices[8], params[8] = edge_vertices[8, ::-1], params[8, ::-1]
        signs[base.loop_edges == 8] *= -1
    else:
        params[8] += np.pi
    with pytest.raises(MeshError, match=re.escape(f"edge 8: curve 'Gamma2': {message}")):
        Mesh(base.points, edge_vertices, base.edge_curves, params, base.loop_offsets,
             base.loop_edges, signs, base.labels)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_build_rejects_non_finite_curve_parameter(bad):
    # a curve record built directly checks every coefficient, so no mesh
    # can hold a curve with a non-finite one
    for kind, params in (("circle", (0.0, 0.0, 1.0, 1.0, 0.0)), ("graph", (0.1, 1.0, 0.0))):
        for i in range(len(params)):
            odd = params[:i] + (bad,) + params[i + 1:]
            with pytest.raises(GeometryError, match="curve 'c': non-finite"):
                BoundaryCurve(id="c", param_interval=(0.0, 1.0), kind=kind, params=odd)
        with pytest.raises(GeometryError, match="invalid parameter interval"):
            BoundaryCurve(id="c", param_interval=(0.0, bad), kind=kind, params=params)


def test_curves_sharing_an_id_must_be_equal():
    base = build_mapped_tensor_mesh(4, *boundary_curves())
    curves = base.edge_curves.copy()
    curved = np.flatnonzero(base.edge_curved)
    # equal records built separately, as two calls of a curve factory give
    curves[curved[::2]] = [boundary_curves()[0 if c.id == "Gamma1" else 1]
                           for c in curves[curved[::2]]]
    args = (base.loop_offsets, base.loop_edges, base.loop_signs, base.labels)
    mesh = Mesh(base.points, base.edge_vertices, curves, base.edge_params, *args)
    assert mesh.curves == base.curves
    bottom = boundary_curves()[0]
    curves[curved[0]] = replace(bottom, params=(*bottom.params[:2], 1e-17))
    with pytest.raises(MeshError, match="two distinct curves share the id 'Gamma1'"):
        Mesh(base.points, base.edge_vertices, curves, base.edge_params, *args)


@pytest.mark.parametrize("field, odd, message", [
    ("labels", lambda base: [1.5], "labels[0]: 1.5 is not an integer"),
    ("loop_edges", lambda base: base.loop_edges + 0.7, "loop_edges[0]: 0.7 is not an integer"),
    ("labels", lambda base: [2 ** 63], "labels[0]: 9223372036854775808 is not an integer"),
], ids=["fractional-label", "fractional-loop-edges", "label-outside-64-bits"])
def test_index_arrays_must_hold_64_bit_integers(field, odd, message):
    base = build_mapped_tensor_mesh(1, *boundary_curves())
    arrays = {name: getattr(base, name) for name in (
        "points", "edge_vertices", "edge_curves", "edge_params", "loop_offsets",
        "loop_edges", "loop_signs", "labels")}
    arrays[field] = odd(base)
    with pytest.raises(MeshError, match=re.escape(message + " that fits in 64 bits")):
        Mesh(**arrays)


# one unit square, as the constructor's input arrays
_SQUARE_ARRAYS = dict(points=[(0, 0), (1, 0), (1, 1), (0, 1)],
                      edge_vertices=[(0, 1), (1, 2), (2, 3), (3, 0)], edge_curves=[None] * 4,
                      edge_params=[(np.nan, np.nan)] * 4, loop_offsets=[0, 4],
                      loop_edges=[0, 1, 2, 3], loop_signs=[1, 1, 1, 1], labels=[1])


@pytest.mark.parametrize("field, value, message", [
    ("loop_signs", [1, 1, 1, 2], "loop_signs[3]: 2 is not +1 or -1"),
    ("labels", [], "labels has 0 entries, expected 1"),
    ("points", np.arange(12.0).reshape(4, 3), "points must have shape (n, 2), got (4, 3)"),
    ("loop_offsets", [0, 3], "loop_offsets must run from 0 to len(loop_edges) = 4, "
                             "got ends [0, 3]"),
    ("loop_offsets", [0, 3, 1, 4], "loop_offsets[2]: 1 is below loop_offsets[1] = 3"),
    ("loop_signs", [1, 1, 1], "loop_signs has 3 entries, expected 4"),
    ("edge_curves", [None] * 3, "edge_curves has 3 entries, expected 4"),
    ("edge_params", [(np.nan, np.nan)] * 3, "edge_params has 3 entries, expected 4"),
], ids=["sign-2", "no-label", "3d-points", "offsets-short-of-sides", "offsets-decrease",
        "short-signs", "short-curves", "short-params"])
def test_input_arrays_must_agree(field, value, message):
    Mesh(**_SQUARE_ARRAYS)  # the square itself is a mesh
    with pytest.raises(MeshError) as info:
        Mesh(**{**_SQUARE_ARRAYS, field: value})
    assert str(info.value) == message


@pytest.mark.parametrize("field, value, message", [
    ("points", [(0, 0), (1, 0), (1, 1, 5), (0, 1)],
     "points[2]: expected 2 values, got shape (3,)"),
    ("edge_vertices", [(0, 1), (1,), (2, 3), (3, 0)],
     "edge_vertices[1]: expected 2 values, got shape (1,)"),
    ("edge_params", [(np.nan, np.nan)] * 3 + [(np.nan,)],
     "edge_params[3]: expected 2 values, got shape (1,)"),
    ("loop_edges", [0, 1, [2, 3], 3], "loop_edges[2]: expected a single value, got shape (2,)"),
    ("loop_signs", [1, (1, 1), 1, 1], "loop_signs[1]: expected a single value, got shape (2,)"),
    ("points", [(0, 0), (1, 0), (1, "one"), (0, 1)],
     "points[2]: could not convert string to float: 'one'"),
], ids=["ragged-points", "ragged-edge-vertices", "ragged-edge-params", "ragged-loop-edges",
        "ragged-loop-signs", "text-point"])
def test_input_arrays_that_numpy_cannot_convert_name_their_row(field, value, message):
    with pytest.raises(MeshError) as info:
        Mesh(**{**_SQUARE_ARRAYS, field: value})
    assert str(info.value) == message


def test_mapped_mesh_identity_when_straight():
    flat_bottom = graph_curve("b", amplitude=0.0, frequency=1.0)
    flat_top = graph_curve("t", amplitude=0.0, frequency=1.0, offset=1.0)
    mesh = build_mapped_tensor_mesh(4, flat_bottom, flat_top)
    for edge in mesh.edges:
        assert edge.segment is None  # zero-amplitude graphs degenerate to chords
    xs = sorted({round(float(v.position[0]), 12) for v in mesh.vertices})
    assert np.allclose(xs, np.linspace(0, 1, 5))
    assert mesh.areas.sum() == pytest.approx(1.0, rel=1e-13)


def test_mapped_mesh_area_matches_exact_domain():
    mesh = build_mapped_tensor_mesh(4, *boundary_curves())
    # area between the two sine boundaries: 1 + (cos(3pi)-1)/(60pi) - (1-cos(pi))/(20pi)
    g1_int = (1.0 - np.cos(np.pi)) / (20.0 * np.pi)
    g2_int = 1.0 + (1.0 - np.cos(3.0 * np.pi)) / (60.0 * np.pi)
    exact = g2_int - g1_int
    assert mesh.areas.sum() == pytest.approx(exact, rel=1e-12)


def test_mapped_mesh_branches_agree_on_midline():
    bottom, top = boundary_curves()
    mesh = build_mapped_tensor_mesh(2, bottom, top)
    ys = [float(v.position[1]) for v in mesh.vertices
          if abs(v.position[1] - 0.5) < 0.2]
    # the row mapped from y_Q = 1/2 stays exactly at 1/2 from either branch
    assert any(y == 0.5 for y in ys)


def test_mapped_mesh_boundary_vertices_on_curves():
    bottom, top = boundary_curves()
    mesh = build_mapped_tensor_mesh(8, bottom, top)
    for v in mesh.vertices:
        if v.curve_ref is None:
            continue
        cid, t = v.curve_ref
        curve = bottom if cid == bottom.id else top
        assert np.array_equal(v.position, curve.eval(np.array([t]))[0])


def test_mapped_mesh_h_halves():
    bottom, top = boundary_curves()
    h = [build_mapped_tensor_mesh(n, bottom, top).h for n in (4, 8, 16)]
    assert 0.4 < h[1] / h[0] < 0.6
    assert 0.4 < h[2] / h[1] < 0.6


def test_annulus_mesh_geometry():
    mesh = build_annulus_interface_mesh(2, 8)
    assert mesh.areas.sum() == pytest.approx(np.pi, abs=1e-8)
    labels = {el.label for el in mesh.elements}
    assert labels == {1, 2}
    inner = mesh.areas[mesh.labels == 2].sum()
    assert inner == pytest.approx(np.pi / 4, abs=1e-8)


def test_annulus_interface_edges_lie_on_half_radius_circle():
    mesh = build_annulus_interface_mesh(2, 8)
    found = 0
    for i, edge in enumerate(mesh.edges):
        if edge.segment is not None and edge.segment.curve.id == "Gamma2":
            found += 1
            mid = 0.5 * (edge.segment.t0 + edge.segment.t1)
            p = edge.segment.curve.eval(np.array([mid]))[0]
            assert np.hypot(p[0], p[1]) == pytest.approx(0.5, abs=1e-14)
            assert not mesh.edge_on_boundary[i]
    assert found == 8


def test_annulus_requires_even_sectors():
    with pytest.raises(MeshError):
        build_annulus_interface_mesh(2, 7)
    with pytest.raises(MeshError):
        build_annulus_interface_mesh(1, 8)


def test_straighten_mesh_drops_curves_keeps_topology():
    mesh = build_mapped_tensor_mesh(4, *boundary_curves())
    straight = straighten_mesh(mesh)
    assert len(straight.elements) == len(mesh.elements)
    assert all(e.segment is None for e in straight.edges)
    curved_area = mesh.areas.sum()
    chord_area = straight.areas.sum()
    assert abs(curved_area - chord_area) > 1e-6  # slivers are really removed
    assert abs(curved_area - chord_area) < 5e-3


def test_element_chunk_exposes_sides():
    mesh = build_mapped_tensor_mesh(4, *boundary_curves())
    sides = element_chunks(mesh, 1, [0])[0].sides
    assert sides[0].is_curved
    assert len(sides) == 4


def test_edge_lengths_use_arc_length():
    mesh = build_annulus_interface_mesh(2, 8)
    for edge, length in zip(mesh.edges, mesh.edge_lengths):
        if edge.segment is not None and edge.segment.curve.id == "Gamma1":
            assert length == pytest.approx(2.0 * np.pi / 8, rel=1e-12)
            assert length == pytest.approx(arc_length(edge.segment), rel=1e-12)


def test_validate_mesh_passes_generated_families():
    assert validate_mesh(build_mapped_tensor_mesh(8, *boundary_curves()), 0.05).ok
    assert validate_mesh(build_annulus_interface_mesh(4, 16), 0.03).ok


def test_validate_mesh_flags_bad_aspect():
    vertices = [Vertex(position=np.array(p, dtype=float))
                for p in [(0, 0), (1, 0), (1, 0.004), (0, 0.004)]]
    edges = [Edge(v0=0, v1=1), Edge(v0=1, v1=2), Edge(v0=2, v1=3), Edge(v0=3, v1=0)]
    mesh = Mesh.build(vertices, edges,
                      [Element(edge_loop=[(0, 1), (1, 1), (2, 1), (3, 1)])])
    report = validate_mesh(mesh, 0.05)
    assert not report.ok
    assert not report.elements["ok"][0]
    assert report.worst_edge_ratio < 0.05


def test_validate_mesh_star_ratio_detects_thin_kernel():
    # chevron: star-shaped only w.r.t. a thin region near the notch
    vertices = [Vertex(position=np.array(p, dtype=float))
                for p in [(0, 0), (2, 0), (2, 2), (1, 0.2), (0, 2)]]
    edges = [Edge(v0=0, v1=1), Edge(v0=1, v1=2), Edge(v0=2, v1=3),
             Edge(v0=3, v1=4), Edge(v0=4, v1=0)]
    mesh = Mesh.build(vertices, edges,
                      [Element(edge_loop=[(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)])])
    report = validate_mesh(mesh, 0.3)
    assert report.worst_star_ratio < 0.3
    assert not report.ok


def oracle_star_ratios(mesh):
    return np.array([kernel_chebyshev_radius(_polylines(mesh, [p])) / mesh.diameters[p]
                     for p in range(len(mesh.elements))])


@pytest.mark.parametrize("make_mesh", [
    lambda: build_mapped_tensor_mesh(16, *boundary_curves()),
    lambda: build_mapped_tensor_mesh(32, *boundary_curves()),
    lambda: build_mapped_tensor_mesh(64, *boundary_curves()),
    lambda: build_annulus_interface_mesh(4, 16),
    lambda: straighten_mesh(build_mapped_tensor_mesh(8, *boundary_curves())),
], ids=["test1-n16", "test1-n32", "test1-n64", "test2-n4", "test1-straight-n8"])
def test_validate_star_ratios_match_vertex_enumeration(make_mesh):
    mesh = make_mesh()
    report = validate_mesh(mesh, 0.03)
    star = report.elements["star_ratio"]
    assert np.allclose(star, oracle_star_ratios(mesh), rtol=1e-10, atol=0.0)
    assert np.all(star > 0.0)


def test_validate_flags_exactly_the_elements_the_oracle_flags():
    # vertex (5, 8) of the 16x16 grid touches elements 116, 117, 132 and
    # 133; the shift makes 133 non-convex
    base = build_mapped_tensor_mesh(16)
    vertices = [Vertex(position=v.position.copy()) for v in base.vertices]
    vertices[8 * 17 + 5].position[:] += np.array([0.7, 0.7]) / 16
    mesh = Mesh.build(vertices, [Edge(v0=e.v0, v1=e.v1) for e in base.edges],
                      [Element(edge_loop=list(el.edge_loop)) for el in base.elements])
    rho = 0.23
    report = validate_mesh(mesh, rho)
    edge = np.array([min(mesh.edge_lengths[eid] for eid, _ in el.edge_loop) / mesh.diameters[p]
                     for p, el in enumerate(mesh.elements)])
    expected = np.flatnonzero((edge < rho) | (oracle_star_ratios(mesh) < rho))
    assert expected.tolist() == [117, 132, 133]
    assert np.flatnonzero(~report.elements["ok"]).tolist() == expected.tolist()
    assert report.elements["edge_ratio"].tolist() == edge.tolist()
    assert not report.ok


def test_validate_empty_kernel_gives_zero_star_ratio():
    # two-tooth comb: the inner sides of the teeth face away from each other
    vertices = [Vertex(position=np.array(p, dtype=float))
                for p in [(0, 0), (3, 0), (3, 3), (2, 3), (2, 1), (1, 1), (1, 3), (0, 3)]]
    edges = [Edge(v0=i, v1=(i + 1) % 8) for i in range(8)]
    comb = Mesh.build(vertices, edges, [Element(edge_loop=[(i, 1) for i in range(8)])])
    report = validate_mesh(comb, 0.05)
    assert report.elements["star_ratio"][0] == 0.0
    assert kernel_chebyshev_radius(_polylines(comb, [0])) == 0.0
    assert not report.ok


def arc_polygon(bulges):
    """One element whose every side is an exact circular arc: corners on a
    perturbed circle, side i bulging out (bulges[i] > 0) or in by a sagitta
    of |bulges[i]| times its chord."""
    n = len(bulges)
    angles = 2.0 * np.pi * (np.arange(n) + 0.15 * np.sin(3.0 * np.arange(n))) / n
    radii = 1.0 + 0.1 * np.cos(2.0 * np.arange(n))
    corners = radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    edges = []
    for i, bulge in enumerate(bulges):
        p0, p1 = corners[i], corners[(i + 1) % n]
        chord = np.hypot(*(p1 - p0))
        sagitta = abs(bulge) * chord
        radius = (0.25 * chord ** 2 + sagitta ** 2) / (2.0 * sagitta)
        turn = np.sign(bulge)  # counterclockwise about a centre on the left
        left = np.array([p0[1] - p1[1], p1[0] - p0[0]]) / chord
        center = 0.5 * (p0 + p1) + turn * (radius - sagitta) * left
        span = 2.0 * np.arcsin(0.5 * chord / radius)
        curve = circle_curve(f"arc{i}", center, radius, omega=turn,
                             phase=np.arctan2(p0[1] - center[1], p0[0] - center[0]),
                             param_interval=(0.0, span))
        edges.append(Edge(v0=i, v1=(i + 1) % n, segment=CurveSegment(curve, 0.0, span)))
    return Mesh.build([Vertex(position=c) for c in corners], edges,
                      [Element(edge_loop=[(i, 1) for i in range(n)])])


def test_validate_star_ratio_of_ten_curved_sides_matches_the_oracle():
    # 10 arcs, alternately bulging out and in: a 90-point polyline whose
    # 117480 side triples take several enumeration blocks
    mesh = arc_polygon([0.08, -0.05] * 5)
    polyline = _polylines(mesh, [0])
    assert len(polyline) == 90
    assert 117480 * 90 > 4 * _SLACKS_PER_BLOCK
    star = validate_mesh(mesh, 0.3).elements["star_ratio"][0]
    oracle = kernel_chebyshev_radius(polyline) / mesh.diameters[0]
    assert star == pytest.approx(oracle, rel=1e-10, abs=0.0)
    assert 0.3 < star < 0.5


@pytest.mark.parametrize("make_mesh, small, per_block", [
    (lambda: build_mapped_tensor_mesh(8, *boundary_curves()), 1 << 8, 1),
    (lambda: build_annulus_interface_mesh(8, 32), 1 << 8, 1),
    # at 1 << 8 its 117480 triples would take 58740 blocks, about 7 s
    (lambda: arc_polygon([0.08, -0.05] * 5), 1 << 14, 182),
], ids=["test1-n8", "test2-n8", "ten-arcs"])
def test_star_ratios_do_not_depend_on_the_block_size(monkeypatch, make_mesh, small, per_block):
    mesh = make_mesh()
    ratios = _star_ratios(mesh)
    for size in (small, 1 << 20):
        monkeypatch.setattr(mesh_module, "_SLACKS_PER_BLOCK", size)
        assert np.array_equal(_star_ratios(mesh), ratios)
        # the diameter pass takes blocks of the same budget, m * m entries
        # per element: at 1 << 8 test1-n8's quadrilaterals go 16 to a block
        assert np.array_equal(make_mesh().diameters, mesh.diameters)
    # at the small size every polyline group takes several blocks
    for _, polylines in _polyline_groups(mesh, lambda m: m):
        m = polylines.shape[1]
        assert max(1, small // polylines[..., 0].size) == per_block < m * (m - 1) * (m - 2) // 6


def star_polygon_mesh(seeds):
    """One element per seed, a ``random_star_polygon`` of 5 to 10 corners,
    each shifted 3 to the right of the one before so that none overlap."""
    polygons = [random_star_polygon(np.random.default_rng(seed)) + [3.0 * i, 0.0]
                for i, seed in enumerate(seeds)]
    sizes = np.array([len(polygon) for polygon in polygons])
    first = np.repeat(np.cumsum(sizes) - sizes, sizes)
    corner = np.arange(sizes.sum()) - first
    following = first + (corner + 1) % np.repeat(sizes, sizes)
    return Mesh(np.concatenate(polygons), np.stack([first + corner, following], axis=-1),
                [None] * len(first), np.full((len(first), 2), np.nan),
                np.concatenate([[0], np.cumsum(sizes)]), np.arange(len(first)),
                np.ones(len(first)), np.ones(len(seeds)))


@pytest.mark.parametrize("slacks", [_SLACKS_PER_BLOCK, 1 << 4], ids=["default", "2^4"])
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=2, max_size=6))
def test_star_ratios_of_random_star_polygons_match_the_oracle(slacks, seeds):
    # one mesh mixes polyline lengths 5 to 10; at 1 << 4 slacks a block
    # holds 1 to 3 elements, so the blocks split the groups of equal length
    mesh = star_polygon_mesh(seeds)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mesh_module, "_SLACKS_PER_BLOCK", slacks)
        star = validate_mesh(mesh, 0.05).elements["star_ratio"]
    assert np.allclose(star, oracle_star_ratios(mesh), rtol=1e-10, atol=0.0)


def test_validate_peak_memory_is_bounded_by_the_blocks():
    # blocks of 1 << 20 slacks peak at 17.6 MB here, of 1 << 16 at 3.4 MB
    mesh = build_annulus_interface_mesh(16, 64)
    validate_mesh(mesh, 0.03)  # warm caches
    peak = traced_peak(lambda: validate_mesh(mesh, 0.03))
    assert peak <= 5e6, f"{peak / 1e6:.1f} MB"


def test_validate_peak_memory_is_bounded_by_element_blocks(monkeypatch):
    # the polylines of a group are built a block of elements at a time: at
    # 1 << 12 slacks a block holds 1024 of test1's 4096 quadrilaterals and
    # validation peaks at 0.9 MB; whole groups peaked at 3.2 MB
    mesh = build_mapped_tensor_mesh(64, *boundary_curves())
    monkeypatch.setattr(mesh_module, "_SLACKS_PER_BLOCK", 1 << 12)
    validate_mesh(mesh, 0.03)  # warm caches
    peak = traced_peak(lambda: validate_mesh(mesh, 0.03))
    assert peak < 2e6, f"{peak / 1e6:.1f} MB"


# ---------------------------------------------------------------------------
# geometry arrays against the element-by-element loop


def shifted_mesh(n, seed, fraction=0.2):
    """Test1 mesh with every interior vertex moved by a seeded random vector
    of length at most fraction * h."""
    base = problem1().mesh_factory(n)
    rng = np.random.default_rng(seed)
    vertices = []
    for vertex in base.vertices:
        position = vertex.position.copy()
        if not vertex.on_boundary:
            radius = fraction * base.h * np.sqrt(rng.uniform())
            angle = rng.uniform(0.0, 2.0 * np.pi)
            position += radius * np.array([np.cos(angle), np.sin(angle)])
        vertices.append(Vertex(position=position, curve_ref=vertex.curve_ref))
    return Mesh.build(vertices, [Edge(v0=e.v0, v1=e.v1, segment=e.segment) for e in base.edges],
                      [Element(edge_loop=list(el.edge_loop)) for el in base.elements])


def mixed_polygon_mesh(n=8):
    """Curved test1 mesh with runs of 1 to 5 cells of a row merged into one
    polygon (4 to 12 sides, up to 5 of them curved) and every fourth single
    cell split into two triangles."""
    base = build_mapped_tensor_mesh(n, *boundary_curves())
    vertices = [Vertex(position=v.position.copy()) for v in base.vertices]
    edges = [Edge(v0=e.v0, v1=e.v1, segment=e.segment) for e in base.edges]
    loops = []
    runs = 0
    for j in range(n):
        i, width = 0, 1 + j % 5
        while i < n:
            cells = [base.elements[j * n + c] for c in range(i, min(i + width, n))]
            if len(cells) == 1 and runs % 4 == 0:
                bottom, right, top, left = cells[0].edge_loop
                p = j * n + i
                corners = base.loop_corners[base.loop_offsets[p]:base.loop_offsets[p + 1]].tolist()
                edges.append(Edge(v0=corners[0], v1=corners[2]))
                diagonal = len(edges) - 1
                loops += [[bottom, right, (diagonal, -1)], [(diagonal, 1), top, left]]
            else:
                loops.append([c.edge_loop[0] for c in cells] + [cells[-1].edge_loop[1]]
                             + [c.edge_loop[2] for c in reversed(cells)]
                             + [cells[0].edge_loop[3]])
            runs += 1
            i += len(cells)
            width = width % 5 + 1
    # drop the vertical edges inside merged runs
    used = sorted({eid for loop in loops for eid, _ in loop})
    renumber = {old: new for new, old in enumerate(used)}
    return Mesh.build(vertices, [edges[old] for old in used],
                      [Element(edge_loop=[(renumber[e], s) for e, s in loop]) for loop in loops])


GEOMETRY_MESHES = {
    **{f"test1-n{n}": (lambda n=n: problem1().mesh_factory(n)) for n in (4, 8, 16, 32)},
    "test1-straight-n8": lambda: straighten_mesh(problem1().mesh_factory(8)),
    **{f"test2-n{n}": (lambda n=n: problem2().mesh_factory(n)) for n in (2, 4, 8, 16)},
    "shifted-n16": lambda: shifted_mesh(16, seed=3),
    "mixed-polygons-n8": mixed_polygon_mesh,
}


@pytest.mark.parametrize("name", GEOMETRY_MESHES)
def test_geometry_arrays_equal_the_element_loop(name):
    mesh = GEOMETRY_MESHES[name]()
    lengths, areas, centroids, diameters, h = element_loop_geometry(mesh)
    assert np.array_equal(mesh.edge_lengths, lengths)
    assert np.array_equal(mesh.areas, areas)
    assert np.array_equal(mesh.centroids, centroids)
    assert np.array_equal(mesh.diameters, diameters)
    assert mesh.h == h


def test_mixed_polygon_mesh_covers_3_to_12_sides():
    mesh = mixed_polygon_mesh()
    sizes = {len(el.edge_loop) for el in mesh.elements}
    assert min(sizes) == 3 and max(sizes) == 12 and 8 in sizes
    curved_sides = [sum(mesh.edges[eid].is_curved for eid, _ in el.edge_loop)
                    for el in mesh.elements]
    assert max(curved_sides) >= 3
    assert mesh.areas.sum() == pytest.approx(
        build_mapped_tensor_mesh(8, *boundary_curves()).areas.sum(), rel=1e-13)


def test_topology_arrays_match_the_entities():
    mesh = mixed_polygon_mesh()
    uses = np.zeros(len(mesh.edges), dtype=int)
    for p, el in enumerate(mesh.elements):
        rows = slice(mesh.loop_offsets[p], mesh.loop_offsets[p + 1])
        corners = [mesh.edges[eid].v0 if sign > 0 else mesh.edges[eid].v1
                   for eid, sign in el.edge_loop]
        assert mesh.loop_edges[rows].tolist() == [eid for eid, _ in el.edge_loop]
        assert mesh.loop_signs[rows].tolist() == [sign for _, sign in el.edge_loop]
        assert mesh.loop_corners[rows].tolist() == corners
        assert np.array_equal(mesh.points[corners],
                              [mesh.vertices[v].position for v in corners])
        for eid, _ in el.edge_loop:
            uses[eid] += 1
    on_boundary = np.zeros(len(mesh.vertices), dtype=bool)
    for i, edge in enumerate(mesh.edges):
        assert mesh.edge_vertices[i].tolist() == [edge.v0, edge.v1]
        assert mesh.edge_on_boundary[i] == (uses[i] == 1)
        assert mesh.edge_curved[i] == edge.is_curved
        on_boundary[[edge.v0, edge.v1]] |= uses[i] == 1
    assert mesh.vertex_on_boundary.tolist() == on_boundary.tolist()
    assert [v.on_boundary for v in mesh.vertices] == on_boundary.tolist()


# ---------------------------------------------------------------------------
# MeshError messages, pinned from the element-by-element implementation


def _square(points=((0, 0), (1, 0), (1, 1), (0, 1))):
    return ([Vertex(position=np.array(p, dtype=float)) for p in points],
            [Edge(v0=i, v1=(i + 1) % 4) for i in range(4)])


def _sliver_with_inward_arc(shift=0.0):
    """A 2 x 0.1 rectangle whose top side dips along a half circle of radius
    1 below the bottom side: counterclockwise chords, negative area."""
    dip = circle_curve("dip", (1.0 + shift, 0.1), 1.0)
    vertices = [Vertex(position=np.array([shift, 0.0])),
                Vertex(position=np.array([2.0 + shift, 0.0])),
                Vertex(position=dip.eval(2 * np.pi)), Vertex(position=dip.eval(np.pi))]
    edges = [Edge(v0=0, v1=1), Edge(v0=1, v1=2),
             Edge(v0=3, v1=2, segment=CurveSegment(dip, np.pi, 2 * np.pi)), Edge(v0=3, v1=0)]
    return vertices, edges, [(0, 1), (1, 1), (2, -1), (3, 1)]


def _zero_length_edge():
    vertices, edges = _square(((0, 0), (1, 0), (1, 0), (0, 1)))
    return vertices, edges, [Element(edge_loop=[(i, 1) for i in range(4)])]


def _clockwise_square():
    vertices, edges = _square()
    return vertices, edges, [Element(edge_loop=[(3, -1), (2, -1), (1, -1), (0, -1)])]


def _negative_curved_area():
    vertices, edges, loop = _sliver_with_inward_arc()
    return vertices, edges, [Element(edge_loop=loop)]


def _edge_and_element_faults():
    c = circle_curve("c", (0, 0), 1.0)
    vertices = [Vertex(position=np.array(p, dtype=float))
                for p in [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 2.0)]]
    edges = [Edge(v0=0, v1=1), Edge(v0=1, v1=1), Edge(v0=2, v1=3),
             Edge(v0=2, v1=4, segment=CurveSegment(c, 0.0, 1.0)),  # both ends off the circle
             Edge(v0=3, v1=9), Edge(v0=3, v1=0), Edge(v0=1, v1=2)]
    elements = [Element(edge_loop=[(0, 1), (6, 1)]),
                Element(edge_loop=[(0, 1), (6, 1), (2, 1), (5, 1)]),
                Element(edge_loop=[(0, 1), (6, 1), (12, 1)]),
                Element(edge_loop=[(0, 1), (6, 1), (0, 1)]),
                Element(edge_loop=[(0, 1), (2, 1), (6, 1), (5, 1)])]
    return vertices, edges, elements


def _element_faults():
    vertices, edges = _square()
    elements = [Element(edge_loop=[(0, 1), (1, 1)]),
                Element(edge_loop=[(0, 1), (1, 1), (2, 1), (3, 1)]),
                Element(edge_loop=[(0, 1), (1, 1), (7, 1)]),
                Element(edge_loop=[(0, 1), (1, 1), (0, 1)]),
                Element(edge_loop=[(0, 1), (2, 1), (1, 1), (3, 1)]),
                Element(edge_loop=[(0, -1), (3, -1), (2, -1), (1, 1)])]
    return vertices, edges, elements


def _edge_use_faults():
    vertices, edges = _square()
    edges += [Edge(v0=0, v1=2), Edge(v0=1, v1=3)]
    elements = [Element(edge_loop=[(i, 1) for i in range(4)]),
                Element(edge_loop=[(0, 1), (1, 1), (4, -1)]),
                Element(edge_loop=[(0, 1), (1, 1), (4, -1)])]
    return vertices, edges, elements


def _vertices_on_no_edge():
    # a point inside the square and one outside, which no DoF of an element
    # would reach
    vertices, edges = _square()
    vertices += [Vertex(position=np.array(p)) for p in ((0.5, 0.5), (2.0, 0.0))]
    return vertices, edges, [Element(edge_loop=[(i, 1) for i in range(4)])]


def _disjoint(*kinds):
    """Separate elements side by side: a good square ("ok"), a clockwise
    square ("cw") or the sliver with negative area ("arc")."""
    vertices, edges, elements = [], [], []
    for slot, kind in enumerate(kinds):
        if kind == "arc":
            v, e, loop = _sliver_with_inward_arc(shift=10.0 * slot)
        else:
            v, e = _square([(x + 10.0 * slot, y) for x, y in ((0, 0), (1, 0), (1, 1), (0, 1))])
            loop = ([(i, 1) for i in range(4)] if kind == "ok"
                    else [(3, -1), (2, -1), (1, -1), (0, -1)])
        nv, ne = len(vertices), len(edges)
        vertices += v
        edges += [Edge(v0=x.v0 + nv, v1=x.v1 + nv, segment=x.segment) for x in e]
        elements.append(Element(edge_loop=[(i + ne, sign) for i, sign in loop]))
    return vertices, edges, elements


@pytest.mark.parametrize("make, message", [
    (_zero_length_edge, "degenerate edge between vertices 1 and 2"),
    (_clockwise_square,
     "element 0: chord polygon is not counterclockwise (signed area -1.000e+00)"),
    (_negative_curved_area, "element 0: nonpositive area -1.371e+00"),
    (_edge_and_element_faults,
     "edge 1: bad vertex pair (1, 1); "
     "edge 3: vertex 2 is 1.00e+00 away from curve 'c' at t=0.0; "
     "edge 3: vertex 4 is 1.16e+00 away from curve 'c' at t=1.0; "
     "edge 4: bad vertex pair (3, 9); element 0: fewer than 3 edges"),
    (_element_faults,
     "element 0: fewer than 3 edges; element 2: edge index out of range; "
     "element 3: repeated edge in loop; element 4: loop breaks between edges 0 and 2; "
     "element 5: loop breaks between edges 2 and 1"),
    (_edge_use_faults,
     "edge 0: shared by 3 elements; edge 1: shared by 3 elements; "
     "edge 4: traversed twice in the same direction; edge 5: referenced by no element"),
    (_vertices_on_no_edge, "vertex 4: on no edge; vertex 5: on no edge"),
    (lambda: _disjoint("ok", "arc", "ok", "cw"), "element 1: nonpositive area -1.371e+00"),
    (lambda: _disjoint("ok", "cw", "arc"),
     "element 1: chord polygon is not counterclockwise (signed area -1.000e+00)"),
], ids=["zero-length-edge", "clockwise", "curved-negative-area", "edge-and-element-faults",
        "element-faults", "edge-use-faults", "vertex-on-no-edge", "negative-area-first", "clockwise-first"])
def test_build_error_messages_are_pinned(make, message):
    with pytest.raises(MeshError) as info:
        Mesh.build(*make())
    assert str(info.value) == message


@pytest.mark.parametrize("position", [[0, 1, 5], [0.0]], ids=["three", "one"])
def test_build_rejects_position_that_is_not_a_2_vector(position):
    vertices, edges = _square()
    vertices[3] = Vertex(position=np.array(position))
    with pytest.raises(MeshError, match=r"points\[3\]: expected 2 values, got shape \(\d,\)"):
        Mesh.build(vertices, edges, [Element(edge_loop=[(i, 1) for i in range(4)])])


@pytest.mark.parametrize("rho", [-1.0, 0.0, 0.6, float("nan"), float("inf")])
def test_validate_mesh_rejects_a_rho_outside_its_range(rho):
    # -1 passed every element, and nan and 0.6 returned a report
    with pytest.raises(MeshError) as info:
        validate_mesh(build_mapped_tensor_mesh(2), rho)
    assert str(info.value) == f"validate_mesh: rho must lie in (0, 0.5], got {rho!r}"
