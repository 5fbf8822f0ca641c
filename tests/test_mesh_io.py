"""Mesh file parsing, serialization, and error reporting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvem import (
    BoundaryCurve,
    CurveSegment,
    Edge,
    Element,
    Mesh,
    MeshFormatError,
    Vertex,
    build_annulus_interface_mesh,
    build_mapped_tensor_mesh,
    export_mesh,
    format_mesh,
    graph_curve,
    import_mesh,
    parse_mesh,
)
from curvem import test1_boundary_curves as boundary_curves


def test_round_trip_is_bit_exact_on_curved_tensor_mesh():
    mesh = build_mapped_tensor_mesh(4, *boundary_curves())
    text = format_mesh(mesh)
    reread = parse_mesh(text)
    assert format_mesh(reread) == text
    for a, b in zip(mesh.vertices, reread.vertices):
        assert a.position[0] == b.position[0]
        assert a.position[1] == b.position[1]
    for cid in mesh.curves:
        assert tuple(reread.curves[cid].params) == tuple(mesh.curves[cid].params)
        assert reread.curves[cid].param_interval == mesh.curves[cid].param_interval
    for a, b in zip(mesh.edges, reread.edges):
        assert (a.v0, a.v1) == (b.v0, b.v1)
        if a.segment is None:
            assert b.segment is None
        else:
            assert (b.segment.t0, b.segment.t1) == (a.segment.t0, a.segment.t1)
    for a, b in zip(mesh.elements, reread.elements):
        assert b.edge_loop == a.edge_loop
        assert b.label == a.label


def test_round_trip_is_bit_exact_on_annulus_mesh():
    mesh = build_annulus_interface_mesh(2, 8)
    text = format_mesh(mesh)
    assert format_mesh(parse_mesh(text)) == text


INPUT_ARRAYS = ("points", "edge_vertices", "edge_params", "loop_offsets", "loop_edges",
                "loop_signs", "labels")


@st.composite
def shifted_graph_meshes(draw):
    """Mapped tensor meshes between random sinusoidal graphs, interior
    vertices shifted by less than 0.2 h and elements labeled 1..3."""
    n = draw(st.integers(1, 4))
    amplitudes = st.one_of(st.just(0.0), st.floats(-0.1, 0.1))
    frequencies = st.floats(0.5, 10.0)
    bottom = graph_curve("b", draw(amplitudes), draw(frequencies))
    top = graph_curve("t", draw(amplitudes), draw(frequencies), offset=1.0)
    base = build_mapped_tensor_mesh(n, bottom, top)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    inner = ~base.vertex_on_boundary
    radius = 0.2 * base.h * np.sqrt(rng.uniform(size=inner.sum()))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=inner.sum())
    points = base.points.copy()
    points[inner] += radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=-1)
    return Mesh(points, base.edge_vertices, base.edge_curves, base.edge_params,
                base.loop_offsets, base.loop_edges, base.loop_signs,
                rng.integers(1, 4, size=len(base.labels)))


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(shifted_graph_meshes())
def test_round_trip_of_random_meshes_is_bit_exact(mesh):
    text = format_mesh(mesh)
    parsed = parse_mesh(text)
    assert format_mesh(parsed) == text
    for name in INPUT_ARRAYS:
        assert np.array_equal(getattr(parsed, name), getattr(mesh, name),
                              equal_nan=name == "edge_params"), name
    ids = [[None if c is None else c.id for c in m.edge_curves] for m in (parsed, mesh)]
    assert ids[0] == ids[1]


def test_file_round_trip(tmp_path):
    mesh = build_mapped_tensor_mesh(2, *boundary_curves())
    path = tmp_path / "mesh.txt"
    export_mesh(mesh, path)
    assert format_mesh(import_mesh(path)) == format_mesh(mesh)


def test_comments_and_blank_lines_are_ignored():
    text = format_mesh(build_mapped_tensor_mesh(2, *boundary_curves()))
    decorated = "# generated file\n\n" + text.replace(
        "counts", "counts", 1).replace("\nv ", "  # trailing\n\nv ", 1)
    assert format_mesh(parse_mesh(decorated)) == text


def _square_text():
    return (
        "curvem-mesh 1\n"
        "counts 4 0 4 1\n"
        "v 0 0\n"
        "v 1 0\n"
        "v 1 1\n"
        "v 0 1\n"
        "e 0 1\n"
        "e 1 2\n"
        "e 2 3\n"
        "e 3 0\n"
        "p 4 1 2 3 4\n"
        "label 1\n"
    )


def test_parse_minimal_square():
    mesh = parse_mesh(_square_text())
    assert len(mesh.elements) == 1
    assert mesh.elements[0].label == 1
    assert mesh.areas[0] == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("mangle, line_no, fragment", [
    (lambda t: t.replace("curvem-mesh 1", "not-a-mesh 1"), 1, "expected header"),
    (lambda t: t.replace("curvem-mesh 1", "curvem-mesh 9"), 1, "version"),
    (lambda t: t.replace("counts 4 0 4 1", "counts 4 0 4"), 2, "counts"),
    (lambda t: t.replace("counts 4 0 4 1", "counts 4 -2 4 1"), 2, "negative count"),
    (lambda t: t.replace("counts 4 0 4 1", "counts -1 0 0 0"), 2, "negative count"),
    (lambda t: t.replace("v 0 0", "v zero 0"), 3, "bad coordinate"),
    (lambda t: t.replace("e 3 0", "e 3 7"), 10, "missing vertex"),
    (lambda t: t.replace("e 3 0", "e 3 0 Gamma 0 1"), 10, "unknown curve"),
    (lambda t: t.replace("p 4 1 2 3 4", "p 4 1 2 3"), 11, "declared 4"),
    (lambda t: t.replace("p 4 1 2 3 4", "p 4 1 2 3 9"), 11, "out of range"),
    (lambda t: t.replace("p 4 1 2 3 4", "p 4 1 2 3 0"), 11, "out of range"),
    (lambda t: t.replace("label 1", "label one"), 12, "bad label"),
    (lambda t: t + "v 5 5\n", 13, "trailing"),
])
def test_malformed_files_report_line_numbers(mangle, line_no, fragment):
    with pytest.raises(MeshFormatError, match=fragment) as err:
        parse_mesh(mangle(_square_text()))
    assert f"line {line_no}:" in str(err.value)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_non_finite_numbers_are_rejected(token):
    with pytest.raises(MeshFormatError, match="non-finite coordinate") as err:
        parse_mesh(_square_text().replace("v 1 1", f"v 1 {token}"))
    assert "line 5:" in str(err.value)
    curved = _square_text().replace("counts 4 0 4 1", "counts 4 1 4 1").replace(
        "v 0 0", f"c arc circle 0 1 0 0 1 {token} 0\nv 0 0")
    with pytest.raises(MeshFormatError, match="non-finite curve parameter") as err:
        parse_mesh(curved)
    assert "line 3:" in str(err.value)


def test_truncated_file_reports_what_was_expected():
    text = "\n".join(_square_text().splitlines()[:6]) + "\n"
    with pytest.raises(MeshFormatError, match="unexpected end of file"):
        parse_mesh(text)


def test_duplicate_curve_id_is_rejected():
    text = (
        "curvem-mesh 1\n"
        "counts 2 2 1 0\n"
        "c arc circle 0 1 0 0 1 0.25 0\n"
        "c arc circle 0 1 0 0 2 0.25 0\n"
        "v 1 0\n"
        "v 0 1\n"
        "e 0 1 arc 0 1\n"
    )
    with pytest.raises(MeshFormatError, match="duplicate curve id"):
        parse_mesh(text)


def test_bad_curve_parameters_fail_with_curve_line_number():
    text = _square_text().replace(
        "counts 4 0 4 1", "counts 4 1 4 1").replace(
        "v 0 0", "c arc circle 0 1 0 0 -1 0.25 0\nv 0 0")
    with pytest.raises(MeshFormatError) as err:
        parse_mesh(text)
    assert "line 3:" in str(err.value)


def test_generic_curves_cannot_be_serialized():
    curve = BoundaryCurve(
        id="wavy", param_interval=(0.0, 1.0), kind="generic", params=(),
        _fn=lambda t: np.stack([t, 0.1 * np.sin(np.pi * t)], axis=-1),
        _dfn=lambda t: np.stack([np.ones_like(t), 0.1 * np.pi * np.cos(np.pi * t)],
                                axis=-1))
    vertices = [Vertex(position=np.array([0.0, 0.0])),
                Vertex(position=np.array([1.0, 0.0])),
                Vertex(position=np.array([1.0, 1.0])),
                Vertex(position=np.array([0.0, 1.0]))]
    edges = [Edge(v0=0, v1=1, segment=CurveSegment(curve, 0.0, 1.0)),
             Edge(v0=1, v1=2), Edge(v0=2, v1=3), Edge(v0=3, v1=0)]
    mesh = Mesh.build(vertices, edges,
                      [Element(edge_loop=[(0, 1), (1, 1), (2, 1), (3, 1)])])
    with pytest.raises(MeshFormatError, match="generic"):
        format_mesh(mesh)


def test_parsed_curved_edges_carry_exact_segments():
    mesh = parse_mesh(format_mesh(build_mapped_tensor_mesh(2, *boundary_curves())))
    curved = [e for e in mesh.edges if e.segment is not None]
    assert len(curved) == 4
    for edge in curved:
        p0 = edge.segment.curve.eval(np.array(edge.segment.t0))
        assert np.array_equal(p0, mesh.vertices[edge.v0].position) or \
            np.allclose(p0, mesh.vertices[edge.v0].position, rtol=0, atol=1e-16)
