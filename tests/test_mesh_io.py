"""Mesh file parsing, serialization, and error reporting."""

import re
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvem import (
    BoundaryCurve,
    GeometryError,
    Mesh,
    MeshFormatError,
    apply_dirichlet,
    assemble,
    build_annulus_interface_mesh,
    build_mapped_tensor_mesh,
    compute_errors,
    export_mesh,
    format_mesh,
    graph_curve,
    import_mesh,
    parse_mesh,
    solve,
)
from curvem import test1_boundary_curves as boundary_curves
from curvem import test1_problem as boundary_problem
from curvem import test2_problem as interface_problem

from _oracles import respelled


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


# curve ids: any word of printable characters other than space and '#'
CURVE_IDS = st.lists(st.text(st.characters(exclude_categories=("Z", "C"),
                                           exclude_characters="#"), min_size=1, max_size=6),
                     min_size=2, max_size=2, unique=True)


@st.composite
def shifted_graph_meshes(draw):
    """Mapped tensor meshes between random sinusoidal graphs, interior
    vertices shifted by less than 0.2 h and elements labeled 1..3."""
    n = draw(st.integers(1, 4))
    amplitudes = st.one_of(st.just(0.0), st.floats(-0.1, 0.1))
    frequencies = st.floats(0.5, 10.0)
    bottom_id, top_id = draw(CURVE_IDS)
    bottom = graph_curve(bottom_id, draw(amplitudes), draw(frequencies))
    top = graph_curve(top_id, draw(amplitudes), draw(frequencies), offset=1.0)
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


@st.composite
def renamed_annulus_meshes(draw):
    """Annulus meshes with exactly curved circle arcs, their two curves
    renamed and elements labeled anywhere in the 64-bit range."""
    base = build_annulus_interface_mesh(draw(st.integers(2, 3)), draw(st.sampled_from([4, 8])))
    renamed = dict(zip(sorted(base.curves), draw(CURVE_IDS)))
    curves = [None if c is None else replace(c, id=renamed[c.id]) for c in base.edge_curves]
    labels = draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=len(base.labels),
                           max_size=len(base.labels)))
    return Mesh(base.points, base.edge_vertices, curves, base.edge_params,
                base.loop_offsets, base.loop_edges, base.loop_signs, labels)


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(st.one_of(shifted_graph_meshes(), renamed_annulus_meshes()))
def test_round_trip_of_random_meshes_is_bit_exact(mesh):
    text = format_mesh(mesh)
    parsed = parse_mesh(text)
    assert format_mesh(parsed) == text
    for name in INPUT_ARRAYS:
        assert np.array_equal(getattr(parsed, name), getattr(mesh, name),
                              equal_nan=name == "edge_params"), name
    assert parsed.curves == mesh.curves
    assert list(parsed.edge_curves) == list(mesh.edge_curves)


def renumbered(mesh, rng):
    """``mesh`` with its vertices, edges and elements in random order, about
    half of its straight edges reversed and each element loop rotated to
    start at a random side.  Curved edges keep their direction, t0 < t1."""
    vertex_order, edge_order, element_order = (
        rng.permutation(len(a)) for a in (mesh.points, mesh.edge_vertices, mesh.labels))
    flip = ~mesh.edge_curved & (rng.uniform(size=len(mesh.edge_curved)) < 0.5)
    ends = np.argsort(vertex_order)[mesh.edge_vertices]
    ends[flip] = ends[flip, ::-1]
    sides = [np.roll(np.arange(a, b), -rng.integers(b - a))
             for a, b in zip(mesh.loop_offsets[element_order],
                             mesh.loop_offsets[element_order + 1])]
    rows = np.concatenate(sides)
    return Mesh(mesh.points[vertex_order], ends[edge_order], mesh.edge_curves[edge_order],
                mesh.edge_params[edge_order], np.cumsum([0] + [len(r) for r in sides]),
                np.argsort(edge_order)[mesh.loop_edges[rows]],
                np.where(flip[mesh.loop_edges[rows]], -1, 1) * mesh.loop_signs[rows],
                mesh.labels[element_order])


STUDIES = {"test1": (boundary_problem(), 4), "test2": (interface_problem(), 2)}


def study(problem, mesh):
    """(n_dof, err_H1, err_L2) for k = 1..3, each solved directly."""
    rows = []
    for k in (1, 2, 3):
        system = assemble(mesh, k, problem.coefficient())
        apply_dirichlet(system, problem.boundary)
        solution = solve(system, method="direct")
        rows.append((system.dof_map.total,
                     *compute_errors(mesh, k, solution, problem, system)))
    return rows


@cache
def study_as_generated(name):
    problem, n = STUDIES[name]
    return study(problem, problem.mesh_factory(n))


# an imported file may list its entities in any order; on test1 n = 8 and
# test2 n = 4 renumbering moved the errors by at most 1.7e-12 relative
@settings(max_examples=8, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(sorted(STUDIES)), seed=st.integers(0, 2 ** 32 - 1))
def test_renumbering_a_mesh_leaves_its_study(name, seed):
    problem, n = STUDIES[name]
    mesh = renumbered(problem.mesh_factory(n), np.random.default_rng(seed))
    rows = study(problem, parse_mesh(format_mesh(mesh)))
    for (n_dof, *errors), (want_dof, *want) in zip(rows, study_as_generated(name), strict=True):
        assert n_dof == want_dof
        assert errors == pytest.approx(want, rel=1e-11, abs=0)


def test_file_round_trip(tmp_path):
    mesh = build_mapped_tensor_mesh(2, *boundary_curves())
    path = tmp_path / "mesh.txt"
    export_mesh(mesh, path)
    assert format_mesh(import_mesh(path)) == format_mesh(mesh)


def test_file_with_a_byte_order_mark_is_read(tmp_path):
    mesh = build_mapped_tensor_mesh(2, *boundary_curves())
    path = tmp_path / "mesh.txt"
    path.write_text(format_mesh(mesh), encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert format_mesh(import_mesh(path)) == format_mesh(mesh)


@pytest.mark.parametrize("prefix", [b"", b"\xef\xbb\xbf"], ids=["plain", "byte-order-mark"])
def test_file_that_is_not_utf8_names_the_file_and_byte(tmp_path, prefix):
    path = tmp_path / "mesh.txt"
    path.write_bytes(prefix + b"curvem-mesh 1\ncounts \xff\n")
    offset = len(prefix) + 21
    with pytest.raises(MeshFormatError, match=f"^{re.escape(str(path))}: not UTF-8 text "
                       f"at byte {offset} \\(invalid start byte\\)$"):
        import_mesh(path)


def test_comments_and_blank_lines_are_ignored():
    text = format_mesh(build_mapped_tensor_mesh(2, *boundary_curves()))
    decorated = "# generated file\n\n" + text.replace(
        "counts", "counts", 1).replace("\nv ", "  # trailing\n\nv ", 1)
    assert format_mesh(parse_mesh(decorated)) == text


def test_crlf_comments_and_blank_lines_in_a_file_leave_the_arrays(tmp_path):
    plain, other = tmp_path / "plain.mesh", tmp_path / "decorated.mesh"
    export_mesh(interface_problem().mesh_factory(2), plain)
    other.write_bytes(respelled(plain.read_text(encoding="utf-8")))
    assert b"\r\n# note 1\r\n" in other.read_bytes()
    mesh, reread = import_mesh(plain), import_mesh(other)
    for name in INPUT_ARRAYS:
        assert np.array_equal(getattr(reread, name), getattr(mesh, name),
                              equal_nan=name == "edge_params"), name
    assert reread.curves == mesh.curves
    assert list(reread.edge_curves) == list(mesh.edge_curves)


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
    # a curve is its closed-form record, so every curve a mesh holds can be
    # written; a kind without a closed form is no curve at all
    with pytest.raises(GeometryError, match="unknown curve kind 'generic'"):
        BoundaryCurve(id="wavy", param_interval=(0.0, 1.0), kind="generic", params=())


def test_parsed_curved_edges_carry_exact_segments():
    mesh = parse_mesh(format_mesh(build_mapped_tensor_mesh(2, *boundary_curves())))
    curved = [e for e in mesh.edges if e.segment is not None]
    assert len(curved) == 4
    for edge in curved:
        p0 = edge.segment.curve.eval(np.array(edge.segment.t0))
        assert np.array_equal(p0, mesh.vertices[edge.v0].position) or \
            np.allclose(p0, mesh.vertices[edge.v0].position, rtol=0, atol=1e-16)
