"""The chunked element kernel: exact agreement with one-element chunks and
with the recorded outputs, which an exact solve anchors, chunking, and
degree 4."""

import numpy as np
import pytest

from curvem import (
    Coefficient,
    CurveSegment,
    Edge,
    Element,
    Mesh,
    Vertex,
    apply_dirichlet,
    assemble,
    build_annulus_interface_mesh,
    build_mapped_tensor_mesh,
    compute_errors,
    fit_rates,
    graph_curve,
    run_convergence,
    run_patch_test,
    solve,
)
from curvem import test1_boundary_curves as boundary_curves
from curvem import test1_problem as problem1
from curvem import test2_problem as problem2
from curvem import vem
from curvem.cli import PATCH_TOL
from curvem.vem import ChunkOperators, element_chunks, local_operators

from _oracles import EXACT_SOLVE_RTOL, recorded_rows


@pytest.mark.parametrize("problem, reference", [(problem1, ("test1-curved", (4, 8, 16))),
                                                (problem2, ("test2", (2, 4, 8)))])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_errors_match_per_element_reference(problem, reference, k):
    """The recorded errors at the levels ``reference`` names, to 1e-12: a
    kernel that merely reorders its floating-point sums moves them by up to
    1e-9.  Each level is also solved exactly, and the errors must stay within
    EXACT_SOLVE_RTOL of that solve's, before and after a change re-records
    them: it may move bits, not accuracy."""
    from scipy.sparse.linalg import spsolve

    experiment, ns = reference
    rows = recorded_rows(experiment, k, ns)
    prob = problem()
    for row in rows:
        mesh = prob.mesh_factory(row["n"])
        system = assemble(mesh, k, prob.coefficient())
        apply_dirichlet(system, prob.boundary)
        err_h1, err_l2 = compute_errors(mesh, k, solve(system), prob, system)
        assert system.dof_map.total == row["n_dof"]
        assert err_h1 == pytest.approx(row["err_h1"], rel=1e-12, abs=0)
        assert err_l2 == pytest.approx(row["err_l2"], rel=1e-12, abs=0)
        exact = system.boundary_values.copy()
        n = system.dof_map.n_unknowns
        exact[:n] = spsolve(system.reduced_matrix[:, :n], system.reduced_rhs)
        anchor = compute_errors(mesh, k, exact, prob, system)
        assert (err_h1, err_l2) == pytest.approx(anchor, rel=EXACT_SOLVE_RTOL, abs=0)


def test_chunks_group_like_elements():
    # like elements share a chunk even when their curves differ
    assert len(element_chunks(two_curve_mesh(), 2)) == 1
    mesh = build_mapped_tensor_mesh(16, *boundary_curves())
    chunks = element_chunks(mesh, 2)
    covered = np.concatenate([c.elements for c in chunks])
    assert sorted(covered.tolist()) == list(range(len(mesh.elements)))
    assert max(len(c.elements) for c in chunks) == vem.CHUNK_SIZE
    for chunk in chunks:
        assert len(chunk.elements) <= vem.CHUNK_SIZE
        assert np.all(np.diff(chunk.elements) > 0)
        # like elements: the same curved sides and Green-rule size
        rows = mesh.loop_offsets[chunk.elements, None] + np.arange(len(chunk.sides))
        curved = {tuple(mesh.edges[eid].is_curved for eid in row)
                  for row in mesh.loop_edges[rows].tolist()}
        assert len(curved) == 1
        x, _, _ = chunk.rule(2, 2)
        assert x.shape[0] == len(chunk.elements)


def two_curve_mesh():
    """Two like elements whose curved sides lie on different curves."""
    vertices, edges, elements = [], [], []
    for i, (lo, hi) in enumerate(((0.0, 1.0), (2.0, 3.0))):
        curve = graph_curve(f"g{i}", amplitude=0.05, frequency=np.pi * (i + 1),
                            param_interval=(lo, hi))
        base = len(vertices)
        vertices += [Vertex(position=curve.eval(lo)), Vertex(position=curve.eval(hi)),
                     Vertex(position=np.array([hi, 1.0])), Vertex(position=np.array([lo, 1.0]))]
        first = len(edges)
        edges += [Edge(v0=base, v1=base + 1, segment=CurveSegment(curve, lo, hi)),
                  Edge(v0=base + 1, v1=base + 2), Edge(v0=base + 2, v1=base + 3),
                  Edge(v0=base + 3, v1=base)]
        elements.append(Element(edge_loop=[(first + j, 1) for j in range(4)], label=i + 1))
    return Mesh.build(vertices, edges, elements)


@pytest.mark.parametrize("make_mesh", [lambda: build_annulus_interface_mesh(2, 8),
                                       two_curve_mesh])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_one_element_view_is_a_slice_of_the_chunked_kernel(k, make_mesh):
    # an element computed alone, in a chunk of one, gives the same bits as
    # in the full chunk
    prob = problem2()
    mesh = make_mesh()
    coeff = prob.coefficient()
    smooth = lambda x, y: np.sin(3.0 * x) * np.exp(y)
    for chunk in element_chunks(mesh, k):
        ops = ChunkOperators(chunk, boost=2)
        kappa = [coeff.kappa(int(label)) for label in chunk.labels]
        stiffness = ops.stiffness(kappa)
        load = ops.load(coeff.source_for)
        interp = chunk.interpolate(smooth)
        for i, p in enumerate(chunk.elements):
            view = local_operators(mesh, p, k, boost=2)
            one = view.chunk
            assert np.array_equal(view.stiffness(kappa[i:i + 1])[0], stiffness[i])
            assert np.array_equal(view.load(coeff.source_for)[0], load[i])
            assert np.array_equal(view.pi_nabla[0], ops.pi_nabla[i])
            assert np.array_equal(view.pi0[0], ops.pi0[i])
            assert np.array_equal(one.interpolate(smooth)[0], interp[i])


def test_assembly_does_not_depend_on_the_chunk_size(monkeypatch):
    prob = problem1()
    mesh = prob.mesh_factory(8)
    system = assemble(mesh, 3, prob.coefficient())
    monkeypatch.setattr(vem, "CHUNK_SIZE", 5)
    small = assemble(mesh, 3, prob.coefficient())
    assert len(small.blocks) > len(system.blocks)
    assert np.array_equal(system.rhs, small.rhs)
    assert np.array_equal(system.matrix.indptr, small.matrix.indptr)
    assert np.array_equal(system.matrix.indices, small.matrix.indices)
    assert np.array_equal(system.matrix.data, small.matrix.data)


def test_degree_4_patch_test():
    (err,) = run_patch_test((4,))
    assert err <= PATCH_TOL


# k = 4 rates, with the margins of the k = 1..3 acceptance checks: H1 within
# 0.2 and L2 within 0.25 of the optimal k and k + 1
@pytest.mark.parametrize("problem, ns", [(problem1, (4, 8, 16)), (problem2, (2, 4, 8))])
def test_degree_4_rates_are_optimal(problem, ns):
    (report,) = run_convergence(problem(), (4,), ns)
    fit = fit_rates(report)
    assert fit.last_h1 >= 3.8
    assert fit.last_l2 >= 4.75


def test_degree_4_straightened_boundary_caps_the_l2_rate():
    # chords cap the L2 rate near 2 whatever the degree.  The H1 rate
    # measures 1.79 here, too close to the k = 3 ceiling of 1.8 to assert one
    (report,) = run_convergence(problem1(), (4,), (4, 8, 16), straighten=True)
    fit = fit_rates(report)
    assert fit.last_l2 <= 2.5


def test_degree_4_stiffness_kernel_is_the_constant():
    # the same check as for k = 1..3, through the chunked kernel on every
    # element at once
    one = lambda x, y: np.ones(np.shape(x))
    for mesh in (build_mapped_tensor_mesh(2, *boundary_curves()),
                 build_annulus_interface_mesh(2, 8)):
        for chunk in element_chunks(mesh, 4):
            k_mat = ChunkOperators(chunk, boost=6).stiffness(np.ones(len(chunk.elements)))
            d_const = chunk.interpolate(one, boost=6)
            for km, d in zip(k_mat, d_const):
                scale = np.abs(km).max()
                assert np.abs(km @ d).max() <= 1e-10 * scale
                eigs = np.linalg.eigvalsh(km)
                assert eigs[0] > -1e-12 * scale
                # the kernel is one-dimensional; at k = 4 the next eigenvalue
                # is about 7e-7 of the largest entry on these meshes
                assert eigs[1] > 1e-8 * scale


def test_singular_element_names_the_element():
    mesh = build_mapped_tensor_mesh(2)
    # a collapsed diameter makes the scaled monomials degenerate; the kernel
    # reads the diameters from the mesh's array
    mesh.diameters[3] = 1e-9
    with pytest.raises(vem.ElementOperatorError, match="element 3: H1 projector"):
        assemble(mesh, 2, Coefficient())
