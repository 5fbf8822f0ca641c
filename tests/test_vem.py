"""Local element operators: projectors, stiffness, and load, through
one-element chunks of the kernel."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvem import (
    Coefficient,
    ElementOperatorError,
    Mesh,
    build_annulus_interface_mesh,
    build_mapped_tensor_mesh,
    circle_curve,
    straighten_mesh,
)
from curvem import test1_boundary_curves as boundary_curves
from curvem import test1_problem as problem1
from curvem import test2_problem as problem2
from curvem.quadrature import gauss_legendre, gauss_lobatto, polygon_quadrature
from curvem.solver import build_dof_map
from curvem.vem import (CHUNK_SIZE, ChunkOperators, _SCREEN_LIMIT, dof_count, edge_dof_points,
                        element_chunks, local_operators, n_moments)

from _oracles import (boundary_last, chunk_partition, element_dofs, finite_difference_gradient,
                      monomial_gradients, monomials)
from test_mesh import mixed_polygon_mesh
from test_mesh_io import shifted_graph_meshes


def unit_square_mesh():
    return build_mapped_tensor_mesh(1)


def curved_mesh(n=2):
    return build_mapped_tensor_mesh(n, *boundary_curves())


def one_element(mesh, k, p=0):
    return element_chunks(mesh, k, [p])[0]


def monomial(chunk, j):
    """The j-th scaled monomial of a one-element chunk as a function f(x, y)."""
    return lambda x, y: chunk.basis(x, y)[0, ..., j]


def scaled_point(chunk, xi, eta):
    """The point whose scaled coordinates in the chunk's element are (xi, eta)."""
    (xc, yc), h = chunk.center[0], chunk.h[0]
    return np.array([[xc + xi * h]]), np.array([[yc + eta * h]])


def test_basis_dimension_and_ordering():
    chunk = one_element(unit_square_mesh(), 3)
    vals = chunk.basis(*scaled_point(chunk, 2.0, 3.0))[0, 0]
    assert vals.shape == (10,)
    # degree blocks, lexicographic in (a, b) within each block:
    # (0,0), (0,1), (1,0), (0,2), (1,1), (2,0), (0,3), (1,2), (2,1), (3,0)
    assert vals == pytest.approx([1, 3, 2, 9, 6, 4, 27, 18, 12, 8], rel=1e-14)


def test_basis_is_scaled_and_centered():
    chunk = one_element(curved_mesh(), 2)
    vals = chunk.basis(chunk.center[:, :1], chunk.center[:, 1:])[0, 0]
    assert np.allclose(vals, [1, 0, 0, 0, 0, 0], atol=0)
    # one diameter away along x: xi = 1, the monomial of exponent (1, 0)
    vals = chunk.basis(*scaled_point(chunk, 1.0, 0.0))[0, 0]
    assert vals == pytest.approx([1, 0, 1, 0, 0, 1], abs=1e-15)


def test_basis_gradient_matches_finite_differences():
    chunk = one_element(curved_mesh(), 3, p=1)
    x, y = scaled_point(chunk, 0.3, -0.2)
    _, gx, gy = chunk.basis_grad(x, y)
    fx, fy = finite_difference_gradient(chunk.basis, x, y)
    assert np.allclose(gx, fx, atol=2e-9)
    assert np.allclose(gy, fy, atol=2e-9)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_basis_keeps_the_bits_of_the_monomial_formulas(k):
    # at every point set the kernel evaluates the basis on: the stiffness
    # and load rules, the DoF points, and the boundary points of each side
    lobatto, legendre = gauss_lobatto(k + 1), gauss_legendre(k + 3)
    for mesh in (curved_mesh(), build_annulus_interface_mesh(2, 8)):
        for chunk in element_chunks(mesh, k):
            point_sets = [chunk.rule(k, 2)[:2], chunk.rule(k + 2, 2)[:2],
                          (chunk.dof_points[..., 0], chunk.dof_points[..., 1])]
            for side in chunk.sides:
                if side.is_curved:
                    pts = side.trace(side.params(legendre.nodes))[0]
                else:
                    pa, pb = side.start[:, None, :], side.end[:, None, :]
                    pts = pa + 0.5 * (lobatto.nodes[:, None] + 1.0) * (pb - pa)
                point_sets.append((pts[..., 0], pts[..., 1]))
            h = chunk.h[:, None]
            for x, y in point_sets:
                xi = (x - chunk.center[:, 0, None]) / h
                eta = (y - chunk.center[:, 1, None]) / h
                vals, gx, gy = chunk.basis_grad(x, y)
                want_x, want_y = monomial_gradients(k, xi, eta, h)
                assert np.array_equal(chunk.basis(x, y), monomials(k, xi, eta))
                assert np.array_equal(vals, monomials(k, xi, eta))
                assert np.array_equal(gx, want_x) and np.array_equal(gy, want_y)
                assert all(a.flags.c_contiguous for a in (vals, gx, gy))


@pytest.mark.parametrize("k, nm", [(1, 0), (2, 1), (3, 3), (4, 6)])
def test_moment_and_dof_counts(k, nm):
    assert n_moments(k) == nm
    assert dof_count(4, k) == 4 * k + nm


def test_edge_dof_points_straight_edge():
    mesh = unit_square_mesh()
    bottom = next(e for e in range(len(mesh.edges))
                  if mesh.edges[e].segment is None
                  and mesh.vertices[mesh.edges[e].v0].position[1] == 0
                  and mesh.vertices[mesh.edges[e].v1].position[1] == 0)
    params, points = edge_dof_points(mesh, bottom, 3)
    assert len(params) == 2
    assert np.all(points[:, 1] == 0)
    assert points[0, 0] < points[1, 0]
    # k = 1 has no interior points
    params1, points1 = edge_dof_points(mesh, bottom, 1)
    assert params1.size == 0 and points1.shape[0] == 0


def test_edge_dof_points_lie_on_curve():
    mesh = curved_mesh()
    eid = next(e for e in range(len(mesh.edges)) if mesh.edges[e].is_curved)
    seg = mesh.edges[eid].segment
    params, points = edge_dof_points(mesh, eid, 3)
    assert np.all((params > min(seg.t0, seg.t1)) & (params < max(seg.t0, seg.t1)))
    assert np.allclose(points, seg.curve.eval(params), atol=0)


def test_layout_walks_boundary_then_moments():
    mesh = curved_mesh()
    k = 3
    chunk = one_element(mesh, k)
    nv, ne = len(mesh.vertices), len(mesh.edges)
    dofs = chunk.dofs[0]
    element = mesh.elements[0]
    n_edges = len(element.edge_loop)
    assert len(dofs) == chunk.n_dof == dof_count(n_edges, k)
    assert chunk.dof_points.shape == (1, n_edges * k, 2)
    new = boundary_last(mesh, k)  # the blockwise numbering, boundary DoFs moved last
    assert list(dofs[-n_moments(k):]) == [new[nv + ne * (k - 1) + beta]
                                         for beta in range(n_moments(k))]
    # walk alternates corner, then k-1 interior points of the outgoing edge,
    # whose canonical indices run in traversal order
    corners = mesh.loop_corners[mesh.loop_offsets[0]:mesh.loop_offsets[1]].tolist()
    for piece, ((eid, sign), vid) in enumerate(zip(element.edge_loop, corners)):
        assert dofs[piece * k] == new[vid]
        assert np.array_equal(chunk.dof_points[0, piece * k], mesh.vertices[vid].position)
        order = list(range(k - 1)) if sign > 0 else list(range(k - 2, -1, -1))
        assert list(dofs[piece * k + 1: piece * k + k]) == [new[nv + eid * (k - 1) + j]
                                                           for j in order]
        _, points = edge_dof_points(mesh, eid, k)
        assert np.array_equal(chunk.dof_points[0, piece * k + 1: piece * k + k],
                              points[order])


def test_shared_edge_exposes_identical_points_to_both_elements():
    k = 3
    for mesh in (curved_mesh(), build_annulus_interface_mesh(2, 8)):
        nv, new = len(mesh.vertices), boundary_last(mesh, k)
        seen, visits = {}, Counter()
        for chunk in element_chunks(mesh, k):
            dofs = chunk.dofs[:, :chunk.n_bnd]
            for gdof, point in zip(dofs.ravel().tolist(),
                                   chunk.dof_points.reshape(-1, 2).tolist()):
                visits[gdof] += 1
                if gdof in seen:
                    assert seen[gdof] == point
                seen[gdof] = point
        # each of an interior edge's k-1 DoFs is seen from both sides
        for eid in np.flatnonzero(~mesh.edge_on_boundary).tolist():
            assert [visits[new[nv + eid * (k - 1) + j]] for j in range(k - 1)] == [2] * (k - 1)


NUMBERING_MESHES = {
    "test1-n4": lambda: problem1().mesh_factory(4),
    "test2-n2": lambda: problem2().mesh_factory(2),
    "test1-straight-n4": lambda: straighten_mesh(problem1().mesh_factory(4)),
    "mixed-polygons-n8": mixed_polygon_mesh,
}


@pytest.mark.parametrize("name", NUMBERING_MESHES)
def test_chunk_dofs_match_the_written_out_numbering(name):
    mesh = NUMBERING_MESHES[name]()
    for k in range(1, 5):
        for chunk in element_chunks(mesh, k):
            assert np.array_equal(chunk.dofs, element_dofs(mesh, k, chunk.elements))


PARTITION_MESHES = {"test1-n16": problem1().mesh_factory(16),
                    "test2-n4": problem2().mesh_factory(4)}


@st.composite
def element_ids(draw):
    """A mesh of PARTITION_MESHES and element ids of it: a permutation of
    all, or a list with repeats."""
    name = draw(st.sampled_from(sorted(PARTITION_MESHES)))
    count = len(PARTITION_MESHES[name].labels)
    ids = draw(st.one_of(st.permutations(range(count)),
                         st.lists(st.integers(0, count - 1), max_size=2 * CHUNK_SIZE + 10)))
    return name, ids


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(element_ids())
def test_chunks_partition_elements_like_the_per_element_oracle(drawn):
    name, ids = drawn
    mesh = PARTITION_MESHES[name]
    expected = [(signature, members[i:i + CHUNK_SIZE])
                for signature, members in chunk_partition(mesh, ids)
                for i in range(0, len(members), CHUNK_SIZE)]
    chunks = element_chunks(mesh, 1, ids)
    assert [chunk.elements.tolist() for chunk in chunks] == [m for _, m in expected]
    for chunk, (signature, _) in zip(chunks, expected):
        # each side's kind, read from the chunk: curved, or straight and
        # horizontal on every element or on none
        assert [side.is_curved for side in chunk.sides] == [code == 0 for code in signature]
        y = np.stack([side.start[:, 1] for side in chunk.sides], axis=1)
        flat = y == np.roll(y, -1, axis=1)
        for j, code in enumerate(signature):
            if code:
                assert np.all(flat[:, j] == (code == 1))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(shifted_graph_meshes(), st.integers(1, 4))
def test_neighbours_walk_each_interior_edge_dof_in_opposite_order(mesh, k):
    walks = {}  # edge -> (interior DoFs, their points) as each element walks it
    covered = []
    for chunk in element_chunks(mesh, k):
        n = len(chunk.sides)
        edges = mesh.loop_edges[mesh.loop_offsets[chunk.elements, None] + np.arange(n)]
        dofs = chunk.dofs[:, :chunk.n_bnd].reshape(-1, n, k)[:, :, 1:]
        points = chunk.dof_points.reshape(-1, n, k, 2)[:, :, 1:]
        for eid, d, x in zip(edges.ravel().tolist(), dofs.reshape(edges.size, k - 1),
                             points.reshape(edges.size, k - 1, 2)):
            walks.setdefault(eid, []).append((d, x))
        covered.append(chunk.dofs.ravel())
    assert np.array_equal(np.unique(np.concatenate(covered)),
                          np.arange(build_dof_map(mesh, k).total))
    for eid in np.flatnonzero(~mesh.edge_on_boundary).tolist():
        (d0, x0), (d1, x1) = walks[eid]
        assert np.array_equal(d0, d1[::-1])
        assert np.array_equal(x0, x1[::-1])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_projector_reproduces_polynomials_on_straight_element(k):
    ops = local_operators(unit_square_mesh(), 0, k)
    chunk = ops.chunk
    dim = ops.pi_nabla.shape[1]
    for j in range(dim):
        coeffs = ops.pi_nabla[0] @ chunk.interpolate(monomial(chunk, j))[0]
        expect = np.zeros(dim)
        expect[j] = 1.0
        assert np.allclose(coeffs, expect, atol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_stiffness_is_exact_for_polynomials_on_straight_element(k):
    mesh = unit_square_mesh()
    ops = local_operators(mesh, 0, k)
    chunk = ops.chunk
    k_mat = ops.stiffness([1.0])[0]
    dim = ops.pi_nabla.shape[1]
    rule = polygon_quadrature(mesh.points[mesh.loop_corners], k)
    for i in range(dim):
        for j in range(i, dim):
            ui = chunk.interpolate(monomial(chunk, i))[0]
            uj = chunk.interpolate(monomial(chunk, j))[0]
            def grad_dot(x, y):
                _, gx, gy = chunk.basis_grad(x, y)
                return gx[0, :, i] * gx[0, :, j] + gy[0, :, i] * gy[0, :, j]
            assert ui @ k_mat @ uj == pytest.approx(
                rule.integrate(grad_dot), abs=1e-11)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_stiffness_kernel_is_the_constant_dof_vector(k):
    # the kernel vector is the interpolant of 1: boundary values 1, moment
    # DoFs the scaled averages of the monomials.  Boundary and interior
    # quadratures are independent, so the identity holds to quadrature
    # accuracy; boost 6 puts that below 1e-10 even on the coarsest meshes.
    one = lambda x, y: np.ones(np.shape(x))
    for mesh in (curved_mesh(), build_annulus_interface_mesh(2, 8)):
        for chunk in element_chunks(mesh, k):
            k_mats = ChunkOperators(chunk, boost=6).stiffness(np.ones(len(chunk.elements)))
            for k_mat, d_const in zip(k_mats, chunk.interpolate(one, boost=6)):
                scale = np.abs(k_mat).max()
                assert np.abs(k_mat @ d_const).max() <= 1e-10 * scale
                eigs = np.linalg.eigvalsh(k_mat)
                assert eigs[0] > -1e-12 * scale
                assert eigs[1] > 1e-6 * scale


def quarter_sector(center, phase):
    """One element: the unit quarter disk at ``center`` whose arc starts at
    angle ``phase``, bounded by two spokes and one exact circle arc."""
    arc = circle_curve("arc", center, 1.0, phase=phase, param_interval=(0.0, 0.5 * np.pi))
    return Mesh([np.asarray(center, float), arc.eval(0.0), arc.eval(0.5 * np.pi)],
                [(0, 1), (1, 2), (0, 2)], [None, arc, None],
                [(np.nan, np.nan), (0.0, 0.5 * np.pi), (np.nan, np.nan)],
                [0, 3], [0, 1, 2], [1, 1, -1], [1])


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(st.floats(0.0, 2.0 * np.pi), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
def test_stiffness_is_invariant_under_rigid_motions(theta, dx, dy):
    """Rotating the sector by theta and moving it by (dx, dy) keeps its
    stiffness: entry by entry for k = 1, 2, whose DoFs are point values and
    the mean, and as a spectrum for k = 3, whose xi and eta moment DoFs
    rotate with the element.

    The Green rule integrates along x, so its error on the arc depends on
    the arc's orientation.  At boost 12 that error is at rounding level
    (at most 1.5e-14 relative over 200 seeded motions); at the default
    boost 2 the same motions move the stiffness by up to 3.7e-6 (k = 1),
    1.2e-4 (k = 2) and 8.6e-4 (the k = 3 spectrum).
    """
    center, phase = np.array([0.3, -0.2]), 0.1
    turn = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    moved = quarter_sector(turn @ center + [dx, dy], phase + theta)
    for k in (1, 2, 3):
        a, b = (local_operators(mesh, 0, k, boost=12).stiffness([1.0])[0]
                for mesh in (quarter_sector(center, phase), moved))
        if k == 3:
            a, b = np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()


def test_stiffness_is_exactly_symmetric_and_scales_with_kappa():
    ops = local_operators(curved_mesh(), 0, 2)
    k_mat = ops.stiffness([1.0])[0]
    assert np.array_equal(k_mat, k_mat.T)
    assert np.allclose(ops.stiffness([5.0])[0], 5.0 * k_mat, rtol=1e-15, atol=0)


def test_pi0_rows_for_k1_average_boundary_dofs():
    pi0 = local_operators(unit_square_mesh(), 0, 1).pi0[0]
    assert pi0.shape == (1, 4)
    assert np.all(pi0 == 0.25)


def test_pi_nabla_maps_constants_to_constants():
    one = lambda x, y: np.ones(np.shape(x))
    square = unit_square_mesh()
    curved = curved_mesh()
    for k in (1, 2, 3):
        for mesh, atol, boost in ((square, 1e-13, 2), (curved, 1e-11, 6)):
            ops = local_operators(mesh, 0, k, boost=boost)
            pi = ops.pi_nabla[0]
            coeffs = pi @ ops.chunk.interpolate(one, boost=boost)[0]
            expect = np.zeros(pi.shape[0])
            expect[0] = 1.0
            assert np.allclose(coeffs, expect, atol=atol)


def test_constant_source_loads():
    mesh = unit_square_mesh()
    one = lambda x, y: np.ones(np.shape(x))
    area = mesh.areas[0]
    # k = 1 pairs f with the boundary-average of the test function
    load = local_operators(mesh, 0, 1).load(lambda label: one)[0]
    assert np.allclose(load, area / 4, atol=1e-14)
    # k >= 2 pairs f with interior moments; the projection residual of a
    # P_{k-2} source vanishes, leaving only the moment DoF entry
    load = local_operators(mesh, 0, 2).load(lambda label: one)[0]
    expect = np.zeros(dof_count(4, 2))
    expect[-1] = area
    assert np.allclose(load, expect, atol=1e-13)


@pytest.mark.parametrize("k", [2, 3])
def test_load_paired_with_constant_gives_element_integral(k):
    mesh = curved_mesh()
    f = lambda x, y: 2.0 - 3.0 * x + 0.5 * y
    ops = local_operators(mesh, 0, k)
    chunk = ops.chunk
    load = ops.load(lambda label: f)[0]
    assert np.array_equal(load, ops.load(Coefficient(source=f).source_for)[0])
    # pairing with the DoF vector of 1 recovers the element integral of f:
    # the projection residual of f is orthogonal to constants
    one = lambda x, y: np.ones(np.shape(x))
    x, y, w = chunk.rule(k + 2, 4)
    assert load @ chunk.interpolate(one)[0] == pytest.approx(
        float(w[0] @ f(x[0], y[0])), rel=5e-10)


def test_coefficient_validates_diffusion_and_source():
    coeff = Coefficient(diffusion={1: 2.0, 2: 5.0})
    assert coeff.kappa(2) == 5.0
    with pytest.raises(ElementOperatorError, match="no diffusion"):
        coeff.kappa(3)
    # assemble checks that the diffusion it reads is positive
    assert Coefficient(diffusion=-1.0).kappa(1) == -1.0
    with pytest.raises(ElementOperatorError, match="no source"):
        Coefficient(source={1: lambda x, y: x}).source_for(2)
    default = Coefficient().source_for(7)
    assert np.all(default(np.zeros(3), np.zeros(3)) == 0)


@pytest.mark.parametrize("size", [3, 6, 10, 15])
def test_conditioning_screens_flag_every_matrix_over_the_limit(size):
    # general and SPD stacks with 2-norm condition numbers from 1e11 to 1e15
    # around the 1e13 limit; a matrix the screen of ChunkOperators._check
    # passes skips the exact SVD check
    def flagged(mats):
        return ~(np.linalg.cond(mats, "fro") <= _SCREEN_LIMIT)

    rng = np.random.default_rng(size)
    for decades in np.linspace(11.0, 15.0, 17):
        u = np.linalg.qr(rng.standard_normal((50, size, size)))[0]
        v = np.linalg.qr(rng.standard_normal((50, size, size)))[0]
        scaled = u * np.logspace(0.0, -decades, size)
        for kind, mats in (("general", scaled @ v.mT), ("spd", scaled @ u.mT)):
            over = ~(np.linalg.cond(mats) <= 1e13)
            assert not np.any(over & ~flagged(mats)), (kind, decades)
    # in a stack LAPACK cannot invert, only the singular member is flagged
    singular = np.stack([np.eye(size), np.zeros((size, size))])
    assert flagged(singular).tolist() == [False, True]
    assert flagged(np.zeros((1, size, size))).all()


def test_check_names_the_element_of_a_stack_lapack_cannot_invert():
    ops = local_operators(curved_mesh(), 3, 2)
    with pytest.raises(ElementOperatorError, match="element 3: moment mass matrix has condition"):
        ops._check(np.ones((1, 2, 2)), "moment mass matrix")


def test_interpolate_reproduces_point_and_moment_dofs():
    mesh = curved_mesh()
    k = 2
    u = lambda x, y: x + 2 * y
    ops = local_operators(mesh, 0, k)
    chunk = ops.chunk
    dofs = chunk.interpolate(u)[0]
    for val, point in zip(dofs, chunk.dof_points[0]):
        assert val == pytest.approx(u(*point), abs=1e-15)
    # the projected interpolant approximates the function well even on a
    # curved element, where affine functions are not in the local space
    coeffs = ops.pi_nabla[0] @ dofs
    x, y = mesh.centroids[0]
    assert chunk.basis(np.array([[x]]), np.array([[y]]))[0, 0] @ coeffs == pytest.approx(
        u(x, y), abs=5e-3)
