"""Local element operators: projectors, stiffness, and load, through
one-element chunks of the kernel."""

from collections import Counter

import numpy as np
import pytest

from curvem import (
    Coefficient,
    ElementOperatorError,
    build_annulus_interface_mesh,
    build_dof_map,
    build_mapped_tensor_mesh,
    dof_count,
    edge_dof_points,
    n_moments,
)
from curvem import test1_boundary_curves as boundary_curves
from curvem.quadrature import gauss_legendre, gauss_lobatto, polygon_quadrature
from curvem.vem import ChunkOperators, element_chunks, local_operators

from _oracles import finite_difference_gradient, monomial_gradients, monomials


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
    dof_map = build_dof_map(mesh, k)
    dofs = dof_map.element_dofs(chunk)[0]
    element = mesh.elements[0]
    n_edges = len(element.edge_loop)
    assert len(dofs) == chunk.n_dof == dof_count(n_edges, k)
    assert chunk.dof_points.shape == (1, n_edges * k, 2)
    assert list(dofs[-n_moments(k):]) == [dof_map.moment_dof(0, beta)
                                         for beta in range(n_moments(k))]
    # walk alternates corner, then k-1 interior points of the outgoing edge,
    # whose canonical indices run in traversal order
    corners = mesh.loop_corners[mesh.loop_offsets[0]:mesh.loop_offsets[1]].tolist()
    for piece, ((eid, sign), vid) in enumerate(zip(element.edge_loop, corners)):
        assert dofs[piece * k] == dof_map.vertex_dof(vid)
        assert np.array_equal(chunk.dof_points[0, piece * k], mesh.vertices[vid].position)
        order = list(range(k - 1)) if sign > 0 else list(range(k - 2, -1, -1))
        assert list(dofs[piece * k + 1: piece * k + k]) == [dof_map.edge_dof(eid, j)
                                                           for j in order]
        _, points = edge_dof_points(mesh, eid, k)
        assert np.array_equal(chunk.dof_points[0, piece * k + 1: piece * k + k],
                              points[order])


def test_shared_edge_exposes_identical_points_to_both_elements():
    k = 3
    for mesh in (curved_mesh(), build_annulus_interface_mesh(2, 8)):
        dof_map = build_dof_map(mesh, k)
        seen, visits = {}, Counter()
        for chunk in element_chunks(mesh, k):
            dofs = dof_map.element_dofs(chunk)[:, :chunk.n_bnd]
            for gdof, point in zip(dofs.ravel().tolist(),
                                   chunk.dof_points.reshape(-1, 2).tolist()):
                visits[gdof] += 1
                if gdof in seen:
                    assert seen[gdof] == point
                seen[gdof] = point
        # each of an interior edge's k-1 DoFs is seen from both sides
        for eid in np.flatnonzero(~mesh.edge_on_boundary).tolist():
            assert [visits[dof_map.edge_dof(eid, j)] for j in range(k - 1)] == [2] * (k - 1)


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
    with pytest.raises(ElementOperatorError, match="positive"):
        Coefficient(diffusion=-1.0).kappa(1)
    with pytest.raises(ElementOperatorError, match="no source"):
        Coefficient(source={1: lambda x, y: x}).source_for(2)
    default = Coefficient().source_for(7)
    assert np.all(default(np.zeros(3), np.zeros(3)) == 0)


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
