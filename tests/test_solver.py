"""Global assembly, boundary elimination, and the two solvers."""

import numpy as np
import pytest
from scipy import sparse

from curvem import (
    Coefficient,
    NotSPDError,
    SolverError,
    apply_dirichlet,
    assemble,
    build_annulus_interface_mesh,
    build_dof_map,
    build_mapped_tensor_mesh,
    dof_count,
    n_moments,
    solve,
)
from curvem import test1_boundary_curves as boundary_curves
from curvem import test2_problem as problem2

from _oracles import textbook_cg


def poisson_system(n=4, k=2, curved=True):
    curves = boundary_curves() if curved else ()
    mesh = build_mapped_tensor_mesh(n, *curves)
    f = lambda x, y: np.sin(np.pi * x) * np.cos(np.pi * y) + 1.0
    system = assemble(mesh, k, Coefficient(source=f))
    apply_dirichlet(system, lambda x, y: np.zeros(np.shape(x)))
    return system


@pytest.mark.parametrize("k", [1, 2, 3])
def test_dof_map_counts_and_blocks(k):
    mesh = build_mapped_tensor_mesh(3, *boundary_curves())
    dof_map = build_dof_map(mesh, k)
    nv, ne, np_ = len(mesh.vertices), len(mesh.edges), len(mesh.elements)
    assert dof_map.total == nv + ne * (k - 1) + np_ * n_moments(k)
    assert dof_map.vertex_dof(5) == 5
    if k > 1:
        assert dof_map.edge_dof(0, 0) == nv
        assert dof_map.edge_dof(1, 0) == nv + (k - 1)
    assert dof_map.moment_dof(0, 0) == nv + ne * (k - 1)
    # boundary DoFs: one per boundary vertex plus k-1 per boundary edge
    n_bverts = sum(v.on_boundary for v in mesh.vertices)
    n_bedges = int(mesh.edge_on_boundary.sum())
    assert len(dof_map.boundary_dofs) == n_bverts + n_bedges * (k - 1)
    assert dof_map.boundary_points.shape == (len(dof_map.boundary_dofs), 2)


def test_element_dofs_cover_global_range():
    mesh = build_mapped_tensor_mesh(2, *boundary_curves())
    k = 3
    system = assemble(mesh, k, Coefficient())
    seen = set()
    for block in system.blocks:
        assert np.array_equal(block.dofs, system.dof_map.element_dofs(block.chunk))
        for p, gdofs in zip(block.chunk.elements, block.dofs):
            assert len(set(gdofs)) == len(gdofs) == dof_count(
                len(mesh.elements[p].edge_loop), k)
            seen.update(gdofs.tolist())
    assert seen == set(range(system.dof_map.total))


def test_assembled_matrix_is_exactly_symmetric():
    system = poisson_system()
    diff = (system.matrix - system.matrix.T).tocoo()
    assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


def test_assembly_is_deterministic():
    a = poisson_system()
    b = poisson_system()
    assert np.array_equal(a.matrix.indptr, b.matrix.indptr)
    assert np.array_equal(a.matrix.indices, b.matrix.indices)
    assert np.array_equal(a.matrix.data, b.matrix.data)
    assert np.array_equal(a.rhs, b.rhs)


def test_apply_dirichlet_splits_and_reduces():
    system = poisson_system(n=2, k=2)
    g = lambda x, y: x + 2 * y
    apply_dirichlet(system, g)
    dof_map = system.dof_map
    pts = dof_map.boundary_points
    assert np.allclose(system.boundary_values[dof_map.boundary_dofs],
                       g(pts[:, 0], pts[:, 1]), atol=0)
    assert len(system.interior) == dof_map.total - len(dof_map.boundary_dofs)
    assert system.reduced_matrix.shape == (len(system.interior),) * 2
    # elimination is symmetric: reduced block equals the interior submatrix
    sub = system.matrix[system.interior][:, system.interior]
    assert np.abs((system.reduced_matrix - sub).toarray()).max() == 0.0


def test_solve_requires_elimination_first():
    mesh = build_mapped_tensor_mesh(2)
    system = assemble(mesh, 1, Coefficient())
    with pytest.raises(SolverError, match="apply_dirichlet"):
        solve(system)


def test_cg_matches_direct():
    for k in (1, 2, 3):
        system = poisson_system(n=4, k=k)
        x_cg = solve(system, method="cg", tol=1e-14)
        x_direct = solve(system, method="direct")
        scale = np.abs(x_direct).max()
        assert np.abs(x_cg - x_direct).max() <= 1e-9 * scale


def test_cg_iterates_match_the_textbook_loop():
    # the in-place updates of the solver are the same operations as the
    # textbook ones, so the solution carries the same bits
    problem = problem2()
    system = assemble(problem.mesh_factory(4), 3, problem.coefficient())
    apply_dirichlet(system, problem.boundary)
    u = solve(system, method="cg", tol=1e-12)
    n = system.reduced_matrix.shape[0]
    expected = system.boundary_values.copy()
    expected[system.interior] = textbook_cg(system.reduced_matrix, system.reduced_rhs,
                                            1e-12, max(1000, 40 * n))
    assert np.array_equal(u, expected)


def test_cg_is_deterministic():
    a = solve(poisson_system(), method="cg", tol=1e-12)
    b = solve(poisson_system(), method="cg", tol=1e-12)
    assert np.array_equal(a, b)


def test_solution_restores_boundary_values():
    system = poisson_system(n=2, k=3)
    g = lambda x, y: 1.0 + 0.5 * x * y
    apply_dirichlet(system, g)
    x = solve(system, method="direct")
    pts = system.dof_map.boundary_points
    assert np.allclose(x[system.dof_map.boundary_dofs],
                       g(pts[:, 0], pts[:, 1]), atol=0)


def test_annulus_system_is_solvable_with_jumping_diffusion():
    mesh = build_annulus_interface_mesh(2, 8)
    coeff = Coefficient(diffusion={1: 1.0, 2: 5.0},
                        source={1: lambda x, y: 5.0 * np.ones(np.shape(x)),
                                2: lambda x, y: np.ones(np.shape(x))})
    system = assemble(mesh, 2, coeff)
    apply_dirichlet(system, lambda x, y: np.zeros(np.shape(x)))
    x = solve(system, method="cg", tol=1e-12)
    assert np.all(np.isfinite(x))
    assert np.abs(x).max() > 0


def test_cg_rejects_indefinite_matrix():
    system = poisson_system(n=2, k=1)
    n = system.reduced_matrix.shape[0]
    system.reduced_matrix = sparse.identity(n, format="csr") - \
        2.0 * sparse.csr_matrix((np.ones(1), ([0], [0])), shape=(n, n))
    with pytest.raises(NotSPDError):
        solve(system, method="cg")


def test_direct_rejects_indefinite_matrix():
    system = poisson_system(n=2, k=1)
    system.reduced_matrix = -system.reduced_matrix
    system.reduced_rhs = -system.reduced_rhs
    with pytest.raises(NotSPDError):
        solve(system, method="direct")


def test_direct_solver_enforces_size_limit():
    system = poisson_system(n=24, k=2)
    assert system.reduced_matrix.shape[0] > 2000
    with pytest.raises(SolverError, match="limited"):
        solve(system, method="direct")


def test_unknown_method_is_rejected():
    system = poisson_system(n=2, k=1)
    with pytest.raises(SolverError, match="unknown solver method"):
        solve(system, method="lu")


def test_cg_iteration_cap():
    system = poisson_system(n=4, k=2)
    with pytest.raises(SolverError, match="did not reach"):
        solve(system, method="cg", tol=1e-14, maxiter=3)


def test_zero_rhs_gives_zero_solution():
    mesh = build_mapped_tensor_mesh(2, *boundary_curves())
    system = assemble(mesh, 2, Coefficient())
    apply_dirichlet(system, lambda x, y: np.zeros(np.shape(x)))
    assert np.all(solve(system, method="cg") == 0.0)
