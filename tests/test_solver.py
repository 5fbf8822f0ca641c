"""Global assembly, boundary elimination, and the two solvers."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import curvem.solver
from curvem import (
    Coefficient,
    DofMap,
    Edge,
    Element,
    ElementOperatorError,
    LinearSystem,
    Mesh,
    NotSPDError,
    SolverError,
    Vertex,
    apply_dirichlet,
    assemble,
    build_annulus_interface_mesh,
    build_mapped_tensor_mesh,
    solve,
    straighten_mesh,
)
from curvem import test1_boundary_curves as boundary_curves
from curvem import test1_problem as problem1
from curvem import test2_problem as problem2

from curvem.solver import build_dof_map
from curvem.vem import dof_count, element_chunks, n_moments

from _oracles import (blockwise_dofs, blockwise_on_boundary, element_dofs, lexsort_stiffness,
                      mixed_mesh, textbook_cg, traced_peak)


def poisson_system(n=4, k=2, curved=True):
    curves = boundary_curves() if curved else ()
    mesh = build_mapped_tensor_mesh(n, *curves)
    f = lambda x, y: np.sin(np.pi * x) * np.cos(np.pi * y) + 1.0
    system = assemble(mesh, k, Coefficient(source=f))
    apply_dirichlet(system, lambda x, y: np.zeros(np.shape(x)))
    return system


# the numbering's meshes: test1's quadrilaterals, and its curved and
# straightened triangles and hexagons
NUMBERING_MESHES = {
    "": lambda: build_mapped_tensor_mesh(3, *boundary_curves()),
    "mixed": lambda: mixed_mesh(build_mapped_tensor_mesh(4, *boundary_curves())),
    "mixed-straight": lambda: straighten_mesh(
        mixed_mesh(build_mapped_tensor_mesh(4, *boundary_curves()))),
}
NUMBERING_CASES = [pytest.param(name, k, id=f"{name}-{k}" if name else str(k))
                   for name in NUMBERING_MESHES for k in (1, 2, 3)]


@pytest.mark.parametrize("name, k", NUMBERING_CASES)
def test_dof_map_counts_and_blocks(name, k):
    mesh = NUMBERING_MESHES[name]()
    dof_map = build_dof_map(mesh, k)
    nv, ne, np_ = len(mesh.vertices), len(mesh.edges), len(mesh.elements)
    assert dof_map.total == nv + ne * (k - 1) + np_ * n_moments(k)
    assert dof_map.n_elements == np_
    # boundary DoFs: one per boundary vertex plus k-1 per boundary edge
    n_bverts = sum(v.on_boundary for v in mesh.vertices)
    n_bedges = int(mesh.edge_on_boundary.sum())
    n_inner = dof_map.total - n_bverts - n_bedges * (k - 1)
    assert np.array_equal(dof_map.boundary_dofs, np.arange(n_inner, dof_map.total))
    assert dof_map.boundary_points.shape == (len(dof_map.boundary_dofs), 2)
    # interior vertices come first, in id order, then the interior edges,
    # element 0's moments after them; the boundary vertices lead the
    # trailing block
    inner_verts = [v for v in range(nv) if not mesh.vertices[v].on_boundary]
    outer_verts = [v for v in range(nv) if mesh.vertices[v].on_boundary]
    for chunk in element_chunks(mesh, k):
        corners = mesh.loop_corners[mesh.loop_offsets[chunk.elements, None]
                                    + np.arange(len(chunk.sides))]
        expect = [inner_verts.index(v) if v in inner_verts else n_inner + outer_verts.index(v)
                  for v in corners.ravel().tolist()]
        assert chunk.dofs[:, :chunk.n_bnd:k].ravel().tolist() == expect
    first = element_chunks(mesh, k, [0])[0]
    moments = len(inner_verts) + (ne - n_bedges) * (k - 1)
    assert first.dofs[0, first.n_bnd:].tolist() == [moments + beta for beta in range(n_moments(k))]


@pytest.mark.parametrize("name, k", NUMBERING_CASES)
def test_boundary_dofs_trail_the_blockwise_order(name, k):
    # the blockwise numbering with its boundary DoFs moved to the end: each
    # part keeps its order, so the interior DoFs number 0.. in the blockwise
    # order, the boundary DoFs follow in theirs, and each boundary point is
    # the location of its DoF
    mesh = NUMBERING_MESHES[name]()
    dof_map = build_dof_map(mesh, k)
    on_boundary = blockwise_on_boundary(mesh, k)
    renumber = np.full(dof_map.total, -1)
    points = np.empty((dof_map.total, 2))
    for chunk in element_chunks(mesh, k):
        renumber[blockwise_dofs(mesh, k, chunk.elements)] = chunk.dofs
        points[chunk.dofs[:, :chunk.n_bnd]] = chunk.dof_points
    n_inner = int(np.sum(~on_boundary))
    assert np.array_equal(renumber[~on_boundary], np.arange(n_inner))
    assert np.array_equal(renumber[on_boundary], np.arange(n_inner, dof_map.total))
    assert np.array_equal(dof_map.boundary_dofs, np.arange(n_inner, dof_map.total))
    assert np.array_equal(dof_map.boundary_points, points[n_inner:])


def test_element_dofs_cover_global_range():
    mesh = build_mapped_tensor_mesh(2, *boundary_curves())
    k = 3
    system = assemble(mesh, k, Coefficient())
    seen = set()
    for block in system.blocks:
        assert np.array_equal(block.chunk.dofs, element_dofs(mesh, k, block.chunk.elements))
        for p, gdofs in zip(block.chunk.elements, block.chunk.dofs):
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


def three_operand_mirror(matrix):
    """The symmetric matrix as ``lower + lower.T - diag`` builds it from its
    lower triangle."""
    lower = sparse.tril(matrix, format="csr")
    return (lower + lower.T - sparse.diags(lower.diagonal())).tocsr()


def assert_same_arrays(got, want):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def mixed_test1_problem():
    """test1 on its meshes of triangles and hexagons."""
    return replace(problem1(), mesh_factory=lambda n: mixed_mesh(problem1().mesh_factory(n)))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("problem, n, straight", [
    (problem1, 8, False), (problem2, 4, False), (problem1, 8, True),
    (mixed_test1_problem, 4, False), (mixed_test1_problem, 4, True)])
def test_assembly_matches_the_lexsort_pipeline(problem, n, straight, k):
    problem = problem()
    mesh = problem.mesh_factory(n)
    if straight:
        mesh = straighten_mesh(mesh)
    coeff = problem.coefficient()
    matrix = assemble(mesh, k, coeff).matrix
    assert_same_arrays(matrix, lexsort_stiffness(mesh, k, coeff))
    assert_same_arrays(matrix, three_operand_mirror(matrix))
    assert matrix.has_sorted_indices


def test_assembly_drops_entries_that_sum_to_exactly_zero(monkeypatch):
    # as the sum of the triangles does: with each element's coupling of its
    # first two corners zeroed, a boundary side's pair is an exact zero
    stiffness = curvem.vem.ChunkOperators.stiffness

    def without_first_coupling(self, kappa):
        out = stiffness(self, kappa)
        out[:, 0, 1] = out[:, 1, 0] = 0.0
        return out

    monkeypatch.setattr(curvem.vem.ChunkOperators, "stiffness", without_first_coupling)
    mesh, coeff = problem1().mesh_factory(4), problem1().coefficient()
    matrix = assemble(mesh, 2, coeff).matrix
    assert np.all(matrix.data != 0.0)
    assert_same_arrays(matrix, lexsort_stiffness(mesh, 2, coeff))


class _NoInnerDiffusion(Coefficient):
    """test2's data with zero diffusion inside r = 1/2, a coefficient whose
    ``kappa`` checks nothing."""

    def kappa(self, label):
        return {1: 5.0, 2: 0.0}[label]


@pytest.mark.parametrize("coeff, value", [
    (_NoInnerDiffusion(), "0.0"), (Coefficient(diffusion={1: 1.0, 2: -1.0}), "-1.0"),
    (Coefficient(diffusion={1: 1.0, 2: float("inf")}), "inf")],
    ids=["zero", "negative", "infinite"])
def test_assembly_rejects_a_diffusion_that_is_not_positive(monkeypatch, coeff, value):
    # zero diffusion inside r = 1/2 would leave those DoFs all-zero rows
    # without a diagonal entry; assemble stops before any chunk is built
    monkeypatch.setattr(curvem.solver, "element_chunks",
                        lambda *args: pytest.fail("a chunk was built"))
    with pytest.raises(ElementOperatorError) as info:
        assemble(problem2().mesh_factory(2), 2, coeff)
    assert str(info.value) == f"label 2: diffusion must be positive and finite, got {value}"


@pytest.mark.parametrize("k", [0, -1])
def test_assembly_rejects_a_degree_below_one(monkeypatch, k):
    # checked first, before any chunk is built
    monkeypatch.setattr(curvem.solver, "element_chunks",
                        lambda *args: pytest.fail("a chunk was built"))
    with pytest.raises(ElementOperatorError) as info:
        assemble(problem1().mesh_factory(2), k, problem1().coefficient())
    assert str(info.value) == f"degree k must be an integer >= 1, got {k}"


def test_assembly_peak_memory_is_bounded_by_the_triplets():
    # a triplet's key and value take 16 bytes; the sort, the sums, the CSR
    # build and the mirror may together hold no more than 64 bytes per
    # triplet; on this mesh lower + lower.T - diag peaked at 69, the sum
    # and a diagonal reset at 58, the transpose-free build at 56
    mesh = build_mapped_tensor_mesh(32, *boundary_curves())
    coeff = problem1().coefficient()
    assemble(build_mapped_tensor_mesh(2, *boundary_curves()), 3, coeff)  # warm caches
    n_dof = dof_count(np.diff(mesh.loop_offsets), 3)
    triplets = int(np.sum(n_dof * (n_dof + 1) // 2))
    peak = traced_peak(lambda: assemble(mesh, 3, coeff))
    assert peak <= 8 * 8 * triplets, f"{peak / (8 * triplets):.1f} x 8 bytes per triplet"


def test_apply_dirichlet_splits_and_reduces():
    system = poisson_system(n=2, k=2)
    g = lambda x, y: x + 2 * y
    apply_dirichlet(system, g)
    dof_map = system.dof_map
    pts = dof_map.boundary_points
    assert np.allclose(system.boundary_values[dof_map.boundary_dofs],
                       g(pts[:, 0], pts[:, 1]), atol=0)
    n = dof_map.n_unknowns
    # the interior rows, whose columns past the unknowns solve meets with zeros
    assert system.reduced_matrix.shape == (n, dof_map.total)
    assert_same_arrays(system.reduced_matrix, system.matrix[:n])
    # elimination is symmetric: reduced block equals the interior submatrix
    sub = system.matrix[:n][:, :n]
    assert np.abs((system.reduced_matrix[:, :n] - sub).toarray()).max() == 0.0


def test_apply_dirichlet_holds_little_beyond_what_it_keeps():
    mesh = build_mapped_tensor_mesh(16, *boundary_curves())
    system = assemble(mesh, 3, Coefficient(source=lambda x, y: np.cos(x + y)))
    g = lambda x, y: x * y + 1.0
    peak = traced_peak(lambda: apply_dirichlet(system, g))
    reduced, n = system.reduced_matrix, system.dof_map.n_unknowns
    # the rows of the matrix, on its own data and indices
    assert np.shares_memory(reduced.data, system.matrix.data)
    assert np.shares_memory(reduced.indices, system.matrix.indices)
    # so elimination holds a few DoF-length vectors: the boundary values,
    # the lifted right-hand side and its product; a masked pass over the
    # CSR arrays peaked at 38 of them here
    vector = 8 * system.dof_map.total
    assert peak <= 5 * vector, f"{peak / vector:.2f} x a DoF-length vector"
    # the bits of the interior rows, lifted against the boundary columns
    rows = system.matrix[:n]
    boundary = system.dof_map.boundary_dofs
    lifted = system.rhs[:n] - rows[:, boundary] @ system.boundary_values[boundary]
    assert np.array_equal(system.reduced_rhs, lifted)


# test1 at n = 32, k = 3 (8385 DoFs), the level that the curved-boundary
# benchmark's parent process solves, one stage after another in a fresh
# process: each stage's resident peak in MB above the one taken after
# import.  The peak is Linux's VmHWM: ru_maxrss would start at the peak of
# the larger pytest process that starts this one, which it carries over.
RESIDENT_STAGES = """
import json, re
from pathlib import Path
from curvem import apply_dirichlet, assemble, compute_errors, solve, test1_problem

def peak():
    status = Path("/proc/self/status").read_text()
    return int(re.search(r"VmHWM:\\s*(\\d+) kB", status).group(1)) / 1024

base = peak()
problem = test1_problem()
mesh = problem.mesh_factory(32)
rises = {"mesh": peak() - base}
system = assemble(mesh, 3, problem.coefficient())
rises["assemble"] = peak() - base
apply_dirichlet(system, problem.boundary)
rises["apply_dirichlet"] = peak() - base
solution = solve(system)
rises["solve"] = peak() - base
compute_errors(mesh, 3, solution, problem, system)
rises["compute_errors"] = peak() - base
print(json.dumps(rises))
"""

# the highest of 10 runs (Python 3.11, numpy 2.4, scipy 1.17, one BLAS
# thread) read 3.3, 11.5, 12.9, 12.9 and 12.9 MB; each bound is about 2 MB
# above
RESIDENT_BOUNDS_MB = {"mesh": 5.0, "assemble": 13.5, "apply_dirichlet": 15.0,
                      "solve": 15.0, "compute_errors": 15.0}


@pytest.mark.skipif(sys.platform != "linux",
                    reason="reads Linux's VmHWM; bounds measured with glibc's allocator")
def test_resident_memory_of_each_stage_is_bounded():
    # tracemalloc counts live arrays only; a heap left fragmented by freed
    # ones raises the resident peak without showing there
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
               OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", RESIDENT_STAGES], env=env, check=True,
                         capture_output=True, text=True).stdout
    rises = json.loads(out)
    assert rises.keys() == RESIDENT_BOUNDS_MB.keys()
    assert all(rises[stage] <= bound for stage, bound in RESIDENT_BOUNDS_MB.items()), \
        f"MB above the import: {rises}"


# The same at benchmark scale: test1 at n = 64, k = 3 (33153 DoFs, the size
# of the large-imported benchmark), through assembly and elimination, where
# a 6 MB rise in resident memory (an elimination that keeps a running count
# over all nonzeros) shows in the peak but not in tracemalloc's.
RESIDENT_STAGES_64 = RESIDENT_STAGES[:RESIDENT_STAGES.index("solution =")].replace(
    "mesh_factory(32)", "mesh_factory(64)") + "print(json.dumps(rises))\n"

# the highest of 42 runs (as above, three at a time as this test starts
# them) read 8.0, 27.8 and 27.9 MB: assembly peaks at its key sort, in two
# modes, 26.0-26.2 and 27.6-27.8 MB, and elimination adds at most 0.2 MB.
# The mesh bound is about 1 MB above the highest, the others 2 MB above.
# Building the full matrix beside the summed triangle instead of in its own
# arrays read 29.6-29.9 MB, the matrix as lower + lower.T with an
# elimination copy 33.1-33.2 MB at both stages, and a running-count
# elimination 37.6 to 38.0 MB.  Earlier runs on the same host read about
# 1.5 MB less for both builds.  A single run read 39.1 MB at elimination
# once in six on a shared host, so the bounds hold the median of three runs
# started together.
RESIDENT_BOUNDS_64_MB = {"mesh": 9.0, "assemble": 29.9, "apply_dirichlet": 29.9}


@pytest.mark.skipif(sys.platform != "linux",
                    reason="reads Linux's VmHWM; bounds measured with glibc's allocator")
def test_resident_memory_at_benchmark_scale_is_bounded():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
               OPENBLAS_NUM_THREADS="1")
    runs = [subprocess.Popen([sys.executable, "-c", RESIDENT_STAGES_64], env=env,
                             stdout=subprocess.PIPE, text=True) for _ in range(3)]
    outs = [run.communicate()[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0, 0]
    samples = [json.loads(out) for out in outs]
    assert all(rises.keys() == RESIDENT_BOUNDS_64_MB.keys() for rises in samples)
    medians = {stage: float(np.median([rises[stage] for rises in samples]))
               for stage in RESIDENT_BOUNDS_64_MB}
    assert all(medians[stage] <= bound for stage, bound in RESIDENT_BOUNDS_64_MB.items()), \
        f"MB above the import, median {medians} of {samples}"


@pytest.mark.parametrize("empty_rows", [(), (0,), (0, 3, 6), tuple(range(7))])
def test_apply_dirichlet_handles_rows_without_entries(empty_rows):
    # assembled rows always hold their diagonal; a matrix given directly may not
    rng = np.random.default_rng(5)
    dense = rng.uniform(1.0, 2.0, (7, 7)) * (rng.uniform(size=(7, 7)) < 0.5)
    dense[list(empty_rows)] = 0.0
    matrix = sparse.csr_matrix(dense)
    dof_map = DofMap(n_elements=1, total=7, boundary_points=np.array([[1.0, 0.0], [2.0, 0.0]]))
    system = LinearSystem(matrix=matrix, rhs=np.ones(7), dof_map=dof_map, blocks=[])
    apply_dirichlet(system, lambda x, y: x + 1.0)
    assert dof_map.n_unknowns == 5
    assert np.array_equal(dof_map.boundary_dofs, [5, 6])
    assert_same_arrays(system.reduced_matrix, matrix[:5])
    assert np.array_equal(system.reduced_rhs, 1.0 - dense[:5, 5:] @ [2.0, 3.0])


def test_apply_dirichlet_rejects_more_boundary_points_than_dofs():
    # the boundary DoFs are the trailing block, which a hand-built map can
    # make longer than the numbering
    dof_map = DofMap(n_elements=1, total=7, boundary_points=np.zeros((8, 2)))
    system = LinearSystem(matrix=sparse.identity(7, format="csr"), rhs=np.ones(7),
                          dof_map=dof_map, blocks=[])
    with pytest.raises(SolverError) as info:
        apply_dirichlet(system, lambda x, y: x)
    assert str(info.value) == "8 boundary points but only 7 DoFs"
    assert system.reduced_matrix is None


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_apply_dirichlet_names_where_the_boundary_data_is_not_finite(bad):
    system = poisson_system(n=4, k=2)
    pts = system.dof_map.boundary_points
    at = len(pts) // 2
    g = lambda x, y: np.where((x == pts[at, 0]) & (y == pts[at, 1]), bad, x * y)
    with pytest.raises(SolverError) as info:
        apply_dirichlet(system, g)
    assert str(info.value) == (f"boundary data is {bad} at "
                               f"({pts[at, 0]:.17g}, {pts[at, 1]:.17g})")


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
    expected[:n] = textbook_cg(system.reduced_matrix[:, :n], system.reduced_rhs,
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


def test_direct_matches_cg_on_a_larger_system():
    system = poisson_system(n=24, k=2)
    assert system.reduced_matrix.shape[0] > 2000
    x_direct = solve(system, method="direct")
    x_cg = solve(system, method="cg", tol=1e-14)
    assert np.abs(x_cg - x_direct).max() <= 1e-9 * np.abs(x_direct).max()


@pytest.mark.parametrize("method", ["cg", "direct"])
def test_system_without_interior_unknowns_returns_its_boundary_values(method):
    system = assemble(build_mapped_tensor_mesh(1, *boundary_curves()), 1, Coefficient())
    apply_dirichlet(system, lambda x, y: 1.0 + x * y)
    assert system.reduced_matrix.shape == (0, system.dof_map.total)
    assert np.array_equal(solve(system, method=method), system.boundary_values)


@pytest.mark.parametrize("block, fragment", [
    (np.ones((2, 2)), "exactly singular"),  # positive diagonal, rank one
    (np.array([[0.0, 1.0], [1.0, 0.0]]), "pivot off the diagonal")])
def test_direct_rejects_what_no_positive_diagonal_factor_fits(block, fragment):
    system = poisson_system(n=2, k=2)
    n = system.reduced_matrix.shape[0]
    system.reduced_matrix = sparse.block_diag([block, sparse.identity(n - 2)], format="csr")
    with pytest.raises(NotSPDError, match=fragment):
        solve(system, method="direct")


def test_unknown_method_is_rejected():
    system = poisson_system(n=2, k=1)
    with pytest.raises(SolverError, match="unknown solver method"):
        solve(system, method="lu")


def test_cg_iteration_cap():
    system = poisson_system(n=4, k=2)
    with pytest.raises(SolverError, match="did not reach"):
        solve(system, method="cg", tol=1e-14, maxiter=3)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")], ids=["zero", "negative", "nan"])
def test_cg_rejects_a_tolerance_that_is_not_positive(monkeypatch, tol):
    # NotSPDError is a SolverError too: the error must blame tol, not the
    # SPD matrix of test1
    system = poisson_system(n=4, k=2)
    monkeypatch.setattr(curvem.solver, "_cg", lambda *args: pytest.fail("CG ran"))
    with pytest.raises(SolverError) as info:
        solve(system, method="cg", tol=tol)
    assert type(info.value) is SolverError
    assert str(info.value) == f"CG tolerance tol must be a real number in (0, 1), got {tol!r}"


@pytest.mark.parametrize("maxiter", [0, -1, 2.5, "10"])
def test_cg_rejects_an_iteration_cap_that_is_not_a_positive_integer(monkeypatch, maxiter):
    # 0 and -1 ran no iteration and reported a miss "in 0" and "in -1
    # iterations"; 2.5 raised TypeError from range
    system = poisson_system(n=4, k=2)
    monkeypatch.setattr(curvem.solver, "_cg", lambda *args: pytest.fail("CG ran"))
    with pytest.raises(SolverError) as info:
        solve(system, method="cg", maxiter=maxiter)
    assert str(info.value) == f"CG iteration cap maxiter must be an integer >= 1, got {maxiter!r}"


class _CountingRows(sparse.csr_matrix):
    """CSR matrix that counts its products (CG iterations)."""

    matvecs = 0

    def __matmul__(self, other):
        self.matvecs += 1
        return super().__matmul__(other)


def test_cg_stops_before_iterating_on_a_right_hand_side_that_is_not_finite():
    # CG ran all max(1000, 40 n) iterations on nans, 1960 on this system,
    # before failing to converge; assemble now names a source that is not
    # finite, so the right-hand side is set by hand
    system = poisson_system(n=4, k=2)
    system.reduced_rhs[3] = np.nan
    system.reduced_matrix = _CountingRows(system.reduced_matrix)
    with pytest.raises(SolverError, match="right-hand side is not finite: its norm is nan"):
        solve(system, method="cg")
    assert system.reduced_matrix.matvecs == 0


def _nan_right_of_half(x, y):
    return np.where(x > 0.5, np.nan, 1.0)


def _one(x, y):
    return np.ones(np.shape(x))


def _inf(x, y):
    return np.full(np.shape(x), np.inf)


@pytest.mark.parametrize("method", ["cg", "direct"])
@pytest.mark.parametrize("problem, source, label, value", [
    (problem1, _nan_right_of_half, 1, "nan"), (problem2, {1: _one, 2: _inf}, 2, "inf")],
    ids=["test1-nan", "test2-inner-inf"])
def test_a_source_that_is_not_finite_is_named_by_its_label(monkeypatch, problem, source, label,
                                                          value, method):
    # CG named only its right-hand side; the direct solve returned a
    # solution that was not finite, with no error
    monkeypatch.setattr(curvem.solver, "_cg", lambda *args: pytest.fail("CG ran"))
    mesh = problem().mesh_factory(4)
    coeff = replace(problem().coefficient(), source=source)
    with pytest.raises(ElementOperatorError) as info:
        system = assemble(mesh, 2, coeff)
        apply_dirichlet(system, lambda x, y: np.zeros(np.shape(x)))
        solve(system, method=method)
    assert str(info.value).startswith(f"label {label}: source must be finite, got {value} at (")


@pytest.mark.parametrize("block", [1, 5, 10 ** 9])
def test_symmetric_csr_fills_the_mirror_in_any_row_blocks(block):
    # the triangle parked in the tails of arrays that hold the whole matrix,
    # their heads filled with values no entry has
    matrix = poisson_system(n=4, k=3).matrix
    lower = sparse.tril(matrix, format="csr")
    data = np.full(matrix.nnz, np.nan)
    indices = np.full(matrix.nnz, -1, dtype=matrix.indices.dtype)
    data[-lower.nnz:], indices[-lower.nnz:] = lower.data, lower.indices
    below = np.bincount(lower.indices, minlength=matrix.shape[0]) - 1
    built = curvem.solver._symmetric_csr(data, indices, lower.indptr, below, block)
    assert_same_arrays(built, three_operand_mirror(matrix))
    assert np.shares_memory(built.data, data) and np.shares_memory(built.indices, indices)


@pytest.mark.parametrize("block", [1, 10 ** 9])
def test_summed_csr_drops_sums_that_cancel(block):
    # triplets of a 3 x 3 triangle, keyed row * 3 + col, out of key order:
    # the (1, 0) pair cancels exactly, the (2, 1) pair sums to 1.5 and the
    # (2, 0) entry is -0.25
    keys = np.array([4, 3, 0, 8, 3, 7, 4, 6, 7], dtype=np.uint32)
    vals = np.array([2.0, 0.75, 1.0, 3.0, -0.75, 0.5, 1.0, -0.25, 1.0])
    triplets = [keys, vals]
    built = curvem.solver._summed_csr(triplets, 3, block)
    assert triplets == []
    want = sparse.csr_matrix(np.array([[1.0, 0.0, -0.25], [0.0, 3.0, 1.5],
                                       [-0.25, 1.5, 3.0]]))
    assert_same_arrays(built, want)


def test_zero_rhs_gives_zero_solution():
    mesh = build_mapped_tensor_mesh(2, *boundary_curves())
    system = assemble(mesh, 2, Coefficient())
    apply_dirichlet(system, lambda x, y: np.zeros(np.shape(x)))
    assert np.all(solve(system, method="cg") == 0.0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_collapsed_element_is_named(k):
    # Mesh.build accepts the positive area; the projector check names the element
    vertices = [Vertex(position=np.array(p)) for p in [(0.0, 0.0), (1.0, 0.0), (0.5, 1e-15)]]
    edges = [Edge(v0=0, v1=1), Edge(v0=1, v1=2), Edge(v0=2, v1=0)]
    mesh = Mesh.build(vertices, edges, [Element(edge_loop=[(0, 1), (1, 1), (2, 1)])])
    with pytest.raises(ElementOperatorError, match="element 0: H1 projector"):
        assemble(mesh, k, Coefficient())
