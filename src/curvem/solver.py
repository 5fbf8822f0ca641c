"""Global assembly, Dirichlet elimination and linear solvers.

Each element chunk of :mod:`curvem.vem` carries its global DoFs, so this
module does no DoF numbering of its own.  The stiffness matrix is
accumulated as triplets of its lower triangle, sorted on one stable
integer key (row * size + col), summed and built straight into CSR.  That
lower triangle plus its transpose, with the doubled diagonal reset to the
lower triangle's own, is the assembled matrix: exactly symmetric, and the
same arrays as ``lower + lower.T - diag(lower)``.  The reset finds an entry
in every row: the ``Mesh`` constructor puts every vertex and edge in an
element, ``assemble`` rejects a diffusion value that is not positive, and
with positive diffusion each stabilized local stiffness has a positive
diagonal.  Local
operators come from the chunked kernel of :mod:`curvem.vem`; their triplets
and load entries are laid out in element order before any sum is taken, so
every entry accumulates in the order of an element-by-element loop,
whatever the chunking, and repeated runs produce bit-identical systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .mesh import Mesh
from .quadrature import BOOST
from .vem import (ChunkOperators, Coefficient, ElementChunk, ElementOperatorError, dof_count,
                  edge_dof_points, edge_dofs, element_chunks, global_dof_count)


class SolverError(Exception):
    """Raised for non-convergence or unsupported solver requests."""


class NotSPDError(SolverError):
    """Raised when a supposedly SPD matrix exposes non-positive curvature."""


@dataclass
class DofMap:
    """Global facts of the numbering: its size and the boundary DoFs."""

    n_elements: int
    total: int
    boundary_dofs: np.ndarray
    boundary_points: np.ndarray


def build_dof_map(mesh: Mesh, k: int) -> DofMap:
    """Count the DoFs of the degree-k space and locate the boundary ones."""
    vertices = np.flatnonzero(mesh.vertex_on_boundary)
    edges = np.flatnonzero(mesh.edge_on_boundary) if k > 1 else np.empty(0, dtype=np.int64)
    _, points = edge_dof_points(mesh, edges, k)
    return DofMap(
        n_elements=len(mesh.labels), total=global_dof_count(mesh, k),
        boundary_dofs=np.concatenate([vertices, edge_dofs(mesh, edges, k).ravel()]),
        boundary_points=np.concatenate([mesh.points[vertices], points.reshape(-1, 2)]))


@dataclass
class OperatorBlock:
    """What postprocessing keeps of one chunk of like elements."""

    chunk: ElementChunk   # with its global DoFs
    pi_nabla: np.ndarray  # (E, dim P_k, n_dof)


@dataclass
class LinearSystem:
    """Assembled global system plus the Dirichlet elimination record."""

    matrix: sparse.csr_matrix
    rhs: np.ndarray
    dof_map: DofMap
    blocks: list[OperatorBlock] = field(repr=False)
    boundary_values: np.ndarray | None = None
    interior: np.ndarray | None = None
    reduced_matrix: sparse.csr_matrix | None = None
    reduced_rhs: np.ndarray | None = None


def _starts(sizes) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)


def assemble(mesh: Mesh, k: int, coeff: Coefficient, boost: int = BOOST) -> LinearSystem:
    """Assemble stiffness and load of the degree-k discretization."""
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ElementOperatorError(f"degree k must be an integer >= 1, got {k}")
    dof_map = build_dof_map(mesh, k)
    total = dof_map.total
    n_local = dof_count(np.diff(mesh.loop_offsets), k)
    # one diffusion lookup per label, in order of first appearance, each
    # checked before any chunk is built, whatever the coefficient object
    kappa = {label: coeff.kappa(label) for label in dict.fromkeys(mesh.labels.tolist())}
    for label, value in kappa.items():
        if not value > 0.0:
            raise ElementOperatorError(f"label {label}: diffusion must be positive, got {value}")
    load_start = _starts(n_local)
    tri_start = _starts(n_local * (n_local + 1) // 2)
    load_dofs = np.empty(load_start[-1], dtype=np.int64)
    load_vals = np.empty(load_start[-1])
    keys = np.empty(tri_start[-1], dtype=np.int64)
    vals = np.empty(tri_start[-1])
    blocks = []
    for chunk in element_chunks(mesh, k):
        ops = ChunkOperators(chunk, boost)
        at = load_start[chunk.elements, None] + np.arange(chunk.n_dof)
        load_dofs[at] = chunk.dofs
        load_vals[at] = ops.load(coeff.source_for)
        # the upper triangle of an exactly symmetric matrix, as lower-triangle
        # triplets of the global matrix keyed row * total + col
        iu, ju = np.triu_indices(chunk.n_dof)
        at = tri_start[chunk.elements, None] + np.arange(len(iu))
        keys[at] = (np.maximum(chunk.dofs[:, iu], chunk.dofs[:, ju]) * total
                    + np.minimum(chunk.dofs[:, iu], chunk.dofs[:, ju]))
        vals[at] = ops.stiffness([kappa[label] for label in chunk.labels.tolist()])[:, iu, ju]
        blocks.append(OperatorBlock(chunk=chunk, pi_nabla=ops.pi_nabla))

    rhs = np.bincount(load_dofs, weights=load_vals, minlength=total)
    del load_dofs, load_vals
    # a stable sort on the key is a (row, col) sort that keeps equal entries
    # in element order for the sums; each sorted array is dropped after its
    # last read
    order = np.argsort(keys, kind="stable")
    vals = vals[order]
    keys = keys[order]
    del order
    starts = np.concatenate([[0], np.flatnonzero(keys[1:] != keys[:-1]) + 1])
    summed = np.add.reduceat(vals, starts)
    del vals
    cols = keys[starts]
    del keys, starts
    rows = np.empty_like(cols)
    np.divmod(cols, total, out=(rows, cols))
    # scipy's rule: 32-bit indices unless a count or index needs more
    index = np.int32 if max(len(summed), total) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(total + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=total), out=indptr[1:])
    del rows
    lower = sparse.csr_matrix((summed, cols.astype(index), indptr), shape=(total, total))
    del summed, cols, indptr
    diagonal = lower.diagonal()
    # off the diagonal the sum is a + 0 = a; both operands drop exact zeros
    matrix = (lower + lower.T).tocsr()
    del lower
    matrix.setdiag(diagonal)  # every row holds its diagonal, doubled: reset in place
    return LinearSystem(matrix=matrix, rhs=rhs, dof_map=dof_map, blocks=blocks)


def apply_dirichlet(system: LinearSystem, g) -> None:
    """Eliminate boundary DoFs symmetrically against boundary data g(x, y).

    Keeps the boundary values on the system so ``solve`` can reconstruct
    the full DoF vector.  ``matrix[interior][:, interior]`` is taken in one
    masked pass over the CSR arrays, never copying the interior rows.
    """
    dof_map = system.dof_map
    values = np.zeros(dof_map.total)
    pts = dof_map.boundary_points
    if len(pts):
        values[dof_map.boundary_dofs] = g(pts[:, 0], pts[:, 1])
    mask = np.ones(dof_map.total, dtype=bool)
    mask[dof_map.boundary_dofs] = False
    interior = np.flatnonzero(mask)
    matrix, indptr, indices = system.matrix, system.matrix.indptr, system.matrix.indices
    system.reduced_rhs = (system.rhs - matrix @ values)[interior]
    keep = np.repeat(mask, np.diff(indptr))  # entries of interior rows ...
    keep &= mask[indices]  # ... in interior columns
    # entries kept per interior row, summed from each nonempty row's start
    # to the next one's: what lies between is boundary rows, which keep none
    reduced_indptr = np.zeros(len(interior) + 1, dtype=indptr.dtype)
    starts = indptr[interior]
    nonempty = indptr[interior + 1] > starts
    if nonempty.any():
        reduced_indptr[1:][nonempty] = np.add.reduceat(keep, starts[nonempty],
                                                       dtype=indptr.dtype)
    np.cumsum(reduced_indptr, out=reduced_indptr)
    columns = indices[keep]
    columns -= np.cumsum(~mask, dtype=indices.dtype)[columns]  # boundary columns before
    system.reduced_matrix = sparse.csr_matrix((matrix.data[keep], columns, reduced_indptr),
                                              shape=(len(interior),) * 2)
    system.boundary_values = values
    system.interior = interior


def _cg(matrix, b, tol, maxiter):
    """Jacobi-preconditioned conjugate gradients with SPD monitoring.

    The updates run in place on preallocated vectors.  Each is the same
    floating-point operation as its textbook form, so the iterates keep
    their bits.
    """
    diag = matrix.diagonal()
    if np.any(diag <= 0.0):
        raise NotSPDError("nonpositive diagonal entry in reduced matrix")
    bnorm = float(np.linalg.norm(b))
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x
    r = b.copy()
    z = r / diag
    p = z.copy()
    step = np.empty_like(b)
    rz = float(r @ z)
    for _ in range(maxiter):
        ap = matrix @ p
        pap = float(p @ ap)
        if pap <= 0.0:
            raise NotSPDError(f"non-positive curvature p.A.p = {pap:.3e}")
        alpha = rz / pap
        x += np.multiply(p, alpha, out=step)
        ap *= alpha
        r -= ap
        if float(np.linalg.norm(r)) <= tol * bnorm:
            return x
        np.divide(r, diag, out=z)
        rz_next = float(r @ z)
        p *= rz_next / rz
        p += z
        rz = rz_next
    raise SolverError(f"CG did not reach relative residual {tol:.1e} "
                      f"in {maxiter} iterations")


def solve(system: LinearSystem, method: str = "cg", tol: float = 1e-12,
          maxiter: int | None = None) -> np.ndarray:
    """Solve the eliminated system and reconstruct the full DoF vector.

    ``method`` is "cg" (Jacobi-preconditioned, relative-residual tolerance
    ``tol``) or "direct" (a sparse LU with symmetric diagonal pivots; it is
    the only path that loads ``scipy.sparse.linalg``).  CG's stopping test
    bounds the relative residual, not the error: on test1 at k = 8, n = 16
    it meets 1e-12 with err_L2 39% away from a direct solve's, which is why
    the CLI's ``--k`` stops at 4.
    """
    if system.reduced_matrix is None:
        raise SolverError("apply_dirichlet must run before solve")
    a_mat = system.reduced_matrix
    b = system.reduced_rhs
    n = a_mat.shape[0]
    if method == "cg":
        if not tol > 0.0:  # also nan: CG would run until p is exactly zero
            raise SolverError(f"CG tolerance tol must be positive, got {tol}")
        x = _cg(a_mat, b, tol, maxiter if maxiter is not None else max(1000, 40 * n))
    elif method == "direct":
        from scipy.sparse.linalg import splu

        try:
            lu = splu(a_mat.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                      options={"SymmetricMode": True})
        except RuntimeError as exc:  # a zero pivot: the factor is exactly singular
            raise NotSPDError(f"sparse LU failed: {exc}") from None
        # diagonal pivots make the factor an LDL^T: SPD iff every pivot is positive
        if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0.0)):
            raise NotSPDError("sparse LU found a pivot off the diagonal or not positive")
        x = lu.solve(b)
    else:
        raise SolverError(f"unknown solver method {method!r}")
    out = system.boundary_values.copy()
    out[system.interior] = x
    return out
