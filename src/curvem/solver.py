"""Global assembly, Dirichlet elimination and linear solvers.

Each element chunk of :mod:`curvem.vem` carries its global DoFs, so this
module does no DoF numbering of its own.  It knows one fact of that
numbering: the unknowns are the leading ``DofMap.n_unknowns`` DoFs, so they
are the leading rows and columns of the assembled matrix and elimination
keeps a view of its rows.  The stiffness
matrix is accumulated as triplets of its lower triangle, sorted on one
stable integer key (row * size + col) and summed; the sort's order is
narrowed to uint32 before it gathers the keys and values.  Each row of the
symmetric CSR matrix is then that row of the lower triangle, which ends on
the diagonal, followed by the same column of it below the diagonal: the
same arrays as ``lower + lower.T - diag(lower)``, exactly symmetric.  The
matrix's ``data`` and ``indices`` are allocated once, the summed triangle
is parked in their tails, and the rows are built in place ahead of it, so
no other copy of the triangle sits beside them.  Local
operators come from the chunked kernel of :mod:`curvem.vem`; their triplets
and load entries are laid out in element order before any sum is taken, so
every entry accumulates in the order of an element-by-element loop,
whatever the chunking, and repeated runs produce bit-identical systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real

import numpy as np
from scipy import sparse

from ._checks import check_integer
from .mesh import Mesh
from .quadrature import BOOST
from .vem import (CHUNK_SIZE, ChunkOperators, Coefficient, DofMap, ElementChunk,
                  ElementOperatorError, build_dof_map, dof_count, element_chunks)


class SolverError(Exception):
    """Raised for non-convergence or unsupported solver requests."""


class NotSPDError(SolverError):
    """Raised when a supposedly SPD matrix exposes non-positive curvature."""


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
    reduced_matrix: sparse.csr_matrix | None = None
    reduced_rhs: np.ndarray | None = None


def _starts(sizes) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)


def assemble(mesh: Mesh, k: int, coeff: Coefficient, boost: int = BOOST) -> LinearSystem:
    """Assemble stiffness and load of the degree-k discretization."""
    check_integer(ElementOperatorError, "degree k", k, 1)
    dof_map = build_dof_map(mesh, k)
    total = dof_map.total
    n_local = dof_count(np.diff(mesh.loop_offsets), k)
    # one diffusion lookup per label, in order of first appearance, each
    # checked before any chunk is built, whatever the coefficient object
    kappa = {label: coeff.kappa(label) for label in dict.fromkeys(mesh.labels.tolist())}
    for label, value in kappa.items():
        if not 0.0 < value < np.inf:
            raise ElementOperatorError(
                f"label {label}: diffusion must be positive and finite, got {value}")
    load_start = _starts(n_local)
    n_tri = n_local * (n_local + 1) // 2
    tri_start = _starts(n_tri)
    load_dofs = np.empty(load_start[-1], dtype=np.int64)
    load_vals = np.empty(load_start[-1])
    # every key is below total**2, so 32 bits hold it below 2**16 DoFs
    triplets = [np.empty(tri_start[-1], dtype=np.uint32 if total < 2 ** 16 else np.int64),
                np.empty(tri_start[-1])]
    keys, vals = triplets
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
    del load_dofs, load_vals, keys, vals
    # row blocks of at most one chunk's triplets, the loop's own budget
    matrix = _summed_csr(triplets, total, CHUNK_SIZE * int(n_tri.max()))
    return LinearSystem(matrix=matrix, rhs=rhs, dof_map=dof_map, blocks=blocks)


def _summed_csr(triplets: list, total: int, block: int) -> sparse.csr_matrix:
    """The symmetric matrix whose lower triangle sums the triplets.

    ``triplets`` is the list [keys, vals] of lower-triangle entries keyed
    row * total + col, in element order; it is emptied, so that each array
    is freed after its last read.  The sums are parked in the tails of the
    result's ``data`` and ``indices``, which ``_symmetric_csr`` fills in
    place, in row blocks of at most ``block`` triangle entries.
    """
    keys, vals = triplets
    triplets.clear()
    # a stable sort on the key is a (row, col) sort that keeps equal entries
    # in element order for the sums; the order narrows to 32 bits where the
    # count allows, before the gathers, and each sorted array is dropped
    # after its last read
    order = np.argsort(keys, kind="stable")
    if len(order) <= 2 ** 32:
        order = order.astype(np.uint32)
    vals = vals[order]
    keys = keys[order]
    del order
    starts = np.concatenate([[0], np.flatnonzero(keys[1:] != keys[:-1]) + 1])
    summed = np.add.reduceat(vals, starts)
    del vals
    cols = keys[starts]
    del keys, starts
    # a sum that is exactly zero is no entry, as in scipy's sparse sums
    nonzero = summed != 0.0
    if not nonzero.all():
        summed, cols = summed[nonzero], cols[nonzero]
    del nonzero
    rows = np.empty_like(cols)
    np.divmod(cols, total, out=(rows, cols))
    lower_ptr = _starts(np.bincount(rows, minlength=total))
    del rows
    below = np.bincount(cols, minlength=total) - 1  # entries under each diagonal
    # every row of the triangle ends on its diagonal, so the mirror adds
    # len(summed) - total entries, and the triangle takes the rest
    tail = len(summed) - total
    nnz = tail + len(summed)
    # scipy's rule: 32-bit indices unless a count or index needs more
    index = np.int32 if max(nnz, total) <= np.iinfo(np.int32).max else np.int64
    data = np.empty(nnz)
    data[tail:] = summed
    del summed
    indices = np.empty(nnz, dtype=index)
    indices[tail:] = cols
    del cols
    return _symmetric_csr(data, indices, lower_ptr, below, block)


def _symmetric_csr(data: np.ndarray, indices: np.ndarray, lower_ptr: np.ndarray,
                   below: np.ndarray, block: int) -> sparse.csr_matrix:
    """The symmetric matrix whose lower triangle is parked in the tails of
    ``data`` and ``indices``, built in place in those arrays.

    The triangle is the CSR (values, columns, ``lower_ptr``) whose entries
    are the last ``lower_ptr[-1]`` of ``data`` and ``indices``; ``below[r]``
    counts its entries in column r under the diagonal, and the arrays hold
    exactly the result's entries.  Row r of the result is row r of the
    triangle, then column r of it below the diagonal.  Every row of the
    triangle must end on its diagonal: the ``Mesh`` constructor puts every
    vertex and edge in an element, ``assemble`` rejects a diffusion value
    that is not positive and finite, and with such diffusion each
    stabilized local stiffness has a positive diagonal.

    The rows are filled forward in blocks holding at most ``block`` entries
    of the triangle (or one row), each block's triangle entries copied out
    first.  Row r starts at or before its triangle row's slot in the tail,
    and a mirrored entry lands in an earlier row, so no write reaches a
    triangle entry that has not been read yet.
    """
    total = len(lower_ptr) - 1
    tail = len(data) - int(lower_ptr[-1])
    lengths = np.diff(lower_ptr)
    indptr = np.zeros(total + 1, dtype=indices.dtype)
    np.cumsum(lengths + below, out=indptr[1:])
    fill = indptr[:-1] + lengths  # each row's next free slot right of its diagonal
    start = 0
    while start < total:
        stop = max(start + 1, int(np.searchsorted(lower_ptr, lower_ptr[start] + block,
                                                  side="right")) - 1)
        span = slice(tail + lower_ptr[start], tail + lower_ptr[stop])
        values, columns = data[span].copy(), indices[span].copy()
        count = lengths[start:stop]
        rows = np.repeat(np.arange(start, stop), count)
        at = np.arange(lower_ptr[start], lower_ptr[stop]) \
            + np.repeat(indptr[start:stop] - lower_ptr[start:stop], count)
        data[at], indices[at] = values, columns
        # the entries below the diagonal by column, rows ascending in each,
        # appended to the rows named by their columns
        off = np.flatnonzero(columns < rows)
        off = off[np.argsort(columns[off], kind="stable")]
        column = columns[off]
        first = np.ones(len(off), dtype=bool)  # the first entry of each column
        first[1:] = column[1:] != column[:-1]
        rank = np.arange(len(off))
        rank -= np.maximum.accumulate(np.where(first, rank, 0))
        at = fill[column] + rank
        data[at], indices[at] = values[off], rows[off]
        np.add.at(fill, column, 1)
        start = stop
    return sparse.csr_matrix((data, indices, indptr), shape=(total, total))


def apply_dirichlet(system: LinearSystem, g) -> None:
    """Eliminate boundary DoFs symmetrically against boundary data g(x, y).

    The unknowns are the leading ``dof_map.n_unknowns`` DoFs, as
    ``assemble`` numbers them.  The reduced matrix is then the leading rows
    of ``system.matrix``: a CSR of shape (unknowns, total) on the matrix's
    own arrays, whose columns past the unknowns ``solve`` meets with zeros.
    (scipy copies the rows instead when they hold under half of the
    entries.)  Keeps the boundary values on the system so ``solve`` can
    reconstruct the full DoF vector.  Raises ``SolverError`` for more
    boundary points than DoFs, where g gives neither a scalar nor one value
    per boundary point, and where g is not finite.
    """
    dof_map = system.dof_map
    total, n, pts = dof_map.total, dof_map.n_unknowns, dof_map.boundary_points
    if n < 0:
        raise SolverError(f"{len(pts)} boundary points but only {total} DoFs")
    values = np.zeros(total)
    if len(pts):
        given = g(pts[:, 0], pts[:, 1])
        if np.ndim(given) and np.shape(given) != (len(pts),):
            raise SolverError(f"boundary data must be a scalar or {len(pts)} values, one per "
                              f"boundary point, got shape {np.shape(given)}")
        values[n:] = given
        bad = np.flatnonzero(~np.isfinite(values[n:]))
        if len(bad):
            x, y = pts[bad[0]]
            raise SolverError(f"boundary data is {values[n + bad[0]]} at ({x:.17g}, {y:.17g})")
    matrix = system.matrix
    rows = sparse.csr_matrix((matrix.data, matrix.indices, matrix.indptr[:n + 1]),
                             shape=(n, total))
    system.reduced_rhs = system.rhs[:n] - rows @ values
    system.reduced_matrix = rows
    system.boundary_values = values


def _cg(matrix, b, tol, maxiter):
    """Jacobi-preconditioned conjugate gradients with SPD monitoring.

    ``matrix`` holds the n = len(b) rows of the system and may have more
    columns: it multiplies a buffer whose first n entries are the search
    direction and whose tail stays zero.  The updates run in place on
    preallocated vectors.  Each is the same floating-point operation as
    its textbook form, so the iterates keep their bits.
    """
    diag = matrix.diagonal()
    if np.any(diag <= 0.0):
        raise NotSPDError("nonpositive diagonal entry in reduced matrix")
    with np.errstate(over="ignore"):
        bnorm = float(np.linalg.norm(b))
    if not np.isfinite(bnorm):
        if np.isfinite(b).all():
            raise SolverError(f"CG right-hand side is finite but its norm overflows "
                              f"(largest entry {np.max(np.abs(b)):.3e})")
        raise SolverError(f"CG right-hand side is not finite: its norm is {bnorm}")
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x
    r = b.copy()
    z = r / diag
    buffer = np.zeros(matrix.shape[1])
    p = buffer[:len(b)]
    p[:] = z
    step = np.empty_like(b)
    rz = float(r @ z)
    for _ in range(maxiter):
        ap = matrix @ buffer
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
    ``tol``, at most ``maxiter`` iterations, by default max(1000, 40 n) for
    n unknowns) or "direct" (a sparse LU with symmetric diagonal pivots; it
    is the only path that loads ``scipy.sparse.linalg``).  CG's stopping
    test bounds the relative residual, not the error: on test1 at k = 8,
    n = 16 it meets 1e-12 with err_L2 39% away from a direct solve's, which
    is why the CLI's ``--k`` stops at 4.
    """
    if system.reduced_matrix is None:
        raise SolverError("apply_dirichlet must run before solve")
    a_mat = system.reduced_matrix
    b = system.reduced_rhs
    n = a_mat.shape[0]
    if method == "cg":
        # nan too: CG would run until p is exactly zero; at 1 or more it stops
        # after one step
        if not (isinstance(tol, Real) and 0.0 < tol < 1.0):
            raise SolverError(f"CG tolerance tol must be a real number in (0, 1), got {tol!r}")
        if maxiter is None:
            maxiter = max(1000, 40 * n)
        else:
            check_integer(SolverError, "CG iteration cap maxiter", maxiter, 1)
        x = _cg(a_mat, b, tol, maxiter)
    elif method == "direct":
        from scipy.sparse.linalg import splu

        try:
            lu = splu(a_mat[:, :n].tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
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
    out[:n] = x
    return out
