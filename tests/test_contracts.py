"""The argument contract: a bad count, degree or solver input raises the
package's own exception, naming the parameter."""

import numpy as np
import pytest

from curvem import (ElementOperatorError, MeshError, QuadratureError, SolverError,
                    apply_dirichlet, assemble, build_annulus_interface_mesh,
                    build_mapped_tensor_mesh, solve)
from curvem import test1_problem as problem1
from curvem.quadrature import gauss_legendre, gauss_lobatto, rule_points


def _assemble(k, boost=2):
    problem = problem1()
    return assemble(problem.mesh_factory(2), k, problem.coefficient(), boost=boost)


def _solve(maxiter=None, tol=1e-12, rhs=None):
    system = _assemble(1)
    apply_dirichlet(system, problem1().boundary)
    if rhs is not None:
        system.reduced_rhs[:] = rhs
    return solve(system, tol=tol, maxiter=maxiter)


def _dirichlet(values):
    apply_dirichlet(_assemble(1), lambda x, y: values)


# (call, bad value, exception, the parameter as the message names it, its
# range); numpy raised TypeError for the first three, assemble for True
# after passing it as a degree, the counts of True made one-point rules,
# and 3.0 got the cached rule of 3 points
INTEGER_CASES = [
    (build_mapped_tensor_mesh, 2.5, MeshError, "build_mapped_tensor_mesh: n", ">= 1"),
    (lambda n: build_annulus_interface_mesh(n, 8), 2.5, MeshError,
     "build_annulus_interface_mesh: n_rings", ">= 2"),
    (lambda n: build_annulus_interface_mesh(2, n), 8.0, MeshError,
     "build_annulus_interface_mesh: n_sectors", ">= 4"),
    (build_mapped_tensor_mesh, True, MeshError, "build_mapped_tensor_mesh: n", ">= 1"),
    (_assemble, True, ElementOperatorError, "degree k", ">= 1"),
    (_assemble, 2.0, ElementOperatorError, "degree k", ">= 1"),
    (lambda boost: _assemble(1, boost), True, QuadratureError, "rule_points: boost", ">= 0"),
    (_solve, True, SolverError, "CG iteration cap maxiter", ">= 1"),
    (gauss_legendre, True, QuadratureError, "gauss_legendre: n", "in [1, 64]"),
    (lambda n: gauss_legendre(3) and gauss_legendre(n), 3.0, QuadratureError,
     "gauss_legendre: n", "in [1, 64]"),
    (gauss_lobatto, np.int64(1), QuadratureError, "gauss_lobatto: n", "in [2, 64]"),
    (lambda k: rule_points(k, 2), np.True_, QuadratureError, "rule_points: k", ">= 1"),
]


@pytest.mark.parametrize("call, value, error, name, bounds", INTEGER_CASES, ids=[
    "tensor-n-float", "annulus-rings-float", "annulus-sectors-float", "tensor-n-bool",
    "assemble-k-bool", "assemble-k-float", "assemble-boost-bool", "solve-maxiter-bool",
    "legendre-bool", "legendre-float-after-int", "lobatto-numpy-1", "rule-k-numpy-bool"])
def test_counts_and_degrees_must_be_integers(call, value, error, name, bounds):
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error
    assert str(info.value) == f"{name} must be an integer {bounds}, got {value!r}"


def test_numpy_integers_count():
    mesh = build_mapped_tensor_mesh(np.int64(2))
    assert len(mesh.elements) == 4
    assert rule_points(np.int32(3), np.int64(0)) == (3, 4)
    assert len(gauss_legendre(np.int16(3)).nodes) == 3


# (call, bad value, exception, message): a finite right-hand side whose norm
# overflowed warned in numpy and then was called not finite, a tolerance of
# 1 or more returned after one CG step, a string raised TypeError, and
# boundary data of the wrong length failed to broadcast in numpy
ENTRY_CASES = [
    (lambda rhs: _solve(rhs=rhs), 1e300, SolverError,
     "CG right-hand side is finite but its norm overflows (largest entry 1.000e+300)"),
    (lambda tol: _solve(tol=tol), np.inf, SolverError,
     "CG tolerance tol must be a real number in (0, 1), got inf"),
    (lambda tol: _solve(tol=tol), 2.0, SolverError,
     "CG tolerance tol must be a real number in (0, 1), got 2.0"),
    (lambda tol: _solve(tol=tol), "1e-8", SolverError,
     "CG tolerance tol must be a real number in (0, 1), got '1e-8'"),
    (_dirichlet, np.zeros(3), SolverError,
     "boundary data must be a scalar or 8 values, one per boundary point, got shape (3,)"),
]


@pytest.mark.parametrize("call, value, error, message", ENTRY_CASES, ids=[
    "cg-rhs-norm-overflows", "tol-inf", "tol-2", "tol-text", "dirichlet-wrong-count"])
def test_solver_inputs_are_checked_on_entry(call, value, error, message):
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error
    assert str(info.value) == message


def test_scalar_boundary_data_broadcasts():
    system = _assemble(1)
    apply_dirichlet(system, lambda x, y: 0.5)
    n = system.dof_map.n_unknowns
    assert np.array_equal(system.boundary_values[n:], np.full(system.dof_map.total - n, 0.5))
