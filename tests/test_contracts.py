"""The argument contract: a bad count or degree raises the package's own
exception, naming the parameter."""

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


def _solve(maxiter):
    system = _assemble(1)
    apply_dirichlet(system, problem1().boundary)
    return solve(system, maxiter=maxiter)


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
