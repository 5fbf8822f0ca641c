"""The argument contract: a bad count, degree, curve, solver input or problem
data value raises the package's own exception, naming the parameter or label."""

from dataclasses import replace

import numpy as np
import pytest

from curvem import (Coefficient, CurveSegment, ElementOperatorError, GeometryError, MeshError,
                    QuadratureError, SolverError, apply_dirichlet, assemble,
                    build_annulus_interface_mesh, build_mapped_tensor_mesh, circle_curve,
                    compute_errors, graph_curve, run_patch_test, solve)
from curvem import test1_problem as problem1
from curvem.quadrature import gauss_legendre, gauss_lobatto, polygon_quadrature, rule_points
from curvem.vem import local_operators


def _assemble(k, boost=2):
    problem = problem1()
    return assemble(problem.mesh_factory(2), k, problem.coefficient(), boost=boost)


def _solve(tol=1e-12, rhs=None):
    system = _assemble(1)
    apply_dirichlet(system, problem1().boundary)
    if rhs is not None:
        system.reduced_rhs[:] = rhs
    return solve(system, tol=tol)


def _dirichlet(values):
    apply_dirichlet(_assemble(1), lambda x, y: values)


_SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]


# (call, bad value, exception, the parameter as the message names it, its
# range); numpy raised TypeError for the first three, assemble for True
# after passing it as a degree, the counts of True made one-point rules,
# 3.0 got the cached rule of 3 points, the patch test's polynomial
# raised TypeError for a degree of 2.5, and a polygon rule's order of True
# gave the rule of order 1, 2.5 and 64 named the Gauss-Legendre count M + 1
# and text raised a comparison's TypeError
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
    (gauss_legendre, True, QuadratureError, "gauss_legendre: n", "in [1, 64]"),
    (lambda n: gauss_legendre(3) and gauss_legendre(n), 3.0, QuadratureError,
     "gauss_legendre: n", "in [1, 64]"),
    (gauss_lobatto, np.int64(1), QuadratureError, "gauss_lobatto: n", "in [2, 64]"),
    (lambda k: rule_points(k, 2), np.True_, QuadratureError, "rule_points: k", ">= 1"),
    (lambda k: next(run_patch_test((k,))), 2.5, ElementOperatorError, "degree k", ">= 1"),
    (lambda M: polygon_quadrature(_SQUARE, M), True, QuadratureError,
     "polygon_quadrature: M", "in [0, 63]"),
    (lambda M: polygon_quadrature(_SQUARE, M), 2.5, QuadratureError,
     "polygon_quadrature: M", "in [0, 63]"),
    (lambda M: polygon_quadrature(_SQUARE, M), "1", QuadratureError,
     "polygon_quadrature: M", "in [0, 63]"),
    (lambda M: polygon_quadrature(_SQUARE, M), 64, QuadratureError,
     "polygon_quadrature: M", "in [0, 63]"),
]


@pytest.mark.parametrize("call, value, error, name, bounds", INTEGER_CASES, ids=[
    "tensor-n-float", "annulus-rings-float", "annulus-sectors-float", "tensor-n-bool",
    "assemble-k-bool", "assemble-k-float", "assemble-boost-bool", "legendre-bool",
    "legendre-float-after-int", "lobatto-numpy-1", "rule-k-numpy-bool", "patch-k-float",
    "polygon-M-bool", "polygon-M-float", "polygon-M-text", "polygon-M-64"])
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


def _diffusion(value):
    assemble(problem1().mesh_factory(2), 1, Coefficient(diffusion=value))


def _source(values):
    assemble(problem1().mesh_factory(2), 1, Coefficient(source=lambda x, y: values))


def _exact_solution(values):
    problem = problem1()
    system = _assemble(1)
    compute_errors(problem.mesh_factory(2), 1, np.zeros(system.dof_map.total),
                   replace(problem, solution=lambda x, y: (x, values, y)), system)


def _interpolate(values):
    local_operators(problem1().mesh_factory(2), 0, 1).chunk.interpolate(lambda x, y: values)


def _center(value):
    circle_curve("c", value, 1.0)


def _radius(value):
    circle_curve("c", (0.0, 0.0), value)


# (call, bad value, exception, message): a finite right-hand side whose norm
# overflowed warned in numpy and then was called not finite, a tolerance of
# 1 or more returned after one CG step, a string raised TypeError, and
# boundary data of the wrong length failed to broadcast in numpy.  Problem
# data is checked where it enters: complex data lost its imaginary part
# with only numpy's ComplexWarning, text and values of the wrong count
# raised numpy's ValueError, None, 1j and an array as diffusion numpy's
# TypeError, and True was diffusion 1.0.  A curve's center dropped a third
# entry and raised IndexError for one, text was read as a number, None and
# 1j raised float()'s TypeError, True was 1.0, and a segment bound given as
# text raised a comparison's TypeError.  A polygon rule took a non-finite
# corner to weights that sum to nan, and numpy raised ValueError for corners
# of the wrong shape or text, IndexError for a flat list of coordinates
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
    (_diffusion, "abc", ElementOperatorError,
     "label 1: diffusion must be a real number, got 'abc'"),
    (_diffusion, None, ElementOperatorError, "label 1: diffusion must be a real number, got None"),
    (_diffusion, 1j, ElementOperatorError, "label 1: diffusion must be a real number, got 1j"),
    (_diffusion, np.array([2.0]), ElementOperatorError,
     "label 1: diffusion must be a real number, got array([2.])"),
    (_diffusion, True, ElementOperatorError, "label 1: diffusion must be a real number, got True"),
    (_dirichlet, 1j, SolverError, "boundary data must be real numbers, got dtype complex128"),
    (_dirichlet, "a", SolverError, "boundary data must be real numbers, got dtype <U1"),
    (_source, np.ones(3), ElementOperatorError,
     "label 1: source must give a scalar or 108 values, one per point, got shape (3,)"),
    (_source, 1j, ElementOperatorError,
     "label 1: source must give real numbers, got dtype complex128"),
    (_exact_solution, 1j, ElementOperatorError,
     "label 1: exact solution must give real numbers, got dtype complex128"),
    (_interpolate, 1j, ElementOperatorError, "u must give real numbers, got dtype complex128"),
    (_center, (0.0, 0.0, 5.0), GeometryError,
     "curve 'c': center must be two real numbers, got (0.0, 0.0, 5.0)"),
    (_center, (0.0,), GeometryError, "curve 'c': center must be two real numbers, got (0.0,)"),
    (_radius, "1", GeometryError, "curve 'c': radius must be a real number, got '1'"),
    (_radius, 1j, GeometryError, "curve 'c': radius must be a real number, got 1j"),
    (_radius, True, GeometryError, "curve 'c': radius must be a real number, got True"),
    (lambda frequency: graph_curve("g", 0.05, frequency), None, GeometryError,
     "curve 'g': frequency must be a real number, got None"),
    (lambda b: graph_curve("g", 0.05, np.pi, param_interval=(0.0, b)), "1", GeometryError,
     "curve 'g': param_interval must be two real numbers, got (0.0, '1')"),
    (lambda t1: CurveSegment(graph_curve("g", 0.05, np.pi), 0.0, t1), "1", GeometryError,
     "curve 'g': segment t1 must be a real number, got '1'"),
    (lambda y: polygon_quadrature([[0.0, 0.0], [1.0, 0.0], [1.0, y], [0.0, 1.0]], 2), np.nan,
     QuadratureError, "polygon_quadrature: vertex 2 is not finite, got [1.0, nan]"),
    (lambda y: polygon_quadrature([[0.0, 0.0], [1.0, 0.0], [1.0, y], [0.0, 1.0]], 2), np.inf,
     QuadratureError, "polygon_quadrature: vertex 2 is not finite, got [1.0, inf]"),
    (lambda z: polygon_quadrature([[x, y, z] for x, y in _SQUARE], 2), 0.0, QuadratureError,
     "polygon_quadrature: vertices must be an (n, 2) array with n >= 3, got shape (4, 3)"),
    (lambda flat: polygon_quadrature(flat, 2), sum(_SQUARE, []), QuadratureError,
     "polygon_quadrature: vertices must be an (n, 2) array with n >= 3, got shape (8,)"),
    (lambda corners: polygon_quadrature(corners, 2), _SQUARE[:2], QuadratureError,
     "polygon_quadrature: vertices must be an (n, 2) array with n >= 3, got shape (2, 2)"),
    (lambda corners: polygon_quadrature(corners, 2), "abc", QuadratureError,
     "polygon_quadrature: vertices must be real numbers, got dtype <U3"),
]


@pytest.mark.parametrize("call, value, error, message", ENTRY_CASES, ids=[
    "cg-rhs-norm-overflows", "tol-inf", "tol-2", "tol-text", "dirichlet-wrong-count",
    "diffusion-text", "diffusion-none", "diffusion-complex", "diffusion-array",
    "diffusion-bool", "dirichlet-complex", "dirichlet-text", "source-wrong-count",
    "source-complex", "exact-solution-complex", "interpolate-complex", "center-three",
    "center-one", "radius-text", "radius-complex", "radius-bool", "frequency-none",
    "interval-text", "segment-text", "polygon-nan", "polygon-inf", "polygon-three-columns",
    "polygon-flat", "polygon-two-corners", "polygon-text"])
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


def test_real_data_of_any_numeric_type_is_read():
    # numpy scalars and integers are real numbers
    for value in (np.float32(2.0), np.int64(2), 2):
        assert Coefficient(diffusion=value).kappa(1) == 2.0
    curve = circle_curve("c", np.array([0.0, 1.0]), np.float32(2.0), omega=1,
                         param_interval=(0, np.pi))
    assert curve.params == (0.0, 1.0, 2.0, 1.0, 0.0) and curve.param_interval == (0.0, np.pi)
    CurveSegment(curve, np.float64(0.5), 1)
    system = _assemble(1)
    apply_dirichlet(system, lambda x, y: np.ones(len(x), dtype=np.int32))
    n = system.dof_map.n_unknowns
    assert np.array_equal(system.boundary_values[n:], np.ones(system.dof_map.total - n))
