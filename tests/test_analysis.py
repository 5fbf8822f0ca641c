"""Manufactured problems, error norms, rate fitting, and study drivers."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvem import (
    ConvergenceReport,
    ConvergenceRow,
    Mesh,
    build_mapped_tensor_mesh,
    compute_errors,
    fit_rates,
    run_convergence,
    run_patch_test,
    solve,
    assemble,
    apply_dirichlet,
    straighten_mesh,
)
from curvem import test1_problem as problem1
from curvem import test2_problem as problem2
from curvem import vem
from curvem.analysis import _patch_error, _patch_polynomial
from curvem.solver import build_dof_map
from curvem.cli import PATCH_TOL

from _oracles import (finite_difference_gradient, finite_difference_laplacian,
                      first_problem_formulas, traced_peak)


def test_first_problem_data_is_consistent():
    # gradient and source match the stated solution at interior points
    prob = problem1()
    solution = prob.solution_for(0)
    u = lambda x, y: solution(x, y)[0]
    pts = [(0.31, 0.42), (0.77, 0.58), (0.5, 0.21), (0.12, 0.87)]
    for x, y in pts:
        _, gx, gy = solution(x, y)
        fx, fy = finite_difference_gradient(u, x, y)
        assert gx == pytest.approx(fx, rel=1e-7, abs=1e-8)
        assert gy == pytest.approx(fy, rel=1e-7, abs=1e-8)
        lap = finite_difference_laplacian(u, x, y)
        assert prob.source(x, y) == pytest.approx(-lap, rel=1e-5, abs=1e-4)


def test_first_problem_callables_keep_their_bits():
    # Green-rule nodes can fall outside an element, so the points reach
    # beyond the domain
    x, y = np.random.default_rng(5).uniform(-0.5, 1.5, (2, 20000))
    prob = problem1()
    exact, gradient, source = first_problem_formulas()
    u, *grad = prob.solution(x, y)
    assert np.array_equal(u, exact(x, y))
    for got, want in zip(grad, gradient(x, y)):
        assert np.array_equal(got, want)
    assert np.array_equal(prob.boundary(x, y), exact(x, y))
    assert np.array_equal(prob.source(x, y), source(x, y))
    x[::3] = np.where(x[::3] < 0.5, 0.0, 1.0)  # a third on the lateral sides
    lateral = (x < 1e-9) | (x > 1.0 - 1e-9)
    assert np.array_equal(prob.chord_boundary(x, y), np.where(lateral, exact(x, y), 0.0))


def test_first_problem_vanishes_on_its_curves():
    prob = problem1()
    u = lambda x, y: prob.solution_for(0)(x, y)[0]
    t = np.linspace(0.0, 1.0, 13)
    g1 = np.sin(np.pi * t) / 20.0
    g2 = 1.0 + np.sin(3.0 * np.pi * t) / 20.0
    assert np.abs(u(t, g1)).max() < 1e-15
    assert np.abs(u(t, g2)).max() < 1e-15


def test_second_problem_interface_identities():
    prob = problem2()
    outer, inner = prob.solution_for(1), prob.solution_for(2)
    # common trace on the interface circle r = 1/2
    val = 3.0 / 80.0 + np.log(2.0) / 10.0
    for theta in np.linspace(0.0, 2.0 * np.pi, 9):
        x, y = 0.5 * np.cos(theta), 0.5 * np.sin(theta)
        assert outer(x, y)[0] == pytest.approx(val, abs=1e-15)
        assert inner(x, y)[0] == pytest.approx(val, abs=1e-15)
    # continuous conormal flux kappa du/dr across the interface
    _, gx_out, gy_out = outer(0.5, 0.0)
    _, gx_in, gy_in = inner(0.5, 0.0)
    assert 5.0 * gx_out == pytest.approx(-1.25, abs=1e-15)
    assert 1.0 * gx_in == pytest.approx(-1.25, abs=1e-15)
    assert gy_out == gy_in == 0.0
    # outer boundary value zero
    assert outer(1.0, 0.0)[0] == pytest.approx(0.0, abs=1e-15)


def test_second_problem_residuals():
    prob = problem2()
    for label, kappa, f_val, pt in ((1, 5.0, 1.0, (0.6, 0.25)),
                                    (2, 1.0, 5.0, (0.2, -0.1))):
        solution = prob.solution_for(label)
        u = lambda x, y: solution(x, y)[0]
        lap = finite_difference_laplacian(u, *pt)
        assert -kappa * lap == pytest.approx(f_val, rel=1e-6)
        _, gx, gy = solution(*pt)
        fx, fy = finite_difference_gradient(u, *pt)
        assert gx == pytest.approx(fx, rel=1e-7)
        assert gy == pytest.approx(fy, rel=1e-7)


def test_compute_errors_of_interpolant_shrink_under_refinement():
    prob = problem1()
    k = 2
    errs = {}
    for n in (4, 8):
        mesh = prob.mesh_factory(n)
        dof_map = build_dof_map(mesh, k)
        vec = np.zeros(dof_map.total)
        system = assemble(mesh, k, prob.coefficient())
        for block in system.blocks:
            vec[block.chunk.dofs] = block.chunk.interpolate(lambda x, y: prob.solution(x, y)[0])
        errs[n] = compute_errors(mesh, k, vec, prob, system)
    assert errs[4][0] < 0.2 and errs[4][1] < 0.05
    assert errs[8][0] < 0.5 * errs[4][0]
    assert errs[8][1] < 0.3 * errs[4][1]


def test_compute_errors_evaluates_the_solution_once_per_chunk():
    prob = problem1()
    calls = []

    def solution(x, y):
        calls.append(len(x))
        return prob.solution(x, y)

    mesh = prob.mesh_factory(4)
    system = assemble(mesh, 2, prob.coefficient())
    counted = dataclasses.replace(prob, solution=solution)
    compute_errors(mesh, 2, np.zeros(system.dof_map.total), counted, system)
    assert len(calls) == len(system.blocks) > 1


def counting_solution(prob, calls):
    """``prob`` with an exact solution that records the size of each call."""
    def counted(f):
        def solution(x, y):
            calls.append(len(x))
            return f(x, y)
        return solution

    if isinstance(prob.solution, dict):
        return dataclasses.replace(
            prob, solution={label: counted(f) for label, f in prob.solution.items()})
    return dataclasses.replace(prob, solution=counted(prob.solution))


@pytest.mark.parametrize("problem, n", [(problem1, 8), (problem2, 4)])
def test_errors_do_not_depend_on_the_slice_size(monkeypatch, problem, n):
    prob = problem()
    mesh = prob.mesh_factory(n)
    system = assemble(mesh, 3, prob.coefficient())
    apply_dirichlet(system, prob.boundary)
    solution = solve(system)
    errors = compute_errors(mesh, 3, solution, prob, system)
    for size in (1, 5):
        monkeypatch.setattr(vem, "_SLICE_SIZE", size)
        calls = []
        assert compute_errors(mesh, 3, solution, counting_solution(prob, calls),
                              system) == errors
        # one evaluation per slice and label present in it: ceil(E / size)
        # per block of test1, whose elements share one label
        labels = [np.unique(block.chunk.labels[lo:lo + size]) for block in system.blocks
                  for lo in range(0, len(block.chunk.elements), size)]
        assert len(calls) == sum(map(len, labels)) > len(system.blocks)


def test_compute_errors_peak_memory_is_bounded_by_the_slices():
    # a pass over whole chunks of 128 elements peaks at 8.3 MB here; slices
    # of 32 elements at 2.7 MB
    prob = problem1()
    mesh = prob.mesh_factory(32)
    system = assemble(mesh, 3, prob.coefficient())
    solution = np.zeros(system.dof_map.total)
    compute_errors(mesh, 3, solution, prob, system)  # warm caches
    peak = traced_peak(lambda: compute_errors(mesh, 3, solution, prob, system))
    assert peak <= 4e6, f"{peak / 1e6:.1f} MB"


def test_fit_rates_on_synthetic_errors():
    rows = [ConvergenceRow(n=n, h=1.0 / n, n_dof=n * n,
                           err_h1=2.0 / n ** 2, err_l2=5.0 / n ** 3)
            for n in (2, 4, 8)]
    fit = fit_rates(ConvergenceReport(problem="synthetic", k=2, rows=rows))
    assert fit.lsq_h1 == pytest.approx(2.0, abs=1e-12)
    assert fit.lsq_l2 == pytest.approx(3.0, abs=1e-12)
    assert fit.pairwise_h1 == pytest.approx([2.0, 2.0], abs=1e-12)
    assert fit.last_l2 == pytest.approx(3.0, abs=1e-12)


def test_fit_rates_needs_two_rows():
    report = ConvergenceReport(problem="p", k=1, rows=[
        ConvergenceRow(n=2, h=0.5, n_dof=9, err_h1=0.1, err_l2=0.01)])
    with pytest.raises(ValueError, match="two refinements"):
        fit_rates(report)


def test_fit_rates_needs_distinct_mesh_sizes():
    # two levels of one size leave the slope undetermined
    report = ConvergenceReport(problem="p", k=1, rows=[
        ConvergenceRow(n=n, h=h, n_dof=9, err_h1=0.1 * h, err_l2=0.01 * h)
        for n, h in ((2, 0.5), (4, 0.25), (4, 0.25))])
    with pytest.raises(ValueError, match=r"distinct mesh sizes, got h = \[0.5, 0.25, 0.25\]"):
        fit_rates(report)


def test_csv_format_round_trips_floats():
    rows = [ConvergenceRow(n=2, h=0.5, n_dof=9, err_h1=0.1, err_l2=0.01),
            ConvergenceRow(n=4, h=0.25, n_dof=25, err_h1=0.025, err_l2=1.25e-3)]
    text = ConvergenceReport(problem="p", k=1, rows=rows).to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "n,h,n_dof,err_h1,err_l2,rate_h1,rate_l2"
    first = lines[1].split(",")
    assert first[0] == "2" and first[5] == "" and first[6] == ""
    second = lines[2].split(",")
    assert float(second[1]) == 0.25
    # repr floats parse back exactly
    assert float(second[3]) == 0.025
    assert float(second[5]) == pytest.approx(2.0, abs=1e-12)
    assert text.endswith("\n")


@pytest.mark.parametrize("k", range(1, 9))
def test_patch_recovers_polynomials(k):
    (err,) = run_patch_test((k,))
    assert err <= PATCH_TOL


@pytest.mark.parametrize("k", range(1, 9))
def test_patch_polynomial_has_every_monomial_and_its_source_is_minus_its_laplacian(k):
    u, source = _patch_polynomial(k)
    x, y = np.random.default_rng(k).uniform(-1.0, 2.0, (2, 12))
    written_out = sum((-1.0) ** d / (1 + d) * x ** a * y ** (d - a)
                      for d in range(k + 1) for a in range(d + 1))
    assert np.allclose(u(x, y), written_out, rtol=1e-14, atol=0.0)
    lap = finite_difference_laplacian(u, x, y, h=1e-4)
    assert np.allclose(source(x, y), -lap, rtol=1e-5, atol=1e-3)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(st.floats(0.0, 2.0 * np.pi), st.floats(0.25, 4.0), st.floats(-3.0, 3.0),
       st.floats(-3.0, 3.0), st.integers(1, 6))
def test_patch_holds_on_rotated_scaled_and_shifted_quadrilaterals(theta, scale, dx, dy, k):
    mesh = straighten_mesh(problem1().mesh_factory(2))
    turn = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    moved = Mesh(scale * mesh.points @ turn.T + [dx, dy], mesh.edge_vertices,
                 mesh.edge_curves, mesh.edge_params, mesh.loop_offsets, mesh.loop_edges,
                 mesh.loop_signs, mesh.labels)
    assert _patch_error(moved, k) <= PATCH_TOL


def test_run_convergence_checks_mesh_list_length():
    prob = problem1()
    mesh = prob.mesh_factory(2)
    with pytest.raises(ValueError, match="matching lengths"):
        list(run_convergence(prob, (1,), (2, 4), meshes=[mesh]))


def test_run_convergence_rates_at_lowest_order():
    (report,) = run_convergence(problem1(), (1,), (4, 8, 16))
    fit = fit_rates(report)
    assert fit.last_h1 == pytest.approx(1.0, abs=0.2)
    assert fit.last_l2 == pytest.approx(2.0, abs=0.25)
    hs = [row.h for row in report.rows]
    assert hs[0] > hs[1] > hs[2]
    assert report.rows[0].n_dof < report.rows[1].n_dof


def test_run_convergence_accepts_prebuilt_meshes():
    prob = problem1()
    meshes = [prob.mesh_factory(n) for n in (4, 8)]
    (a,) = run_convergence(prob, (1,), (4, 8), meshes=meshes)
    (b,) = run_convergence(prob, (1,), (4, 8))
    assert a.rows == b.rows


def test_straightened_run_renames_report_and_uses_chord_data():
    (report,) = run_convergence(problem1(), (2,), (4, 8), straighten=True)
    assert report.problem == "test1-straight"
    # straight meshes lose the boundary layer accuracy; errors stay finite
    for row in report.rows:
        assert np.isfinite(row.err_h1) and row.err_h1 > 0
