"""End-to-end acceptance suite.

Ten checks, one test each, printing one pass/fail line per check:

1. polygon quadrature exactness against the triangulation oracle
2. polynomial patch reproduction on straight meshes
3. optimal convergence rates with exactly curved boundary edges
4. sub-optimal rates when curved edges are replaced by chords
5. curved-interface problem: rates plus exact-solution identities, and
   check 4's ceilings with chords
6. stiffness kernel / SPD behaviour of the assembled systems
7. curved-quadrature audit (disk area, monomials, boost monotonicity)
8. byte-identical outputs across repeated runs
9. p-version: exact curves cut the H1 error at least 3x per degree up to
   k = 8, while chords stall at the geometric error
10. general polygons: on curved triangles and hexagons, patch reproduction,
    check 3's rates with exact curves and check 4's ceilings with chords

The convergence studies solve on meshes of a few thousand elements; the
whole module runs in about a minute.
"""

import numpy as np
import pytest

from curvem import (
    Coefficient,
    NotSPDError,
    apply_dirichlet,
    assemble,
    build_annulus_interface_mesh,
    build_mapped_tensor_mesh,
    fit_rates,
    run_convergence,
    run_patch_test,
    solve,
    straighten_mesh,
)
from curvem import test1_boundary_curves as boundary_curves
from curvem import test1_problem as problem1
from curvem import test2_problem as problem2
from curvem.analysis import _patch_error
from curvem.cli import PATCH_TOL
from curvem.quadrature import BOOST
from curvem.vem import ChunkOperators, element_chunks

from _oracles import (
    CURVED_MONOMIAL_TOL,
    DISK_AUDIT_TOL,
    MONOTONICITY_FLOOR,
    POLYGON_AUDIT_TOL,
    audit_curved_elements,
    audit_disk_area,
    audit_polygon_exactness,
    finite_difference_gradient,
    finite_difference_laplacian,
    mixed_mesh,
    monotone_within_floor,
)

CURVED_NS = (4, 8, 16, 32)
INTERFACE_NS = (2, 4, 8, 16)


def _line(ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")


@pytest.fixture(scope="module")
def curved_reports():
    return {report.k: report for report in run_convergence(problem1(), (1, 2, 3), CURVED_NS)}


@pytest.fixture(scope="module")
def straight_reports():
    return {report.k: report
            for report in run_convergence(problem1(), (2, 3), CURVED_NS, straighten=True)}


@pytest.fixture(scope="module")
def interface_reports():
    return {report.k: report for report in run_convergence(problem2(), (1, 2, 3), INTERFACE_NS)}


@pytest.fixture(scope="module")
def interface_chord_reports():
    return {report.k: report for report in run_convergence(
        problem2(), (2, 3), INTERFACE_NS, straighten=True, solver_method="direct")}


def test_1_polygon_quadrature_exactness():
    rows = audit_polygon_exactness((1, 2, 3, 4), trials=50, seed=1234)
    worst = max(rel for _, _, rel in rows)
    ok = worst <= POLYGON_AUDIT_TOL
    _line(ok, "polygon quadrature exactness",
          f"{len(rows)} polygon/order cases, worst relative deviation "
          f"{worst:.3e} (tolerance {POLYGON_AUDIT_TOL:.0e})")
    assert ok


def test_2_patch_polynomial_reproduction():
    errs = dict(zip((1, 2, 3), run_patch_test((1, 2, 3)), strict=True))
    ok = all(err <= PATCH_TOL for err in errs.values())
    detail = ", ".join(f"k={k}: {err:.3e}" for k, err in errs.items())
    _line(ok, "patch reproduction of P_k",
          f"max relative DoF errors {detail} (tolerance {PATCH_TOL:.0e})")
    assert ok


def test_3_curved_boundary_rates(curved_reports):
    results = []
    ok = True
    for k, report in curved_reports.items():
        fit = fit_rates(report)
        good = (fit.last_h1 >= k - 0.2) and (fit.last_l2 >= k + 1 - 0.25)
        ok &= good
        results.append(f"k={k}: H1 {fit.last_h1:.3f} (>= {k - 0.2:.2f}), "
                       f"L2 {fit.last_l2:.3f} (>= {k + 0.75:.2f})")
    _line(ok, "curved-edge convergence rates", "; ".join(results))
    for k, report in curved_reports.items():
        fit = fit_rates(report)
        assert fit.last_h1 >= k - 0.2
        assert fit.last_l2 >= k + 1 - 0.25


def test_4_straightened_boundary_suboptimal_rates(straight_reports):
    fits = {k: fit_rates(report) for k, report in straight_reports.items()}
    # chord approximation caps the rates at O(h^2)/O(h^{3/2}) territory no
    # matter the degree; the H1 ceiling binds for k=3, where optimal would
    # be a full order higher
    ok = all(fits[k].last_l2 <= 2.5 for k in (2, 3)) and fits[3].last_h1 <= 1.8
    _line(ok, "straightened-edge rate ceiling",
          f"L2 k=2 {fits[2].last_l2:.3f}, k=3 {fits[3].last_l2:.3f} "
          f"(both <= 2.50); H1 k=3 {fits[3].last_h1:.3f} (<= 1.80); "
          f"H1 k=2 measures {fits[2].last_h1:.3f}")
    assert fits[2].last_l2 <= 2.5
    assert fits[3].last_l2 <= 2.5
    assert fits[3].last_h1 <= 1.8


def test_5_interface_problem(interface_reports, interface_chord_reports):
    """Exact arcs give the optimal rates, and the solution's identities
    hold; chords, on the interface and the outer circle alike, keep check
    4's ceilings.  test2 has no chord boundary data, so the outer Dirichlet
    data at chord points is the outer branch's smooth extension and only
    the geometry moves."""
    results = []
    rates_ok = True
    for k, report in interface_reports.items():
        fit = fit_rates(report)
        good = (fit.last_h1 >= k - 0.2) and (fit.last_l2 >= k + 1 - 0.25)
        rates_ok &= good
        results.append(f"k={k}: H1 {fit.last_h1:.3f}, L2 {fit.last_l2:.3f}")

    # closed-form identities of the exact solution
    prob = problem2()
    outer, inner = prob.solution_for(1), prob.solution_for(2)
    interface_value = 3.0 / 80.0 + np.log(2.0) / 10.0
    trace_gap = 0.0
    for theta in np.linspace(0.0, 2.0 * np.pi, 17):
        x, y = 0.5 * np.cos(theta), 0.5 * np.sin(theta)
        trace_gap = max(trace_gap, abs(outer(x, y)[0] - interface_value),
                        abs(inner(x, y)[0] - interface_value))
    _, gx_out, _ = outer(0.5, 0.0)
    _, gx_in, _ = inner(0.5, 0.0)
    flux_gap = max(abs(5.0 * gx_out + 1.25), abs(1.0 * gx_in + 1.25))
    # the solution branches have constant Laplacians -1/5 and -5, so the
    # strong residuals -kappa lap(u) - f vanish identically
    residual_gap = max(abs(-5.0 * (-0.2) - 1.0), abs(-1.0 * (-5.0) - 5.0))
    for (label, lap, pt) in ((1, -0.2, (0.61, 0.17)), (2, -5.0, (0.2, -0.1))):
        solution = prob.solution_for(label)
        u = lambda x, y: solution(x, y)[0]
        assert finite_difference_laplacian(u, *pt) == pytest.approx(lap, rel=1e-5)
        _, gx, gy = solution(*pt)
        fx, fy = finite_difference_gradient(u, *pt)
        assert (gx, gy) == pytest.approx((fx, fy), rel=1e-7)

    identities_ok = max(trace_gap, flux_gap, residual_gap) <= 1e-12
    chords = {k: fit_rates(report) for k, report in interface_chord_reports.items()}
    chord_ok = all(chords[k].last_l2 <= 2.5 for k in (2, 3)) and chords[3].last_h1 <= 1.8
    ok = rates_ok and identities_ok and chord_ok
    _line(ok, "curved-interface problem",
          "; ".join(results) + f"; interface trace gap {trace_gap:.1e}, "
          f"flux gap {flux_gap:.1e}, residual gap {residual_gap:.1e} "
          f"(all <= 1e-12); chords L2 k=2 {chords[2].last_l2:.3f}, "
          f"k=3 {chords[3].last_l2:.3f} (<= 2.50), H1 k=3 {chords[3].last_h1:.3f} (<= 1.80)")
    assert rates_ok
    assert chords[2].last_l2 <= 2.5
    assert chords[3].last_l2 <= 2.5
    assert chords[3].last_h1 <= 1.8
    assert trace_gap <= 1e-12
    assert flux_gap <= 1e-12
    assert residual_gap <= 1e-12


def test_6_kernel_and_spd():
    one = lambda x, y: np.ones(np.shape(x))
    meshes = [build_mapped_tensor_mesh(n, *boundary_curves()) for n in CURVED_NS]
    meshes += [build_annulus_interface_mesh(n, 4 * n) for n in INTERFACE_NS]
    worst = 0.0
    for mesh in meshes:
        for k in (1, 2, 3):
            for chunk in element_chunks(mesh, k):
                k_mats = ChunkOperators(chunk, boost=6).stiffness(np.ones(len(chunk.elements)))
                for k_mat, d_const in zip(k_mats, chunk.interpolate(one, boost=6)):
                    worst = max(worst, float(np.abs(k_mat @ d_const).max()
                                             / np.abs(k_mat).max()))
    kernel_ok = worst <= 1e-10

    # eliminated systems of the coarse meshes: CG must run SPD-clean and
    # match the sparse direct solution
    gap = 0.0
    spd_ok = True
    cases = [(problem1(), build_mapped_tensor_mesh(4, *boundary_curves())),
             (problem2(), build_annulus_interface_mesh(4, 16))]
    for prob, mesh in cases:
        for k in (1, 2, 3):
            system = assemble(mesh, k, prob.coefficient())
            apply_dirichlet(system, prob.boundary)
            try:
                x_cg = solve(system, method="cg", tol=1e-14)
            except NotSPDError:
                spd_ok = False
                continue
            x_direct = solve(system, method="direct")
            gap = max(gap, float(np.abs(x_cg - x_direct).max()
                                 / np.abs(x_direct).max()))
    agree_ok = gap <= 1e-9
    ok = kernel_ok and spd_ok and agree_ok
    _line(ok, "stiffness kernel and SPD solves",
          f"worst constant-kernel defect {worst:.3e} (<= 1e-10) over "
          f"{len(meshes)} meshes, k=1..3; CG SPD-clean: {spd_ok}; "
          f"CG vs direct gap {gap:.3e} (<= 1e-9)")
    assert kernel_ok
    assert spd_ok
    assert agree_ok


def test_7_curved_quadrature_audit():
    disk_gap = audit_disk_area()
    disk_ok = disk_gap <= DISK_AUDIT_TOL
    table = audit_curved_elements()
    mono_worst = max(rel for _, _, rel in table["test1-element", BOOST])
    mono_ok = mono_worst <= CURVED_MONOMIAL_TOL
    sweeps = [(name, [max(rel for _, _, rel in table[name, boost]) for boost in (0, 2, 4, 6)])
              for name in ("test1-element", "quarter-disk")]
    sweep_ok = all(monotone_within_floor(errs) for _, errs in sweeps)
    ok = disk_ok and mono_ok and sweep_ok
    sweep_str = "; ".join(
        f"{name} " + "->".join(f"{e:.1e}" for e in errs)
        for name, errs in sweeps)
    _line(ok, "curved quadrature audit",
          f"disk area gap {disk_gap:.3e} (<= {DISK_AUDIT_TOL:.0e}), "
          f"curved monomials worst {mono_worst:.3e} "
          f"(<= {CURVED_MONOMIAL_TOL:.0e}), boost sweeps {sweep_str} "
          f"(floor {MONOTONICITY_FLOOR:.0e})")
    assert disk_ok
    assert mono_ok
    assert sweep_ok


def test_8_deterministic_outputs(curved_reports):
    reruns = {report.k: report for report in run_convergence(problem1(), (1, 2, 3), CURVED_NS)}
    same = all(reruns[k].to_csv() == curved_reports[k].to_csv()
               for k in (1, 2, 3))
    _line(same, "deterministic outputs",
          "repeated curved-boundary study reproduces all CSVs byte for byte"
          if same else "CSV outputs differ between repeated runs")
    assert same


def test_9_p_version_exact_curves_against_the_chord_wall():
    """test1 at n = 4, solved exactly so that only the discretization shows:
    exact curves take err_H1 from 4.5e-1 at k = 1 to 1.2e-5 at k = 8, 3.25-5.64x
    per degree; chords stay at 8.2e-2 from k = 3 on."""
    exact = [report.rows[0].err_h1 for report in
             run_convergence(problem1(), range(1, 9), (4,), solver_method="direct")]
    chords = [report.rows[0].err_h1 for report in
              run_convergence(problem1(), range(3, 7), (4,), straighten=True,
                              solver_method="direct")]
    cuts = [coarse / fine for coarse, fine in zip(exact, exact[1:])]
    exact_ok = min(cuts) >= 3.0
    chord_ok = all(abs(err / 8.2e-2 - 1.0) <= 0.1 for err in chords)
    _line(exact_ok and chord_ok, "p-version at n=4",
          f"exact-curve H1 {exact[0]:.2e} -> {exact[-1]:.2e} over k=1..8, cut per degree "
          f"{min(cuts):.2f}..{max(cuts):.2f} (>= 3); chord H1 at k=3..6 "
          + ", ".join(f"{err:.2e}" for err in chords) + " (within 10% of 8.2e-2)")
    assert exact_ok
    assert chord_ok


def test_10_general_polygons():
    """test1 on triangles and hexagons, both with curved sides: the patch
    on the straightened n = 4 mesh, then exact curves against chords on
    n = 8, 16, 32, held to the bounds of checks 3 and 4."""
    prob = problem1()
    patch_mesh = straighten_mesh(mixed_mesh(prob.mesh_factory(4)))
    patch = [_patch_error(patch_mesh, k) for k in (1, 2, 3, 4)]
    ns = (8, 16, 32)
    meshes = [mixed_mesh(prob.mesh_factory(n)) for n in ns]
    exact = {report.k: fit_rates(report)
             for report in run_convergence(prob, (2, 3), ns, meshes=meshes)}
    chords = {report.k: fit_rates(report)
              for report in run_convergence(prob, (2, 3), ns, meshes=meshes, straighten=True)}
    patch_ok = max(patch) <= PATCH_TOL
    exact_ok = all(exact[k].last_h1 >= k - 0.2 and exact[k].last_l2 >= k + 1 - 0.25
                   for k in (2, 3))
    chord_ok = all(chords[k].last_l2 <= 2.5 for k in (2, 3)) and chords[3].last_h1 <= 1.8
    _line(patch_ok and exact_ok and chord_ok, "general polygons",
          "patch k=1..4 " + ", ".join(f"{err:.1e}" for err in patch)
          + f" (<= {PATCH_TOL:.0e}); exact curves "
          + "; ".join(f"k={k}: H1 {exact[k].last_h1:.3f}, L2 {exact[k].last_l2:.3f}"
                      for k in (2, 3))
          + f"; chords L2 k=2 {chords[2].last_l2:.3f}, k=3 {chords[3].last_l2:.3f} (<= 2.50), "
          f"H1 k=3 {chords[3].last_h1:.3f} (<= 1.80)")
    assert patch_ok
    for k in (2, 3):
        assert exact[k].last_h1 >= k - 0.2
        assert exact[k].last_l2 >= k + 1 - 0.25
        assert chords[k].last_l2 <= 2.5
    assert chords[3].last_h1 <= 1.8
