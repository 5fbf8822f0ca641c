"""Manufactured problems, projection-based error norms and convergence rates.

Errors compare the exact solution with the H1 projection of the discrete
solution, elementwise: err_H1 is the broken H1 seminorm of
u_ex - Pi_nabla u_h relative to |u_ex|_1, err_L2 the L2 norm of the same
difference relative to ||u_ex||_0.  Both are integrated with boosted
Green-rule quadrature, so exactly curved elements are measured on the true
geometry, in slices of a few dozen elements that bound the memory of the
basis values.
"""

from __future__ import annotations

import os
import signal
import warnings
from contextlib import closing
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Iterator, Mapping

import numpy as np

from .geometry import BoundaryCurve, graph_curve
from .mesh import Mesh, build_annulus_interface_mesh, build_mapped_tensor_mesh, \
    straighten_mesh
from .quadrature import BOOST
from .solver import SolverError, apply_dirichlet, assemble, solve
from .vem import Coefficient, _for_label, global_dof_count


@dataclass(frozen=True)
class ManufacturedProblem:
    """An exact solution with matching data on a mesh family.

    ``solution`` and ``source`` are vectorized callables, or mappings from
    element label to callables when the solution has different smooth
    branches per subdomain.  ``solution(x, y)`` returns the exact solution
    with its gradient, (u, du/dx, du/dy), from one evaluation.
    ``boundary`` supplies the Dirichlet data; ``chord_boundary``, if set,
    is the data used after ``straighten_mesh`` (where former curve points
    moved onto chords).
    """

    name: str
    mesh_factory: Callable[[int], Mesh]
    diffusion: Mapping[int, float] | float
    solution: Mapping[int, Callable] | Callable
    source: Mapping[int, Callable] | Callable
    boundary: Callable
    chord_boundary: Callable | None = None

    def solution_for(self, label: int) -> Callable:
        return _for_label(self.solution, label, "exact solution")

    def coefficient(self) -> Coefficient:
        return Coefficient(diffusion=self.diffusion, source=self.source)


def test1_boundary_curves() -> tuple[BoundaryCurve, BoundaryCurve]:
    """The two sinusoidal graphs bounding the first test domain."""
    bottom = graph_curve("Gamma1", amplitude=1.0 / 20.0, frequency=np.pi)
    top = graph_curve("Gamma2", amplitude=1.0 / 20.0, frequency=3.0 * np.pi, offset=1.0)
    return bottom, top


def test1_problem() -> ManufacturedProblem:
    """Poisson problem between two sinusoidal graphs, solution vanishing on them.

    u = -(y - g1(x)) (y - g2(x)) (3 + sin(5x) sin(7y)) with
    g1 = sin(pi x)/20 and g2 = 1 + sin(3 pi x)/20; the source is the
    hand-differentiated -Laplacian(u).
    """
    bottom, top = test1_boundary_curves()

    def terms(x, y):
        """The factors of u = -(y - g1)(y - g2) w and their derivative parts.

        Each sine and cosine is evaluated once; every expression keeps the
        operation order of its hand-written formula.
        """
        s1, c1 = np.sin(np.pi * x), np.cos(np.pi * x)
        s3, c3 = np.sin(3.0 * np.pi * x), np.cos(3.0 * np.pi * x)
        s5, c5 = np.sin(5.0 * x), np.cos(5.0 * x)
        s7, c7 = np.sin(7.0 * y), np.cos(7.0 * y)
        g1, g2 = s1 / 20.0, 1.0 + s3 / 20.0
        dg1, dg2 = np.pi * c1 / 20.0, 3.0 * np.pi * c3 / 20.0
        below, above = y - g1, y - g2
        return SimpleNamespace(
            s1=s1, s3=s3, s5=s5, s7=s7, dg1=dg1, dg2=dg2, below=below, above=above,
            w=3.0 + s5 * s7, wx=5.0 * c5 * s7, wy=7.0 * s5 * c7,
            px=-dg1 * above - dg2 * below, py=2.0 * y - g1 - g2)

    def exact(x, y):
        t = terms(x, y)
        return -t.below * t.above * t.w

    def solution(x, y):
        t = terms(x, y)
        p = t.below * t.above
        return -p * t.w, -(t.px * t.w + p * t.wx), -(t.py * t.w + p * t.wy)

    def source(x, y):
        # f = -lap(u) = lap(p w) with p = (y - g1)(y - g2)
        t = terms(x, y)
        p = t.below * t.above
        ddg1 = -np.pi ** 2 * t.s1 / 20.0
        ddg2 = -9.0 * np.pi ** 2 * t.s3 / 20.0
        pxx = -ddg1 * t.above - ddg2 * t.below + 2.0 * t.dg1 * t.dg2
        lap_w = -74.0 * t.s5 * t.s7
        return (pxx + 2.0) * t.w + 2.0 * (t.px * t.wx + t.py * t.wy) \
            + p * lap_w

    def chord_boundary(x, y):
        # exact values on the fixed lateral sides, zero on the chords that
        # replaced the curved top and bottom
        x = np.asarray(x, float)
        lateral = (x < 1e-9) | (x > 1.0 - 1e-9)
        return np.where(lateral, exact(x, y), 0.0)

    return ManufacturedProblem(
        name="test1",
        mesh_factory=lambda n: build_mapped_tensor_mesh(n, bottom, top),
        diffusion=1.0, solution=solution, source=source,
        boundary=exact, chord_boundary=chord_boundary)


def test2_problem() -> ManufacturedProblem:
    """Interface problem on the unit disk, diffusion 5 outside r = 1/2, 1 inside.

    The radially symmetric exact solution is C1-matched across the
    interface and vanishes on the unit circle; the source is piecewise
    constant.
    """
    log2 = float(np.log(2.0))

    def outer(x, y):
        r2 = x * x + y * y
        factor = -0.1 - 0.1 / r2
        return -r2 / 20.0 - np.log(r2) / 20.0 + 1.0 / 20.0, factor * x, factor * y

    def inner(x, y):
        r2 = x * x + y * y
        return -1.25 * r2 + 0.35 + log2 / 10.0, -2.5 * x, -2.5 * y

    def zero(x, y):
        return np.zeros(np.shape(x))

    return ManufacturedProblem(
        name="test2",
        mesh_factory=lambda n: build_annulus_interface_mesh(n, 4 * n),
        diffusion={1: 5.0, 2: 1.0},
        solution={1: outer, 2: inner},
        source={1: lambda x, y: np.ones(np.shape(x)),
                2: lambda x, y: np.full(np.shape(x), 5.0)},
        boundary=zero)


def compute_errors(mesh: Mesh, k: int, solution: np.ndarray,
                   problem: ManufacturedProblem, system,
                   boost: int = BOOST) -> tuple[float, float]:
    """Relative H1-seminorm and L2 errors of u_ex - Pi_nabla u_h.

    Integrated elementwise at degree 2k+2 (plus the curved-side boost),
    one slice of a chunk of like elements at a time
    (``ElementChunk.slices``), with the projectors of the assembled
    ``system``.  The slices bound the memory of the rule's basis values;
    each element's terms are the same bits in a slice of any size.
    """
    # per element: |grad e|^2, |grad u|^2, e^2, u^2 integrated
    parts = np.empty((4, len(mesh.labels)))
    for block in system.blocks:
        # the rule is three (E, Q) arrays; the basis values, three of
        # (E, Q, dim), are built one slice at a time
        rule = block.chunk.rule(k + 2, boost)
        for rows, chunk in block.chunk.slices():
            coeffs = block.pi_nabla[rows] @ solution[chunk.dofs][..., None]
            x, y, w = (a[rows] for a in rule)
            vals, gxb, gyb = chunk.basis_grad(x, y)
            uh = (vals @ coeffs)[..., 0]
            uhx, uhy = (gxb @ coeffs)[..., 0], (gyb @ coeffs)[..., 0]
            ue, uex, uey = chunk.by_label(problem.solution_for, x, y)
            parts[:, chunk.elements] = [np.vecdot(w, (uex - uhx) ** 2 + (uey - uhy) ** 2),
                                        np.vecdot(w, uex ** 2 + uey ** 2),
                                        np.vecdot(w, (ue - uh) ** 2),
                                        np.vecdot(w, ue ** 2)]
    # running sums in element order, as a loop over elements adds them
    num_h1, den_h1, num_l2, den_l2 = np.add.accumulate(parts, axis=1)[:, -1]
    return float(np.sqrt(num_h1 / den_h1)), float(np.sqrt(num_l2 / den_l2))


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    h: float
    n_dof: int
    err_h1: float
    err_l2: float


@dataclass(frozen=True)
class RateFit:
    """Least-squares slopes plus the rate of each refinement interval."""

    lsq_h1: float
    lsq_l2: float
    pairwise_h1: list[float]
    pairwise_l2: list[float]

    @property
    def last_h1(self) -> float:
        return self.pairwise_h1[-1]

    @property
    def last_l2(self) -> float:
        return self.pairwise_l2[-1]


@dataclass
class ConvergenceReport:
    problem: str
    k: int
    rows: list[ConvergenceRow]

    def to_csv(self) -> str:
        """Deterministic CSV with per-interval rates."""
        lines = ["n,h,n_dof,err_h1,err_l2,rate_h1,rate_l2"]
        fit = fit_rates(self)
        for i, row in enumerate(self.rows):
            rate_h1 = repr(fit.pairwise_h1[i - 1]) if i else ""
            rate_l2 = repr(fit.pairwise_l2[i - 1]) if i else ""
            lines.append(f"{row.n},{row.h!r},{row.n_dof},{row.err_h1!r},"
                         f"{row.err_l2!r},{rate_h1},{rate_l2}")
        return "\n".join(lines) + "\n"


def fit_rates(report: ConvergenceReport) -> RateFit:
    """Convergence rates from a report's error columns.

    Pairwise rates are log(e_i/e_{i-1}) / log(h_i/h_{i-1}); the global
    slope is the least-squares fit of log(err) against log(h).
    """
    h = np.array([row.h for row in report.rows])
    if len(h) < 2:
        raise ValueError("need at least two refinements to fit rates")
    rates = []
    for errs in ([row.err_h1 for row in report.rows],
                 [row.err_l2 for row in report.rows]):
        e = np.array(errs)
        # two levels with equal h give NaN or infinite rates, which the
        # caller reports as rates; they are not warnings
        with np.errstate(divide="ignore", invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", np.exceptions.RankWarning)
            pairwise = [float(r) for r in np.log(e[1:] / e[:-1]) / np.log(h[1:] / h[:-1])]
            slope = float(np.polyfit(np.log(h), np.log(e), 1)[0])
        rates.append((slope, pairwise))
    return RateFit(lsq_h1=rates[0][0], lsq_l2=rates[1][0],
                   pairwise_h1=rates[0][1], pairwise_l2=rates[1][1])


# The level solver of the study a helper process serves; set only in helpers,
# by _adopt_levels, from the parent's object that the fork carried over.
_adopted_levels = None


def _adopt_levels(solve_level: Callable) -> None:
    """Start a helper: keep the level solver; an interrupt is the parent's
    to handle, which then cancels and joins its helpers."""
    global _adopted_levels
    _adopted_levels = solve_level
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _solve_adopted(*level):
    return _adopted_levels(*level)


def _run_levels(solve_level: Callable, levels: list[tuple], weights: list,
                names: list[str]) -> Iterator:
    """Yield ``solve_level(*level)`` for each of ``levels``, in their order.

    The levels are independent solves, so they run side by side: this
    process solves the heaviest (largest of ``weights``) itself and hands
    the rest, heaviest first, to forked helper processes, one per usable
    CPU beyond the first and at most one per other level.  The helpers get
    ``solve_level`` and all it reads (problem callables and meshes, which
    cannot be pickled) by fork inheritance; only the ``levels`` tuples go
    out and results come back.  With no CPU to spare, where fork is
    missing, or inside a daemon process (which may not have children),
    every level runs here, in order.

    The first level, in order, that fails raises its exception when it is
    reached, after every result before it.  A helper that dies (killed, or
    out of memory) fails every level that had not come back, each with a
    ``SolverError`` naming the level by its entry of ``names``.  Levels not
    yet started are then cancelled; every helper is joined when the
    generator ends or is closed.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    helpers = min(len(affinity(0)) - 1 if affinity else 0, len(levels) - 1)
    if helpers > 0:
        import multiprocessing
        if ("fork" not in multiprocessing.get_all_start_methods()
                or multiprocessing.current_process().daemon):
            helpers = 0
    if helpers <= 0:
        for level in levels:
            yield solve_level(*level)
        return
    from concurrent.futures import Future
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    heaviest_first = sorted(range(len(levels)), key=lambda i: -weights[i])
    pool = ProcessPoolExecutor(helpers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_adopt_levels, initargs=(solve_level,))
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns on a fork beside other OS threads, as OpenBLAS's.
            # Helpers stay safe: the pool forks them all here, before its own thread
            # starts, and OpenBLAS joins its threads before a fork (pthread_atfork).
            warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded, "
                                    r"use of fork\(\) may lead to deadlocks", DeprecationWarning)
            outcomes = {i: pool.submit(_solve_adopted, *levels[i]) for i in heaviest_first[1:]}
        own = outcomes[heaviest_first[0]] = Future()
        try:
            own.set_result(solve_level(*levels[heaviest_first[0]]))
        except Exception as exc:  # raised when its level is reached
            own.set_exception(exc)
        for i in range(len(levels)):
            try:
                result = outcomes[i].result()
            except BrokenProcessPool as exc:
                raise SolverError(f"level {names[i]} was not solved: a helper process "
                                  f"died ({exc})") from None
            yield result
    finally:
        pool.shutdown(cancel_futures=True)


def _convergence_reports(problem: ManufacturedProblem, ks, ns, *, meshes=None,
                         straighten: bool = False,
                         solver_method: str = "cg") -> Iterator[ConvergenceReport]:
    """Yield ``run_convergence``'s report for each k of ``ks``, in order.

    Every (k, level) pair is one level of a single ``_run_levels`` map, so
    the levels of all k run side by side, weighted by their DoF counts.
    """
    if meshes is not None and len(meshes) != len(ns):
        raise ValueError("meshes and ns must have matching lengths")
    boundary = problem.boundary
    if straighten and problem.chord_boundary is not None:
        boundary = problem.chord_boundary
    if meshes is None:
        meshes = [problem.mesh_factory(n) for n in ns]
    if straighten:
        meshes = [straighten_mesh(mesh) if mesh.edge_curved.any() else mesh
                  for mesh in meshes]

    def solve_level(k, level):
        mesh = meshes[level]
        system = assemble(mesh, k, problem.coefficient())
        apply_dirichlet(system, boundary)
        solution = solve(system, method=solver_method)
        err_h1, err_l2 = compute_errors(mesh, k, solution, problem, system=system)
        return ConvergenceRow(n=ns[level], h=mesh.h, n_dof=system.dof_map.total,
                              err_h1=err_h1, err_l2=err_l2)

    levels = [(k, level) for k in ks for level in range(len(ns))]
    weights = [global_dof_count(meshes[level], k) for k, level in levels]
    names = [f"k={k}, n={ns[level]}" for k, level in levels]
    name = problem.name + ("-straight" if straighten else "")
    with closing(_run_levels(solve_level, levels, weights, names)) as rows:
        for k in ks:
            yield ConvergenceReport(problem=name, k=k, rows=[next(rows) for _ in ns])


def run_convergence(problem: ManufacturedProblem, k: int, ns, *, meshes=None,
                    straighten: bool = False, solver_method: str = "cg") -> ConvergenceReport:
    """Solve the problem over a mesh family and collect errors per level.

    Meshes come from the problem's factory at each level in ``ns`` unless a
    prebuilt list is passed in ``meshes``.  With ``straighten=True`` every
    mesh is reduced to its chord polygon before solving (the exact solution
    and error norms are unchanged), using the problem's chord boundary data
    if it defines any; a mesh without curved edges is already its own chord
    polygon and is used as it is.  The levels are solved side by side, as
    ``_run_levels`` describes.
    """
    (report,) = _convergence_reports(problem, (k,), ns, meshes=meshes,
                                     straighten=straighten, solver_method=solver_method)
    return report


_PATCH_POLYNOMIALS = {
    1: (lambda x, y: 2.0 * x - 3.0 * y + 1.0,
        lambda x, y: np.zeros(np.shape(x))),
    2: (lambda x, y: x * x + 2.0 * y * y - x * y + x,
        lambda x, y: np.full(np.shape(x), -6.0)),
    3: (lambda x, y: x ** 3 - 3.0 * x * y * y + y ** 3 + x * x,
        lambda x, y: -(6.0 * y + 2.0)),
    4: (lambda x, y: x ** 4 + y ** 4 - 3.0 * x * x * y * y + x * y,
        lambda x, y: -(6.0 * x * x + 6.0 * y * y)),
}


def _patch_errors(ks, ns, *, solver_method: str = "direct") -> Iterator[float]:
    """Yield ``run_patch_test``'s error for each (k, n) of ``ks`` x ``ns``,
    in that order, from one ``_run_levels`` map over those levels."""
    for k in ks:
        if k not in _PATCH_POLYNOMIALS:
            raise ValueError(f"no patch polynomial for k={k}")
    bottom, top = test1_boundary_curves()
    meshes = {n: straighten_mesh(build_mapped_tensor_mesh(n, bottom, top)) for n in ns}

    def solve_level(k, n):
        u, f = _PATCH_POLYNOMIALS[k]
        system = assemble(meshes[n], k, Coefficient(diffusion=1.0, source=f))
        apply_dirichlet(system, u)
        solution = solve(system, method=solver_method)
        reference = np.zeros(system.dof_map.total)
        for block in system.blocks:
            reference[block.chunk.dofs] = block.chunk.interpolate(u)
        scale = float(np.max(np.abs(reference)))
        return float(np.max(np.abs(solution - reference))) / scale

    levels = [(k, n) for k in ks for n in ns]
    yield from _run_levels(solve_level, levels,
                           [global_dof_count(meshes[n], k) for k, n in levels],
                           [f"k={k}, n={n}" for k, n in levels])


def run_patch_test(k: int, n: int = 2, solver_method: str = "direct") -> float:
    """Max relative DoF error when the exact solution is a degree-k polynomial.

    Runs on a straightened mapped mesh (general quadrilaterals), where the
    discrete space contains P_k and the scheme must reproduce it to solver
    accuracy.
    """
    (err,) = _patch_errors((k,), (n,), solver_method=solver_method)
    return err
