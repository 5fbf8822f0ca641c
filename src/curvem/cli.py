"""Command-line driver: convergence experiments, the patch test, mesh checks.

Exit codes: 0 success, 1 a patch level above ``PATCH_TOL``, 2 configuration
(such as a repeated ``--k`` or ``--n`` value, or ``--mesh`` files of equal
mesh size), file-parse or output-write errors, 3 mesh conformity/quality
failures (such as a vertex on no edge) and elements whose local operators
cannot be built (a label without problem data, a singular projector), 4
solver failures, including a level helper process that dies.  A
convergence run reports its rates; it does not judge them.

Each ``curvem run`` experiment has its own argparse parser, which takes
only the options the experiment reads (``curvem run EXP --help`` lists
them).  Any other flag, a flag before the experiment name, an abbreviated
flag or a bad value exits 2 before any mesh is built or any output is
written:

    --k --n --solver --out  test1-curved, test1-straight, test2, patch
    --mesh --rho            test1-curved, test1-straight, test2

``--mesh`` replaces the generated meshes of ``--n``, so giving both exits 2 too.

Outputs (CSV tables plus a plain-text summary) are deterministic, so a
repeated run reproduces files byte for byte, whether a study's levels run
in this process or side by side in forked helpers (``analysis.run_convergence``).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import closing
from dataclasses import asdict, dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .analysis import (fit_rates, run_convergence, run_patch_test, test1_problem,
                       test2_problem)
from .geometry import GeometryError
from .mesh import MeshError, straighten_mesh, validate_mesh
from .mesh_io import MeshFormatError, import_mesh
from .quadrature import QuadratureError
from .solver import SolverError
from .vem import ElementOperatorError

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_CONFIG = 2
EXIT_MESH = 3
EXIT_SOLVER = 4

# each experiment and the RunConfig defaults it overrides
EXPERIMENTS = {"test1-curved": {}, "test1-straight": {},
               "test2": {"n_list": (2, 4, 8, 16), "rho": 0.03},
               "patch": {"n_list": (2,), "solver": "direct"}}

PATCH_TOL = 1e-9


class ConfigError(Exception):
    """Raised for unknown or unread options and malformed option values."""


class OutputError(Exception):
    """Raised when the output directory or a file in it cannot be written."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved options of one ``curvem run``; ``EXPERIMENTS`` overrides defaults."""

    experiment: str
    k_list: tuple[int, ...] = (1, 2, 3)
    n_list: tuple[int, ...] = (4, 8, 16, 32)
    mesh_files: tuple[str, ...] = ()
    rho: float = 0.05
    solver: str = "cg"
    out_dir: str = "curvem-out"


def _distinct_ints(low: int, high: int | None = None):
    """The ``type=`` of a comma-separated list of distinct integers in [low, high]."""
    need = f"be at least {low}" if high is None else f"lie in {low}..{high}"

    def parse(text: str) -> tuple[int, ...]:
        try:
            values = tuple(int(tok) for tok in text.split(",") if tok.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a comma-separated list of integers: {text!r}") from None
        if (not values or min(values) < low or (high is not None and max(values) > high)
                or len(set(values)) < len(values)):
            raise argparse.ArgumentTypeError(f"must {need}, each once, got {values!r}")
        return values
    return parse


def _rho(text: str) -> float:
    """The ``type=`` of ``--rho``: a number in (0, 0.5]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 < value <= 0.5:
        raise argparse.ArgumentTypeError(f"must lie in (0, 0.5], got {value!r}")
    return value


class _ConfigParser(argparse.ArgumentParser):
    """A parser whose errors are ``ConfigError``s that end in its usage line."""

    def error(self, message):
        raise ConfigError(f"{message}\n{self.format_usage().rstrip()}")


class _ExperimentParser(_ConfigParser):
    """The parser of one experiment: an argument it does not read is an error
    of this parser, whose usage line lists what the experiment reads."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _add_experiment(experiments, experiment: str) -> None:
    """Register ``experiment``'s parser: the options it reads, with the
    defaults of its RunConfig."""
    parser = experiments.add_parser(experiment, allow_abbrev=False,
                                    formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    parser.set_defaults(**asdict(RunConfig(experiment, **EXPERIMENTS[experiment])))
    parser.add_argument("--k", dest="k_list", type=_distinct_ints(1, 4), metavar="K,...",
                        help="comma-separated polynomial degrees")
    # test2's disk mesh has n rings on each side of the interface circle,
    # and its generator takes at least two
    least = 2 if experiment == "test2" else 1
    levels = parser.add_mutually_exclusive_group()
    levels.add_argument("--n", dest="n_list", type=_distinct_ints(least), metavar="N,...",
                        help="comma-separated refinement levels")
    if experiment != "patch":
        levels.add_argument("--mesh", dest="mesh_files", nargs="+", metavar="FILE",
                            help="mesh files instead of generated meshes")
        parser.add_argument("--rho", type=_rho, help="shape-regularity parameter")
    parser.add_argument("--solver", choices=("cg", "direct"), help="linear solver")
    parser.add_argument("--out", dest="out_dir", metavar="DIR", help="output directory")


def parse_config(args: argparse.Namespace) -> RunConfig:
    """The RunConfig of a parsed ``curvem run`` command line."""
    values = {name: value for name, value in vars(args).items() if name != "command"}
    return RunConfig(**values | {"mesh_files": tuple(values["mesh_files"])})


def _output_dir(config: RunConfig) -> Path:
    """The run's output directory, created before any work is done."""
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(exc) from None
    return out


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OutputError(exc) from None


# ---------------------------------------------------------------------------
# experiments


def _load_meshes(config: RunConfig, problem):
    if config.mesh_files:
        meshes = [import_mesh(path) for path in config.mesh_files]
        ns = tuple(range(1, len(meshes) + 1))
        first = {}  # the first file of each mesh size
        for i, mesh in enumerate(meshes):
            if (j := first.setdefault(mesh.h, i)) != i:
                raise ConfigError(f"{config.mesh_files[j]} and {config.mesh_files[i]} both have "
                                  f"h = {mesh.h!r}; rates need meshes of distinct sizes")
    else:
        meshes = [problem.mesh_factory(n) for n in config.n_list]
        ns = config.n_list
    return ns, meshes


def _validate_meshes(meshes, ns, rho: float) -> list[str]:
    problems = []
    for n, mesh in zip(ns, meshes):
        report = validate_mesh(mesh, rho)
        if not report.ok:
            bad = np.flatnonzero(~report.elements["ok"])
            problems.append(
                f"mesh n={n}: {len(bad)} elements below rho={rho} "
                f"(worst edge ratio {report.worst_edge_ratio:.4f}, "
                f"worst star ratio {report.worst_star_ratio:.4f})")
    return problems


def _run_convergence_experiment(config: RunConfig) -> int:
    problem = test2_problem() if config.experiment == "test2" else test1_problem()
    straighten = config.experiment == "test1-straight"
    ns, meshes = _load_meshes(config, problem)
    if len(meshes) < 2:
        raise ConfigError(f"{config.experiment} fits convergence rates, which needs at "
                          f"least two meshes, got {len(meshes)}")
    if straighten:
        meshes = [straighten_mesh(m) for m in meshes]
    mesh_problems = _validate_meshes(meshes, ns, config.rho)
    if mesh_problems:
        print("\n".join(mesh_problems), file=sys.stderr)
        return EXIT_MESH

    out = _output_dir(config)
    summary = [f"experiment {config.experiment}",
               f"meshes: {config.mesh_files or ('generated, n=' + str(list(ns)))}"]
    reports = run_convergence(problem, config.k_list, ns, meshes=meshes,
                              straighten=straighten, solver_method=config.solver)
    with closing(reports):
        for report in reports:
            k, fit = report.k, fit_rates(report)
            _write(out / f"{config.experiment}_k{k}.csv", report.to_csv(fit))
            summary.append(f"k = {k}")
            summary.append("  n        h     n_dof       err_H1       err_L2")
            for row in report.rows:
                summary.append(f"  {row.n:<4d} {row.h:8.5f} {row.n_dof:7d} "
                               f"{row.err_h1:12.5e} {row.err_l2:12.5e}")
            summary.append(f"  last-interval rates: H1 {fit.last_h1:.3f}, "
                           f"L2 {fit.last_l2:.3f}; least-squares: "
                           f"H1 {fit.lsq_h1:.3f}, L2 {fit.lsq_l2:.3f}")
    _write(out / "summary.txt", "\n".join(summary) + "\n")
    print("\n".join(summary))
    return EXIT_OK


def _run_patch(config: RunConfig) -> int:
    out = _output_dir(config)
    csv_lines = ["k,n,max_rel_dof_err,status"]
    summary = []
    ok = True
    errors = run_patch_test(config.k_list, config.n_list, solver_method=config.solver)
    with closing(errors):
        for (k, n), err in zip(product(config.k_list, config.n_list), errors):
            good = err <= PATCH_TOL
            ok &= good
            csv_lines.append(f"{k},{n},{err!r},{'pass' if good else 'FAIL'}")
            summary.append(f"patch test k={k} (n={n}): max relative dof error {err:.3e} "
                           f"-> {'pass' if good else 'FAIL'} (tolerance {PATCH_TOL:.0e})")
    _write(out / "patch.csv", "\n".join(csv_lines) + "\n")
    _write(out / "summary.txt", "\n".join(summary) + "\n")
    print("\n".join(summary))
    return EXIT_OK if ok else EXIT_THRESHOLD


def run(config: RunConfig) -> int:
    """Execute one experiment described by a resolved RunConfig."""
    if config.experiment == "patch":
        return _run_patch(config)
    return _run_convergence_experiment(config)


def _cmd_validate(args) -> int:
    rho = args.rho  # checked by the parser
    mesh = import_mesh(args.meshfile)
    report = validate_mesh(mesh, rho)
    bad = np.flatnonzero(~report.elements["ok"])
    print(f"{args.meshfile}: {len(mesh.labels)} elements, "
          f"worst edge ratio {report.worst_edge_ratio:.4f}, "
          f"worst star ratio {report.worst_star_ratio:.4f} (rho = {rho})")
    if len(bad):
        print(f"{len(bad)} of {len(mesh.labels)} elements below rho")
    listed = bad[:20]
    for p, q in zip(listed.tolist(), report.elements[listed]):
        print(f"element {p}: edge ratio {q['edge_ratio']:.4f}, star ratio {q['star_ratio']:.4f}")
    if len(bad) > len(listed):
        print(f"... {len(bad) - len(listed)} more not listed")
    print("mesh quality: " + ("pass" if report.ok else "FAIL"))
    return EXIT_OK if report.ok else EXIT_MESH


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvem", allow_abbrev=False,
        description="Virtual element solver on polygonal meshes with curved edges")
    # the errors of every parser below the top one are config errors
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_ConfigParser)
    run_p = commands.add_parser("run", help="run one experiment", allow_abbrev=False)
    experiments = run_p.add_subparsers(dest="experiment", required=True,
                                       parser_class=_ExperimentParser)
    for experiment in EXPERIMENTS:
        _add_experiment(experiments, experiment)

    # not an experiment parser: argparse's top parser reports an unknown flag
    val_p = commands.add_parser("validate", help="check a mesh file", allow_abbrev=False)
    val_p.add_argument("meshfile")
    val_p.add_argument("--rho", required=True, type=_rho, help="shape-regularity parameter")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "validate":
            return _cmd_validate(args)
        return run(parse_config(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OutputError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MeshFormatError as exc:
        print(f"mesh file error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MeshError, GeometryError, QuadratureError, ElementOperatorError) as exc:
        print(f"mesh error: {exc}", file=sys.stderr)
        return EXIT_MESH
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
