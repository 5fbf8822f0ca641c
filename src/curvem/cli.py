"""Command-line driver: convergence experiments, the patch test, mesh checks.

Exit codes: 0 success, 1 threshold violation, 2 configuration (such as a
repeated ``--k`` or ``--n`` value, or ``--mesh`` files of equal mesh size),
file-parse or output-write errors, 3 mesh conformity/quality failures (such
as a vertex on no edge) and elements whose local operators cannot be built
(a label without problem data, a singular projector), 4 solver failures,
including a level helper process that dies.

Each ``curvem run`` experiment accepts only the options it reads.  Any other,
as a flag or as a key of the ``key = value`` file named by ``--config``
(``min_rate_h1 = 1.5`` for ``--min-rate-h1``; flags override the file), exits
2 before any mesh is built or any output is written:

    --k --n --solver                      test1-curved, test1-straight, test2, patch
    --mesh --rho --{min,max}-rate-{h1,l2} test1-curved, test1-straight, test2
    --out                                 every experiment

``--mesh`` replaces the generated meshes of ``--n``, so giving both exits 2 too.

Outputs (CSV tables plus a plain-text summary) are deterministic, so a
repeated run reproduces files byte for byte, whether a study's levels run
in this process or side by side in forked helpers (``analysis.run_convergence``).
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Callable
from contextlib import closing
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .analysis import (fit_rates, run_convergence, run_patch_test, test1_problem,
                       test2_problem)
from .geometry import GeometryError
from .mesh import MeshError, straighten_mesh, validate_mesh
from .mesh_io import MeshFormatError, _lines, _read_text, import_mesh
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
_CONVERGENCE = ("test1-curved", "test1-straight", "test2")

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
    min_rate_h1: float | None = None
    min_rate_l2: float | None = None
    max_rate_h1: float | None = None
    max_rate_l2: float | None = None


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"bad {what} list {text!r}") from None
    if not values:
        raise ConfigError(f"empty {what} list")
    return values


def _parse_value(cast):
    def parse(text: str, what: str):
        try:
            return cast(text)
        except (TypeError, ValueError):
            raise ConfigError(f"bad {what} value {text!r}") from None
    return parse


@dataclass(frozen=True)
class _Option:
    field: str  # of RunConfig
    parse: Callable[[str, str], object]  # (text, option name) -> value or ConfigError
    experiments: tuple[str, ...]  # the experiments that read it
    help: str
    ok: Callable[[object], bool] = lambda value: True
    need: str = ""  # what ``ok`` asks of a value, for the error message
    nargs: str | None = None


_SOLVES = _CONVERGENCE + ("patch",)
_FLOAT, _TEXT = _parse_value(float), _parse_value(str)

# the flag is "--" + name with "-" for "_", the config-file key is the name;
# a file value of an option with nargs is a whitespace-separated list
_OPTIONS = {
    "k": _Option("k_list", _parse_int_list, _SOLVES, "comma-separated polynomial degrees",
                 lambda ks: all(1 <= k <= 4 for k in ks) and len(set(ks)) == len(ks),
                 "lie in 1..4, each once"),
    "n": _Option("n_list", _parse_int_list, _SOLVES, "comma-separated refinement levels",
                 lambda ns: min(ns) >= 1 and len(set(ns)) == len(ns), "be positive, each once"),
    "mesh": _Option("mesh_files", _parse_value(tuple), _CONVERGENCE,
                    "mesh files instead of generated meshes", nargs="+"),
    "rho": _Option("rho", _FLOAT, _CONVERGENCE, "shape-regularity parameter",
                   lambda rho: 0.0 < rho <= 0.5, "lie in (0, 0.5]"),
    "solver": _Option("solver", _TEXT, _SOLVES, "cg or direct",
                      lambda solver: solver in ("cg", "direct"), "be 'cg' or 'direct'"),
    "out": _Option("out_dir", _TEXT, tuple(EXPERIMENTS), "output directory"),
    "min_rate_h1": _Option("min_rate_h1", _FLOAT, _CONVERGENCE, "exit 1 below this H1 rate",
                           math.isfinite, "be finite"),
    "min_rate_l2": _Option("min_rate_l2", _FLOAT, _CONVERGENCE, "exit 1 below this L2 rate",
                           math.isfinite, "be finite"),
    "max_rate_h1": _Option("max_rate_h1", _FLOAT, _CONVERGENCE, "exit 1 above this H1 rate",
                           math.isfinite, "be finite"),
    "max_rate_l2": _Option("max_rate_l2", _FLOAT, _CONVERGENCE, "exit 1 above this L2 rate",
                           math.isfinite, "be finite"),
}


# the smallest level an experiment's generated meshes take, where it is more
# than 1: test2's disk mesh has n rings on each side of the interface
# circle, and its generator takes at least two
_LEAST_N = {"test2": 2}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _value(name: str, text, spelled: str):
    """The parsed value of option ``name``, which must pass its check; a
    failed check names the option as ``spelled``, its flag or file key."""
    option = _OPTIONS[name]
    value = option.parse(text, name)
    if not option.ok(value):
        raise ConfigError(f"{spelled} must {option.need}, got {value!r}")
    return value


def _read_config_file(path: str):
    """``(path:line prefix, key, text)`` of each ``key = value`` line (mesh_io's reader)."""
    try:
        text = _read_text(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    for ln, line in _lines(text):
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _OPTIONS:
            raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
        yield f"{path}:{ln}: ", key, value.split() if _OPTIONS[key].nargs else value


def parse_config(args: argparse.Namespace, unknown=()) -> RunConfig:
    """Resolve defaults, config file and command-line flags into a RunConfig.

    ``unknown`` holds the command-line arguments argparse did not recognize.
    """
    experiment = args.experiment
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}, "
                          f"choose from {', '.join(EXPERIMENTS)}")
    reads = [name for name, option in _OPTIONS.items() if experiment in option.experiments]
    if unknown:
        raise ConfigError(f"{experiment} does not read {' '.join(unknown)}; "
                          f"it reads {', '.join(map(_flag, reads))}")
    given = list(_read_config_file(args.config)) if args.config else []
    given += [("", name, text) for name in _OPTIONS if (text := getattr(args, name)) is not None]
    values = dict(EXPERIMENTS[experiment])
    spelled = {}  # each option given so far, as it was spelled
    for where, name, text in given:
        spell = str if where else _flag  # file lines name keys, the command line flags
        if name not in reads:
            raise ConfigError(f"{where}{experiment} does not read {spell(name)}; "
                              f"it reads {', '.join(map(spell, reads))}")
        spelled[name] = spell(name)
        if {"mesh", "n"} <= spelled.keys():
            raise ConfigError(f"{where}{experiment} takes {spelled['mesh']} or {spelled['n']}, "
                              f"not both: the mesh files replace the generated levels")
        try:
            values[_OPTIONS[name].field] = value = _value(name, text, spell(name))
        except ConfigError as exc:
            raise ConfigError(f"{where}{exc}") from None
        least = _LEAST_N.get(experiment, 1)
        if name == "n" and min(value) < least:
            raise ConfigError(f"{where}{experiment} needs {spell(name)} levels of at least "
                              f"{least}, got {value!r}")
    return RunConfig(experiment, **values)


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
    violations = []
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
            for label, value, bound in (
                    ("min_rate_h1", fit.last_h1, config.min_rate_h1),
                    ("min_rate_l2", fit.last_l2, config.min_rate_l2),
                    ("max_rate_h1", fit.last_h1, config.max_rate_h1),
                    ("max_rate_l2", fit.last_l2, config.max_rate_l2)):
                if bound is None:
                    continue
                # only a rate that satisfies the bound meets it; NaN meets none
                met = value >= bound if label.startswith("min") else value <= bound
                if not met:
                    violations.append(f"k={k}: {label}={bound} violated ({value:.3f})")
    if violations:
        summary.append("threshold violations:")
        summary.extend("  " + v for v in violations)
    else:
        summary.append("thresholds: none violated")
    _write(out / "summary.txt", "\n".join(summary) + "\n")
    print("\n".join(summary))
    return EXIT_THRESHOLD if violations else EXIT_OK


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
    rho = _value("rho", args.rho, "--rho")
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
        prog="curvem", description="Virtual element solver on polygonal meshes with curved edges")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("experiment", help=f"one of: {', '.join(EXPERIMENTS)}")
    run_p.add_argument("--config", help="flat key = value option file")
    for name, option in _OPTIONS.items():
        run_p.add_argument(_flag(name), dest=name, nargs=option.nargs,
                           help=f"{option.help} (read by {', '.join(option.experiments)})")

    val_p = sub.add_parser("validate", help="check a mesh file")
    val_p.add_argument("meshfile")
    val_p.add_argument("--rho", required=True, help=_OPTIONS["rho"].help)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    # an unknown flag of ``run`` is a config error that lists what the
    # experiment reads; ``validate`` keeps argparse's usage error
    args, unknown = parser.parse_known_args(argv)
    if unknown and args.command == "validate":
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        return run(parse_config(args, unknown))
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
