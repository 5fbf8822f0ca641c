"""The public names of the package and what importing it loads."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import curvem
import curvem.cli
from curvem.cli import EXIT_CONFIG, main

# sorted, as ``sorted(curvem.__all__)`` lists them
PUBLIC_NAMES = [
    "BoundaryCurve", "Coefficient", "ConvergenceReport", "ConvergenceRow",
    "CurveSegment", "DofMap", "Edge", "Element", "ElementOperatorError",
    "GeometryError", "LinearSystem", "ManufacturedProblem",
    "Mesh", "MeshError", "MeshFormatError", "MeshQualityReport", "NotSPDError",
    "QuadratureError", "QuadratureRule1D", "RateFit",
    "SolverError", "Vertex", "apply_dirichlet", "arc_length", "assemble",
    "build_annulus_interface_mesh", "build_dof_map", "build_mapped_tensor_mesh",
    "circle_curve", "compute_errors", "dof_count",
    "edge_dof_points", "export_mesh", "fit_rates", "format_mesh",
    "gauss_legendre", "gauss_lobatto", "graph_curve",
    "import_mesh", "lagrange_values", "n_moments", "parse_mesh",
    "run_convergence", "run_patch_test", "solve",
    "straighten_mesh", "test1_boundary_curves", "test1_problem",
    "test2_problem", "validate_mesh",
]


def test_every_exported_name_resolves_once():
    assert len(set(curvem.__all__)) == len(curvem.__all__)
    missing = [name for name in curvem.__all__ if not hasattr(curvem, name)]
    assert missing == []


def test_public_api_is_pinned():
    # any change to the public API has to edit this list
    assert len(PUBLIC_NAMES) == 50
    assert sorted(curvem.__all__) == PUBLIC_NAMES


# scipy modules that only the direct solver may load, on first use
HEAVY_MODULES = ["scipy.optimize", "scipy.integrate", "scipy.linalg", "scipy.special",
                 "scipy.sparse.linalg"]


# the machinery of the forked level helpers, loaded only when a study has helpers
PROCESS_MODULES = ["multiprocessing", "concurrent.futures.process"]


def loaded_by_cli_import(modules):
    """Which of ``modules`` a fresh ``import curvem.cli`` loads."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = ("import sys, curvem.cli; "
            f"print([m for m in {modules!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip()


def test_importing_the_cli_loads_no_heavy_scipy_module():
    assert loaded_by_cli_import(HEAVY_MODULES) == "[]"


def test_importing_the_cli_loads_no_process_machinery():
    assert loaded_by_cli_import(PROCESS_MODULES) == "[]"


# what the package held of the quadrature audit, now in tests/_oracles.py
AUDIT_NAMES = ["random_star_polygon", "_monomials", "audit_polygon_exactness",
               "quarter_disk_mesh", "audit_disk_area", "audit_curved_elements",
               "monotone_within_floor", "POLYGON_AUDIT_TOL", "DISK_AUDIT_TOL",
               "CURVED_MONOMIAL_TOL", "MONOTONICITY_FLOOR", "_run_quadrature_audit",
               "polygon_integrate", "fan_integrate"]


def test_the_quadrature_audit_lives_in_the_tests():
    # no module to load, and none of its code in the CLI
    assert importlib.util.find_spec("curvem.reference") is None
    assert [name for name in AUDIT_NAMES if hasattr(curvem.cli, name)] == []


def test_the_quadrature_audit_is_no_command(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "quadrature-audit"]) == EXIT_CONFIG
    assert "config error: unknown experiment 'quadrature-audit'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["quadrature-audit"])
    assert exc.value.code == EXIT_CONFIG
    assert "invalid choice: 'quadrature-audit'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
