"""The public names of the package and what importing it loads."""

import ast
import importlib
import importlib.util
import os
import re
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
    "QuadratureError", "RateFit", "SolverError", "Vertex", "apply_dirichlet", "assemble",
    "build_annulus_interface_mesh", "build_mapped_tensor_mesh",
    "circle_curve", "compute_errors", "export_mesh", "fit_rates", "format_mesh",
    "graph_curve", "import_mesh", "parse_mesh",
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
    assert len(PUBLIC_NAMES) == 41
    assert sorted(curvem.__all__) == PUBLIC_NAMES


# kernel helpers that no study step needs from the package root
KERNEL_NAMES = {
    "QuadratureRule1D": "quadrature", "gauss_legendre": "quadrature",
    "gauss_lobatto": "quadrature", "lagrange_values": "quadrature",
    "dof_count": "vem", "edge_dof_points": "vem", "n_moments": "vem",
    "build_dof_map": "solver", "arc_length": "geometry",
}


@pytest.mark.parametrize("name, module", sorted(KERNEL_NAMES.items()))
def test_kernel_helpers_live_in_their_modules_only(name, module):
    assert not hasattr(curvem, name)
    assert hasattr(importlib.import_module(f"curvem.{module}"), name)


SRC = Path(__file__).resolve().parents[1] / "src" / "curvem"


def imports_through_the_root(tree):
    """The ``import`` statements of ``tree`` that read the package root."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names
                      if alias.name == "curvem" or alias.name.startswith("curvem.")]
        elif isinstance(node, ast.ImportFrom):
            if (node.level, node.module) in ((0, "curvem"), (1, None)):
                found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_through_the_package_root(path):
    assert imports_through_the_root(ast.parse(path.read_text(encoding="utf-8"))) == []


README = Path(__file__).resolve().parents[1] / "README.md"
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                           re.MULTILINE | re.DOTALL)


def test_readme_has_its_two_examples():
    assert len(README_BLOCKS) == 2


@pytest.mark.parametrize("block", README_BLOCKS, ids=["assemble-and-solve", "convergence"])
def test_readme_example_runs_as_written(block):
    imported = [alias.name for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "curvem"
                for alias in node.names]
    assert imported
    assert [name for name in imported if name not in curvem.__all__] == []
    exec(compile(block, str(README), "exec"), {})


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
    assert ("config error: argument experiment: invalid choice: 'quadrature-audit'"
            in capsys.readouterr().err)
    with pytest.raises(SystemExit) as exc:
        main(["quadrature-audit"])
    assert exc.value.code == EXIT_CONFIG
    assert "invalid choice: 'quadrature-audit'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
