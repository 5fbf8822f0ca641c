"""The public names of the package and what importing it loads."""

import os
import subprocess
import sys
from pathlib import Path

import curvem

# sorted, as ``sorted(curvem.__all__)`` lists them
PUBLIC_NAMES = [
    "BoundaryCurve", "Coefficient", "ConvergenceReport", "ConvergenceRow",
    "CurveSegment", "DofMap", "Edge", "Element", "ElementOperatorError",
    "ElementQuality", "GeometryError", "LinearSystem", "ManufacturedProblem",
    "Mesh", "MeshError", "MeshFormatError", "MeshQualityReport", "NotSPDError",
    "QuadratureError", "QuadratureRule1D", "RateFit",
    "SolverError", "Vertex", "apply_dirichlet", "arc_length", "assemble",
    "build_annulus_interface_mesh", "build_dof_map", "build_mapped_tensor_mesh",
    "circle_curve", "compute_errors", "curve_from_params", "dof_count",
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
    assert len(PUBLIC_NAMES) == 52
    assert sorted(curvem.__all__) == PUBLIC_NAMES


# scipy modules that only the direct solver may load, on first use
HEAVY_MODULES = ["scipy.optimize", "scipy.integrate", "scipy.linalg", "scipy.special",
                 "scipy.sparse.linalg"]


def test_importing_the_cli_loads_no_heavy_scipy_module():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = ("import sys, curvem.cli; "
            f"print([m for m in {HEAVY_MODULES!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
