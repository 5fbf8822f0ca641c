"""Virtual element solver for 2D diffusion on polygonal meshes with curved edges.

Elements may have boundary sides that follow a parametrized curve exactly,
so meshes fitted to a curved domain boundary or a curved material interface
carry no geometric consistency error.  The package root exports what a
study drives, step by step: a manufactured problem, curves and a mesh, mesh
files, assembly and the solve, errors and rates, and the exceptions each
step raises.  Kernel helpers (Gauss rules, DoF counts, ``build_dof_map``,
arc lengths) are imported from their modules: ``curvem.quadrature``,
``curvem.vem``, ``curvem.solver`` and ``curvem.geometry``.
``curvem.cli`` wires the studies into a command-line tool.
"""

from .analysis import (ConvergenceReport, ConvergenceRow, ManufacturedProblem,
                       RateFit, compute_errors, fit_rates, run_convergence,
                       run_patch_test, test1_boundary_curves, test1_problem,
                       test2_problem)
from .geometry import (BoundaryCurve, CurveSegment, GeometryError, circle_curve,
                       graph_curve)
from .mesh import (Edge, Element, Mesh, MeshError, MeshQualityReport, Vertex,
                   build_annulus_interface_mesh, build_mapped_tensor_mesh,
                   straighten_mesh, validate_mesh)
from .mesh_io import (MeshFormatError, export_mesh, format_mesh, import_mesh,
                      parse_mesh)
from .quadrature import QuadratureError
from .solver import (DofMap, LinearSystem, NotSPDError, SolverError,
                     apply_dirichlet, assemble, solve)
from .vem import Coefficient, ElementOperatorError

__version__ = "0.1.0"

__all__ = [
    # problem
    "Coefficient", "ManufacturedProblem", "test1_boundary_curves", "test1_problem",
    "test2_problem",
    # curves and mesh
    "BoundaryCurve", "CurveSegment", "circle_curve", "graph_curve",
    "Edge", "Element", "Mesh", "Vertex", "build_annulus_interface_mesh",
    "build_mapped_tensor_mesh", "straighten_mesh", "validate_mesh", "MeshQualityReport",
    # mesh files
    "export_mesh", "format_mesh", "import_mesh", "parse_mesh",
    # assemble and solve
    "assemble", "apply_dirichlet", "solve", "LinearSystem", "DofMap",
    # errors and rates
    "compute_errors", "fit_rates", "run_convergence", "run_patch_test",
    "ConvergenceReport", "ConvergenceRow", "RateFit",
    # exceptions
    "GeometryError", "MeshError", "MeshFormatError", "QuadratureError",
    "ElementOperatorError", "SolverError", "NotSPDError",
]
