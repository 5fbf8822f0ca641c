"""Virtual element solver for 2D diffusion on polygonal meshes with curved edges.

Elements may have boundary sides that follow a parametrized curve exactly,
so meshes fitted to a curved domain boundary or a curved material interface
carry no geometric consistency error.  The package provides the curve and
mesh machinery, quadrature on curved polygons, the local virtual element
operators, a sparse assembler with CG and dense solvers, and manufactured
problems with convergence reporting; ``curvem.cli`` wires it into a
command-line tool.
"""

from .analysis import (ConvergenceReport, ConvergenceRow, ManufacturedProblem,
                       RateFit, compute_errors, fit_rates, run_convergence,
                       run_patch_test, test1_boundary_curves, test1_problem,
                       test2_problem)
from .geometry import (BoundaryCurve, CurveSegment, GeometryError, arc_length,
                       circle_curve, curve_from_params, graph_curve)
from .mesh import (Edge, Element, ElementQuality, Mesh, MeshError,
                   MeshQualityReport, Vertex, build_annulus_interface_mesh,
                   build_mapped_tensor_mesh, straighten_mesh, validate_mesh)
from .mesh_io import (MeshFormatError, export_mesh, format_mesh, import_mesh,
                      parse_mesh)
from .quadrature import (QuadratureError, QuadratureRule1D, gauss_legendre,
                         gauss_lobatto, lagrange_values)
from .solver import (DofMap, LinearSystem, NotSPDError, SolverError,
                     apply_dirichlet, assemble, build_dof_map, solve)
from .vem import (Coefficient, ElementOperatorError, dof_count,
                  edge_dof_points, n_moments)

__version__ = "0.1.0"

__all__ = [
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
