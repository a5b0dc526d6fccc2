"""Flexural wave scattering by a clamped cavity in an infinite thin plate.

Penalized linear finite elements for the decomposed biharmonic plate-wave
problem (coupled Helmholtz / modified-Helmholtz fields) with a
Dirichlet-to-Neumann transparent boundary condition on a truncation
circle, plus the analytic circular-cavity series used as an accuracy
oracle.
"""

from .assembly import (BlockSystem, Method, ScalarMatrices, assemble_all,
                       build_system)
from .config import ScatterConfig
from .dtn import IncidentField, TbcMatrix, assemble_tbc, incident_load
from .geometry import (CavityShape, Circle, Ellipse, Kite, Mesh, cavity_point,
                       export_mesh, generate_mesh, generate_mesh_for_h,
                       import_mesh, refine, refine_nested)
from .postproc import (BoundaryTrace, ErrorReport, boundary_trace,
                       compute_errors, evaluate_at_points, exact_samples, fe_evaluator)
from .series import SeriesSolution
from .solve import SolutionField, recover_fields, solve_system
from .specfun import (ValueWithDerivative, bessel_j, bessel_k, bessel_y,
                      dtn_symbol_h, dtn_symbol_k, hankel1)

__all__ = [
    "BlockSystem", "Method", "ScalarMatrices", "assemble_all", "build_system",
    "ScatterConfig", "IncidentField", "TbcMatrix", "assemble_tbc",
    "incident_load", "CavityShape", "Circle", "Ellipse", "Kite", "Mesh",
    "cavity_point", "export_mesh", "generate_mesh", "generate_mesh_for_h",
    "import_mesh", "refine", "refine_nested", "BoundaryTrace", "ErrorReport", "boundary_trace",
    "compute_errors", "evaluate_at_points", "exact_samples", "fe_evaluator", "SeriesSolution",
    "SolutionField", "recover_fields", "solve_system", "ValueWithDerivative",
    "bessel_j", "bessel_k", "bessel_y", "dtn_symbol_h", "dtn_symbol_k",
    "hankel1",
]

__version__ = "0.1.0"
