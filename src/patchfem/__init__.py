"""Locally adapted patch finite elements for 2D elliptic problems with a
discontinuous diffusion coefficient.

The mesh is a fixed structured triangulation of macro triangles (patches),
each split into four linear subtriangles whose inner nodes slide along the
patch edges. Where an interface crosses a patch, the crossing pins some of
the three edge-node parameters and a strategy chooses the rest so the split
resolves the interface without moving, adding, or removing any degrees of
freedom.
"""

from .adaptation import (
    AngleAudit,
    CutClass,
    PatchConfigs,
    RefinementRequired,
    adapt,
    classify_all,
    free_params_two_edges,
    free_params_vertex_edge,
    max_angle_audit,
    resolve_edge_params,
)
from .assembly import LinearSystem, assemble
from .geometry import DegenerateTriangle, QuadRule, interior_angles, triangle_area
from .levelset import Circle, HorizontalLine, TiltedLine
from .mesh import PatchMesh, build_structured_mesh, mesh_to_json
from .problems import (
    InsufficientData,
    ProblemSpec,
    circle_problem,
    convergence_rate,
    error_norms,
    horizontal_problem,
    tilted_problem,
)
from .runner import RunConfig, run_angles, run_convergence, run_single, run_sweep
from .solver import NonConvergence, SolveReport, cg_solve

__version__ = "0.1.0"
