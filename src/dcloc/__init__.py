"""Location problems with attraction and repulsion sets.

A library for minimizing a weighted sum of distances to closed convex
attraction sets minus a weighted sum of distances to repulsion sets over a
convex constraint set, via a d.c. outer iteration with a generalized
Weiszfeld inner solver.
"""

from .geometry import (
    AxisBox,
    Ball,
    ConvexSet,
    DimensionMismatch,
    GeometryError,
    Halfspace,
    Singleton,
)
from .model import (
    ExistenceReport,
    ProblemInstance,
    SetGroup,
    ValidationError,
    WeightedSet,
    evaluate_objective,
    evaluate_objective_many,
    evaluate_split,
    existence_classify,
    validate_instance,
)
from .inner import (
    AttractionSummary,
    InnerConfig,
    InnerProblem,
    InnerResult,
    NotInConstraint,
    attraction_summary,
    dual_solve,
    phi,
    solve_inner,
    subgradient_solve,
    weiszfeld_map,
    weiszfeld_solve,
)
from .dca import (
    DcaConfig,
    SolveReport,
    criticality_residual,
    dca_solve,
    dca_step,
    multi_start_solve,
)
from .analysis import (
    PointClass,
    SolutionRay,
    SpecialInstance,
    UnboundedDomain,
    classify_point,
    solution_rays,
    solve_reduced_max,
    solve_special,
    uniqueness_check,
)
from .oracle import GridSpec, OracleResult, grid_search

__version__ = "0.1.0"
