"""Multiobjective simulation optimization with surrogate models.

Problems combine expensive vector-valued simulations with cheap algebraic
objectives and constraints over mixed design variables.  The solver embeds
designs into a unit latent cube, fits radial basis function surrogates to
the simulation outputs, and proposes batches of candidate designs through
a set of scalarizing acquisitions, each solved by a trust-region local
optimizer on the penalized surrogate problem.
"""

__version__ = "0.1.0"

from .acquisition import ScalarizationState, refresh, scalarize, select_start
from .embedding import EmbeddingPlan, build_plan, embed, extract
from .metrics import (
    ParetoArchive,
    hypervolume,
    nondominated_filter,
    pct_hv_improvement,
)
from .orchestrator import CheckpointError, MoopSolver, SolveResult, problem_fingerprint
from .problem import (
    AcquisitionSpec,
    ConstraintSpec,
    CustomEmbedder,
    DesignVariable,
    DuplicatePointError,
    EvalRecord,
    EvaluationDatabase,
    EvaluationError,
    Moop,
    MoopDefinition,
    MosoError,
    ObjectiveSpec,
    SimulationSpec,
    ValidationError,
    identity_constraint,
    identity_objective,
    linear_objective,
    sum_of_squares_constraint,
    sum_of_squares_objective,
    validate,
    variable_objective,
)
from .search import lhs_search
from .surrogate import RbfSurrogate, SurrogateError, TrustRegion, trust_region

__all__ = [
    "AcquisitionSpec",
    "CheckpointError",
    "ConstraintSpec",
    "CustomEmbedder",
    "DesignVariable",
    "DuplicatePointError",
    "EmbeddingPlan",
    "EvalRecord",
    "EvaluationDatabase",
    "EvaluationError",
    "Moop",
    "MoopDefinition",
    "MoopSolver",
    "MosoError",
    "ObjectiveSpec",
    "ParetoArchive",
    "RbfSurrogate",
    "ScalarizationState",
    "SimulationSpec",
    "SolveResult",
    "SurrogateError",
    "TrustRegion",
    "ValidationError",
    "build_plan",
    "embed",
    "extract",
    "hypervolume",
    "identity_constraint",
    "identity_objective",
    "lhs_search",
    "linear_objective",
    "nondominated_filter",
    "pct_hv_improvement",
    "problem_fingerprint",
    "refresh",
    "scalarize",
    "select_start",
    "sum_of_squares_constraint",
    "sum_of_squares_objective",
    "trust_region",
    "validate",
    "variable_objective",
    "__version__",
]
