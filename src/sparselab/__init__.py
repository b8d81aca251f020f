"""Greedy boosting versus l1 minimization on sparse recovery instances.

The package builds exactly-solvable designs on which componentwise L2
boosting provably never reaches the sparse truth even though the
restricted nullspace property guarantees recovery by l1 methods, and
ships the solvers and certifiers needed to demonstrate the contrast end
to end: a matching-pursuit engine with exact tie-break semantics, a
coordinate-descent lasso with a decaying penalty path, and enumerative
certifiers for cone, nullspace, isometry, spark, and uniqueness
properties.
"""

from .boosting import (
    BoostingConfig,
    BoostingState,
    iterate,
    run,
    select_index,
)
from .counterexample import (
    AnalyticState,
    InvariantViolation,
    SparseInstance,
    analytic_step,
    construct,
    equivalence_check,
)
from .io import (
    jsonable,
    read_matrix,
    read_vector,
    write_csv,
    write_instance,
    write_json,
    write_matrix,
    write_vector,
)
from .lasso import (
    PathPoint,
    basis_pursuit,
    kkt_residual,
    lambda_max,
    lasso,
    lasso_path,
)
from .linalg import nullspace
from .properties import (
    BudgetExceeded,
    RIPResult,
    RNUniformResult,
    RNVerdict,
    SparsityCertificate,
    UniqueSparsestResult,
    in_cone,
    rip_constant,
    rip_implies_rn_test,
    rn_check,
    rn_uniform,
    spark,
    spark_from_nullspace,
    unique_sparsest,
)
from .report import RecoveryReport, reproduce, verdict_failures

__version__ = "0.1.0"

__all__ = [
    "AnalyticState",
    "BoostingConfig",
    "BoostingState",
    "BudgetExceeded",
    "InvariantViolation",
    "PathPoint",
    "RIPResult",
    "RNUniformResult",
    "RNVerdict",
    "RecoveryReport",
    "SparseInstance",
    "SparsityCertificate",
    "UniqueSparsestResult",
    "analytic_step",
    "basis_pursuit",
    "construct",
    "equivalence_check",
    "in_cone",
    "iterate",
    "jsonable",
    "kkt_residual",
    "lambda_max",
    "lasso",
    "lasso_path",
    "nullspace",
    "read_matrix",
    "read_vector",
    "reproduce",
    "rip_constant",
    "rip_implies_rn_test",
    "rn_check",
    "rn_uniform",
    "run",
    "select_index",
    "spark",
    "spark_from_nullspace",
    "unique_sparsest",
    "verdict_failures",
    "write_csv",
    "write_instance",
    "write_json",
    "write_matrix",
    "write_vector",
]
