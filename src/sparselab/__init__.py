"""Greedy boosting versus l1 minimization on sparse recovery instances.

The package builds exactly-solvable designs on which componentwise L2
boosting provably never reaches the sparse truth even though the
restricted nullspace property guarantees recovery by l1 methods, and
ships the solvers and certifiers needed to demonstrate the contrast end
to end: a matching-pursuit engine with exact tie-break semantics, a
coordinate-descent lasso with a decaying penalty path, and enumerative
certifiers for cone, nullspace, isometry, spark, and uniqueness
properties.

A public name imports its module on first use, so a caller compiles only
the modules it reaches.
"""

import importlib

# Bound now: the first import of the submodule sparselab.lasso (report's, say)
# sets the package attribute "lasso" to the module, which would shadow the function.
from .lasso import lasso

# Each public name, keyed by the module that defines it.
_PUBLIC = {
    "boosting": ("BoostingConfig", "BoostingState", "iterate", "run", "select_index"),
    "counterexample": (
        "AnalyticState", "InvariantViolation", "SparseInstance", "analytic_step", "construct",
        "equivalence_check",
    ),
    "io": (
        "jsonable", "read_matrix", "read_vector", "write_csv", "write_instance", "write_json",
        "write_matrix", "write_vector",
    ),
    "lasso": ("PathPoint", "basis_pursuit", "kkt_residual", "lambda_max", "lasso", "lasso_path"),
    "linalg": ("nullspace",),
    "properties": (
        "BudgetExceeded", "RIPResult", "RNUniformResult", "RNVerdict", "SparsityCertificate",
        "UniqueSparsestResult", "in_cone", "rip_constant", "rip_implies_rn_test", "rn_check",
        "rn_uniform", "spark", "spark_from_nullspace", "unique_sparsest",
    ),
    "report": ("RecoveryReport", "reproduce", "verdict_failures"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A module of ``_PUBLIC``, or a public name from its module, imported
    on first use; the import system binds a module, this binds a name."""
    if name in _PUBLIC:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_PUBLIC))
