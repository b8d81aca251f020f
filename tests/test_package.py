import argparse
import dataclasses
import importlib
import inspect

import sparselab
from sparselab.cli import build_parser


def test_all_names_resolve_and_star_import_works():
    assert len(set(sparselab.__all__)) == len(sparselab.__all__)
    missing = [name for name in sparselab.__all__ if not hasattr(sparselab, name)]
    assert missing == []
    namespace: dict = {}
    exec("from sparselab import *", namespace)
    assert set(sparselab.__all__) <= set(namespace)


# The public names.  A new export must be added here on purpose.
EXPORTED = {
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
}


def test_exported_names_are_pinned():
    assert set(sparselab.__all__) == EXPORTED


def test_removed_names_are_not_exported():
    for name in (
        "LeastSquaresFit",
        "REEstimate",
        "analytic_beta",
        "analytic_rho",
        "column_norms",
        "correlations",
        "initial_analytic_state",
        "least_squares_on_support",
        "lq_norm",
        "re_lower_bound",
        "re_upper_bound",
    ):
        assert name not in sparselab.__all__
        assert not hasattr(sparselab, name)
    assert not hasattr(sparselab.linalg, "lq_norm")
    assert not hasattr(sparselab.properties, "re_upper_bound")
    assert not hasattr(sparselab.boosting, "correlations")


# Every public settable value: a defaulted parameter of an exported
# function or a defaulted field of an exported class, and every field of
# a *Config.  A new knob must be added here on purpose.
SETTABLE = {
    "AnalyticState.j",
    "BoostingConfig.nu",
    "BoostingConfig.max_iterations",
    "BoostingConfig.residual_stop",
    "reproduce(lambda_min_factor)",
}


def test_public_settable_values_are_pinned():
    found = set()
    for name in sparselab.__all__:
        obj = getattr(sparselab, name)
        if inspect.isfunction(obj):
            found |= {
                f"{name}({param.name})"
                for param in inspect.signature(obj).parameters.values()
                if param.default is not inspect.Parameter.empty
            }
        elif dataclasses.is_dataclass(obj):
            found |= {
                f"{name}.{field.name}"
                for field in dataclasses.fields(obj)
                if name.endswith("Config") or field.default is not dataclasses.MISSING
            }
    assert found == SETTABLE


# Every command-line option, as (subcommand, flag); --help aside.  A new
# flag must be added here on purpose.
CLI_OPTIONS = {
    ("construct", "--c"),
    ("construct", "--out"),
    ("reproduce", "--c"),
    ("reproduce", "--nu"),
    ("reproduce", "--iters"),
    ("reproduce", "--out"),
    ("reproduce", "--lambda-min-factor"),
    ("certify", "--matrix"),
    ("certify", "--property"),
    ("certify", "--t"),
    ("certify", "--c"),
    ("certify", "--s"),
    ("certify", "--y"),
    ("certify", "--out"),
    ("compare", "--matrix"),
    ("compare", "--y"),
    ("compare", "--nu"),
    ("compare", "--lambda-min"),
    ("compare", "--iters"),
    ("compare", "--out"),
}


def test_cli_options_are_pinned():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        (command, flag)
        for command, sub in commands.choices.items()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
        for flag in action.option_strings
    }
    assert found == CLI_OPTIONS


# The module attributes that sparsebench/worker.py's tracer (``instrument``
# and ``cmd_cli``) wraps by name; a traced benchmark run fails on a missing
# one.  ``report.nullspace`` and ``cli.nullspace`` are wrapped although
# neither module calls them.
TRACED = {
    "report": ("construct", "nullspace", "lasso_path", "reproduce", "boosting_trajectory"),
    "cli": ("construct", "nullspace", "lasso_path", "main"),
    "counterexample": ("construct", "equivalence_check"),
    "boosting": ("run",),
    "properties": (
        "unique_sparsest", "spark", "rip_constant", "rn_uniform", "spark_from_nullspace",
    ),
    "io": (
        "write_matrix", "write_vector", "write_csv", "write_json", "read_matrix", "read_vector",
    ),
}


def test_attributes_the_benchmark_tracer_wraps_exist():
    for module, names in TRACED.items():
        owner = importlib.import_module(f"sparselab.{module}")
        assert [name for name in names if not callable(getattr(owner, name, None))] == []
