import argparse
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

import sparselab
from sparselab.cli import build_parser


def test_all_names_resolve_and_star_import_works():
    assert len(set(sparselab.__all__)) == len(sparselab.__all__)
    missing = [name for name in sparselab.__all__ if not hasattr(sparselab, name)]
    assert missing == []
    namespace: dict = {}
    exec("from sparselab import *", namespace)
    assert set(sparselab.__all__) <= set(namespace)


def _fresh(code: str):
    """The JSON that ``code`` prints, run in a fresh interpreter that imports
    sparselab from the same source tree as these tests."""
    src = os.path.dirname(os.path.dirname(sparselab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_construct_and_nullspace_load_only_their_modules():
    # the benchmark's set-up probe: the certifiers, the report, the file
    # formats and the CLI are not compiled for it
    loaded = _fresh(
        "import json, sys, sparselab\n"
        "sparselab.nullspace(sparselab.construct(4.0).X)\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
    assert "sparselab.linalg" in loaded and "sparselab.counterexample" in loaded
    for module in ("properties", "report", "io", "cli"):
        assert f"sparselab.{module}" not in loaded


def test_every_public_name_is_its_home_modules_object():
    wrong = _fresh(
        "import importlib, json, sparselab\n"
        "wrong = []\n"
        "for home, names in sparselab._PUBLIC.items():\n"
        "    module = importlib.import_module('sparselab.' + home)\n"
        "    for name in names:\n"
        "        obj = getattr(sparselab, name)\n"
        "        if obj is not getattr(module, name) or obj.__module__ != module.__name__:\n"
        "            wrong.append(name)\n"
        "print(json.dumps(wrong))"
    )
    assert wrong == []
    assert sorted(name for names in sparselab._PUBLIC.values() for name in names) == \
        sparselab.__all__


@pytest.mark.parametrize(
    "first", ["import sparselab.lasso", "from sparselab.report import reproduce"]
)
def test_lasso_stays_the_function_after_its_module_is_imported(first):
    # importing the submodule sets the package attribute to the module; the
    # package binds the function before that can happen
    kind = _fresh(
        f"import json\n{first}\nimport sparselab\n"
        "print(json.dumps([callable(sparselab.lasso), type(sparselab.lasso).__name__]))"
    )
    assert kind == [True, "function"]


def test_submodules_resolve_after_a_bare_import():
    kinds = _fresh(
        "import json, sparselab\n"
        "print(json.dumps({m: type(getattr(sparselab, m)).__name__ for m in sparselab._PUBLIC}))"
    )
    assert kinds == {"boosting": "module", "counterexample": "module", "lasso": "function",
                     "linalg": "module", "properties": "module", "report": "module"}


def test_unknown_name_is_an_attribute_error():
    message = _fresh(
        "import json, sparselab\n"
        "try:\n"
        "    sparselab.x\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps(str(exc)))"
    )
    assert message == "module 'sparselab' has no attribute 'x'"


def test_dir_covers_the_public_names_before_they_load():
    missing = _fresh(
        "import json, sparselab\n"
        "print(json.dumps(sorted(set(sparselab.__all__) - set(dir(sparselab)))))"
    )
    assert missing == []


# The public names: the experiment's entries, the certifiers' result types
# and their budget refusal.  A new export must be added here on purpose.
EXPORTED = {
    "BoostingConfig",
    "BudgetExceeded",
    "RIPResult",
    "RNUniformResult",
    "RNVerdict",
    "SparsityCertificate",
    "UniqueSparsestResult",
    "construct",
    "lambda_max",
    "lasso",
    "lasso_path",
    "nullspace",
    "reproduce",
    "rip_constant",
    "rn_check",
    "rn_uniform",
    "run",
    "spark",
    "unique_sparsest",
}


def test_exported_names_are_pinned():
    assert set(sparselab.__all__) == EXPORTED


# Names that left the package table but stay in their home modules.
UNEXPORTED = {
    "boosting": ("BoostingState", "iterate", "select_index"),
    "counterexample": (
        "AnalyticState", "InvariantViolation", "SparseInstance", "analytic_step",
        "equivalence_check",
    ),
    "io": (
        "jsonable", "read_matrix", "read_vector", "write_csv", "write_instance", "write_json",
        "write_matrix", "write_vector",
    ),
    "lasso": ("PathPoint", "basis_pursuit", "kkt_residual"),
    "properties": ("rip_implies_rn_test", "spark_from_nullspace"),
    "report": ("RecoveryReport", "verdict_failures"),
}


def test_removed_names_are_not_exported():
    unexported = [name for names in UNEXPORTED.values() for name in names]
    for name in (
        "LeastSquaresFit",
        "REEstimate",
        "analytic_beta",
        "analytic_rho",
        "column_norms",
        "correlations",
        "in_cone",
        "initial_analytic_state",
        "least_squares_on_support",
        "lq_norm",
        "re_lower_bound",
        "re_upper_bound",
        *unexported,
    ):
        assert name not in sparselab.__all__
        assert not hasattr(sparselab, name)
    for module, names in UNEXPORTED.items():
        owner = importlib.import_module(f"sparselab.{module}")
        assert [name for name in names if not hasattr(owner, name)] == []
    assert not hasattr(sparselab.linalg, "lq_norm")
    assert not hasattr(sparselab.properties, "re_upper_bound")
    assert not hasattr(sparselab.properties, "in_cone")
    assert not hasattr(sparselab.properties, "cone_split")
    assert not hasattr(sparselab.boosting, "correlations")
    assert not hasattr(sparselab.boosting, "_select")


# Every public settable value: a defaulted parameter of an exported
# function or a defaulted field of an exported class, and every field of
# a *Config.  A new knob must be added here on purpose.
SETTABLE = {
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


def test_the_benchmark_workers_imports_reach_every_traced_attribute():
    # sparsebench/worker.py's own import lines, in a fresh interpreter
    missing = _fresh(
        "import json, sparselab\n"
        "sparselab.construct, sparselab.nullspace\n"
        "from sparselab import boosting, cli, counterexample, properties, report\n"
        "from sparselab import io as files\n"
        "owners = {'boosting': boosting, 'cli': cli, 'counterexample': counterexample,\n"
        "          'io': files, 'properties': properties, 'report': report}\n"
        f"traced = {TRACED!r}\n"
        "print(json.dumps([f'{module}.{name}' for module, names in traced.items()\n"
        "                  for name in names if not callable(getattr(owners[module], name, None))]))"
    )
    assert missing == []
