import dataclasses
import inspect

import sparselab


def test_all_names_resolve_and_star_import_works():
    assert len(set(sparselab.__all__)) == len(sparselab.__all__)
    missing = [name for name in sparselab.__all__ if not hasattr(sparselab, name)]
    assert missing == []
    namespace: dict = {}
    exec("from sparselab import *", namespace)
    assert set(sparselab.__all__) <= set(namespace)


def test_removed_names_are_not_exported():
    for name in (
        "LeastSquaresFit",
        "least_squares_on_support",
        "re_lower_bound",
    ):
        assert name not in sparselab.__all__
        assert not hasattr(sparselab, name)


# Every public settable value: a defaulted parameter of an exported
# function or a defaulted field of an exported class, and every field of
# a *Config.  A new knob must be added here on purpose.
SETTABLE = {
    "AnalyticState.j",
    "BoostingConfig.nu",
    "BoostingConfig.max_iterations",
    "BoostingConfig.residual_stop",
    "lasso(warm_start)",
    "re_upper_bound(seed)",
    "reproduce(seed)",
    "reproduce(lambda_min_factor)",
    "rip_constant(enumeration_budget)",
    "rip_implies_rn_test(seed)",
    "rn_check(enumeration_budget)",
    "rn_uniform(enumeration_budget)",
    "spark(enumeration_budget)",
    "unique_sparsest(enumeration_budget)",
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
