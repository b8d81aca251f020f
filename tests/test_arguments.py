"""Every public entry refuses each kind of bad argument in one line.

Each row calls one entry with one bad argument.  The entry must raise
the listed error with exactly the listed one-line message, which names
the argument, and with no numpy warning first: a ValueError for a bad
design, response, constant, count, support, step or basis, and
BudgetExceeded for an enumeration budget too small for the scan.
"""

import math
import re
import warnings

import numpy as np
import pytest

from sparselab import (
    BoostingConfig,
    BudgetExceeded,
    analytic_step,
    basis_pursuit,
    construct,
    correlations,
    equivalence_check,
    in_cone,
    initial_analytic_state,
    iterate,
    kkt_residual,
    lambda_max,
    lasso,
    lasso_path,
    nullspace,
    re_upper_bound,
    reproduce,
    rip_constant,
    rip_implies_rn_test,
    rn_check,
    rn_uniform,
    run,
    select_index,
    spark,
    spark_from_nullspace,
    unique_sparsest,
)
from sparselab.properties import cone_split
from sparselab.report import detect_cone_exit

# a 2 x 3 design whose nullspace is the ray (-1, -1, 1)
X = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
Y = np.array([1.0, 2.0])
NS = nullspace(X)
NAN_X = np.where(X == 0.0, math.nan, X)
INF_X = np.where(X == 0.0, math.inf, X)
NAN_Y = np.array([1.0, math.nan])
# two orthogonal pairs of duplicated columns: a two-dimensional nullspace
# with C(4, 1) = 4 candidate rays
NS_PLANE = nullspace([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
INST = construct(1.0)
CONFIG = BoostingConfig()

SHAPES_1D = r"incompatible shapes: X \(3,\); X must be a matrix with at least one column"
SHAPES_XY = (
    r"incompatible shapes: X \(2, 3\), Y \(3,\); "
    "X must be a matrix with at least one column and a row per entry of Y"
)

CASES = [
    # the design: finite, a matrix, at least one column
    ("nullspace-nan", lambda: nullspace(NAN_X), ValueError, "X must be finite"),
    ("nullspace-inf", lambda: nullspace(INF_X), ValueError, "X must be finite"),
    ("nullspace-vector", lambda: nullspace(np.ones(3)), ValueError, SHAPES_1D),
    (
        "nullspace-no-columns",
        lambda: nullspace(np.zeros((2, 0))),
        ValueError,
        r"incompatible shapes: X \(2, 0\); X must be a matrix with at least one column",
    ),
    ("spark-nan", lambda: spark(NAN_X), ValueError, "X must be finite"),
    ("spark-vector", lambda: spark(np.ones(3)), ValueError, SHAPES_1D),
    ("rip-nan", lambda: rip_constant(NAN_X, 1), ValueError, "X must be finite"),
    ("rip-vector", lambda: rip_constant(np.ones(3), 1), ValueError, SHAPES_1D),
    ("re-nan", lambda: re_upper_bound(NAN_X, (0,), 1.0, 10), ValueError, "X must be finite"),
    ("unique-nan", lambda: unique_sparsest(NAN_X, Y, 1), ValueError, "X must be finite"),
    ("correlations-inf", lambda: correlations(INF_X, Y), ValueError, "X must be finite"),
    ("iterate-nan", lambda: next(iterate(NAN_X, Y, CONFIG)), ValueError, "X must be finite"),
    ("run-inf", lambda: run(INF_X, Y, CONFIG), ValueError, "X must be finite"),
    ("lasso-nan", lambda: lasso(NAN_X, Y, 1.0), ValueError, "X must be finite"),
    ("lasso-path-inf", lambda: lasso_path(INF_X, Y, 1e-3), ValueError, "X must be finite"),
    ("lambda-max-nan", lambda: lambda_max(NAN_X, Y), ValueError, "X must be finite"),
    # the response: finite, one entry per row
    ("unique-short-y", lambda: unique_sparsest(np.eye(3), np.ones(4), 1), ValueError,
     r"incompatible shapes: X \(3, 3\), Y \(4,\); "
     "X must be a matrix with at least one column and a row per entry of Y"),
    ("unique-nan-y", lambda: unique_sparsest(X, NAN_Y, 1), ValueError, "Y must be finite"),
    ("run-long-y", lambda: run(X, np.ones(3), CONFIG), ValueError, SHAPES_XY),
    ("correlations-long-y", lambda: correlations(X, np.ones(3)), ValueError, SHAPES_XY),
    ("basis-pursuit-long-y", lambda: basis_pursuit(X, np.ones(3), 1e-3), ValueError, SHAPES_XY),
    ("kkt-nan-y", lambda: kkt_residual(X, NAN_Y, np.zeros(3), 1.0), ValueError, "Y must be finite"),
    # a zero-norm column, where the solver divides by the column norm
    ("lasso-zero-column", lambda: lasso(np.eye(2)[:, [0, 0, 1]] * [1, 0, 1], Y, 1.0),
     ValueError, "column 1 has zero norm"),
    ("correlations-zero-column", lambda: correlations([[1.0, 0.0], [0.0, 0.0]], Y),
     ValueError, "column 1 has zero norm"),
    # constants: positive and finite
    ("rn-check-c-nan", lambda: rn_check(NS, (0,), math.nan), ValueError,
     "c must be positive and finite, got nan"),
    ("rn-uniform-c-zero", lambda: rn_uniform(NS, 1, 0.0), ValueError,
     r"c must be positive and finite, got 0\.0"),
    ("in-cone-c-inf", lambda: in_cone([1.0, 1.0], (0,), math.inf), ValueError,
     "c must be positive and finite, got inf"),
    ("re-c-negative", lambda: re_upper_bound(X, (0,), -1.0, 10), ValueError,
     r"c must be positive and finite, got -1\.0"),
    ("construct-c-nan", lambda: construct(math.nan), ValueError,
     "c must be positive and finite, got nan"),
    ("lasso-lam-nan", lambda: lasso(X, Y, math.nan), ValueError,
     "lam must be positive and finite, got nan"),
    ("reproduce-factor-zero", lambda: reproduce(1.0, 1.0, 200, lambda_min_factor=0.0), ValueError,
     r"lambda_min_factor must be positive and finite, got 0\.0"),
    # constants are numbers: a bool or a string is not taken as one
    ("construct-c-string", lambda: construct("4"), ValueError, "c must be a number, got str"),
    ("construct-c-none", lambda: construct(None), ValueError, "c must be a number, got NoneType"),
    ("lasso-lam-bool", lambda: lasso(np.eye(2), np.ones(2), True), ValueError,
     "lam must be a number, got bool"),
    ("lasso-path-numpy-bool", lambda: lasso_path(X, Y, np.True_), ValueError,
     "lambda_min must be a number, got bool"),
    ("rn-uniform-c-string", lambda: rn_uniform(NS, 1, "1.5"), ValueError,
     "c must be a number, got str"),
    # counts: integers in range
    ("rn-uniform-t-zero", lambda: rn_uniform(NS, 0, 1.0), ValueError,
     r"t must lie in \[1, 3\], got 0"),
    ("rn-uniform-t-float", lambda: rn_uniform(NS, 1.0, 1.0), ValueError,
     "t must be an integer, got float"),
    ("rip-t-too-large", lambda: rip_constant(X, 4), ValueError, r"t must lie in \[1, 3\], got 4"),
    ("rip-t-bool", lambda: rip_constant(X, True), ValueError, "t must be an integer, got bool"),
    ("unique-s-too-large", lambda: unique_sparsest(X, Y, 4), ValueError,
     r"s must lie in \[0, 3\], got 4"),
    ("re-samples-zero", lambda: re_upper_bound(X, (0,), 1.0, 0), ValueError,
     "samples must be at least 1, got 0"),
    # rip_constant at 2t would name 2t, not the t it was given
    ("rip-implies-rn-t", lambda: rip_implies_rn_test(3, 3, 3), ValueError,
     r"t must lie in \[1, 2\], got 3"),
    ("rip-implies-rn-n", lambda: rip_implies_rn_test(1, 3, 1), ValueError,
     "n must be at least 2, got 1"),
    ("rip-implies-rn-trials", lambda: rip_implies_rn_test(3, 0, 1), ValueError,
     "trials must be at least 1, got 0"),
    ("reproduce-window-zero", lambda: reproduce(1.0, 1.0, 200, cone_window=0), ValueError,
     "cone_window must be at least 1, got 0"),
    ("cone-exit-window-zero", lambda: detect_cone_exit([0.0, 5.0], 1.0, 0), ValueError,
     "window must be at least 1, got 0"),
    ("cone-exit-window-negative", lambda: detect_cone_exit([5.0], 1.0, -2), ValueError,
     "window must be at least 1, got -2"),
    ("cone-exit-window-float", lambda: detect_cone_exit([5.0], 1.0, 1.0), ValueError,
     "window must be an integer, got float"),
    # the enumeration budget: a positive integer, and large enough
    ("spark-budget-bool", lambda: spark(X, True), ValueError,
     "enumeration_budget must be an integer, got bool"),
    ("rip-budget-float", lambda: rip_constant(X, 1, 2.0), ValueError,
     "enumeration_budget must be an integer, got float"),
    ("unique-budget-none", lambda: unique_sparsest(X, Y, 1, None), ValueError,
     "enumeration_budget must be an integer, got NoneType"),
    ("rn-check-budget-zero", lambda: rn_check(NS, (0,), 1.0, 0), ValueError,
     "enumeration_budget must be at least 1, got 0"),
    ("rip-budget-small", lambda: rip_constant(X, 2, 2), BudgetExceeded,
     "restricted isometry scan over 3 subsets of size 2 exceeds the budget of 2"),
    ("unique-budget-small", lambda: unique_sparsest(X, Y, 2, 1), BudgetExceeded,
     "sparsest-solution scan exceeds the budget of 1 at size 1"),
    ("rn-check-budget-small", lambda: rn_check(NS_PLANE, (0,), 1.0, 3), BudgetExceeded,
     r"cone check over 4 candidate rays \(1-row subsets\) exceeds the budget of 3"),
    # the support T: non-empty, distinct, in range
    ("in-cone-T-empty", lambda: in_cone([1.0, 1.0], (), 1.0), ValueError, "T must be non-empty"),
    ("rn-check-T-repeated", lambda: rn_check(NS, (0, 0), 1.0), ValueError,
     r"T repeats an index: \(0, 0\)"),
    ("rn-check-T-too-large", lambda: rn_check(NS, (3,), 1.0), ValueError,
     r"T must hold indices in \[0, 2\], got \(3,\)"),
    ("re-T-negative", lambda: re_upper_bound(X, (-1,), 1.0, 10), ValueError,
     r"T must hold indices in \[0, 2\], got \(-1,\)"),
    ("re-T-empty", lambda: re_upper_bound(X, [], 1.0, 10), ValueError, "T must be non-empty"),
    # the boosting step, iteration cap and floor
    ("config-nu-nan", lambda: BoostingConfig(nu=math.nan), ValueError,
     r"nu must lie in \(0, 1\], got nan"),
    ("config-nu-bool", lambda: BoostingConfig(nu=True), ValueError, "nu must be a number, got bool"),
    ("config-nu-string", lambda: BoostingConfig(nu="0.5"), ValueError,
     "nu must be a number, got str"),
    ("analytic-step-nu-bool", lambda: analytic_step(initial_analytic_state(INST), INST, True),
     ValueError, "nu must be a number, got bool"),
    ("config-iterations-float", lambda: BoostingConfig(max_iterations=2.5), ValueError,
     "max_iterations must be an integer, got float"),
    ("config-iterations-bool", lambda: BoostingConfig(max_iterations=True), ValueError,
     "max_iterations must be an integer, got bool"),
    ("config-iterations-negative", lambda: BoostingConfig(max_iterations=-1), ValueError,
     "max_iterations must be at least 0, got -1"),
    ("config-floor-nan", lambda: BoostingConfig(residual_stop=math.nan), ValueError,
     "residual_stop must be non-negative and finite, got nan"),
    ("config-floor-inf", lambda: BoostingConfig(residual_stop=math.inf), ValueError,
     "residual_stop must be non-negative and finite, got inf"),
    ("config-floor-string", lambda: BoostingConfig(residual_stop="0"), ValueError,
     "residual_stop must be a number, got str"),
    # the caller's own iteration count is named, not BoostingConfig's field
    ("reproduce-iterations-float", lambda: reproduce(1.0, 1.0, 200.5), ValueError,
     "iterations must be an integer, got float"),
    ("equivalence-iterations-float", lambda: equivalence_check(INST, 1.0, 20.5), ValueError,
     "iterations must be an integer, got float"),
    ("equivalence-iterations-negative", lambda: equivalence_check(INST, 1.0, -1), ValueError,
     "iterations must be at least 0, got -1"),
    ("analytic-step-nu", lambda: analytic_step(initial_analytic_state(INST), INST, 1.5),
     ValueError, r"nu must lie in \(0, 1\], got 1\.5"),
    ("equivalence-nu", lambda: equivalence_check(INST, 0.0, 10), ValueError,
     r"nu must lie in \(0, 1\], got 0\.0"),
    ("reproduce-nu", lambda: reproduce(1.0, 2.0, 200), ValueError,
     r"nu must lie in \(0, 1\], got 2\.0"),
    ("select-index-empty", lambda: select_index([]), ValueError, "rho must be a non-empty vector"),
    # the nullspace basis, as nullspace returns it
    ("spark-from-design", lambda: spark_from_nullspace(X), ValueError,
     r"the nullspace basis has 3 columns in dimension 2; pass nullspace\(X\), not X"),
    ("re-basis-of-another-design", lambda: re_upper_bound(X, (0,), 1.0, 10, ns=NS_PLANE),
     ValueError, "the nullspace basis has 4 rows, X has 3 columns"),
    # the vectors of the cone split: finite, and for in_cone one vector
    ("in-cone-inf", lambda: in_cone([math.inf, 1.0], (0,), 1.0), ValueError,
     "b must be finite"),
    ("in-cone-nan", lambda: in_cone([math.nan, 1.0], (0,), 1.0), ValueError,
     "b must be finite"),
    ("in-cone-matrix", lambda: in_cone([[1.0, 2.0]], (0,), 1.0), ValueError,
     r"b has shape \(1, 2\), expected \(2,\)"),
    ("in-cone-scalar", lambda: in_cone(1.0, (0,), 1.0), ValueError,
     r"b has shape \(\), expected \(1,\)"),
    ("cone-split-inf", lambda: cone_split([math.inf, math.inf], (0,)), ValueError,
     "delta must be a finite vector or stack of vectors"),
    ("cone-split-nan-row", lambda: cone_split([[1.0, 1.0], [math.nan, 1.0]], (0,)), ValueError,
     "delta must be a finite vector or stack of vectors"),
    ("cone-split-scalar", lambda: cone_split(1.0, (0,)), ValueError,
     "delta must be a finite vector or stack of vectors"),
    # the coefficient vectors of the lasso
    ("kkt-b-shape", lambda: kkt_residual(X, Y, np.zeros(2), 1.0), ValueError,
     r"b has shape \(2,\), expected \(3,\)"),
    ("lasso-warm-nan", lambda: lasso(X, Y, 1.0, warm_start=[0.0, math.nan, 0.0]), ValueError,
     "warm start must be finite"),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_bad_argument_is_refused_in_one_line(call, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as info:
            call()
    assert info.type is error
    assert re.fullmatch(message, str(info.value)), str(info.value)


@pytest.mark.parametrize(
    "value", [4, 4.0, np.int64(4), np.int8(4), np.float32(4.0), np.float64(4.0)],
    ids=["int", "float", "int64", "int8", "float32", "float64"],
)
def test_python_and_numpy_numbers_are_taken(value):
    # only a bool or a non-number is refused: every int and float type counts
    assert construct(value).n == 25
    assert BoostingConfig(nu=value / 4, residual_stop=value).nu == 1.0
    assert lasso(np.eye(2), np.ones(2), value / 2).beta.tolist() == [0.0, 0.0]
    # the boosting steps keep float64 bits whatever the type of nu
    steps = run(X, Y, BoostingConfig(nu=value / 8, max_iterations=5))[-1].history_steps
    assert steps.tobytes() == run(X, Y, BoostingConfig(nu=0.5, max_iterations=5))[-1].history_steps.tobytes()
