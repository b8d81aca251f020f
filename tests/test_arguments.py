"""Every public entry refuses each kind of bad argument in one line.

Each row calls one entry with one bad argument.  The entry must raise
the listed error with exactly the listed one-line message, which names
the argument, and with no numpy warning first: a ValueError for a bad
(or complex) design, response, constant, count, support or step, InvariantViolation
for a reduced state outside the [0, 1] box, and BudgetExceeded for a scan
past the enumeration budget.
"""

import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest

from sparselab import (
    AnalyticState,
    BoostingConfig,
    BudgetExceeded,
    InvariantViolation,
    analytic_step,
    basis_pursuit,
    construct,
    equivalence_check,
    in_cone,
    iterate,
    kkt_residual,
    lambda_max,
    lasso,
    lasso_path,
    nullspace,
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
    write_vector,
)
from sparselab import properties
from sparselab.properties import cone_split
from sparselab.report import boosting_trajectory, detect_cone_exit

# a 2 x 3 design whose nullspace is the ray (-1, -1, 1)
X = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
Y = np.array([1.0, 2.0])
NAN_X = np.where(X == 0.0, math.nan, X)
INF_X = np.where(X == 0.0, math.inf, X)
NAN_Y = np.array([1.0, math.nan])
# two orthogonal pairs of duplicated columns: a two-dimensional nullspace
# with C(4, 1) = 4 candidate rays
X_PLANE = [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]]
# column 1 is column 0 plus 0.99e-10 on each of nine more rows: what
# elimination leaves of it is below its pivot tolerance 1e-10 * max|X_1|,
# yet ||X v|| = 2.97e-10 for v = (-1, 1) exceeds the residual tolerance
# 1e-10 * (||X_0|| + ||X_1||) = 2e-10
X_NEAR = [[1.0, 1.0]] + [[0.0, 0.99e-10]] * 9
# small column norms keep the nullspace tolerance finite, and the ray
# (1e308, 1e308, 1) has an l1 mass past the float range
X_RAY = [[1e-20, 0.0, -1e288], [0.0, 1e-20, -1e288]]
RAY_OVERFLOW = "the l1 mass of a nullspace ray overflows; rescale the columns of X"
INST = construct(1.0)
START = AnalyticState(np.zeros(INST.n - INST.s), 0.0, 0)
CONFIG = BoostingConfig()


def _box(lo: float, hi: float) -> str:
    """The refusal of a reduced state at k = 0 whose range is [lo, hi]."""
    return re.escape(f"reduced coordinate left [0, 1] at iteration 0: range [{lo!r}, {hi!r}]")


def _at_budget(budget, call):
    """``call`` run with the enumeration budget lowered to ``budget``."""

    def lowered():
        with mock.patch.object(properties, "ENUMERATION_BUDGET", budget):
            return call()

    return lowered


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
    ("rn-check-nan", lambda: rn_check(NAN_X, (0,), 1.0), ValueError, "X must be finite"),
    ("rn-check-vector", lambda: rn_check(np.ones(3), (0,), 1.0), ValueError, SHAPES_1D),
    ("rn-uniform-nan", lambda: rn_uniform(NAN_X, 1, 1.0), ValueError, "X must be finite"),
    ("rn-uniform-vector", lambda: rn_uniform(np.ones(3), 1, 1.0), ValueError, SHAPES_1D),
    ("spark-from-nullspace-nan", lambda: spark_from_nullspace(NAN_X), ValueError,
     "X must be finite"),
    ("spark-from-nullspace-vector", lambda: spark_from_nullspace(np.ones(3)), ValueError,
     SHAPES_1D),
    ("rip-nan", lambda: rip_constant(NAN_X, 1), ValueError, "X must be finite"),
    ("rip-vector", lambda: rip_constant(np.ones(3), 1), ValueError, SHAPES_1D),
    ("unique-nan", lambda: unique_sparsest(NAN_X, Y, 1), ValueError, "X must be finite"),
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
    # finite input whose squares leave float64: refused by the entry's own
    # check, with no numpy warning before it
    ("rip-gram-overflow", lambda: rip_constant([[1, 0, 1e200], [0, 1, 1]], 2), ValueError,
     "the Gram matrix X'X overflows; rescale the columns of X"),
    ("unique-gram-overflow", lambda: unique_sparsest([[1e200, 0, 1], [0, 1, 1]], Y, 2),
     ValueError, "the Gram matrix X'X overflows; rescale the columns of X"),
    ("unique-y-overflow", lambda: unique_sparsest(X, [1e300, 2], 2), ValueError,
     "the norm of Y overflows; rescale Y"),
    # no pivot at the rank tolerance leaves (-1, 1), which X does not
    # annihilate: refused, never returned as the kernel
    ("nullspace-residual", lambda: nullspace(X_NEAR), RuntimeError,
     r"nullspace vector fails the residual check: \|\|Xv\|\| = 2\.970e-10 "
     r"against tolerance 2\.000e-10"),
    ("rn-check-residual", lambda: rn_check(X_NEAR, (0,), 1.0),
     RuntimeError, r"nullspace vector fails the residual check: .*"),
    # column 0 pivots at its own scale, 1e-300, and the division of its row
    # by that pivot overflows: the ray (-1e310, 1) is no float vector
    ("nullspace-overflow", lambda: nullspace([[1e-300, 1e10]]), RuntimeError,
     "the row reduction of X overflows; rescale the columns of X"),
    ("rn-check-overflow", lambda: rn_check([[1e-300, 1e10]], (0,), 1.0), RuntimeError,
     "the row reduction of X overflows; rescale the columns of X"),
    # the residual tolerance 1e-10 * (|v| @ ||X_j||) of the ray (-1e308, -1e308, 1)
    # overflows: a check against inf would pass any vector
    ("nullspace-tolerance-overflow", lambda: nullspace([[1, 0, 1e308], [0, 1, 1e308]]),
     RuntimeError, "the nullspace residual check overflows; rescale the columns of X"),
    # a ray whose mass off T, or on it, overflows: read as inf, the off-mass
    # would pass any cone and the on-mass would give a critical c of 0
    ("rn-check-ray-off-overflow", lambda: rn_check(X_RAY, (2,), 1.0), ValueError, RAY_OVERFLOW),
    ("rn-check-ray-on-overflow", lambda: rn_check(X_RAY, (0, 1), 1.0), ValueError, RAY_OVERFLOW),
    ("rn-uniform-ray-overflow", lambda: rn_uniform(X_RAY, 2, 1.0), ValueError, RAY_OVERFLOW),
    # a nonzero Y whose squared norm is below the least normal float
    ("unique-y-underflow", lambda: unique_sparsest(X, [1e-300, 2e-300], 2), ValueError,
     "the norm of Y underflows; rescale Y"),
    ("run-long-y", lambda: run(X, np.ones(3), CONFIG), ValueError, SHAPES_XY),
    ("basis-pursuit-long-y", lambda: basis_pursuit(X, np.ones(3), 1e-3), ValueError, SHAPES_XY),
    ("kkt-nan-y", lambda: kkt_residual(X, NAN_Y, np.zeros(3), 1.0), ValueError, "Y must be finite"),
    # a zero-norm column, where the solver divides by the column norm
    ("lasso-zero-column", lambda: lasso(np.eye(2)[:, [0, 0, 1]] * [1, 0, 1], Y, 1.0),
     ValueError, "column 1 has zero norm"),
    ("run-zero-column", lambda: run([[1.0, 0.0], [0.0, 0.0]], Y, CONFIG), ValueError,
     "column 1 has zero norm"),
    # constants: positive and finite
    ("rn-check-c-nan", lambda: rn_check(X, (0,), math.nan), ValueError,
     "c must be positive and finite, got nan"),
    ("rn-uniform-c-zero", lambda: rn_uniform(X, 1, 0.0), ValueError,
     r"c must be positive and finite, got 0\.0"),
    ("in-cone-c-inf", lambda: in_cone([1.0, 1.0], (0,), math.inf), ValueError,
     "c must be positive and finite, got inf"),
    ("rn-check-c-negative", lambda: rn_check(X, (0,), -1.0), ValueError,
     r"c must be positive and finite, got -1\.0"),
    ("construct-c-nan", lambda: construct(math.nan), ValueError,
     "c must be positive and finite, got nan"),
    ("lasso-lam-nan", lambda: lasso(X, Y, math.nan), ValueError,
     "lam must be positive and finite, got nan"),
    ("reproduce-factor-zero", lambda: reproduce(1.0, 1.0, 200, lambda_min_factor=0.0), ValueError,
     r"lambda_min_factor must be positive and finite, got 0\.0"),
    # a terminal penalty at or above the path start is refused before any stage runs
    ("reproduce-factor-one", lambda: reproduce(1.0, 1.0, 200, lambda_min_factor=1.0), ValueError,
     r"lambda_min_factor must lie below 1, got 1\.0"),
    # constants are numbers: a bool or a string is not taken as one
    ("construct-c-string", lambda: construct("4"), ValueError, "c must be a number, got str"),
    ("construct-c-none", lambda: construct(None), ValueError, "c must be a number, got NoneType"),
    ("lasso-lam-bool", lambda: lasso(np.eye(2), np.ones(2), True), ValueError,
     "lam must be a number, got bool"),
    ("lasso-path-numpy-bool", lambda: lasso_path(X, Y, np.True_), ValueError,
     "lambda_min must be a number, got bool"),
    ("rn-uniform-c-string", lambda: rn_uniform(X, 1, "1.5"), ValueError,
     "c must be a number, got str"),
    # counts: integers in range
    ("rn-uniform-t-zero", lambda: rn_uniform(X, 0, 1.0), ValueError,
     r"t must lie in \[1, 3\], got 0"),
    ("rn-uniform-t-float", lambda: rn_uniform(X, 1.0, 1.0), ValueError,
     "t must be an integer, got float"),
    ("rip-t-too-large", lambda: rip_constant(X, 4), ValueError, r"t must lie in \[1, 3\], got 4"),
    ("rip-t-bool", lambda: rip_constant(X, True), ValueError, "t must be an integer, got bool"),
    ("unique-s-too-large", lambda: unique_sparsest(X, Y, 4), ValueError,
     r"s must lie in \[0, 3\], got 4"),
    # rip_constant at 2t would name 2t, not the t it was given
    ("rip-implies-rn-t", lambda: rip_implies_rn_test(3, 3, 3), ValueError,
     r"t must lie in \[1, 2\], got 3"),
    ("rip-implies-rn-n", lambda: rip_implies_rn_test(1, 3, 1), ValueError,
     "n must be at least 2, got 1"),
    ("rip-implies-rn-trials", lambda: rip_implies_rn_test(3, 0, 1), ValueError,
     "trials must be at least 1, got 0"),
    ("cone-exit-window-zero", lambda: detect_cone_exit([0.0, 5.0], 1.0, 0), ValueError,
     "window must be at least 1, got 0"),
    ("cone-exit-window-negative", lambda: detect_cone_exit([5.0], 1.0, -2), ValueError,
     "window must be at least 1, got -2"),
    ("cone-exit-window-float", lambda: detect_cone_exit([5.0], 1.0, 1.0), ValueError,
     "window must be an integer, got float"),
    # a scan past the enumeration budget, lowered here to fit these designs
    ("rip-budget-small", _at_budget(2, lambda: rip_constant(X, 2)), BudgetExceeded,
     "restricted isometry scan over 3 subsets of size 2 exceeds the budget of 2"),
    ("unique-budget-small", _at_budget(1, lambda: unique_sparsest(X, Y, 2)), BudgetExceeded,
     "sparsest-solution scan exceeds the budget of 1 at size 1"),
    ("rn-check-budget-small", _at_budget(3, lambda: rn_check(X_PLANE, (0,), 1.0)),
     BudgetExceeded,
     r"cone check over 4 candidate rays \(1-row subsets\) exceeds the budget of 3"),
    # the support T: non-empty, distinct, in range
    ("in-cone-T-empty", lambda: in_cone([1.0, 1.0], (), 1.0), ValueError, "T must be non-empty"),
    ("rn-check-T-repeated", lambda: rn_check(X, (0, 0), 1.0), ValueError,
     r"T repeats an index: \(0, 0\)"),
    ("rn-check-T-too-large", lambda: rn_check(X, (3,), 1.0), ValueError,
     r"T must hold indices in \[0, 2\], got \(3,\)"),
    ("rn-check-T-negative", lambda: rn_check(X, (-1,), 1.0), ValueError,
     r"T must hold indices in \[0, 2\], got \(-1,\)"),
    # ... and a collection at all: an int or None is no support
    ("rn-check-T-none", lambda: rn_check(X, None, 1.0), ValueError,
     "T must be a collection of indices, got NoneType"),
    ("rn-check-T-int", lambda: rn_check(X, 3, 1.0), ValueError,
     "T must be a collection of indices, got int"),
    ("cone-split-T-int", lambda: cone_split(np.ones(4), 2), ValueError,
     "T must be a collection of indices, got int"),
    ("in-cone-T-none", lambda: in_cone([1.0, 1.0], None, 1.0), ValueError,
     "T must be a collection of indices, got NoneType"),
    ("trajectory-S-int",
     lambda: boosting_trajectory(INST.X, INST.Y, CONFIG, truth=INST.beta, S=5), ValueError,
     "S must be a collection of indices, got int"),
    ("trajectory-S-int-without-truth",
     lambda: boosting_trajectory(INST.X, INST.Y, CONFIG, S=5), ValueError,
     "S must be a collection of indices, got int"),
    # the boosting step, iteration cap and floor
    ("config-nu-nan", lambda: BoostingConfig(nu=math.nan), ValueError,
     r"nu must lie in \(0, 1\], got nan"),
    ("config-nu-bool", lambda: BoostingConfig(nu=True), ValueError, "nu must be a number, got bool"),
    ("config-nu-string", lambda: BoostingConfig(nu="0.5"), ValueError,
     "nu must be a number, got str"),
    ("analytic-step-nu-bool", lambda: analytic_step(START, INST, True),
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
    ("analytic-step-nu", lambda: analytic_step(START, INST, 1.5),
     ValueError, r"nu must lie in \(0, 1\], got 1\.5"),
    # the reduced state: a finite float vector of n - s entries, a finite
    # number and a count
    ("analytic-step-c-mid-short",
     lambda: analytic_step(AnalyticState(np.zeros(5), 0.0, 0), INST, 1.0),
     ValueError, r"c_mid has shape \(5,\), expected \(6,\)"),
    ("analytic-step-c-mid-list",
     lambda: analytic_step(AnalyticState([0.0] * 7, 0.0, 0), INST, 1.0),
     ValueError, r"c_mid has shape \(7,\), expected \(6,\)"),
    ("analytic-step-c-mid-nan",
     lambda: analytic_step(AnalyticState(np.full(6, math.nan), 0.0, 0), INST, 1.0),
     ValueError, "c_mid must be finite"),
    ("analytic-step-c-p-nan",
     lambda: analytic_step(AnalyticState(np.zeros(6), math.nan, 0), INST, 1.0),
     ValueError, "c_p must be finite, got nan"),
    ("analytic-step-c-p-inf",
     lambda: analytic_step(AnalyticState(np.zeros(6), math.inf, 0), INST, 1.0),
     ValueError, "c_p must be finite, got inf"),
    ("analytic-step-c-p-string",
     lambda: analytic_step(AnalyticState(np.zeros(6), "0", 0), INST, 1.0),
     ValueError, "c_p must be a number, got str"),
    ("analytic-step-k-negative",
     lambda: analytic_step(AnalyticState(np.zeros(6), 0.0, -3), INST, 1.0),
     ValueError, "k must be at least 0, got -3"),
    ("analytic-step-k-float",
     lambda: analytic_step(AnalyticState(np.zeros(6), 0.0, 1.0), INST, 1.0),
     ValueError, "k must be an integer, got float"),
    # ... inside the [0, 1] box before the step, also where the step would
    # land back inside it, and before a huge state can overflow
    ("analytic-step-c-p-above-box",
     lambda: analytic_step(AnalyticState(np.zeros(6), 2.0, 0), INST, 1.0),
     InvariantViolation, _box(0.0, 2.0)),
    ("analytic-step-c-p-below-box",
     lambda: analytic_step(AnalyticState(np.zeros(6), -5.0, 0), INST, 1.0),
     InvariantViolation, _box(-5.0, 0.0)),
    ("analytic-step-c-p-1e300",
     lambda: analytic_step(AnalyticState(np.zeros(6), 1e300, 0), INST, 1.0),
     InvariantViolation, _box(0.0, 1e300)),
    ("analytic-step-c-p-1e308",
     lambda: analytic_step(AnalyticState(np.zeros(6), 1e308, 0), INST, 1.0),
     InvariantViolation, _box(0.0, 1e308)),
    ("analytic-step-c-mid-1e308",
     lambda: analytic_step(AnalyticState(np.full(6, 1e308), 0.0, 0), INST, 1.0),
     InvariantViolation, _box(0.0, 1e308)),
    ("equivalence-nu", lambda: equivalence_check(INST, 0.0, 10), ValueError,
     r"nu must lie in \(0, 1\], got 0\.0"),
    ("reproduce-nu", lambda: reproduce(1.0, 2.0, 200), ValueError,
     r"nu must lie in \(0, 1\], got 2\.0"),
    ("select-index-empty", lambda: select_index([]), ValueError, "rho must be a non-empty vector"),
    # the vectors of the cone split: finite, non-empty, and for in_cone one vector
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
    # finite entries whose l1 mass overflows: inf on both sides of the cone
    # rule would read as membership
    ("in-cone-overflow", lambda: in_cone([1e308] * 5, (0, 1), 1.0), ValueError,
     "the l1 mass of b overflows; rescale b"),
    ("cone-split-overflow", lambda: cone_split([1e308] * 5, (0, 1)), ValueError,
     "the l1 mass of delta overflows; rescale delta"),
    ("cone-split-overflow-row", lambda: cone_split([[1.0] * 3, [1e308] * 3], (0,)), ValueError,
     "the l1 mass of delta overflows; rescale delta"),
    ("in-cone-empty", lambda: in_cone([], (0,), 1.0), ValueError, "b must be non-empty"),
    ("cone-split-empty", lambda: cone_split([], (0,)), ValueError, "delta must be non-empty"),
    ("cone-split-empty-rows", lambda: cone_split(np.zeros((2, 0)), (0,)), ValueError,
     "delta must be non-empty"),
    # complex input is refused, not computed on its real part after a ComplexWarning
    ("run-complex", lambda: run(np.eye(3) * (1 + 2j), np.ones(3), CONFIG), ValueError,
     "X must be real, got complex entries"),
    ("lasso-path-complex", lambda: lasso_path(np.eye(3) * (1 + 2j), np.ones(3), 1e-3),
     ValueError, "X must be real, got complex entries"),
    ("rn-check-complex", lambda: rn_check(np.eye(3) * (1 + 2j), (0,), 1.0), ValueError,
     "X must be real, got complex entries"),
    ("lasso-complex-y", lambda: lasso(np.eye(3), np.ones(3) * 1j, 1.0), ValueError,
     "Y must be real, got complex entries"),
    ("select-index-complex", lambda: select_index([1 + 2j, 3]), ValueError,
     "rho must be real, got complex entries"),
    ("in-cone-complex", lambda: in_cone([1j, 1.0], (0,), 1.0), ValueError,
     "b must be real, got complex entries"),
    ("kkt-complex-b", lambda: kkt_residual(X, Y, np.zeros(3, dtype=complex), 1.0), ValueError,
     "b must be real, got complex entries"),
    ("cone-split-complex", lambda: cone_split([1j, 1.0], (0,)), ValueError,
     "delta must be real, got complex entries"),
    # the coefficient vector of the lasso's stationarity check
    ("kkt-b-shape", lambda: kkt_residual(X, Y, np.zeros(2), 1.0), ValueError,
     r"b has shape \(2,\), expected \(3,\)"),
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


def test_ray_ratio_past_the_float_range_is_inf():
    # the ray (4e-309, 1) has a finite mass on T = (0,) whose ratio 1 / 4e-309
    # leaves float64: it reads inf, with no numpy warning, and the ray is
    # outside every cone
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = rn_check([[1.0, -4e-309]], (0,), 1.0)
    assert verdict.holds and verdict.witness is None
    assert verdict.critical_c == math.inf


def test_complex_vector_is_not_written(tmp_path):
    path = tmp_path / "v.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^v must be real, got complex entries$"):
            write_vector(str(path), [1.0, 2j])
    assert not path.exists()
