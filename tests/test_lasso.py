import importlib
import math
import re
import warnings

import numpy as np
import pytest

from sparselab import (
    basis_pursuit,
    construct,
    kkt_residual,
    lambda_max,
    lasso,
    lasso_path,
)
from sparselab.lasso import PathPoint, _kkt
from sparselab.report import LAMBDA_MIN_FACTOR

# the package exports the function lasso under the module's name
LASSO = importlib.import_module("sparselab.lasso")


def test_lambda_max_frozen(inst9, inst25):
    # 2 * s * gamma^2 through the mixed column
    assert lambda_max(inst9.X, inst9.Y) == 486.0
    assert lambda_max(inst25.X, inst25.Y) == 6250.0


def test_config_validation():
    # every entry that takes a penalty refuses one that is not positive
    # and finite, in one line and with no numpy warning first
    X, Y = np.eye(2), np.ones(2)
    for name, solve in [
        ("lam", lambda bad: lasso(X, Y, bad)),
        ("lambda_min", lambda bad: lasso_path(X, Y, bad)),
        # a zero target has its penalty checked too
        ("lambda_min", lambda bad: basis_pursuit(X, np.zeros(2), bad)),
        ("lam", lambda bad: kkt_residual(X, Y, np.zeros(2), bad)),
    ]:
        for bad in (-1.0, 0.0, -2.0, math.nan, math.inf):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got "):
                    solve(bad)


@pytest.mark.parametrize(
    "solve",
    [
        lambda X, Y: lasso(X, Y, 1.0),
        lambda X, Y: lasso_path(X, Y, 1e-3),
        lambda X, Y: basis_pursuit(X, Y, 1e-3),
        lambda_max,
        lambda X, Y: kkt_residual(X, Y, np.zeros(2), 1.0),
    ],
    ids=["lasso", "lasso_path", "basis_pursuit", "lambda_max", "kkt_residual"],
)
@pytest.mark.parametrize(
    "X, Y",
    [
        (np.zeros((3, 0)), np.ones(3)),
        (np.ones(3), np.ones(3)),
        (np.ones((3, 2)), np.ones(4)),
    ],
    ids=["no-columns", "1-d-matrix", "short-matrix"],
)
def test_solvers_refuse_bad_shapes(solve, X, Y):
    with pytest.raises(ValueError, match=re.escape(f"X {X.shape}, Y {Y.shape}")):
        solve(X, Y)


def test_kkt_residual_refuses_a_b_of_the_wrong_length():
    with pytest.raises(ValueError, match=re.escape("b has shape (3,), expected (2,)")):
        kkt_residual(np.ones((3, 2)), np.ones(3), np.zeros(3), 1.0)


NAN_Y = np.array([1.0, math.nan, 2.0])
HUGE_X, HUGE_Y = np.array([[1e200, 1.0], [1.0, 1.0]]), np.array([1e200, 1.0])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: lambda_max(np.eye(3), NAN_Y), "Y must be finite"),
        (lambda: lasso_path(np.eye(3), NAN_Y, 1e-3), "Y must be finite"),
        (lambda: lasso(np.eye(3), NAN_Y, 1.0), "Y must be finite"),
        (lambda: basis_pursuit(np.eye(3), NAN_Y, 1e-3), "Y must be finite"),
        (lambda: lasso(np.diag([1.0, math.inf, 1.0]), np.ones(3), 1.0), "X must be finite"),
        (
            lambda: lasso(np.eye(3), np.ones(3), 1.0, warm_start=[0.0, math.inf, 0.0]),
            "warm start must be finite",
        ),
        (lambda: kkt_residual(np.eye(3), np.ones(3), [math.nan, 0.0, 0.0], 1.0), "b must be finite"),
        # finite input that overflows: from an infinite lambda_max,
        # lasso_path would grow its penalty grid without end
        (lambda: lambda_max(HUGE_X, HUGE_Y), "X'Y overflows; rescale X and Y"),
        (
            lambda: lasso(HUGE_X, HUGE_Y, 1.0),
            "coordinate sweep 1 overflowed to objective nan; rescale X and Y",
        ),
    ],
    ids=[
        "lambda_max", "lasso_path", "lasso", "basis_pursuit", "X", "warm-start",
        "kkt_residual-b", "lambda_max-overflow", "lasso-overflow",
    ],
)
def test_solvers_refuse_non_finite_input(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


def test_single_column_closed_form():
    X = np.array([[1.0], [0.0]])
    Y = np.array([3.0, 4.0])
    fit = lasso(X, Y, 2.0)
    # soft-threshold the correlation at lam / 2
    assert fit.beta[0] == pytest.approx(2.0, abs=1e-14)
    assert fit.kkt <= 1e-12
    assert fit.converged


def test_orthogonal_design_closed_form():
    X = np.diag([2.0, 1.0, 3.0])
    Y = np.array([4.0, -1.0, 0.3])
    fit = lasso(X, Y, 1.0)
    expected = np.array([7.5 / 4.0, -0.5, 0.4 / 9.0])
    np.testing.assert_allclose(fit.beta, expected, atol=1e-12)
    assert fit.kkt <= 1e-10


def test_zero_solution_at_lambda_max():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((10, 6))
    Y = rng.standard_normal(10)
    fit = lasso(X, Y, lambda_max(X, Y))
    assert np.all(fit.beta == 0.0)
    assert fit.kkt <= 1e-12


def test_kkt_residual_flags_violations():
    X = np.eye(2)
    Y = np.array([3.0, 0.0])
    # at b = 0 the first coordinate violates stationarity by |3| - 1
    assert kkt_residual(X, Y, np.zeros(2), 2.0) == pytest.approx(2.0)
    # the exact solution soft(3, 1) = 2 has zero residual
    assert kkt_residual(X, Y, np.array([2.0, 0.0]), 2.0) <= 1e-14
    # an overflowing gradient is an infinite violation, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kkt_residual([[1e308, 1e308]], [0.0], np.array([10.0, 10.0]), 1.0) == math.inf


def test_warm_path_matches_cold_solves():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((20, 10))
    Y = rng.standard_normal(20)
    points = lasso_path(X, Y, 1e-4 * lambda_max(X, Y))
    for point in points:
        cold = lasso(X, Y, point.lam)
        assert cold.converged and point.converged
        assert np.max(np.abs(cold.beta - point.beta)) <= 1e-6


def test_path_grid_shape(inst9):
    lam_max = lambda_max(inst9.X, inst9.Y)
    lam_min = 1e-4 * lam_max
    points = lasso_path(inst9.X, inst9.Y, lam_min)
    lams = [p.lam for p in points]
    assert lams[0] == lam_max
    assert lams[-1] == lam_min
    assert all(b < a for a, b in zip(lams, lams[1:]))
    # halving is exact in floats, so interior ratios are exactly 0.5
    assert all(b == 0.5 * a for a, b in zip(lams[:-2], lams[1:-1]))


def test_path_rejects_high_floor(inst9):
    with pytest.raises(ValueError):
        lasso_path(inst9.X, inst9.Y, 1e6)


def test_path_orthogonal_target_is_zero():
    X = np.array([[1.0], [0.0]])
    Y = np.array([0.0, 5.0])
    points = lasso_path(X, Y, 1e-3)
    assert len(points) == 1
    assert np.all(points[0].beta == 0.0)
    assert points[0].converged


def test_nonconvergence_is_flagged_not_raised(monkeypatch):
    # the package exports the function lasso under the module's name
    monkeypatch.setattr(importlib.import_module("sparselab.lasso"), "MAX_SWEEPS", 1)
    rng = np.random.default_rng(23)
    X = rng.standard_normal((15, 12))
    Y = rng.standard_normal(15)
    fit = lasso(X, Y, 1e-8)
    assert not fit.converged
    assert fit.sweeps == 1


def test_basis_pursuit_exact_on_construction(inst9):
    recovered = basis_pursuit(inst9.X, inst9.Y, 1e-6 * lambda_max(inst9.X, inst9.Y))
    np.testing.assert_array_equal(recovered, inst9.beta)


def test_basis_pursuit_zero_target(inst9):
    out = basis_pursuit(inst9.X, np.zeros(inst9.n), 1e-3)
    assert np.all(out == 0.0)


def test_basis_pursuit_refuses_shallow_path(inst9):
    # a floor this high leaves a residual far from interpolation
    with pytest.raises(RuntimeError, match="lambda_min"):
        basis_pursuit(inst9.X, inst9.Y, 0.25 * lambda_max(inst9.X, inst9.Y))


def _reference_kkt(g, b, half):
    """The numpy KKT rule of the full-sweep reference below, verbatim."""
    slack = np.where(
        b == 0.0,
        np.maximum(np.abs(g) - half, 0.0),
        np.abs(g - half * np.sign(b)),
    )
    return float(np.max(slack))


def test_kkt_matches_the_numpy_rule_bit_for_bit():
    rng = np.random.default_rng(31)
    half = 0.75
    for _ in range(200):
        p = int(rng.integers(1, 40))
        g = rng.standard_normal(p)
        b = rng.standard_normal(p) * (rng.random(p) < 0.5)
        b[rng.random(p) < 0.1] = -0.0
        # exact ties |g_j| == half, at zero and at nonzero b_j of either sign
        ties = rng.random(p) < 0.2
        g[ties] = half * rng.choice([-1.0, 1.0], ties.sum())
        want = _reference_kkt(g, b, half)
        got = _kkt(g.tolist(), b.tolist(), half, range(p))
        assert float.hex(got) == float.hex(want)
        X = np.eye(p)
        Y = b + g
        assert float.hex(kkt_residual(X, Y, b, 2.0 * half)) == float.hex(
            _reference_kkt(X.T @ (Y - X @ b), b, half)
        )
    # a nan violation wins wherever it sits, as it does in np.max
    for g in ([math.nan, 5.0], [5.0, math.nan]):
        assert math.isnan(_kkt(g, [0.0, 0.0], half, range(2)))


# --- screening keeps every bit ---------------------------------------------


def _reference_soft(value, threshold):
    """The soft threshold of the full-sweep reference below, verbatim."""
    mag = abs(value) - threshold
    if mag <= 0.0:
        return 0.0
    return math.copysign(mag, value)


def _full_sweep_lasso(X, Y, lam, warm_start=None):
    """Reference: the coordinate descent before screening, verbatim.

    Every sweep visits all p coordinates, so it pins what screened sweeps
    must reproduce bit for bit.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or Y.ndim != 1 or Y.size != X.shape[0]:
        raise ValueError(
            f"incompatible shapes: X {X.shape}, Y {np.shape(Y)}"
        )
    p = X.shape[1]
    col_sq = np.sum(X * X, axis=0)
    dead = np.flatnonzero(col_sq == 0.0)
    if dead.size:
        raise ValueError(f"column {int(dead[0])} has zero norm")
    if warm_start is not None:
        b = np.asarray(warm_start, dtype=float).copy()
        if b.shape != (p,):
            raise ValueError(
                f"warm start has shape {b.shape}, expected {(p,)}"
            )
        r = Y - X @ b
    else:
        b = np.zeros(p)
        r = Y.copy()
    half = 0.5 * lam
    prev_obj = float(r @ r + lam * np.sum(np.abs(b)))
    kkt = math.inf
    for sweep in range(1, LASSO.MAX_SWEEPS + 1):
        for j in range(p):
            old = b[j]
            full_corr = float(X[:, j] @ r) + col_sq[j] * old
            new = _reference_soft(full_corr, half) / col_sq[j]
            if new != old:
                r += (old - new) * X[:, j]
                b[j] = new
        obj = float(r @ r + lam * np.sum(np.abs(b)))
        if not math.isfinite(obj):
            raise ValueError(
                f"coordinate sweep {sweep} overflowed to objective {obj!r}; "
                "rescale X and Y"
            )
        if obj > prev_obj + LASSO._OBJECTIVE_SLACK * (1.0 + abs(prev_obj)):
            raise RuntimeError(
                f"coordinate sweep {sweep} increased the objective "
                f"from {prev_obj!r} to {obj!r}"
            )
        prev_obj = obj
        kkt = _reference_kkt(X.T @ r, b, half)
        if kkt <= LASSO.KKT_TOLERANCE:
            return PathPoint(lam, b, converged=True, kkt=kkt, sweeps=sweep)
    return PathPoint(lam, b, converged=False, kkt=kkt, sweeps=LASSO.MAX_SWEEPS)


def _bits(point):
    return (
        float.hex(float(point.lam)),
        point.beta.tobytes(),
        float.hex(point.kkt),
        point.sweeps,
        point.converged,
    )


def _gaussian_p_above_n():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((60, 120))
    beta = np.zeros(120)
    beta[rng.choice(120, 6, replace=False)] = rng.standard_normal(6)
    return X, X @ beta + 0.01 * rng.standard_normal(60), 1e-3


def _duplicate_column():
    rng = np.random.default_rng(29)
    X = rng.standard_normal((20, 10))
    X[:, 7] = X[:, 2]
    return X, X @ np.array([0, 0, 2.0, 0, -1.0, 0, 0, 0, 0, 0.5]), 1e-6


def _headroom_runs_out():
    # two nearly parallel columns; see test_screening_headroom_runs_out_mid_sweep
    rng = np.random.default_rng(264)
    X = rng.standard_normal((6, 4))
    X[:, 1] = X[:, 0] + 0.1 * rng.standard_normal(6)
    return X, rng.standard_normal(6), 0.1


def _family(c):
    def design():
        inst = construct(c)
        return inst.X, inst.Y, LAMBDA_MIN_FACTOR

    return design


# LASSO.lasso is looked up at call time, so the test can swap in the reference
def _path(X, Y, factor):
    return LASSO.lasso_path(X, Y, factor * lambda_max(X, Y))


def _cold_solve(X, Y, factor):
    return [LASSO.lasso(X, Y, factor * lambda_max(X, Y))]


SCREENING_CASES = {
    "family-n9": (_family(1.0), _path),
    "family-n25": (_family(4.0), _path),
    "gaussian-60x120": (_gaussian_p_above_n, _path),
    "duplicate-column": (_duplicate_column, _path),
    "headroom-runs-out": (_headroom_runs_out, _cold_solve),
}


@pytest.mark.parametrize("name", sorted(SCREENING_CASES))
def test_screened_solves_match_full_sweeps_bit_for_bit(name, monkeypatch):
    design, solve = SCREENING_CASES[name]
    X, Y, factor = design()
    points = solve(X, Y, factor)
    monkeypatch.setattr(LASSO, "lasso", _full_sweep_lasso)
    reference = solve(X, Y, factor)
    assert [_bits(p) for p in points] == [_bits(p) for p in reference]
    if name == "family-n25":
        assert sum(p.sweeps for p in points) == 50_742


def test_screening_duplicate_column_has_no_headroom():
    # once column 2 is in the support its exact twin, column 7, sits on the
    # edge of the dead zone, so no certificate ever skips it
    X, Y, factor = _duplicate_column()
    points = lasso_path(X, Y, factor * lambda_max(X, Y))
    active = [p for p in points if p.beta[2] != 0.0]
    assert len(active) > 1
    for point in active:
        g = X.T @ (Y - X @ point.beta)
        assert 0.5 * point.lam - abs(g[7]) <= LASSO.KKT_TOLERANCE


def test_screening_headroom_runs_out_mid_sweep(monkeypatch):
    # After the first sweep column 3 is zero well inside the dead zone, so it
    # is certified.  The second sweep drops column 0 from the support, which
    # moves the residual past the certificate's budget; column 3 comes later
    # in that same sweep and must be visited, because it enters there.
    X, Y, factor = _headroom_runs_out()
    lam = factor * lambda_max(X, Y)
    monkeypatch.setattr(LASSO, "MAX_SWEEPS", 1)
    first = lasso(X, Y, lam)
    monkeypatch.setattr(LASSO, "MAX_SWEEPS", 2)
    second = lasso(X, Y, lam)
    g = X.T @ (Y - X @ first.beta)
    assert first.beta[3] == 0.0 and abs(g[3]) < 0.5 * 0.5 * lam
    assert first.beta[0] != 0.0 and second.beta[0] == 0.0
    assert second.beta[3] != 0.0
