import importlib

import numpy as np
import pytest

from sparselab import (
    LassoConfig,
    LassoPathConfig,
    basis_pursuit,
    kkt_residual,
    lambda_max,
    lasso,
    lasso_path,
)


def test_lambda_max_frozen(inst9, inst25):
    # 2 * s * gamma^2 through the mixed column
    assert lambda_max(inst9.X, inst9.Y) == 486.0
    assert lambda_max(inst25.X, inst25.Y) == 6250.0


def test_config_validation():
    with pytest.raises(ValueError):
        LassoConfig(lam=-1.0)
    with pytest.raises(ValueError):
        LassoPathConfig(lambda_min=0.0)


def test_single_column_closed_form():
    X = np.array([[1.0], [0.0]])
    Y = np.array([3.0, 4.0])
    fit = lasso(X, Y, LassoConfig(lam=2.0))
    # soft-threshold the correlation at lam / 2
    assert fit.beta[0] == pytest.approx(2.0, abs=1e-14)
    assert fit.kkt <= 1e-12
    assert fit.converged


def test_orthogonal_design_closed_form():
    X = np.diag([2.0, 1.0, 3.0])
    Y = np.array([4.0, -1.0, 0.3])
    fit = lasso(X, Y, LassoConfig(lam=1.0))
    expected = np.array([7.5 / 4.0, -0.5, 0.4 / 9.0])
    np.testing.assert_allclose(fit.beta, expected, atol=1e-12)
    assert fit.kkt <= 1e-10


def test_zero_solution_at_lambda_max():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((10, 6))
    Y = rng.standard_normal(10)
    fit = lasso(X, Y, LassoConfig(lam=lambda_max(X, Y)))
    assert np.all(fit.beta == 0.0)
    assert fit.kkt <= 1e-12


def test_kkt_residual_flags_violations():
    X = np.eye(2)
    Y = np.array([3.0, 0.0])
    # at b = 0 the first coordinate violates stationarity by |3| - 1
    assert kkt_residual(X, Y, np.zeros(2), 2.0) == pytest.approx(2.0)
    # the exact solution soft(3, 1) = 2 has zero residual
    assert kkt_residual(X, Y, np.array([2.0, 0.0]), 2.0) <= 1e-14


def test_warm_path_matches_cold_solves():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((20, 10))
    Y = rng.standard_normal(20)
    config = LassoPathConfig(lambda_min=1e-4 * lambda_max(X, Y))
    points = lasso_path(X, Y, config)
    for point in points:
        cold = lasso(X, Y, LassoConfig(lam=point.lam))
        assert cold.converged and point.converged
        assert np.max(np.abs(cold.beta - point.beta)) <= 1e-6


def test_path_grid_shape(inst9):
    lam_max = lambda_max(inst9.X, inst9.Y)
    lam_min = 1e-4 * lam_max
    points = lasso_path(inst9.X, inst9.Y, LassoPathConfig(lambda_min=lam_min))
    lams = [p.lam for p in points]
    assert lams[0] == lam_max
    assert lams[-1] == lam_min
    assert all(b < a for a, b in zip(lams, lams[1:]))
    # halving is exact in floats, so interior ratios are exactly 0.5
    assert all(b == 0.5 * a for a, b in zip(lams[:-2], lams[1:-1]))


def test_path_rejects_high_floor(inst9):
    with pytest.raises(ValueError):
        lasso_path(inst9.X, inst9.Y, LassoPathConfig(lambda_min=1e6))


def test_path_orthogonal_target_is_zero():
    X = np.array([[1.0], [0.0]])
    Y = np.array([0.0, 5.0])
    points = lasso_path(X, Y, LassoPathConfig(lambda_min=1e-3))
    assert len(points) == 1
    assert np.all(points[0].beta == 0.0)
    assert points[0].converged


def test_nonconvergence_is_flagged_not_raised(monkeypatch):
    # the package exports the function lasso under the module's name
    monkeypatch.setattr(importlib.import_module("sparselab.lasso"), "MAX_SWEEPS", 1)
    rng = np.random.default_rng(23)
    X = rng.standard_normal((15, 12))
    Y = rng.standard_normal(15)
    fit = lasso(X, Y, LassoConfig(lam=1e-8))
    assert not fit.converged
    assert fit.sweeps == 1


def test_basis_pursuit_exact_on_construction(inst9):
    config = LassoPathConfig(lambda_min=1e-6 * lambda_max(inst9.X, inst9.Y))
    recovered = basis_pursuit(inst9.X, inst9.Y, config)
    np.testing.assert_array_equal(recovered, inst9.beta)


def test_basis_pursuit_zero_target(inst9):
    out = basis_pursuit(inst9.X, np.zeros(inst9.n), LassoPathConfig(lambda_min=1e-3))
    assert np.all(out == 0.0)


def test_basis_pursuit_refuses_shallow_path(inst9):
    # a floor this high leaves a residual far from interpolation
    config = LassoPathConfig(lambda_min=0.25 * lambda_max(inst9.X, inst9.Y))
    with pytest.raises(RuntimeError, match="lambda_min"):
        basis_pursuit(inst9.X, inst9.Y, config)
