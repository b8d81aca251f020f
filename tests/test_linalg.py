import math

import numpy as np
import pytest

from sparselab import (
    inner,
    least_squares_on_support,
    lq_norm,
    nullspace,
)


def test_lq_norm_values():
    v = [3.0, -4.0, 0.0]
    assert lq_norm(v, 1) == 7.0
    assert lq_norm(v, 2) == 5.0
    assert lq_norm(v, math.inf) == 4.0
    assert lq_norm([], 2) == 0.0


def test_lq_norm_rejects_matrices():
    with pytest.raises(ValueError):
        lq_norm(np.eye(2), 2)


def test_inner():
    assert inner([1.0, 2.0], [3.0, -1.0]) == 1.0


def test_nullspace_duplicate_column():
    # third column = 2 * first, so the kernel is spanned by (-2, 0, 1)
    X = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]])
    ns = nullspace(X)
    assert ns.dim == 1
    np.testing.assert_allclose(ns.basis[0], [-2.0, 0.0, 1.0], atol=1e-12)


def test_nullspace_full_rank_has_no_basis_matrix():
    ns = nullspace(np.eye(3))
    assert ns.dim == 0
    with pytest.raises(ValueError):
        ns.matrix()


def test_nullspace_vectors_annihilate(inst25):
    ns = nullspace(inst25.X)
    assert ns.dim == 1
    z = ns.basis[0]
    assert z[-1] == 1.0
    assert lq_norm(inst25.X @ z, 2) <= 1e-10 * lq_norm(z, 2) * np.max(np.abs(inst25.X))
    # the construction ships the same ray in integer form
    np.testing.assert_allclose(z, inst25.z, atol=1e-12)


def test_least_squares_orthogonality():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((12, 6))
    Y = rng.standard_normal(12)
    support = (0, 2, 5)
    fit = least_squares_on_support(X, Y, support)
    resid = Y - X[:, list(support)] @ fit.coeffs
    # normal equations: the residual is orthogonal to every kept column
    assert np.max(np.abs(X[:, list(support)].T @ resid)) <= 1e-9
    assert fit.residual_norm == pytest.approx(lq_norm(resid, 2), rel=1e-12)
    assert not fit.rank_deficient


def test_least_squares_empty_support():
    Y = np.array([3.0, 4.0])
    fit = least_squares_on_support(np.eye(2), Y, ())
    assert fit.coeffs.size == 0
    assert fit.residual_norm == 5.0
    assert not fit.rank_deficient


def test_least_squares_rank_deficient_flag():
    X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    fit = least_squares_on_support(X, X @ np.array([1.0, 1.0]), (0, 1))
    assert fit.rank_deficient
    assert fit.residual_norm <= 1e-9


def test_least_squares_nearly_deficient_gets_min_norm_fit():
    # column 2 = 2 * column 1 + 1e-9: independent in exact arithmetic, but
    # the Gram matrix has condition number ~1e20, beyond what the normal
    # equations can solve, so the fit must be flagged and go through the
    # minimum-norm solver, which still recovers the generating coefficients
    a = np.array([1.0, 2.0, 3.0])
    X = np.column_stack([a, 2.0 * a + 1e-9])
    Y = X @ np.array([1.0, 1.0])
    fit = least_squares_on_support(X, Y, (0, 1))
    assert fit.rank_deficient
    assert fit.residual_norm <= 1e-12 * lq_norm(Y, 2)
    np.testing.assert_allclose(fit.coeffs, [1.0, 1.0], atol=1e-4)
