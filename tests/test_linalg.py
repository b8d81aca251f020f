import itertools
import math

import numpy as np
import pytest

from sparselab import lq_norm, nullspace
from sparselab.linalg import least_squares_batch


def test_lq_norm_values():
    v = [3.0, -4.0, 0.0]
    assert lq_norm(v, 1) == 7.0
    assert lq_norm(v, 2) == 5.0
    assert lq_norm(v, math.inf) == 4.0
    assert lq_norm([], 2) == 0.0


def test_lq_norm_rejects_matrices():
    with pytest.raises(ValueError):
        lq_norm(np.eye(2), 2)


def test_nullspace_duplicate_column():
    # third column = 2 * first, so the kernel is spanned by (-2, 0, 1)
    X = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]])
    ns = nullspace(X)
    assert ns.shape == (3, 1)
    np.testing.assert_allclose(ns[:, 0], [-2.0, 0.0, 1.0], atol=1e-12)


def test_nullspace_full_rank_has_no_basis_matrix():
    # a trivial nullspace is a basis matrix with no columns
    assert nullspace(np.eye(3)).shape == (3, 0)


def test_nullspace_columns_form_one_c_ordered_array():
    # two orthogonal pairs of duplicated columns; C order keeps products
    # with the basis on one BLAS path
    X = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
    ns = nullspace(X)
    assert ns.shape == (4, 2) and ns.flags.c_contiguous
    np.testing.assert_array_equal(ns, [[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(X @ ns, np.zeros((2, 2)))


def test_nullspace_vectors_annihilate(inst25):
    ns = nullspace(inst25.X)
    assert ns.shape == (inst25.p, 1)
    z = ns[:, 0]
    assert z[-1] == 1.0
    assert lq_norm(inst25.X @ z, 2) <= 1e-10 * lq_norm(z, 2) * np.max(np.abs(inst25.X))
    # the construction ships the same ray in integer form
    np.testing.assert_allclose(z, inst25.z, atol=1e-12)


def _fit_one(X, Y, T):
    """least_squares_batch on a one-row block: (coeffs, residual_norm,
    rank_deficient) of the single support T."""
    coeffs, residual_norms, deficient = least_squares_batch(X, Y, np.array([T], dtype=np.intp))
    return coeffs[0], float(residual_norms[0]), bool(deficient[0])


def test_least_squares_orthogonality():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((12, 6))
    Y = rng.standard_normal(12)
    support = (0, 2, 5)
    coeffs, residual_norm, deficient = _fit_one(X, Y, support)
    resid = Y - X[:, list(support)] @ coeffs
    # normal equations: the residual is orthogonal to every kept column
    assert np.max(np.abs(X[:, list(support)].T @ resid)) <= 1e-9
    assert residual_norm == pytest.approx(lq_norm(resid, 2), rel=1e-12)
    assert not deficient


def test_least_squares_empty_support():
    Y = np.array([3.0, 4.0])
    coeffs, residual_norm, deficient = _fit_one(np.eye(2), Y, ())
    assert coeffs.size == 0
    assert residual_norm == 5.0
    assert not deficient


def test_least_squares_rank_deficient_flag():
    X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    _, residual_norm, deficient = _fit_one(X, X @ np.array([1.0, 1.0]), (0, 1))
    assert deficient
    assert residual_norm <= 1e-9


def test_least_squares_nearly_deficient_gets_min_norm_fit():
    # column 2 = 2 * column 1 + 1e-9: independent in exact arithmetic, but
    # the Gram matrix has condition number ~1e20, beyond what the normal
    # equations can solve, so the fit must be flagged and go through the
    # minimum-norm solver, which still recovers the generating coefficients
    a = np.array([1.0, 2.0, 3.0])
    X = np.column_stack([a, 2.0 * a + 1e-9])
    Y = X @ np.array([1.0, 1.0])
    coeffs, residual_norm, deficient = _fit_one(X, Y, (0, 1))
    assert deficient
    assert residual_norm <= 1e-12 * lq_norm(Y, 2)
    np.testing.assert_allclose(coeffs, [1.0, 1.0], atol=1e-4)


def _fit_one_at_a_time(X, Y, T):
    """The per-support least squares the batched kernel replaced: the
    reference its flags, decisions and coefficients must reproduce."""
    A = X[:, list(T)]
    G = A.T @ A
    deficient = bool(np.linalg.eigvalsh(G)[0] <= 1e-10 * np.abs(G).max())
    if deficient:
        coeffs = np.linalg.lstsq(A, Y, rcond=None)[0]
    else:
        coeffs = np.linalg.solve(G, A.T @ Y)
    return coeffs, lq_norm(Y - A @ coeffs, 2), deficient


def _nearly_deficient_design():
    # columns 1-3 are 2 * column 0 plus 1e-9, 1e-4 u and 1e-3 u: the pair
    # {0, 1} is far below the deficiency threshold, {0, 2} just below it
    # (smallest eigenvalue 3.2e-11 of the largest Gram entry) and {0, 3}
    # above it (3.2e-9), so flagged supports take the minimum-norm fallback
    # and the rest the normal equations
    rng = np.random.default_rng(11)
    a = np.arange(1.0, 7.0)
    u = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    near = [2.0 * a + 1e-9, 2.0 * a + 1e-4 * u, 2.0 * a + 1e-3 * u]
    X = np.column_stack([a, *near, rng.standard_normal((6, 2))])
    return X, X @ np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])


def _seeded_gaussian_design():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((12, 14))
    return X, X[:, [1, 4, 9]] @ np.array([1.0, -2.0, 0.5])


@pytest.mark.parametrize("design", ["n9", "gaussian", "nearly-deficient"])
def test_least_squares_batch_matches_one_support_at_a_time(design, inst9):
    X, Y = {
        "n9": lambda: (inst9.X, inst9.Y),
        "gaussian": _seeded_gaussian_design,
        "nearly-deficient": _nearly_deficient_design,
    }[design]()
    tol = 1e-8 * lq_norm(Y, 2)
    flagged = tested = 0
    for size in (1, 2, 3):
        supports = np.array(list(itertools.combinations(range(X.shape[1]), size)))
        coeffs, residual_norms, deficient = least_squares_batch(X, Y, supports)
        for i, T in enumerate(map(tuple, supports.tolist())):
            ref_coeffs, ref_resid, ref_deficient = _fit_one_at_a_time(X, Y, T)
            one_coeffs, one_resid, one_deficient = _fit_one(X, Y, T)
            assert deficient[i] == one_deficient == ref_deficient, T
            fits = (residual_norms[i] <= tol, one_resid <= tol, ref_resid <= tol)
            assert fits[0] == fits[1] == fits[2], T
            # the same kernels on the same layout: bit-identical arithmetic
            assert np.array_equal(coeffs[i], ref_coeffs), T
            assert np.array_equal(one_coeffs, ref_coeffs), T
            assert residual_norms[i] == one_resid == ref_resid, T
        flagged += int(deficient.sum())
        tested += len(supports)
    if design == "nearly-deficient":
        assert 0 < flagged < tested
    else:
        assert flagged == 0


def test_least_squares_batch_refuses_oversized_supports():
    with pytest.raises(ValueError, match="exceeds the number of rows"):
        least_squares_batch(np.eye(2), np.ones(2), np.array([[0, 1, 2]]))
