"""Dense linear algebra shared by the recovery experiments.

Everything operates on small float64 numpy arrays.  The nullspace comes
from a hand-written reduced row echelon form with partial pivoting,
because on the constructed family its integer pivots make ``X @ z == 0``
hold exactly.  Least squares solves a whole block of equal-size supports
in stacked numpy calls: the normal equations where they are well posed,
the minimum-norm solution where they are numerically singular.  Every
rank decision uses the one tolerance DEFAULT_RANK_TOL, and every "exact
fit" test the one tolerance EXACT_FIT_RTOL.
"""

import math
from dataclasses import dataclass, field

import numpy as np

# Rank decisions are made relative to the largest absolute entry of the
# matrix being examined.
DEFAULT_RANK_TOL = 1e-10

# A fit whose residual is at most this fraction of ||Y||_2 reproduces Y
# exactly, up to roundoff.
EXACT_FIT_RTOL = 1e-8


def lq_norm(v, q) -> float:
    """l_q norm of a vector for q in {1, 2, inf}."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got array of shape {v.shape}")
    if v.size == 0:
        return 0.0
    if q == 1:
        return float(np.abs(v).sum())
    if q == 2:
        return float(math.sqrt(np.dot(v, v)))
    if q == math.inf:
        return float(np.max(np.abs(v)))
    raise ValueError(f"unsupported norm order {q!r}; use 1, 2 or math.inf")


def _rref(X: np.ndarray):
    """Reduced row echelon form with partial pivoting.

    Returns (R, pivot_cols).  Entries below ``DEFAULT_RANK_TOL * max|X|``
    are treated as zero when choosing pivots.
    """
    R = np.array(X, dtype=float, copy=True)
    n, p = R.shape
    scale = float(np.max(np.abs(R))) if R.size else 0.0
    tol_abs = DEFAULT_RANK_TOL * scale
    pivot_cols: list[int] = []
    row = 0
    for col in range(p):
        if row >= n:
            break
        sub = np.abs(R[row:, col])
        k = int(np.argmax(sub))
        if sub[k] <= tol_abs:
            R[row:, col] = 0.0
            continue
        piv = row + k
        if piv != row:
            R[[row, piv]] = R[[piv, row]]
        R[row] = R[row] / R[row, col]
        for i in range(n):
            if i != row and R[i, col] != 0.0:
                R[i] = R[i] - R[i, col] * R[row]
                R[i, col] = 0.0
        pivot_cols.append(col)
        row += 1
    return R, pivot_cols


@dataclass
class NullspaceBasis:
    """Basis of the nullspace of a matrix.

    ``basis`` holds ``dim`` vectors in R^p, each normalized so that its last
    nonzero coordinate equals 1.
    """

    dim: int
    basis: list[np.ndarray] = field(default_factory=list)

    def matrix(self) -> np.ndarray:
        """Basis vectors stacked as the columns of a (p, dim) array."""
        if self.dim == 0:
            raise ValueError("nullspace is trivial; no basis matrix to return")
        return np.column_stack(self.basis)


def nullspace(X) -> NullspaceBasis:
    """Nullspace basis of X via row reduction with partial pivoting.

    Parameters
    ----------
    X : array_like, shape (n, p)

    Returns
    -------
    NullspaceBasis
        One vector per free column, normalized so the last nonzero
        coordinate equals 1.  Pivots below DEFAULT_RANK_TOL times the
        largest absolute entry of X count as zero, and each vector v is
        checked to satisfy ||X v||_2 <= DEFAULT_RANK_TOL * ||v||_2 * max|X|.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, p = X.shape
    R, pivot_cols = _rref(X)
    free_cols = [c for c in range(p) if c not in pivot_cols]
    basis = []
    for c in free_cols:
        v = np.zeros(p)
        v[c] = 1.0
        for i, pc in enumerate(pivot_cols):
            v[pc] = -R[i, c]
        nz = np.nonzero(v)[0]
        last = nz[-1]
        if v[last] != 1.0:
            v = v / v[last]
        basis.append(v)
    scale = float(np.max(np.abs(X))) if X.size else 0.0
    for v in basis:
        resid = lq_norm(X @ v, 2)
        if resid > DEFAULT_RANK_TOL * lq_norm(v, 2) * scale:
            raise RuntimeError(
                f"nullspace vector fails the residual check: ||Xv|| = {resid:.3e} "
                f"against tolerance {DEFAULT_RANK_TOL * lq_norm(v, 2) * scale:.3e}"
            )
    return NullspaceBasis(dim=len(basis), basis=basis)


def submatrices(X: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """The column submatrices X[:, T] for each row T of ``supports``, stacked.

    Returns an (m, n, k) view whose matrices are Fortran-ordered.  Stacked
    numpy kernels on that layout give, matrix by matrix, the same bits as
    the one-support expressions on ``X[:, list(T)]`` (``A.T @ A``,
    ``A.T @ Y``, ``A @ b``), which a C-ordered copy does not.
    """
    return X.T[supports].swapaxes(1, 2)


def least_squares_batch(X, Y, supports) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least squares on a block of equal-size supports in stacked numpy calls.

    Parameters
    ----------
    X : array_like, shape (n, p)
    Y : array_like, shape (n,)
    supports : integer array, shape (m, k)
        One support per row; the caller guarantees valid, unique indices.

    Returns
    -------
    (coeffs, residual_norms, rank_deficient)
        Arrays of shapes (m, k), (m,) and (m,).  A support is
        rank-deficient when the smallest eigenvalue of its Gram matrix
        X_T' X_T is at most DEFAULT_RANK_TOL times the Gram matrix's
        largest absolute entry; it gets the minimum-norm solution, every
        other support the solution of its normal equations.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.asarray(Y, dtype=float)
    supports = np.asarray(supports, dtype=np.intp)
    n = X.shape[0]
    m, k = supports.shape
    if k > n:
        raise ValueError(f"support size {k} exceeds the number of rows {n}")
    if k == 0:
        return np.zeros((m, 0)), np.full(m, lq_norm(Y, 2)), np.zeros(m, dtype=bool)
    A = submatrices(X, supports)
    At = A.swapaxes(1, 2)
    G = At @ A
    deficient = np.linalg.eigvalsh(G)[:, 0] <= DEFAULT_RANK_TOL * np.abs(G).max(axis=(1, 2))
    full = ~deficient
    coeffs = np.empty((m, k))
    coeffs[full] = np.linalg.solve(G[full], (At[full] @ Y)[:, :, None])[:, :, 0]
    for i in deficient.nonzero()[0]:
        coeffs[i] = np.linalg.lstsq(A[i], Y, rcond=None)[0]
    R = Y - (A @ coeffs[:, :, None])[:, :, 0]
    residual_norms = np.sqrt((R[:, None, :] @ R[:, :, None])[:, 0, 0])
    return coeffs, residual_norms, deficient
