"""Dense linear algebra shared by the recovery experiments.

Everything operates on small float64 numpy arrays.  The nullspace is a
(p, d) array whose columns are its basis vectors; it comes from a
hand-written reduced row echelon form with partial pivoting, because on
the constructed family its integer pivots make ``X @ z == 0`` hold
exactly.  Least squares solves a whole block of equal-size supports
in stacked numpy calls: the normal equations where they are well posed,
the minimum-norm solution where they are numerically singular.  Every
rank decision uses the one tolerance DEFAULT_RANK_TOL, and every "exact
fit" test the one tolerance EXACT_FIT_RTOL.  ``real_array``, ``design``,
``coefficients``, ``column_sq``, ``real``, ``positive`` and ``integer`` are
the argument checks every module shares.
"""

import math

import numpy as np

# Rank decisions are made relative to the largest absolute entry of the
# matrix being examined; the nullspace's pivots relative to that of their
# own column.
DEFAULT_RANK_TOL = 1e-10

# A fit whose residual is at most this fraction of ||Y||_2 reproduces Y
# exactly, up to roundoff.
EXACT_FIT_RTOL = 1e-8


def real_array(name: str, a) -> np.ndarray:
    """a as a float array, as ``np.asarray(a, dtype=float)`` gives it: no
    copy of a float array, the same memory order.  A complex array is
    refused with a one-line ValueError, not cast to its real part."""
    a = np.asarray(a)
    if a.dtype.kind == "c":
        raise ValueError(f"{name} must be real, got complex entries")
    return a.astype(float, copy=False)


def design(X, Y=None):
    """X as a finite real matrix with at least one column, or (X, Y) with
    Y a finite real vector of one entry per row of X; else a one-line
    ValueError naming the shapes or the argument that is not finite or
    not real.  The arrays come from ``real_array``."""
    X = real_array("X", X)
    shapes, needs = f"X {X.shape}", "X must be a matrix with at least one column"
    if Y is not None:
        Y = real_array("Y", Y)
        shapes, needs = f"{shapes}, Y {Y.shape}", f"{needs} and a row per entry of Y"
    if X.ndim != 2 or X.shape[1] == 0 or Y is not None and Y.shape != X.shape[:1]:
        raise ValueError(f"incompatible shapes: {shapes}; {needs}")
    if not np.isfinite(X).all():
        raise ValueError("X must be finite")
    if Y is None:
        return X
    if not np.isfinite(Y).all():
        raise ValueError("Y must be finite")
    return X, Y


def coefficients(name: str, b, p: int) -> np.ndarray:
    """b as a finite real vector of length p, or a one-line ValueError."""
    b = real_array(name, b)
    if b.shape != (p,):
        raise ValueError(f"{name} has shape {b.shape}, expected {(p,)}")
    if not np.isfinite(b).all():
        raise ValueError(f"{name} must be finite")
    return b


def column_sq(X: np.ndarray) -> np.ndarray:
    """Squared l2 norms of the columns of X; a zero-norm column is refused."""
    col_sq = np.sum(X * X, axis=0)
    dead = np.flatnonzero(col_sq == 0.0)
    if dead.size:
        raise ValueError(f"column {int(dead[0])} has zero norm")
    return col_sq


def real(name: str, value) -> float:
    """A Python or numpy int or float as a float, or a one-line ValueError;
    a bool or a string is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {type(value).__name__}")
    return float(value)


def positive(name: str, value) -> float:
    """A constant as a positive finite float, or a one-line ValueError."""
    value = real(name, value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def integer(name: str, value, low: int, high: int | None = None) -> int:
    """A count as an int in [low, high] (no upper end when high is None),
    or a one-line ValueError; a bool or a float is not a count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {type(value).__name__}")
    if value < low or high is not None and value > high:
        bounds = f"be at least {low}" if high is None else f"lie in [{low}, {high}]"
        raise ValueError(f"{name} must {bounds}, got {value}")
    return int(value)


@np.errstate(over="raise")
def _rref(X: np.ndarray):
    """Reduced row echelon form with partial pivoting.

    Returns (R, pivot_cols).  Entries of column j below
    ``DEFAULT_RANK_TOL * max|X_j|``, that column's own largest absolute
    entry in X, are treated as zero when choosing pivots.  A step that
    overflows, as dividing by a pivot tiny next to the rest of its row
    can, raises FloatingPointError.
    """
    R = np.array(X, dtype=float, copy=True)
    n, p = R.shape
    tol_abs = DEFAULT_RANK_TOL * np.abs(R).max(axis=0, initial=0.0)
    pivot_cols: list[int] = []
    row = 0
    for col in range(p):
        if row >= n:
            break
        sub = np.abs(R[row:, col])
        k = int(np.argmax(sub))
        if sub[k] <= tol_abs[col]:
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


@np.errstate(over="ignore", invalid="ignore")
def nullspace(X) -> np.ndarray:
    """Nullspace basis of X via row reduction with partial pivoting.

    Parameters
    ----------
    X : array_like, shape (n, p)

    Returns
    -------
    ndarray, shape (p, d)
        One column per free column of X, normalized so its last nonzero
        coordinate equals 1; d = 0 for a trivial nullspace.  A pivot
        candidate in column j of X counts as zero below DEFAULT_RANK_TOL
        times that column's largest absolute entry, so columns of very
        different scales keep their pivots.  Each column v is checked to
        satisfy ||X v||_2 <= DEFAULT_RANK_TOL * sum_j |v_j| ||X_j||_2,
        column by column, so one huge column cannot excuse a vector that
        the others do not annihilate; else RuntimeError.  A row reduction
        that overflows, as a pivot tiny next to the rest of its row can
        make it, and a tolerance that overflows are refused with a
        RuntimeError too.  X must pass ``design``.
    """
    X = design(X)
    n, p = X.shape
    try:
        R, pivot_cols = _rref(X)
    except FloatingPointError:
        raise RuntimeError("the row reduction of X overflows; rescale the columns of X") from None
    free_cols = [c for c in range(p) if c not in pivot_cols]
    basis = []
    for c in free_cols:
        v = np.zeros(p)
        v[c] = 1.0
        for i, pc in enumerate(pivot_cols):
            v[pc] = -R[i, c]
        # rows that pivot after column c hold an exact 0 in it: v[c] = 1 is last
        basis.append(v)
    # hypot does not overflow where a column's squared norm would
    norms = np.hypot.reduce(X, axis=0)
    for v in basis:
        Xv = X @ v
        resid = math.sqrt(Xv.dot(Xv))
        tol = DEFAULT_RANK_TOL * float(np.abs(v) @ norms)
        if tol == math.inf:
            raise RuntimeError("the nullspace residual check overflows; rescale the columns of X")
        # a nan residual fails too
        if not resid <= tol:
            raise RuntimeError(
                f"nullspace vector fails the residual check: ||Xv|| = {resid:.3e} "
                f"against tolerance {tol:.3e}"
            )
    # C order (column_stack's) keeps products such as B @ V on one BLAS path
    return np.column_stack(basis) if basis else np.zeros((p, 0))


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
    X, Y : ndarray, shapes (n, p) and (n,), as ``design`` returns them
    supports : integer ndarray, shape (m, k)
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
    n = X.shape[0]
    m, k = supports.shape
    if k > n:
        raise ValueError(f"support size {k} exceeds the number of rows {n}")
    if k == 0:
        return np.zeros((m, 0)), np.full(m, math.sqrt(Y.dot(Y))), np.zeros(m, dtype=bool)
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
