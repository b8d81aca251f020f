"""Lasso by cyclic coordinate descent, plus a geometric penalty path.

The objective is ||Y - X b||_2^2 + lam * ||b||_1 with no sample-size
normalization, so the soft-threshold level is lam / 2 and the smallest
penalty with an all-zero solution is lambda_max = 2 * max_j |<X_j, Y>|.
A single solve and every point of the path share one result type,
``PathPoint``; the solver's limits are module constants.  Minimum-l1
interpolation (basis pursuit) is realized as the terminal point of a
decaying path followed by a least-squares polish on the detected
support.

Sweeps skip certified zero coordinates.  The correlations g = X'r that
each sweep computes for its KKT stop also bound, by a rounding-aware
error analysis (at ``_ROUNDOFF``), what a later visit of a zero coordinate
can compute while the residual stays within a budget of where g was
taken.  A coordinate whose bound stays inside the dead zone |c| <= lam/2
would compute new == old == 0 and leave r untouched, so skipping it
moves no bit: every iterate, sweep count and KKT value is that of the
full sweep.  Once the residual's running drift passes the budget, the
rest of that sweep visits every index and the next g certifies anew.
While a certificate holds, the KKT stop reads only the uncertified
coordinates: a certified one is zero with |g_j| <= lam/2, so its violation
is exactly 0.0.  The dots use strided column views of X, the same BLAS
ddot as ``X[:, j] @ r``; a contiguous copy could take a SIMD kernel whose
summation order moves bits.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .linalg import EXACT_FIT_RTOL, least_squares_batch, lq_norm

# Slack for the per-sweep objective monotonicity guard, relative to the
# current objective scale.  Exact arithmetic decreases the objective
# every sweep; anything beyond roundoff signals a broken update.
_OBJECTIVE_SLACK = 1e-10

# A solve stops once its stationarity residual is at most KKT_TOLERANCE,
# or unconverged after MAX_SWEEPS sweeps.
KKT_TOLERANCE = 1e-10
MAX_SWEEPS = 100_000
# Ratio of consecutive penalties on the path grid.
PATH_DECAY = 0.5
# basis_pursuit refits the terminal entries above this fraction of the
# largest one.
SUPPORT_THRESHOLD = 1e-6

# Screening certificate of lasso().  Let u = _ROUNDOFF be the unit roundoff,
# gamma = n u / (1 - n u), r0 the residual when the certificate is taken,
# g = fl(X' r0), and r a later residual with ||r - r0|| <= D.  A computed
# dot product of length n, in any summation order, is within
# gamma ||x|| ||y|| of the exact one, so a visit of coordinate j computes
#   |fl(X_j . r)| <= |X_j . r0| + ||X_j|| D + gamma ||X_j|| (||r0|| + D)
#                 <= |g_j| + ||X_j|| (2 gamma ||r0|| + (1 + gamma) D).
# An update r <- fl(r + fl(step X_k)) moves r by at most
# (1 + u)^2 |step| ||X_k|| + u (||r0|| + D), and the sweep adds
# |step| norm_k + u (r0_norm + D) to its running bound `drift`.  A zero
# coordinate is certified for a budget B when
#   (lam/2 - |g_j|) / norm_j >= 2 (2 gamma r0_norm + (1 + gamma) B).
# The factor 2 covers the rounding of norm_j, r0_norm, drift and of the
# test itself, each a relative error of order gamma.  While drift <= B the
# bound stays at most lam/2, so the visit would compute new == old == 0
# and leave r untouched: skipping it changes no bit.  The bounds ignore
# underflow, which adds at most n 2^-1074 to a dot product or an update;
# a budget of at least _SCREEN_FLOOR on columns whose squared norms are at
# least _SCREEN_FLOOR^2 keeps that far below the margin.
_ROUNDOFF = 2.0**-53
_SCREEN_FLOOR = 2.0**-250


class PathPoint(NamedTuple):
    """One solve: its penalty, solution, and how the solver fared."""

    lam: float
    beta: np.ndarray
    converged: bool
    kkt: float
    sweeps: int


def _kkt(g, b, half: float, idx) -> float:
    """Largest stationarity violation (nan if any is) of b over idx, given
    the correlations g = X'r as float sequences; 0.0 for an empty idx."""
    worst = 0.0
    for j in idx:
        gj, bj = g[j], b[j]
        slack = abs(gj) - half if bj == 0.0 else abs(gj - math.copysign(half, bj))
        if slack > worst or slack != slack:
            worst = slack
    return worst


@np.errstate(over="ignore", invalid="ignore")
def kkt_residual(X, Y, b, lam: float) -> float:
    """Distance to stationarity for the penalized objective.

    For b_j = 0 the gradient must sit inside [-lam/2, lam/2]; for
    b_j != 0 it must equal (lam/2) * sign(b_j).  Returns the largest
    violation over coordinates, 0 at an exact minimizer, inf on overflow.
    """
    X, Y = _design(X, Y)
    lam = _penalty("lam", lam)
    b = np.asarray(b, dtype=float)
    if b.shape != (X.shape[1],):
        raise ValueError(f"b has shape {b.shape}, expected {(X.shape[1],)}")
    if not np.isfinite(b).all():
        raise ValueError("b must be finite")
    return _kkt((X.T @ (Y - X @ b)).tolist(), b.tolist(), 0.5 * lam, range(b.size))


def _penalty(name: str, value) -> float:
    """A penalty as a positive finite float, or a one-line ValueError."""
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def _design(X, Y) -> tuple[np.ndarray, np.ndarray]:
    """X and Y as finite float arrays: an n x p matrix with p >= 1 and a
    length-n vector, or a ValueError naming both shapes or the non-finite
    argument."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or X.shape[1] == 0 or Y.ndim != 1 or Y.size != X.shape[0]:
        raise ValueError(
            f"incompatible shapes: X {X.shape}, Y {Y.shape}; "
            "X needs at least one column and a row per entry of Y"
        )
    if not np.isfinite(X).all():
        raise ValueError("X must be finite")
    if not np.isfinite(Y).all():
        raise ValueError("Y must be finite")
    return X, Y


@np.errstate(over="ignore", invalid="ignore")
def lambda_max(X, Y) -> float:
    """Smallest penalty whose solution is identically zero."""
    X, Y = _design(X, Y)
    top = 2.0 * float(np.max(np.abs(X.T @ Y)))
    if not math.isfinite(top):
        raise ValueError("X'Y overflows; rescale X and Y")
    return top


@np.errstate(over="ignore", invalid="ignore")
def lasso(X, Y, lam: float, warm_start=None) -> PathPoint:
    """Cyclic coordinate descent with an in-place residual, at penalty lam
    from ``warm_start`` (zero when None).

    Coordinates sweep in fixed order 0..p-1, skipping the zero
    coordinates a certificate shows inert (see the module docstring).
    The run stops when the stationarity residual reaches KKT_TOLERANCE;
    hitting MAX_SWEEPS first returns the current iterate with
    ``converged=False`` rather than raising.  A sweep whose objective
    overflows to inf or nan raises ValueError; one that increases the
    objective beyond roundoff raises RuntimeError since the update rule
    forbids it.
    """
    X, Y = _design(X, Y)
    lam = _penalty("lam", lam)
    n, p = X.shape
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
        if not np.isfinite(b).all():
            raise ValueError("warm start must be finite")
        r = Y - X @ b
    else:
        b = np.zeros(p)
        r = Y.copy()
    half = 0.5 * lam
    # b is read through its Python-float mirror bl; tmp takes step * X_j, so
    # r + tmp has the two roundings of r += step * X_j without a temporary.
    cols = [X[:, j] for j in range(p)]
    dots = [col.dot for col in cols]
    bl = b.tolist()
    tmp, abs_b = np.empty(n), np.empty(p)
    multiply, add, copysign = np.multiply, np.add, math.copysign
    sq = col_sq.tolist()
    norms = np.sqrt(col_sq)
    col_norm = norms.tolist()
    gamma = n * _ROUNDOFF / (1.0 - n * _ROUNDOFF)
    screenable = float(np.min(col_sq)) >= _SCREEN_FLOOR**2
    every = list(range(p))
    # Without a certificate the sweep visits every index and never runs out.
    visit, budget, drift, r0_norm = every, math.inf, 0.0, 0.0
    prev_obj = float(r.dot(r) + lam * np.add.reduce(np.abs(b, abs_b)))
    kkt = math.inf
    for sweep in range(1, MAX_SWEEPS + 1):
        k = 0
        while k < len(visit):
            j = visit[k]
            k += 1
            old = bl[j]
            full_corr = float(dots[j](r)) + sq[j] * old
            mag = abs(full_corr) - half
            new = 0.0 if mag <= 0.0 else copysign(mag, full_corr) / sq[j]
            if new != old:
                step = old - new
                add(r, multiply(cols[j], step, tmp), r)
                b[j] = bl[j] = new
                drift += abs(step) * col_norm[j] + _ROUNDOFF * (r0_norm + drift)
                if drift > budget:
                    # The certificate ran out: visit every index after j.
                    visit, k, budget = every, j + 1, math.inf
        obj = float(r.dot(r) + lam * np.add.reduce(np.abs(b, abs_b)))
        if not math.isfinite(obj):
            raise ValueError(
                f"coordinate sweep {sweep} overflowed to objective {obj!r}; "
                "rescale X and Y"
            )
        if obj > prev_obj + _OBJECTIVE_SLACK * (1.0 + abs(prev_obj)):
            raise RuntimeError(
                f"coordinate sweep {sweep} increased the objective "
                f"from {prev_obj!r} to {obj!r}"
            )
        prev_obj = obj
        g = X.T @ r
        kkt = _kkt(g.tolist(), bl, half, visit)
        if kkt <= KKT_TOLERANCE:
            return PathPoint(lam, b, converged=True, kkt=kkt, sweeps=sweep)
        if visit is every and screenable:
            # A new certificate (derivation at _ROUNDOFF): the budget is a
            # quarter of the largest headroom, so every zero coordinate with
            # about half of it or more is certified.
            r0_norm = math.sqrt(float(r.dot(r)))
            head = np.where(b == 0.0, (half - np.abs(g)) / norms, -math.inf)
            budget = 0.25 * float(np.max(head))
            certified = head >= 2.0 * (2.0 * gamma * r0_norm + (1.0 + gamma) * budget)
            if budget >= _SCREEN_FLOOR and certified.any():
                visit, drift = np.flatnonzero(~certified).tolist(), 0.0
            else:
                budget = math.inf
    return PathPoint(lam, b, converged=False, kkt=kkt, sweeps=MAX_SWEEPS)


def lasso_path(X, Y, lambda_min: float) -> list[PathPoint]:
    """Warm-started solves along a geometrically decaying penalty grid.

    The path starts at lambda_max = 2 * max_j |<X_j, Y>|, decays by
    PATH_DECAY per point, and the final point is clamped to exactly
    ``lambda_min`` so callers can rely on the terminal penalty.
    """
    X, Y = _design(X, Y)
    lambda_min = _penalty("lambda_min", lambda_min)
    start = lambda_max(X, Y)
    if start == 0.0:
        # Y is orthogonal to every column; the whole path is zero.
        return [PathPoint(lambda_min, np.zeros(X.shape[1]), True, 0.0, 0)]
    if lambda_min >= start:
        raise ValueError(
            f"lambda_min {lambda_min!r} is not below the path start {start!r}"
        )
    grid = [start]
    while grid[-1] * PATH_DECAY > lambda_min:
        grid.append(grid[-1] * PATH_DECAY)
    grid.append(lambda_min)
    points: list[PathPoint] = []
    warm = np.zeros(X.shape[1])
    for lam in grid:
        points.append(lasso(X, Y, lam, warm_start=warm))
        warm = points[-1].beta
    return points


def basis_pursuit(X, Y, lambda_min: float) -> np.ndarray:
    """Minimum-l1 interpolation via the terminal path point plus polish.

    The terminal solution's support (entries above
    ``SUPPORT_THRESHOLD * max_j |b_j|``) is refit by least squares; the
    polished vector must reproduce Y to EXACT_FIT_RTOL relative or the
    path did not get close enough and the caller should lower
    ``lambda_min``.
    """
    X, Y = _design(X, Y)
    # Y = 0 takes lasso_path's all-zero path, so lambda_min is checked there
    terminal = lasso_path(X, Y, lambda_min)[-1].beta
    peak = float(np.max(np.abs(terminal)))
    support = np.flatnonzero(np.abs(terminal) > SUPPORT_THRESHOLD * peak)
    polished = np.zeros(X.shape[1])
    polished[support] = least_squares_batch(X, Y, support[None, :])[0][0]
    if lq_norm(Y - X @ polished, 2) > EXACT_FIT_RTOL * lq_norm(Y, 2):
        raise RuntimeError(
            "terminal path solution did not reach a feasible interpolant; "
            "decrease lambda_min"
        )
    return polished
