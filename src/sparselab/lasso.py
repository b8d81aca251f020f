"""Lasso by cyclic coordinate descent, plus a geometric penalty path.

The objective is ||Y - X b||_2^2 + lam * ||b||_1 with no sample-size
normalization, so the soft-threshold level is lam / 2 and the smallest
penalty with an all-zero solution is lambda_max = 2 * max_j |<X_j, Y>|.
A single solve and every point of the path share one result type,
``PathPoint``; the solver's limits are module constants.  Minimum-l1
interpolation (basis pursuit) is realized as the terminal point of a
decaying path followed by a least-squares polish on the detected
support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import EXACT_FIT_RTOL, least_squares_on_support, lq_norm

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


@dataclass(frozen=True)
class LassoConfig:
    """Penalty and starting point for a single solve."""

    lam: float
    warm_start: np.ndarray | None = None

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"lam must be positive and finite, got {self.lam}")


@dataclass(frozen=True)
class LassoPathConfig:
    """Geometric path from lambda_max down to lambda_min.

    The path starts at lambda_max = 2 * max_j |<X_j, Y>|, decays by
    PATH_DECAY per point, and the final point is clamped to exactly
    ``lambda_min`` so callers can rely on the terminal penalty.
    """

    lambda_min: float

    def __post_init__(self):
        if not (math.isfinite(self.lambda_min) and self.lambda_min > 0.0):
            raise ValueError("lambda_min must be positive and finite")


class PathPoint(NamedTuple):
    """One solve: its penalty, solution, and how the solver fared."""

    lam: float
    beta: np.ndarray
    converged: bool
    kkt: float
    sweeps: int


def _soft(value: float, threshold: float) -> float:
    mag = abs(value) - threshold
    if mag <= 0.0:
        return 0.0
    return math.copysign(mag, value)


def _kkt(g: np.ndarray, b: np.ndarray, half: float) -> float:
    """Largest stationarity violation of b given the correlations g = X'r."""
    slack = np.where(
        b == 0.0,
        np.maximum(np.abs(g) - half, 0.0),
        np.abs(g - half * np.sign(b)),
    )
    return float(np.max(slack))


def kkt_residual(X, Y, b, lam: float) -> float:
    """Distance to stationarity for the penalized objective.

    For b_j = 0 the gradient must sit inside [-lam/2, lam/2]; for
    b_j != 0 it must equal (lam/2) * sign(b_j).  Returns the largest
    violation over coordinates, 0 at an exact minimizer.
    """
    X = np.asarray(X, dtype=float)
    b = np.asarray(b, dtype=float)
    r = np.asarray(Y, dtype=float) - X @ b
    return _kkt(X.T @ r, b, 0.5 * lam)


def lambda_max(X, Y) -> float:
    """Smallest penalty whose solution is identically zero."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    return 2.0 * float(np.max(np.abs(X.T @ Y)))


def lasso(X, Y, config: LassoConfig) -> PathPoint:
    """Cyclic coordinate descent with an in-place residual.

    Coordinates sweep in fixed order 0..p-1.  The run stops when the
    stationarity residual reaches KKT_TOLERANCE; hitting MAX_SWEEPS
    first returns the current iterate with ``converged=False`` rather
    than raising.  A sweep whose objective overflows to inf or nan raises
    ValueError; one that increases the objective beyond roundoff raises
    RuntimeError since the update rule forbids it.
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
    if config.warm_start is not None:
        b = np.asarray(config.warm_start, dtype=float).copy()
        if b.shape != (p,):
            raise ValueError(
                f"warm start has shape {b.shape}, expected {(p,)}"
            )
        r = Y - X @ b
    else:
        b = np.zeros(p)
        r = Y.copy()
    half = 0.5 * config.lam
    prev_obj = float(r @ r + config.lam * np.sum(np.abs(b)))
    kkt = math.inf
    for sweep in range(1, MAX_SWEEPS + 1):
        for j in range(p):
            old = b[j]
            full_corr = float(X[:, j] @ r) + col_sq[j] * old
            new = _soft(full_corr, half) / col_sq[j]
            if new != old:
                r += (old - new) * X[:, j]
                b[j] = new
        obj = float(r @ r + config.lam * np.sum(np.abs(b)))
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
        kkt = _kkt(X.T @ r, b, half)
        if kkt <= KKT_TOLERANCE:
            return PathPoint(config.lam, b, converged=True, kkt=kkt, sweeps=sweep)
    return PathPoint(config.lam, b, converged=False, kkt=kkt, sweeps=MAX_SWEEPS)


def lasso_path(X, Y, config: LassoPathConfig) -> list[PathPoint]:
    """Warm-started solves along a geometrically decaying penalty grid."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    start = lambda_max(X, Y)
    if start == 0.0:
        # Y is orthogonal to every column; the whole path is zero.
        return [PathPoint(config.lambda_min, np.zeros(X.shape[1]), True, 0.0, 0)]
    if config.lambda_min >= start:
        raise ValueError(
            f"lambda_min {config.lambda_min!r} is not below the path start {start!r}"
        )
    grid = [start]
    while grid[-1] * PATH_DECAY > config.lambda_min:
        grid.append(grid[-1] * PATH_DECAY)
    grid.append(config.lambda_min)
    points: list[PathPoint] = []
    warm = np.zeros(X.shape[1])
    for lam in grid:
        points.append(lasso(X, Y, LassoConfig(lam=lam, warm_start=warm)))
        warm = points[-1].beta
    return points


def basis_pursuit(X, Y, config: LassoPathConfig) -> np.ndarray:
    """Minimum-l1 interpolation via the terminal path point plus polish.

    The terminal solution's support (entries above
    ``SUPPORT_THRESHOLD * max_j |b_j|``) is refit by least squares; the
    polished vector must reproduce Y to EXACT_FIT_RTOL relative or the
    path did not get close enough and the caller should lower
    ``lambda_min``.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    y_norm = lq_norm(Y, 2)
    if y_norm == 0.0:
        return np.zeros(X.shape[1])
    terminal = lasso_path(X, Y, config)[-1].beta
    peak = float(np.max(np.abs(terminal)))
    support = tuple(
        int(j) for j in np.flatnonzero(np.abs(terminal) > SUPPORT_THRESHOLD * peak)
    )
    fit = least_squares_on_support(X, Y, support)
    polished = np.zeros(X.shape[1])
    polished[list(support)] = fit.coeffs
    if lq_norm(Y - X @ polished, 2) > EXACT_FIT_RTOL * y_norm:
        raise RuntimeError(
            "terminal path solution did not reach a feasible interpolant; "
            "decrease lambda_min"
        )
    return polished
