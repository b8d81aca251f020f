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
full sweep.  Once the residual's running drift, a sum of step lengths,
passes the budget, the sweep measures how far r has moved since g; within
half the budget that becomes the drift, and past it the rest of that sweep
visits every index and the next g certifies anew.
While a certificate holds, the KKT stop reads only the uncertified
coordinates: a certified one is zero with |g_j| <= lam/2, so its violation
is exactly 0.0.

A column with one nonzero entry x, at row i, is updated in scalar
arithmetic: every column of the constructed family but the mixed one has
that shape.  Its dot with r is x * r[i], which is the BLAS ddot's result
in any summation order, with or without FMA: every other product is a
signed zero, which cannot change a nonzero sum, and a zero sum arises only
with old == 0, where the soft-threshold returns 0.0 for either sign.  Its
update r[i] + x * step has the two roundings of the ufunc pair
r + step * X_j, whose other entries only gain a signed zero; no signed
zero of r reaches beta, the KKT value, the objective or the certificate.
So every iterate, sweep count and KKT value keeps its bits on finite
data.  A sweep that overflows raises the same ValueError at the same
sweep, but the objective it names may read inf where the ufunc pair, whose
0 * inf spreads nan over r, read nan.  Every other column is read as a
strided view of X, with the same BLAS ddot as ``X[:, j] @ r``; a
contiguous copy could take a SIMD kernel whose summation order moves bits.

The stop test of a screened sweep reads the single-entry columns it
visited first.  Such a column's entry of the BLAS product X'r is x * r[i]
by the argument above, up to the sign of a zero, which no stationarity
violation reads.  So if one of their violations is above KKT_TOLERANCE,
or nan, so is the KKT value over every visited coordinate: the sweep
cannot stop, and, being screened, takes no certificate, so it skips X'r
and the KKT scan.  A sweep over every index still takes X'r, since its g
seeds the next certificate, and so does sweep MAX_SWEEPS, since an
unconverged solve reports that sweep's KKT value.  Every other sweep
computes g and the KKT value as before, so nothing returned moves a bit;
on a design without single-entry columns every sweep does.

Rounding can make the iterates cycle.  A sweep has the bits of the full
sweep, a function of b and r (up to signed zeros of r, which move no bit),
so if b and r after sweep t are those after sweep t' < t, every later sweep
repeats one of sweeps t'+1..t, none of which stopped or raised.  Sweeps 1,
2, 4, 8, ... save the objective and the bytes of b and r; a later sweep
with the same objective compares the bytes, and on a match goes on as
sweep MAX_SWEEPS - (MAX_SWEEPS - t) mod (t - t'), whose iterate it has.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .linalg import (
    EXACT_FIT_RTOL,
    coefficients,
    column_sq,
    design,
    least_squares_batch,
    positive,
)

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
# Once drift passes B it is re-measured: d = fl(r - r0) is within 1 + u of
# r - r0 entrywise, and s = fl(d . d) within gamma of ||d||^2 plus n 2^-1074
# of underflow, so, as fl(sqrt(s)) >= (1 - u) sqrt(s) and gamma >= u,
#   ||r - r0|| <= (1 + 3 gamma) fl(sqrt(s)) + 2 sqrt(n) 2^-537,
# whose last term the factor 2 covers, as it is far below _SCREEN_FLOOR.
# A bound of at most B/2 becomes drift; a larger one ends the certificate.
_ROUNDOFF = 2.0**-53
_SCREEN_FLOOR = 2.0**-250


class PathPoint(NamedTuple):
    """One solve: its penalty, solution, and how the solver fared."""

    lam: float
    beta: np.ndarray
    converged: bool
    kkt: float
    sweeps: int


def _slack(gj: float, bj: float, half: float) -> float:
    """Stationarity violation of one coordinate b_j with correlation g_j."""
    return abs(gj) - half if bj == 0.0 else abs(gj - math.copysign(half, bj))


def _kkt(g, b, half: float, idx) -> float:
    """Largest stationarity violation (nan if any is) of b over idx, given
    the correlations g = X'r as float sequences; 0.0 for an empty idx."""
    worst = 0.0
    for j in idx:
        slack = _slack(g[j], b[j], half)
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
    X, Y = design(X, Y)
    lam = positive("lam", lam)
    b = coefficients("b", b, X.shape[1])
    return _kkt((X.T @ (Y - X @ b)).tolist(), b.tolist(), 0.5 * lam, range(b.size))


@np.errstate(over="ignore", invalid="ignore")
def lambda_max(X, Y) -> float:
    """Smallest penalty whose solution is identically zero."""
    X, Y = design(X, Y)
    top = 2.0 * float(np.max(np.abs(X.T @ Y)))
    if not math.isfinite(top):
        raise ValueError("X'Y overflows; rescale X and Y")
    return top


def lasso(X, Y, lam: float) -> PathPoint:
    """The lasso minimizer at penalty lam, by coordinate descent from zero."""
    X, Y = design(X, Y)
    lam = positive("lam", lam)
    return _descend(X, Y, lam, np.zeros(X.shape[1]), Y.copy())


@np.errstate(over="ignore", invalid="ignore")
def _descend(X, Y, lam: float, b: np.ndarray, r: np.ndarray) -> PathPoint:
    """Cyclic coordinate descent at penalty lam from b, whose residual
    Y - X b is r; r is updated in place, and b by the time it returns.  The
    caller has checked X, Y and lam.

    Coordinates sweep in fixed order 0..p-1, skipping the zero
    coordinates a certificate shows inert, and a column with one nonzero
    entry takes scalar arithmetic (see the module docstring).
    The run stops when the stationarity residual reaches KKT_TOLERANCE,
    read from X'r only once the visited single-entry columns allow it;
    hitting MAX_SWEEPS first returns the current iterate with
    ``converged=False`` rather than raising, skipping whole periods of
    iterates that cycle.  A sweep whose objective overflows to inf or nan
    raises ValueError; one that increases the objective beyond roundoff
    raises RuntimeError since the update rule forbids it.
    """
    n, p = X.shape
    col_sq = column_sq(X)
    half = 0.5 * lam
    # b is read through its Python-float mirror bl, and abs_b keeps |b| for
    # the objective; b itself is written from bl only where it is read.  tmp
    # takes step * X_j, so r + tmp has the two roundings of r += step * X_j
    # without a temporary.
    # every[j] is all that a visit of coordinate j reads: j, the dot method
    # of column j, the column, the row and value of its one nonzero entry
    # (row -1 when it has more; see the module docstring), its squared norm
    # and its norm
    nonzero = X != 0.0
    first = nonzero.argmax(axis=0)
    rows = np.where(nonzero.sum(axis=0) == 1, first, -1).tolist()
    entry = X[first, np.arange(p)].tolist()
    norms = np.sqrt(col_sq)
    cols = [X[:, j] for j in range(p)]
    dots = [col.dot for col in cols]
    every = list(zip(range(p), dots, cols, rows, entry, col_sq.tolist(), norms.tolist()))
    item = r.item
    bl = b.tolist()
    tmp, abs_b = np.empty(n), np.empty(p)
    multiply, add, subtract, copysign = np.multiply, np.add, np.subtract, math.copysign
    reduce, isfinite, max_sweeps, roundoff = np.add.reduce, math.isfinite, MAX_SWEEPS, _ROUNDOFF
    gamma = n * roundoff / (1.0 - n * roundoff)
    lift = 1.0 + 3.0 * gamma
    screenable = float(np.min(col_sq)) >= _SCREEN_FLOOR**2
    # Without a certificate the sweep visits every index and never runs out;
    # singles are the (index, row, entry) of its visited single-entry columns.
    visit, budget, drift, r0_norm, singles = every, math.inf, 0.0, 0.0, []
    prev_obj = float(r.dot(r) + lam * reduce(np.abs(b, abs_b)))
    kkt = math.inf
    # the objective, b and r after sweep `seen`, the last power of two
    sweep, seen, seen_obj, seen_b, seen_r = 0, 0, math.nan, b"", b""
    while sweep < max_sweeps:
        sweep += 1
        for j, dot, col, i, x, sq, norm in visit:
            old = bl[j]
            if i < 0:
                full_corr = float(dot(r)) + sq * old
            else:
                r_i = item(i)
                full_corr = x * r_i + sq * old
            mag = abs(full_corr) - half
            new = 0.0 if mag <= 0.0 else copysign(mag, full_corr) / sq
            if new != old:
                step = old - new
                if i < 0:
                    add(r, multiply(col, step, tmp), r)
                else:
                    r[i] = r_i + x * step
                bl[j] = new
                abs_b[j] = abs(new)
                drift += abs(step) * norm + roundoff * (r0_norm + drift)
                if drift > budget:
                    # Re-measure the drift (derivation at _ROUNDOFF).  Past
                    # half the budget the certificate ran out: the rest of the
                    # sweep visits every index after j, written over the tail
                    # of the list this loop reads.
                    drift = lift * math.sqrt(float(subtract(r, r0, tmp).dot(tmp)))
                    if not drift <= 0.5 * budget:
                        visit[visit.index(every[j]) + 1 :] = every[j + 1 :]
                        visit, budget = every, math.inf
        obj = float(r.dot(r)) + lam * float(reduce(abs_b))
        if not isfinite(obj):
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
        if obj == seen_obj or sweep & (sweep - 1) == 0:
            b[:] = bl
        if obj == seen_obj and b.tobytes() == seen_b and r.tobytes() == seen_r:
            # a cycle of period sweep - seen, which never stops (module
            # docstring): go on as the last sweep before MAX_SWEEPS with
            # this iterate
            sweep = max_sweeps - (max_sweeps - sweep) % (sweep - seen)
        elif sweep & (sweep - 1) == 0:
            seen, seen_obj, seen_b, seen_r = sweep, obj, b.tobytes(), r.tobytes()
        # A screened sweep before the last cannot stop while a single-entry
        # column it visited violates at g_j = x * r[i] (module docstring).
        if visit is not every and sweep < max_sweeps:
            violated = False
            for j, i, x in singles:
                if not _slack(x * item(i), bl[j], half) <= KKT_TOLERANCE:
                    violated = True
                    break
            if violated:
                continue
        g = X.T @ r
        kkt = _kkt(g.tolist(), bl, half, [rec[0] for rec in visit])
        if kkt <= KKT_TOLERANCE:
            b[:] = bl
            return PathPoint(lam, b, converged=True, kkt=kkt, sweeps=sweep)
        if visit is every and screenable:
            b[:] = bl
            # A new certificate (derivation at _ROUNDOFF): the budget is a
            # quarter of the largest headroom, so every zero coordinate with
            # about half of it or more is certified.
            r0, r0_norm = r.copy(), math.sqrt(float(r.dot(r)))
            head = np.where(b == 0.0, (half - np.abs(g)) / norms, -math.inf)
            budget = 0.25 * float(np.max(head))
            certified = head >= 2.0 * (2.0 * gamma * r0_norm + (1.0 + gamma) * budget)
            if budget >= _SCREEN_FLOOR and certified.any():
                visit, drift = [every[j] for j in np.flatnonzero(~certified)], 0.0
                singles = [(j, i, x) for j, _, _, i, x, _, _ in visit if i >= 0]
            else:
                budget = math.inf
    b[:] = bl
    return PathPoint(lam, b, converged=False, kkt=kkt, sweeps=max_sweeps)


@np.errstate(over="ignore", invalid="ignore")
def lasso_path(X, Y, lambda_min: float) -> list[PathPoint]:
    """Warm-started solves along a geometrically decaying penalty grid.

    The path starts at lambda_max = 2 * max_j |<X_j, Y>|, decays by
    PATH_DECAY per point, and the final point is clamped to exactly
    ``lambda_min`` so callers can rely on the terminal penalty.
    """
    X, Y = design(X, Y)
    lambda_min = positive("lambda_min", lambda_min)
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
        points.append(_descend(X, Y, lam, warm.copy(), Y - X @ warm))
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
    X, Y = design(X, Y)
    # Y = 0 takes lasso_path's all-zero path, so lambda_min is checked there
    terminal = lasso_path(X, Y, lambda_min)[-1].beta
    peak = float(np.max(np.abs(terminal)))
    support = np.flatnonzero(np.abs(terminal) > SUPPORT_THRESHOLD * peak)
    polished = np.zeros(X.shape[1])
    polished[support] = least_squares_batch(X, Y, support[None, :])[0][0]
    gap = Y - X @ polished
    if math.sqrt(gap.dot(gap)) > EXACT_FIT_RTOL * math.sqrt(Y.dot(Y)):
        raise RuntimeError(
            "terminal path solution did not reach a feasible interpolant; "
            "decrease lambda_min"
        )
    return polished
