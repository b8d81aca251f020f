"""Block designs on which greedy boosting provably never finds the truth.

The family is parameterized by a target cone constant ``c``: pick the
smallest square size n = N^2 with (n + 1 - sqrt(n)) / sqrt(n) > c, set
s = sqrt(n) and gamma = n, and build

    X = [ gamma * I_s      0        | gamma * 1 ]
        [     0         I_{n-s}     |     1     ]

with truth beta = (1, ..., 1, 0, ..., 0) carrying s ones.  The nullspace
of X is spanned by z = (-1, ..., -1, 1), so the restricted nullspace
property holds for every cone constant below (n + 1 - sqrt(n)) / sqrt(n),
yet boosting walks toward beta + z instead of beta.  Everything is built
in integer arithmetic and cast to float at the end, so X @ z = 0 and
Y = X @ beta hold exactly.

The reduced recursion tracks the only degrees of freedom a boosting run
ever touches on this design: the parameter stays of the form
(0, ..., 0, -c_{s+1}, ..., -c_n, c_p) with every coordinate in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import boosting
from .linalg import positive

# Tolerance for the [0, 1] box on reduced coordinates; violations beyond
# this would falsify the form invariant, not just accumulate roundoff.
COORD_SLACK = 1e-12


class InvariantViolation(RuntimeError):
    """A reduced-coordinate trajectory left its invariant region."""


@dataclass(frozen=True)
class SparseInstance:
    """A constructed design with its truth, response, and nullspace ray."""

    X: np.ndarray
    beta: np.ndarray
    Y: np.ndarray
    S: tuple[int, ...]
    s: int
    n: int
    p: int
    gamma: float
    c_target: float
    z: np.ndarray


@dataclass(frozen=True)
class AnalyticState:
    """Reduced coordinates (c_{s+1}, ..., c_n, c_p) after k iterations,
    and the index j the k-th step selected (None at k = 0, 0 for a no-op)."""

    c_mid: np.ndarray
    c_p: float
    k: int
    j: int | None = None


def _block_size(c: float) -> int:
    """Smallest N >= 3 (so n >= 9 >= 5) with (N^2 + 1 - N) / N > c,
    compared on integers against c * N to keep the boundary exact for
    integer and half-integer c.  Every N <= c fails (N - 1 + 1/N <= N),
    so the search starts at floor(c) and takes a few steps."""
    N = max(3, math.floor(c))
    while N * N + 1 - N <= c * N:
        if c * N == math.inf:
            raise ValueError(f"c = {c!r} is too large: the instance size overflows")
        N += 1
    return N


def construct(c: float) -> SparseInstance:
    """Smallest admissible instance whose cone margin exceeds ``c``."""
    c = positive("c", c)
    N = _block_size(c)
    n, s, p = N * N, N, N * N + 1
    gamma = n
    try:
        Xi = np.zeros((n, p), dtype=np.int64)
    except (ValueError, MemoryError):
        raise ValueError(
            f"c = {c!r} needs an instance of n = {n} rows and p = {p} columns, "
            "too large to allocate"
        ) from None
    for j in range(s):
        Xi[j, j] = gamma
    for j in range(s, n):
        Xi[j, j] = 1
    Xi[:s, n] = gamma
    Xi[s:, n] = 1
    beta_i = np.zeros(p, dtype=np.int64)
    beta_i[:s] = 1
    z_i = np.full(p, -1, dtype=np.int64)
    z_i[n] = 1
    Y_i = Xi @ beta_i
    return SparseInstance(
        X=Xi.astype(float),
        beta=beta_i.astype(float),
        Y=Y_i.astype(float),
        S=tuple(range(s)),
        s=s,
        n=n,
        p=p,
        gamma=float(gamma),
        c_target=c,
        z=z_i.astype(float),
    )


def _check_box(c_mid: np.ndarray, c_p: float, k: int) -> None:
    """Refuse a reduced state with a coordinate outside [0, 1] by more than
    COORD_SLACK, naming iteration k and the whole state's range."""
    lo = c_p if c_mid.size == 0 else min(float(c_mid.min()), c_p)
    hi = c_p if c_mid.size == 0 else max(float(c_mid.max()), c_p)
    if lo < -COORD_SLACK or hi > 1.0 + COORD_SLACK:
        raise InvariantViolation(
            f"reduced coordinate left [0, 1] at iteration {k}: range [{lo!r}, {hi!r}]"
        )


def _step(c_mid, c_p: float, k: int, inst: SparseInstance, nu: float, rho) -> tuple[int, float]:
    """One reduced step from iteration k (nu a checked float): fill the
    length-p buffer rho with the correlations (gamma * (1 - c_p) leading,
    c_j - c_p in the middle, the norm-weighted mixture last), move c_mid in
    place, return (j, new c_p).  Only the moved coordinate is box-checked:
    from a state inside the box no other can leave it."""
    g, s, n = inst.gamma, inst.s, inst.n
    mid = c_mid - c_p
    mixed = s * g * g * (1.0 - c_p) + float(mid.sum())
    rho[:s] = g * (1.0 - c_p)
    rho[s:n] = mid
    rho[n] = mixed / math.sqrt((g * g - 1.0) * s + n)
    j = boosting.select_index(rho)
    if rho.item(j) == 0.0:
        return j, c_p
    if j < s:
        raise InvariantViolation(f"leading column {j} won the correlation race at iteration {k}")
    if j == n:
        c_p += nu * (mixed / ((g * g - 1.0) * s + n))
        moved = c_p
    else:
        moved = c_mid[j - s] = (1.0 - nu) * c_mid.item(j - s) + nu * c_p
    if not -COORD_SLACK <= moved <= 1.0 + COORD_SLACK:
        _check_box(c_mid, c_p, k + 1)
    return j, c_p


def analytic_step(state: AnalyticState, inst: SparseInstance, nu: float) -> AnalyticState:
    """One greedy step in reduced coordinates.

    Only two selections can occur: the mixed column (which advances c_p
    by nu * Delta) or a middle column (which averages its coordinate
    toward c_p).  A leading-block selection, or a coordinate of the given
    state or of the moved one outside [0, 1] by more than COORD_SLACK,
    raises InvariantViolation, as it would falsify the form invariant the
    construction is built on; from a state inside the box no coordinate
    the step leaves alone can leave it.
    An all-zero correlation vector is a no-op, matching the matrix side.
    The state (c_mid of n - s numbers, read as floats, a number c_p and a
    count k) and nu in (0, 1] are taken as given.
    """
    c_mid, c_p = np.array(state.c_mid, dtype=float), float(state.c_p)
    _check_box(c_mid, c_p, state.k)
    j, c_p = _step(c_mid, c_p, state.k, inst, float(nu), np.empty(inst.p))
    return AnalyticState(c_mid=c_mid, c_p=c_p, k=state.k + 1, j=j)


def equivalence_check(inst: SparseInstance, nu: float, iterations: int) -> float:
    """Lockstep the full-matrix run against the reduced recursion.

    Both sides advance together until ``iterations`` steps or until the
    matrix residual drops to BoostingConfig's default floor of 1e-12
    (past that point every correlation underflows to exact zero on one
    side but not the other, so comparison stops being meaningful).
    Returns the largest l-inf deviation between the two parameter
    trajectories; a differing selection raises immediately, naming the
    iteration.  The recursion steps one float c_mid in place from zero,
    and both checks read only the selected column j: no other coordinate
    moved, so by induction all lie in the box, and no other entry of
    beta + shift (beta minus (0, ..., 0, -c_{s+1}, ..., -c_n, c_p)) moved.
    """
    config = boosting.BoostingConfig(nu=nu, max_iterations=iterations)
    nu = float(config.nu)
    s, n = inst.s, inst.n
    c_mid, c_p, rho = np.zeros(n - s), 0.0, np.empty(inst.p)
    deviation = 0.0
    for k, jm, _, beta, _, _ in boosting.iterate(inst.X, inst.Y, config):
        if k:
            j, c_p = _step(c_mid, c_p, k - 1, inst, nu, rho)
            if jm != j:
                raise RuntimeError(
                    f"selection mismatch at iteration {k}: "
                    f"matrix picked {jm}, recursion picked {j}"
                )
            # the shift (0, ..., 0, c_{s+1}, ..., c_n, -c_p) at j
            gap = beta.item(j) + (0.0 if j < s else c_mid.item(j - s) if j < n else -c_p)
            deviation = max(deviation, abs(gap))
    return deviation
