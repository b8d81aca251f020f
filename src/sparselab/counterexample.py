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
    if not (isinstance(c, (int, float)) and math.isfinite(c) and c > 0):
        raise ValueError(f"c must be a positive finite number, got {c!r}")
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
        c_target=float(c),
        z=z_i.astype(float),
    )


def column_norms(inst: SparseInstance) -> np.ndarray:
    """Closed-form column norms: gamma, then ones, then the mixed column."""
    g = inst.gamma
    last = math.sqrt((g * g - 1.0) * inst.s + inst.n)
    return np.concatenate(
        [np.full(inst.s, g), np.ones(inst.n - inst.s), [last]]
    )


def initial_analytic_state(inst: SparseInstance) -> AnalyticState:
    return AnalyticState(c_mid=np.zeros(inst.n - inst.s), c_p=0.0, k=0)


def analytic_beta(state: AnalyticState, inst: SparseInstance) -> np.ndarray:
    """Embed the reduced coordinates back into a full parameter vector."""
    return np.concatenate([np.zeros(inst.s), -state.c_mid, [state.c_p]])


def analytic_rho(state: AnalyticState, inst: SparseInstance) -> np.ndarray:
    """Correlations induced by a parameter in reduced form.

    rho_j = gamma * (1 - c_p) on the leading block, c_j - c_p on the
    middle block, and the norm-weighted mixture on the last column.
    """
    g, s, n = inst.gamma, inst.s, inst.n
    rho = np.empty(inst.p)
    rho[:s] = g * (1.0 - state.c_p)
    rho[s:n] = state.c_mid - state.c_p
    rho[n] = (
        s * g * g * (1.0 - state.c_p) + float((state.c_mid - state.c_p).sum())
    ) / math.sqrt((g * g - 1.0) * s + n)
    return rho


def analytic_step(state: AnalyticState, inst: SparseInstance, nu: float) -> AnalyticState:
    """One greedy step in reduced coordinates.

    Only two selections can occur: the mixed column (which advances c_p
    by nu * Delta) or a middle column (which averages its coordinate
    toward c_p).  A leading-block selection, or any coordinate leaving
    [0, 1] by more than COORD_SLACK, raises InvariantViolation because it
    would falsify the form invariant the construction is built on.  An
    all-zero correlation vector is a no-op, matching the matrix side.
    """
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"nu must lie in (0, 1], got {nu}")
    rho = analytic_rho(state, inst)
    if float(np.abs(rho).max()) == 0.0:
        return AnalyticState(c_mid=state.c_mid.copy(), c_p=state.c_p, k=state.k + 1, j=0)
    j = boosting.select_index(rho)
    g, s, n = inst.gamma, inst.s, inst.n
    if j < s:
        raise InvariantViolation(
            f"leading column {j} won the correlation race at iteration {state.k}"
        )
    if j == n:
        denom = (g * g - 1.0) * s + n
        delta = (
            s * g * g * (1.0 - state.c_p)
            + float((state.c_mid - state.c_p).sum())
        ) / denom
        c_mid = state.c_mid.copy()
        c_p = state.c_p + nu * delta
    else:
        c_mid = state.c_mid.copy()
        c_mid[j - s] = (1.0 - nu) * state.c_mid[j - s] + nu * state.c_p
        c_p = state.c_p
    lo = c_p if c_mid.size == 0 else min(float(c_mid.min()), c_p)
    hi = c_p if c_mid.size == 0 else max(float(c_mid.max()), c_p)
    if lo < -COORD_SLACK or hi > 1.0 + COORD_SLACK:
        raise InvariantViolation(
            f"reduced coordinate left [0, 1] at iteration {state.k + 1}: "
            f"range [{lo!r}, {hi!r}]"
        )
    return AnalyticState(c_mid=c_mid, c_p=c_p, k=state.k + 1, j=j)


def equivalence_check(inst: SparseInstance, nu: float, iterations: int) -> float:
    """Lockstep the full-matrix run against the reduced recursion.

    Both sides advance together until ``iterations`` steps or until the
    matrix residual drops to BoostingConfig's default floor of 1e-12
    (past that point every correlation underflows to exact zero on one
    side but not the other, so comparison stops being meaningful).
    Returns the largest l-inf deviation between the two parameter
    trajectories; a differing selection raises immediately, naming the
    iteration.
    """
    config = boosting.BoostingConfig(nu=nu, max_iterations=iterations)
    astate = initial_analytic_state(inst)
    deviation = 0.0
    for k, jm, _, beta, _, _ in boosting.iterate(inst.X, inst.Y, config):
        if k:
            astate = analytic_step(astate, inst, nu)
            if jm != astate.j:
                raise RuntimeError(
                    f"selection mismatch at iteration {k}: "
                    f"matrix picked {jm}, recursion picked {astate.j}"
                )
            deviation = max(
                deviation,
                float(np.abs(analytic_beta(astate, inst) - beta).max()),
            )
    return deviation
