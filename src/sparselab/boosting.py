"""Componentwise L2 boosting (matching pursuit with a damped step).

Each iteration projects the current residual onto the single column with
the largest normalized correlation and moves the matching coordinate by a
fraction ``nu`` of its least-squares step.  With ``nu = 1`` this is plain
matching pursuit; smaller values give the damped variant.  Selection uses
correlations against unit-normalized columns, so the selected sequence is
invariant under positive rescaling of individual columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import column_sq, design, integer, real, real_array

# Relative window for declaring two |rho| values tied.  The stall designs
# produce exact ties across a whole block that floating point may perturb;
# without a window the realized order would depend on rounding noise.
TIE_RTOL = 1e-12

# The one thinning rule for snapshots and exported trajectories: keep
# every k up to THIN_DENSE_LIMIT, then every THIN_STRIDE-th, and the last.
THIN_DENSE_LIMIT = 1000
THIN_STRIDE = 10


@dataclass(frozen=True)
class BoostingConfig:
    """Step length, iteration cap, and residual stopping floor.

    A zero floor never stops early; exhausted residuals turn the
    remaining iterations into recorded no-ops.
    """

    nu: float = 1.0
    max_iterations: int = 1000
    residual_stop: float = 1e-12

    def __post_init__(self):
        step_length(self.nu)
        integer("max_iterations", self.max_iterations, 0)
        if not 0.0 <= real("residual_stop", self.residual_stop) < math.inf:
            raise ValueError(
                f"residual_stop must be non-negative and finite, got {self.residual_stop!r}"
            )


def step_length(nu) -> float:
    """The step length nu as a float in (0, 1], or a one-line ValueError."""
    nu = real("nu", nu)
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"nu must lie in (0, 1], got {nu}")
    return nu


@dataclass(frozen=True)
class BoostingState:
    """Snapshot after ``k`` iterations.

    ``rho`` holds the normalized correlations of ``residual`` (the vector
    the next selection will scan).  ``history`` records the selected
    column per iteration, ``history_steps`` the applied increments
    ``nu * bhat``; both are read-only length-k views of two arrays that
    every snapshot of a run shares.
    """

    k: int
    beta: np.ndarray
    residual: np.ndarray
    rho: np.ndarray
    history: np.ndarray
    history_steps: np.ndarray


def select_index(rho) -> int:
    """Smallest index attaining the largest |rho_j|.

    Magnitudes within TIE_RTOL relative of the maximum count as tied and
    the smallest tied index wins.  An all-zero vector selects index 0; the
    caller is expected to apply a zero step in that case.  A vector with
    an infinite or NaN magnitude anywhere, the mark of overflowing data,
    is refused with a ValueError, and so is a complex vector.
    """
    rho = real_array("rho", rho)
    if rho.ndim != 1 or rho.size == 0:
        raise ValueError("rho must be a non-empty vector")
    return _select(rho)


def _select(rho: np.ndarray) -> int:
    """``select_index``'s rule on a non-empty float vector, its argument
    unchecked: the engine and the reduced lockstep call it once per step on
    the correlations they computed themselves."""
    mags = abs(rho)
    # argmax stops at the first nan, so the peak is nan when any
    # magnitude is, and inf when one is
    peak = mags.item(mags.argmax())
    if peak == 0.0:
        return 0
    if not peak < math.inf:
        raise ValueError("the correlations overflow; rescale X or Y")
    return int((mags >= peak - TIE_RTOL * peak).argmax())


def iterate(X, Y, config: BoostingConfig):
    """The boosting engine: yield (k, j, applied, beta, residual, rho) from
    the k = 0 start (j None) to the stopping point ``run`` documents.

    Each iteration selects j, fits bhat = rho_j / ||X_j|| and moves
    beta_j by nu * bhat.  A zero correlation vector is a no-op (index 0,
    zero increment) so trajectories keep uniform length when the
    residual is exhausted.  An iteration costs O(n p) at any k: the
    column norms are computed once and no history is carried.  Every
    step yields fresh arrays, and yielded arrays are never written to.
    Input that fails ``linalg.design``, and finite input whose first
    correlations or squared residual norm overflow, are refused before
    the k = 0 state.
    """
    X, Y = design(X, Y)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(column_sq(X))
        rho = (X.T @ Y) / norms
        y_sq = Y.dot(Y)
    if not (np.isfinite(rho).all() and np.isfinite(norms).all()):
        raise ValueError("the correlations overflow; rescale X or Y")
    # the residual norm never grows, so this covers every floor test
    if not math.isfinite(y_sq):
        raise ValueError("the squared norm of Y overflows; rescale Y")
    # a numpy float32 nu would round every step to float32
    nu, floor = float(config.nu), float(config.residual_stop)
    XT = X.T
    cols, scale = list(XT), norms.tolist()
    k, residual, beta = 0, Y.copy(), np.zeros(X.shape[1])
    scratch = np.empty_like(residual)
    multiply, subtract, sqrt = np.multiply, np.subtract, math.sqrt
    yield k, None, 0.0, beta, residual, rho
    while k < config.max_iterations and (
        floor == 0.0 or sqrt(residual.dot(residual)) > floor
    ):
        k += 1
        j = _select(rho)
        rho_j = rho.item(j)
        beta = beta.copy()
        if rho_j == 0.0:
            applied = 0.0
            residual, rho = residual.copy(), rho.copy()
        else:
            applied = nu * (rho_j / scale[j])
            beta[j] += applied
            # the two roundings of residual - applied * X[:, j]
            residual = subtract(residual, multiply(cols[j], applied, scratch))
            rho = XT @ residual
            rho /= norms
        yield k, j, applied, beta, residual, rho


def thin(items):
    """Lazily keep the items at positions k <= THIN_DENSE_LIMIT, then
    every THIN_STRIDE-th, and the last item always.

    Positions count from 0, so on the stream of ``iterate`` and on the
    rows built from it the position is the iteration k.
    """
    kept = True
    for k, item in enumerate(items):
        kept = k <= THIN_DENSE_LIMIT or k % THIN_STRIDE == 0
        if kept:
            yield item
    if not kept:
        yield item


def run(X, Y, config: BoostingConfig) -> list[BoostingState]:
    """Iterate until max_iterations or the residual floor, with snapshots.

    The states ``thin`` keeps are returned: every state up to
    THIN_DENSE_LIMIT, then every THIN_STRIDE-th, and the final state
    always.  The k = 0 state opens the list so trajectories start at
    beta = 0.  A residual_stop of exactly 0 disables the early stop:
    once the residual underflows to zero the remaining iterations are
    recorded as no-ops, so trajectories keep a uniform length.

    Every iteration's (j, applied) is appended to two lists that become
    two read-only arrays at the end; every snapshot's ``history`` and
    ``history_steps`` are views of their first k entries, so memory is
    linear in the iteration count.
    """
    js, steps = [], []

    def recorded():
        for item in iterate(X, Y, config):
            js.append(item[1])
            steps.append(item[2])
            yield item

    kept = [
        (k, beta, residual, rho)
        for k, _, _, beta, residual, rho in thin(recorded())
    ]
    # both lists open with the k = 0 entry (None, 0.0)
    history = np.array(js[1:], dtype=np.intp)
    history_steps = np.array(steps[1:], dtype=float)
    history.flags.writeable = history_steps.flags.writeable = False
    return [
        BoostingState(k, beta, residual, rho, history[:k], history_steps[:k])
        for k, beta, residual, rho in kept
    ]
