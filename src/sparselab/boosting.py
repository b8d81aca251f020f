"""Componentwise L2 boosting (matching pursuit with a damped step).

Each iteration projects the current residual onto the single column with
the largest normalized correlation and moves the matching coordinate by a
fraction ``nu`` of its least-squares step.  With ``nu = 1`` this is plain
matching pursuit; smaller values give the damped variant.  Selection uses
correlations against unit-normalized columns, so the selected sequence is
invariant under positive rescaling of individual columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import lq_norm

# Relative window for declaring two |rho| values tied.  The stall designs
# produce exact ties across a whole block that floating point may perturb;
# without a window the realized order would depend on rounding noise.
TIE_RTOL = 1e-12


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
        if not 0.0 < self.nu <= 1.0:
            raise ValueError(f"nu must lie in (0, 1], got {self.nu}")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        if self.residual_stop < 0.0:
            raise ValueError("residual_stop must be non-negative")


@dataclass(frozen=True)
class BoostingState:
    """Snapshot after ``k`` iterations.

    ``rho`` holds the normalized correlations of ``residual`` (the vector
    the next selection will scan); it is None straight out of ``init``
    because the design matrix has not been seen yet.  ``history`` records
    the selected column per iteration, ``history_steps`` the applied
    increments ``nu * bhat``.
    """

    k: int
    beta: np.ndarray
    residual: np.ndarray
    rho: np.ndarray | None
    history: tuple[int, ...]
    history_steps: tuple[float, ...]


def _column_norms(X):
    norms = np.sqrt(np.sum(X * X, axis=0))
    dead = np.flatnonzero(norms == 0.0)
    if dead.size:
        raise ValueError(f"column {int(dead[0])} has zero norm")
    return norms


def init(Y, p: int) -> BoostingState:
    """Start state: beta = 0, residual = Y, empty history."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 1:
        raise ValueError(f"Y must be one-dimensional, got shape {Y.shape}")
    if not np.all(np.isfinite(Y)):
        raise ValueError("Y must be finite")
    if p < 1:
        raise ValueError(f"p must be positive, got {p}")
    return BoostingState(
        k=0,
        beta=np.zeros(p),
        residual=Y.copy(),
        rho=None,
        history=(),
        history_steps=(),
    )


def correlations(X, R) -> np.ndarray:
    """Normalized correlations rho_j = <R, X_j / ||X_j||_2>."""
    X = np.asarray(X, dtype=float)
    R = np.asarray(R, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be a matrix, got shape {X.shape}")
    if R.ndim != 1 or R.size != X.shape[0]:
        raise ValueError(
            f"residual length {R.size} does not match row count {X.shape[0]}"
        )
    return (X.T @ R) / _column_norms(X)


def select_index(rho) -> int:
    """Smallest index attaining the largest |rho_j|.

    Magnitudes within TIE_RTOL relative of the maximum count as tied and
    the smallest tied index wins.  An all-zero vector selects index 0; the
    caller is expected to apply a zero step in that case.  A vector with
    an infinite or NaN magnitude, the mark of overflowing data, is
    refused with a ValueError.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.ndim != 1 or rho.size == 0:
        raise ValueError("rho must be a non-empty vector")
    mags = np.abs(rho)
    peak = float(mags.max())
    if peak == 0.0:
        return 0
    try:
        return int((mags >= peak - TIE_RTOL * peak).nonzero()[0][0])
    except IndexError:
        # only an infinite or NaN peak leaves no magnitude in the window
        raise ValueError("the correlations overflow; rescale X or Y") from None


def _advance(X, norms, nu: float, beta, residual, rho):
    """One iteration into new arrays: (j, applied, beta, residual, rho)."""
    j = select_index(rho)
    if float(np.abs(rho[j])) == 0.0:
        return j, 0.0, beta.copy(), residual.copy(), rho.copy()
    applied = nu * (float(rho[j]) / float(norms[j]))
    beta = beta.copy()
    beta[j] += applied
    residual = residual - applied * X[:, j]
    return j, applied, beta, residual, (X.T @ residual) / norms


def step(state: BoostingState, X, config: BoostingConfig) -> BoostingState:
    """One boosting iteration: select, fit bhat, move by nu * bhat.

    A zero correlation vector is a no-op (index 0, zero increment) so
    trajectories keep uniform length when the residual is exhausted.
    """
    X = np.asarray(X, dtype=float)
    rho = state.rho if state.rho is not None else correlations(X, state.residual)
    j, applied, beta, residual, rho = _advance(
        X, _column_norms(X), config.nu, state.beta, state.residual, rho
    )
    return BoostingState(
        k=state.k + 1,
        beta=beta,
        residual=residual,
        rho=rho,
        history=state.history + (j,),
        history_steps=state.history_steps + (applied,),
    )


def _iterate(X, Y, config: BoostingConfig):
    """The boosting engine: yield (k, j, applied, beta, residual, rho) from
    the k = 0 start (j None) to the stopping point ``run`` documents.

    An iteration costs O(n p) at any k: the column norms are computed
    once and no history is carried.  Yielded arrays are never written to.
    """
    X = np.asarray(X, dtype=float)
    start = init(Y, X.shape[1])
    k, j, applied = 0, None, 0.0
    beta, residual = start.beta, start.residual
    rho = correlations(X, residual)
    norms = _column_norms(X)
    yield k, j, applied, beta, residual, rho
    while k < config.max_iterations and (
        config.residual_stop == 0.0
        or lq_norm(residual, 2) > config.residual_stop
    ):
        k += 1
        j, applied, beta, residual, rho = _advance(
            X, norms, config.nu, beta, residual, rho
        )
        yield k, j, applied, beta, residual, rho


def run(
    X,
    Y,
    config: BoostingConfig,
    snapshot_dense_limit: int = 1000,
    snapshot_stride: int = 10,
) -> list[BoostingState]:
    """Iterate until max_iterations or the residual floor, with snapshots.

    Every state up to ``snapshot_dense_limit`` is kept, then every
    ``snapshot_stride``-th, and the final state always.  The k = 0 state
    opens the list so trajectories start at beta = 0.  A residual_stop
    of exactly 0 disables the early stop: once the residual underflows
    to zero the remaining iterations are recorded as no-ops, so
    trajectories keep a uniform length.
    """
    history: list[int] = []
    steps: list[float] = []
    snapshots: list[BoostingState] = []

    def snapshot() -> BoostingState:
        return BoostingState(k, beta, residual, rho, tuple(history), tuple(steps))

    for k, j, applied, beta, residual, rho in _iterate(X, Y, config):
        if k:
            history.append(j)
            steps.append(applied)
        if k <= snapshot_dense_limit or k % snapshot_stride == 0:
            snapshots.append(snapshot())
    if snapshots[-1].k != k:
        snapshots.append(snapshot())
    return snapshots
