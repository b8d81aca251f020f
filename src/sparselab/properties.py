"""Certifiers for the sparsity property zoo.

Cone membership, restricted nullspace and its uniform variant (both exact
in every nullspace dimension: decided at the extreme rays of the
nullspace's coordinate arrangement), restricted isometry constants by
subset enumeration, spark, and sparsest-solution uniqueness.  Every
certifier takes the design X; the nullspace certifiers compute
``nullspace(X)`` themselves.
Every l1 mass on and off a support comes from ``_split``, which each
public entry reaches after checking its own input once.
Enumerating operations share one subset budget, ENUMERATION_BUDGET, and
refuse loudly instead of silently subsampling; they walk each subset
size in blocks of at most ENUMERATION_BLOCK subsets and give each block
one stacked numpy call, so memory stays flat.  Each certifier returns a
NamedTuple whose fields are its certificate: `sparselab certify` writes
every field that is not one of its parameters.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .linalg import (
    DEFAULT_RANK_TOL,
    EXACT_FIT_RTOL,
    coefficients,
    design,
    integer,
    least_squares_batch,
    nullspace,
    positive,
    real_array,
    submatrices,
)

# Subsets (or rays) one enumeration may visit, read at call time; past
# it a certifier refuses, and ``spark`` returns a partial certificate.
ENUMERATION_BUDGET = 10_000_000

# Subsets per stacked numpy call.  Larger blocks save little time but
# grow the working set: 256 adds about 0.3 MB of peak RSS over one subset
# at a time, 4,096 about 15 MB.
ENUMERATION_BLOCK = 256


class BudgetExceeded(RuntimeError):
    """An enumeration would overrun its subset budget; refusing to guess."""


class RNVerdict(NamedTuple):
    """Outcome of a restricted nullspace check, exact in every dimension.

    ``critical_c`` is the least ratio ||r_Tc||_1 / ||r_T||_1 over the
    nullspace's rays r (inf for a trivial nullspace); ``witness`` is the
    first ray, in combination order, inside the closed cone, or None.
    """

    holds: bool
    witness: np.ndarray | None
    critical_c: float


class RNUniformResult(NamedTuple):
    """Uniform cone check over every support of size t.  ``worst_T`` is
    the worst support of the ray of least ratio (its t largest |r_i|) and
    ``critical_c`` that ratio; () and inf for a trivial nullspace."""

    holds: bool
    worst_T: tuple[int, ...]
    critical_c: float


class RIPResult(NamedTuple):
    t: int
    delta_t: float
    extremal_subset: tuple[int, ...]


class SparsityCertificate(NamedTuple):
    """Spark search outcome.

    ``spark`` is None either when every column subset is independent
    (lower_bound = p + 1, budget_exhausted False) or when the search ran
    out of budget (budget_exhausted True); ``lower_bound`` is always a
    proven bound: every subset smaller than it was tested independent.
    """

    spark: int | None
    witness_columns: tuple[int, ...] | None
    subsets_tested: int
    lower_bound: int
    budget_exhausted: bool


class UniqueSparsestResult(NamedTuple):
    unique: bool
    support: tuple[int, ...]
    size: int
    fits_at_size: int
    supports_tested: int


def _blocks(p: int, size: int):
    """The size-``size`` subsets of range(p) in combination order, as
    (m, size) index arrays of at most ENUMERATION_BLOCK rows each."""
    subsets = itertools.combinations(range(p), size)
    while block := list(itertools.islice(subsets, ENUMERATION_BLOCK)):
        flat = itertools.chain.from_iterable(block)
        yield np.fromiter(flat, np.intp, len(block) * size).reshape(len(block), size)


def _indices(name: str, T) -> tuple:
    """The support T, the caller's argument ``name``, as a tuple; a T that
    is no collection (an int, None) is refused with a one-line ValueError."""
    try:
        return tuple(T)
    except TypeError:
        kind = type(T).__name__
        raise ValueError(f"{name} must be a collection of indices, got {kind}") from None


def _mask(name: str, T, p: int) -> np.ndarray:
    """The support T, the caller's argument ``name``, as a length-p boolean
    mask.  T must be a non-empty collection of distinct integer indices in
    [0, p); anything else is refused with a one-line ValueError."""
    T = _indices(name, T)
    if not T:
        raise ValueError(f"{name} must be non-empty")
    if not all(isinstance(j, (int, np.integer)) and 0 <= j < p for j in T):
        raise ValueError(f"{name} must hold indices in [0, {p - 1}], got {T}")
    mask = np.zeros(p, dtype=bool)
    mask[list(T)] = True
    if np.count_nonzero(mask) != len(T):
        raise ValueError(f"{name} repeats an index: {T}")
    return mask


def _split(mags: np.ndarray, mask: np.ndarray):
    """(on-mass, off-mass, ratio) of the magnitudes |delta| on and off the
    support that ``mask`` marks, reduced over the last axis: three floats
    for a vector, three arrays for a stack, row for row the same.  The
    ratio is off / on; with zero on-mass it is inf, or nan when the
    off-mass is zero too.  The one copy of the split; it checks nothing."""
    # take, not a boolean index: that returns an F-ordered stack, whose
    # row sums round differently
    on = mags.take(np.flatnonzero(mask), axis=-1).sum(axis=-1)
    off = mags.take(np.flatnonzero(~mask), axis=-1).sum(axis=-1)
    # zero on-mass takes the rule's value, never IEEE off / on: numpy's
    # 0 / 0 is a nan with its sign bit set, the rule's is math.nan
    empty = np.where(off == 0.0, math.nan, math.inf)
    ratio = np.divide(off, on, out=empty, where=on != 0.0)
    if mags.ndim == 1:
        return float(on), float(off), float(ratio)
    return on, off, ratio


def _checked_split(mags: np.ndarray, mask: np.ndarray, refusal: str):
    """``_split`` about ``mask``; an l1 mass that overflows is refused with
    the one-line ``refusal``, a ratio past the float range is inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        on, off, ratio = _split(mags, mask)
    if not np.isfinite((on, off)).all():
        raise ValueError(refusal)
    return on, off, ratio


_RAY_OVERFLOW = "the l1 mass of a nullspace ray overflows; rescale the columns of X"


def cone_split(delta, T):
    """(on-mass, off-mass, ratio) of the l1 mass of delta on and off T, by
    the rule of ``_split``, over delta's last axis.  delta must be a
    finite, non-empty vector or stack of vectors of finite l1 mass."""
    mags = np.abs(real_array("delta", delta))
    if mags.ndim == 0 or not np.isfinite(mags).all():
        raise ValueError("delta must be a finite vector or stack of vectors")
    if not mags.shape[-1]:
        raise ValueError("delta must be non-empty")
    mask = _mask("T", T, mags.shape[-1])
    return _checked_split(mags, mask, "the l1 mass of delta overflows; rescale delta")


def _refuse_gram_overflow(X: np.ndarray) -> None:
    """Refuse, in one line, a design whose Gram matrix X'X overflows: the
    certifiers that form X_T'X_T would read its inf or nan as a verdict."""
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(X.T @ X).all():
            raise ValueError("the Gram matrix X'X overflows; rescale the columns of X")


def _in_closed_cone(on: float, off: float, c: float) -> bool:
    """The closed-cone rule on a computed split: off-mass <= c * on-mass."""
    return off <= c * on


def in_cone(b, T, c: float) -> bool:
    """Exact membership of b, a finite non-empty vector of finite l1 mass,
    in the cone of support T and constant c: off-mass <= c * on-mass."""
    c = positive("c", c)
    if not np.size(b):
        raise ValueError("b must be non-empty")
    b = coefficients("b", b, np.size(b))
    mask = _mask("T", T, b.size)
    on, off, _ = _checked_split(np.abs(b), mask, "the l1 mass of b overflows; rescale b")
    return _in_closed_cone(on, off, c)


def _rays(ns: np.ndarray):
    """The extreme rays r = ns v of the arrangement {v : (ns v)_i = 0}, one
    of each pair +-r, in combination order.  On each cell the cone test
    c ||r_T||_1 - ||r_Tc||_1 is linear, so the rays decide it for every T
    and attain the least ratio ||r_Tc||_1 / ||r_T||_1.  With d = 1 the ray
    is the basis column; else v spans the null space of d - 1 rows of ns
    of full rank at DEFAULT_RANK_TOL, as ``spark`` applies it.  More than
    ENUMERATION_BUDGET row subsets are refused."""
    p, d = ns.shape
    if d < 2:
        yield from ns.T
        return
    total = math.comb(p, d - 1)
    if total > ENUMERATION_BUDGET:
        raise BudgetExceeded(
            f"cone check over {total} candidate rays ({d - 1}-row subsets) exceeds the "
            f"budget of {ENUMERATION_BUDGET}"
        )
    for block in _blocks(p, d - 1):
        A = ns[block]
        _, sv, vh = np.linalg.svd(A)
        full = (sv > DEFAULT_RANK_TOL * np.abs(A).max(axis=(1, 2))[:, None]).all(axis=1)
        yield from vh[full, -1] @ ns.T


def rn_check(X, T, c: float) -> RNVerdict:
    """Does the nullspace of X meet the cone of support T and constant c
    only at zero?

    Exactly when no ray of ``_rays`` lies in the closed cone (``in_cone``);
    a trivial nullspace holds vacuously."""
    mask = _mask("T", T, design(X).shape[1])
    c = positive("c", c)
    critical, witness = math.inf, None
    for r in _rays(nullspace(X)):
        on, off, ratio = _checked_split(np.abs(r), mask, _RAY_OVERFLOW)
        critical = min(critical, ratio)
        if witness is None and _in_closed_cone(on, off, c):
            witness = r.copy()
    return RNVerdict(holds=witness is None, witness=witness, critical_c=critical)


def rn_uniform(X, t: int, c: float) -> RNUniformResult:
    """Uniform variant of ``rn_check``: the cone of every support of size t.

    Size-t supports suffice because growing T only makes the condition
    harder, and on a ray r the worst of them is the t largest |r_i|
    (stable order on ties).  So each ray of ``_rays`` is tested against
    its own worst support, and the budget counts rays, not supports."""
    p = design(X).shape[1]
    c = positive("c", c)
    t = integer("t", t, 1, p)
    holds, worst_T, critical = True, (), math.inf
    for r in _rays(nullspace(X)):
        mags = np.abs(r)
        worst = np.zeros(p, dtype=bool)
        worst[np.argsort(-mags, kind="stable")[:t]] = True
        on, off, ratio = _checked_split(mags, worst, _RAY_OVERFLOW)
        if not worst_T or ratio < critical:
            worst_T, critical = tuple(np.flatnonzero(worst).tolist()), ratio
        holds = holds and not _in_closed_cone(on, off, c)
    return RNUniformResult(holds, worst_T, critical)


def rip_constant(X, t: int) -> RIPResult:
    """Restricted isometry constant by exhaustive size-t enumeration.

    delta_t = max over |T| = t of max(lmax(G_T) - 1, 1 - lmin(G_T), 0);
    size-exactly-t subsets suffice because the extreme eigenvalues of a
    principal submatrix are bracketed by those of any superset.
    """
    X = design(X)
    p = X.shape[1]
    t = integer("t", t, 1, p)
    total = math.comb(p, t)
    if total > ENUMERATION_BUDGET:
        raise BudgetExceeded(
            f"restricted isometry scan over {total} subsets of size {t} "
            f"exceeds the budget of {ENUMERATION_BUDGET}"
        )
    _refuse_gram_overflow(X)
    delta = 0.0
    extremal: tuple[int, ...] = ()
    for block in _blocks(p, t):
        A = submatrices(X, block)
        eigenvalues = np.linalg.eigvalsh(A.swapaxes(1, 2) @ A)
        local = np.maximum(
            np.maximum(eigenvalues[:, -1] - 1.0, 1.0 - eigenvalues[:, 0]), 0.0
        )
        # argmax takes the first maximum, so ties keep the earliest subset
        i = int(local.argmax())
        if local[i] > delta or not extremal:
            delta = float(local[i])
            extremal = tuple(block[i].tolist())
    return RIPResult(t=t, delta_t=delta, extremal_subset=extremal)


def _simplex_frame(n: int) -> np.ndarray:
    """n x (n+1) unit-column frame with pairwise coherence exactly 1/n."""
    p = n + 1
    H = np.eye(p) - np.full((p, p), 1.0 / p)
    _, R = np.linalg.qr(H)
    F = R[:n, :]
    return F / np.sqrt(np.sum(F * F, axis=0))


def rip_implies_rn_test(n: int, trials: int, t: int) -> dict:
    """Sampled check that delta_{2t} < 1/3 forces the uniform cone property.

    Draws unit-column n x (n+1) designs near a tight frame (the simplex
    frame plus noise of a random scale); raw Gaussian designs (0 of 67 met
    the threshold at n = 8) and an orthonormal basis plus a unit column
    (delta_2 >= 1/sqrt(n) >= 1/3 for n <= 9) would leave it vacuous.  Every
    applicable draw asserts rn_uniform(t, 1); violations are counted.
    The draws come from seed 0; ``trials`` sets how many there are.
    """
    n = integer("n", n, 2)
    trials = integer("trials", trials, 1)
    # the isometry scan takes supports of size 2t among the n + 1 columns
    t = integer("t", t, 1, (n + 1) // 2)
    p = n + 1
    rng = np.random.default_rng(0)
    applicable, violations, min_delta = 0, 0, math.inf
    base_frame = _simplex_frame(n)
    for _ in range(trials):
        M = base_frame + 10.0 ** rng.uniform(-4.0, -1.5) * rng.standard_normal((n, p))
        X = M / np.sqrt(np.sum(M * M, axis=0))
        result = rip_constant(X, 2 * t)
        min_delta = min(min_delta, result.delta_t)
        if result.delta_t < 1.0 / 3.0:
            applicable += 1
            violations += not rn_uniform(X, t, 1.0).holds
    return {
        "n": n,
        "p": p,
        "t": t,
        "trials": trials,
        "applicable": applicable,
        "vacuous": trials - applicable,
        "violations": violations,
        "min_delta_2t": min_delta,
    }


def spark(X) -> SparsityCertificate:
    """Smallest dependent column subset by ascending-size enumeration.

    A subset is dependent when its numerical rank, at DEFAULT_RANK_TOL
    times its largest absolute entry, is below its size.
    """
    X = design(X)
    p = X.shape[1]
    tested = 0
    for size in range(1, p + 1):
        if tested + math.comb(p, size) > ENUMERATION_BUDGET:
            return SparsityCertificate(
                spark=None,
                witness_columns=None,
                subsets_tested=tested,
                lower_bound=size,
                budget_exhausted=True,
            )
        for block in _blocks(p, size):
            A = submatrices(X, block)
            ranks = np.linalg.matrix_rank(
                A, tol=DEFAULT_RANK_TOL * np.abs(A).max(axis=(1, 2))
            )
            dependent = (ranks < size).nonzero()[0]
            if dependent.size:
                first = int(dependent[0])
                return SparsityCertificate(
                    spark=size,
                    witness_columns=tuple(block[first].tolist()),
                    subsets_tested=tested + first + 1,
                    lower_bound=size,
                    budget_exhausted=False,
                )
            tested += len(block)
    return SparsityCertificate(
        spark=None,
        witness_columns=None,
        subsets_tested=tested,
        lower_bound=p + 1,
        budget_exhausted=False,
    )


def spark_from_nullspace(X) -> SparsityCertificate | None:
    """Exact spark of X without enumeration, read off ``nullspace(X)`` in
    two easy regimes.

    A trivial nullspace means no dependent subset exists at all; a
    one-dimensional nullspace whose spanning vector has no zero entry
    forces every proper column subset to be independent, so the spark is
    exactly p.  Anything else returns None (inconclusive).
    """
    ns = nullspace(X)
    p, d = ns.shape
    if d == 0:
        return SparsityCertificate(
            spark=None,
            witness_columns=None,
            subsets_tested=0,
            lower_bound=p + 1,
            budget_exhausted=False,
        )
    if d == 1 and np.all(ns[:, 0] != 0.0):
        return SparsityCertificate(
            spark=p,
            witness_columns=tuple(range(p)),
            subsets_tested=0,
            lower_bound=p,
            budget_exhausted=False,
        )
    return None


def unique_sparsest(X, Y, s: int) -> UniqueSparsestResult:
    """Brute-force uniqueness of the sparsest exact fit up to size s.

    Supports are enumerated by ascending size; the first size with any
    exact fit (residual <= EXACT_FIT_RTOL * ||Y||_2) is the minimal one,
    and uniqueness means exactly one support of that size fits.  The
    whole minimal size is always enumerated before deciding.  Sizes above
    the n rows are never scanned: some n columns span range(X), so if no
    support of at most n columns fits, no larger one does.

    A support whose columns are all exactly zero on a decisive row i,
    one with |Y_i| >= 2 tol (tol = EXACT_FIT_RTOL * ||Y||_2) and
    Y_i * Y_i at least the least normal float, is counted in
    ``supports_tested`` but never solved: it cannot fit.  With finite
    coefficients c, ``least_squares_batch`` computes (X_T c)_i as a sum of
    exact zeros, so the residual keeps Y_i bit for bit; with a nan or inf
    in c that entry, and so the residual norm, is nan or inf and fails
    ``<= tol``.  The computed sum of squares adds non-negative terms, so
    it rounds to at least Y_i^2 (1 - u)^(n+1), u the unit roundoff, and
    the residual norm is at least |Y_i| (1 - u)^((n+1)/2) > tol; the
    least-normal bound keeps Y_i^2 from underflowing.  On a design
    nonzero on every decisive row the screen keeps every nonempty support.
    """
    X, Y = design(X, Y)
    n, p = X.shape
    s = integer("s", s, 0, p)
    _refuse_gram_overflow(X)
    with np.errstate(over="ignore", invalid="ignore"):
        y_sq = Y.dot(Y)
    if not math.isfinite(y_sq):
        raise ValueError("the norm of Y overflows; rescale Y")
    # below the least normal float the tolerance and the residuals lose their digits
    if y_sq < np.finfo(float).tiny and Y.any():
        raise ValueError("the norm of Y underflows; rescale Y")
    tol = EXACT_FIT_RTOL * math.sqrt(y_sq)
    decisive = (np.abs(Y) >= 2.0 * tol) & (Y * Y >= np.finfo(float).tiny)
    pattern = (X[decisive] != 0.0).T
    tested = 0
    for size in range(0, min(s, n) + 1):
        if tested + math.comb(p, size) > ENUMERATION_BUDGET:
            raise BudgetExceeded(
                f"sparsest-solution scan exceeds the budget of {ENUMERATION_BUDGET} at size {size}"
            )
        fits: list[tuple[int, ...]] = []
        for block in _blocks(p, size):
            tested += len(block)
            block = block[pattern[block].any(axis=1).all(axis=1)]
            residual_norms = least_squares_batch(X, Y, block)[1]
            fits.extend(map(tuple, block[residual_norms <= tol].tolist()))
        if fits:
            return UniqueSparsestResult(
                unique=len(fits) == 1,
                support=fits[0],
                size=size,
                fits_at_size=len(fits),
                supports_tested=tested,
            )
    raise ValueError(f"no {s}-sparse least-squares fit matches Y at tolerance {tol!r}")
