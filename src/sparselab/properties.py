"""Certifiers for the sparsity property zoo.

Cone membership, restricted nullspace and its uniform variant (both exact
in every nullspace dimension: decided at the extreme rays of the
nullspace's coordinate arrangement), sampled restricted-eigenvalue upper
bounds, restricted isometry constants by subset enumeration, spark, and
sparsest-solution uniqueness.  The nullspace certifiers take the
nullspace alone, as the (p, d) basis array of ``linalg.nullspace``.
Every l1 mass on and off a support comes from ``_split``, which each
public entry reaches after checking its own input once.
Enumerating operations take an explicit subset budget and refuse loudly
instead of silently subsampling; they walk each subset size in blocks of
at most ENUMERATION_BLOCK subsets and give each block one stacked numpy
call, so memory stays flat.  Each certifier returns a NamedTuple whose
fields are its certificate: `sparselab certify` writes every field that
is not one of its parameters.
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
    lq_norm,
    nullspace,
    positive,
    submatrices,
)

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


class REEstimate(NamedTuple):
    phi_estimate: float
    witness: np.ndarray


def _blocks(p: int, size: int):
    """The size-``size`` subsets of range(p) in combination order, as
    (m, size) index arrays of at most ENUMERATION_BLOCK rows each."""
    subsets = itertools.combinations(range(p), size)
    while block := list(itertools.islice(subsets, ENUMERATION_BLOCK)):
        flat = itertools.chain.from_iterable(block)
        yield np.fromiter(flat, np.intp, len(block) * size).reshape(len(block), size)


def _budget(enumeration_budget) -> int:
    """The subset budget of every enumerator, as a positive int."""
    return integer("enumeration_budget", enumeration_budget, 1)


def _mask(p: int, T) -> np.ndarray:
    """The support T as a length-p boolean mask.  T must be a non-empty
    collection of distinct integer indices in [0, p); anything else is
    refused with a one-line ValueError."""
    T = tuple(T)
    if not T:
        raise ValueError("T must be non-empty")
    if not all(isinstance(j, (int, np.integer)) and 0 <= j < p for j in T):
        raise ValueError(f"T must hold indices in [0, {p - 1}], got {T}")
    mask = np.zeros(p, dtype=bool)
    mask[list(T)] = True
    if np.count_nonzero(mask) != len(T):
        raise ValueError(f"T repeats an index: {T}")
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


def cone_split(delta, T):
    """(on-mass, off-mass, ratio) of the l1 mass of delta on and off T, by
    the rule of ``_split``, over delta's last axis.  delta must be a
    finite vector or stack of vectors."""
    mags = np.abs(np.asarray(delta, dtype=float))
    if mags.ndim == 0 or not np.isfinite(mags).all():
        raise ValueError("delta must be a finite vector or stack of vectors")
    return _split(mags, _mask(mags.shape[-1], T))


def _in_closed_cone(on: float, off: float, c: float) -> bool:
    """The closed-cone rule on a computed split: off-mass <= c * on-mass."""
    return off <= c * on


def in_cone(b, T, c: float) -> bool:
    """Exact membership of the finite vector b in the cone of support T and
    constant c, no tolerance: off-mass <= c * on-mass."""
    c = positive("c", c)
    b = coefficients("b", b, np.size(b))
    on, off, _ = _split(np.abs(b), _mask(b.size, T))
    return _in_closed_cone(on, off, c)


def _basis_shape(ns) -> tuple[int, int]:
    """(p, d) of a nullspace basis as ``linalg.nullspace`` returns it: a
    finite (p, d) array, d <= p, each column ending in a last nonzero
    coordinate of exactly 1.  Anything else is refused with a one-line
    ValueError."""
    if not isinstance(ns, np.ndarray) or ns.ndim != 2:
        raise ValueError(f"the nullspace basis must be a (p, d) array, got {np.shape(ns)}")
    p, d = ns.shape
    if d > p:
        raise ValueError(
            f"the nullspace basis has {d} columns in dimension {p}; pass nullspace(X), not X"
        )
    if not np.isfinite(ns).all():
        raise ValueError("the nullspace basis must be finite")
    nonzero = ns != 0.0
    last = p - 1 - nonzero[::-1].argmax(axis=0) if d else []
    if not (nonzero.any(axis=0).all() and (ns[last, np.arange(d)] == 1.0).all()):
        raise ValueError(
            "each nullspace basis column must end in a last nonzero coordinate of 1, "
            "as nullspace(X) returns them"
        )
    return p, d


def _rays(ns: np.ndarray, budget: int):
    """The extreme rays r = ns v of the arrangement {v : (ns v)_i = 0}, one
    of each pair +-r, in combination order.  On each cell the cone test
    c ||r_T||_1 - ||r_Tc||_1 is linear, so the rays decide it for every T
    and attain the least ratio ||r_Tc||_1 / ||r_T||_1.  With d = 1 the ray
    is the basis column; else v spans the null space of d - 1 rows of ns
    of full rank at DEFAULT_RANK_TOL, as ``spark`` applies it.  More than
    ``budget`` row subsets are refused."""
    p, d = ns.shape
    if d < 2:
        yield from ns.T
        return
    total = math.comb(p, d - 1)
    if total > budget:
        raise BudgetExceeded(
            f"cone check over {total} candidate rays ({d - 1}-row subsets) exceeds the "
            f"budget of {budget}"
        )
    for block in _blocks(p, d - 1):
        A = ns[block]
        _, sv, vh = np.linalg.svd(A)
        full = (sv > DEFAULT_RANK_TOL * np.abs(A).max(axis=(1, 2))[:, None]).all(axis=1)
        yield from vh[full, -1] @ ns.T


def rn_check(
    ns: np.ndarray, T, c: float, enumeration_budget: int = ENUMERATION_BUDGET
) -> RNVerdict:
    """Does the nullspace, the (p, d) basis ``ns``, meet the cone of
    support T and constant c only at zero?

    Exactly when no ray of ``_rays`` lies in the closed cone (``in_cone``);
    a trivial nullspace holds vacuously."""
    p, _ = _basis_shape(ns)
    c = positive("c", c)
    budget = _budget(enumeration_budget)
    mask = _mask(p, T)
    critical, witness = math.inf, None
    for r in _rays(ns, budget):
        on, off, ratio = _split(np.abs(r), mask)
        critical = min(critical, ratio)
        if witness is None and _in_closed_cone(on, off, c):
            witness = r.copy()
    return RNVerdict(holds=witness is None, witness=witness, critical_c=critical)


def rn_uniform(
    ns: np.ndarray, t: int, c: float, enumeration_budget: int = ENUMERATION_BUDGET
) -> RNUniformResult:
    """Uniform variant: the cone condition over every support of size t.

    Size-t supports suffice because growing T only makes the condition
    harder, and on a ray r the worst of them is the t largest |r_i|
    (stable order on ties).  So each ray of ``_rays`` is tested against
    its own worst support, and the budget counts rays, not supports."""
    p, _ = _basis_shape(ns)
    c = positive("c", c)
    t = integer("t", t, 1, p)
    budget = _budget(enumeration_budget)
    holds, worst_T, critical = True, (), math.inf
    for r in _rays(ns, budget):
        mags = np.abs(r)
        worst = np.zeros(p, dtype=bool)
        worst[np.argsort(-mags, kind="stable")[:t]] = True
        on, off, ratio = _split(mags, worst)
        if not worst_T or ratio < critical:
            worst_T, critical = tuple(np.flatnonzero(worst).tolist()), ratio
        holds = holds and not _in_closed_cone(on, off, c)
    return RNUniformResult(holds, worst_T, critical)


def re_upper_bound(
    X,
    T,
    c: float,
    samples: int,
    seed: int = 0,
    ns: np.ndarray | None = None,
) -> REEstimate:
    """Sampled upper bound on the restricted eigenvalue constant.

    Draws random members of the cone of T and c (Gaussian on T, off-T mass
    scaled to a uniform fraction of the cone bound) and, when X's (p, d)
    nullspace basis is supplied, includes each basis column and its
    cone-projected version, so a nullspace direction inside the cone
    drives the estimate to zero.
    """
    X = design(X)
    p = X.shape[1]
    mask = _mask(p, T)
    c = positive("c", c)
    samples = integer("samples", samples, 1)
    if ns is not None and _basis_shape(ns)[0] != p:
        raise ValueError(f"the nullspace basis has {ns.shape[0]} rows, X has {p} columns")
    rng = np.random.default_rng(seed)

    candidates: list[np.ndarray] = []
    if ns is not None:
        for v in ns.T:
            on, off, _ = _split(np.abs(v), mask)
            if _in_closed_cone(on, off, c):
                candidates.append(v.copy())
                continue
            if on > 0.0 and off > 0.0:
                projected = v.copy()
                projected[~mask] *= c * on / off
                candidates.append(projected)
    while len(candidates) < samples:
        g = rng.standard_normal(p)
        on, off, _ = _split(np.abs(g), mask)
        if on == 0.0:
            continue
        scale = rng.uniform() * c * on / off if off > 0.0 else 0.0
        candidates.append(np.where(mask, g, g * scale))
    phi_estimate, witness = math.inf, candidates[0]
    for b in candidates:
        denom = float(b @ b)
        if denom > 0.0:
            image = X @ b
            value = float(image @ image) / denom
            if value < phi_estimate:
                phi_estimate, witness = value, b
    return REEstimate(phi_estimate, witness)


def rip_constant(X, t: int, enumeration_budget: int = ENUMERATION_BUDGET) -> RIPResult:
    """Restricted isometry constant by exhaustive size-t enumeration.

    delta_t = max over |T| = t of max(lmax(G_T) - 1, 1 - lmin(G_T), 0);
    size-exactly-t subsets suffice because the extreme eigenvalues of a
    principal submatrix are bracketed by those of any superset.
    """
    X = design(X)
    p = X.shape[1]
    t = integer("t", t, 1, p)
    budget = _budget(enumeration_budget)
    total = math.comb(p, t)
    if total > budget:
        raise BudgetExceeded(
            f"restricted isometry scan over {total} subsets of size {t} "
            f"exceeds the budget of {budget}"
        )
    if not np.isfinite(X.T @ X).all():
        raise ValueError("the Gram matrix X'X overflows; rescale the columns of X")
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


def rip_implies_rn_test(
    n: int,
    trials: int,
    t: int,
    seed: int = 0,
    enumeration_budget: int = ENUMERATION_BUDGET,
) -> dict:
    """Sampled check that delta_{2t} < 1/3 forces the uniform cone property.

    Draws unit-column n x (n+1) designs from three families: raw
    Gaussian, a random orthonormal basis plus one extra unit column, and
    a perturbed near-tight frame.  The first two never reach the
    isometry threshold at these shapes (an orthonormal block plus any
    unit column pins delta_2 >= 1/sqrt(n)), so the frame family is what
    keeps the implication non-vacuous.  Every applicable draw asserts
    rn_uniform(t, 1); violations are counted, never repaired.
    """
    n = integer("n", n, 2)
    trials = integer("trials", trials, 1)
    # the isometry scan takes supports of size 2t among the n + 1 columns
    t = integer("t", t, 1, (n + 1) // 2)
    p = n + 1
    rng = np.random.default_rng(seed)
    families = ("gaussian", "orthonormal-extended", "near-tight-frame")
    counts = {name: {"drawn": 0, "applicable": 0} for name in families}
    applicable = 0
    vacuous = 0
    violations = 0
    min_delta = math.inf
    base_frame = _simplex_frame(n)
    for trial in range(trials):
        family = families[trial % len(families)]
        counts[family]["drawn"] += 1
        if family == "gaussian":
            M = rng.standard_normal((n, p))
        elif family == "orthonormal-extended":
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            extra = rng.standard_normal((n, 1))
            M = np.hstack([Q, extra])
        else:
            scale = 10.0 ** rng.uniform(-4.0, -1.5)
            M = base_frame + scale * rng.standard_normal((n, p))
        X = M / np.sqrt(np.sum(M * M, axis=0))
        result = rip_constant(X, 2 * t, enumeration_budget)
        min_delta = min(min_delta, result.delta_t)
        if result.delta_t < 1.0 / 3.0:
            applicable += 1
            counts[family]["applicable"] += 1
            holds, _, _ = rn_uniform(nullspace(X), t, 1.0, enumeration_budget)
            if not holds:
                violations += 1
        else:
            vacuous += 1
    return {
        "n": n,
        "p": p,
        "t": t,
        "trials": trials,
        "applicable": applicable,
        "vacuous": vacuous,
        "violations": violations,
        "min_delta_2t": min_delta,
        "families": counts,
    }


def spark(X, enumeration_budget: int = ENUMERATION_BUDGET) -> SparsityCertificate:
    """Smallest dependent column subset by ascending-size enumeration.

    A subset is dependent when its numerical rank, at DEFAULT_RANK_TOL
    times its largest absolute entry, is below its size.
    """
    X = design(X)
    p = X.shape[1]
    budget = _budget(enumeration_budget)
    tested = 0
    for size in range(1, p + 1):
        if tested + math.comb(p, size) > budget:
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


def spark_from_nullspace(ns: np.ndarray) -> SparsityCertificate | None:
    """Exact spark without enumeration in two easy regimes.

    ``ns`` is the (p, d) nullspace basis.  A trivial nullspace means no
    dependent subset exists at all; a one-dimensional nullspace whose
    spanning vector has no zero entry forces every proper column subset to
    be independent, so the spark is exactly p.  Anything else returns None
    (inconclusive).
    """
    p, d = _basis_shape(ns)
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


def unique_sparsest(
    X, Y, s: int, enumeration_budget: int = ENUMERATION_BUDGET
) -> UniqueSparsestResult:
    """Brute-force uniqueness of the sparsest exact fit up to size s.

    Supports are enumerated by ascending size; the first size with any
    exact fit (residual <= EXACT_FIT_RTOL * ||Y||_2) is the minimal one,
    and uniqueness means exactly one support of that size fits.  The
    whole minimal size is always enumerated before deciding.  Sizes above
    the n rows are never scanned: some n columns span range(X), so if no
    support of at most n columns fits, no larger one does.
    """
    X, Y = design(X, Y)
    n, p = X.shape
    s = integer("s", s, 0, p)
    budget = _budget(enumeration_budget)
    y_norm = lq_norm(Y, 2)
    if not math.isfinite(y_norm):
        raise ValueError("the norm of Y overflows; rescale Y")
    tol = EXACT_FIT_RTOL * y_norm
    tested = 0
    for size in range(0, min(s, n) + 1):
        if tested + math.comb(p, size) > budget:
            raise BudgetExceeded(
                f"sparsest-solution scan exceeds the budget of {budget} at size {size}"
            )
        fits: list[tuple[int, ...]] = []
        for block in _blocks(p, size):
            residual_norms = least_squares_batch(X, Y, block)[1]
            tested += len(block)
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
