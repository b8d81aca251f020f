"""Certifiers for the sparsity property zoo.

Cone membership, restricted nullspace (exact whenever the nullspace is
at most one-dimensional, which covers every constructed instance here),
its uniform variant, sampled restricted-eigenvalue upper bounds,
restricted isometry constants by subset enumeration, spark, and
sparsest-solution uniqueness.  The nullspace certifiers take the
nullspace alone, as the (p, d) basis array of ``linalg.nullspace``.
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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (
    DEFAULT_RANK_TOL,
    EXACT_FIT_RTOL,
    least_squares_batch,
    lq_norm,
    nullspace,
    submatrices,
)

ENUMERATION_BUDGET = 10_000_000

# Subsets per stacked numpy call.  Larger blocks save little time but
# grow the working set: 256 adds about 0.3 MB of peak RSS over one subset
# at a time, 4,096 about 15 MB.
ENUMERATION_BLOCK = 256

# Random directions that seed the heuristic cone search of rn_check.
RN_SAMPLES = 10_000


class BudgetExceeded(RuntimeError):
    """An enumeration would overrun its subset budget; refusing to guess."""


@dataclass(frozen=True)
class ConeSpec:
    """The cone of vectors whose l1 mass off T is at most c times the mass on T."""

    T: tuple[int, ...]
    c: float

    def __post_init__(self):
        T = tuple(int(j) for j in self.T)
        object.__setattr__(self, "T", T)
        if len(T) == 0:
            raise ValueError("T must be non-empty")
        if len(set(T)) != len(T):
            raise ValueError("T contains repeated indices")
        if min(T) < 0:
            raise ValueError("T contains negative indices")
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise ValueError(f"c must be positive and finite, got {self.c}")


class RNVerdict(NamedTuple):
    """Outcome of a restricted nullspace check.

    ``method`` is "exact-1d" when the nullspace dimension is at most one
    (the single spanning ray decides membership completely) and
    "heuristic" otherwise; heuristic holds-verdicts can be wrong, and a
    heuristic witness is the nullspace vector whose search score
    c * on-mass - off-mass was positive, not rechecked by ``in_cone``.
    """

    holds: bool
    witness: np.ndarray | None
    method: str
    critical_c: float | None


class RNUniformResult(NamedTuple):
    """Uniform cone check.  With a one-dimensional nullspace ``worst_T``
    is the worst support and ``critical_c`` its critical constant; else
    ``worst_T`` is the first failing support, or () when none fails, and
    ``critical_c`` is None (inf for a trivial nullspace)."""

    holds: bool
    worst_T: tuple[int, ...]
    critical_c: float | None


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


def _mask(p: int, T) -> np.ndarray:
    mask = np.zeros(p, dtype=bool)
    try:
        mask[list(T)] = True
    except IndexError:
        raise ValueError(f"indices {tuple(T)} out of range for dimension {p}") from None
    return mask


def cone_split(delta, T) -> tuple[float, float, float]:
    """(on-mass, off-mass, ratio) of the l1 mass of delta on and off T.

    The ratio is off / on; with zero on-mass it is inf, or nan when the
    off-mass is zero too.
    """
    delta = np.asarray(delta, dtype=float)
    mask = _mask(delta.size, T)
    mags = np.abs(delta)
    on = float(mags[mask].sum())
    off = float(mags[~mask].sum())
    if on == 0.0:
        return on, off, math.nan if off == 0.0 else math.inf
    return on, off, off / on


def in_cone(b, spec: ConeSpec) -> bool:
    """Exact membership test, no tolerance: off-mass <= c * on-mass."""
    on, off, _ = cone_split(b, spec.T)
    return off <= spec.c * on


def _heuristic_cone_search(
    B: np.ndarray,
    mask: np.ndarray,
    c: float,
    seed: int,
) -> tuple[float, np.ndarray]:
    """Best-effort maximization of c * ||(Bv)_T||_1 - ||(Bv)_Tc||_1.

    RN_SAMPLES random unit directions seed a sign-pattern ascent; steps
    are only accepted when the objective improves, so the search is
    monotone but can miss witnesses, even ones strictly inside the cone.
    """
    rng = np.random.default_rng(seed)
    d = B.shape[1]
    weights = np.where(mask, c, -1.0)

    def score(v: np.ndarray) -> float:
        return float(weights @ np.abs(B @ v))

    V = rng.standard_normal((d, RN_SAMPLES))
    V /= np.linalg.norm(V, axis=0)
    scores = weights @ np.abs(B @ V)
    order = np.argsort(scores)[::-1]
    best_idx = int(order[0])
    best_v = V[:, best_idx].copy()
    best = float(scores[best_idx])
    for idx in order[: min(20, order.size)]:
        v = V[:, int(idx)].copy()
        current = float(scores[int(idx)])
        for _ in range(50):
            direction = B.T @ (weights * np.sign(B @ v))
            norm = float(np.linalg.norm(direction))
            if norm == 0.0:
                break
            candidate = direction / norm
            value = score(candidate)
            if value <= current:
                break
            v, current = candidate, value
        if current > best:
            best, best_v = current, v
    return best, best_v


def rn_check(ns: np.ndarray, spec: ConeSpec, seed: int = 0) -> RNVerdict:
    """Does the nullspace, the (p, d) basis ``ns``, meet the cone only at zero?

    Dimension 0 holds vacuously; dimension 1 is decided exactly by the
    spanning ray (the cone is symmetric under negation and scaling), and
    the largest admissible constant ||z_Tc||_1 / ||z_T||_1 is reported.
    Higher dimensions fall back to the documented heuristic falsifier.
    """
    p, d = ns.shape
    mask = _mask(p, spec.T)
    if d == 0:
        return RNVerdict(holds=True, witness=None, method="exact-1d", critical_c=math.inf)
    if d == 1:
        z = ns[:, 0]
        critical = cone_split(z, spec.T)[2]
        if in_cone(z, spec):
            return RNVerdict(holds=False, witness=z.copy(), method="exact-1d", critical_c=critical)
        return RNVerdict(holds=True, witness=None, method="exact-1d", critical_c=critical)
    best, best_v = _heuristic_cone_search(ns, mask, spec.c, seed)
    if best > 0.0:
        witness = ns @ best_v
        return RNVerdict(holds=False, witness=witness, method="heuristic", critical_c=None)
    return RNVerdict(holds=True, witness=None, method="heuristic", critical_c=None)


def rn_uniform(
    ns: np.ndarray, t: int, c: float, enumeration_budget: int = ENUMERATION_BUDGET
) -> RNUniformResult:
    """Uniform variant: the cone condition over every support of size t.

    Size-t supports suffice because growing T only makes the condition
    harder.  With a one-dimensional nullspace the worst support is the
    set of t largest |z| coordinates, and ``rn_check`` on it gives the
    verdict and the critical constant.  Higher dimensions enumerate
    supports with the heuristic check and refuse beyond the budget.
    """
    p, d = ns.shape
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError(f"c must be positive and finite, got {c}")
    if not 1 <= t <= p:
        raise ValueError(f"t must lie in [1, {p}], got {t}")
    if d == 0:
        return RNUniformResult(True, (), math.inf)
    if d == 1:
        order = np.argsort(-np.abs(ns[:, 0]), kind="stable")
        worst_T = tuple(sorted(int(j) for j in order[:t]))
        verdict = rn_check(ns, ConeSpec(T=worst_T, c=c))
        return RNUniformResult(verdict.holds, worst_T, verdict.critical_c)
    total = math.comb(p, t)
    if total > enumeration_budget:
        raise BudgetExceeded(
            f"uniform check over {total} supports of size {t} exceeds the "
            f"budget of {enumeration_budget}"
        )
    for T in itertools.combinations(range(p), t):
        verdict = rn_check(ns, ConeSpec(T=T, c=c))
        if not verdict.holds:
            return RNUniformResult(False, T, None)
    return RNUniformResult(True, (), None)


def re_upper_bound(
    X,
    spec: ConeSpec,
    samples: int,
    seed: int = 0,
    ns: np.ndarray | None = None,
) -> REEstimate:
    """Sampled upper bound on the restricted eigenvalue constant.

    Draws random cone members (Gaussian on T, off-T mass scaled to a
    uniform fraction of the cone bound) and, when a (p, d) nullspace basis
    is supplied, includes each basis column and its cone-projected version,
    so a nullspace direction inside the cone drives the estimate to zero.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    X = np.asarray(X, dtype=float)
    p = X.shape[1]
    mask = _mask(p, spec.T)
    rng = np.random.default_rng(seed)

    candidates: list[np.ndarray] = []
    if ns is not None:
        for v in ns.T:
            if in_cone(v, spec):
                candidates.append(v.copy())
                continue
            on, off, _ = cone_split(v, spec.T)
            if on > 0.0 and off > 0.0:
                projected = v.copy()
                projected[~mask] *= spec.c * on / off
                candidates.append(projected)
    while len(candidates) < samples:
        g = rng.standard_normal(p)
        b = np.zeros(p)
        b[mask] = g[mask]
        on = float(np.sum(np.abs(b[mask])))
        if on == 0.0:
            continue
        off_raw = np.abs(g[~mask]).sum()
        if off_raw > 0.0:
            b[~mask] = g[~mask] * (rng.uniform() * spec.c * on / off_raw)
        candidates.append(b)
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
    X = np.asarray(X, dtype=float)
    p = X.shape[1]
    if not 1 <= t <= p:
        raise ValueError(f"t must lie in [1, {p}], got {t}")
    total = math.comb(p, t)
    if total > enumeration_budget:
        raise BudgetExceeded(
            f"restricted isometry scan over {total} subsets of size {t} "
            f"exceeds the budget of {enumeration_budget}"
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
    if n < 2 or trials < 1 or t < 1:
        raise ValueError("need n >= 2, trials >= 1, t >= 1")
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
    X = np.asarray(X, dtype=float)
    p = X.shape[1]
    tested = 0
    for size in range(1, p + 1):
        if tested + math.comb(p, size) > enumeration_budget:
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


def unique_sparsest(
    X, Y, s: int, enumeration_budget: int = ENUMERATION_BUDGET
) -> UniqueSparsestResult:
    """Brute-force uniqueness of the sparsest exact fit up to size s.

    Supports are enumerated by ascending size; the first size with any
    exact fit (residual <= EXACT_FIT_RTOL * ||Y||_2) is the minimal one,
    and uniqueness means exactly one support of that size fits.  The
    whole minimal size is always enumerated before deciding.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    p = X.shape[1]
    if s < 0 or s > p:
        raise ValueError(f"s must lie in [0, {p}], got {s}")
    y_norm = lq_norm(Y, 2)
    if not math.isfinite(y_norm):
        raise ValueError("the norm of Y overflows; rescale Y")
    tol = EXACT_FIT_RTOL * y_norm
    tested = 0
    for size in range(0, s + 1):
        if tested + math.comb(p, size) > enumeration_budget:
            raise BudgetExceeded(
                f"sparsest-solution scan exceeds the budget of "
                f"{enumeration_budget} at size {size}"
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
