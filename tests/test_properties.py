import itertools
import math

import numpy as np
import pytest

from sparselab import (
    BudgetExceeded,
    nullspace,
    rip_constant,
    rn_check,
    rn_uniform,
    SparsityCertificate,
    spark,
    unique_sparsest,
    UniqueSparsestResult,
)
from sparselab import properties
from sparselab.linalg import EXACT_FIT_RTOL, least_squares_batch
from sparselab.properties import (
    ENUMERATION_BLOCK,
    _in_closed_cone,
    _mask,
    _split,
    rip_implies_rn_test,
    spark_from_nullspace,
)

# two orthogonal pairs of duplicated columns: the nullspace is the
# two-dimensional span of (1,0,-1,0) and (0,1,0,-1)
X_DUP_PAIRS = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])


def _split_about(b, T):
    """(on-mass, off-mass, ratio) of |b| about T, as the certifiers split."""
    b = np.asarray(b, dtype=float)
    return _split(np.abs(b), _mask("T", T, b.size))


def in_cone(b, T, c):
    """The certifiers' closed-cone rule on b's split about T."""
    on, off, _ = _split_about(b, T)
    return _in_closed_cone(on, off, c)


def test_in_cone_boundary_is_inclusive():
    assert in_cone([1.0, 1.0], (0,), 1.0)
    assert not in_cone([1.0, 1.0 + 1e-9], (0,), 1.0)
    assert in_cone([0.0, 0.0], (0,), 1.0)


def test_in_cone_scale_invariance():
    rng = np.random.default_rng(31)
    for _ in range(25):
        b = rng.standard_normal(6)
        base = in_cone(b, (1, 3), 0.8)
        for scale in (1e-6, 3.7, 1e6):
            assert in_cone(scale * b, (1, 3), 0.8) == base


def test_rn_check_exact_on_construction(inst25):
    holds = rn_check(inst25.X, inst25.S, 4.0)
    fails = rn_check(inst25.X, inst25.S, 5.0)
    assert holds.holds and holds.witness is None
    assert abs(holds.critical_c - 4.2) <= 1e-12
    assert not fails.holds
    # the witness is the nullspace ray itself (last coordinate 1)
    np.testing.assert_allclose(fails.witness, inst25.z, atol=1e-9)
    assert in_cone(fails.witness, inst25.S, 5.0)


def test_rn_check_smaller_instance(inst9):
    verdict = rn_check(inst9.X, inst9.S, 2.0)
    assert verdict.holds
    assert verdict.critical_c == pytest.approx(7.0 / 3.0, abs=1e-12)
    # at the critical constant the ray sits inside the (closed) cone
    at_boundary = rn_check(inst9.X, inst9.S, 7.0 / 3.0)
    assert not at_boundary.holds


def test_rn_check_trivial_nullspace():
    verdict = rn_check(np.eye(3), (0,), 1.0)
    assert verdict.holds
    assert verdict.critical_c == math.inf


def test_rn_check_on_columns_of_very_different_scales():
    verdict = rn_check([[1e12, 0.0], [0.0, 1.0]], (0,), 1.0)
    assert (verdict.holds, verdict.witness, verdict.critical_c) == (True, None, math.inf)
    # the nullspace is the ray (-1e200, -1, 1), nearly all of its mass on T
    verdict = rn_check([[1.0, 0.0, 1e200], [0.0, 1.0, 1.0]], (0,), 1.0)
    assert not verdict.holds
    assert verdict.witness.tolist() == [-1e200, -1.0, 1.0]
    assert verdict.critical_c == 2e-200


def test_rn_check_multidimensional_finds_interior_witness():
    # the ray (1, 0, -1, 0) carries all its mass on T = {0, 2}
    assert nullspace(X_DUP_PAIRS).shape == (4, 2)
    verdict = rn_check(X_DUP_PAIRS, (0, 2), 1.0)
    assert not verdict.holds
    assert verdict.critical_c == 0.0
    w = verdict.witness
    assert np.max(np.abs(X_DUP_PAIRS @ w)) <= 1e-9
    assert in_cone(w, (0, 2), 1.0)


def test_rn_check_multidimensional_holds_case():
    # every nullspace vector (a, b, -a, -b) splits its mass evenly over
    # T = {0, 1}, so no witness exists below c = 1, and at c = 1 the
    # closed cone takes every ray
    verdict = rn_check(X_DUP_PAIRS, (0, 1), 0.5)
    assert verdict.holds and verdict.witness is None
    assert verdict.critical_c == 1.0
    at_boundary = rn_check(X_DUP_PAIRS, (0, 1), 1.0)
    assert not at_boundary.holds
    assert in_cone(at_boundary.witness, (0, 1), 1.0)


def _rn_uniform_by_scan(X, t, c):
    """The one-dimensional uniform check by enumeration: the first support
    of least ratio, as a strict scan finds it, decided by rn_check."""
    z = nullspace(X)[:, 0]
    worst_T = min(
        itertools.combinations(range(z.size), t),
        key=lambda T: _split_about(z, T)[2],
    )
    verdict = rn_check(X, worst_T, c)
    return verdict.holds, worst_T, verdict.critical_c


def test_rn_uniform_closed_form_matches_enumeration(inst9):
    # the ray is flat, so the worst support of size t is the first t
    # columns and the critical constant is (p - 1 - t) / t
    for t, crit in [(1, 9.0), (2, 4.0), (3, 7.0 / 3.0)]:
        h_fast, T_fast, c_fast = rn_uniform(inst9.X, t, 1.0)
        h_slow, T_slow, c_slow = _rn_uniform_by_scan(inst9.X, t, 1.0)
        assert h_fast and h_slow
        assert T_fast == T_slow == tuple(range(t))
        assert c_fast == pytest.approx(crit, abs=1e-12)
        assert c_slow == pytest.approx(crit, abs=1e-12)


def test_rn_uniform_agrees_with_rn_check_at_the_critical_constant():
    # off / on rounds, so c = critical must be decided by the closed-cone
    # rule off <= c * on on both sides, not by comparing c with the ratio
    X = np.array([[9.0, 14.0]])
    critical = rn_uniform(X, 1, 1.0)[2]
    assert critical == rn_check(X, (0,), 1.0).critical_c
    verdicts = []
    for c in (np.nextafter(critical, 0.0), critical, np.nextafter(critical, 2.0)):
        c = float(c)
        expected = (rn_check(X, (0,), c).holds, (0,), critical)
        assert rn_uniform(X, 1, c) == expected
        assert _rn_uniform_by_scan(X, 1, c) == expected
        verdicts.append(expected[0])
    # c * on rounds below off at c = critical, so the ray stays outside
    assert verdicts == [True, True, False]


def test_rn_uniform_critical_decreases_with_support_size(inst9):
    crits = [rn_uniform(inst9.X, t, 0.5)[2] for t in (1, 2, 3)]
    assert crits[0] > crits[1] > crits[2]


def test_rn_uniform_trivial_nullspace():
    assert rn_uniform(np.eye(4), 2, 1.0) == (
        True,
        (),
        math.inf,
    )


def test_rn_uniform_multidimensional_nullspace():
    holds, worst, crit = rn_uniform(X_DUP_PAIRS, 1, 0.5)
    assert holds and crit == 1.0
    # the first ray, (0, -1, 0, 1), has the least ratio and its worst
    # support is its first largest entry
    fails, worst_T, _ = rn_uniform(X_DUP_PAIRS, 1, 2.0)
    assert not fails
    assert worst_T == worst == (1,)


def test_rn_uniform_budget_refusal(inst9, monkeypatch):
    # the budget bounds the rays, one per row subset of size d - 1:
    # C(4, 1) = 4 here
    for certify in (
        lambda: rn_uniform(X_DUP_PAIRS, 2, 1.0),
        lambda: rn_check(X_DUP_PAIRS, (0, 1), 1.0),
    ):
        monkeypatch.setattr(properties, "ENUMERATION_BUDGET", 3)
        with pytest.raises(BudgetExceeded):
            certify()
        monkeypatch.setattr(properties, "ENUMERATION_BUDGET", 4)
        assert certify().holds is False
    # a one-dimensional nullspace has one ray
    monkeypatch.setattr(properties, "ENUMERATION_BUDGET", 1)
    assert rn_uniform(inst9.X, 3, 1.0).holds


def test_rn_uniform_rejects_bad_cone_constant(inst9):
    # every nullspace dimension refuses, not only the enumeration branch
    for X in (inst9.X, np.eye(3), X_DUP_PAIRS):
        for c in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="c must be positive"):
                rn_uniform(X, 1, c)


def _rn_uniform_one_at_a_time(X, t, c):
    """The uniform check as a scan of rn_check over every size-t support:
    it holds iff every support holds, at the least critical constant."""
    verdicts = [
        rn_check(X, T, c)
        for T in itertools.combinations(range(X.shape[1]), t)
    ]
    return all(v.holds for v in verdicts), min(v.critical_c for v in verdicts)


def test_rn_uniform_matches_one_support_at_a_time_scan():
    X = np.random.default_rng(11).standard_normal((12, 14))
    assert nullspace(X).shape == (14, 2)
    verdicts = set()
    for t in (1, 2):
        for c in (0.05, 0.2, 0.5, 1.0, 1.5527, 3.0):
            holds, critical = _rn_uniform_one_at_a_time(X, t, c)
            fast = rn_uniform(X, t, c)
            assert (fast.holds, fast.critical_c) == (holds, critical)
            # the worst support attains the least critical constant
            assert rn_check(X, fast.worst_T, c).critical_c == critical
            verdicts.add(holds)
    assert verdicts == {True, False}


# seeded Gaussian designs (rows, columns, seed) with nullspaces of
# dimension 3, 4, 5 and 4, and their critical constants at t = 2
GAUSSIAN_RN_CASES = [
    ((4, 7, 7), 0.4458),
    ((10, 14, 3), 1.0234),
    ((9, 14, 5), 1.0079),
    ((8, 12, 2), 0.8505),
]


@pytest.mark.parametrize("design, critical", GAUSSIAN_RN_CASES)
def test_rn_uniform_is_exact_on_either_side_of_the_critical_constant(design, critical):
    m, q, seed = design
    X = np.random.default_rng(seed).standard_normal((m, q))
    ns = nullspace(X)
    assert ns.shape[1] >= 3
    # 0.1 % either side of the critical constant decides the verdict
    assert not rn_uniform(X, 2, 1.001 * critical).holds
    assert rn_uniform(X, 2, 0.999 * critical).holds
    _, worst_T, crit = rn_uniform(X, 2, 1.0)
    assert crit == pytest.approx(critical, abs=1e-4)
    # the witness is a nullspace vector in the cone of the worst support
    c = 1.001 * crit
    verdict = rn_check(X, worst_T, c)
    assert not verdict.holds
    w = verdict.witness
    assert np.linalg.norm(X @ w) <= 1e-12 * np.linalg.norm(w)
    assert in_cone(w, worst_T, c)
    # no sampled direction goes below the critical constant
    Z = np.abs(ns @ np.random.default_rng(0).standard_normal((ns.shape[1], 20_000)))
    top = np.sort(Z, axis=0)[-2:].sum(axis=0)
    assert np.min((Z.sum(axis=0) - top) / top) >= crit


def test_rip_identity_is_perfect():
    for t in (1, 2, 3):
        result = rip_constant(np.eye(4), t)
        assert result.delta_t == 0.0
        assert result.t == t


def test_rip_frozen_on_construction(inst9):
    result = rip_constant(inst9.X, 1)
    # the mixed column carries squared norm (gamma^2 - 1) s + n = 249
    assert result.delta_t == 248.0
    assert result.extremal_subset == (9,)


def test_rip_pairs_match_dense_eigensolver(inst9):
    result = rip_constant(inst9.X, 2)
    worst = 0.0
    for T in itertools.combinations(range(inst9.p), 2):
        (a, b), (_, d) = inst9.X[:, list(T)].T @ inst9.X[:, list(T)]
        # eigenvalues of the symmetric 2 x 2 matrix [[a, b], [b, d]]
        radius = math.hypot((a - d) / 2.0, b)
        lo, hi = (a + d) / 2.0 - radius, (a + d) / 2.0 + radius
        worst = max(worst, hi - 1.0, 1.0 - lo)
    assert result.delta_t == pytest.approx(worst, rel=1e-12)
    assert result.delta_t >= rip_constant(inst9.X, 1).delta_t


def test_rip_budget_refusal(inst9, monkeypatch):
    monkeypatch.setattr(properties, "ENUMERATION_BUDGET", 10)
    with pytest.raises(BudgetExceeded):
        rip_constant(inst9.X, 3)


def test_rip_implies_rn_is_deterministic():
    a = rip_implies_rn_test(6, trials=20, t=1)
    b = rip_implies_rn_test(6, trials=20, t=1)
    assert a == b
    assert a["violations"] == 0
    # every draw is near the tight frame, so none leaves the premise unmet
    assert a["applicable"] == 20 and a["vacuous"] == 0
    assert "families" not in a


def test_spark_zero_column():
    X = np.array([[1.0, 0.0], [0.0, 0.0]])
    cert = spark(X)
    assert cert.spark == 1
    assert cert.witness_columns == (1,)


def test_spark_duplicate_column():
    X = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    cert = spark(X)
    assert cert.spark == 2
    assert cert.witness_columns == (0, 2)
    assert cert.subsets_tested == 5


def test_spark_full_rank_square():
    cert = spark(np.eye(3))
    assert cert.spark is None
    assert cert.lower_bound == 4
    assert not cert.budget_exhausted
    assert cert.subsets_tested == 7


def test_spark_is_scale_invariant(inst9):
    # rank decisions are relative to the largest entry of each subset
    outer = np.outer([1.0, 2.0, 3.0], [4.0, 5.0])
    assert spark(outer).witness_columns == (0, 1)
    assert spark(np.zeros((3, 5))).spark == 1
    assert spark(np.eye(4)).lower_bound == 5
    for X in (outer, X_DUP_PAIRS, inst9.X):
        assert spark(1e12 * X) == spark(X)
        assert spark(1e-12 * X) == spark(X)


def test_spark_budget_partial_certificate(inst9, monkeypatch):
    monkeypatch.setattr(properties, "ENUMERATION_BUDGET", 4)
    cert = spark(inst9.X)
    assert cert.budget_exhausted
    assert cert.spark is None
    assert cert.lower_bound == 1
    assert cert.subsets_tested == 0


def test_spark_partial_certificate_at_the_real_budget():
    # one row of 4,472 ones: the 4,472 single columns and C(4472, 2) =
    # 9,997,156 pairs pass ENUMERATION_BUDGET by 1,628, so no pair is tried;
    # one column fewer and the first pair is dependent
    assert properties.ENUMERATION_BUDGET == 10_000_000
    assert spark(np.ones((1, 4472))) == SparsityCertificate(
        spark=None,
        witness_columns=None,
        subsets_tested=4472,
        lower_bound=2,
        budget_exhausted=True,
    )
    assert spark(np.ones((1, 4471))).spark == 2


def test_spark_from_nullspace_cases(inst25):
    # both shortcuts decide without testing a single subset
    assert spark_from_nullspace(np.eye(3)) == SparsityCertificate(
        spark=None,
        witness_columns=None,
        subsets_tested=0,
        lower_bound=4,
        budget_exhausted=False,
    )
    p = inst25.p
    assert spark_from_nullspace(inst25.X) == SparsityCertificate(
        spark=p,
        witness_columns=tuple(range(p)),
        subsets_tested=0,
        lower_bound=p,
        budget_exhausted=False,
    )
    # a ray with a zero coordinate is inconclusive
    assert spark_from_nullspace(np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]])) is None


def test_unique_sparsest_frozen(inst9):
    result = unique_sparsest(inst9.X, inst9.Y, 3)
    assert result == (True, (0, 1, 2), 3, 1, 176)


def test_unique_sparsest_zero_target():
    result = unique_sparsest(np.eye(2), np.zeros(2), 1)
    assert result.unique
    assert result.support == ()
    assert result.size == 0
    assert result.supports_tested == 1


def test_unique_sparsest_detects_ambiguity():
    X = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    result = unique_sparsest(X, np.array([1.0, 0.0]), 1)
    assert not result.unique
    assert result.fits_at_size == 2


def test_unique_sparsest_no_fit_raises():
    with pytest.raises(ValueError, match="no 1-sparse"):
        unique_sparsest(np.eye(2), np.array([1.0, 1.0]), 1)


def test_unique_sparsest_scans_no_size_above_the_rows():
    # no support of at most n = 2 columns fits, so none larger can: the
    # scan stops at size 2 and refuses with its own line, not the kernel's
    with pytest.raises(ValueError, match=r"^no 3-sparse least-squares fit matches Y"):
        unique_sparsest(np.ones((2, 3)), [1.0, 2.0], 3)
    # s = n still scans size n whole, where the first fit lies here
    X = np.array([[1.0, 0.0, 1.0, 2.0], [0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    result = unique_sparsest(X, [1.0, 2.0, 1.0], 3)
    assert (result.size, result.supports_tested) == (3, 1 + 4 + 6 + 4)


def test_unique_sparsest_budget_refusal(inst9, monkeypatch):
    monkeypatch.setattr(properties, "ENUMERATION_BUDGET", 5)
    with pytest.raises(BudgetExceeded):
        unique_sparsest(inst9.X, inst9.Y, 3)


# --- batched enumeration against the one-subset-at-a-time scans ---------------


def _spark_one_at_a_time(X):
    """(spark, witness, subsets tested) of the per-subset spark scan."""
    p = X.shape[1]
    tested = 0
    for size in range(1, p + 1):
        for T in itertools.combinations(range(p), size):
            tested += 1
            A = X[:, list(T)]
            if np.linalg.matrix_rank(A, tol=1e-10 * np.abs(A).max()) < size:
                return size, T, tested
    return None, None, tested


def _rip_one_at_a_time(X, t):
    """(delta_t, first extremal subset) of the per-subset eigvalsh scan."""
    delta, extremal = 0.0, ()
    for T in itertools.combinations(range(X.shape[1]), t):
        A = X[:, list(T)]
        eigenvalues = np.linalg.eigvalsh(A.T @ A)
        local = max(float(eigenvalues[-1]) - 1.0, 1.0 - float(eigenvalues[0]), 0.0)
        if local > delta or not extremal:
            delta, extremal = local, T
    return delta, extremal


@pytest.mark.parametrize(
    "position",
    [0, ENUMERATION_BLOCK - 1, ENUMERATION_BLOCK],
    ids=["first-in-block", "last-in-block", "past-block-boundary"],
)
def test_spark_witness_at_block_edges(position):
    # 24 columns in general position in R^3 give 276 pairs, more than one
    # block; doubling one column makes exactly the pair at `position` (in
    # combination order) the first dependent subset
    p = 24
    X = np.random.default_rng(position).standard_normal((3, p))
    a, b = list(itertools.combinations(range(p), 2))[position]
    X[:, b] = 2.0 * X[:, a]
    cert = spark(X)
    found = (cert.spark, cert.witness_columns, cert.subsets_tested)
    assert found == (2, (a, b), p + position + 1)
    assert found == _spark_one_at_a_time(X)
    assert cert.lower_bound == 2 and not cert.budget_exhausted


def test_spark_matches_one_at_a_time_scan(inst9):
    rng = np.random.default_rng(5)
    gaussian = rng.standard_normal((6, 9))
    dependent = gaussian.copy()
    dependent[:, 7] = dependent[:, 2] - dependent[:, 5] + 3.0 * dependent[:, 3]
    for X in (X_DUP_PAIRS, inst9.X, gaussian, dependent):
        cert = spark(X)
        found = (cert.spark, cert.witness_columns, cert.subsets_tested)
        assert found == _spark_one_at_a_time(X)


def test_rip_matches_one_at_a_time_scan_bit_for_bit(inst9):
    gaussian = np.random.default_rng(5).standard_normal((12, 14))
    gaussian /= np.sqrt(np.sum(gaussian * gaussian, axis=0))
    for X, sizes in ((inst9.X, (1, 2, 3)), (gaussian, (2, 5))):
        for t in sizes:
            result = rip_constant(X, t)
            assert (result.delta_t, result.extremal_subset) == _rip_one_at_a_time(X, t)


def test_rip_ties_keep_the_first_subset():
    # all-zero deltas tie everywhere: the first subset wins
    assert rip_constant(np.eye(4), 2).extremal_subset == (0, 1)
    # two disjoint pairs with the same Gram matrix, the last pair of the
    # first block and the next disjoint pair in the second block; every
    # other pair is orthonormal
    p = 24
    pairs = list(itertools.combinations(range(p), 2))
    first = pairs[ENUMERATION_BLOCK - 1]
    second = next(T for T in pairs[ENUMERATION_BLOCK:] if not set(T) & set(first))
    X = np.eye(p)
    for a, b in (first, second):
        X[:, b] = 0.6 * X[:, a] + 0.8 * X[:, b]
    result = rip_constant(X, 2)
    assert result.extremal_subset == first
    assert (result.delta_t, result.extremal_subset) == _rip_one_at_a_time(X, 2)


def _unique_sparsest_one_at_a_time(X, Y, s):
    """UniqueSparsestResult of the unscreened scan that solves every
    support of size at most min(s, n) alone, as a one-row block; None when
    none fits."""
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    n, p = X.shape
    tol = EXACT_FIT_RTOL * math.sqrt(Y.dot(Y))
    tested = 0
    for size in range(min(s, n) + 1):
        fits = []
        for T in itertools.combinations(range(p), size):
            tested += 1
            block = np.array(T, dtype=np.intp).reshape(1, size)
            if least_squares_batch(X, Y, block)[1][0] <= tol:
                fits.append(T)
        if fits:
            return UniqueSparsestResult(len(fits) == 1, fits[0], size, len(fits), tested)
    return None


def _sparse_fit(seed):
    """A seeded 6 x 10 design, about half its entries exactly zero, and a
    response from three of its columns that vanishes on one or more rows."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((6, 10)) * (rng.uniform(size=(6, 10)) < 0.5)
    T = rng.choice(10, 3, replace=False)
    X[rng.integers(6), T] = 0.0
    return X, X[:, T] @ rng.uniform(1.0, 2.0, 3)


def _next_to_twice_tol(side):
    """Y = (1, e) with e the float next to 2 * EXACT_FIT_RTOL * ||Y||,
    below it for side 0.0 and above it for side 1.0."""
    Y = np.array([1.0, 2.0 * EXACT_FIT_RTOL])
    for _ in range(3):
        Y[1] = math.nextafter(2.0 * (EXACT_FIT_RTOL * math.sqrt(Y.dot(Y))), side)
    return Y


def _rank_deficient_fit():
    """The only fitting pair, (0, 1), has a Gram matrix numerically singular
    at the rank tolerance, and neither of its columns fits alone."""
    a = np.array([1.0, 0.0, 2.0, 0.0, -1.0, 0.0])
    X = np.column_stack([a, 2.0 * a + 1e-5 * np.eye(6)[1], np.eye(6)[3], np.ones(6)])
    return X, X[:, 0] + X[:, 1]


def _near_underflow_fit():
    """A sparse fit scaled to ||Y||^2 = 4 * tiny: some entries reach 2 tol
    but square below the least normal float."""
    X, Y = _sparse_fit(0)
    return X, Y * (2.0 * math.sqrt(np.finfo(float).tiny) / math.sqrt(Y.dot(Y)))


def _dense_fit():
    """A seeded 8 x 12 Gaussian design, nonzero everywhere, and a response
    from three of its columns."""
    X = np.random.default_rng(5).standard_normal((8, 12))
    beta = np.zeros(12)
    beta[[2, 7, 9]] = (1.5, -2.0, 1.0)
    return X, X @ beta


def test_unique_sparsest_matches_one_at_a_time_scan(inst9):
    cases = [(inst9.X, inst9.Y, 3)]
    cases += [(*_sparse_fit(seed), 3) for seed in range(6)]
    cases += [
        (*_rank_deficient_fit(), 2),
        (np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), np.array([1.0, 0.0]), 1),
        # an entry below tol: a support that misses its row fits
        (np.eye(2), np.array([1.0, 1e-9]), 1),
        (np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]]), _next_to_twice_tol(0.0), 2),
        (np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]]), _next_to_twice_tol(1.0), 2),
        (*_near_underflow_fit(), 3),
        (*_dense_fit(), 3),
    ]
    for X, Y, s in cases:
        expected = _unique_sparsest_one_at_a_time(X, Y, s)
        assert expected is not None
        assert unique_sparsest(X, Y, s) == expected
    # the cases reach what they are named for
    assert all((_sparse_fit(seed)[1] == 0.0).any() for seed in range(6))
    X, Y = _rank_deficient_fit()
    assert unique_sparsest(X, Y, 2).support == (0, 1)
    assert least_squares_batch(X, Y, np.array([[0, 1]]))[2][0]
    for side, above in ((0.0, False), (1.0, True)):
        Y = _next_to_twice_tol(side)
        assert bool(Y[1] >= 2.0 * (EXACT_FIT_RTOL * math.sqrt(Y.dot(Y)))) is above
    _, Y = _near_underflow_fit()
    twice_tol = 2.0 * (EXACT_FIT_RTOL * math.sqrt(Y.dot(Y)))
    assert ((Y * Y < np.finfo(float).tiny) & (np.abs(Y) >= twice_tol)).any()


def test_unique_sparsest_solves_only_the_supports_the_screen_keeps(inst9, inst25, monkeypatch):
    solved = []
    kernel = properties.least_squares_batch

    def counting(X, Y, supports):
        solved.append(len(supports))
        return kernel(X, Y, supports)

    monkeypatch.setattr(properties, "least_squares_batch", counting)
    for X, Y, s, tested, kept in (
        (inst25.X, inst25.Y, 5, 83_682, 15_277),
        (inst9.X, inst9.Y, 3, 176, 47),
        # nonzero on every row: only the empty support is screened
        (*_dense_fit(), 3, 299, 298),
    ):
        solved.clear()
        assert unique_sparsest(X, Y, s).supports_tested == tested
        assert sum(solved) == kept


def test_budget_cutting_off_a_later_size(inst9, monkeypatch):
    # sizes 1 and 2 (10 + 45 subsets) fit a budget of 60; size 3 does not
    monkeypatch.setattr(properties, "ENUMERATION_BUDGET", 60)
    cert = spark(inst9.X)
    assert cert == SparsityCertificate(
        spark=None,
        witness_columns=None,
        subsets_tested=55,
        lower_bound=3,
        budget_exhausted=True,
    )
    with pytest.raises(BudgetExceeded, match="budget of 60 at size 3"):
        unique_sparsest(inst9.X, inst9.Y, 3)
