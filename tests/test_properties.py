import itertools
import math

import numpy as np
import pytest

from sparselab import (
    BudgetExceeded,
    in_cone,
    nullspace,
    re_upper_bound,
    rip_constant,
    rip_implies_rn_test,
    rn_check,
    rn_uniform,
    SparsityCertificate,
    spark,
    spark_from_nullspace,
    unique_sparsest,
)
from sparselab.properties import ENUMERATION_BLOCK, cone_split

# two orthogonal pairs of duplicated columns: the nullspace is the
# two-dimensional span of (1,0,-1,0) and (0,1,0,-1)
X_DUP_PAIRS = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])


def test_cone_arguments_validation():
    for T, c in (
        ((), 1.0),
        ((0, 0), 1.0),
        ((-1,), 1.0),
        ((0,), 0.0),
        ((0,), math.inf),
    ):
        with pytest.raises(ValueError):
            in_cone([1.0, 1.0], T, c)


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
    ns = nullspace(inst25.X)
    holds = rn_check(ns, inst25.S, 4.0)
    fails = rn_check(ns, inst25.S, 5.0)
    assert holds.holds and holds.witness is None
    assert abs(holds.critical_c - 4.2) <= 1e-12
    assert not fails.holds
    # the witness is the nullspace ray itself (last coordinate 1)
    np.testing.assert_allclose(fails.witness, inst25.z, atol=1e-9)
    assert in_cone(fails.witness, inst25.S, 5.0)


def test_rn_check_smaller_instance(inst9):
    ns = nullspace(inst9.X)
    verdict = rn_check(ns, inst9.S, 2.0)
    assert verdict.holds
    assert verdict.critical_c == pytest.approx(7.0 / 3.0, abs=1e-12)
    # at the critical constant the ray sits inside the (closed) cone
    at_boundary = rn_check(ns, inst9.S, 7.0 / 3.0)
    assert not at_boundary.holds


def test_rn_check_trivial_nullspace():
    verdict = rn_check(nullspace(np.eye(3)), (0,), 1.0)
    assert verdict.holds
    assert verdict.critical_c == math.inf


def test_rn_check_multidimensional_finds_interior_witness():
    # the ray (1, 0, -1, 0) carries all its mass on T = {0, 2}
    ns = nullspace(X_DUP_PAIRS)
    assert ns.shape == (4, 2)
    verdict = rn_check(ns, (0, 2), 1.0)
    assert not verdict.holds
    assert verdict.critical_c == 0.0
    w = verdict.witness
    assert np.max(np.abs(X_DUP_PAIRS @ w)) <= 1e-9
    assert in_cone(w, (0, 2), 1.0)


def test_rn_check_multidimensional_holds_case():
    # every nullspace vector (a, b, -a, -b) splits its mass evenly over
    # T = {0, 1}, so no witness exists below c = 1, and at c = 1 the
    # closed cone takes every ray
    ns = nullspace(X_DUP_PAIRS)
    verdict = rn_check(ns, (0, 1), 0.5)
    assert verdict.holds and verdict.witness is None
    assert verdict.critical_c == 1.0
    at_boundary = rn_check(ns, (0, 1), 1.0)
    assert not at_boundary.holds
    assert in_cone(at_boundary.witness, (0, 1), 1.0)


def _rn_uniform_by_scan(ns, t, c):
    """The one-dimensional uniform check by enumeration: the first support
    of least ratio, as a strict scan finds it, decided by rn_check."""
    z = ns[:, 0]
    worst_T = min(
        itertools.combinations(range(z.size), t),
        key=lambda T: cone_split(z, T)[2],
    )
    verdict = rn_check(ns, worst_T, c)
    return verdict.holds, worst_T, verdict.critical_c


def test_rn_uniform_closed_form_matches_enumeration(inst9):
    ns = nullspace(inst9.X)
    # the ray is flat, so the worst support of size t is the first t
    # columns and the critical constant is (p - 1 - t) / t
    for t, crit in [(1, 9.0), (2, 4.0), (3, 7.0 / 3.0)]:
        h_fast, T_fast, c_fast = rn_uniform(ns, t, 1.0)
        h_slow, T_slow, c_slow = _rn_uniform_by_scan(ns, t, 1.0)
        assert h_fast and h_slow
        assert T_fast == T_slow == tuple(range(t))
        assert c_fast == pytest.approx(crit, abs=1e-12)
        assert c_slow == pytest.approx(crit, abs=1e-12)


def test_rn_uniform_agrees_with_rn_check_at_the_critical_constant():
    # off / on rounds, so c = critical must be decided by the closed-cone
    # rule off <= c * on on both sides, not by comparing c with the ratio
    X = np.array([[9.0, 14.0]])
    ns = nullspace(X)
    critical = rn_uniform(ns, 1, 1.0)[2]
    assert critical == rn_check(ns, (0,), 1.0).critical_c
    verdicts = []
    for c in (np.nextafter(critical, 0.0), critical, np.nextafter(critical, 2.0)):
        c = float(c)
        expected = (rn_check(ns, (0,), c).holds, (0,), critical)
        assert rn_uniform(ns, 1, c) == expected
        assert _rn_uniform_by_scan(ns, 1, c) == expected
        verdicts.append(expected[0])
    # c * on rounds below off at c = critical, so the ray stays outside
    assert verdicts == [True, True, False]


def test_rn_uniform_critical_decreases_with_support_size(inst9):
    ns = nullspace(inst9.X)
    crits = [rn_uniform(ns, t, 0.5)[2] for t in (1, 2, 3)]
    assert crits[0] > crits[1] > crits[2]


def test_rn_uniform_trivial_nullspace():
    assert rn_uniform(nullspace(np.eye(4)), 2, 1.0) == (
        True,
        (),
        math.inf,
    )


def test_rn_uniform_multidimensional_nullspace():
    ns = nullspace(X_DUP_PAIRS)
    holds, worst, crit = rn_uniform(ns, 1, 0.5)
    assert holds and crit == 1.0
    # the first ray, (0, -1, 0, 1), has the least ratio and its worst
    # support is its first largest entry
    fails, worst_T, _ = rn_uniform(ns, 1, 2.0)
    assert not fails
    assert worst_T == worst == (1,)


def test_rn_uniform_budget_refusal(inst9):
    # the budget bounds the rays, one per row subset of size d - 1:
    # C(4, 1) = 4 here
    ns = nullspace(X_DUP_PAIRS)
    for certify in (
        lambda budget: rn_uniform(ns, 2, 1.0, enumeration_budget=budget),
        lambda budget: rn_check(ns, (0, 1), 1.0, enumeration_budget=budget),
    ):
        with pytest.raises(BudgetExceeded):
            certify(3)
        assert certify(4).holds is False
    # a one-dimensional nullspace has one ray
    ns9 = nullspace(inst9.X)
    assert rn_uniform(ns9, 3, 1.0, enumeration_budget=1).holds


def test_rn_uniform_rejects_bad_cone_constant(inst9):
    # every nullspace dimension refuses, not only the enumeration branch
    for X in (inst9.X, np.eye(3), X_DUP_PAIRS):
        ns = nullspace(X)
        for c in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="c must be positive"):
                rn_uniform(ns, 1, c)


def test_nullspace_certifiers_refuse_what_is_not_a_basis():
    X = np.random.default_rng(3).standard_normal((3, 5))
    # the design in the place of its nullspace (the old argument order)
    with pytest.raises(
        ValueError,
        match=r"^the nullspace basis has 5 columns in dimension 3; pass nullspace\(X\), not X$",
    ):
        rn_uniform(X, 1, 1.0)
    # a basis in the place of the enumeration budget
    with pytest.raises(ValueError, match="^enumeration_budget must be an integer, got ndarray$"):
        rn_uniform(np.eye(4), 2, 1.0, nullspace(np.eye(4)))
    ray = nullspace(np.array([[1.0, 2.0, 3.0]]))
    unnormalized = "^each nullspace basis column must end in a last nonzero coordinate of 1"
    for bad, message in [
        (X.T, unnormalized),
        (2.0 * ray, unnormalized),
        (np.zeros((3, 1)), unnormalized),
        (np.where(ray == 1.0, math.nan, ray), "^the nullspace basis must be finite$"),
        (ray[:, 0], r"^the nullspace basis must be a \(p, d\) array, got \(3,\)$"),
        (ray.tolist(), r"^the nullspace basis must be a \(p, d\) array, got \(3, 2\)$"),
    ]:
        for certify in (
            lambda ns: rn_check(ns, (0,), 1.0),
            lambda ns: rn_uniform(ns, 1, 1.0),
            spark_from_nullspace,
        ):
            with pytest.raises(ValueError, match=message):
                certify(bad)
    # nullspace's own bases pass, trivial ones included
    for X in (np.eye(3), X_DUP_PAIRS, np.array([[1.0, 2.0, 3.0]])):
        ns = nullspace(X)
        rn_check(ns, (0,), 1.0)
        rn_uniform(ns, 1, 1.0, np.int64(10))
        spark_from_nullspace(ns)


def _rn_uniform_one_at_a_time(ns, t, c):
    """The uniform check as a scan of rn_check over every size-t support:
    it holds iff every support holds, at the least critical constant."""
    verdicts = [
        rn_check(ns, T, c)
        for T in itertools.combinations(range(ns.shape[0]), t)
    ]
    return all(v.holds for v in verdicts), min(v.critical_c for v in verdicts)


def test_rn_uniform_matches_one_support_at_a_time_scan():
    X = np.random.default_rng(11).standard_normal((12, 14))
    ns = nullspace(X)
    assert ns.shape == (14, 2)
    verdicts = set()
    for t in (1, 2):
        for c in (0.05, 0.2, 0.5, 1.0, 1.5527, 3.0):
            holds, critical = _rn_uniform_one_at_a_time(ns, t, c)
            fast = rn_uniform(ns, t, c)
            assert (fast.holds, fast.critical_c) == (holds, critical)
            # the worst support attains the least critical constant
            assert rn_check(ns, fast.worst_T, c).critical_c == critical
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
    assert not rn_uniform(ns, 2, 1.001 * critical).holds
    assert rn_uniform(ns, 2, 0.999 * critical).holds
    _, worst_T, crit = rn_uniform(ns, 2, 1.0)
    assert crit == pytest.approx(critical, abs=1e-4)
    # the witness is a nullspace vector in the cone of the worst support
    c = 1.001 * crit
    verdict = rn_check(ns, worst_T, c)
    assert not verdict.holds
    w = verdict.witness
    assert np.linalg.norm(X @ w) <= 1e-12 * np.linalg.norm(w)
    assert in_cone(w, worst_T, c)
    # no sampled direction goes below the critical constant
    Z = np.abs(ns @ np.random.default_rng(0).standard_normal((ns.shape[1], 20_000)))
    top = np.sort(Z, axis=0)[-2:].sum(axis=0)
    assert np.min((Z.sum(axis=0) - top) / top) >= crit


def test_re_upper_bound_identity():
    est = re_upper_bound(np.eye(4), (0, 1), 1.0, samples=50, seed=0)
    assert est.phi_estimate == 1.0


def test_re_upper_bound_sees_nullspace_ray(inst9):
    ns = nullspace(inst9.X)
    est = re_upper_bound(
        inst9.X, inst9.S, 3.0, samples=32, seed=0, ns=ns
    )
    # c = 3 admits the flat ray, which the design maps to zero
    assert est.phi_estimate == 0.0
    np.testing.assert_allclose(est.witness, inst9.z, atol=1e-9)


def test_re_upper_bound_validates_samples():
    with pytest.raises(ValueError):
        re_upper_bound(np.eye(2), (0,), 1.0, samples=0)


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


def test_rip_budget_refusal(inst9):
    with pytest.raises(BudgetExceeded):
        rip_constant(inst9.X, 3, enumeration_budget=10)


def test_rip_implies_rn_is_deterministic():
    a = rip_implies_rn_test(6, trials=20, t=1, seed=1)
    b = rip_implies_rn_test(6, trials=20, t=1, seed=1)
    assert a == b
    assert a["violations"] == 0
    assert set(a["families"]) == {
        "gaussian",
        "orthonormal-extended",
        "near-tight-frame",
    }


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


def test_spark_budget_partial_certificate(inst9):
    cert = spark(inst9.X, enumeration_budget=4)
    assert cert.budget_exhausted
    assert cert.spark is None
    assert cert.lower_bound == 1
    assert cert.subsets_tested == 0


def test_spark_from_nullspace_cases(inst25):
    # both shortcuts decide without testing a single subset
    assert spark_from_nullspace(nullspace(np.eye(3))) == SparsityCertificate(
        spark=None,
        witness_columns=None,
        subsets_tested=0,
        lower_bound=4,
        budget_exhausted=False,
    )
    p = inst25.p
    assert spark_from_nullspace(nullspace(inst25.X)) == SparsityCertificate(
        spark=p,
        witness_columns=tuple(range(p)),
        subsets_tested=0,
        lower_bound=p,
        budget_exhausted=False,
    )
    # a ray with a zero coordinate is inconclusive
    sparse_ray = nullspace(np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]]))
    assert spark_from_nullspace(sparse_ray) is None


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


def test_unique_sparsest_budget_refusal(inst9):
    with pytest.raises(BudgetExceeded):
        unique_sparsest(inst9.X, inst9.Y, 3, enumeration_budget=5)


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


def test_budget_cutting_off_a_later_size(inst9):
    # sizes 1 and 2 (10 + 45 subsets) fit a budget of 60; size 3 does not
    cert = spark(inst9.X, enumeration_budget=60)
    assert cert == SparsityCertificate(
        spark=None,
        witness_columns=None,
        subsets_tested=55,
        lower_bound=3,
        budget_exhausted=True,
    )
    with pytest.raises(BudgetExceeded, match="budget of 60 at size 3"):
        unique_sparsest(inst9.X, inst9.Y, 3, enumeration_budget=60)
