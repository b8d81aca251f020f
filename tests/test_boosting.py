import math
import tracemalloc
import warnings

import numpy as np
import pytest

from sparselab import BoostingConfig, construct, run
from sparselab.boosting import TIE_RTOL, iterate, select_index, thin
from sparselab.report import TRAJECTORY_BLOCK, TrajectoryRow, boosting_trajectory


def _random_problem(rng, n, p):
    X = rng.standard_normal((n, p))
    Y = rng.standard_normal(n)
    return X, Y


def test_config_validation():
    with pytest.raises(ValueError):
        BoostingConfig(nu=0.0)
    with pytest.raises(ValueError):
        BoostingConfig(nu=1.5)
    with pytest.raises(ValueError):
        BoostingConfig(max_iterations=-1)
    with pytest.raises(ValueError):
        BoostingConfig(residual_stop=-1e-3)


def test_init_state():
    X = np.array([[1.0, 0.0, 2.0, -1.0], [0.0, 3.0, 1.0, 1.0]])
    Y = np.array([1.0, -2.0])
    (state,) = run(X, Y, BoostingConfig(max_iterations=0))
    assert state.k == 0
    assert state.beta.shape == (4,) and np.all(state.beta == 0.0)
    np.testing.assert_array_equal(state.residual, Y)
    np.testing.assert_array_equal(state.rho, (X.T @ Y) / np.sqrt(np.sum(X * X, axis=0)))
    assert state.history.tolist() == []
    assert state.history_steps.tolist() == []


def test_correlations_formula():
    X = np.array([[3.0, 0.0], [4.0, 2.0]])
    R = np.array([1.0, 1.0])
    (state,) = run(X, R, BoostingConfig(max_iterations=0))
    # <R, X_j> / ||X_j||: (3+4)/5 and 2/2
    np.testing.assert_allclose(state.rho, [7.0 / 5.0, 1.0])


def test_correlations_reject_zero_column():
    X = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="column 1"):
        run(X, np.ones(2), BoostingConfig())


def test_select_index_tie_prefers_smallest():
    assert select_index(np.array([2.0, -2.0, 1.0])) == 0
    assert select_index(np.array([-1.0, 1.0])) == 0
    assert select_index(np.array([0.5, -2.0, 2.0])) == 1
    # within the relative tie window the earlier index still wins
    assert select_index(np.array([2.0 * (1.0 - 1e-13), 2.0])) == 0


def test_select_index_all_zero():
    assert select_index(np.zeros(5)) == 0


def test_select_index_refuses_non_finite():
    # overflowing data turns correlations into inf or nan
    # a nan or an inf is refused wherever it sits
    for rho in (
        [1.0, math.inf],
        [math.nan, 2.0],
        [-math.inf],
        [2.0, math.nan],
        [0.0, math.nan],
    ):
        with pytest.raises(ValueError, match="overflow"):
            select_index(np.array(rho))


def test_step_zero_residual_is_a_noop():
    X = np.eye(2)
    # a zero floor keeps iterating on the exhausted residual
    config = BoostingConfig(nu=1.0, max_iterations=5, residual_stop=0.0)
    snaps = run(X, np.zeros(2), config)
    state = snaps[1]
    assert state.k == 1
    assert state.history.tolist() == [0]
    assert state.history_steps.tolist() == [0.0]
    assert np.all(state.beta == 0.0)
    assert snaps[-1].history.tolist() == [0] * 5
    assert snaps[-1].history_steps.tolist() == [0.0] * 5
    assert np.all(snaps[-1].beta == 0.0) and np.all(snaps[-1].residual == 0.0)


def test_energy_identity_random():
    rng = np.random.default_rng(5)
    X, Y = _random_problem(rng, 8, 11)
    config = BoostingConfig(nu=0.7, max_iterations=40, residual_stop=0.0)
    snaps = run(X, Y, config)
    drop_factor = config.nu * (2.0 - config.nu)
    for prev, cur in zip(snaps, snaps[1:]):
        j = cur.history[-1]
        lhs = prev.residual.dot(prev.residual) - cur.residual.dot(cur.residual)
        rhs = drop_factor * float(prev.rho[j]) ** 2
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, prev.residual.dot(prev.residual))


def test_residual_consistency():
    rng = np.random.default_rng(9)
    X, Y = _random_problem(rng, 10, 7)
    config = BoostingConfig(nu=1.0, max_iterations=60, residual_stop=0.0)
    final = run(X, Y, config)[-1]
    # the incrementally maintained residual never drifts from Y - X beta
    drift = np.max(np.abs(final.residual - (Y - X @ final.beta)))
    assert drift <= 1e-9 * max(1.0, float(np.max(np.abs(Y))))


def test_selection_invariant_under_column_rescale():
    rng = np.random.default_rng(13)
    X, Y = _random_problem(rng, 9, 12)
    scales = np.exp(rng.uniform(-2.0, 2.0, 12))
    config = BoostingConfig(nu=0.5, max_iterations=30, residual_stop=0.0)
    hist_a = run(X, Y, config)[-1].history
    hist_b = run(X * scales, Y, config)[-1].history
    assert hist_a.tolist() == hist_b.tolist()


@pytest.mark.parametrize("c", [1.0, 4.0])
@pytest.mark.parametrize("nu", [1.0, 0.1])
def test_power_of_two_column_scales_leave_every_bit(c, nu):
    # scaling column j by a power of two D_j is exact in binary floating
    # point: every normalized correlation, hence every selection, residual
    # and rho, keeps its bits, and beta_j shrinks by exactly D_j.  The
    # default floor of 1e-12 stops the nu = 1 runs (k = 57 on n = 9, 127
    # on n = 25) before the residual goes subnormal, where the scaled
    # products round differently (first at k = 1,331 and 2,920 with
    # residual_stop = 0).
    inst = construct(c)
    D = 2.0 ** (np.arange(inst.p) - inst.p // 2)
    config = BoostingConfig(nu=nu, max_iterations=3000)
    plain = list(iterate(inst.X, inst.Y, config))
    scaled = list(iterate(inst.X * D, inst.Y, config))
    assert len(scaled) == len(plain)
    for (k, j, _, beta, residual, rho), (_, js, _, beta_s, residual_s, rho_s) in zip(
        plain, scaled
    ):
        assert js == j, k
        assert residual_s.tobytes() == residual.tobytes(), k
        assert rho_s.tobytes() == rho.tobytes(), k
        assert (beta_s * D).tobytes() == beta.tobytes(), k


def test_run_stops_on_residual_floor():
    X = np.eye(3)
    Y = np.array([2.0, 1.0, 0.5])
    config = BoostingConfig(nu=1.0, max_iterations=50, residual_stop=1e-12)
    snaps = run(X, Y, config)
    # orthonormal design: one exact fit per coordinate, then stop
    assert snaps[-1].k == 3
    assert np.linalg.norm(snaps[-1].residual) <= 1e-12


def test_run_snapshot_thinning():
    # past the dense limit, run keeps exactly the k that thin keeps of the
    # trajectory rows, so snapshots and the trajectory CSV share one rule
    rng = np.random.default_rng(21)
    X, Y = _random_problem(rng, 4, 6)
    K = 1037
    config = BoostingConfig(nu=0.1, max_iterations=K, residual_stop=0.0)
    ks = [s.k for s in run(X, Y, config)]
    assert ks == list(thin(range(K + 1)))
    assert ks == list(range(1001)) + [1010, 1020, 1030, 1037]


def test_run_snapshots_agree_with_trajectory(inst25):
    # run and the report trajectory consume one engine: at every kept
    # snapshot they must agree bit for bit, and every snapshot's history
    # must be a prefix of the final one
    config = BoostingConfig(nu=0.1, max_iterations=5000, residual_stop=0.0)
    snaps = run(inst25.X, inst25.Y, config)
    rows = boosting_trajectory(inst25.X, inst25.Y, config, truth=inst25.beta, S=inst25.S)
    final = snaps[-1]
    assert final.k == 5000 and len(rows) == 5001
    assert len(final.history) == len(final.history_steps) == 5000
    for snap in snaps:
        row = rows[snap.k]
        assert row.k == snap.k
        assert math.sqrt(snap.residual.dot(snap.residual)) == row.resid_l2
        assert snap.history.tolist() == final.history[: snap.k].tolist()
        assert snap.history_steps.tolist() == final.history_steps[: snap.k].tolist()
        assert row.j == (snap.history.tolist()[-1] if snap.k else None)


def test_run_snapshots_share_one_read_only_record(inst25):
    config = BoostingConfig(nu=0.1, max_iterations=3000, residual_stop=0.0)
    snaps = run(inst25.X, inst25.Y, config)
    first, final = snaps[1], snaps[-1]
    assert np.shares_memory(first.history, final.history)
    assert np.shares_memory(first.history_steps, final.history_steps)
    for snap in (first, final):
        assert len(snap.history) == len(snap.history_steps) == snap.k
        with pytest.raises(ValueError, match="read-only"):
            snap.history[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            snap.history_steps[0] = 0.0


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_memory_is_linear_in_iterations(inst25):
    # 1,401 snapshots over 5,000 iterations: a history copied into every
    # snapshot would cost tens of MB
    config = BoostingConfig(nu=0.1, max_iterations=5000, residual_stop=0.0)
    snaps, peak = _peak_bytes(lambda: run(inst25.X, inst25.Y, config))
    assert len(snaps) == 1401 and snaps[-1].k == 5000
    assert peak < 4_000_000, peak


def test_run_huge_budget_allocates_only_what_it_uses():
    config = BoostingConfig(nu=1.0, max_iterations=10**9, residual_stop=1e-12)
    snaps, peak = _peak_bytes(
        lambda: run(np.eye(3), np.array([2.0, 1.0, 0.5]), config)
    )
    assert snaps[-1].k == 3
    assert snaps[-1].history.tolist() == [0, 1, 2]
    assert peak < 100_000, peak


def test_run_refuses_non_finite_X():
    X = np.eye(3)
    X[1, 2] = math.nan
    with pytest.raises(ValueError, match="^X must be finite$"):
        run(X, np.ones(3), BoostingConfig())


@pytest.mark.parametrize(
    "scale_X, scale_Y",
    # X'Y overflows; the column norms overflow while X'Y stays finite
    [(1e300, 1e300), (1e200, 1.0)],
    ids=["correlations", "column-norms"],
)
def test_run_refuses_overflow_at_k0_without_warning(scale_X, scale_Y):
    X, Y = scale_X * np.eye(3), scale_Y * np.ones(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^the correlations overflow; rescale X or Y$"):
            run(X, Y, BoostingConfig())
        # the generator refuses before it yields the k = 0 state
        with pytest.raises(ValueError, match="overflow"):
            next(iterate(X, Y, BoostingConfig(max_iterations=0)))


def test_run_refuses_overflowing_squared_norm_of_Y_without_warning():
    # X'Y is finite, but the floor test's ||residual||^2 is not
    X, Y = np.eye(3), 1e200 * np.ones(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^the squared norm of Y overflows; rescale Y$"):
            run(X, Y, BoostingConfig())


# --- the engine keeps every bit ---------------------------------------------


def _reference_select_index(rho) -> int:
    """Reference: select_index before the lean body, verbatim."""
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


def _reference_iterate(X, Y, config):
    """Reference: the boosting engine before the lean loop, verbatim
    except that the column norms, the first correlations and the residual
    norm are inlined."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 1:
        raise ValueError(f"Y must be one-dimensional, got shape {Y.shape}")
    if not np.all(np.isfinite(Y)):
        raise ValueError("Y must be finite")
    k, j, applied = 0, None, 0.0
    residual = Y.copy()
    beta = np.zeros(X.shape[1])
    norms = np.sqrt(np.sum(X * X, axis=0))
    rho = (X.T @ residual) / norms
    yield k, j, applied, beta, residual, rho
    while k < config.max_iterations and (
        config.residual_stop == 0.0
        or math.sqrt(residual.dot(residual)) > config.residual_stop
    ):
        k += 1
        j = _reference_select_index(rho)
        if float(np.abs(rho[j])) == 0.0:
            applied = 0.0
            beta, residual, rho = beta.copy(), residual.copy(), rho.copy()
        else:
            applied = config.nu * (float(rho[j]) / float(norms[j]))
            beta = beta.copy()
            beta[j] += applied
            residual = residual - applied * X[:, j]
            rho = (X.T @ residual) / norms
        yield k, j, applied, beta, residual, rho


def _reference_cone_split(delta, T):
    """Reference: the cone split before its index sets were hoisted, verbatim."""
    delta = np.asarray(delta, dtype=float)
    mask = np.zeros(delta.size, dtype=bool)
    mask[list(T)] = True
    mags = np.abs(delta)
    on = float(mags[mask].sum())
    off = float(mags[~mask].sum())
    if on == 0.0:
        return on, off, math.nan if off == 0.0 else math.inf
    return on, off, off / on


def _reference_trajectory(X, Y, config, truth=None, S=()):
    """Reference: the trajectory-row builder before the lean loop, verbatim
    except that its l1 and l2 norms are inlined."""
    rows = []
    for k, j, _, beta, residual, rho in _reference_iterate(X, Y, config):
        if truth is None:
            dist, ratio = math.nan, math.nan
        else:
            delta = beta - np.asarray(truth, dtype=float)
            dist, ratio = float(np.abs(delta).sum()), _reference_cone_split(delta, S)[2]
        rows.append(
            TrajectoryRow(
                k=k,
                j=j,
                rho_max=float(np.abs(rho).max()),
                resid_l2=math.sqrt(residual.dot(residual)),
                dist_l1=dist,
                cone_ratio=ratio,
            )
        )
    return rows


def _item_bits(item):
    k, j, applied, beta, residual, rho = item
    return k, j, float.hex(applied), beta.tobytes(), residual.tobytes(), rho.tobytes()


def _row_bits(row):
    return tuple(float.hex(v) if isinstance(v, float) else v for v in row)


def _family(c, nu):
    def design():
        inst = construct(c)
        config = BoostingConfig(nu=nu, max_iterations=3000, residual_stop=0.0)
        return inst.X, inst.Y, config, inst.beta, inst.S

    return design


def _gaussian():
    rng = np.random.default_rng(41)
    X, Y = _random_problem(rng, 12, 20)
    truth = np.zeros(20)
    truth[[1, 6, 13]] = (1.5, -2.0, 0.5)
    return X, Y, BoostingConfig(nu=0.3, max_iterations=600), truth, (1, 6, 13)


def _duplicate_column():
    # columns 2 and 7 are exact twins, so every pick of one is a tie that
    # the smaller index wins
    rng = np.random.default_rng(43)
    X, _ = _random_problem(rng, 10, 9)
    X[:, 7] = X[:, 2]
    Y = X @ np.array([0.0, 0.0, 2.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.5])
    config = BoostingConfig(nu=0.5, max_iterations=400, residual_stop=0.0)
    return X, Y, config, None, ()


def _exhausted_residual():
    # an orthonormal design fits Y exactly in three steps; with a zero
    # floor the remaining steps are no-ops on a zero residual
    config = BoostingConfig(nu=1.0, max_iterations=12, residual_stop=0.0)
    return np.eye(3), np.array([2.0, 1.0, 0.5]), config, np.array([2.0, 1.0, 0.0]), (0, 1)


ENGINE_CASES = {
    "family-n9-nu1": _family(1.0, 1.0),
    "family-n9-nu0.1": _family(1.0, 0.1),
    "family-n25-nu1": _family(4.0, 1.0),
    "family-n25-nu0.1": _family(4.0, 0.1),
    "gaussian-12x20": _gaussian,
    "duplicate-column": _duplicate_column,
    "exhausted-residual": _exhausted_residual,
}


@pytest.mark.parametrize("name", sorted(ENGINE_CASES))
def test_engine_matches_reference_bit_for_bit(name):
    X, Y, config, truth, S = ENGINE_CASES[name]()
    got = [_item_bits(item) for item in iterate(X, Y, config)]
    want = [_item_bits(item) for item in _reference_iterate(X, Y, config)]
    assert got == want
    rows = boosting_trajectory(X, Y, config, truth=truth, S=S)
    assert [_row_bits(r) for r in rows] == [
        _row_bits(r) for r in _reference_trajectory(X, Y, config, truth=truth, S=S)
    ]
    if name == "duplicate-column":
        picks = {j for _, j, *_ in got[1:]}
        assert 2 in picks and 7 not in picks
    if name == "exhausted-residual":
        assert [j for _, j, *_ in got[1:]] == [0, 1, 2] + [0] * 9
        assert all(float.fromhex(applied) == 0.0 for _, _, applied, *_ in got[4:])


def _assert_rows_match_reference(X, Y, config, truth, S):
    rows = boosting_trajectory(X, Y, config, truth=truth, S=S)
    assert [_row_bits(r) for r in rows] == [
        _row_bits(r) for r in _reference_trajectory(X, Y, config, truth=truth, S=S)
    ]
    return rows


def test_engine_stops_at_the_floor_like_reference():
    # the default floor ends the run once the residual is exhausted
    X, Y, _, truth, S = _exhausted_residual()
    config = BoostingConfig(nu=1.0, max_iterations=12)
    got = [_item_bits(item) for item in iterate(X, Y, config)]
    assert got == [_item_bits(item) for item in _reference_iterate(X, Y, config)]
    assert len(got) == 4
    _assert_rows_match_reference(X, Y, config, truth, S)


def test_trajectory_floor_stop_mid_block_matches_reference():
    # an orthonormal design fits Y exactly, one column per step, so the
    # default floor stops the run in the middle of the second block
    m = TRAJECTORY_BLOCK * 3 // 2
    Y = np.arange(1.0, m + 1.0)
    config = BoostingConfig(nu=1.0, max_iterations=10 * m)
    rows = _assert_rows_match_reference(np.eye(m), Y, config, Y, (0, 1, 2))
    assert len(rows) == m + 1 and rows[-1].resid_l2 == 0.0


def _gaussian_wide():
    # p > 128: numpy sums each row's magnitudes in pairwise blocks of 128
    rng = np.random.default_rng(53)
    X, Y = _random_problem(rng, 30, 300)
    truth = np.zeros(300)
    truth[[4, 150, 299]] = (1.0, -0.5, 2.0)
    return X, Y, BoostingConfig(nu=0.3), truth, (4, 150, 299)


@pytest.mark.parametrize("design", [_family(1.0, 0.1), _gaussian_wide], ids=["n9", "wide"])
@pytest.mark.parametrize(
    "K", [0, TRAJECTORY_BLOCK - 1, TRAJECTORY_BLOCK, TRAJECTORY_BLOCK + 1]
)
def test_trajectory_blocks_match_reference(design, K):
    X, Y, config, truth, S = design()
    config = BoostingConfig(nu=config.nu, max_iterations=K, residual_stop=0.0)
    assert len(_assert_rows_match_reference(X, Y, config, truth, S)) == K + 1


def test_select_index_matches_reference_bit_for_bit():
    rng = np.random.default_rng(47)
    for _ in range(500):
        p = int(rng.integers(1, 30))
        rho = rng.standard_normal(p) * (rng.random(p) < 0.8)
        # exact ties, ties within the window, and all-zero vectors
        twins = rng.random(p) < 0.2
        rho[twins] = -rho[0] if rng.random() < 0.5 else rho[0] * (1.0 - 1e-13)
        if rng.random() < 0.05:
            rho[:] = 0.0
        assert select_index(rho) == _reference_select_index(rho)
