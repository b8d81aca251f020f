import math
import tracemalloc

import numpy as np
import pytest

from sparselab import (
    BoostingConfig,
    correlations,
    lq_norm,
    run,
    select_index,
)
from sparselab.boosting import thin
from sparselab.report import boosting_trajectory


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
    np.testing.assert_array_equal(state.rho, correlations(X, Y))
    assert state.history.tolist() == []
    assert state.history_steps.tolist() == []


def test_correlations_formula():
    X = np.array([[3.0, 0.0], [4.0, 2.0]])
    R = np.array([1.0, 1.0])
    # <R, X_j> / ||X_j||: (3+4)/5 and 2/2
    np.testing.assert_allclose(correlations(X, R), [7.0 / 5.0, 1.0])


def test_correlations_reject_zero_column():
    X = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="column 1"):
        correlations(X, np.ones(2))


def test_select_index_tie_prefers_smallest():
    assert select_index([2.0, -2.0, 1.0]) == 0
    assert select_index([-1.0, 1.0]) == 0
    assert select_index([0.5, -2.0, 2.0]) == 1
    # within the relative tie window the earlier index still wins
    assert select_index([2.0 * (1.0 - 1e-13), 2.0]) == 0


def test_select_index_all_zero():
    assert select_index(np.zeros(5)) == 0
    with pytest.raises(ValueError):
        select_index(np.zeros(0))


def test_select_index_refuses_non_finite():
    # overflowing data turns correlations into inf or nan
    for rho in ([1.0, math.inf], [math.nan, 2.0], [-math.inf]):
        with pytest.raises(ValueError, match="overflow"):
            select_index(rho)


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
        lhs = lq_norm(prev.residual, 2) ** 2 - lq_norm(cur.residual, 2) ** 2
        rhs = drop_factor * float(prev.rho[j]) ** 2
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, lq_norm(prev.residual, 2) ** 2)


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


def test_run_stops_on_residual_floor():
    X = np.eye(3)
    Y = np.array([2.0, 1.0, 0.5])
    config = BoostingConfig(nu=1.0, max_iterations=50, residual_stop=1e-12)
    snaps = run(X, Y, config)
    # orthonormal design: one exact fit per coordinate, then stop
    assert snaps[-1].k == 3
    assert lq_norm(snaps[-1].residual, 2) <= 1e-12


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
        assert lq_norm(snap.residual, 2) == row.resid_l2
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
