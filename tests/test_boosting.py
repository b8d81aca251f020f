import math

import numpy as np
import pytest

from sparselab import (
    BoostingConfig,
    correlations,
    init,
    lq_norm,
    run,
    select_index,
    step,
)
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
    Y = np.array([1.0, -2.0])
    state = init(Y, 4)
    assert state.k == 0
    assert np.all(state.beta == 0.0)
    np.testing.assert_array_equal(state.residual, Y)
    assert state.rho is None
    assert state.history == ()


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
    config = BoostingConfig(nu=1.0, max_iterations=5)
    state = init(np.zeros(2), 2)
    state = step(state, X, config)
    assert state.k == 1
    assert state.history == (0,)
    assert state.history_steps == (0.0,)
    assert np.all(state.beta == 0.0)


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
    assert hist_a == hist_b


def test_run_stops_on_residual_floor():
    X = np.eye(3)
    Y = np.array([2.0, 1.0, 0.5])
    config = BoostingConfig(nu=1.0, max_iterations=50, residual_stop=1e-12)
    snaps = run(X, Y, config)
    # orthonormal design: one exact fit per coordinate, then stop
    assert snaps[-1].k == 3
    assert lq_norm(snaps[-1].residual, 2) <= 1e-12


def test_run_snapshot_thinning():
    rng = np.random.default_rng(21)
    X, Y = _random_problem(rng, 4, 6)
    config = BoostingConfig(nu=0.1, max_iterations=37, residual_stop=0.0)
    snaps = run(X, Y, config, snapshot_dense_limit=10, snapshot_stride=5)
    ks = [s.k for s in snaps]
    assert ks == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 20, 25, 30, 35, 37]


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
        assert snap.history == final.history[: snap.k]
        assert snap.history_steps == final.history_steps[: snap.k]
        assert row.j == (snap.history[-1] if snap.k else None)
