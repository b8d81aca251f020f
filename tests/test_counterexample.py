import math

import numpy as np
import pytest

from sparselab import (
    AnalyticState,
    BoostingConfig,
    InvariantViolation,
    analytic_beta,
    analytic_rho,
    analytic_step,
    column_norms,
    construct,
    correlations,
    equivalence_check,
    initial_analytic_state,
    run,
)
from sparselab.counterexample import _block_size


def _counting_block_size(c):
    # the search as it was first written: count up from N = 3
    N = 3
    while N * N + 1 - N <= c * N:
        N += 1
    return N


def test_block_size_search_matches_counting_up():
    grid = {0.1, 0.5, 1e-300, 2.9999, 1234.567, 99_999.5, 100_000.0}
    for k in range(1, 300):
        grid.update({float(k), k + 0.5})
    for N in range(2, 300):
        edge = N - 1 + 1 / N
        grid.update({edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)})
    for c in sorted(grid):
        assert _block_size(c) == _counting_block_size(c), c


@pytest.mark.parametrize(
    "c, n",
    [(0.5, 9), (1.0, 9), (2.0, 9), (4.0, 25), (10.0, 121)],
)
def test_construct_sizes(c, n):
    inst = construct(c)
    assert inst.n == n
    assert inst.p == n + 1
    assert inst.s == int(math.isqrt(n))
    assert inst.gamma == float(n)
    assert inst.S == tuple(range(inst.s))


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_construct_rejects_bad_margins(bad):
    with pytest.raises(ValueError):
        construct(bad)


def test_construct_is_exact(inst25):
    # integer construction, then float cast: both identities hold with no
    # rounding at all
    assert np.all(inst25.X @ inst25.z == 0.0)
    assert np.all(inst25.X @ inst25.beta == inst25.Y)
    assert np.all(inst25.beta[: inst25.s] == 1.0)
    assert np.all(inst25.beta[inst25.s :] == 0.0)


def test_column_norms_closed_form(inst9, inst25):
    for inst in (inst9, inst25):
        np.testing.assert_array_equal(
            column_norms(inst), np.linalg.norm(inst.X, axis=0)
        )


def test_initial_correlations_match(inst25):
    state = initial_analytic_state(inst25)
    rho_a = analytic_rho(state, inst25)
    rho_m = correlations(inst25.X, inst25.Y)
    np.testing.assert_array_equal(rho_a, rho_m)
    # mixed column dominates at the start: s * gamma^2 / ||X_p||
    assert rho_a[inst25.n] == 3125.0 / math.sqrt(3145.0)
    assert np.all(rho_a[: inst25.s] == inst25.gamma)


def test_first_selections_frozen(inst9, inst25):
    config = BoostingConfig(nu=1.0, max_iterations=12, residual_stop=0.0)
    hist9 = run(inst9.X, inst9.Y, config)[-1].history
    hist25 = run(inst25.X, inst25.Y, config)[-1].history
    # mixed column first, then a sweep through the middle block
    assert hist9.tolist() == [9, 3, 4, 5, 6, 7, 8, 9, 3, 4, 5, 6]
    assert hist25.tolist() == [25, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]


def test_first_analytic_step_closed_form(inst25):
    state = initial_analytic_state(inst25)
    after = analytic_step(state, inst25, nu=1.0)
    assert after.c_p == 3125.0 / 3145.0
    assert np.all(after.c_mid == 0.0)
    assert after.k == 1


def test_analytic_beta_embedding(inst9):
    state = AnalyticState(c_mid=np.full(6, 0.25), c_p=0.5, k=3)
    beta = analytic_beta(state, inst9)
    assert np.all(beta[:3] == 0.0)
    assert np.all(beta[3:9] == -0.25)
    assert beta[9] == 0.5


def test_analytic_step_rejects_bad_nu(inst9):
    state = initial_analytic_state(inst9)
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            analytic_step(state, inst9, nu=bad)


def test_analytic_step_flags_box_escape(inst9):
    # a state already past the top of the box drifts further out and the
    # post-step range check refuses it
    state = AnalyticState(c_mid=np.full(6, 1.1), c_p=1.1, k=0)
    with pytest.raises(InvariantViolation, match="left"):
        analytic_step(state, inst9, nu=1.0)


def test_analytic_saturation_is_a_noop(inst9):
    state = initial_analytic_state(inst9)
    for _ in range(200):
        state = analytic_step(state, inst9, nu=1.0)
    # the undamped recursion parks at the all-ones corner where every
    # correlation is exactly zero and further steps change nothing
    assert state.c_p == 1.0
    assert np.all(state.c_mid == 1.0)
    assert np.all(analytic_rho(state, inst9) == 0.0)
    again = analytic_step(state, inst9, nu=1.0)
    assert again.c_p == 1.0
    assert np.all(again.c_mid == 1.0)


@pytest.mark.parametrize("nu", [0.1, 1.0])
def test_equivalence_short_run(inst9, nu):
    assert equivalence_check(inst9, nu=nu, iterations=50) <= 1e-10


@pytest.mark.parametrize("nu", [0.1, 1.0])
def test_equivalence_deep_run(inst25, nu):
    # 5000 lockstep iterations on n=25; the nu=0.1 run mismatches on
    # roundoff only at k=5836, once the residual is about 3e-12
    assert equivalence_check(inst25, nu=nu, iterations=5000) <= 1e-10
