import math
import re

import numpy as np
import pytest

from sparselab import BoostingConfig, construct, run
from sparselab.boosting import iterate, select_index
from sparselab.counterexample import (
    COORD_SLACK,
    AnalyticState,
    InvariantViolation,
    _block_size,
    _step,
    analytic_step,
    equivalence_check,
)


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


def test_initial_correlations_match(inst25):
    # the reduced step writes the correlations it selects from into rho_a
    rho_a = np.empty(inst25.p)
    _step(np.zeros(20), 0.0, 0, inst25, 1.0, rho_a)
    rho_m = run(inst25.X, inst25.Y, BoostingConfig(max_iterations=0))[0].rho
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
    state = AnalyticState(np.zeros(20), 0.0, 0)
    after = analytic_step(state, inst25, nu=1.0)
    assert after.c_p == 3125.0 / 3145.0
    assert np.all(after.c_mid == 0.0)
    assert after.k == 1
    # the step records its selection: the mixed column
    assert state.j is None and after.j == inst25.n


def test_analytic_step_flags_box_escape(inst9):
    # a state already past the top of the box is refused before the step
    state = AnalyticState(c_mid=np.full(6, 1.1), c_p=1.1, k=0)
    with pytest.raises(InvariantViolation, match="left"):
        analytic_step(state, inst9, nu=1.0)
    # a coordinate the step would not move is checked too: the mixed column
    # would move c_p into the box, and c_mid[0] = 1.5 is outside it
    state = AnalyticState(c_mid=np.array([1.5, 0, 0, 0, 0, 0]), c_p=0.0, k=0)
    with pytest.raises(InvariantViolation, match=re.escape("range [0.0, 1.5]")):
        analytic_step(state, inst9, nu=1.0)


@pytest.mark.parametrize(
    "c_p, hi",
    # an overlong step (nu = 1.5, past what step_length lets through) from
    # c_mid = 0: at c_p = 0 the mixed column moves c_p to 1.5 * 243 / 249,
    # at c_p = 0.99 the middle column 3 moves c_mid[0] to 1.5 * 0.99
    [(0.0, 1.5 * (243.0 / 249.0)), (0.99, 1.5 * 0.99)],
)
def test_reduced_step_box_checks_the_moved_coordinate(inst9, c_p, hi):
    # the refusal names the whole state's range, the moved coordinate included
    with pytest.raises(
        InvariantViolation,
        match=re.escape(f"left [0, 1] at iteration 5: range [0.0, {hi!r}]"),
    ):
        _step(np.zeros(6), c_p, 4, inst9, 1.5, np.empty(inst9.p))


def test_analytic_saturation_is_a_noop(inst9):
    state = AnalyticState(np.zeros(6), 0.0, 0)
    for _ in range(200):
        state = analytic_step(state, inst9, nu=1.0)
    # the undamped recursion parks at the all-ones corner where every
    # correlation is exactly zero and further steps change nothing
    assert state.c_p == 1.0
    assert np.all(state.c_mid == 1.0)
    rho = np.empty(inst9.p)
    assert _step(state.c_mid.copy(), state.c_p, state.k, inst9, 1.0, rho) == (0, 1.0)
    assert np.all(rho == 0.0)
    again = analytic_step(state, inst9, nu=1.0)
    assert again.c_p == 1.0
    assert np.all(again.c_mid == 1.0)
    # a no-op names index 0, as select_index does on all-zero correlations
    assert again.j == 0


@pytest.mark.parametrize("nu", [0.1, 1.0])
def test_equivalence_short_run(inst9, nu):
    assert equivalence_check(inst9, nu=nu, iterations=50) <= 1e-10


@pytest.mark.parametrize("nu", [0.1, 1.0])
def test_equivalence_deep_run(inst25, nu):
    # 5000 lockstep iterations on n=25; the nu=0.1 run mismatches on
    # roundoff only at k=5836, once the residual is about 3e-12
    assert equivalence_check(inst25, nu=nu, iterations=5000) <= 1e-10


def test_equivalence_deep_damped_run_mismatch_is_pinned(inst25):
    # the known lockstep defect: past k=5836 the matrix residual is about
    # 3e-12 and roundoff breaks a tie the recursion keeps exact
    with pytest.raises(
        RuntimeError,
        match="^selection mismatch at iteration 5836: matrix picked 20, recursion picked 25$",
    ):
        equivalence_check(inst25, 0.1, 20000)


# --- the lean lockstep keeps every bit --------------------------------------


def _reference_analytic_step(state, inst, nu):
    """Reference: analytic_step before it selected once, verbatim, with
    the correlations computed inline."""
    g, s, n = inst.gamma, inst.s, inst.n
    rho = np.empty(inst.p)
    rho[:s] = g * (1.0 - state.c_p)
    rho[s:n] = state.c_mid - state.c_p
    rho[n] = (
        s * g * g * (1.0 - state.c_p) + float((state.c_mid - state.c_p).sum())
    ) / math.sqrt((g * g - 1.0) * s + n)
    if float(np.abs(rho).max()) == 0.0:
        return AnalyticState(c_mid=state.c_mid.copy(), c_p=state.c_p, k=state.k + 1, j=0)
    j = select_index(rho)
    if j < s:
        raise InvariantViolation(
            f"leading column {j} won the correlation race at iteration {state.k}"
        )
    if j == n:
        denom = (g * g - 1.0) * s + n
        delta = (
            s * g * g * (1.0 - state.c_p)
            + float((state.c_mid - state.c_p).sum())
        ) / denom
        c_mid = state.c_mid.copy()
        c_p = state.c_p + nu * delta
    else:
        c_mid = state.c_mid.copy()
        c_mid[j - s] = (1.0 - nu) * state.c_mid[j - s] + nu * state.c_p
        c_p = state.c_p
    lo = c_p if c_mid.size == 0 else min(float(c_mid.min()), c_p)
    hi = c_p if c_mid.size == 0 else max(float(c_mid.max()), c_p)
    if lo < -COORD_SLACK or hi > 1.0 + COORD_SLACK:
        raise InvariantViolation(
            f"reduced coordinate left [0, 1] at iteration {state.k + 1}: "
            f"range [{lo!r}, {hi!r}]"
        )
    return AnalyticState(c_mid=c_mid, c_p=c_p, k=state.k + 1, j=j)


def _reference_lockstep(inst, nu, iterations):
    """Reference: equivalence_check's loop before the lean deviation,
    verbatim, returning the deviation (or the mismatch message) and every
    reduced state."""
    config = BoostingConfig(nu=nu, max_iterations=iterations)
    astate = AnalyticState(np.zeros(inst.n - inst.s), 0.0, 0)
    states, deviation = [], 0.0
    for k, jm, _, beta, _, _ in iterate(inst.X, inst.Y, config):
        if k:
            astate = _reference_analytic_step(astate, inst, nu)
            states.append(astate)
            if jm != astate.j:
                return (
                    f"selection mismatch at iteration {k}: "
                    f"matrix picked {jm}, recursion picked {astate.j}"
                ), states
            reduced = np.concatenate([np.zeros(inst.s), -astate.c_mid, [astate.c_p]])
            deviation = max(deviation, float(np.abs(reduced - beta).max()))
    return float.hex(deviation), states


def _state_bits(state):
    return state.k, state.j, state.c_mid.tobytes(), float.hex(state.c_p)


# How each reference run ends: at the iteration cap, on the 1e-12 residual
# floor (n=9 at nu=1 after 57 steps and at nu=0.5 after 335, n=25 at nu=1
# after 127), or on a roundoff mismatch (damped n=9 at k=1819, residual
# 1.3e-10; damped n=25 at the pinned k=5836)
LOCKSTEP_ENDS = {
    (1.0, 1.0, 400): "floor",
    (1.0, 0.1, 3000): "mismatch",
    (1.0, 0.5, 3000): "floor",
    (4.0, 1.0, 3000): "floor",
    (4.0, 0.1, 3000): "cap",
    (4.0, 0.1, 20000): "mismatch",
    (6.0, 0.1, 3000): "cap",
}


@pytest.mark.parametrize("c, nu, iterations", list(LOCKSTEP_ENDS))
def test_lockstep_matches_reference_bit_for_bit(c, nu, iterations):
    inst = construct(c)
    outcome, states = _reference_lockstep(inst, nu, iterations)
    ends = LOCKSTEP_ENDS[c, nu, iterations]
    mismatch = outcome.startswith("selection mismatch")
    stopped = len(states) < iterations and not mismatch
    assert (mismatch, stopped) == (ends == "mismatch", ends == "floor")
    try:
        got = float.hex(equivalence_check(inst, nu, iterations))
    except RuntimeError as exc:
        got = str(exc)
    assert got == outcome
    astate = AnalyticState(np.zeros(inst.n - inst.s), 0.0, 0)
    for want in states:
        astate = analytic_step(astate, inst, nu)
        assert _state_bits(astate) == _state_bits(want)


def test_analytic_step_matches_reference_from_random_states(inst9, inst25):
    # states drawn from the box step as the reference does, bit for bit,
    # down to the middle block's pairwise sum, and the given state's c_mid
    # is not written to
    rng = np.random.default_rng(7)
    for inst in (inst9, inst25, construct(6.0)):
        for draw in range(300):
            c_mid = rng.uniform(size=inst.n - inst.s) ** rng.integers(1, 4)
            state = AnalyticState(c_mid, float(rng.uniform()), draw)
            nu = 0.1 * (1 + draw % 10)
            want = _state_bits(_reference_analytic_step(state, inst, nu))
            before = c_mid.tobytes()
            assert _state_bits(analytic_step(state, inst, nu)) == want
            assert c_mid.tobytes() == before


def test_analytic_noop_matches_reference(inst9):
    # a saturated state has all-zero correlations: both steps are no-ops
    state = AnalyticState(c_mid=np.ones(inst9.n - inst9.s), c_p=1.0, k=7)
    assert _state_bits(analytic_step(state, inst9, 0.5)) == _state_bits(
        _reference_analytic_step(state, inst9, 0.5)
    )


def test_analytic_step_reads_any_vector_as_floats(inst9):
    # three undamped steps from an integer or list zero state track the
    # float steps bit for bit: the mixed column, then columns 3 and 4, each
    # moving its c_mid entry to c_p = 0.976, where an integer c_mid once
    # truncated the entry to 0 and column 3 won every later step
    def three_steps(c_mid):
        state = AnalyticState(c_mid, 0.0, 0)
        for _ in range(3):
            state = analytic_step(state, inst9, 1.0)
        return state

    want = three_steps(np.zeros(6))
    assert want.j == inst9.s + 1
    assert want.c_mid.tolist() == [want.c_p] * 2 + [0.0] * 4
    assert 0.97 < want.c_p < 0.98
    for start in (np.zeros(6, dtype=np.int64), [0] * 6):
        assert _state_bits(three_steps(start)) == _state_bits(want)
