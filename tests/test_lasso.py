import importlib
import math
import re
import warnings

import numpy as np
import pytest

from sparselab import (
    basis_pursuit,
    construct,
    kkt_residual,
    lambda_max,
    lasso,
    lasso_path,
)
from sparselab.lasso import PathPoint, _kkt, _slack
from sparselab.report import LAMBDA_MIN_FACTOR

# the package exports the function lasso under the module's name
LASSO = importlib.import_module("sparselab.lasso")


def test_lambda_max_frozen(inst9, inst25):
    # 2 * s * gamma^2 through the mixed column
    assert lambda_max(inst9.X, inst9.Y) == 486.0
    assert lambda_max(inst25.X, inst25.Y) == 6250.0


def test_config_validation():
    # every entry that takes a penalty refuses one that is not positive
    # and finite, in one line and with no numpy warning first
    X, Y = np.eye(2), np.ones(2)
    for name, solve in [
        ("lam", lambda bad: lasso(X, Y, bad)),
        ("lambda_min", lambda bad: lasso_path(X, Y, bad)),
        # a zero target has its penalty checked too
        ("lambda_min", lambda bad: basis_pursuit(X, np.zeros(2), bad)),
        ("lam", lambda bad: kkt_residual(X, Y, np.zeros(2), bad)),
    ]:
        for bad in (-1.0, 0.0, -2.0, math.nan, math.inf):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got "):
                    solve(bad)


@pytest.mark.parametrize(
    "solve",
    [
        lambda X, Y: lasso(X, Y, 1.0),
        lambda X, Y: lasso_path(X, Y, 1e-3),
        lambda X, Y: basis_pursuit(X, Y, 1e-3),
        lambda_max,
        lambda X, Y: kkt_residual(X, Y, np.zeros(2), 1.0),
    ],
    ids=["lasso", "lasso_path", "basis_pursuit", "lambda_max", "kkt_residual"],
)
@pytest.mark.parametrize(
    "X, Y",
    [
        (np.zeros((3, 0)), np.ones(3)),
        (np.ones(3), np.ones(3)),
        (np.ones((3, 2)), np.ones(4)),
    ],
    ids=["no-columns", "1-d-matrix", "short-matrix"],
)
def test_solvers_refuse_bad_shapes(solve, X, Y):
    with pytest.raises(ValueError, match=re.escape(f"X {X.shape}, Y {Y.shape}")):
        solve(X, Y)


def test_kkt_residual_refuses_a_b_of_the_wrong_length():
    with pytest.raises(ValueError, match=re.escape("b has shape (3,), expected (2,)")):
        kkt_residual(np.ones((3, 2)), np.ones(3), np.zeros(3), 1.0)


NAN_Y = np.array([1.0, math.nan, 2.0])
HUGE_X, HUGE_Y = np.array([[1e200, 1.0], [1.0, 1.0]]), np.array([1e200, 1.0])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: lambda_max(np.eye(3), NAN_Y), "Y must be finite"),
        (lambda: lasso_path(np.eye(3), NAN_Y, 1e-3), "Y must be finite"),
        (lambda: lasso(np.eye(3), NAN_Y, 1.0), "Y must be finite"),
        (lambda: basis_pursuit(np.eye(3), NAN_Y, 1e-3), "Y must be finite"),
        (lambda: lasso(np.diag([1.0, math.inf, 1.0]), np.ones(3), 1.0), "X must be finite"),
        (lambda: kkt_residual(np.eye(3), np.ones(3), [math.nan, 0.0, 0.0], 1.0), "b must be finite"),
        # finite input that overflows: from an infinite lambda_max,
        # lasso_path would grow its penalty grid without end
        (lambda: lambda_max(HUGE_X, HUGE_Y), "X'Y overflows; rescale X and Y"),
        (
            lambda: lasso(HUGE_X, HUGE_Y, 1.0),
            "coordinate sweep 1 overflowed to objective nan; rescale X and Y",
        ),
        # a single-entry column's scalar update overflows r[0] and beta[0]
        # alone, where the ufunc pair spread nan over r
        (
            lambda: lasso(np.diag([1e-150, 1.0]), np.array([1e300, 1.0]), 1.0),
            "coordinate sweep 1 overflowed to objective inf; rescale X and Y",
        ),
    ],
    ids=[
        "lambda_max", "lasso_path", "lasso", "basis_pursuit", "X",
        "kkt_residual-b", "lambda_max-overflow", "lasso-overflow", "lasso-single-entry-overflow",
    ],
)
def test_solvers_refuse_non_finite_input(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


def test_single_column_closed_form():
    X = np.array([[1.0], [0.0]])
    Y = np.array([3.0, 4.0])
    fit = lasso(X, Y, 2.0)
    # soft-threshold the correlation at lam / 2
    assert fit.beta[0] == pytest.approx(2.0, abs=1e-14)
    assert fit.kkt <= 1e-12
    assert fit.converged


def test_orthogonal_design_closed_form():
    X = np.diag([2.0, 1.0, 3.0])
    Y = np.array([4.0, -1.0, 0.3])
    fit = lasso(X, Y, 1.0)
    expected = np.array([7.5 / 4.0, -0.5, 0.4 / 9.0])
    np.testing.assert_allclose(fit.beta, expected, atol=1e-12)
    assert fit.kkt <= 1e-10


def test_zero_solution_at_lambda_max():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((10, 6))
    Y = rng.standard_normal(10)
    fit = lasso(X, Y, lambda_max(X, Y))
    assert np.all(fit.beta == 0.0)
    assert fit.kkt <= 1e-12


def test_kkt_residual_flags_violations():
    X = np.eye(2)
    Y = np.array([3.0, 0.0])
    # at b = 0 the first coordinate violates stationarity by |3| - 1
    assert kkt_residual(X, Y, np.zeros(2), 2.0) == pytest.approx(2.0)
    # the exact solution soft(3, 1) = 2 has zero residual
    assert kkt_residual(X, Y, np.array([2.0, 0.0]), 2.0) <= 1e-14
    # an overflowing gradient is an infinite violation, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kkt_residual([[1e308, 1e308]], [0.0], np.array([10.0, 10.0]), 1.0) == math.inf


def test_warm_path_matches_cold_solves():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((20, 10))
    Y = rng.standard_normal(20)
    points = lasso_path(X, Y, 1e-4 * lambda_max(X, Y))
    for point in points:
        cold = lasso(X, Y, point.lam)
        assert cold.converged and point.converged
        assert np.max(np.abs(cold.beta - point.beta)) <= 1e-6


def test_lasso_starts_from_zero_only():
    # the warm start is lasso_path's own; a single solve takes none
    with pytest.raises(TypeError):
        lasso(np.eye(2), np.ones(2), 1.0, warm_start=np.zeros(2))


def test_path_grid_shape(inst9):
    lam_max = lambda_max(inst9.X, inst9.Y)
    lam_min = 1e-4 * lam_max
    points = lasso_path(inst9.X, inst9.Y, lam_min)
    lams = [p.lam for p in points]
    assert lams[0] == lam_max
    assert lams[-1] == lam_min
    assert all(b < a for a, b in zip(lams, lams[1:]))
    # halving is exact in floats, so interior ratios are exactly 0.5
    assert all(b == 0.5 * a for a, b in zip(lams[:-2], lams[1:-1]))


def test_path_rejects_high_floor(inst9):
    with pytest.raises(ValueError):
        lasso_path(inst9.X, inst9.Y, 1e6)


def test_path_orthogonal_target_is_zero():
    X = np.array([[1.0], [0.0]])
    Y = np.array([0.0, 5.0])
    points = lasso_path(X, Y, 1e-3)
    assert len(points) == 1
    assert np.all(points[0].beta == 0.0)
    assert points[0].converged


def test_nonconvergence_is_flagged_not_raised(monkeypatch):
    # the package exports the function lasso under the module's name
    monkeypatch.setattr(importlib.import_module("sparselab.lasso"), "MAX_SWEEPS", 1)
    rng = np.random.default_rng(23)
    X = rng.standard_normal((15, 12))
    Y = rng.standard_normal(15)
    fit = lasso(X, Y, 1e-8)
    assert not fit.converged
    assert fit.sweeps == 1


def test_basis_pursuit_exact_on_construction(inst9):
    recovered = basis_pursuit(inst9.X, inst9.Y, 1e-6 * lambda_max(inst9.X, inst9.Y))
    np.testing.assert_array_equal(recovered, inst9.beta)


def test_basis_pursuit_zero_target(inst9):
    out = basis_pursuit(inst9.X, np.zeros(inst9.n), 1e-3)
    assert np.all(out == 0.0)


def test_basis_pursuit_refuses_shallow_path(inst9):
    # a floor this high leaves a residual far from interpolation
    with pytest.raises(RuntimeError, match="lambda_min"):
        basis_pursuit(inst9.X, inst9.Y, 0.25 * lambda_max(inst9.X, inst9.Y))


def _reference_kkt(g, b, half):
    """The numpy KKT rule of the full-sweep reference below, verbatim."""
    slack = np.where(
        b == 0.0,
        np.maximum(np.abs(g) - half, 0.0),
        np.abs(g - half * np.sign(b)),
    )
    return float(np.max(slack))


def test_kkt_matches_the_numpy_rule_bit_for_bit():
    rng = np.random.default_rng(31)
    half = 0.75
    for _ in range(200):
        p = int(rng.integers(1, 40))
        g = rng.standard_normal(p)
        b = rng.standard_normal(p) * (rng.random(p) < 0.5)
        b[rng.random(p) < 0.1] = -0.0
        # exact ties |g_j| == half, at zero and at nonzero b_j of either sign
        ties = rng.random(p) < 0.2
        g[ties] = half * rng.choice([-1.0, 1.0], ties.sum())
        want = _reference_kkt(g, b, half)
        got = _kkt(g.tolist(), b.tolist(), half, range(p))
        assert float.hex(got) == float.hex(want)
        X = np.eye(p)
        Y = b + g
        assert float.hex(kkt_residual(X, Y, b, 2.0 * half)) == float.hex(
            _reference_kkt(X.T @ (Y - X @ b), b, half)
        )
    # a nan violation wins wherever it sits, as it does in np.max
    for g in ([math.nan, 5.0], [5.0, math.nan]):
        assert math.isnan(_kkt(g, [0.0, 0.0], half, range(2)))


# --- screening keeps every bit ---------------------------------------------


def _reference_soft(value, threshold):
    """The soft threshold of the full-sweep reference below, verbatim."""
    mag = abs(value) - threshold
    if mag <= 0.0:
        return 0.0
    return math.copysign(mag, value)


def _full_sweep_lasso(X, Y, lam, b, r):
    """Reference: the coordinate descent before screening, verbatim, from
    b with residual r, as lasso and lasso_path start it.

    Every sweep visits all p coordinates, so it pins what screened sweeps
    must reproduce bit for bit.
    """
    p = X.shape[1]
    col_sq = np.sum(X * X, axis=0)
    dead = np.flatnonzero(col_sq == 0.0)
    if dead.size:
        raise ValueError(f"column {int(dead[0])} has zero norm")
    half = 0.5 * lam
    prev_obj = float(r @ r + lam * np.sum(np.abs(b)))
    kkt = math.inf
    for sweep in range(1, LASSO.MAX_SWEEPS + 1):
        for j in range(p):
            old = b[j]
            full_corr = float(X[:, j] @ r) + col_sq[j] * old
            new = _reference_soft(full_corr, half) / col_sq[j]
            if new != old:
                r += (old - new) * X[:, j]
                b[j] = new
        obj = float(r @ r + lam * np.sum(np.abs(b)))
        if not math.isfinite(obj):
            raise ValueError(
                f"coordinate sweep {sweep} overflowed to objective {obj!r}; "
                "rescale X and Y"
            )
        if obj > prev_obj + LASSO._OBJECTIVE_SLACK * (1.0 + abs(prev_obj)):
            raise RuntimeError(
                f"coordinate sweep {sweep} increased the objective "
                f"from {prev_obj!r} to {obj!r}"
            )
        prev_obj = obj
        kkt = _reference_kkt(X.T @ r, b, half)
        if kkt <= LASSO.KKT_TOLERANCE:
            return PathPoint(lam, b, converged=True, kkt=kkt, sweeps=sweep)
    return PathPoint(lam, b, converged=False, kkt=kkt, sweeps=LASSO.MAX_SWEEPS)


def _bits(point):
    return (
        float.hex(float(point.lam)),
        point.beta.tobytes(),
        float.hex(point.kkt),
        point.sweeps,
        point.converged,
    )


def _gaussian_p_above_n():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((60, 120))
    beta = np.zeros(120)
    beta[rng.choice(120, 6, replace=False)] = rng.standard_normal(6)
    return X, X @ beta + 0.01 * rng.standard_normal(60), 1e-3


def _duplicate_column():
    rng = np.random.default_rng(29)
    X = rng.standard_normal((20, 10))
    X[:, 7] = X[:, 2]
    return X, X @ np.array([0, 0, 2.0, 0, -1.0, 0, 0, 0, 0, 0.5]), 1e-6


def _nearly_parallel(seed, factor):
    # columns 0 and 1 nearly parallel; the screening tests that call it say
    # what each (seed, factor) shows
    def design():
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((6, 4))
        X[:, 1] = X[:, 0] + 0.1 * rng.standard_normal(6)
        return X, rng.standard_normal(6), factor

    return design


_headroom_runs_out = _nearly_parallel(264, 0.1)
# Columns 0 and 1 enter the support in sweep 3, and their nearly parallel
# steps leave |g_0| = 0.776 below lam/2 = 0.782 with b_0 nonzero.  The
# certificate after sweep 3 must read b as that sweep left it: read as
# sweep 2 left it (the cycle check's last write of b, at a power of two),
# column 0 looks like a zero with headroom and is skipped, though sweep 4
# drops it from the support.
_enters_after_a_power_of_two = _nearly_parallel(87, 0.3)


def _diagonal_and_dense(diagonal_first):
    # [D | G] or [G | D]: a diagonal D, with negative entries, of columns
    # that each have one nonzero entry, beside dense Gaussian columns
    def design():
        rng = np.random.default_rng(41)
        D = np.diag(rng.uniform(0.5, 2.0, 12) * rng.choice([-1.0, 1.0], 12))
        G = rng.standard_normal((12, 4))
        X = np.hstack([D, G] if diagonal_first else [G, D])
        beta = np.zeros(16)
        beta[[1, 6, 13]] = (1.5, -2.0, 0.75)
        return X, X @ beta + 0.1 * rng.standard_normal(12), 1e-4

    return design


def _single_entries_share_a_row():
    # columns 2 and 8 have their one nonzero entry on row 2
    rng = np.random.default_rng(43)
    X = np.hstack([np.diag(rng.uniform(0.5, 2.0, 8)), rng.standard_normal((8, 3))])
    X[:, 8] = 0.0
    X[2, 8] = -0.5
    return X, rng.standard_normal(8), 1e-4


def _signed_zero_response():
    # rows 1 and 4 hold a single-entry column's one nonzero entry, and Y is
    # 0.0 on row 1 and -0.0 on row 4
    rng = np.random.default_rng(47)
    D = np.diag(rng.uniform(0.5, 2.0, 6) * [1, -1, 1, -1, 1, -1])
    X = np.hstack([D, rng.standard_normal((6, 2))])
    Y = rng.standard_normal(6)
    Y[1], Y[4] = 0.0, -0.0
    return X, Y, 1e-4


def _single_entry_runs_out():
    # see test_screening_runs_out_on_a_single_entry_column
    rng = np.random.default_rng(254)
    D = np.diag(rng.uniform(0.2, 2.0, 4) * rng.choice([-1, 1], 4))
    X = np.hstack([D, rng.standard_normal((4, 3))])
    return X, rng.standard_normal(4), 0.2


def _family(c):
    def design():
        inst = construct(c)
        return inst.X, inst.Y, LAMBDA_MIN_FACTOR

    return design


# lasso and lasso_path look LASSO._descend up at call time, so the test can
# swap in the reference
def _path(X, Y, factor):
    return LASSO.lasso_path(X, Y, factor * lambda_max(X, Y))


def _cold_solve(X, Y, factor):
    return [LASSO.lasso(X, Y, factor * lambda_max(X, Y))]


SCREENING_CASES = {
    "family-n9": (_family(1.0), _path),
    "family-n25": (_family(4.0), _path),
    "gaussian-60x120": (_gaussian_p_above_n, _path),
    "duplicate-column": (_duplicate_column, _path),
    "headroom-runs-out": (_headroom_runs_out, _cold_solve),
    "enters-after-a-power-of-two": (_enters_after_a_power_of_two, _cold_solve),
    "diagonal-then-dense": (_diagonal_and_dense(True), _path),
    "dense-then-diagonal": (_diagonal_and_dense(False), _path),
    "single-entries-share-a-row": (_single_entries_share_a_row, _path),
    "signed-zero-response": (_signed_zero_response, _path),
    "single-entry-runs-out": (_single_entry_runs_out, _cold_solve),
}


@pytest.mark.parametrize("name", sorted(SCREENING_CASES))
def test_screened_solves_match_full_sweeps_bit_for_bit(name, monkeypatch):
    design, solve = SCREENING_CASES[name]
    X, Y, factor = design()
    points = solve(X, Y, factor)
    calls = []

    def reference_solve(*args):
        calls.append(args[2])
        return _full_sweep_lasso(*args)

    monkeypatch.setattr(LASSO, "_descend", reference_solve)
    reference = solve(X, Y, factor)
    # the reference solved every point, not the screened solver
    assert calls == [p.lam for p in points]
    assert [_bits(p) for p in points] == [_bits(p) for p in reference]
    if name == "family-n25":
        assert sum(p.sweeps for p in points) == 50_742


def test_screening_duplicate_column_has_no_headroom():
    # once column 2 is in the support its exact twin, column 7, sits on the
    # edge of the dead zone, so no certificate ever skips it
    X, Y, factor = _duplicate_column()
    points = lasso_path(X, Y, factor * lambda_max(X, Y))
    active = [p for p in points if p.beta[2] != 0.0]
    assert len(active) > 1
    for point in active:
        g = X.T @ (Y - X @ point.beta)
        assert 0.5 * point.lam - abs(g[7]) <= LASSO.KKT_TOLERANCE


def _certificate_runs_out(X, Y, lam, first, second, j):
    """Whether the certificate taken after the sweep that gave `first`, as
    _descend takes it, certifies column j, and how far, in budgets, the
    residual of the next sweep (which gave `second`) moves before column j
    is visited.  Past half a budget re-measuring the drift cannot keep the
    certificate, and a visit of column j comes from its expiry."""
    n = X.shape[0]
    r0 = Y - X @ first.beta
    head = np.where(
        first.beta == 0.0,
        (0.5 * lam - np.abs(X.T @ r0)) / np.linalg.norm(X, axis=0),
        -math.inf,
    )
    budget = 0.25 * np.max(head)
    gamma = n * LASSO._ROUNDOFF / (1.0 - n * LASSO._ROUNDOFF)
    certified = head >= 2.0 * (2.0 * gamma * np.linalg.norm(r0) + (1.0 + gamma) * budget)
    before = np.concatenate([second.beta[:j], first.beta[j:]])
    moved = np.linalg.norm(Y - X @ before - r0)
    return bool(certified[j]), float(moved / budget)


def test_screening_headroom_runs_out_mid_sweep(monkeypatch):
    # After the first sweep column 3 is zero well inside the dead zone, so it
    # is certified.  The second sweep drops column 0 from the support, which
    # moves the residual past the certificate's budget; column 3 comes later
    # in that same sweep and must be visited, because it enters there.
    X, Y, factor = _headroom_runs_out()
    lam = factor * lambda_max(X, Y)
    monkeypatch.setattr(LASSO, "MAX_SWEEPS", 1)
    first = lasso(X, Y, lam)
    monkeypatch.setattr(LASSO, "MAX_SWEEPS", 2)
    second = lasso(X, Y, lam)
    g = X.T @ (Y - X @ first.beta)
    assert first.beta[3] == 0.0 and abs(g[3]) < 0.5 * 0.5 * lam
    assert first.beta[0] != 0.0 and second.beta[0] == 0.0
    assert second.beta[3] != 0.0
    certified, moved = _certificate_runs_out(X, Y, lam, first, second, 3)
    assert certified and moved > 0.5


def test_screening_runs_out_on_a_single_entry_column(monkeypatch):
    # Columns 0-3 each have one nonzero entry.  After the first sweep the
    # dense column 4 is the zero coordinate with the most headroom, so the
    # certificate, whose budget is a quarter of that headroom, skips it.
    # The second sweep drops column 1 from the support, a move of a
    # single-entry column that runs the certificate out; column 4 comes
    # later in that same sweep and must be visited, because it enters there.
    X, Y, factor = _single_entry_runs_out()
    lam = factor * lambda_max(X, Y)
    assert np.count_nonzero(X, axis=0).tolist() == [1, 1, 1, 1, 4, 4, 4]
    monkeypatch.setattr(LASSO, "MAX_SWEEPS", 1)
    first = lasso(X, Y, lam)
    monkeypatch.setattr(LASSO, "MAX_SWEEPS", 2)
    second = lasso(X, Y, lam)
    g = X.T @ (Y - X @ first.beta)
    zero = np.flatnonzero(first.beta == 0.0)
    head = (0.5 * lam - abs(g[zero])) / np.linalg.norm(X[:, zero], axis=0)
    assert zero[np.argmax(head)] == 4
    assert first.beta[1] != 0.0 and second.beta[1] == 0.0
    assert first.beta[4] == 0.0 and second.beta[4] != 0.0
    certified, moved = _certificate_runs_out(X, Y, lam, first, second, 4)
    assert certified and moved > 0.5


def test_re_measured_drift_past_half_the_budget_expires_bit_for_bit(monkeypatch):
    # Column 1 is certified after the first sweep, and the second sweep moves
    # the residual 2.9 budgets before its visit: past half the budget, so the
    # re-measured drift expires the certificate, yet within 8, so a
    # re-measure that kept certificates up to 8 budgets would skip column 1,
    # which enters in that same sweep.
    X, Y, factor = _nearly_parallel(315, 0.3)()
    lam = factor * lambda_max(X, Y)
    monkeypatch.setattr(LASSO, "MAX_SWEEPS", 1)
    first = lasso(X, Y, lam)
    monkeypatch.setattr(LASSO, "MAX_SWEEPS", 2)
    second = lasso(X, Y, lam)
    assert first.beta[1] == 0.0 and second.beta[1] != 0.0
    certified, moved = _certificate_runs_out(X, Y, lam, first, second, 1)
    assert certified and 0.5 < moved <= 8.0
    monkeypatch.undo()
    reference = _full_sweep_lasso(X, Y, lam, np.zeros(4), Y.copy())
    assert _bits(lasso(X, Y, lam)) == _bits(reference)


def test_unconverged_screened_solves_match_full_sweeps_bit_for_bit(monkeypatch):
    # Cut short at sweep 40, the n=25 family path leaves points whose last
    # sweep is screened and has a violating single-entry column: that sweep
    # must still take X'r, since an unconverged point reports its own KKT
    # value, not the one of the sweep that took the certificate.
    monkeypatch.setattr(LASSO, "MAX_SWEEPS", 40)
    X, Y, factor = _family(4.0)()
    points = _path(X, Y, factor)
    assert sum(not p.converged for p in points) > 1
    monkeypatch.setattr(LASSO, "_descend", _full_sweep_lasso)
    assert [_bits(p) for p in points] == [_bits(p) for p in _path(X, Y, factor)]


def _scaled_gaussian():
    # a 10x20 Gaussian design scaled by 1e4: the absolute KKT_TOLERANCE is
    # out of reach of its rounding, and many solves end in a cycle of b and r
    X = 1e4 * np.random.default_rng(0).standard_normal((10, 20))
    beta = np.zeros(20)
    beta[:3] = (1.0, -2.0, 0.5)
    return X, X @ beta, 1e-6


def _counting_kkt(monkeypatch):
    # every sweep that takes X'r reads its KKT value through LASSO._kkt; on
    # the designs below every sweep run takes it: one has no single-entry
    # column, the other no zero coordinate to certify
    calls = []

    def counted(*args):
        calls.append(None)
        return _kkt(*args)

    monkeypatch.setattr(LASSO, "_kkt", counted)
    return calls


def test_cycling_solves_match_full_sweeps_bit_for_bit(monkeypatch):
    # Cut at sweep 601, nearly every path point runs out of sweeps, and some
    # of them repeat their (b, r) with period 1 or 2 well before that: the
    # solver skips whole periods, so it takes fewer KKT values than the
    # points report sweeps, and must still return the bits of the sweep it
    # would have reached.  The budget is odd, so a period-2 cycle found at
    # an even sweep ends on its other phase.
    monkeypatch.setattr(LASSO, "MAX_SWEEPS", 601)
    X, Y, factor = _scaled_gaussian()
    calls = _counting_kkt(monkeypatch)
    points = _path(X, Y, factor)
    assert sum(not p.converged for p in points) >= 19
    assert len(calls) < sum(p.sweeps for p in points)
    monkeypatch.setattr(LASSO, "_descend", _full_sweep_lasso)
    assert [_bits(p) for p in points] == [_bits(p) for p in _path(X, Y, factor)]


def test_fixed_point_skips_to_the_last_sweep_bit_for_bit(monkeypatch):
    # One single-entry column, so every operation is one rounding on any
    # BLAS kernel.  At half of lambda_max sweep 2 repeats sweep 1 with a KKT
    # value of 7.45e-9, above KKT_TOLERANCE: a budget of 10**6 sweeps runs
    # only those two and returns the bits of a budget of 3.
    X, Y = np.array([[3.0]]), np.array([1e8 / 3])
    lam = 0.5 * lambda_max(X, Y)
    monkeypatch.setattr(LASSO, "MAX_SWEEPS", 3)
    short = lasso(X, Y, lam)
    assert not short.converged and short.kkt > LASSO.KKT_TOLERANCE
    monkeypatch.setattr(LASSO, "_descend", _full_sweep_lasso)
    assert _bits(lasso(X, Y, lam)) == _bits(short)
    monkeypatch.undo()
    monkeypatch.setattr(LASSO, "MAX_SWEEPS", 10**6)
    calls = _counting_kkt(monkeypatch)
    long = lasso(X, Y, lam)
    assert len(calls) == 2
    assert not long.converged and long.sweeps == 10**6
    assert _bits(long)[:3] == _bits(short)[:3]


def _guard_refusal(solve, X, Y, lam, b):
    with pytest.raises(RuntimeError, match="increased the objective") as info:
        solve(X, Y, lam, b.copy(), Y - X @ b)
    return str(info.value)


@pytest.mark.parametrize("slack", [-1e-9, -1e-12, -1e-14])
def test_objective_guard_matches_full_sweeps_bit_for_bit(slack, monkeypatch):
    # A negative slack asks every sweep to lower the objective by a margin,
    # so the monotonicity guard fires hundreds of sweeps into a screened
    # solve.  It must fire at the reference's sweep and name the reference's
    # two objectives, which the solver sums from the |b| its visits keep.
    X, Y, _ = _family(4.0)()
    top = lambda_max(X, Y)
    # the b that lasso_path hands its point at top / 2**10
    warm = LASSO.lasso_path(X, Y, top / 2**9)[-1].beta
    Xg, Yg, factor = _gaussian_p_above_n()
    starts = [(X, Y, top / 2**k, np.zeros(X.shape[1])) for k in (12, 16, 20)]
    starts += [(X, Y, top / 2**10, warm), (Xg, Yg, factor * lambda_max(Xg, Yg), np.zeros(120))]
    monkeypatch.setattr(LASSO, "_OBJECTIVE_SLACK", slack)
    for start in starts:
        text = _guard_refusal(LASSO._descend, *start)
        assert text == _guard_refusal(_full_sweep_lasso, *start)
        assert int(re.search(r"sweep (\d+)", text)[1]) > 300


@pytest.mark.parametrize(
    "name",
    ["family-n9", "family-n25", "single-entries-share-a-row", "signed-zero-response"],
)
def test_single_entry_correlations_match_the_full_product(name):
    # A screened sweep reads a single-entry column's correlation as
    # x * r[i] to rule its stop out without X'r.  That is the BLAS product's
    # value up to the sign of a zero (x + 0.0 maps -0.0 to 0.0 and keeps
    # every other bit), which no stationarity violation reads.
    X, Y, _ = SCREENING_CASES[name][0]()
    n = X.shape[0]
    single = np.flatnonzero(np.count_nonzero(X, axis=0) == 1)
    rows = np.argmax(X[:, single] != 0.0, axis=0)
    x = X[rows, single]
    assert single.size
    rng = np.random.default_rng(53)
    residuals = [Y]
    for scale in (1.0, 1e-300, 1e-318, 1e300):
        r = scale * rng.standard_normal(n)
        # signed zeros and subnormals on the single-entry rows
        r[rng.choice(rows, 2, replace=False)] = (0.0, -0.0)
        r[rng.choice(rows)] = rng.choice([-1.0, 1.0]) * 5e-324 * rng.integers(1, 1 << 20)
        residuals.append(r)
    for r in residuals:
        g = (X.T @ r)[single]
        scalar = x * r[rows]
        assert (g + 0.0).tobytes() == (scalar + 0.0).tobytes()
        for bj in (0.0, -0.0, 2.5, -2.5):
            assert [float.hex(_slack(a, bj, 0.75)) for a in g.tolist()] == [
                float.hex(_slack(a, bj, 0.75)) for a in scalar.tolist()
            ]
