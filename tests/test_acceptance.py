"""End-to-end acceptance checks for the greedy-versus-l1 contrast.

Every test prints exactly one verdict line (run ``pytest -s`` to see
them); a failing clause is spelled out in the assertion message.  The
expensive artifacts (the 2000-iteration stall runs and the deep penalty
paths) are computed once per module and shared.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from sparselab import (
    AnalyticState,
    BoostingConfig,
    analytic_step,
    basis_pursuit,
    equivalence_check,
    iterate,
    lambda_max,
    lasso,
    lasso_path,
    nullspace,
    rip_implies_rn_test,
    rn_check,
    rn_uniform,
    run,
    spark,
    unique_sparsest,
)
from sparselab.properties import cone_split
from sparselab.report import detect_cone_exit


@contextmanager
def _criterion(num: int, label: str):
    failures: list[str] = []
    try:
        yield failures
    except Exception as exc:
        failures.append(f"unexpected {type(exc).__name__}: {exc}")
    print(f"criterion {num:02d} [{label}]: {'PASS' if not failures else 'FAIL'}")
    assert not failures, "\n".join(failures)


@pytest.fixture(scope="module")
def stall_runs(inst25):
    """(k, beta) at every one of 2000 iterations on n=25 for each step
    length, with the time the engine took."""
    runs = {}
    for nu in (1.0, 0.5, 0.1):
        config = BoostingConfig(nu=nu, max_iterations=2000, residual_stop=0.0)
        started = time.perf_counter()
        states = [(k, beta) for k, _, _, beta, _, _ in iterate(inst25.X, inst25.Y, config)]
        runs[nu] = (states, time.perf_counter() - started)
    return runs


@pytest.fixture(scope="module")
def deep_paths(inst9, inst25):
    """Penalty paths down to 1e-6 of the critical penalty, both sizes."""
    out = {}
    for inst in (inst9, inst25):
        out[inst.n] = lasso_path(inst.X, inst.Y, 1e-6 * lambda_max(inst.X, inst.Y))
    return out


def test_criterion_01_greedy_never_recovers(stall_runs, inst25):
    with _criterion(1, "greedy stall on n=25") as failures:
        states, elapsed = stall_runs[1.0]
        if [k for k, _ in states] != list(range(2001)):
            failures.append(f"run stopped early at k={states[-1][0]}")
        for k, beta in states:
            if np.any(beta[: inst25.s] != 0.0):
                failures.append(f"active coordinate touched at k={k}")
                break
        dists = [float(np.sum(np.abs(beta - inst25.beta))) for _, beta in states]
        worst = min(dists)
        if worst < inst25.s - 1e-12:
            failures.append(f"l1 distance dipped to {worst!r}, below s - 1e-12")
        if elapsed >= 1.0:
            failures.append(f"2000 iterations took {elapsed:.3f}s, expected < 1s")


def test_criterion_02_sign_form_invariant(stall_runs, inst9, inst25):
    with _criterion(2, "trajectory form invariant") as failures:
        for nu, (states, _) in stall_runs.items():
            s, n = 5, 25
            for k, beta in states:
                ok = (
                    np.all(beta[:s] == 0.0)
                    and np.all(beta[s:n] <= 0.0)
                    and beta[n] >= 0.0
                    and np.all(-beta[s:n] <= 1.0 + 1e-12)
                    and beta[n] <= 1.0 + 1e-12
                )
                if not ok:
                    failures.append(f"form broken at nu={nu}, k={k}")
                    break
        # the invariant also holds one step out of any reachable state,
        # not just along trajectories from zero
        rng = np.random.default_rng(0)
        nus = (0.1, 0.5, 1.0)
        for inst in (inst9, inst25):
            for draw in range(10_000):
                state = AnalyticState(
                    c_mid=rng.uniform(size=inst.n - inst.s),
                    c_p=float(rng.uniform()),
                    k=0,
                )
                after = analytic_step(state, inst, nus[draw % 3])
                low = min(float(np.min(after.c_mid)), after.c_p)
                high = max(float(np.max(after.c_mid)), after.c_p)
                if low < 0.0 or high > 1.0 + 1e-12:
                    failures.append(
                        f"random state left the box on n={inst.n}, draw {draw}"
                    )
                    break


def test_criterion_03_recursion_matches_matrix(inst9, inst25):
    with _criterion(3, "analytic recursion equivalence") as failures:
        for inst in (inst9, inst25):
            for nu in (0.1, 1.0):
                deviation = equivalence_check(inst, nu=nu, iterations=200)
                if deviation > 1e-10:
                    failures.append(
                        f"n={inst.n} nu={nu}: trajectories deviate by {deviation:.3e}"
                    )


def test_criterion_04_cone_exit(stall_runs, inst25):
    with _criterion(4, "sustained cone exit on n=25") as failures:
        states, _ = stall_runs[1.0]
        ratios = [cone_split(beta - inst25.beta, inst25.S)[2] for _, beta in states]
        exit_k = detect_cone_exit(ratios, threshold=2.1, window=100)
        if exit_k is None:
            failures.append("no 100-iteration window stayed above 21/10")
        else:
            tail_min = min(ratios[exit_k:])
            if tail_min <= 2.1:
                failures.append(f"ratio fell back to {tail_min!r} after exit")
        limit = ratios[-1]
        if abs(limit - 4.2) > 1e-2:
            failures.append(f"limit ratio {limit!r} is not 21/5 within 1e-2")


def test_criterion_05_l1_recovery(deep_paths, inst9, inst25):
    with _criterion(5, "l1 recovery at the path floor") as failures:
        for inst in (inst9, inst25):
            # Below lambda_star the unique minimizer is b_S = 1 - q - lam/(2 gamma^2),
            # b_mid = 0, b_mixed = q = (s-1) lam / (2 (n-s)) (it meets the KKT
            # conditions with every middle gradient q < lam/2), so its l1 distance
            # to beta is exactly lam * slope: recovery is linear as lam -> 0.
            s, n, gamma = inst.s, inst.n, inst.gamma
            slope = s / (2.0 * gamma**2) + (s * s - 1.0) / (2.0 * (n - s))
            lambda_star = 1.0 / ((s - 1.0) / (2.0 * (n - s)) + 1.0 / (2.0 * gamma**2))
            *upper, terminal = deep_paths[inst.n]
            for where, point in [("terminal", terminal)] + [
                ("path", p) for p in upper if p.lam < lambda_star
            ]:
                dist = float(np.sum(np.abs(point.beta - inst.beta)))
                predicted = point.lam * slope
                if abs(dist - predicted) > 1e-9:
                    failures.append(
                        f"n={inst.n}: {where} l1 distance {dist:.9e} at "
                        f"lambda={point.lam:.3e}, closed form predicts {predicted:.9e}"
                    )
                    break
            polished = basis_pursuit(inst.X, inst.Y, 1e-6 * lambda_max(inst.X, inst.Y))
            bp_err = float(np.max(np.abs(polished - inst.beta)))
            if bp_err > 1e-10:
                failures.append(f"n={inst.n}: polished solution off by {bp_err:.3e}")
            for point in deep_paths[inst.n]:
                delta = point.beta - inst.beta
                on = float(np.sum(np.abs(delta[: inst.s])))
                off = float(np.sum(np.abs(delta[inst.s :])))
                if off > on + 1e-6:
                    failures.append(
                        f"n={inst.n}: path point at lambda={point.lam:.3e} "
                        f"left the cone (off {off:.3e} vs on {on:.3e})"
                    )
                    break


def test_criterion_06_uniform_cone_constant(inst25):
    with _criterion(6, "uniform cone certification") as failures:
        ns = nullspace(inst25.X)
        _, _, crit_fast = rn_uniform(inst25.X, inst25.s, 4.0)
        # the full scan: the least off/on ratio over every support of size s
        crit_slow = min(
            cone_split(ns[:, 0], T)[2]
            for T in itertools.combinations(range(inst25.p), inst25.s)
        )
        for name, crit in (("closed form", crit_fast), ("enumeration", crit_slow)):
            if abs(crit - 4.2) > 1e-12:
                failures.append(f"{name} critical constant {crit!r} is not 21/5")
        holding = rn_check(inst25.X, inst25.S, 4.0)
        failing = rn_check(inst25.X, inst25.S, 5.0)
        if not holding.holds:
            failures.append("property should hold at c = 4")
        if failing.holds:
            failures.append("property should fail at c = 5")
        elif failing.witness is None or not np.allclose(
            failing.witness / failing.witness[-1], inst25.z, atol=1e-9
        ):
            failures.append("witness at c = 5 is not proportional to the flat ray")


def test_criterion_07_uniqueness_and_spark(inst9):
    with _criterion(7, "sparsest-solution uniqueness") as failures:
        fit = unique_sparsest(inst9.X, inst9.Y, inst9.s)
        if not (fit.unique and fit.support == inst9.S):
            failures.append(f"expected the active support, got {fit!r}")
        if fit.supports_tested < 175:
            failures.append(
                f"enumeration covered only {fit.supports_tested} supports"
            )
        cert = spark(inst9.X)
        if cert.spark is None:
            failures.append("spark enumeration did not terminate with a value")
        elif not inst9.s < cert.spark / 2:
            failures.append(f"s = {inst9.s} is not below spark/2 = {cert.spark / 2}")
        else:
            print(
                f"criterion 07 note: measured spark = {cert.spark} "
                f"on the {inst9.n} x {inst9.p} design"
            )


def test_criterion_08_energy_identity():
    with _criterion(8, "energy identity on random designs") as failures:
        rng = np.random.default_rng(0)
        nus = (0.1, 0.5, 1.0)
        for i in range(100):
            n = int(rng.integers(3, 11))
            p = int(rng.integers(2, 16))
            X = rng.standard_normal((n, p))
            Y = rng.standard_normal(n)
            nu = nus[i % 3]
            config = BoostingConfig(nu=nu, max_iterations=25, residual_stop=0.0)
            snaps = run(X, Y, config)
            drop = nu * (2.0 - nu)
            for prev, cur in zip(snaps, snaps[1:]):
                j = cur.history[-1]
                lhs = float(prev.residual @ prev.residual) - float(
                    cur.residual @ cur.residual
                )
                rhs = drop * float(prev.rho[j]) ** 2
                scale = max(1.0, float(prev.residual @ prev.residual))
                if abs(lhs - rhs) > 1e-9 * scale:
                    failures.append(
                        f"instance {i}: energy identity off by "
                        f"{abs(lhs - rhs):.3e} at k={cur.k}"
                    )
                    break
                # the correlation rule and the energy-drop rule must
                # nominate the same tied set of columns
                mags = np.abs(prev.rho)
                drops = drop * prev.rho**2
                top_corr = set(
                    np.flatnonzero(mags >= mags.max() * (1.0 - 1e-12))
                )
                top_drop = set(
                    np.flatnonzero(drops >= drops.max() * (1.0 - 2e-12))
                )
                if top_corr != top_drop:
                    failures.append(
                        f"instance {i}: selection sets differ at k={cur.k}: "
                        f"{sorted(top_corr)} vs {sorted(top_drop)}"
                    )
                    break
            if failures:
                break


def test_criterion_09_isometry_implies_cone_property():
    with _criterion(9, "isometry threshold forces cone property") as failures:
        result = rip_implies_rn_test(n=8, trials=200, t=1)
        if result["violations"] != 0:
            failures.append(f"{result['violations']} draws violated the implication")
        if result["applicable"] < 1:
            failures.append("no draw cleared the delta_2 < 1/3 threshold")


def test_criterion_10_kkt_certificates(deep_paths):
    with _criterion(10, "stationarity certificates") as failures:
        # the coordinate-descent loop itself raises on any objective
        # increase, so every solve that finished below certifies
        # monotonicity; here we check the reported optimality residuals
        for n, points in deep_paths.items():
            for point in points:
                if not point.converged:
                    failures.append(f"n={n}: solve at lambda={point.lam:.3e} did not converge")
                elif point.kkt > 1e-10:
                    failures.append(
                        f"n={n}: kkt residual {point.kkt:.3e} at lambda={point.lam:.3e}"
                    )
        rng = np.random.default_rng(0)
        for _ in range(5):
            X = rng.standard_normal((12, 8))
            Y = rng.standard_normal(12)
            lam = 0.05 * lambda_max(X, Y)
            fit = lasso(X, Y, lam)
            if not fit.converged:
                failures.append("random design solve did not converge")
            elif fit.kkt > 1e-10:
                failures.append(f"random design kkt residual {fit.kkt:.3e}")
