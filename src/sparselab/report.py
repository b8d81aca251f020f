"""End-to-end reproduction: greedy stall versus l1 recovery, with verdicts.

``reproduce`` builds an instance, certifies the cone and uniqueness
conditions, runs boosting for the full iteration budget, runs a decaying
lasso path, and grades the outcome: boosting must stay at l1 distance at
least s from the truth with the leading block untouched and must leave
every cone below the instance margin, while the lasso path must land
within the recovery threshold.  Any verdict off its expected value is a
reportable contradiction, surfaced as diff-style lines and a nonzero
exit status at the command line.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from . import boosting, properties
from .counterexample import SparseInstance, construct
from .lasso import lambda_max, lasso_path
from .linalg import coefficients, design, integer, positive
from .linalg import nullspace  # unused: sparsebench's tracer wraps report.nullspace

# l1 distance at or below this counts as recovery, for both solvers; it
# sits far below the stall floor s so the two verdicts cannot blur.
RECOVERY_TOL = 1e-3

CONE_WINDOW = 100
# Trajectory rows per stacked numpy call.  On n=25 at K = 20,000, 64 rows
# add about 0.1 MB of peak RSS over one row at a time, 512 about 1.2 MB.
TRAJECTORY_BLOCK = 64
LAMBDA_MIN_FACTOR = 1e-8

TRAJECTORY_HEADER = ["k", "j_k", "rho_max", "resid_l2", "dist_l1", "cone_ratio"]
PATH_HEADER = ["lambda", "l1_norm", "kkt_residual", "dist_l1_to_truth", "cone_ratio"]


# Every verdict's expected value; a report whose verdicts differ is a
# contradiction.
EXPECTED = {
    "rn_holds": True,
    "uniqueness_ok": True,
    "boosting_recovers": False,
    "boosting_distance_floor": True,
    "active_block_untouched": True,
    "lasso_recovers": True,
    "lasso_path_in_cone": True,
    "cone_exit_found": True,
}


class TrajectoryRow(NamedTuple):
    """One boosting_trajectory.csv row, its fields in column order."""

    k: int
    j: int | None
    rho_max: float
    resid_l2: float
    dist_l1: float
    cone_ratio: float


class PathRow(NamedTuple):
    """One lasso_path.csv row (the first len(PATH_HEADER) fields) and the
    error's l1 mass on and off the support."""

    lam: float
    l1_norm: float
    kkt: float
    dist_l1: float
    cone_ratio: float
    on_l1: float
    off_l1: float


class RecoveryReport(NamedTuple):
    summary: dict  # exactly what report.json holds
    instance: SparseInstance
    rows: list[TrajectoryRow]
    path_rows: list[PathRow]


def _error_columns(betas, truth, S) -> list[list[float]]:
    """Per-row l1 distance, on-mass, off-mass and cone ratio about S of the
    stacked betas minus truth; all nan without a truth vector.  Each row
    reduces alone, so every value has the bits of its own 1-D sum."""
    if truth is None:
        return [[math.nan] * len(betas)] * 4
    mags = abs(np.subtract(np.array(betas), truth))
    split = properties.cone_split(mags, S)
    return [mags.sum(axis=1).tolist(), *(column.tolist() for column in split)]


def boosting_trajectory(
    X,
    Y,
    config: boosting.BoostingConfig,
    truth=None,
    S: tuple[int, ...] = (),
) -> list[TrajectoryRow]:
    """Per-iteration rows for every k from 0 to the stopping point, taken
    from the engine TRAJECTORY_BLOCK rows at a time.

    Without a truth vector the distance and cone columns are nan; the
    k = 0 row has no selected index.  A truth that is not a finite
    length-p vector, a truth without a valid support S, or an S without
    a truth is refused before the engine runs.
    """
    X, Y = design(X, Y)
    S = properties._indices("S", S)
    if truth is not None:
        truth = coefficients("truth", truth, X.shape[1])
        if not S:
            raise ValueError("S must be non-empty when truth is given")
        properties._mask("S", S, X.shape[1])
    elif S:
        raise ValueError("S must be empty when truth is None")
    rows: list[TrajectoryRow] = []
    steps = boosting.iterate(X, Y, config)
    while block := list(itertools.islice(steps, TRAJECTORY_BLOCK)):
        ks, js, _, betas, residuals, rhos = zip(*block)
        rho_max = abs(np.array(rhos)).max(axis=1).tolist()
        resid_l2 = [math.sqrt(r.dot(r)) for r in residuals]
        dist, _, _, ratio = _error_columns(betas, truth, S)
        rows.extend(map(TrajectoryRow, ks, js, rho_max, resid_l2, dist, ratio))
    return rows


def path_rows_from_points(points, truth, S) -> list[PathRow]:
    errors = _error_columns([point.beta for point in points], truth, S)
    return [
        PathRow(point.lam, float(abs(point.beta).sum()), point.kkt, dist, ratio, on, off)
        for point, dist, on, off, ratio in zip(points, *errors)
    ]


def detect_cone_exit(ratios: list[float], threshold: float, window: int) -> int | None:
    """First index whose next ``window`` ratios all clear the threshold."""
    window = integer("window", window, 1)
    run = 0
    for idx, ratio in enumerate(ratios):
        if ratio > threshold:
            run += 1
            if run >= window:
                return idx - window + 1
        else:
            run = 0
    return None


def reproduce(
    c: float,
    nu: float,
    iterations: int,
    lambda_min_factor: float = LAMBDA_MIN_FACTOR,
) -> RecoveryReport:
    """Run the whole contrast experiment on construct(c) and grade it.

    The report's ``summary`` is the whole of report.json: metadata,
    certificates, extremes, verdicts and their expected values.

    The k = 0 error ratio is 0, so a sustained cone exit needs at least
    CONE_WINDOW iterations; a shorter run, like a lambda_min_factor of 1
    or more, is refused up front.
    """
    lambda_min_factor = positive("lambda_min_factor", lambda_min_factor)
    if lambda_min_factor >= 1.0:
        raise ValueError(f"lambda_min_factor must lie below 1, got {lambda_min_factor!r}")
    iterations = integer("iterations", iterations, 0)
    # residual_stop = 0 keeps the trajectory at full length; the matrix
    # side of this family never reaches an exactly zero correlation
    # within any realistic budget, and the sustained-window cone
    # detection needs uninterrupted per-iteration data.
    config = boosting.BoostingConfig(
        nu=nu, max_iterations=iterations, residual_stop=0.0
    )
    if iterations < CONE_WINDOW:
        raise ValueError(
            f"iterations {iterations} is below the cone window {CONE_WINDOW}; "
            "no sustained cone exit can fit"
        )
    inst = construct(c)
    rn_holds, _, critical_c = properties.rn_uniform(inst.X, inst.s, c)

    if inst.n <= 25:
        fit = properties.unique_sparsest(inst.X, inst.Y, inst.s)
        uniqueness = {
            "method": "enumeration",
            "unique": fit.unique,
            "support": list(fit.support),
            "size": fit.size,
            "supports_tested": fit.supports_tested,
            "ok": fit.unique and fit.support == inst.S,
        }
    else:
        cert = properties.spark_from_nullspace(inst.X)
        spark_ok = cert is not None and cert.spark is not None and inst.s < cert.spark / 2
        uniqueness = {
            "method": "nullspace-rank",
            "spark": None if cert is None or cert.spark is None else cert.spark,
            "ok": bool(spark_ok),
        }

    rows = boosting_trajectory(inst.X, inst.Y, config, truth=inst.beta, S=inst.S)

    threshold = (inst.n + 1 - math.sqrt(inst.n)) / (2.0 * math.sqrt(inst.n))
    exit_k = detect_cone_exit([row.cone_ratio for row in rows], threshold, CONE_WINDOW)

    lam_max = lambda_max(inst.X, inst.Y)
    lam_min = lambda_min_factor * lam_max
    points = lasso_path(inst.X, inst.Y, lam_min)
    path_rows = path_rows_from_points(points, inst.beta, inst.S)

    dists = [row.dist_l1 for row in rows]
    # beta starts at zero and only the selected coordinate ever moves, so
    # the leading block stays exactly zero iff no leading index is selected
    # with anything to move (a no-op names index 0 but its predecessor had
    # all-zero correlations, so nothing was selected in substance).
    never_selected_active = all(
        row.j is None or row.j >= inst.s or prev.rho_max == 0.0
        for prev, row in zip(rows, rows[1:])
    )
    verdicts = {
        "rn_holds": bool(rn_holds),
        "uniqueness_ok": bool(uniqueness["ok"]),
        "boosting_recovers": bool(min(dists) <= RECOVERY_TOL),
        "boosting_distance_floor": bool(
            all(d >= inst.s - 1e-12 for d in dists)
        ),
        "active_block_untouched": bool(never_selected_active),
        "lasso_recovers": bool(path_rows[-1].dist_l1 <= RECOVERY_TOL),
        # Mass comparison with absolute slack: near the end of the path
        # both masses are tiny and a ratio test would amplify roundoff.
        "lasso_path_in_cone": bool(
            all(row.off_l1 <= row.on_l1 + 1e-6 for row in path_rows)
        ),
        "cone_exit_found": exit_k is not None,
    }
    summary = {
        "instance": {
            "c_target": float(c),
            "n": inst.n,
            "p": inst.p,
            "s": inst.s,
            "gamma": inst.gamma,
        },
        "run": {
            "nu": float(nu),
            "iterations": int(iterations),
            # nothing reads a seed: the field stays while report.json's bytes are pinned
            "seed": 0,
        },
        "certificates": {
            "critical_c": critical_c,
            "rn_holds": bool(rn_holds),
            "uniqueness": uniqueness,
        },
        "boosting": {
            "min_dist_l1": min(dists),
            "final_dist_l1": rows[-1].dist_l1,
            "final_resid_l2": rows[-1].resid_l2,
            "cone_threshold": threshold,
            "cone_window": CONE_WINDOW,
            "cone_exit_k": exit_k,
            "limit_cone_ratio": rows[-1].cone_ratio,
        },
        "lasso": {
            "lambda_max": lam_max,
            "lambda_min": lam_min,
            "path_points": len(path_rows),
            "final_dist_l1": path_rows[-1].dist_l1,
            "final_kkt": path_rows[-1].kkt,
        },
        "verdicts": verdicts,
        "expected": dict(EXPECTED),
    }
    return RecoveryReport(summary, inst, rows, path_rows)


def verdict_failures(report: RecoveryReport) -> list[str]:
    expected = report.summary["expected"]
    return [
        f"{name}: expected {expected[name]}, observed {value}"
        for name, value in report.summary["verdicts"].items()
        if value != expected[name]
    ]
