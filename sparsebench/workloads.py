"""The four benchmark workloads: inputs, the processes of one operation,
and the correctness grading of each operation's outputs.

One operation is one full workload pass.  ``commands`` lists the child
processes of a pass (argv after the interpreter), ``grade`` checks what
they wrote and returns a ``Graded`` record.  Oracles are computed here,
from closed forms or numpy, never from the program's own helpers.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")

with open(os.path.join(HERE, "pinned.json")) as _handle:
    PINNED = json.load(_handle)

EXPECTED_VERDICTS = {
    "rn_holds": True,
    "uniqueness_ok": True,
    "boosting_recovers": False,
    "boosting_distance_floor": True,
    "active_block_untouched": True,
    "lasso_recovers": True,
    "lasso_path_in_cone": True,
    "cone_exit_found": True,
}
KKT_LIMIT = 1e-10
# reproduce's default terminal penalty, as a fraction of lambda_max
REPRODUCE_LAMBDA_MIN_FACTOR = 1e-8


@dataclass
class Graded:
    failures: list[str] = field(default_factory=list)
    iters: int = 0
    known_defects: list[str] = field(default_factory=list)


def sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def digest_dir(directory: str) -> dict[str, str]:
    return {
        os.path.relpath(os.path.join(base, name), directory): sha256(os.path.join(base, name))
        for base, _, names in os.walk(directory)
        for name in names
    }


def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def write_matrix(path: str, X: np.ndarray) -> None:
    lines = [f"{X.shape[0]} {X.shape[1]}"]
    lines += [" ".join(repr(float(v)) for v in row) for row in X]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def write_vector(path: str, v: np.ndarray) -> None:
    with open(path, "w") as handle:
        handle.write("\n".join(repr(float(x)) for x in v) + "\n")


def cli_command(argv: list[str], probe: str, spans: str | None, trace_id: str):
    """(child argv, probe path, spans path) for one sparselab command line."""
    traced = [] if spans is None else ["--spans", spans, "--trace-id", trace_id]
    return [WORKER, "cli", "--probe", probe, *traced, "--", *argv], probe, spans


def check_exit_codes(codes: list[int], graded: Graded) -> None:
    for index, code in enumerate(codes):
        if code != 0:
            graded.failures.append(f"process {index} exited with code {code}")


class Reproduce:
    """``sparselab reproduce`` on the constructed family, graded against
    the 8 expected verdicts, KKT at every path point, the closed-form
    terminal distance and the pinned artifact digests."""

    def __init__(self, name: str, N: int, c: float, nu: float):
        self.name, self.N, self.c, self.nu = name, N, c, nu

    def prepare(self, work: str, seed: int) -> None:
        """The family instance is fixed by (c, nu); the seed changes nothing."""

    def commands(self, pass_dir: str, traced: bool, trace_id: str):
        argv = ["reproduce", "--c", repr(self.c), "--nu", repr(self.nu),
                "--iters", "2000", "--out", os.path.join(pass_dir, "out")]
        spans = os.path.join(pass_dir, "spans.json") if traced else None
        return [cli_command(argv, os.path.join(pass_dir, "probe.json"), spans, trace_id)]

    def oracle_distance(self) -> tuple[float, float]:
        """Terminal penalty and l1 distance of the lasso minimizer to beta.

        n = N^2, s = N, gamma = n; lambda_max = 2 s gamma^2 (the mixed
        column), and the distance is exactly linear in the penalty.
        """
        n, s = self.N * self.N, self.N
        gamma = float(n)
        lam_min = REPRODUCE_LAMBDA_MIN_FACTOR * 2.0 * s * gamma * gamma
        slope = s / (2.0 * gamma * gamma) + (s * s - 1.0) / (2.0 * (n - s))
        return lam_min, lam_min * slope

    def grade(self, pass_dir: str, codes: list[int]) -> Graded:
        graded = Graded()
        check_exit_codes(codes, graded)
        out = os.path.join(pass_dir, "out")
        try:
            with open(os.path.join(out, "report.json")) as handle:
                summary = json.load(handle)
            path_rows = read_csv(os.path.join(out, "lasso_path.csv"))
            digests = digest_dir(out)
        except (OSError, ValueError) as exc:
            graded.failures.append(f"artifacts unreadable: {exc}")
            return graded
        graded.iters = int(summary["run"]["iterations"])
        for name, want in EXPECTED_VERDICTS.items():
            got = summary["verdicts"].get(name)
            if got is not want:
                graded.failures.append(f"verdict {name}: {got}, expected {want}")
        instance = summary["instance"]
        if (instance["n"], instance["s"]) != (self.N * self.N, self.N):
            graded.failures.append(f"instance n={instance['n']} s={instance['s']}")
        worst_kkt = max(float(row["kkt_residual"]) for row in path_rows)
        if not worst_kkt <= KKT_LIMIT:
            graded.failures.append(f"path KKT residual {worst_kkt!r} > {KKT_LIMIT}")
        lam_min, want = self.oracle_distance()
        terminal = path_rows[-1]
        if not math.isclose(float(terminal["lambda"]), lam_min, rel_tol=1e-12):
            graded.failures.append(f"terminal lambda {terminal['lambda']} != {lam_min!r}")
        got = float(terminal["dist_l1_to_truth"])
        if not abs(got - want) <= 1e-4 * want:
            graded.failures.append(f"terminal l1 distance {got!r}, oracle {want!r}")
        pinned = PINNED["artifact_sha256"][self.name]
        if digests != pinned:
            drift = sorted(k for k in set(pinned) | set(digests) if digests.get(k) != pinned.get(k))
            graded.failures.append(f"artifact bytes drift from pinned digests: {drift}")
        return graded


class StallDeep:
    """In-process boosting.run, the report trajectory and the lockstep
    check at nu = 0.1 and K = 20,000 on n = 25."""

    name = "stall-deep"
    c = 4.0
    nu = 0.1
    iterations = 20_000

    def prepare(self, work: str, seed: int) -> None:
        """The family instance is fixed; the seed changes nothing."""

    def commands(self, pass_dir: str, traced: bool, trace_id: str):
        argv = [WORKER, "stall", "--c", repr(self.c), "--nu", repr(self.nu),
                "--iters", str(self.iterations),
                "--summary", os.path.join(pass_dir, "summary.json")]
        probe = os.path.join(pass_dir, "probe.json")
        argv += ["--probe", probe]
        spans = None
        if traced:
            spans = os.path.join(pass_dir, "spans.json")
            argv += ["--spans", spans, "--trace-id", trace_id]
        return [(argv, probe, spans)]

    def grade(self, pass_dir: str, codes: list[int]) -> Graded:
        graded = Graded()
        check_exit_codes(codes, graded)
        try:
            with open(os.path.join(pass_dir, "summary.json")) as handle:
                summary = json.load(handle)
        except (OSError, ValueError) as exc:
            graded.failures.append(f"summary unreadable: {exc}")
            return graded
        K, s = self.iterations, summary["s"]
        checks = {
            "boosting.run reached K": summary["run_k"] == K,
            "boosting.run left the active block at zero": summary["run_active_max"] == 0.0,
            "boosting.run selected no active column": summary["run_selections_active"] == 0,
            "boosting.run l1 distance >= s": summary["run_dist_l1"] >= s,
            "trajectory has K + 1 rows": summary["trajectory_rows"] == K + 1,
            "trajectory distance floor": summary["trajectory_min_dist"] >= s - 1e-12,
            "trajectory active block untouched": summary["trajectory_active_untouched"],
            "trajectory cone exit found": summary["cone_exit_k"] is not None,
            "trajectory and run end at one residual": math.isclose(
                summary["trajectory_resid_l2"], summary["run_resid_l2"],
                rel_tol=1e-9, abs_tol=1e-300,
            ),
        }
        graded.failures += [f"{name}: failed" for name, ok in checks.items() if not ok]
        mismatch = summary["lockstep_mismatch"]
        known = PINNED["known_defects"]["stall-deep"]
        if mismatch is None:
            deviation = summary["lockstep_deviation"]
            if not deviation <= 1e-10:
                graded.failures.append(f"lockstep deviation {deviation!r} > 1e-10")
        elif mismatch == known["message"]:
            graded.known_defects.append(f"equivalence_check: {mismatch}")
        else:
            graded.failures.append(f"equivalence_check: {mismatch}")
        graded.iters = summary["run_k"] + (summary["trajectory_rows"] - 1) + summary["lockstep_k"]
        return graded


def unit_columns(M: np.ndarray) -> np.ndarray:
    return M / np.linalg.norm(M, axis=0)


def supports(p: int, size: int) -> np.ndarray:
    return np.array(list(itertools.combinations(range(p), size)), dtype=int).reshape(-1, size)


class UserData:
    """Seeded Gaussian designs given to ``compare`` and ``certify`` as files.

    Each seed draws until every oracle is decisive with a wide margin
    (irrepresentable lasso support, well-conditioned 12-column subsets,
    a cone verdict away from its boundary, a unique sparsest fit); the
    draw sequence is a pure function of the seed.
    """

    name = "user-data"
    c = 4.0  # the family instance its set-up constructs
    compare_shape, compare_sparsity = (60, 120), 6
    certify_shape, certify_sparsity = (12, 14), 3
    rip_t, rn_t, rn_c = 5, 2, 1.0
    lambda_min_factor = 1e-6

    def prepare(self, work: str, seed: int) -> None:
        inputs = os.path.join(work, "inputs")
        os.makedirs(inputs, exist_ok=True)
        for attempt in itertools.count():
            if self._draw(np.random.default_rng([seed, attempt])):
                break
        self.paths = {k: os.path.join(inputs, f"{k}.txt") for k in ("A", "yA", "B", "yB")}
        write_matrix(self.paths["A"], self.A)
        write_vector(self.paths["yA"], self.yA)
        write_matrix(self.paths["B"], self.B)
        write_vector(self.paths["yB"], self.yB)
        self.reference_digests = None

    def _draw(self, rng) -> bool:
        n, p = self.compare_shape
        A = unit_columns(rng.standard_normal((n, p)))
        S = np.sort(rng.choice(p, self.compare_sparsity, replace=False))
        beta = np.zeros(p)
        beta[S] = rng.choice([-1.0, 1.0], S.size) * rng.uniform(1.0, 2.0, S.size)
        m, q = self.certify_shape
        B = unit_columns(rng.standard_normal((m, q)))
        T = np.sort(rng.choice(q, self.certify_sparsity, replace=False))
        gamma = np.zeros(q)
        gamma[T] = rng.choice([-1.0, 1.0], T.size) * rng.uniform(1.0, 2.0, T.size)
        self.A, self.yA, self.B, self.yB, self.T = A, A @ beta, B, B @ gamma, tuple(int(t) for t in T)

        # lasso at lambda_min: b_S = beta_S - (lam/2) G^{-1} sign(beta_S),
        # the exact minimizer when the irrepresentable condition holds
        self.lambda_min = self.lambda_min_factor * 2.0 * float(np.max(np.abs(A.T @ self.yA)))
        w = np.linalg.solve(A[:, S].T @ A[:, S], np.sign(beta[S]))
        off = np.delete(A.T @ (A[:, S] @ w), S)
        b_S = beta[S] - 0.5 * self.lambda_min * w
        if np.max(np.abs(off)) > 0.95 or np.any(np.sign(b_S) != np.sign(beta[S])):
            return False
        self.terminal_l1 = float(np.sum(np.abs(b_S)))

        # spark: every 12-column subset far from singular (the program's
        # rank tolerance is 1e-10), so no subset of 12 or fewer columns is
        # dependent and the first 13-subset is
        sv = np.linalg.svd(B[:, supports(q, m)].transpose(1, 0, 2), compute_uv=False)
        if np.min(sv[:, -1]) < 1e-6 * np.max(sv):
            return False
        self.spark_tested = sum(math.comb(q, k) for k in range(1, m + 1)) + 1

        # restricted isometry constant over all size-t subsets
        cols = B[:, supports(q, self.rip_t)].transpose(1, 0, 2)
        eig = np.linalg.eigvalsh(np.swapaxes(cols, 1, 2) @ cols)
        self.delta = float(np.max(np.maximum(np.maximum(eig[:, -1] - 1.0, 1.0 - eig[:, 0]), 0.0)))

        # uniform cone check on a 2-dimensional nullspace is decided at
        # the breakpoint rays, where one nullspace coordinate vanishes
        null = np.linalg.svd(B)[2][m:].T
        Z = np.abs(null @ np.stack([-null[:, 1], null[:, 0]]))
        top = np.sort(Z, axis=0)[-self.rn_t:].sum(axis=0)
        margin = (self.rn_c * top - (Z.sum(axis=0) - top)) / Z.sum(axis=0)
        if np.min(np.abs(margin)) < 1e-6:
            return False
        self.rn_holds = bool(np.max(margin) < 0.0)

        # sparsest exact fit: only the true support fits among sizes <= 3
        # (the empty support leaves all of yB, which is nonzero)
        y_norm = float(np.linalg.norm(self.yB))
        for size in range(1, self.certify_sparsity + 1):
            for cand in supports(q, size):
                if tuple(cand) == self.T:
                    continue
                sub = B[:, cand]
                resid = self.yB - sub @ np.linalg.lstsq(sub, self.yB, rcond=None)[0]
                if np.linalg.norm(resid) < 1e-4 * y_norm:
                    return False
        self.unique_tested = sum(math.comb(q, k) for k in range(self.certify_sparsity + 1))
        return True

    def commands(self, pass_dir: str, traced: bool, trace_id: str):
        P = self.paths
        certify = ["certify", "--matrix", P["B"], "--property"]
        runs = {
            "compare": ["compare", "--matrix", P["A"], "--y", P["yA"], "--lambda-min",
                        repr(self.lambda_min), "--out", os.path.join(pass_dir, "compare")],
            "spark": certify + ["spark"],
            "rip": certify + ["rip", "--t", str(self.rip_t)],
            "rn_uniform": certify + ["rn_uniform", "--t", str(self.rn_t), "--c", repr(self.rn_c)],
            "unique_sparsest": certify + ["unique_sparsest", "--y", P["yB"],
                                          "--s", str(self.certify_sparsity)],
        }
        out = []
        for label, argv in runs.items():
            if label != "compare":
                argv = argv + ["--out", os.path.join(pass_dir, f"{label}.json")]
            spans = os.path.join(pass_dir, f"spans-{label}.json") if traced else None
            out.append(cli_command(argv, os.path.join(pass_dir, f"probe-{label}.json"),
                                   spans, trace_id))
        return out

    def grade(self, pass_dir: str, codes: list[int]) -> Graded:
        graded = Graded()
        check_exit_codes(codes, graded)
        try:
            certs = {}
            for label in ("spark", "rip", "rn_uniform", "unique_sparsest"):
                with open(os.path.join(pass_dir, f"{label}.json")) as handle:
                    certs[label] = json.load(handle)
            path_rows = read_csv(os.path.join(pass_dir, "compare", "lasso_path.csv"))
            traj = read_csv(os.path.join(pass_dir, "compare", "boosting_trajectory.csv"))
            digests = {
                k: v for k, v in digest_dir(pass_dir).items()
                if k.endswith((".csv", ".json")) and not k.startswith(("spans", "probe"))
            }
        except (OSError, ValueError) as exc:
            graded.failures.append(f"artifacts unreadable: {exc}")
            return graded
        fail = graded.failures
        graded.iters = len(traj) - 1
        worst_kkt = max(float(row["kkt_residual"]) for row in path_rows)
        if not worst_kkt <= KKT_LIMIT:
            fail.append(f"compare: path KKT residual {worst_kkt!r} > {KKT_LIMIT}")
        if float(path_rows[-1]["lambda"]) != self.lambda_min:
            fail.append(f"compare: terminal lambda {path_rows[-1]['lambda']}")
        got = float(path_rows[-1]["l1_norm"])
        if not math.isclose(got, self.terminal_l1, rel_tol=1e-7):
            fail.append(f"compare: terminal l1 norm {got!r}, oracle {self.terminal_l1!r}")
        resid = [float(row["resid_l2"]) for row in traj]
        if len(traj) != 1001 or any(b > a * (1 + 1e-12) for a, b in zip(resid, resid[1:])):
            fail.append("compare: boosting residual not non-increasing over 1000 iterations")
        spark = certs["spark"]
        if (spark["spark"], spark["subsets_tested"]) != (self.certify_shape[0] + 1, self.spark_tested):
            fail.append(f"spark: {spark['spark']} after {spark['subsets_tested']} subsets")
        rip = certs["rip"]["delta_t"]
        if not abs(rip - self.delta) <= 1e-9 * max(1.0, self.delta):
            fail.append(f"rip: delta {rip!r}, oracle {self.delta!r}")
        if certs["rn_uniform"]["holds"] is not self.rn_holds:
            fail.append(f"rn_uniform: holds {certs['rn_uniform']['holds']}, oracle {self.rn_holds}")
        fit = certs["unique_sparsest"]
        want = (True, list(self.T), len(self.T), 1, self.unique_tested)
        got_fit = (fit["unique"], fit["support"], fit["size"], fit["fits_at_size"],
                   fit["supports_tested"])
        if got_fit != want:
            fail.append(f"unique_sparsest: {got_fit}, oracle {want}")
        if self.reference_digests is None:
            self.reference_digests = digests
        elif digests != self.reference_digests:
            fail.append("artifact bytes differ from the run's first pass")
        return graded


WORKLOADS = {
    w.name: w
    for w in (
        Reproduce("reproduce-n25", N=5, c=4.0, nu=1.0),
        Reproduce("reproduce-n49", N=7, c=6.0, nu=0.1),
        StallDeep(),
        UserData(),
    )
}
