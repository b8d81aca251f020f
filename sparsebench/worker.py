"""Child-process entry points for the sparselab benchmark.

Each benchmark operation runs in fresh processes started by ``run.py``;
this script is what those processes execute:

    worker.py setup --c C --probe PATH
        import sparselab, construct(C), nullspace(X), exit
    worker.py cli --probe PATH [--spans PATH --trace-id ID] -- ARGV...
        run the sparselab CLI in-process (what the ``sparselab`` console
        script runs), with spans around each module when traced
    worker.py stall --c C --nu NU --iters K --summary PATH --probe PATH [--spans PATH]
        the stall-deep operation through the Python API

Every mode runs a speed probe (``SpeedProbe``) and writes its samples to
``--probe``.  sparselab is imported from PYTHONPATH, which
the benchmark points at the checkout's ``src`` directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import signal
import sys
import time

LOCKSTEP_MISMATCH = re.compile(r"iteration (\d+)")
SETUP_PROBE_TICKS = 5


class SpeedProbe:
    """Times a fixed kernel from a SIGALRM handler every 100 ms.

    The CPU speed a process gets on a shared host can drift by tens of
    percent within seconds, independently on each CPU.  The probe runs in
    the measured process itself, between the program's bytecodes, so its
    durations track the speed the program ran at.  The kernel mixes the
    two kinds of work in the program's inner loops: small numpy calls (150
    dot products of length-25 vectors), whose cost is per-call overhead,
    and plain interpreter arithmetic (a 1500-step integer loop).  It costs
    about 0.3 ms per tick.
    """

    INTERVAL_S = 0.1
    CALLS = 150
    STEPS = 1500

    def __init__(self, path: str):
        import numpy as np

        self.path = path
        self.samples: list[float] = []
        self.v, self.w = np.arange(25.0), np.ones(25)

    def _tick(self, signum=None, frame=None) -> None:
        v, w = self.v, self.w
        start = time.perf_counter()
        for _ in range(self.CALLS):
            v @ w
        x = 0
        for i in range(self.STEPS):
            x += i * i
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        with open(self.path, "w") as handle:
            json.dump(self.samples, handle)


def _arg(args, kwargs, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _path_counts(points, exc, args, kwargs) -> dict:
    if points is None:
        return {}
    return {
        "sweeps": sum(p.sweeps for p in points),
        "max_sweeps_per_point": max(p.sweeps for p in points),
        "points": len(points),
        "worst_kkt": max(p.kkt for p in points),
        "unconverged_points": sum(not p.converged for p in points),
    }


def _classify(j: int, S, p: int) -> str:
    if j in S:
        return "active"
    return "mixed" if j == p - 1 else "middle"


def _trajectory_counts(rows, exc, args, kwargs) -> dict:
    """Iterations, and on a family design (support S given) the
    selections by block; a no-op step after an all-zero correlation
    vector selects nothing."""
    if rows is None:
        return {}
    counts = {"iters": len(rows) - 1}
    S = tuple(_arg(args, kwargs, 4, "S", ()))
    if S:
        p = len(_arg(args, kwargs, 0, "X")[0])
        for block in ("active", "middle", "mixed"):
            counts[f"selections_{block}"] = 0
        for prev, row in zip(rows, rows[1:]):
            if prev.rho_max != 0.0:
                counts[f"selections_{_classify(row.j, S, p)}"] += 1
    return counts


def _run_counts(S):
    def counts(states, exc, args, kwargs) -> dict:
        if states is None:
            return {}
        final = states[-1]
        p = final.beta.size
        out = {"iters": final.k, "selections_active": 0, "selections_middle": 0,
               "selections_mixed": 0}
        for j, applied in zip(final.history, final.history_steps):
            if applied != 0.0:
                out[f"selections_{_classify(j, S, p)}"] += 1
        return out

    return counts


def _lockstep_k(mismatch: str | None, iterations: int) -> int:
    """Depth the lockstep reached: K when clean, else the mismatching
    iteration (-1 when the message names none)."""
    if mismatch is None:
        return iterations
    match = LOCKSTEP_MISMATCH.search(mismatch)
    return int(match.group(1)) if match else -1


def _lockstep_counts(deviation, exc, args, kwargs) -> dict:
    k = _lockstep_k(None if exc is None else str(exc), int(_arg(args, kwargs, 2, "iterations")))
    return {"lockstep_k": k, "mismatches": int(exc is not None)}


def _bytes_written(result, exc, args, kwargs) -> dict:
    path = _arg(args, kwargs, 0, "path")
    return {"bytes": os.path.getsize(path)} if exc is None else {}


def instrument(tracer, S=()) -> None:
    """Wrap the module attributes that ``cli`` and ``report`` (and the
    stall operation) look up at call time."""
    from sparselab import boosting, cli, counterexample, properties, report
    from sparselab import io as files

    for owner in (report, cli):
        tracer.wrap(owner, "construct", "counterexample.construct")
        tracer.wrap(owner, "nullspace", "linalg.nullspace")
        tracer.wrap(owner, "lasso_path", "lasso.lasso_path", _path_counts)
    tracer.wrap(counterexample, "construct", "counterexample.construct")
    tracer.wrap(
        counterexample, "equivalence_check", "counterexample.equivalence_check",
        _lockstep_counts,
    )
    tracer.wrap(report, "reproduce", "report.reproduce")
    tracer.wrap(report, "boosting_trajectory", "report.boosting_trajectory",
                _trajectory_counts)
    tracer.wrap(boosting, "run", "boosting.run", _run_counts(tuple(S)))
    tracer.wrap(properties, "unique_sparsest", "properties.unique_sparsest",
                lambda r, e, a, k: {"subsets": r.supports_tested} if r else {})
    tracer.wrap(properties, "spark", "properties.spark",
                lambda r, e, a, k: {"subsets": r.subsets_tested} if r else {})
    tracer.wrap(
        properties, "rip_constant", "properties.rip_constant",
        # rip enumerates every size-t subset of the p columns
        lambda r, e, a, k: {"subsets": math.comb(len(_arg(a, k, 0, "X")[0]), r.t)}
        if r else {},
    )
    tracer.wrap(properties, "rn_uniform", "properties.rn_uniform")
    tracer.wrap(properties, "spark_from_nullspace", "properties.spark_from_nullspace")
    for attr in ("write_matrix", "write_vector", "write_csv", "write_json"):
        tracer.wrap(files, attr, f"io.{attr}", _bytes_written)
    for attr in ("read_matrix", "read_vector"):
        tracer.wrap(files, attr, f"io.{attr}")


def cmd_setup(opts) -> int:
    """Set-up is too short for the timer, so the probe brackets it."""
    probe = SpeedProbe(opts.probe)
    for _ in range(SETUP_PROBE_TICKS):
        probe._tick()
    import sparselab

    inst = sparselab.construct(opts.c)
    sparselab.nullspace(inst.X)
    for _ in range(SETUP_PROBE_TICKS):
        probe._tick()
    probe.__exit__()
    return 0


def cmd_cli(opts) -> int:
    from sparselab import cli

    if not opts.spans:
        with SpeedProbe(opts.probe):
            return cli.main(opts.argv)
    from spans import Tracer

    tracer = Tracer(opts.trace_id)
    instrument(tracer)
    tracer.wrap(cli, "main", "cli.main")
    try:
        with SpeedProbe(opts.probe):
            return cli.main(opts.argv)
    finally:
        tracer.write(opts.spans)


def cmd_stall(opts) -> int:
    """boosting.run, the report trajectory with its stall verdicts, and the
    matrix-versus-recursion lockstep, all at one (c, nu, K)."""
    import numpy as np

    from sparselab import boosting, counterexample, report

    tracer = None
    if opts.spans:
        from spans import Tracer

        tracer = Tracer(opts.trace_id)
        # boosting.run's selections are classified against the family support
        instrument(tracer, S=counterexample.construct(opts.c).S)
    try:
        with SpeedProbe(opts.probe):
            inst = counterexample.construct(opts.c)
            config = boosting.BoostingConfig(
                nu=opts.nu, max_iterations=opts.iters, residual_stop=0.0
            )
            states = boosting.run(inst.X, inst.Y, config)
            rows = report.boosting_trajectory(inst.X, inst.Y, config, truth=inst.beta, S=inst.S)
            threshold = (inst.n + 1 - math.sqrt(inst.n)) / (2.0 * math.sqrt(inst.n))
            exit_k = report.detect_cone_exit(
                [row.cone_ratio for row in rows], threshold, report.CONE_WINDOW
            )
            try:
                deviation = counterexample.equivalence_check(inst, opts.nu, opts.iters)
                mismatch = None
            except RuntimeError as exc:
                deviation, mismatch = None, str(exc)
    finally:
        if tracer is not None:
            tracer.write(opts.spans)
    final = states[-1]
    summary = {
        "s": inst.s,
        "run_k": final.k,
        "run_active_max": float(np.max(np.abs(final.beta[: inst.s]))),
        "run_dist_l1": float(np.sum(np.abs(final.beta - inst.beta))),
        "run_resid_l2": float(np.linalg.norm(final.residual)),
        "run_selections_active": _run_counts(inst.S)(states, None, (), {})["selections_active"],
        "trajectory_rows": len(rows),
        "trajectory_min_dist": min(row.dist_l1 for row in rows),
        "trajectory_resid_l2": rows[-1].resid_l2,
        "trajectory_active_untouched": all(
            row.j is None or row.j >= inst.s or prev.rho_max == 0.0
            for prev, row in zip(rows, rows[1:])
        ),
        "cone_exit_k": exit_k,
        "lockstep_deviation": deviation,
        "lockstep_mismatch": mismatch,
        "lockstep_k": _lockstep_k(mismatch, opts.iters),
    }
    with open(opts.summary, "w") as handle:
        json.dump(summary, handle)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("--c", type=float, required=True)
    p_setup.add_argument("--probe", required=True)
    p_setup.set_defaults(func=cmd_setup)
    p_cli = sub.add_parser("cli")
    p_cli.add_argument("--probe", required=True)
    p_cli.add_argument("--spans", default=None)
    p_cli.add_argument("--trace-id", default="0")
    p_cli.add_argument("argv", nargs=argparse.REMAINDER)
    p_cli.set_defaults(func=cmd_cli)
    p_stall = sub.add_parser("stall")
    p_stall.add_argument("--c", type=float, required=True)
    p_stall.add_argument("--nu", type=float, required=True)
    p_stall.add_argument("--iters", type=int, required=True)
    p_stall.add_argument("--summary", required=True)
    p_stall.add_argument("--probe", required=True)
    p_stall.add_argument("--spans", default=None)
    p_stall.add_argument("--trace-id", default="0")
    p_stall.set_defaults(func=cmd_stall)
    opts = parser.parse_args(argv)
    if opts.mode == "cli" and opts.argv[:1] == ["--"]:
        opts.argv = opts.argv[1:]
    return opts.func(opts)


if __name__ == "__main__":
    sys.exit(main())
