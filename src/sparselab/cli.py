"""Command-line entry points.

Subcommands: ``construct`` writes an instance to disk, ``reproduce``
runs the full greedy-versus-l1 contrast and exits nonzero when any
verdict contradicts its expected value, ``certify`` runs a single
property certifier on a matrix file, and ``compare`` runs both solvers
on arbitrary user data without grading the outcome.

Exit codes: 0 success, 1 verdict contradiction (reproduce only),
2 bad input or usage (an instance too large for memory included),
3 enumeration budget refusal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import io as files
from . import properties, report
from .boosting import BoostingConfig, thin
from .counterexample import construct
from .lasso import KKT_TOLERANCE, lasso_path
from .linalg import design, integer, positive
from .linalg import nullspace  # unused: sparsebench's tracer wraps cli.nullspace


def _write_curves(out_dir: str, rows, path_rows) -> list[str]:
    """boosting_trajectory.csv (thinned) and lasso_path.csv; their paths."""
    os.makedirs(out_dir, exist_ok=True)
    trajectory_path = os.path.join(out_dir, "boosting_trajectory.csv")
    files.write_csv(trajectory_path, report.TRAJECTORY_HEADER, thin(rows))
    path_path = os.path.join(out_dir, "lasso_path.csv")
    width = len(report.PATH_HEADER)
    files.write_csv(path_path, report.PATH_HEADER, (row[:width] for row in path_rows))
    return [trajectory_path, path_path]


def _write_report_files(out_dir: str, rep: report.RecoveryReport) -> list[str]:
    written = list(files.write_instance(out_dir, rep.instance).values())
    written += _write_curves(out_dir, rep.rows, rep.path_rows)
    summary_path = os.path.join(out_dir, "report.json")
    files.write_json(summary_path, rep.summary)
    return written + [summary_path]


def cmd_construct(args) -> int:
    inst = construct(args.c)
    paths = files.write_instance(args.out, inst)
    print(
        f"constructed instance: n={inst.n} p={inst.p} s={inst.s} "
        f"gamma={inst.gamma:g} (target cone constant {inst.c_target:g})"
    )
    for label, path in paths.items():
        print(f"wrote {label}: {path}")
    return 0


def cmd_reproduce(args) -> int:
    rep = report.reproduce(
        c=args.c,
        nu=args.nu,
        iterations=args.iters,
        lambda_min_factor=args.lambda_min_factor,
    )
    summary = rep.summary
    info, stall, l1 = summary["instance"], summary["boosting"], summary["lasso"]
    print(
        f"instance: n={info['n']} p={info['p']} s={info['s']} gamma={info['gamma']:g}; "
        f"critical cone constant {summary['certificates']['critical_c']:g}, "
        f"requested {info['c_target']:g}"
    )
    print(
        f"boosting: min dist_l1 {stall['min_dist_l1']:.6g}, cone exit at "
        f"k={stall['cone_exit_k']}, limit ratio {stall['limit_cone_ratio']:.6g}"
    )
    print(
        f"lasso: terminal dist_l1 {l1['final_dist_l1']:.6g} "
        f"at lambda_min {l1['lambda_min']:.6g}"
    )
    for name, value in summary["verdicts"].items():
        print(f"verdict {name}: {value} (expected {summary['expected'][name]})")
    if args.out:
        for path in _write_report_files(args.out, rep):
            print(f"wrote {path}")
    failures = report.verdict_failures(rep)
    if failures:
        print("CONTRADICTIONS:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0


def _certificate(args) -> dict:
    """The property, its parameters, and every other field of the
    certifier's result record."""
    # each flag is checked whichever property reads it
    positive("c", args.c)
    X = files.read_matrix(args.matrix)
    for flag, low in (("t", 1), ("s", 0)):
        if getattr(args, flag) is not None:
            integer(flag, getattr(args, flag), low, X.shape[1])
    Y = None if args.y is None else design(X, files.read_vector(args.y))[1]
    name = args.property
    params: dict = {"matrix": args.matrix}
    if name in ("rn", "rn_uniform", "rip") and args.t is None:
        raise ValueError(f"property {name} requires --t")
    if name == "rn":
        T = tuple(range(args.t))
        params.update({"T": T, "c": args.c})
        result = properties.rn_check(X, T, args.c)
    elif name == "rn_uniform":
        params.update({"t": args.t, "c": args.c})
        result = properties.rn_uniform(X, args.t, args.c)
    elif name == "rip":
        params["t"] = args.t
        result = properties.rip_constant(X, args.t)
    elif name == "spark":
        result = properties.spark(X)
    elif name == "unique_sparsest":
        if Y is None or args.s is None:
            raise ValueError("property unique_sparsest requires --y and --s")
        params.update({"y": args.y, "s": args.s})
        result = properties.unique_sparsest(X, Y, args.s)
    else:
        raise ValueError(f"unknown property {name!r}")
    fields = {k: v for k, v in result._asdict().items() if k not in params}
    return {"property": name, "parameters": params, **fields}


def cmd_certify(args) -> int:
    certificate = _certificate(args)
    text = json.dumps(files.jsonable(certificate), sort_keys=True, indent=2)
    print(text)
    if args.out:
        files.write_json(args.out, certificate)
    return 0


def cmd_compare(args) -> int:
    X = files.read_matrix(args.matrix)
    Y = files.read_vector(args.y)
    config = BoostingConfig(nu=args.nu, max_iterations=args.iters, residual_stop=0.0)
    # the path first: it refuses a bad --lambda-min before any boosting runs
    points = lasso_path(X, Y, args.lambda_min)
    rows = report.boosting_trajectory(X, Y, config)
    path_rows = report.path_rows_from_points(points, None, ())
    written = _write_curves(args.out, rows, path_rows)
    print(f"boosting: {len(rows) - 1} iterations, final resid_l2 {rows[-1].resid_l2:.6g}")
    worst_kkt = max(point.kkt for point in points)
    unconverged = sum(not point.converged for point in points)
    print(
        f"lasso: {len(path_rows)} path points, terminal l1 norm "
        f"{path_rows[-1].l1_norm:.6g}, worst KKT residual {worst_kkt:.3g}, "
        f"{unconverged} unconverged"
    )
    if unconverged:
        print(
            f"warning: {unconverged} of {len(points)} lasso path points did not "
            f"reach the KKT tolerance {KKT_TOLERANCE:g} (worst {worst_kkt:.3g}); "
            "rescale X and Y",
            file=sys.stderr,
        )
    for path in written:
        print(f"wrote {path}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Refuses bad usage in one ``error:`` line with exit code 2; the
    subcommand parsers inherit the class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sparselab",
        description="Greedy boosting versus l1 minimization on sparse recovery instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="write an instance to disk")
    p_construct.add_argument("--c", type=float, required=True, help="target cone constant")
    p_construct.add_argument("--out", default=".", help="output directory")
    p_construct.set_defaults(func=cmd_construct)

    p_rep = sub.add_parser("reproduce", help="run the full contrast experiment")
    p_rep.add_argument("--c", type=float, required=True)
    p_rep.add_argument("--nu", type=float, default=1.0)
    p_rep.add_argument("--iters", type=int, default=2000)
    p_rep.add_argument("--out", default=None, help="directory for CSV/JSON artifacts")
    p_rep.add_argument(
        "--lambda-min-factor",
        type=float,
        default=report.LAMBDA_MIN_FACTOR,
        help="terminal path penalty as a fraction of lambda_max",
    )
    p_rep.set_defaults(func=cmd_reproduce)

    p_cert = sub.add_parser("certify", help="run one property certifier")
    p_cert.add_argument("--matrix", required=True)
    p_cert.add_argument(
        "--property",
        required=True,
        choices=["rn", "rn_uniform", "rip", "spark", "unique_sparsest"],
    )
    p_cert.add_argument("--t", type=int, default=None)
    p_cert.add_argument("--c", type=float, default=1.0)
    p_cert.add_argument("--s", type=int, default=None)
    p_cert.add_argument("--y", default=None, help="response vector file")
    p_cert.add_argument("--out", default=None, help="certificate JSON path")
    p_cert.set_defaults(func=cmd_certify)

    p_cmp = sub.add_parser("compare", help="run both solvers on user data")
    p_cmp.add_argument("--matrix", required=True)
    p_cmp.add_argument("--y", required=True)
    p_cmp.add_argument("--nu", type=float, default=1.0)
    p_cmp.add_argument("--lambda-min", type=float, required=True)
    p_cmp.add_argument("--iters", type=int, default=1000)
    p_cmp.add_argument("--out", default=".", help="output directory")
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # overflowing input is refused by the program's own finiteness
        # checks, in one line; numpy's warnings would only precede it
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except properties.BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
