"""sparselab benchmark: end-to-end and per-module metrics on four workloads.

Run from the root of a checkout (the directory holding ``src/sparselab``):

    python3 sparsebench/run.py --workload reproduce-n25 --seed 1 --seconds 30 --trace 0

The harness times its set-up (``setup_s``), then runs whole workload
passes, one at a time in fresh child processes (closed loop, one
client), until the next pass would end after ``--seconds``; the first
pass always runs.  Every pass is graded for correctness.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs one untraced pass and
then traced passes, and reports the per-module metrics read from spans
recorded around each module's public functions (see ``worker.py``).

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Child processes get one BLAS thread each, and read and
write only under ``.sparsebench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict

from spans import self_times
from workloads import PINNED, WORKER, WORKLOADS

SETUP_REPEATS = 5
SETUP_REPEATS_PER_PASS = 3
# every run must end well inside 180 s, whatever --seconds says
HARD_DEADLINE_S = 165.0
WORK_ROOT = ".sparsebench_work"

# A pass's calibrated time is its wall time scaled by how much slower
# than this reference the in-process speed probe ran (worker.SpeedProbe):
# wall * PROBE_REFERENCE_S / trimmed mean of the pass's probe samples.
PROBE_REFERENCE_S = 250e-6

END_TO_END = {
    "cal_wall_s": "s",
    "cal_wall_s_tail": "s",
    "setup_s": "s",
    "cal_iters_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# name -> unit; counts (units count, B and 1) must repeat exactly
PER_LAYER = {
    "counterexample.construct_s": "s",
    "counterexample.lockstep_s": "s",
    "counterexample.lockstep_k": "count",
    "counterexample.lockstep_mismatches": "count",
    "linalg.nullspace_s": "s",
    "properties.unique_sparsest_s": "s",
    "properties.unique_sparsest_subsets": "count",
    "properties.us_per_subset": "us",
    "properties.spark_s": "s",
    "properties.spark_subsets": "count",
    "properties.rip_s": "s",
    "properties.rip_subsets": "count",
    "properties.rn_uniform_s": "s",
    "lasso.path_s": "s",
    "lasso.sweeps": "count",
    "lasso.max_sweeps_per_point": "count",
    "lasso.points": "count",
    "lasso.us_per_sweep": "us",
    "lasso.worst_kkt": "1",
    "lasso.unconverged_points": "count",
    "boosting.run_s": "s",
    "boosting.iters": "count",
    "boosting.us_per_iter": "us",
    "boosting.selections_mixed": "count",
    "boosting.selections_middle": "count",
    "boosting.selections_active": "count",
    "report.trajectory_s": "s",
    "report.self_s": "s",
    "cli.process_s": "s",
    "cli.self_s": "s",
    "io.write_s": "s",
    "io.bytes_written": "B",
    "io.read_s": "s",
    "bench.trace_overhead_s": "s",
}
EXACT_UNITS = ("count", "B", "1")


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv, env, log_prefix: str, deadline: float):
    """Run one child to completion: (wall seconds, peak RSS in MB, exit code).

    The peak RSS is the child's own, from its wait4 rusage.  A child
    still running at the deadline is killed.
    """
    with open(log_prefix + ".out", "wb") as out, open(log_prefix + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def layer_metrics(children: list[tuple[float, list[dict]]], speed: float) -> dict:
    """Per-module metrics of one traced pass from (child wall, spans) pairs.

    Times are scaled by ``speed``, the pass's calibration factor, so they
    read at the reference CPU speed like the end-to-end times.
    """
    total = defaultdict(float)  # span name -> seconds
    own = defaultdict(float)  # span name -> self seconds
    count = defaultdict(int)  # "span name.count key" -> summed count
    worst = defaultdict(float)  # "span name.count key" -> largest value
    process_s = 0.0
    for wall, spans in children:
        self_s = self_times(spans)
        process_s += wall - sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
        for span in spans:
            name = span["name"]
            total[name] += span["end"] - span["start"]
            own[name] += self_s[span["id"]]
            for key, value in span["counts"].items():
                count[f"{name}.{key}"] += value
                worst[f"{name}.{key}"] = max(worst[f"{name}.{key}"], value)

    def per(time_s: float, work: int) -> float:
        return time_s * 1e6 / work if work else 0.0

    def selections(block: str) -> int:
        return (count[f"boosting.run.selections_{block}"]
                + count[f"report.boosting_trajectory.selections_{block}"])

    # boosting iterations come from boosting.run and the report trajectory
    iters = count["boosting.run.iters"] + count["report.boosting_trajectory.iters"]
    boosting_s = total["boosting.run"] + total["report.boosting_trajectory"]
    subsets = count["properties.unique_sparsest.subsets"]
    metrics = {
        "counterexample.construct_s": total["counterexample.construct"],
        "counterexample.lockstep_s": total["counterexample.equivalence_check"],
        "counterexample.lockstep_k": int(worst["counterexample.equivalence_check.lockstep_k"]),
        "counterexample.lockstep_mismatches": count["counterexample.equivalence_check.mismatches"],
        "linalg.nullspace_s": total["linalg.nullspace"],
        "properties.unique_sparsest_s": total["properties.unique_sparsest"],
        "properties.unique_sparsest_subsets": subsets,
        "properties.us_per_subset": per(total["properties.unique_sparsest"], subsets),
        "properties.spark_s": total["properties.spark"],
        "properties.spark_subsets": count["properties.spark.subsets"],
        "properties.rip_s": total["properties.rip_constant"],
        "properties.rip_subsets": count["properties.rip_constant.subsets"],
        "properties.rn_uniform_s": total["properties.rn_uniform"],
        "lasso.path_s": total["lasso.lasso_path"],
        "lasso.sweeps": count["lasso.lasso_path.sweeps"],
        "lasso.max_sweeps_per_point": int(worst["lasso.lasso_path.max_sweeps_per_point"]),
        "lasso.points": count["lasso.lasso_path.points"],
        "lasso.us_per_sweep": per(total["lasso.lasso_path"], count["lasso.lasso_path.sweeps"]),
        "lasso.worst_kkt": worst["lasso.lasso_path.worst_kkt"],
        "lasso.unconverged_points": count["lasso.lasso_path.unconverged_points"],
        "boosting.run_s": total["boosting.run"],
        "boosting.iters": iters,
        "boosting.us_per_iter": per(boosting_s, iters),
        "boosting.selections_mixed": selections("mixed"),
        "boosting.selections_middle": selections("middle"),
        "boosting.selections_active": selections("active"),
        "report.trajectory_s": total["report.boosting_trajectory"],
        "report.self_s": own["report.reproduce"],
        "cli.process_s": process_s,
        "cli.self_s": own["cli.main"],
        "io.write_s": sum(v for k, v in total.items() if k.startswith("io.write_")),
        "io.bytes_written": sum(v for k, v in count.items() if k.endswith(".bytes")),
        "io.read_s": sum(v for k, v in total.items() if k.startswith("io.read_")),
    }
    return {
        name: value * speed if PER_LAYER[name] in ("s", "us") else value
        for name, value in metrics.items()
    }


def run_pass(workload, index: int, traced: bool, env, work: str, deadline: float) -> dict:
    pass_dir = os.path.join(work, f"pass-{index}")
    os.makedirs(pass_dir)
    wall, rss, codes, probes, children = 0.0, 0.0, [], [], []
    commands = workload.commands(pass_dir, traced, str(index))
    for k, (argv, probe_path, spans_path) in enumerate(commands):
        w, r, code = run_child(argv, env, os.path.join(pass_dir, f"proc-{k}"), deadline)
        wall, rss = wall + w, max(rss, r)
        codes.append(code)
        probes += _load(probe_path)
        if spans_path is not None:
            children.append((w, _load(spans_path)))
    graded = workload.grade(pass_dir, codes)
    if not probes:
        graded.failures.append("no speed-probe samples")
    if not graded.failures:
        shutil.rmtree(pass_dir)
    return {
        "index": index,
        "traced": traced,
        "wall": wall,
        "cal_wall": calibrate(wall, probes),
        "probe": trimmed_mean(probes) if probes else math.nan,
        "rss": rss,
        "graded": graded,
        "children": children,
    }


def calibrate(wall: float, probes: list[float]) -> float:
    """Wall time at the reference CPU speed; raw when there are no samples."""
    return wall * PROBE_REFERENCE_S / trimmed_mean(probes) if probes else wall


def trimmed_mean(samples: list[float], cut: float = 0.1) -> float:
    """Mean without the lowest and highest ``cut`` share of the samples."""
    ordered = sorted(samples)
    k = int(len(ordered) * cut)
    return statistics.fmean(ordered[k : len(ordered) - k])


def _load(path: str) -> list:
    if not os.path.exists(path):
        return []
    with open(path) as handle:
        return json.load(handle)


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it; the maximum
    when there are too few samples for any percentile to qualify."""
    ordered = sorted(samples)
    n = len(ordered)
    if n > 10:
        return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} samples"
    return ordered[-1], f"max of {n} samples (fewer than 11)"


def environment(seed: int) -> dict:
    import numpy

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{config['name']} {config['version']}"
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas}, 1 thread in benchmark processes",
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sparselab", "__init__.py")):
        print("error: no src/sparselab here; run from the root of a sparselab checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + HARD_DEADLINE_S
    work = os.path.join(WORK_ROOT, workload.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = child_env(root)

    try:
        return measure(args, workload, work, env, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def measure_setup(workload, env, work: str, deadline: float, setup: list) -> None:
    """Append one (raw, calibrated) set-up time to ``setup``."""
    log = os.path.join(work, f"setup-{len(setup)}")
    wall, _, code = run_child(
        [WORKER, "setup", "--c", repr(workload.c), "--probe", log + ".probe"],
        env, log, deadline,
    )
    if code != 0:
        raise RuntimeError(f"set-up process exited with code {code}; see {work}")
    setup.append((wall, calibrate(wall, _load(log + ".probe"))))


def measure(args, workload, work: str, env, deadline: float) -> int:
    # set-up samples are spread over the whole run, because CPU speed on
    # a shared host drifts on a scale of seconds
    setup: list[tuple[float, float]] = []
    for _ in range(SETUP_REPEATS):
        measure_setup(workload, env, work, deadline, setup)
    workload.prepare(work, args.seed)

    print(f"sparsebench: workload {workload.name} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    print("environment: " + json.dumps(environment(args.seed), sort_keys=True))
    passes = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(passes) > 0
        result = run_pass(workload, len(passes), traced, env, work, deadline)
        passes.append(result)
        graded = result["graded"]
        status = "ok" if not graded.failures else "FAILED: " + "; ".join(graded.failures)
        print(f"pass {result['index']} ({'traced' if traced else 'untraced'}): "
              f"{result['wall']:.3f} s, peak rss {result['rss']:.1f} MB, {status}")
        for defect in graded.known_defects:
            print(f"  known defect (pinned, not counted as failed): {defect}")
        if time.monotonic() + SETUP_REPEATS_PER_PASS < deadline:
            for _ in range(SETUP_REPEATS_PER_PASS):
                measure_setup(workload, env, work, deadline, setup)
        now, last = time.monotonic(), result["wall"]
        need_traced = bool(args.trace) and not any(p["traced"] for p in passes)
        if now + last > deadline or (now - start + last > args.seconds and not need_traced):
            break

    attempted = len(passes)
    failed = sum(bool(p["graded"].failures) for p in passes)
    known = sum(len(p["graded"].known_defects) for p in passes)
    untraced = [p for p in passes if not p["traced"]]
    # (value, unit, note) for every printed metric; the JSON line carries
    # the declared ones (END_TO_END or PER_LAYER) only
    rows: dict[str, tuple] = {}
    if not args.trace:
        n = len(untraced)
        cal = [p["cal_wall"] for p in untraced]
        raw = [p["wall"] for p in untraced]
        rows["cal_wall_s"] = (statistics.median(cal), "s", f"median of {n} passes at reference CPU speed")
        value, note = tail(cal)
        rows["cal_wall_s_tail"] = (value, "s", note)
        rows["setup_s"] = (statistics.median(c for _, c in setup), "s",
                           f"median of {len(setup)} set-ups at reference CPU speed")
        rows["cal_iters_per_s"] = (
            statistics.median(p["graded"].iters / p["cal_wall"] for p in untraced), "1/s",
            "boosting iterations per second at reference CPU speed",
        )
        rows["peak_rss_mb"] = (statistics.median(p["rss"] for p in untraced), "MB",
                               "median over passes of the largest child peak RSS")
        rows["wall_s"] = (statistics.median(raw), "s", f"raw, median of {n} passes")
        value, note = tail(raw)
        rows["wall_s_tail"] = (value, "s", "raw, " + note)
        rows["iters_per_s"] = (statistics.median(p["graded"].iters / p["wall"] for p in untraced),
                               "1/s", "raw")
        rows["setup_s_raw"] = (statistics.median(w for w, _ in setup), "s", "raw")
        rows["probe_us"] = (1e6 * statistics.median(p["probe"] for p in untraced), "us",
                            f"speed probe trimmed mean; reference {1e6 * PROBE_REFERENCE_S:g} us")
        units = END_TO_END
    else:
        traced = [p for p in passes if p["traced"]]
        per_pass = [layer_metrics(p["children"], p["cal_wall"] / p["wall"]) for p in traced]
        drift = []
        for name, unit in PER_LAYER.items():
            if name == "bench.trace_overhead_s":
                continue
            values = [m[name] for m in per_pass]
            if unit in EXACT_UNITS:
                rows[name] = (values[0], unit, "")
                if any(v != values[0] for v in values):
                    drift.append(f"{name} {values}")
            else:
                rows[name] = (statistics.median(values), unit, "at reference CPU speed")
        if drift:
            print("FAILED: counts differ between traced passes: " + "; ".join(drift))
            failed = max(failed, 1)
        rows["bench.trace_overhead_s"] = (
            statistics.median(p["cal_wall"] for p in traced)
            - statistics.median(p["cal_wall"] for p in untraced),
            "s", "median traced minus median untraced pass time, at reference CPU speed",
        )
        units = PER_LAYER
        spans = [s for p in traced for _, child in p["children"] for s in child]
        with open(os.path.join(work, "trace.json"), "w") as handle:
            json.dump(spans, handle)
        print(f"spans: {len(spans)} written to {os.path.join(work, 'trace.json')}")
    rows["ops_failed"] = (
        failed / attempted, "share",
        f"{failed} of {attempted} passes; {known} pinned known-defect passes not counted",
    )

    for name, (value, unit, note) in rows.items():
        print(f"{name:36s} {value!r:>24} {unit}" + (f"  ({note})" if note else ""))
    if known:
        print(f"known defect: {PINNED['known_defects'][workload.name]['summary']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": rows[name][0], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
