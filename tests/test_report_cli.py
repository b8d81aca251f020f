import argparse
import hashlib
import importlib
import itertools
import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparselab
from sparselab import (
    BoostingConfig,
    jsonable,
    lasso_path,
    read_matrix,
    read_vector,
    write_csv,
    write_json,
    write_matrix,
    write_vector,
)
from sparselab import properties
from sparselab.cli import build_parser, main
from sparselab.report import (
    PATH_HEADER,
    TRAJECTORY_HEADER,
    boosting_trajectory,
    detect_cone_exit,
    reproduce,
    verdict_failures,
)
from sparselab.boosting import thin
from sparselab.properties import cone_split

# the package exports the function lasso under the module's name
LASSO = importlib.import_module("sparselab.lasso")


# --- file formats -----------------------------------------------------------


def test_matrix_round_trip(tmp_path):
    path = str(tmp_path / "X.txt")
    X = np.array([[1.0, -2.5e-17], [3.0, 7e12]])
    write_matrix(path, X)
    header = open(path).readline()
    assert header == "2 2\n"
    np.testing.assert_array_equal(read_matrix(path), X)


def test_matrix_reader_validates_count(tmp_path):
    path = str(tmp_path / "bad.txt")
    with open(path, "w") as fh:
        fh.write("2 2\n1.0 2.0 3.0\n")
    with pytest.raises(ValueError):
        read_matrix(path)


def test_vector_round_trip(tmp_path):
    path = str(tmp_path / "v.txt")
    v = np.array([0.1, -3.0, 2e-300])
    write_vector(path, v)
    np.testing.assert_array_equal(read_vector(path), v)


def test_csv_cell_conventions(tmp_path):
    path = str(tmp_path / "t.csv")
    write_csv(path, ["a", "b", "c"], [[1, None, True], [0.5, "x", False]])
    lines = open(path).read().splitlines()
    assert lines == ["a,b,c", "1,,true", "0.5,x,false"]


def test_json_conventions(tmp_path):
    path = str(tmp_path / "o.json")
    write_json(path, {"b": math.inf, "a": math.nan, "v": np.array([1.0])})
    text = open(path).read()
    obj = json.loads(text)
    assert obj == {"a": "nan", "b": "inf", "v": [1.0]}
    # keys are sorted so rewrites are byte-identical
    assert text.index('"a"') < text.index('"b"')
    write_json(path, {"b": math.inf, "a": math.nan, "v": np.array([1.0])})
    assert open(path).read() == text


# --- report helpers ---------------------------------------------------------


def test_cone_split_conventions():
    assert cone_split(np.zeros(3), (0,)) == (0.0, 0.0, pytest.approx(math.nan, nan_ok=True))
    on, off, ratio = cone_split(np.array([0.0, 2.0]), (0,))
    assert (on, off, ratio) == (0.0, 2.0, math.inf)
    on, off, ratio = cone_split(np.array([1.0, -2.0, 3.0]), (0, 2))
    assert (on, off, ratio) == (4.0, 2.0, 0.5)
    # a stack of vectors splits row by row, by the same rule and to the bit;
    # the empty split's nan is math.nan, sign bit clear
    rng = np.random.default_rng(7)
    block = np.vstack([np.zeros(300), np.eye(300)[1], rng.standard_normal((3, 300))])
    on, off, ratio = cone_split(block, (0, 2, 299))
    assert math.isnan(ratio[0]) and not np.signbit(ratio[0])
    empty = cone_split(block[0], (0,))[2]
    assert math.isnan(empty) and not np.signbit(empty)
    assert (on[1], off[1], ratio[1]) == (0.0, 1.0, math.inf)
    for i, row in enumerate(block[1:], 1):
        want = cone_split(row, (0, 2, 299))
        assert all(isinstance(v, float) for v in want)
        assert [float.hex(v) for v in (on[i], off[i], ratio[i])] == list(map(float.hex, want))


def test_detect_cone_exit():
    assert detect_cone_exit([0.0] * 5 + [3.0] * 100, 2.1, 100) == 5
    assert detect_cone_exit([3.0, 0.0] * 100, 2.1, 2) is None
    assert detect_cone_exit([3.0] * 99, 2.1, 100) is None
    assert detect_cone_exit([], 2.1, 1) is None


class _Row:
    def __init__(self, k):
        self.k = k


def test_thin_rows():
    rows = [_Row(k) for k in range(1501)]
    kept = [r.k for r in thin(rows)]
    assert kept[:1001] == list(range(1001))
    assert kept[1001:] == list(range(1010, 1501, 10))
    # a final row off the stride is appended anyway
    rows = [_Row(k) for k in range(1502)]
    assert [r.k for r in thin(rows)][-1] == 1501
    # lazily, over any stream, even an endless one
    assert list(itertools.islice(thin(itertools.count()), 1003)) == [
        *range(1001), 1010, 1020
    ]
    assert list(thin(iter(()))) == []


def test_trajectory_initial_row(inst9):
    config = BoostingConfig(nu=1.0, max_iterations=3, residual_stop=0.0)
    rows = boosting_trajectory(inst9.X, inst9.Y, config, truth=inst9.beta, S=inst9.S)
    assert rows[0].k == 0
    assert rows[0].j is None
    assert rows[0].dist_l1 == 3.0
    assert rows[0].cone_ratio == 0.0
    assert len(rows) == 4


def test_trajectory_refuses_a_bad_truth(inst9):
    config = BoostingConfig(nu=1.0, max_iterations=2, residual_stop=0.0)
    p = inst9.X.shape[1]
    with pytest.raises(ValueError, match=rf"^truth has shape \({p - 1},\), expected \({p},\)$"):
        boosting_trajectory(inst9.X, inst9.Y, config, truth=inst9.beta[1:], S=inst9.S)
    truth = inst9.beta.copy()
    truth[0] = math.nan
    with pytest.raises(ValueError, match=r"^truth must be finite$"):
        boosting_trajectory(inst9.X, inst9.Y, config, truth=truth, S=inst9.S)


def test_trajectory_refuses_a_truth_without_its_support(inst9, monkeypatch):
    # refused before the engine runs, naming S, the argument left out
    monkeypatch.setattr(sparselab.boosting, "iterate", None)
    config = BoostingConfig(nu=1.0, max_iterations=2, residual_stop=0.0)
    with pytest.raises(ValueError, match=r"^S must be non-empty when truth is given$"):
        boosting_trajectory(inst9.X, inst9.Y, config, inst9.beta)


def test_trajectory_refuses_a_support_without_its_truth(inst9, monkeypatch):
    # without a truth S would be ignored, so it is refused before the engine runs
    monkeypatch.setattr(sparselab.boosting, "iterate", None)
    config = BoostingConfig(nu=1.0, max_iterations=3, residual_stop=0.0)
    with pytest.raises(ValueError, match=r"^S must be empty when truth is None$"):
        boosting_trajectory(inst9.X, inst9.Y, config, None, (99,))


@pytest.mark.parametrize("S, message", [
    ((99,), r"^S must hold indices in \[0, 9\], got \(99,\)$"),
    ((0, 0), r"^S repeats an index: \(0, 0\)$"),
], ids=["out-of-range", "repeated"])
def test_trajectory_refuses_a_bad_support_before_the_engine(inst9, monkeypatch, S, message):
    # checked up front and named S, not at the first trajectory block as T
    monkeypatch.setattr(sparselab.boosting, "iterate", None)
    config = BoostingConfig(nu=1.0, max_iterations=50, residual_stop=0.0)
    with pytest.raises(ValueError, match=message):
        boosting_trajectory(inst9.X, inst9.Y, config, inst9.beta, S)


def test_trajectory_takes_a_numpy_support(inst9):
    # S is judged by its length, as a tuple is: a one-entry array is a
    # support, and a longer one is no ambiguous truth value
    config = BoostingConfig(nu=0.5, max_iterations=40, residual_stop=0.0)
    for S in ((0,), (0, 1, 2), inst9.S):
        rows = boosting_trajectory(inst9.X, inst9.Y, config, truth=inst9.beta, S=np.array(S))
        assert rows == boosting_trajectory(inst9.X, inst9.Y, config, truth=inst9.beta, S=S)
    with pytest.raises(ValueError, match=r"^S must be empty when truth is None$"):
        boosting_trajectory(inst9.X, inst9.Y, config, None, np.array([0, 1]))
    with pytest.raises(ValueError, match=r"^S must be non-empty when truth is given$"):
        boosting_trajectory(inst9.X, inst9.Y, config, inst9.beta, np.array([], dtype=int))


def test_trajectory_without_truth(inst9):
    config = BoostingConfig(nu=1.0, max_iterations=2, residual_stop=0.0)
    rows = boosting_trajectory(inst9.X, inst9.Y, config)
    assert math.isnan(rows[-1].dist_l1)
    assert math.isnan(rows[-1].cone_ratio)


# --- the full pipeline ------------------------------------------------------


@pytest.fixture(scope="module")
def report9():
    return reproduce(c=1.0, nu=1.0, iterations=400)


def test_reproduce_grades_clean(report9):
    summary = report9.summary
    assert verdict_failures(report9) == []
    info = summary["instance"]
    assert info["n"] == 9 and info["p"] == 10 and info["s"] == 3
    assert summary["certificates"]["critical_c"] == pytest.approx(7.0 / 3.0, abs=1e-12)
    assert summary["boosting"]["cone_exit_k"] == 4
    assert summary["boosting"]["limit_cone_ratio"] == pytest.approx(7.0 / 3.0, abs=1e-9)
    assert summary["lasso"]["lambda_max"] == 486.0
    assert len(report9.rows) == 401


def test_verdict_failures_reports_diffs(report9):
    report9.summary["verdicts"]["rn_holds"] = False
    try:
        assert verdict_failures(report9) == [
            "rn_holds: expected True, observed False"
        ]
    finally:
        report9.summary["verdicts"]["rn_holds"] = True


def test_report_json_is_the_summary(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["reproduce", "--c", "1", "--out", out]) == 0
    capsys.readouterr()
    rep = reproduce(c=1.0, nu=1.0, iterations=2000)
    assert json.load(open(f"{out}/report.json")) == jsonable(rep.summary)


# --- command line -----------------------------------------------------------


def test_cli_construct_round_trip(tmp_path, capsys, inst9):
    out = str(tmp_path / "inst")
    assert main(["construct", "--c", "1", "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "n=9 p=10 s=3" in stdout
    np.testing.assert_array_equal(read_matrix(f"{out}/X.txt"), inst9.X)
    meta = json.load(open(f"{out}/instance.json"))
    assert meta["n"] == 9 and meta["s"] == 3
    assert meta["S"] == [0, 1, 2]


def test_cli_reproduce_writes_artifacts(tmp_path, capsys):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    argv = ["reproduce", "--c", "1", "--nu", "0.5", "--iters", "300"]
    assert main(argv + ["--out", out_a]) == 0
    assert main(argv + ["--out", out_b]) == 0
    capsys.readouterr()
    for name in ("X.txt", "instance.json", "boosting_trajectory.csv", "lasso_path.csv", "report.json"):
        assert open(f"{out_a}/{name}").read() == open(f"{out_b}/{name}").read()
    trajectory = open(f"{out_a}/boosting_trajectory.csv").read().splitlines()
    assert trajectory[0] == ",".join(TRAJECTORY_HEADER)
    assert trajectory[1].startswith("0,,")
    path_csv = open(f"{out_a}/lasso_path.csv").read().splitlines()
    assert path_csv[0] == ",".join(PATH_HEADER)
    summary = json.load(open(f"{out_a}/report.json"))
    assert summary["verdicts"] == summary["expected"]


def test_cli_reproduce_flags_contradiction(tmp_path, capsys):
    # a path that stops at half of lambda_max leaves the lasso far from
    # beta, so the lasso_recovers verdict contradicts its expectation
    rc = main(["reproduce", "--c", "1", "--lambda-min-factor", "0.5"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "CONTRADICTIONS" in captured.err
    assert "lasso_recovers: expected True, observed False" in captured.err


def test_reproduce_refuses_iterations_below_the_cone_window():
    # no sustained cone exit fits in fewer iterations than the window
    with pytest.raises(ValueError, match="cone window"):
        reproduce(c=1.0, nu=1.0, iterations=50)


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("nu", [0.1, 0.5, 1.0])
def test_cli_reproduce_grid_is_clean(c, nu, capsys):
    # the shipped instances must grade clean at every step length
    assert main(["reproduce", "--c", str(c), "--nu", str(nu)]) == 0
    assert "CONTRADICTIONS" not in capsys.readouterr().err


# sha256 of every `reproduce --c 1.0 --out` artifact at the default
# --iters 2000; a change that moves a byte must update these and say why
REPRODUCE_C1_DIGESTS = {
    "0.1": {
        "X.txt": "f90e781ffc3188ec8d88892d2db17840f9993e6f80408d3c3f113d3be8c9b792",
        "boosting_trajectory.csv": "caf363aa123913fd84bccfb0f1a60175434590f5689be5636f8c9f8c6d6f2d60",
        "instance.json": "7ba232fa5b1c71630f818ac012562779bf62580ef13f5ef2e94ac4215bd55b41",
        "lasso_path.csv": "dbb3420e65cc8c9bc831cfdab53e55be7edd3aee8d92953eacfce7868251054b",
        "report.json": "916551777932ddab97353095984421f708225c6511404778e33d4d929633a1f9",
    },
    "1.0": {
        "X.txt": "f90e781ffc3188ec8d88892d2db17840f9993e6f80408d3c3f113d3be8c9b792",
        "boosting_trajectory.csv": "6abe4dbe606fdadc92fca4a02891c2467966bd23217cd627df64af038a953b45",
        "instance.json": "7ba232fa5b1c71630f818ac012562779bf62580ef13f5ef2e94ac4215bd55b41",
        "lasso_path.csv": "dbb3420e65cc8c9bc831cfdab53e55be7edd3aee8d92953eacfce7868251054b",
        "report.json": "e4fa73b3e4b9b5c83a9633880990e617d9cef8e9a0bde00d5188d74dea513c1e",
    },
}


@pytest.mark.parametrize("nu", sorted(REPRODUCE_C1_DIGESTS))
def test_cli_reproduce_artifact_digests(tmp_path, capsys, nu):
    out = tmp_path / "out"
    assert main(["reproduce", "--c", "1.0", "--nu", nu, "--out", str(out)]) == 0
    capsys.readouterr()
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.iterdir()
    }
    assert digests == REPRODUCE_C1_DIGESTS[nu]


# sha256 of every `reproduce --iters 2000 --out` artifact on the n=25
# instance at nu = 1 and the n=49 instance at nu = 0.1, with the total
# coordinate descent sweeps of each lasso path
REPRODUCE_LARGE = {
    ("4.0", "1.0"): (50_742, {
        "X.txt": "3933d6df1160835469876b6ba04e0a07eb2bb41e07ae8788978eefe397e8ef4e",
        "boosting_trajectory.csv": "b82064c5d7e5078fbe244f7d78c3b341a897bcbae2a2761709655e6a1d643c38",
        "instance.json": "cae1ff5f7ef1e2627a8504d7f09c4c7d203256d93fc3ad44b1768d4c51af859f",
        "lasso_path.csv": "8220064d417be9ab0f312b82254726b64036e79578734cbbd92fe81187a3558a",
        "report.json": "8c5c8a0a62473d3354d51153d17e744859029de0a9bae7930aa9a33baa8dcc26",
    }),
    ("6.0", "0.1"): (122_057, {
        "X.txt": "734cc60c6f2a8054f60be44bf87471663181a947f4b3c41e959a6fe5946e329f",
        "boosting_trajectory.csv": "d3cdafe66cae1b131e3b9f3c8be8dc7bd25422b9884596c2e169596bbc78b4f7",
        "instance.json": "ca320098c1c0a71ffd064960476499f6dfa2586f72e4e03b7879353e33961630",
        "lasso_path.csv": "2272c9ac47c55e1b242435c4a9a1191e49070d13daa8ffe94a50f8efcf8e6051",
        "report.json": "d63333d2e66d94437a70bc6200246e6ad80da451e4b1cbb6e8be9145fcac0585",
    }),
}


@pytest.mark.parametrize("c, nu", sorted(REPRODUCE_LARGE), ids=["n25", "n49"])
def test_cli_reproduce_large_artifact_digests(tmp_path, capsys, monkeypatch, c, nu):
    sweeps, expected = REPRODUCE_LARGE[c, nu]
    solve, points = LASSO._descend, []

    def counted(*args):
        points.append(solve(*args))
        return points[-1]

    # lasso_path looks LASSO._descend up per point, so the wrapper sees every solve
    monkeypatch.setattr(LASSO, "_descend", counted)
    out = tmp_path / "out"
    argv = ["reproduce", "--c", c, "--nu", nu, "--iters", "2000", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.iterdir()
    }
    assert digests == expected
    assert sum(point.sweeps for point in points) == sweeps


# `certify` arguments after --matrix X.txt; Y.txt is the response
CERTIFY_ARGS = {
    "rn": ["--property", "rn", "--t", "2", "--c", "1.5"],
    "rn_uniform": ["--property", "rn_uniform", "--t", "2", "--c", "1.5"],
    "rip": ["--property", "rip", "--t", "2"],
    "spark": ["--property", "spark"],
    # at an enumeration budget of 20: a partial certificate
    "spark_budget": ["--property", "spark"],
    "unique_sparsest": ["--property", "unique_sparsest", "--y", "Y.txt", "--s", "3"],
}

# sha256 of `certify --out` with the files X.txt and Y.txt in the working
# directory (the certificate echoes the relative paths): on the n=9
# instance, whose nullspace is one ray ...
CERTIFY_C1_DIGESTS = {
    "rn": "ba629f2c89ef4ef6887e8de5e65bea6c98dc8d488ef20e5cfa7d0d22c2fd2ebe",
    "rn_uniform": "7314c821f461c63c9e7e0b834b976de8d047aeb349900d76b28d1935f339f467",
    "rip": "889b1d31f1e05278305d9abc284a2eb694a406dc8e42f4b8cef1ae985f678dab",
    "spark": "af0b16405ee7deba10597fb9acedafd5160961886d92a11b74dfb6688d8fae6a",
    "spark_budget": "1711238a085f9e2d45a7e7f40b034604d3628834ec80126363ffe5672443c64d",
    "unique_sparsest": "293523dbc9f944322ebbac9cf84087be924fc777ddf6fbf8c53b4258ee8dd003",
}

# ... and on a seeded 4 x 7 Gaussian design with a 2-sparse truth, whose
# nullspace has dimension 3 (cone checks over C(7, 2) = 21 rays, a
# witness array)
CERTIFY_GAUSSIAN_DIGESTS = {
    "rn": "77847c6665a1cb77648aca6390e016a05712a698d6c95bf1836bdda06c5fa855",
    "rn_uniform": "24ed22de49e0cd0ca01e6f45efe1554685eaa5ff29866397b3ccd9a76dfb306b",
    "rip": "4ddc8c63ad1452d46c4b7d985858deb9b7d4de2e859154713adaa6f664d48e22",
    "spark": "ed1b88c91f963d79c739577b98a77b2553bc5f34e25757ac33128837bb6941f0",
    "spark_budget": "7beb7e008c6b40f5886094dc1405d68ef1986b63736372c1ac292fd905137a48",
    "unique_sparsest": "46e973ff159bcf7862ebf6c281154c0eb424840e6048ec2239c7040449562391",
}


def _certify_digest(directory, monkeypatch, X, Y, case):
    monkeypatch.chdir(directory)
    if case == "spark_budget":
        monkeypatch.setattr(properties, "ENUMERATION_BUDGET", 20)
    write_matrix("X.txt", X)
    write_vector("Y.txt", Y)
    argv = ["certify", "--matrix", "X.txt", *CERTIFY_ARGS[case], "--out", "cert.json"]
    assert main(argv) == 0
    return hashlib.sha256((directory / "cert.json").read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(CERTIFY_C1_DIGESTS))
def test_cli_certify_digests(tmp_path, monkeypatch, capsys, inst9, case):
    digest = _certify_digest(tmp_path, monkeypatch, inst9.X, inst9.Y, case)
    capsys.readouterr()
    assert digest == CERTIFY_C1_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(CERTIFY_GAUSSIAN_DIGESTS))
def test_cli_certify_digests_gaussian(tmp_path, monkeypatch, capsys, case):
    X = np.random.default_rng(7).standard_normal((4, 7))
    beta = np.zeros(7)
    beta[[1, 4]] = (1.5, -2.0)
    assert sparselab.nullspace(X).shape == (7, 3)
    digest = _certify_digest(tmp_path, monkeypatch, X, X @ beta, case)
    capsys.readouterr()
    assert digest == CERTIFY_GAUSSIAN_DIGESTS[case]


def test_cli_certify_rn_uniform(tmp_path, capsys, inst9):
    matrix = str(tmp_path / "X.txt")
    write_matrix(matrix, inst9.X)
    cert_path = str(tmp_path / "cert.json")
    rc = main(
        [
            "certify",
            "--matrix",
            matrix,
            "--property",
            "rn_uniform",
            "--t",
            "3",
            "--c",
            "2",
            "--out",
            cert_path,
        ]
    )
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    stored = json.load(open(cert_path))
    assert printed == stored
    assert stored["holds"] is True
    assert stored["critical_c"] == pytest.approx(7.0 / 3.0)
    assert stored["worst_T"] == [0, 1, 2]


def test_cli_certify_unique_sparsest_needs_inputs(tmp_path, capsys, inst9):
    matrix = str(tmp_path / "X.txt")
    write_matrix(matrix, inst9.X)
    rc = main(["certify", "--matrix", matrix, "--property", "unique_sparsest"])
    assert rc == 2
    assert "requires --y and --s" in capsys.readouterr().err


def test_cli_certify_budget_refusal(tmp_path, monkeypatch, capsys, inst9):
    matrix = str(tmp_path / "X.txt")
    write_matrix(matrix, inst9.X)
    # C(10, 3) = 120 subsets
    monkeypatch.setattr(properties, "ENUMERATION_BUDGET", 10)
    rc = main(
        [
            "certify",
            "--matrix",
            matrix,
            "--property",
            "rip",
            "--t",
            "3",
        ]
    )
    assert rc == 3
    assert "budget" in capsys.readouterr().err


def test_cli_missing_file_is_usage_error(capsys):
    rc = main(["certify", "--matrix", "/nonexistent/X.txt", "--property", "spark"])
    assert rc == 2
    capsys.readouterr()


def test_cli_compare(tmp_path, capsys, inst9):
    matrix = str(tmp_path / "X.txt")
    y_path = str(tmp_path / "y.txt")
    out = str(tmp_path / "cmp")
    write_matrix(matrix, inst9.X)
    write_vector(y_path, inst9.Y)
    rc = main(
        [
            "compare",
            "--matrix",
            matrix,
            "--y",
            y_path,
            "--nu",
            "1.0",
            "--lambda-min",
            "1e-4",
            "--iters",
            "200",
            "--out",
            out,
        ]
    )
    assert rc == 0
    capsys.readouterr()
    trajectory = open(f"{out}/boosting_trajectory.csv").read().splitlines()
    assert trajectory[0] == ",".join(TRAJECTORY_HEADER)
    # no truth vector: distance and cone cells are not applicable
    assert trajectory[1].endswith(",nan,nan")


def test_cli_compare_warns_on_unconverged_lasso(tmp_path, capsys, inst9, monkeypatch):
    matrix = str(tmp_path / "X.txt")
    y_path = str(tmp_path / "y.txt")
    write_matrix(matrix, inst9.X)
    write_vector(y_path, inst9.Y)
    argv = ["compare", "--matrix", matrix, "--y", y_path, "--lambda-min", "1e-4",
            "--iters", "10"]
    assert main(argv + ["--out", str(tmp_path / "full")]) == 0
    out, err = capsys.readouterr()
    assert "worst KKT residual" in out and ", 0 unconverged" in out
    assert err == ""
    monkeypatch.setattr(LASSO, "MAX_SWEEPS", 1)
    points = lasso_path(inst9.X, inst9.Y, 1e-4)
    unconverged = sum(not point.converged for point in points)
    assert 0 < unconverged < len(points)
    assert main(argv + ["--out", str(tmp_path / "cut")]) == 0
    out, err = capsys.readouterr()
    assert f", {unconverged} unconverged" in out
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: ")
    assert f"{unconverged} of {len(points)} lasso path points" in lines[0]


def test_cli_compare_validates_lengths(tmp_path, capsys, inst9):
    matrix = str(tmp_path / "X.txt")
    y_path = str(tmp_path / "y.txt")
    write_matrix(matrix, inst9.X)
    write_vector(y_path, inst9.Y[:-1])
    rc = main(
        ["compare", "--matrix", matrix, "--y", y_path, "--lambda-min", "1e-4"]
    )
    assert rc == 2
    capsys.readouterr()


# --- input boundary -----------------------------------------------------------

BOUNDARY_FILES = {
    "X.txt": "2 3\n1 0 1\n0 1 1\n",
    "y.txt": "1\n2\n",
    "nan.txt": "2 3\n1 nan 1\n0 1 1\n",
    "inf.txt": "2 3\n1 inf 1\n0 1 1\n",
    "y_inf.txt": "1\n-inf\n",
    "y_huge.txt": "1e300\n2\n",
    "y_tiny.txt": "1e-300\n2e-300\n",
    "y_comma.txt": "1,2\n",
    "huge.txt": "2 3\n1 0 1e200\n0 1 1\n",
    "huge_first.txt": "2 3\n1e200 0 1\n0 1 1\n",
    # four copies of the 10 x 10 identity: C(40, 8) = 76,904,685 size-8
    # subsets, and a 30-dimensional nullspace with C(40, 29) candidate
    # rays, both past the enumeration budget
    "wide40.txt": "10 40\n" + "".join(
        " ".join("1" if j % 10 == i else "0" for j in range(40)) + "\n" for i in range(10)
    ),
    # X_NEAR of test_arguments: a nullspace vector fails the residual check
    "near.txt": "10 2\n1 1\n" + "0 9.9e-11\n" * 9,
    # a pivot tiny next to the rest of its row: the row reduction overflows
    "tiny_pivot.txt": "1 2\n1e-300 1e10\n",
    # the nullspace residual check's tolerance overflows
    "huge_tol.txt": "2 3\n1 0 1e308\n0 1 1e308\n",
    # the nullspace ray (1e308, 1e308, 1) has an l1 mass past the float range
    "huge_ray.txt": "2 3\n1e-20 0 -1e288\n0 1e-20 -1e288\n",
    "y_short.txt": "1\n",
    "header_one.txt": "2\n1 0\n0 1\n",
    "header_text.txt": "two three\n1 0 1\n0 1 1\n",
    "header_float.txt": "2.0 3\n1 0 1\n0 1 1\n",
    "count.txt": "2 3\n1 0 1\n",
    "token.txt": "2 3\n1 0 x\n0 1 1\n",
    "zero_cols.txt": "2 0\n",
    "empty.txt": "",
}

CERTIFY = ["certify", "--matrix"]
COMPARE = ["compare", "--lambda-min", "1e-3", "--matrix"]


def _address_space_cap():
    # 2 GiB: enough to start numpy on one BLAS thread, far below what an
    # instance too large to build would allocate
    resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))


@pytest.mark.parametrize(
    "argv, code",
    [
        (COMPARE + ["nan.txt", "--y", "y.txt"], 2),
        (CERTIFY + ["inf.txt", "--property", "rip", "--t", "1"], 2),
        (CERTIFY + ["nan.txt", "--property", "rn", "--t", "1"], 2),
        (COMPARE + ["huge.txt", "--y", "y.txt"], 2),
        (COMPARE + ["X.txt", "--y", "y_huge.txt"], 2),
        (CERTIFY + ["huge.txt", "--property", "rip", "--t", "2"], 2),
        (CERTIFY + ["X.txt", "--property", "unique_sparsest", "--y", "y_huge.txt", "--s", "2"], 2),
        (CERTIFY + ["huge_first.txt", "--property", "unique_sparsest", "--y", "y.txt", "--s", "2"], 2),
        (CERTIFY + ["near.txt", "--property", "rn", "--t", "1"], 2),
        (CERTIFY + ["tiny_pivot.txt", "--property", "rn", "--t", "1"], 2),
        (CERTIFY + ["huge_tol.txt", "--property", "rn", "--t", "1"], 2),
        (CERTIFY + ["huge_ray.txt", "--property", "rn", "--t", "2"], 2),
        (CERTIFY + ["X.txt", "--property", "unique_sparsest", "--y", "y_tiny.txt", "--s", "2"], 2),
        (COMPARE + ["huge.txt", "--y", "y_huge.txt"], 2),
        (COMPARE + ["X.txt", "--y", "y_inf.txt"], 2),
        (COMPARE + ["X.txt", "--y", "empty.txt"], 2),
        (COMPARE + ["X.txt", "--y", "y_short.txt"], 2),
        (CERTIFY + ["X.txt", "--property", "unique_sparsest", "--y", "y_short.txt", "--s", "1"], 2),
        (CERTIFY + ["header_one.txt", "--property", "spark"], 2),
        (CERTIFY + ["header_text.txt", "--property", "spark"], 2),
        (CERTIFY + ["header_float.txt", "--property", "spark"], 2),
        (CERTIFY + ["count.txt", "--property", "spark"], 2),
        (CERTIFY + ["token.txt", "--property", "spark"], 2),
        (COMPARE + ["X.txt", "--y", "y_comma.txt"], 2),
        (CERTIFY + ["zero_cols.txt", "--property", "spark"], 2),
        (CERTIFY + ["empty.txt", "--property", "spark"], 2),
        (CERTIFY + ["X.txt", "--property", "spark", "--budget", "0"], 2),
        (CERTIFY + ["wide40.txt", "--property", "rip", "--t", "8"], 3),
        (CERTIFY + ["wide40.txt", "--property", "rn", "--t", "1"], 3),
        (["compare", "--matrix", "X.txt", "--y", "y.txt", "--lambda-min", "0"], 2),
        (["compare", "--matrix", "X.txt", "--y", "y.txt", "--lambda-min", "-1e-4"], 2),
        (["compare", "--matrix", "X.txt", "--y", "y.txt", "--lambda-min", "nan"], 2),
        (["reproduce", "--c", "1", "--window", "5"], 2),
        (["reproduce", "--c", "1", "--seed", "-1"], 2),
        (CERTIFY + ["X.txt", "--property", "spark", "--seed", "-1"], 2),
        (CERTIFY + ["X.txt", "--property", "spark", "--c", "-1"], 2),
        (CERTIFY + ["X.txt", "--property", "spark", "--samples", "0"], 2),
        (CERTIFY + ["X.txt", "--property", "spark", "--t", "-5"], 2),
        (CERTIFY + ["X.txt", "--property", "spark", "--s", "-3"], 2),
        (CERTIFY + ["X.txt", "--property", "spark", "--y", "nonexistent.txt"], 2),
        (CERTIFY + ["X.txt", "--property", "rip", "--t", "2", "--s", "-1"], 2),
        (CERTIFY + ["X.txt", "--property", "rn", "--t", "9"], 2),
        (["reproduce", "--c", "6", "--lambda-min-factor", "1"], 2),
        (["reproduce", "--c", "1", "--lambda-min-factor", "0"], 2),
        (["reproduce", "--c", "1", "--lambda-min-factor", "-1e-8"], 2),
        (CERTIFY + ["X.txt", "--property", "rn_uniform", "--t", "1", "--c", "0"], 2),
        (CERTIFY + ["X.txt", "--property", "rn_uniform", "--t", "1", "--c", "-1"], 2),
        (CERTIFY + ["X.txt", "--property", "rn_uniform", "--t", "1", "--c", "nan"], 2),
        (CERTIFY + ["X.txt", "--property", "rn_uniform", "--t", "1", "--c", "inf"], 2),
        (["reproduce", "--nu", "0.5"], 2),
        (CERTIFY + ["X.txt", "--property", "bogus"], 2),
        (CERTIFY + ["X.txt", "--t", "1", "--property", "re"], 2),
        (["reproduce", "--c", "1", "--iters", "50"], 2),
        (["construct", "--c", "1000"], 2),
        (["reproduce", "--c", "1000"], 2),
        (["construct", "--c", "1e300"], 2),
        (["construct", "--c", "1e6"], 2),
        (["construct", "--c", "1e20"], 2),
    ],
    ids=[
        "compare-nan-matrix",
        "rip-inf-matrix",
        "rn-nan-matrix",
        "compare-overflow-matrix",
        "compare-overflow-y",
        "rip-overflow-matrix",
        "unique-overflow-y",
        "unique-overflow-matrix",
        "rn-nullspace-residual",
        "rn-nullspace-overflow",
        "rn-nullspace-tolerance-overflow",
        "rn-ray-mass-overflow",
        "unique-underflow-y",
        "compare-overflow-both",
        "compare-inf-y",
        "compare-empty-y",
        "compare-short-y",
        "unique-short-y",
        "header-one-token",
        "header-text",
        "header-float",
        "entry-count",
        "entry-token",
        "vector-entry-token",
        "zero-columns",
        "empty-matrix",
        "certify-budget-0",
        "rip-budget-refusal",
        "rn-budget-refusal",
        "lambda-min-0",
        "lambda-min-negative",
        "lambda-min-nan",
        "window-unrecognized",
        "reproduce-seed-negative",
        "spark-seed-negative",
        "spark-c-negative",
        "spark-samples-0",
        "spark-t-negative",
        "spark-s-negative",
        "spark-y-missing",
        "rip-s-negative",
        "rn-t-above-p",
        "lambda-min-factor-1",
        "lambda-min-factor-0",
        "lambda-min-factor-negative",
        "rn-uniform-c-0",
        "rn-uniform-c-negative",
        "rn-uniform-c-nan",
        "rn-uniform-c-inf",
        "missing-required-flag",
        "unknown-property",
        "re-retired",
        "iters-below-window",
        "construct-out-of-memory",
        "reproduce-out-of-memory",
        "construct-overflow",
        "construct-too-big",
        "construct-too-many-dimensions",
    ],
)
def test_cli_bad_input_exits_without_traceback(tmp_path, argv, code):
    for name, text in BOUNDARY_FILES.items():
        (tmp_path / name).write_text(text)
    src = os.path.dirname(os.path.dirname(sparselab.__file__))
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    )
    proc = subprocess.run(
        [sys.executable, "-m", "sparselab.cli", *argv],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_address_space_cap,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    # one line, also for finite input that overflows (no numpy warning
    # before the program's own check) and for argparse's refusals (no
    # usage lines before the error)
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    if argv[0] == "construct":
        # an instance too large to build is refused by its c and, unless
        # its size overflows (c = 1e300), by its n and p, never in
        # numpy's words alone
        c = float(argv[2])
        assert lines[0].startswith(f"error: c = {c!r} "), proc.stderr
        if c < 1e300:
            assert " n = " in lines[0] and " p = " in lines[0], proc.stderr
    # a retired flag is unrecognized, a retired property is an invalid
    # choice, and a bad value is refused by name, whichever property reads it
    retired = {"reproduce": ("--window", "--seed"), "certify": ("--samples", "--seed", "--budget")}
    named = {("--c", "-1"): "error: c must be positive and finite, got -1.0",
             ("--t", "-5"): "error: t must lie in [1, 3], got -5",
             ("--t", "9"): "error: t must lie in [1, 3], got 9",
             ("--t", "8"): "error: restricted isometry scan over 76904685 subsets of size 8 "
                           "exceeds the budget of 10000000",
             ("--s", "-3"): "error: s must lie in [0, 3], got -3",
             ("--s", "-1"): "error: s must lie in [0, 3], got -1",
             ("--y", "nonexistent.txt"):
                 "error: [Errno 2] No such file or directory: 'nonexistent.txt'",
             ("--lambda-min-factor", "1"): "error: lambda_min_factor must lie below 1, got 1.0"}
    if argv[-2] in retired.get(argv[0], ()):
        assert lines[0] == f"error: unrecognized arguments: {' '.join(argv[-2:])}", proc.stderr
    elif argv[-2:] == ["--property", "re"]:
        assert lines[0].startswith("error: argument --property: invalid choice: 're'"), proc.stderr
    elif tuple(argv[-2:]) in named:
        assert lines[0] == named[tuple(argv[-2:])], proc.stderr
    # an entry that is not a number is refused by its file, and a Y whose
    # squared norm underflows as its overflow is
    named_by_file = {"token.txt": "error: token.txt: entry 'x' is not a number",
                     "y_comma.txt": "error: y_comma.txt: entry '1,2' is not a number",
                     "y_tiny.txt": "error: the norm of Y underflows; rescale Y",
                     "tiny_pivot.txt":
                         "error: the row reduction of X overflows; rescale the columns of X",
                     "huge_tol.txt":
                         "error: the nullspace residual check overflows; rescale the columns of X"}
    for name, line in named_by_file.items():
        if name in argv:
            assert lines[0] == line, proc.stderr


def test_cli_certify_rn_on_columns_of_very_different_scales(tmp_path, monkeypatch, capsys):
    # each column pivots at its own scale: the nullspace of huge.txt is the
    # ray (-1e200, -1, 1), which lies in the cone of T = (0,)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "huge.txt").write_text(BOUNDARY_FILES["huge.txt"])
    assert main(CERTIFY + ["huge.txt", "--property", "rn", "--t", "1"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert (cert["holds"], cert["witness"], cert["critical_c"]) == (
        False, [-1e200, -1.0, 1.0], 2e-200
    )


def test_readme_certifiers_list_the_cli_properties():
    # README's `### Certifiers` bullet list and its count name exactly the
    # properties that `certify --property` accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n### Certifiers\n", 1)[1].split("\n#", 1)[0]
    listed = re.findall(r"^- `(\w+)` :", section, flags=re.MULTILINE)
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    choices = next(a.choices for a in commands.choices["certify"]._actions if a.dest == "property")
    assert listed == list(choices)
    words = ("zero", "one", "two", "three", "four", "five", "six", "seven", "eight")
    assert f"accepts the {words[len(choices)]} properties below" in section
