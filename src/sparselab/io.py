"""File formats: whitespace matrix text, plain vectors, CSV, and JSON.

Writers are atomic (temp file in the target directory, then rename) and
deterministic: floats render with repr (shortest round-trip), JSON keys
are sorted, and nothing embeds timestamps, so identical inputs produce
byte-identical files.  Non-finite floats are serialized as the strings
"inf", "-inf", and "nan" in JSON because strict JSON has no spelling for
them; CSV cells use the same repr spellings, and empty cells mean
"not applicable".
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from .counterexample import SparseInstance
from .linalg import design, real_array


def _atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_matrix(path: str, X) -> None:
    """Header line "n p", then n rows of p repr-formatted decimals; X must
    pass ``linalg.design``, as every matrix ``read_matrix`` accepts does."""
    X = design(X)
    n, p = X.shape
    lines = [f"{n} {p}"]
    for i in range(n):
        lines.append(" ".join(repr(float(v)) for v in X[i]))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def _number(path: str, token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"{path}: entry {token!r} is not a number") from None


def _finite(path: str, values: np.ndarray) -> np.ndarray:
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"{path}: non-finite entry at index {bad[0].tolist()}")
    return values


def read_matrix(path: str) -> np.ndarray:
    """Inverse of write_matrix; malformed or non-finite input is a ValueError."""
    with open(path, "r") as handle:
        header = handle.readline().split()
        if len(header) != 2 or not all(tok.isdigit() and int(tok) > 0 for tok in header):
            raise ValueError(f"{path}: first line must be 'n p' with n, p >= 1, got {header!r}")
        n, p = int(header[0]), int(header[1])
        values = [_number(path, tok) for tok in handle.read().split()]
    if len(values) != n * p:
        raise ValueError(
            f"{path}: expected {n * p} entries for a {n} x {p} matrix, "
            f"got {len(values)}"
        )
    return _finite(path, np.array(values).reshape(n, p))


# Nothing in sparselab calls this; it stays because the benchmark's tracer wraps it.
def write_vector(path: str, v) -> None:
    """One repr-formatted decimal per line, no header."""
    v = real_array("v", v)
    if v.ndim != 1:
        raise ValueError(f"v must be a vector, got shape {v.shape}")
    _atomic_write_text(path, "\n".join(repr(float(x)) for x in v) + "\n")


def read_vector(path: str) -> np.ndarray:
    """Inverse of write_vector; empty or non-finite input is a ValueError."""
    with open(path, "r") as handle:
        values = np.array([_number(path, tok) for tok in handle.read().split()])
    if values.size == 0:
        raise ValueError(f"{path}: the vector has no entries")
    return _finite(path, values)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: str, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def jsonable(value):
    """Recursively convert numpy scalars/arrays and non-finite floats."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    return value


def write_json(path: str, obj) -> None:
    _atomic_write_text(
        path, json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n"
    )


def write_instance(directory: str, inst: SparseInstance) -> dict[str, str]:
    """Matrix file plus JSON sidecar; returns the written paths."""
    os.makedirs(directory, exist_ok=True)
    matrix_path = os.path.join(directory, "X.txt")
    sidecar_path = os.path.join(directory, "instance.json")
    write_matrix(matrix_path, inst.X)
    write_json(
        sidecar_path,
        {
            "n": inst.n,
            "p": inst.p,
            "s": inst.s,
            "gamma": inst.gamma,
            "c_target": inst.c_target,
            "beta": inst.beta,
            "S": list(inst.S),
        },
    )
    return {"matrix": matrix_path, "instance": sidecar_path}
