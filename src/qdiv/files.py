"""Operator files and run reports as deterministic structured text.

Operators are stored as JSON with separate real and imaginary arrays, floats
written with 17 significant digits so parsing recovers them bit-exactly in any
language.  Reports are JSON with a fixed key order; +infinity is spelled as
the string "inf" everywhere, NaN and -infinity are never written (rendering
raises ``ValueError``), and the wall-time field is the only run-dependent line.
"""

from __future__ import annotations

import json
import math
from typing import Optional, Tuple

import numpy as np

from . import matrixcore as mc
from .maps import require_unitary
from .operators import DensityOperator, PositiveOperator

ROLES = ("density", "positive", "projection", "unitary")


class OperatorFileError(ValueError):
    """The file does not parse or fails the validation of its role."""


def _fmt(x: float) -> str:
    s = f"{float(x):.17g}"
    # json floats: normalize bare exponents like 1e+300 are fine, nan/inf are not
    if not math.isfinite(float(x)):
        raise OperatorFileError("operator entries must be finite")
    return s


def operator_to_text(matrix, role: Optional[str] = None) -> str:
    """Serialize a square complex matrix to the operator file format."""
    m = mc.as_complex_matrix(matrix)
    if role is not None and role not in ROLES:
        raise OperatorFileError(f"unknown role {role!r}")
    n = m.shape[0]
    lines = ["{"]
    lines.append(f'  "dim": {n},')
    if role is not None:
        lines.append(f'  "role": "{role}",')
    for key, part in (("re", m.real), ("im", m.imag)):
        rows = []
        for i in range(n):
            rows.append("    [" + ", ".join(_fmt(v) for v in part[i]) + "]")
        tail = "," if key == "re" else ""
        lines.append(f'  "{key}": [')
        lines.append(",\n".join(rows))
        lines.append(f"  ]{tail}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def save_operator(path, matrix, role: Optional[str] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(operator_to_text(matrix, role))


def parse_operator_text(text: str) -> Tuple[np.ndarray, Optional[str]]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise OperatorFileError(f"not valid operator JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise OperatorFileError("operator file must be a JSON object")
    for key in ("dim", "re", "im"):
        if key not in doc:
            raise OperatorFileError(f"operator file is missing key {key!r}")
    n = doc["dim"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:  # a bool is an int
        raise OperatorFileError("dim must be a positive integer")
    role = doc.get("role")
    if role is not None and role not in ROLES:
        raise OperatorFileError(f"unknown role {role!r}")
    return _entries(doc, "re", n) + 1j * _entries(doc, "im", n), role


def _entries(doc: dict, key: str, n: int) -> np.ndarray:
    """The n x n array of JSON numbers under ``key`` (a bool is not one)."""
    rows = doc[key]
    if not (isinstance(rows, list) and len(rows) == n and all(
            isinstance(row, list) and len(row) == n
            and all(type(v) in (int, float) for v in row) for row in rows)):
        raise OperatorFileError(f"{key} is not a {n}x{n} array of JSON numbers")
    try:
        return np.array(rows, dtype=float)
    except OverflowError:  # an integer literal beyond the float range
        raise OperatorFileError(f"{key} has an entry beyond the float range") from None


def load_operator(path) -> Tuple[np.ndarray, Optional[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_operator_text(fh.read())


def validate_role(matrix: np.ndarray, role: Optional[str]):
    """Check the declared role of a parsed operator; raise on violation.

    Returns the operator the check built (a ``DensityOperator`` or a
    ``PositiveOperator``), so callers need not eigendecompose again; for the
    other roles, or no role, returns ``matrix`` itself.
    """
    try:
        if role == "density":
            return DensityOperator(matrix)
        if role == "positive":
            return PositiveOperator(matrix)
        if role == "projection" and not mc.is_projection(mc.as_complex_matrix(matrix)):
            raise ValueError("matrix is not a Hermitian idempotent")
        if role == "unitary":
            require_unitary(matrix)
    except ValueError as exc:
        raise OperatorFileError(f"operator fails its declared role {role!r}: {exc}")
    return matrix


def _jsonable(x):
    if isinstance(x, float):  # also the divergences' results and np.float64
        return "inf" if x == math.inf else float(x)
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def render_report(command: str, parameters: dict, results: dict,
                  witnesses: Optional[list] = None,
                  wall_time_s: float = 0.0) -> str:
    """Render a run report with a fixed field order; wall time goes last."""
    doc = {
        "command": command,
        "parameters": _jsonable(parameters),
        "results": _jsonable(results),
        "deviations": {},
        "witnesses": _jsonable(witnesses or []),
        "wall_time_s": round(float(wall_time_s), 6),
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"
