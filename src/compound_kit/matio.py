"""Matrix file I/O.

Two formats, chosen by file suffix: ``.json`` holds an object with integer
``rows``/``cols`` and a row-major ``data`` array; anything else is read as
CSV with one matrix row per line.  Writes carry 17 significant digits so a
read-back is bit-identical.  Read errors point at the offending line and
column.  A file that cannot be read or written, or is not UTF-8 text, raises
:class:`MatrixIOError`.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import MatrixIOError

__all__ = [
    "parse_matrix",
    "render_matrix",
    "write_matrix",
]


def parse_matrix(path) -> np.ndarray:
    """Read a matrix from a CSV or JSON file (vectors are 1 x m or n x 1)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise MatrixIOError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise MatrixIOError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    if path.suffix.lower() == ".json":
        return _parse_json(path, text)
    return _parse_csv(path, text)


def _parse_json(path: Path, text: str) -> np.ndarray:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixIOError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise MatrixIOError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(obj, dict):
        raise MatrixIOError(f"{path}: top level must be an object")
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise MatrixIOError(f"{path}: missing key {key!r}")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if not (type(rows) is int and type(cols) is int) or rows < 1 or cols < 1:  # bool is no count
        raise MatrixIOError(f"{path}: rows and cols must be positive integers")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise MatrixIOError(
            f"{path}: data must be a flat list of length rows * cols = {rows * cols}"
        )
    try:
        values = np.array([float(v) for v in data], dtype=float)
    except (TypeError, ValueError) as exc:
        raise MatrixIOError(f"{path}: non-numeric entry in data: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise MatrixIOError(f"{path}: data contains non-finite entries")
    return values.reshape(rows, cols)


def _parse_csv(path: Path, text: str) -> np.ndarray:
    rows: list[list[float]] = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        tokens = line.split(",")
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise MatrixIOError(
                f"{path}:{lineno}: row has {len(tokens)} entries, expected {width}"
            )
        parsed = []
        for colno, token in enumerate(tokens, start=1):
            try:
                value = float(token)
            except ValueError:
                raise MatrixIOError(
                    f"{path}:{lineno}:{colno}: not a number: {token.strip()!r}"
                ) from None
            if not np.isfinite(value):
                raise MatrixIOError(f"{path}:{lineno}:{colno}: non-finite entry")
            parsed.append(value)
        rows.append(parsed)
    if not rows:
        raise MatrixIOError(f"{path}: no rows found")
    return np.array(rows, dtype=float)


def write_matrix(path, X, fmt: str | None = None) -> None:
    """Write a matrix as CSV or JSON, by explicit ``fmt`` or file suffix.

    Numbers are rendered with 17 significant digits, enough for the read
    side to reproduce every float64 bit for bit.
    """
    path = Path(path)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if fmt is None:
        fmt = "json" if path.suffix.lower() == ".json" else "csv"
    if fmt not in ("csv", "json"):
        raise MatrixIOError(f"unknown format {fmt!r}")
    _write_text(path, render_matrix(X, fmt))


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path``; every file the package writes goes through here."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise MatrixIOError(f"{path}: {exc.strerror or exc}") from exc


def render_matrix(X, fmt: str = "csv") -> str:
    """The exact text :func:`write_matrix` would write."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if fmt == "json":
        # json renders floats with repr, which is shortest-round-trip exact
        payload = {
            "rows": X.shape[0],
            "cols": X.shape[1],
            "data": [float(v) for v in X.ravel()],
        }
        return json.dumps(payload) + "\n"
    return "\n".join(",".join(f"{v:.17g}" for v in row) for row in X) + "\n"
