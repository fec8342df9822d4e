"""Output checks for one `catgate` invocation.

A check covers the exit status, the header, the row count, finiteness of
every value, F in [0, 1] and P >= 0, the Simpson mass of every printed
Wigner map, and agreement with the reference values stored in
reference.json. The reference keeps every row of a small table; for a large
one it keeps evenly spaced sample rows and a weighted checksum per column,
so a changed value anywhere in the table still shows.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np

# Agreement with a stored value: |v - ref| <= VALUE_TOL * (1 + |ref|).
VALUE_TOL = 1e-8
# Agreement of a weighted column checksum, relative to its weighted L1 norm.
CHECKSUM_TOL = 1e-9
# Allowed distance of a printed Wigner map's Simpson mass from 1.
MASS_TOL = 1e-6
# Tables up to this many rows are stored whole; larger ones are sampled.
FULL_ROWS = 256
SAMPLE_ROWS = 64
LABEL_COLUMNS = ("branch",)


@dataclass
class Table:
    columns: list[str]
    numeric: dict[str, np.ndarray]
    labels: dict[str, list[str]]
    rows: int

    def row(self, i: int) -> list:
        return [
            self.labels[c][i] if c in self.labels else float(self.numeric[c][i])
            for c in self.columns
        ]


def output_format(argv) -> str:
    argv = list(argv)
    if "--format" in argv:
        return argv[argv.index("--format") + 1]
    return "csv"


def parse(text: bytes, fmt: str) -> Table:
    """Parse a catgate table; raises ValueError when it is malformed."""
    try:
        decoded = text.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"output is not UTF-8: {exc}") from None
    if not decoded.endswith("\n") or decoded.endswith("\n\n"):
        raise ValueError("output must end with exactly one newline")
    if fmt == "json":
        try:
            doc = json.loads(decoded)
        except json.JSONDecodeError as exc:
            raise ValueError(f"unparseable JSON: {exc}") from None
        columns, cells = doc["columns"], doc["rows"]
        if any(len(r) != len(columns) for r in cells):
            raise ValueError(f"a row does not have {len(columns)} cells")
        values = {name: [r[j] for r in cells] for j, name in enumerate(columns)}
        rows = len(cells)
    else:
        header, _, body = decoded.partition("\n")
        columns = header.split(",")
        lines = body.splitlines()
        rows = len(lines)
        if any(line.count(",") != len(columns) - 1 for line in lines):
            raise ValueError(f"a row does not have {len(columns)} cells")
        values = {}
        for j, name in enumerate(columns):
            if name in LABEL_COLUMNS:
                values[name] = [line.split(",")[j] for line in lines]
        numeric_idx = [j for j, name in enumerate(columns) if name not in LABEL_COLUMNS]
        if rows and numeric_idx:
            matrix = np.loadtxt(io.StringIO(body), delimiter=",", usecols=numeric_idx, ndmin=2)
            for k, j in enumerate(numeric_idx):
                values[columns[j]] = matrix[:, k]
    numeric, labels = {}, {}
    for name in columns:
        col = values.get(name, [])
        if name in LABEL_COLUMNS:
            labels[name] = [str(v) for v in col]
        else:
            numeric[name] = np.asarray(col, dtype=float)
    return Table(list(columns), numeric, labels, rows)


def wigner_mass(table: Table, column: str) -> float:
    """Simpson (odd counts) or trapezoid double integral of a printed map.

    The rows must be the full x-major product of two uniform axes.
    """
    x, p, w = table.numeric["x"], table.numeric["p"], table.numeric[column]
    changes = np.flatnonzero(x != x[0])
    n_p = int(changes[0]) if changes.size else x.size
    n_x = x.size // n_p
    if n_x < 2 or n_p < 2 or n_x * n_p != x.size:
        raise ValueError("rows are not a full x-major grid")
    xg, pg = x.reshape(n_x, n_p), p.reshape(n_x, n_p)
    if np.any(xg != xg[:, :1]) or np.any(pg != pg[:1, :]):
        raise ValueError("rows are not a full x-major grid")
    return float(_weights(xg[:, 0]) @ w.reshape(n_x, n_p) @ _weights(pg[0]))


def _weights(axis: np.ndarray) -> np.ndarray:
    h = (axis[-1] - axis[0]) / (axis.size - 1)
    if not np.allclose(np.diff(axis), h, rtol=1e-9, atol=0.0):
        raise ValueError("axis is not uniform")
    w = np.full(axis.size, h)
    if axis.size % 2:
        w[1::2], w[2::2] = 4.0 * h / 3.0, 2.0 * h / 3.0
        w[0] = w[-1] = h / 3.0
    else:
        w[0] = w[-1] = h / 2.0
    return w


def checksum_weights(rows: int) -> np.ndarray:
    return 1.0 + np.modf(np.arange(rows) * 0.6180339887498949)[0]


def sample_indices(rows: int) -> list[int]:
    if rows <= FULL_ROWS:
        return list(range(rows))
    return sorted({int(i) for i in np.linspace(0, rows - 1, SAMPLE_ROWS).round()})


def make_reference(table: Table) -> dict:
    """Reference entry for a table whose values are trusted."""
    ref = {
        "columns": table.columns,
        "rows": table.rows,
        "sample": {str(i): table.row(i) for i in sample_indices(table.rows)},
    }
    if table.rows > FULL_ROWS:
        w = checksum_weights(table.rows)
        ref["checksum"] = {c: [float(w @ v), float(w @ np.abs(v))] for c, v in table.numeric.items()}
    return ref


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= VALUE_TOL * (1.0 + abs(ref))


def _compare(table: Table, ref: dict) -> list[str]:
    if table.columns != ref["columns"]:
        return [f"header {table.columns} != {ref['columns']}"]
    if "rows" not in ref:
        return []
    if table.rows != ref["rows"]:
        return [f"{table.rows} rows, reference has {ref['rows']}"]
    problems = []
    for key, expected in ref["sample"].items():
        got = table.row(int(key))
        for name, v, r in zip(table.columns, got, expected):
            if (v != r) if isinstance(r, str) else not _close(v, r):
                problems.append(f"row {key} {name}: {v!r} != reference {r!r}")
    w = checksum_weights(table.rows) if "checksum" in ref else None
    for name, (total, l1) in ref.get("checksum", {}).items():
        got = float(w @ table.numeric[name])
        if abs(got - total) > CHECKSUM_TOL * l1:
            problems.append(f"column {name} checksum {got!r} != reference {total!r}")
    return problems


def check_table(table: Table, command: str) -> list[str]:
    """Invariants every correct table of `command` satisfies."""
    problems = []
    for name, values in table.numeric.items():
        if not np.all(np.isfinite(values)):
            problems.append(f"column {name} has non-finite values")
            continue
        if name.startswith("F_") and (values.min() < 0.0 or values.max() > 1.0):
            problems.append(f"column {name} leaves [0, 1]")
        if name == "P" and values.min() < 0.0:
            problems.append("column P is negative")
    if problems or table.rows == 0:
        return problems or ["empty table"]
    if command == "wigner":
        if table.columns[:2] != ["x", "p"] or len(table.columns) < 3:
            return [f"unexpected Wigner header {table.columns}"]
        for name in table.columns[2:]:
            try:
                mass = wigner_mass(table, name)
            except ValueError as exc:
                return [str(exc)]
            if not math.isclose(mass, 1.0, rel_tol=0.0, abs_tol=MASS_TOL):
                problems.append(f"column {name} Simpson mass {mass!r} is not within {MASS_TOL} of 1")
    return problems


def check(argv, exits, exit_code: int, stdout: bytes, ref: dict | None) -> list[str]:
    """Problems found in one invocation's outcome; empty when it passes."""
    if exit_code not in exits:
        return [f"exit status {exit_code}, expected one of {list(exits)}"]
    if exit_code != 0:
        return ["output written on a failing exit"] if stdout else []
    try:
        table = parse(stdout, output_format(argv))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed output: {exc}"]
    problems = check_table(table, argv[0])
    if ref is not None:
        problems += _compare(table, ref)
    return problems
