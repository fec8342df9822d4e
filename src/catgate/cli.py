"""Command-line front end emitting scan data as deterministic CSV or JSON.

Every command writes one table: a header of glossary symbols and one
record per scan point, all floats serialized with 17 significant digits.
Rows are formatted and written in blocks, so the whole document is never
held in memory. Identical invocations produce byte-identical files; timing
metadata is opt-in for that reason. Exit status is 0 on success, 2 for an
invalid configuration, 3 when the numerics refuse the requested point.
Each command imports the modules it computes with when it runs, and json
is imported only for JSON output, so that `import catgate.cli` loads no
more of the package than catgate.errors and catgate.numerics.

A table number's text is that of C's %.17g byte for byte, made for a whole
block of values at once by NumPy: each double's 17 digits are the integer
nearest |v| 10^(16-x), x its decimal exponent, computed exactly enough in
double-double arithmetic to decide the rounding, then laid out by %g's
rules. The few values whose rounding this cannot decide (within 1e-9 of a
tie, or near a power of ten), and 0, -0, inf and nan, are formatted by
b"%.17g" % v itself.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import functools
import gc
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import CatGateError
from .numerics import Grid1D

__all__ = ["RunConfig", "run", "main"]


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved invocation: command, its parameters, destination."""

    command: str
    parameters: dict = field(repr=False)
    output_path: str | None
    format: str
    timings: bool = False


def _int_list(text: str) -> list[int]:
    """Parse '1,5,15' or '1:25' (inclusive range) or a mix of both."""
    out: list[int] = []
    try:
        for token in text.split(","):
            if ":" in token:
                lo, hi = token.split(":")
                out.extend(range(int(lo), int(hi) + 1))
            else:
                out.append(int(token))
    except ValueError:
        raise argparse.ArgumentTypeError("expects integers like 1,5,15 or 1:25")
    if not out or any(v < 0 for v in out):
        raise argparse.ArgumentTypeError("expects nonnegative integers")
    return out


def _float_list(text: str) -> list[float]:
    try:
        return [float(token) for token in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("expects numbers like 0,1.5,2")


def _axis_spec(text: str) -> Grid1D:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expects min:max:count")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError("expects min:max:count")
    try:
        return Grid1D(lo, hi, count)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _product(outer, inner) -> tuple[np.ndarray, np.ndarray]:
    """Columns of every (outer, inner) pair, inner varying fastest."""
    outer, inner = np.asarray(outer), np.asarray(inner)
    return np.repeat(outer, inner.size), np.tile(inner, outer.size)


def _run_fidelity_scan(p: dict):
    from .metrics import fidelity_scl_scan

    x0, n = _product(p["x0"], p["n"])
    f = [fidelity_scl_scan(k, p["y_m"], x, p["p0"]) for x, k in zip(x0.tolist(), n.tolist())]
    data = [n, np.full(n.size, p["y_m"]), x0, np.full(n.size, p["p0"]), np.array(f)]
    return ["n", "y_m", "x0", "p0", "F_scl"], data, {}


def _run_cat_fidelity(p: dict):
    from .metrics import fidelity_cat_scan

    x0, n = _product(p["x0"], p["n"])
    y_m = x0 if p["ym_equals_x0"] else np.full(n.size, p["y_m"])
    f = [
        fidelity_cat_scan(k, y, x, p["p0"])
        for k, y, x in zip(n.tolist(), y_m.tolist(), x0.tolist())
    ]
    data = [n, y_m, x0, np.full(n.size, p["p0"]), np.array(f)]
    return ["n", "y_m", "x0", "p0", "F_cat"], data, {}


def _run_wigner(p: dict):
    from .gate import GateParams, perfect_cat
    from .states import CoherentParams
    from .wigner import default_axes, wigner_cat_reference, wigner_mehler, wigner_output_quadrature

    params = GateParams(p["n"], p["y_m"])
    inp = CoherentParams(p["x0"], p["p0"])
    x_default, p_default = default_axes(params, inp)
    x_axis = p["x_axis"] or x_default
    p_axis = p["p_axis"] or p_default

    columns = ["x", "p"]
    grids = []
    metadata: dict = {"engine": p["engine"]}
    if p["engine"] in ("mehler", "both"):
        columns.append("W_mehler" if p["engine"] == "both" else "W")
        grids.append(wigner_mehler(params, inp, x_axis, p_axis))
    if p["engine"] in ("quadrature", "both"):
        columns.append("W_quadrature" if p["engine"] == "both" else "W")
        grids.append(wigner_output_quadrature(params, inp, x_axis, p_axis))
    if p["engine"] == "both":
        diff = float(np.max(np.abs(grids[0].values - grids[1].values)))
        metadata["max_abs_difference"] = diff
    if p["with_cat"]:
        columns.append("W_cat")
        grids.append(wigner_cat_reference(perfect_cat(params, inp), x_axis, p_axis))

    data = [*_product(x_axis.xs, p_axis.xs), *(g.values.ravel() for g in grids)]
    return columns, data, metadata


def _run_prob_density(p: dict):
    from .metrics import outcome_density

    if p["y_m"] is not None:
        ys = np.array([p["y_m"]], dtype=float)
    else:
        ys = (p["y_axis"] or Grid1D(p["x0"] - 5.0, p["x0"] + 5.0, 201)).xs
    n, y_m = _product(p["n"], ys)
    dens = np.concatenate([outcome_density(k, p["x0"], ys) for k in p["n"]])
    return ["n", "y_m", "x0", "P"], [n, y_m, np.full(n.size, p["x0"]), dens], {}


def _run_mixed_fidelity(p: dict):
    from .metrics import mixed_fidelity, window_probability

    n, d = _product(p["n"], p["d"])
    points = list(zip(n.tolist(), d.tolist()))
    f_mix = [mixed_fidelity(k, p["x0"], w) for k, w in points]
    prob = [window_probability(k, p["x0"], w) for k, w in points]
    data = [n, np.full(n.size, p["x0"]), d, np.array(f_mix), np.array(prob)]
    return ["n", "x0", "d", "F_mix", "P"], data, {}


def _run_scl_map(p: dict):
    from .gate import GateParams
    from .phase_map import map_disk

    params = GateParams(p["n"], p["y_m"])
    disk = map_disk(params, (p["x0"], p["p0"]), p["radius"], p["samples"])
    parts = (disk.source, disk.upper, disk.lower)
    # the label column already factored: its labels and each row's index into them
    branch = (["source", "upper", "lower"], np.repeat(np.arange(3), [q.size for q, _ in parts]))
    q = np.concatenate([q for q, _ in parts])
    mom = np.concatenate([mom for _, mom in parts])
    metadata = {
        "dropped": disk.dropped,
        "upper_count": disk.upper[0].size,
        "lower_count": disk.lower[0].size,
    }
    return ["branch", "q", "p"], [branch, q, mom], metadata


_HANDLERS = {
    "fidelity-scan": _run_fidelity_scan,
    "cat-fidelity": _run_cat_fidelity,
    "wigner": _run_wigner,
    "prob-density": _run_prob_density,
    "mixed-fidelity": _run_mixed_fidelity,
    "scl-map": _run_scl_map,
}


# Rows per written block, and per slice of distinct values formatted at once.
_BLOCK_ROWS = 1 << 14
# Bytes of the widest %.17g of a double, e.g. -2.2250738585072014e-308.
_NUMBER_WIDTH = 24
# Columns of the per-value source row that a cell is gathered from: the 17
# digits, then these characters, the exponent's sign and 3 digits, and a NUL.
_MINUS, _POINT, _ZERO, _E, _NUL = 17, 18, 19, 20, 25
# Cell layouts per sign and count of significant digits: %f for a decimal
# exponent X = -4..16, then %e with a 2-digit and with a 3-digit exponent.
_FORMS = 23


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 4 ASCII digits and the trailing zeros of every g < 10^4, and the
    sign and 3 digits of every decimal exponent X >= -324 (row X + 324).
    Each 4-byte text is one uint32, so that a lookup moves one item."""
    digits = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for i in range(4):
        digits[..., i] = np.arange(48, 58).reshape((10,) + (1,) * (3 - i))
    digits = digits.reshape(10000, 4)
    zero = (digits == 48).view(np.uint8)
    trailing = zero[:, 3] * (1 + zero[:, 2] * (1 + zero[:, 1] * (1 + zero[:, 0])))
    x = np.arange(-324, 309)
    exponent = digits[abs(x)]
    exponent[:, 0] = np.where(x < 0, ord("-"), ord("+"))
    return digits.view(np.uint32).ravel(), trailing, exponent.view(np.uint32).ravel()


@functools.cache
def _layout(code: int) -> list[int]:
    """The source column of each byte of one cell layout, code =
    (negative * 17 + significant - 1) * _FORMS + form."""
    negative, rest = divmod(code, 17 * _FORMS)
    significant, form = rest // _FORMS + 1, rest % _FORMS
    x = form - 4
    if form < 21 and x < 0:
        text = [_ZERO, _POINT] + [_ZERO] * (-x - 1) + list(range(significant))
    else:
        before = x + 1 if form < 21 else 1  # digits ahead of the point
        text = list(range(before))
        if significant > before:
            text += [_POINT, *range(before, significant)]
        if form >= 21:
            # "e", the exponent's sign, then its last 2 or all 3 digits
            text += [_E, _E + 1] + ([_E + 2] if form == 22 else []) + [_E + 3, _E + 4]
    text = [_MINUS] * negative + text
    return text + [_NUL] * (_NUMBER_WIDTH - len(text))


@functools.cache
def _power_of_ten(s: int) -> tuple[float, float, int]:
    """10^s as (hi + lo) 2^b with hi in [0.5, 2), to a relative 2^-103."""
    num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
    b = num.bit_length() - den.bit_length()
    # 10^s 2^(106-b), an integer of 106 or 107 bits, split at bit 54
    scaled = (num << 106 - b) // den if b <= 106 else num >> b - 106
    return math.ldexp(scaled >> 54, -52), math.ldexp(scaled & (1 << 54) - 1, -106), b


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of doubles into two halves of at most 26 bits each."""
    c = 134217729.0 * a
    high = c - (c - a)
    return high, a - high


def _decimal_digits(magnitude: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For positive finite doubles a with decimal exponent x: the 17-digit
    integer nearest D = a 10^(16-x), x, and where that rounding is decided.

    D is the 53-bit mantissa times 10^(16-x), formed in double-double
    arithmetic: the mantissa times the head of 10^(16-x) is exact (Dekker's
    two-product), and the tail of 10^(16-x) leaves D off by under 1e-13.
    That decides the rounding unless D is within 1e-9 of a tie (an exact
    tie rounds half-even in the C conversion), or within 1e-6 relative of
    10^16 or 10^17, where x from log10 may be one off or the rounding may
    carry into an 18th digit.
    """
    fraction, e = np.frexp(magnitude)
    mantissa = np.ldexp(fraction, 53)
    x = np.floor(np.log10(magnitude)).astype(np.int64)
    row = x + 324
    present = np.flatnonzero(np.bincount(row))
    powers = np.zeros((3, present[-1] + 1))
    powers[:, present] = np.transpose([_power_of_ten(340 - p) for p in present.tolist()])
    hi, lo, b = powers[:, row]
    h1, h2 = _split(hi)
    m1, m2 = _split(mantissa)
    product = mantissa * hi
    error = ((m1 * h1 - product) + m1 * h2 + m2 * h1) + m2 * h2 + mantissa * lo
    # D = near + far: near is a whole number, being at least 2^53, and |far| < 200
    scale = e - 53 + b.astype(np.int64)
    near, far = np.ldexp(product, scale), np.ldexp(error, scale)
    whole = np.floor(far)
    rest = far - whole
    integer = near.astype(np.int64) + whole.astype(np.int64) + (rest > 0.5)
    decided = (np.abs(rest - 0.5) >= 1e-9) & (near >= 1e16 + 1e10) & (near <= 1e17 - 1e11)
    return integer, x, decided


def _g17_cells(values: np.ndarray) -> np.ndarray:
    """b"%.17g" % v of every v, as fixed-width cells padded with NULs.

    The digits come from _decimal_digits and are laid out by %g's rules:
    %f for a decimal exponent -4 <= x < 17 and %e otherwise, trailing zeros
    stripped, an exponent of at least 2 digits. Each cell is gathered from
    a row of its value's digits and characters by the byte map of its
    layout. Values whose digits are undecided, and 0, -0, inf and nan, go
    through b"%.17g" % v itself, so the text is that of %.17g byte for byte.
    """
    digits, trailing, exponent = _digit_tables()
    v = values.astype(float)
    magnitude = np.abs(v)
    special = ~np.isfinite(magnitude) | (magnitude == 0)
    magnitude[special] = 1.0
    integer, x, decided = _decimal_digits(magnitude)

    groups = np.empty((v.size, 4), dtype=np.int64)
    for i in (3, 2, 1, 0):
        integer, groups[:, i] = np.divmod(integer, 10000)
    source = np.empty((v.size, _NUL + 1), dtype=np.uint8)
    source[:, 0] = integer + 48
    source[:, 1:17] = digits[groups].view(np.uint8).reshape(v.size, 16)
    source[:, _MINUS : _E + 1] = np.frombuffer(b"-.0e", dtype=np.uint8)
    source[:, _E + 1 : _NUL] = exponent[x + 324].view(np.uint8).reshape(v.size, 4)
    source[:, _NUL] = 0
    # trailing zeros of the 16 digits after the first, group by group
    zeros = trailing[groups[:, 3]]
    for i in (2, 1, 0):
        zeros += (zeros == 4 * (3 - i)) * trailing[groups[:, i]]
    form = np.where((x >= -4) & (x < 17), x + 4, np.where(abs(x) < 100, 21, 22))
    code = ((v < 0) * 17 + 16 - zeros) * _FORMS + form
    present = np.flatnonzero(np.bincount(code))
    layouts = np.zeros((present[-1] + 1, _NUMBER_WIDTH), dtype=np.intp)
    layouts[present] = [_layout(c) for c in present.tolist()]
    index = layouts[code]
    index += np.arange(0, source.size, source.shape[1])[:, None]
    cells = np.take(source.ravel(), index).view(f"S{_NUMBER_WIDTH}").ravel()
    fallback = np.flatnonzero(special | ~decided)
    cells[fallback] = [b"%.17g" % f for f in v[fallback].tolist()]
    return cells


def _distinct_cells(column, quote) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct value of `column` as text in a fixed-width byte array,
    and the index of every row into that array.

    A number column is an array. Its numbers are told apart by their bit
    pattern, so -0.0 and 0.0 keep their own text, and each is formatted
    once, _BLOCK_ROWS at a time, by _g17_cells: %.17g's text byte for byte,
    from digits computed exactly enough to decide their rounding, with
    b"%.17g" % v for the values where they cannot (see _decimal_digits).
    A label column comes already factored, as its labels and each row's
    index into them; each label passes through `quote` once.
    """
    if isinstance(column, tuple):
        labels, index = column
        return np.array([quote(s).encode() for s in labels], dtype=bytes), index
    keys, index = np.unique(column.view(f"i{column.itemsize}"), return_inverse=True)
    values = keys.view(column.dtype)
    cells = np.empty(values.size, dtype=f"S{_NUMBER_WIDTH}")
    for start in range(0, values.size, _BLOCK_ROWS):
        cells[start : start + _BLOCK_ROWS] = _g17_cells(values[start : start + _BLOCK_ROWS])
    return cells, index


def _row_blocks(data: list, quote, lead: bytes, end: bytes):
    """The rows as text, _BLOCK_ROWS at a time: each row is `lead`, its
    cells joined by commas, then `end`.

    A block is a uint8 matrix with one fixed-width slot per cell; dropping
    the NUL padding of the slots leaves the row text.
    """
    cells = [_distinct_cells(c, quote) for c in data]
    template = bytearray(lead)
    slots = []
    for i, (text, _) in enumerate(cells):
        if i:
            template += b","
        slots.append(slice(len(template), len(template) + text.itemsize))
        template += bytes(text.itemsize)
    template += end
    row = np.frombuffer(bytes(template), dtype=np.uint8)
    rows = cells[0][1].size
    for start in range(0, rows, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, rows)
        block = np.tile(row, (stop - start, 1))
        for (text, index), slot in zip(cells, slots):
            block[:, slot] = text[index[start:stop]].view(np.uint8).reshape(stop - start, -1)
        yield block[block != 0].tobytes().decode()


def _render_csv(columns: list[str], data: list):
    yield ",".join(columns) + "\n"
    yield from _row_blocks(data, str, b"", b"\n")


def _json_text(value) -> str:
    """Serialize with %.17g floats; json.dumps would shorten them."""
    import json

    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, Grid1D):
        return _json_text({"min": value.x_min, "max": value.x_max, "count": value.count})
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_json_text(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(json.dumps(str(k)) + ":" + _json_text(v) for k, v in value.items()) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _render_json(config: RunConfig, columns, data, metadata):
    """JSON document; rows are formatted like CSV, labels quoted by json.dumps.

    With timings on, render_seconds is the time from the head's yield to the
    trailer's: formatting the rows and writing them."""
    import json

    echo = {
        "command": config.command,
        "parameters": config.parameters,
        "format": config.format,
        "out": config.output_path,
    }
    yield '{"config":' + _json_text(echo) + ',"columns":' + _json_text(columns) + ',"rows":['
    started = time.perf_counter()
    # every row is led by a comma, which the first one drops
    blocks = _row_blocks(data, json.dumps, b",[", b"]")
    yield next(blocks, ",")[1:]
    yield from blocks
    if config.timings:
        metadata["timings"]["render_seconds"] = time.perf_counter() - started
    yield '],"metadata":' + _json_text(metadata) + "}\n"


def run(config: RunConfig) -> int:
    """Execute one resolved invocation; returns the process exit status."""
    if config.timings and config.format != "json":
        print("invalid configuration: --timings needs --format json", file=sys.stderr)
        return 2
    try:
        started = time.perf_counter()
        columns, data, metadata = _HANDLERS[config.command](config.parameters)
        elapsed = time.perf_counter() - started
        if config.timings:
            metadata["timings"] = {"compute_seconds": elapsed}
    except CatGateError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    if config.format == "csv":
        chunks = _render_csv(columns, data)
    else:
        chunks = _render_json(config, columns, data, metadata)
    if config.output_path is None:
        destination = contextlib.nullcontext(sys.stdout)
    else:
        destination = open(config.output_path, "w", encoding="utf-8", newline="\n")
    with destination as stream:
        for chunk in chunks:
            stream.write(chunk)
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    sub.add_argument("--out", default=None, metavar="PATH", help="output file (default stdout)")
    sub.add_argument(
        "--timings",
        action="store_true",
        help="include wall-clock timings in the JSON metadata; needs --format json "
        "(breaks byte-identical reruns)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The one declaration of every parameter: each flag's dest is its key in
    RunConfig.parameters, and flags are added in the order the JSON echoes
    them. Ranges are left to the library, whose ValueError exits 2."""
    parser = argparse.ArgumentParser(
        prog="catgate",
        description="Measured-gate cat-state simulations: fidelity scans, "
        "outcome statistics, Wigner maps, phase-space mapping.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fs = sub.add_parser("fidelity-scan", help="exact-vs-semiclassical fidelity over n and x0")
    fs.add_argument("--n", type=_int_list, required=True,
                    help="photon numbers, e.g. 1,5,15 or 1:25")
    fs.add_argument("--x0", type=_float_list, default=[0.0],
                    help="input displacements (comma list)")
    fs.add_argument("--ym", dest="y_m", type=float, default=0.0, help="homodyne outcome")
    fs.add_argument("--p0", type=float, default=0.0, help="input momentum")
    _add_common(fs)

    cf = sub.add_parser("cat-fidelity", help="exact-output vs ideal-cat fidelity")
    cf.add_argument("--n", type=_int_list, required=True,
                    help="photon numbers, e.g. 1,5,15 or 1:25")
    cf.add_argument("--x0", type=_float_list, default=[0.0],
                    help="input displacements (comma list)")
    cf_outcome = cf.add_mutually_exclusive_group()
    cf_outcome.add_argument("--ym", dest="y_m", type=float, default=0.0,
                            help="homodyne outcome (default 0)")
    cf.add_argument("--p0", type=float, default=0.0, help="input momentum")
    cf_outcome.add_argument("--ym-equals-x0", action="store_true",
                            help="take the outcome equal to each x0 (the centered case)")
    _add_common(cf)

    wg = sub.add_parser("wigner", help="output-state Wigner map on a grid")
    wg.add_argument("--n", type=int, required=True, help="resource photon number")
    wg.add_argument("--x0", type=float, default=0.0, help="input displacement")
    wg.add_argument("--p0", type=float, default=0.0, help="input momentum")
    wg.add_argument("--ym", dest="y_m", type=float, default=0.0, help="homodyne outcome")
    wg.add_argument("--engine", choices=("mehler", "quadrature", "both"), default="mehler",
                    help="closed-form engine, integration oracle, or both side by side")
    wg.add_argument("--with-cat", action="store_true",
                    help="append the ideal-cat reference Wigner column")
    wg.add_argument("--x-range", dest="x_axis", type=_axis_spec,
                    default=None, metavar="MIN:MAX:COUNT",
                    help="x axis (default spans the output support)")
    wg.add_argument("--p-range", dest="p_axis", type=_axis_spec,
                    default=None, metavar="MIN:MAX:COUNT",
                    help="p axis (default spans the output support)")
    _add_common(wg)

    pd = sub.add_parser("prob-density", help="homodyne outcome density")
    pd.add_argument("--n", type=_int_list, required=True,
                    help="photon numbers, e.g. 0,1,5")
    pd.add_argument("--x0", type=float, default=0.0, help="input displacement")
    pd_outcome = pd.add_mutually_exclusive_group()
    pd_outcome.add_argument("--ym", dest="y_m", type=float, default=None,
                            help="single outcome (omit to scan --x-range)")
    pd_outcome.add_argument("--x-range", dest="y_axis",
                            type=_axis_spec, default=None,
                            metavar="MIN:MAX:COUNT",
                            help="outcome scan axis (default x0-5:x0+5:201)")
    _add_common(pd)

    mf = sub.add_parser("mixed-fidelity", help="window-averaged cat fidelity vs window width")
    mf.add_argument("--n", type=_int_list, required=True,
                    help="photon numbers, e.g. 1,5,15")
    mf.add_argument("--x0", type=float, default=0.0, help="input displacement and window center")
    mf.add_argument("--d", type=_float_list, required=True,
                    help="acceptance-window widths, e.g. 0.1,0.5,1,2")
    _add_common(mf)

    sm = sub.add_parser("scl-map", help="semiclassical image of an uncertainty disk")
    sm.add_argument("--n", type=int, required=True, help="resource photon number")
    sm.add_argument("--ym", dest="y_m", type=float, default=0.0, help="homodyne outcome")
    sm.add_argument("--x0", type=float, default=0.0, help="disk center q")
    sm.add_argument("--p0", type=float, default=0.0, help="disk center p")
    sm.add_argument("--radius", type=float, default=1.0, help="disk radius")
    sm.add_argument("--samples", type=int, default=256, help="total lattice size (>= 8)")
    _add_common(sm)

    return parser


@functools.cache
def _freeze_at_exit() -> None:
    # once: atexit.unregister would leave an empty slot behind on each call
    atexit.register(gc.freeze)


def main(argv: list[str] | None = None) -> int:
    """Run the invocation `argv` (default sys.argv[1:]); returns its exit status.

    It also has gc.freeze run at interpreter exit, registered once however
    often main is called. Interpreter shutdown then skips the full
    collections over the objects that NumPy and catgate made, which would
    cost a short process about 20 ms; the one effect is that cyclic garbage
    still alive at exit is not finalized. Nothing changes while the
    interpreter runs, so a caller that stays in process sees no difference.
    """
    _freeze_at_exit()
    parameters = vars(build_parser().parse_args(argv))
    return run(
        RunConfig(
            command=parameters.pop("command"),
            output_path=parameters.pop("out"),
            format=parameters.pop("format"),
            timings=parameters.pop("timings"),
            parameters=parameters,
        )
    )


if __name__ == "__main__":
    sys.exit(main())
