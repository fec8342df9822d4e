"""Command-line front end emitting scan data as deterministic CSV or JSON.

Every command writes one table: a header of glossary symbols and one
record per scan point, all floats serialized with 17 significant digits,
in blocks of rows, one block held at a time. Each handler returns the
column names, each column's distinct values (None for a plain column),
and its blocks, which it makes one at a time as the renderer asks: for
each run of at most _BLOCK_ROWS rows, one array per column, a plain
column's numbers or a factored column's indices into its values, whose
values are formatted once per table. A scan makes its indices a block at
a time, scl-map its samples' and then each branch's rows, and a Wigner
map its blocks a tile of x rows at a time, each block inside one tile, so
only `wigner --engine both`'s oracle map is as long as the table. The
same argv with the same NumPy build and BLAS thread count produces
byte-identical files; timing metadata is opt-in for that reason.
Exit status is 0 on success, 1 when the reader of
stdout closes the pipe early, 2 for an invalid configuration or an --out
file that cannot be opened, 3 when the numerics refuse the requested
point, also for a map tile made as the rows are written, after the rows
before it. Each command imports the modules it computes with when it
runs, and json only for JSON output, so that `import catgate.cli` loads
no more of the package than catgate.errors and catgate.numerics.

A table number's text is that of C's %.17g byte for byte, made for a whole
block of values at once by NumPy: each double's 17 digits are the integer
nearest |v| 10^(16-x), x its decimal exponent, computed exactly enough in
double-double arithmetic to decide the rounding, then laid out by %g's
rules in a cell of fixed width, with NULs in the places its layout leaves
empty, which the renderer drops. The few values whose rounding this cannot
decide (within 1e-9 of a tie, or near a power of ten), and 0, -0, inf and
nan, are formatted by b"%.17g" % v itself.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import functools
import gc
import math
import os
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


def _spans(count: int):
    """range(count) as slices of at most _BLOCK_ROWS rows."""
    return (slice(a, min(a + _BLOCK_ROWS, count)) for a in range(0, count, _BLOCK_ROWS))


def _product_blocks(count: int, inner: int):
    """The `count` rows of every (outer, inner) pair, inner varying fastest,
    a block at a time: the block's slice, then its outer and inner indices."""
    for rows in _spans(count):
        yield rows, *np.divmod(np.arange(rows.start, rows.stop), inner)


def _run_fidelity_scan(p: dict, column: str):
    """F_scl or F_cat over every (x0, n), n varying fastest; cat-fidelity
    alone has --ym-equals-x0, which takes each row's outcome equal to its x0."""
    from .metrics import fidelity_cat_scan, fidelity_scl_scan

    scan = fidelity_cat_scan if column == "F_cat" else fidelity_scl_scan
    same = p.get("ym_equals_x0")
    f = np.array([scan(k, x if same else p["y_m"], x, p["p0"]) for x in p["x0"] for k in p["n"]])
    x0, y_m = np.array(p["x0"]), np.array([p["y_m"]])
    values = [np.array(p["n"]), x0 if same else y_m, x0, np.array([p["p0"]]), None]
    blocks = ([k, x if same else 0, x, 0, f[rows]]
              for rows, x, k in _product_blocks(f.size, len(p["n"])))
    return ["n", "y_m", "x0", "p0", column], values, blocks, {}


def _run_wigner(p: dict):
    from .gate import GateParams, perfect_cat
    from .states import CoherentParams
    from .wigner import _cat_cells, _mehler_tiles, default_axes, wigner_output_quadrature

    params, inp = GateParams(p["n"], p["y_m"]), CoherentParams(p["x0"], p["p0"])
    x_axis, p_axis = p["x_axis"], p["p_axis"]
    if x_axis is None or p_axis is None:
        x_default, p_default = default_axes(params, inp)
        x_axis, p_axis = x_axis or x_default, p_axis or p_default

    metadata: dict = {"engine": p["engine"]}
    names, tiles = ["x", "p", "W"], _mehler_tiles(params, inp, x_axis, p_axis)
    oracle = cat = None
    if p["engine"] == "both":
        # the oracle first and whole, so that its kernel never meets a chunk
        oracle = wigner_output_quadrature(params, inp, x_axis, p_axis).values.ravel()
        metadata["max_abs_difference"] = 0.0
        names[2:] = ["W_mehler", "W_quadrature"]
    if p["with_cat"]:
        names.append("W_cat")
        cat = _cat_cells(perfect_cat(params, inp), x_axis.xs, p_axis.xs)
    # the first tile is made here, so that a refusal comes before the header
    blocks = _map_blocks(next(tiles), tiles, p_axis.count, oracle, cat, metadata)
    return names, [x_axis.xs, p_axis.xs] + [None] * (len(names) - 2), blocks, metadata


def _map_blocks(tile, tiles, count: int, oracle, cat, metadata: dict):
    """A Wigner map's blocks, each inside one tile: `tile`'s, then each of
    `tiles`' in turn, made once the one before it is let go."""
    start = 0
    while tile is not None:
        cells = tile.ravel()
        del tile
        for rows in _spans(cells.size):
            # made by a call, so that this frame holds none of it while it prints
            yield _map_block(cells[rows], start + rows.start, count, oracle, cat, metadata)
        start += cells.size
        del cells  # before the next tile is made
        tile = next(tiles, None)


def _map_block(w: np.ndarray, start: int, count: int, oracle, cat, metadata: dict) -> list:
    """The block of a map's rows from `start` on whose W is w, p varying
    fastest over `count` values: beside W, the rows of the oracle's flat map,
    checked against W into max_abs_difference, and cat(i, j), W_cat's cells,
    if given."""
    i, j = np.divmod(np.arange(start, start + w.size), count)
    block = [i, j, w]
    if oracle is not None:
        block.append(oracle[start : start + w.size])
        gap = float(np.abs(w - block[3]).max())
        metadata["max_abs_difference"] = max(metadata["max_abs_difference"], gap)
    if cat is not None:
        block.append(cat(i, j))
    return block


def _run_prob_density(p: dict):
    from .metrics import outcome_density

    if p["y_m"] is not None:
        ys = np.array([p["y_m"]], dtype=float)
    else:
        ys = (p["y_axis"] or Grid1D(p["x0"] - 5.0, p["x0"] + 5.0, 201)).xs
    dens = np.concatenate([outcome_density(k, p["x0"], ys) for k in p["n"]])
    blocks = ([k, y, 0, dens[rows]] for rows, k, y in _product_blocks(dens.size, ys.size))
    return ["n", "y_m", "x0", "P"], [np.array(p["n"]), ys, np.array([p["x0"]]), None], blocks, {}


def _run_mixed_fidelity(p: dict):
    from .metrics import mixed_fidelity, window_probability

    points = [(k, w) for k in p["n"] for w in p["d"]]
    # P first: it checks every width before any F_mix can fail on one
    prob = np.array([window_probability(k, p["x0"], w) for k, w in points])
    f_mix = np.array([mixed_fidelity(k, p["x0"], w) for k, w in points])
    values = [np.array(p["n"]), np.array([p["x0"]]), np.array(p["d"]), None, None]
    blocks = ([k, 0, d, f_mix[rows], prob[rows]]
              for rows, k, d in _product_blocks(len(points), len(p["d"])))
    return ["n", "x0", "d", "F_mix", "P"], values, blocks, {}


def _run_scl_map(p: dict):
    from .gate import GateParams
    from .phase_map import map_disk

    disk = map_disk(GateParams(p["n"], p["y_m"]), (p["x0"], p["p0"]), p["radius"], p["samples"])
    metadata = {"dropped": disk.dropped, "upper_count": disk.preimage[0].size,
                "lower_count": disk.preimage[1].size}
    labels = ["source", "upper", "lower"]
    return ["branch", "q", "p"], [labels, None, None], _disk_blocks(disk), metadata


def _disk_blocks(disk):
    """scl-map's rows: every sample, then upper's images, then lower's, each
    image with its preimage's q, the momenta computed a block at a time."""
    q, p = disk.source
    for rows in _spans(q.size):
        yield [0, q[rows], p[rows]]
    for branch, preimage in enumerate(disk.preimage):
        for rows in _spans(preimage.size):
            yield [branch + 1, q[preimage[rows]], disk.momenta(branch, rows)]


_HANDLERS = {
    "fidelity-scan": functools.partial(_run_fidelity_scan, column="F_scl"),
    "cat-fidelity": functools.partial(_run_fidelity_scan, column="F_cat"),
    "wigner": _run_wigner,
    "prob-density": _run_prob_density,
    "mixed-fidelity": _run_mixed_fidelity,
    "scl-map": _run_scl_map,
}


# Rows per written block, and most values formatted at once (one block of
# two plain columns peaks at 0.34 MB traced, 0.52 MB at 2^12 rows).
_BLOCK_ROWS = 1 << 11
# Bytes of a number's cell, which holds any %.17g of a double with NULs in
# the places its layout leaves empty: the sign, "0." and up to 3 zeros for
# %f below 1, the lead digit, the point (byte _POINT), 16 digits, then "e",
# the exponent's sign and 3 digits. Below 1, %f's lead digit takes the
# point's byte.
_NUMBER_WIDTH = 28
_POINT = 6


@functools.cache
def _cell_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The texts a cell is made of, built once.

    Row g of the first is the 4 digits of g < 10^4, and row 10^4 + g the
    same with its trailing zeros NUL. Column X + 324 of the second holds,
    for the decimal exponent X >= -324, three int64s read as bytes 0-7 of
    the cell: the bytes that do not depend on the digits, with "0" for the
    lead digit; the lead digit's place value; and the point's, which goes
    where the digits after the lead are not all 0. Row X + 324 of the third
    is the cell's last 5 bytes: NULs for %f, "e" and the exponent for %e.
    """
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, 10000) + 48
    trailing = digits == 48
    for i in (2, 1, 0):
        trailing[i] &= trailing[i + 1]
    groups = np.concatenate([digits, np.where(trailing, 0, digits)], axis=1).T.copy()
    x = np.arange(-324, 309)
    # %f below 1 has "0." and its zeros ahead of the lead digit, in the point's byte
    below = (-4 <= x) & (x < 0)
    lead = 8 * (_POINT - 1 + below)
    heads = np.array([48 << lead, 1 << lead, np.where(below, 0, 46 << 8 * _POINT)])
    for k in range(1, 5):  # X = -k
        heads[0, 324 - k] += int.from_bytes(b"0.000"[: k + 1], "little") << 8 * (_POINT - 1 - k)
    tails = [b"e%+03d" % e * (not -4 <= e < 17) for e in range(-324, 309)]
    return groups.view("S4").ravel(), heads, np.array(tails, dtype="S5")


@functools.cache
def _power_of_ten(s: int) -> tuple[float, float, int]:
    """10^s as (hi + lo) 2^b with hi in [0.5, 2), to a relative 2^-103."""
    num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
    b = num.bit_length() - den.bit_length()
    # 10^s 2^(106-b), an integer of 106 or 107 bits, split at bit 54
    scaled = (num << 106 - b) // den if b <= 106 else num >> b - 106
    return math.ldexp(scaled >> 54, -52), math.ldexp(scaled & (1 << 54) - 1, -106), b


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of doubles into two halves of at most 26 bits each;
    the low half is written over a."""
    high = 134217729.0 * a
    high -= high - a
    return high, np.subtract(a, high, out=a)


def _decimal_digits(magnitude: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For positive finite doubles a with decimal exponent x: the 17-digit
    integer nearest D = a 10^(16-x), x, and where that rounding is decided.

    D is the 53-bit mantissa times 10^(16-x), formed in double-double
    arithmetic: the mantissa times the head of 10^(16-x) is exact (Dekker's
    two-product), and the tail of 10^(16-x) leaves D off by under 1e-13.
    That decides the rounding unless D is within 1e-9 of a tie (an exact
    tie rounds half-even in the C conversion), or within 1e-6 relative of
    10^16 or 10^17, where x from log10 may be one off or the rounding may
    carry into an 18th digit. Each step writes over an array it has spent,
    magnitude's among them, so that a value costs about 64 bytes at most.
    """
    fraction, e = np.frexp(magnitude)
    mantissa = np.ldexp(fraction, 53, out=fraction)
    x = np.floor(np.log10(magnitude)).astype(np.int16)
    row = x + 324
    present = np.flatnonzero(np.bincount(row))
    powers = np.zeros((3, present[-1] + 1))
    powers[:, present] = np.transpose([_power_of_ten(340 - p) for p in present.tolist()])
    hi, lo = powers[0][row], powers[1][row]
    e += powers[2].astype(np.int32)[row] - 53
    lo *= mantissa
    product = np.multiply(mantissa, hi, out=magnitude)
    h1, h2 = _split(hi)
    m1, m2 = _split(mantissa)
    # ((m1 h1 - product) + m1 h2 + m2 h1) + m2 h2 + mantissa lo, each term
    # formed over one of its factors
    error = m1 * h1 - product
    for a, b in ((m1, h2), (h1, m2), (h2, m2)):
        error += np.multiply(a, b, out=a)
    error += lo
    del fraction, mantissa, hi, lo, h1, h2, m1, m2
    # D = near + far: near is a whole number, being at least 2^53, and |far| < 200
    near, far = np.ldexp(product, e, out=product), np.ldexp(error, e, out=error)
    whole = np.floor(far)
    rest = np.subtract(far, whole, out=far)
    integer = near.astype(np.int64) + whole.astype(np.int64) + (rest > 0.5)
    decided = (np.abs(rest - 0.5) >= 1e-9) & (near >= 1e16 + 1e10) & (near <= 1e17 - 1e11)
    return integer, x, decided


def _g17_cells(values: np.ndarray) -> np.ndarray:
    """b"%.17g" % v of every v, as cells of _NUMBER_WIDTH bytes with NULs
    where their layout leaves a place empty.

    The digits come from _decimal_digits and are laid out by %g's rules:
    %f for a decimal exponent -4 <= x < 17 and %e otherwise, trailing zeros
    stripped, an exponent of at least 2 digits. A cell is the bytes of its
    exponent's layout (_cell_tables) with the sign, the lead digit, the
    point and the 16 digits after the lead put in their places, the digits
    4 at a time from the texts of the groups, each stripped of its
    trailing zeros where every later group is 0000. For x = 1..16, once per
    exponent present, the integer digits then move one place ahead, over
    the point, which follows them. Values whose digits are undecided, and
    0, -0, inf and nan, go through b"%.17g" % v itself, so the text is that
    of %.17g byte for byte. The peak is about 75 bytes a value, that of
    _decimal_digits.
    """
    groups_text, heads, tails = _cell_tables()
    v = np.asarray(values, dtype=float)
    special = ~np.isfinite(v) | (v == 0)
    integer, x, decided = _decimal_digits(np.where(special, 1.0, np.abs(v)))
    # each group's row of texts, stripped where every later group is 0000
    groups, stripped = np.empty((4, v.size), dtype=np.int16), True
    for i in (3, 2, 1, 0):
        lead = integer // 10000
        np.subtract(integer, lead * 10000, out=groups[i], casting="unsafe")
        np.add(groups[i], 10000, out=groups[i], where=stripped)
        stripped, integer = groups[i] == 10000, lead
    cells = np.empty((v.size, _NUMBER_WIDTH), dtype=np.uint8)
    digits = cells[:, _POINT + 1 : -5].view("S4")
    for i in range(4):
        digits[:, i] = groups_text.take(groups[i], mode="clip")
    del groups
    # each lookup by exponent reads a flat index; mode="clip" keeps np.take
    # from buffering its output
    index = x.astype(np.intp) + 324
    cells[:, -5:].view("S5")[:, 0] = tails.take(index, mode="clip")
    head, place, point = heads.take(index, axis=1, mode="clip")
    del index
    np.add(head, ord("-"), out=head, where=np.signbit(v))
    place *= integer
    point *= ~stripped
    head += place
    head += point
    cells[:, :_POINT + 1].view("S7")[:, 0] = head.view("S8")
    del head, place, point
    # the exponents present by bincount: np.unique's first call in a process
    # would raise its peak resident set by 1 MB
    for k in (np.flatnonzero(np.bincount(np.clip(x, 0, 17))[1:17]) + 1).tolist():
        rows = np.flatnonzero(x == k)
        whole = cells[rows, _POINT + 1 : _POINT + 1 + k]
        whole[whole == 0] = ord("0")
        cells[rows, _POINT : _POINT + k] = whole
        cells[rows, _POINT + k] = (cells[rows, _POINT + 1 + k] != 0) * ord(".")
    cells = cells.view(f"S{_NUMBER_WIDTH}").ravel()
    fallback = np.flatnonzero(special | ~decided)
    cells[fallback] = [b"%.17g" % f for f in v[fallback].tolist()]
    return cells


def _factored_text(values, quote) -> np.ndarray:
    """A factored column's text: labels by `quote`, numbers _BLOCK_ROWS at a time."""
    if isinstance(values, list):
        return np.array([quote(s).encode() for s in values], dtype=bytes)
    cells = np.empty(values.size, dtype=f"S{_NUMBER_WIDTH}")
    for rows in _spans(values.size):
        cells[rows] = _g17_cells(values[rows])
    return cells


def _row_blocks(values: list, blocks, quote, lead: bytes, end: bytes):
    """The rows as text, a block at a time: each row is `lead`, its cells
    joined by commas, then `end`.

    values[i] is column i's distinct values, numbers or labels, or None for
    a plain column. Each of `blocks` is one array per column for a run of
    rows: a plain column's numbers, or a factored column's indices into its
    values, a plain int where the index is the same in every row of the
    block. A factored column's values are formatted once by _factored_text,
    and each block gathers its cells from them; a plain column's cells are
    made per block by _g17_cells. The text is %.17g's byte for byte, from
    digits computed exactly enough to decide their rounding, with
    b"%.17g" % v for the values where they cannot (see _decimal_digits).

    A block is a bytearray, written through a uint8 matrix view with one
    fixed-width slot per cell. It is allocated once the block's plain cells
    are made, and the factored cells are gathered into it one column at a
    time, so that neither it nor a gathered column coexists with the
    formatter's temporaries. Dropping the NULs of the slots, a number's
    empty places and a label's padding, leaves the row text; the block's
    arrays and cells go before it is made, and the text before the next
    block is asked for.
    """
    texts = [None if v is None else _factored_text(v, quote) for v in values]
    widths = [_NUMBER_WIDTH if text is None else text.itemsize for text in texts]
    template = bytearray(lead + b",".join(map(bytes, widths)) + end)
    starts = np.cumsum([len(lead)] + [width + 1 for width in widths])
    slots = [slice(start, start + width) for start, width in zip(starts, widths)]
    for block in blocks:
        rows = max(np.size(column) for column in block)
        plain = [_g17_cells(c) if text is None else None for c, text in zip(block, texts)]
        chunk = template * rows
        matrix = np.frombuffer(chunk, dtype=np.uint8).reshape(rows, -1)
        for column, text, cells, slot in zip(block, texts, plain, slots):
            if text is not None:
                cells = text[np.reshape(column, -1)]
            matrix[:, slot] = cells.view(np.uint8).reshape(cells.size, -1)
        del block, plain, column, cells, matrix
        chunk = chunk.translate(None, b"\0")
        chunk = chunk.decode()
        yield chunk
        del chunk


def _render_csv(names: list[str], values: list, blocks):
    yield ",".join(names) + "\n"
    yield from _row_blocks(values, blocks, str, b"", b"\n")


def _json_text(value) -> str:
    """Serialize with %.17g floats; json.dumps would shorten them."""
    import json

    if value is None or isinstance(value, (bool, int, str)):
        return json.dumps(value)
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, Grid1D):
        return _json_text({"min": value.x_min, "max": value.x_max, "count": value.count})
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_json_text(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(json.dumps(str(k)) + ":" + _json_text(v) for k, v in value.items()) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _render_json(config: RunConfig, names, values, blocks, metadata):
    """JSON document; rows are formatted like CSV, labels quoted by json.dumps.

    With timings on, render_seconds is the time from the head's yield to the
    trailer's: formatting the rows and writing them, and making the tiles of
    a Wigner map after its first, which compute_seconds holds."""
    import json

    echo = {"command": config.command, "parameters": config.parameters, "format": config.format,
            "out": config.output_path}
    yield '{"config":' + _json_text(echo) + ',"columns":' + _json_text(names) + ',"rows":['
    started = time.perf_counter()
    # every row is led by a comma, which the first one drops
    rows = _row_blocks(values, blocks, json.dumps, b",[", b"]")
    yield next(rows, ",")[1:]
    yield from rows
    if config.timings:
        metadata["timings"]["render_seconds"] = time.perf_counter() - started
    yield '],"metadata":' + _json_text(metadata) + "}\n"


def run(config: RunConfig) -> int:
    """Execute one resolved invocation; returns the process exit status."""
    try:
        if config.timings and config.format != "json":
            raise ValueError("--timings needs --format json")
        started = time.perf_counter()
        names, values, blocks, metadata = _HANDLERS[config.command](config.parameters)
        if config.timings:
            metadata["timings"] = {"compute_seconds": time.perf_counter() - started}
        chunks = (_render_csv(names, values, blocks) if config.format == "csv"
                  else _render_json(config, names, values, blocks, metadata))
        try:
            destination = (contextlib.nullcontext(sys.stdout) if config.output_path is None
                           else open(config.output_path, "w", encoding="utf-8", newline="\n"))
        except OSError as exc:
            raise ValueError(f"cannot write {config.output_path}: {exc.strerror}")
        with destination as stream:
            for chunk in chunks:
                stream.write(chunk)
                # let go of the text before the next block is made
                del chunk
            stream.flush()
    except CatGateError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: send what stdout still buffers to devnull, so
        # that its flush at interpreter exit cannot fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
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
    wg.add_argument("--engine", choices=("mehler", "both"), default="mehler",
                    help="closed form alone, or beside the integration oracle as a cross-check")
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
    return run(RunConfig(command=parameters.pop("command"), output_path=parameters.pop("out"),
                         format=parameters.pop("format"), timings=parameters.pop("timings"),
                         parameters=parameters))


if __name__ == "__main__":
    sys.exit(main())
