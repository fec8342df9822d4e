from __future__ import annotations

import json
import math
import re
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

import catgate
import catgate.cli
from catgate.cli import RunConfig, build_parser, main, run
from catgate.gate import GateParams, perfect_cat
from catgate.metrics import (
    fidelity_cat_scan,
    fidelity_scl_scan,
    mixed_fidelity,
    outcome_density,
    window_probability,
)
from catgate.numerics import Grid1D
from catgate.phase_map import map_disk
from catgate.states import CoherentParams
from catgate.wigner import (
    WignerGrid,
    default_axes,
    wigner_cat_reference,
    wigner_mehler,
    wigner_output_quadrature,
)
from oracles import outcome_norm_exact


def test_cat_fidelity_csv_frozen_output(capsys):
    assert main(["cat-fidelity", "--n", "1,5,15"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,y_m,x0,p0,F_cat"
    assert lines[1] == "1,0,0,0,0.97336797343683612"
    assert len(lines) == 4


def test_prob_density_single_point(capsys):
    assert main(["prob-density", "--n", "0", "--ym", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,y_m,x0,P"
    assert lines[1] == "0,0,0,0.3989422804014327"


def test_prob_density_default_scan_length(capsys):
    assert main(["prob-density", "--n", "0,2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 2 * 201


def test_fidelity_scan_range_syntax(capsys):
    assert main(["fidelity-scan", "--n", "1:4", "--x0", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "n,y_m,x0,p0,F_scl"
    assert [line.split(",")[0] for line in out[1:]] == ["1", "2", "3", "4"]
    values = [float(line.split(",")[-1]) for line in out[1:]]
    assert all(0.99 < v < 1.0 for v in values)


def test_json_document_round_trip(capsys):
    assert main(["cat-fidelity", "--n", "1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"config", "columns", "rows", "metadata"}
    assert doc["config"]["command"] == "cat-fidelity"
    assert doc["config"]["parameters"]["n"] == [1]
    assert doc["columns"] == ["n", "y_m", "x0", "p0", "F_cat"]
    np.testing.assert_allclose(doc["rows"][0][4], 0.9733679734368361, rtol=0, atol=1e-15)


def test_json_preserves_full_precision(capsys):
    assert main(["prob-density", "--n", "5", "--ym", "1.3", "--x0", "0.7",
                 "--format", "json"]) == 0
    raw = capsys.readouterr().out
    doc = json.loads(raw)
    from catgate.metrics import outcome_density

    exact = outcome_density(5, 0.7, 1.3)
    assert doc["rows"][0][3] == exact
    assert ("%.17g" % exact) in raw


def test_wigner_engines_cross_check(capsys):
    assert main(["wigner", "--n", "0", "--engine", "both", "--format", "json",
                 "--x-range=-3:3:41", "--p-range=-3:3:41"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["columns"] == ["x", "p", "W_mehler", "W_quadrature"]
    assert doc["metadata"]["max_abs_difference"] < 1e-8
    assert len(doc["rows"]) == 41 * 41
    peak = max(row[2] for row in doc["rows"])
    np.testing.assert_allclose(peak, 1.0 / np.pi, rtol=1e-3)


def test_wigner_with_cat_column(capsys):
    assert main(["wigner", "--n", "1", "--with-cat", "--format", "json",
                 "--x-range=-2:2:21", "--p-range=-5:5:31"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["columns"] == ["x", "p", "W", "W_cat"]
    w = np.array([row[2] for row in doc["rows"]])
    w_cat = np.array([row[3] for row in doc["rows"]])
    assert np.max(np.abs(w - w_cat)) < 0.1
    assert np.corrcoef(w, w_cat)[0, 1] > 0.95


def test_byte_identical_reruns(tmp_path):
    target = tmp_path / "map.json"
    argv = ["wigner", "--n", "3", "--x0", "1.0", "--format", "json",
            "--x-range=-3:5:33", "--p-range=-4:4:33", "--out", str(target)]
    assert main(argv) == 0
    content = target.read_bytes()
    assert main(argv) == 0
    assert content == target.read_bytes()
    assert b"\r" not in content


def test_timings_opt_in(capsys):
    argv = ["cat-fidelity", "--n", "1", "--format", "json"]
    assert main(argv) == 0
    assert "timings" not in json.loads(capsys.readouterr().out)["metadata"]
    assert main(argv + ["--timings"]) == 0
    timings = json.loads(capsys.readouterr().out)["metadata"]["timings"]
    assert set(timings) == {"compute_seconds", "render_seconds"}
    assert all(math.isfinite(t) and t >= 0.0 for t in timings.values())


@pytest.mark.parametrize("fmt", [[], ["--format", "csv"]])
def test_timings_with_csv_exits_2(fmt, tmp_path, capsys):
    # CSV has no place for timings, so asking for them there is refused, not ignored
    target = tmp_path / "density.csv"
    argv = ["prob-density", "--n", "1", "--ym", "0", "--timings", "--out", str(target)]
    assert main(argv + fmt) == 2
    captured = capsys.readouterr()
    assert captured.err == "invalid configuration: --timings needs --format json\n"
    assert captured.out == "" and not target.exists()


def test_scl_map_structure(capsys):
    assert main(["scl-map", "--n", "4", "--ym", "3", "--x0", "3", "--p0", "3",
                 "--samples", "64", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    meta = doc["metadata"]
    assert meta["dropped"] == 0
    assert meta["upper_count"] == meta["lower_count"] == 64
    assert len(doc["rows"]) == 64 * 3
    labels = [row[0] for row in doc["rows"]]
    assert labels[0] == "source" and labels[-1] == "lower"
    assert doc["columns"] == ["branch", "q", "p"]


def test_conflicting_outcome_flags_exit_2(capsys):
    for argv in (
        ["cat-fidelity", "--n", "1", "--ym", "2", "--ym-equals-x0"],
        # a single outcome and an outcome scan
        ["prob-density", "--n", "0", "--ym", "0", "--x-range=-2:2:5"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert "not allowed with argument" in captured.err
        assert captured.out == ""


def test_malformed_n_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["cat-fidelity", "--n", "one"])
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "catgate cat-fidelity: error: argument --n: expects integers like 1,5,15 or 1:25"
    )


# test_malformed_n_exits_2 covers a malformed integer list
@pytest.mark.parametrize(
    "argv, line",
    [
        (["prob-density", "--n", "2,-1"],
         "catgate prob-density: error: argument --n: expects nonnegative integers"),
        (["mixed-fidelity", "--n", "1", "--d", "1,a"],
         "catgate mixed-fidelity: error: argument --d: expects numbers like 0,1.5,2"),
        (["wigner", "--n", "1", "--p-range=0:5"],
         "catgate wigner: error: argument --p-range: expects min:max:count"),
        (["wigner", "--n", "1", "--x-range=0:5:1"],
         "catgate wigner: error: argument --x-range: grid needs at least 2 points, got 1"),
    ],
)
def test_bad_flag_value_names_the_flag_once(capsys, argv, line):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == line
    assert captured.out == ""


def test_invalid_library_configuration_exits_2(capsys):
    assert main(["wigner", "--n", "2", "--ym", "inf"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:")


def test_unconverged_window_integral_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(catgate.metrics, "_ADAPTIVE_TOL", 0.0)
    monkeypatch.setattr(catgate.metrics, "_MAX_NODES", 401)
    assert main(["mixed-fidelity", "--n", "1", "--d", "0.1"]) == 3
    captured = capsys.readouterr()
    assert "did not converge" in captured.err
    assert captured.out == ""


def test_singular_window_exits_3(capsys):
    assert main(["mixed-fidelity", "--n", "5", "--d", "10"]) == 3
    err = capsys.readouterr().err
    assert "window half-width" in err
    assert not err.startswith("invalid configuration")


def test_run_accepts_prebuilt_config(capsys):
    config = RunConfig(
        command="prob-density",
        parameters={"n": [1], "x0": 0.0, "y_m": 0.5, "y_axis": None},
        output_path=None,
        format="csv",
    )
    assert run(config) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("1,0.5,0,")


def test_parser_rejects_bad_axis_spec():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["wigner", "--n", "1", "--x-range", "0:5"])
    with pytest.raises(SystemExit):
        parser.parse_args(["wigner", "--n", "1", "--x-range", "0:5:1"])


@pytest.mark.parametrize(
    "argv",
    [
        ["scl-map", "--n", "2", "--ym", "inf"],
        ["prob-density", "--n", "2", "--ym", "nan"],
        ["prob-density", "--n", "2", "--ym", "inf"],
        ["prob-density", "--n", "2", "--x0", "inf", "--ym", "0"],
        ["prob-density", "--n", "2", "--x0", "inf"],
        ["fidelity-scan", "--n", "1", "--p0", "nan"],
        ["cat-fidelity", "--n", "1", "--p0", "inf"],
        ["mixed-fidelity", "--n", "1", "--d", "inf"],
        # values out of range: the parser leaves these checks to the library
        ["wigner", "--n", "-1"],
        ["scl-map", "--n", "-1"],
        ["scl-map", "--n", "4", "--samples", "7"],
        ["scl-map", "--n", "4", "--radius", "0"],
        ["mixed-fidelity", "--n", "1", "--d", "0,1"],
    ],
)
def test_non_finite_parameters_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid configuration:")
    assert captured.out == ""


_COMMON_FLAGS = {"--help", "--format", "--out", "--timings"}
_FLAGS = {
    "fidelity-scan": {"--n", "--x0", "--ym", "--p0"},
    "cat-fidelity": {"--n", "--x0", "--ym", "--ym-equals-x0", "--p0"},
    "wigner": {"--n", "--x0", "--p0", "--ym", "--engine", "--with-cat", "--x-range",
               "--p-range"},
    "prob-density": {"--n", "--x0", "--ym", "--x-range"},
    "mixed-fidelity": {"--n", "--x0", "--d"},
    "scl-map": {"--n", "--ym", "--x0", "--p0", "--radius", "--samples"},
}


@pytest.mark.parametrize("command", sorted(_FLAGS))
def test_help_names_every_flag(command, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    named = set(re.findall(r"--[a-z][\w-]*", capsys.readouterr().out))
    assert named == _FLAGS[command] | _COMMON_FLAGS


def _reference_json(value) -> str:
    """The document rule value by value: %.17g floats, json.dumps strings."""
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
    if isinstance(value, list):
        return "[" + ",".join(_reference_json(v) for v in value) + "]"
    return "{" + ",".join(json.dumps(k) + ":" + _reference_json(v) for k, v in value.items()) + "}"


def _reference_csv(columns, rows) -> str:
    lines = [",".join(columns)]
    lines += [",".join(v if isinstance(v, str) else "%.17g" % float(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _axis(lo, hi, count):
    return {"min": lo, "max": hi, "count": count}


def _cat_fidelity_table():
    # the centred case: each row's outcome is its x0; the echo keeps the
    # declared order n, x0, y_m, p0, ym_equals_x0 whatever the argv order
    argv = ["cat-fidelity", "--ym-equals-x0", "--x0", "0,1", "--n", "1,2"]
    rows = [[n, x0, x0, 0.0, fidelity_cat_scan(n, x0, x0, 0.0)]
            for x0 in (0.0, 1.0) for n in (1, 2)]
    echo = {"n": [1, 2], "x0": [0.0, 1.0], "y_m": 0.0, "p0": 0.0, "ym_equals_x0": True}
    return argv, echo, ["n", "y_m", "x0", "p0", "F_cat"], rows, {}


def _wigner_table():
    argv = ["wigner", "--n", "2", "--x0", "0.5", "--p0", "-0.3", "--ym", "0.2", "--engine",
            "both", "--with-cat", "--x-range=-3:4:15", "--p-range=-4:4:13"]
    params, inp = GateParams(2, 0.2), CoherentParams(0.5, -0.3)
    xa, pa = Grid1D(-3.0, 4.0, 15), Grid1D(-4.0, 4.0, 13)
    grids = [
        wigner_mehler(params, inp, xa, pa).values,
        wigner_output_quadrature(params, inp, xa, pa).values,
        wigner_cat_reference(perfect_cat(params, inp), xa, pa).values,
    ]
    rows = [
        [float(xa.xs[i]), float(pa.xs[j])] + [float(g[i, j]) for g in grids]
        for i in range(xa.count)
        for j in range(pa.count)
    ]
    echo = {"n": 2, "x0": 0.5, "p0": -0.3, "y_m": 0.2, "engine": "both", "with_cat": True,
            "x_axis": _axis(-3.0, 4.0, 15), "p_axis": _axis(-4.0, 4.0, 13)}
    metadata = {"engine": "both", "max_abs_difference": float(np.max(np.abs(grids[0] - grids[1])))}
    return argv, echo, ["x", "p", "W_mehler", "W_quadrature", "W_cat"], rows, metadata


def _scl_map_table():
    # the disk center is a tangency point and its left half has no image
    argv = ["scl-map", "--n", "0", "--ym", "1", "--x0", "0", "--p0", "5", "--samples", "9"]
    disk = map_disk(GateParams(0, 1.0), (0.0, 5.0), 1.0, 9)
    rows = []
    for label, (qs, ps) in (("source", disk.source), ("upper", disk.upper), ("lower", disk.lower)):
        rows += [[label, float(q), float(p)] for q, p in zip(qs, ps)]
    assert disk.dropped > 0 and disk.upper[0].size > disk.lower[0].size
    echo = {"n": 0, "y_m": 1.0, "x0": 0.0, "p0": 5.0, "radius": 1.0, "samples": 9}
    metadata = {"dropped": disk.dropped, "upper_count": disk.upper[0].size,
                "lower_count": disk.lower[0].size}
    return argv, echo, ["branch", "q", "p"], rows, metadata


def _prob_density_table():
    argv = ["prob-density", "--n", "0,3,20", "--x0", "0.5", "--x-range=-2:3:11"]
    ys = Grid1D(-2.0, 3.0, 11).xs
    rows = [[n, float(y), 0.5, outcome_density(n, 0.5, float(y))] for n in (0, 3, 20) for y in ys]
    echo = {"n": [0, 3, 20], "x0": 0.5, "y_m": None, "y_axis": _axis(-2.0, 3.0, 11)}
    return argv, echo, ["n", "y_m", "x0", "P"], rows, {}


def _mixed_fidelity_table():
    argv = ["mixed-fidelity", "--n", "1,2", "--d", "0.2,0.5"]
    rows = []
    for n in (1, 2):
        for d in (0.2, 0.5):
            rows.append([n, 0.0, d, mixed_fidelity(n, 0.0, d), window_probability(n, 0.0, d)])
    echo = {"n": [1, 2], "x0": 0.0, "d": [0.2, 0.5]}
    return argv, echo, ["n", "x0", "d", "F_mix", "P"], rows, {}


def _signed_zero_table():
    # -0.0 == 0.0, so a renderer that merged equal values would print one text for both
    argv = ["fidelity-scan", "--n", "1,2", "--x0=-0,0", "--p0=-0"]
    rows = [[n, 0.0, x0, -0.0, fidelity_scl_scan(n, 0.0, x0, -0.0)]
            for x0 in (-0.0, 0.0) for n in (1, 2)]
    assert ["%.17g" % row[2] for row in rows] == ["-0", "-0", "0", "0"]
    echo = {"n": [1, 2], "x0": [-0.0, 0.0], "y_m": 0.0, "p0": -0.0}
    return argv, echo, ["n", "y_m", "x0", "p0", "F_scl"], rows, {}


def _digit_layouts_table():
    # centred outcomes keep F_cat defined for every x0 here; the x0 and y_m
    # columns hold -0 and 0, a subnormal, the widest cell (17 digits, minus
    # sign, 3-digit exponent), both sides of the %e switch at 1e-4 and 1 to 8
    # integer digits
    x0 = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1.5e-5, 9.9999999999999991e-05, 0.0001,
          0.00012345, -3.25, 12.5, 123.25, 1234.5, 12345.125, 123456.5, 1234567.25, 12345678.5]
    argv = ["cat-fidelity", "--n", "1", "--ym-equals-x0", "--x0=" + ",".join(map(repr, x0))]
    rows = [[1, x, x, 0.0, fidelity_cat_scan(1, x, x, 0.0)] for x in x0]
    echo = {"n": [1], "x0": x0, "y_m": 0.0, "p0": 0.0, "ym_equals_x0": True}
    return argv, echo, ["n", "y_m", "x0", "p0", "F_cat"], rows, {}


def _large_outcome_table():
    # outcomes 16 apart around 1e17: 17 integer digits below it and %e from
    # it on; the densities reach a 3-digit exponent and underflow to 0
    argv = ["prob-density", "--n", "0,30", "--x0", "1e17",
            "--x-range=99999999999999936:100000000000000064:9"]
    ys = Grid1D(99999999999999936.0, 100000000000000064.0, 9).xs
    rows = [[n, float(y), 1e17, outcome_density(n, 1e17, float(y))] for n in (0, 30) for y in ys]
    assert {r[3] for r in rows} >= {0.0} and min(r[3] for r in rows if r[3]) < 1e-99
    echo = {"n": [0, 30], "x0": 1e17, "y_m": None,
            "y_axis": _axis(99999999999999936.0, 100000000000000064.0, 9)}
    return argv, echo, ["n", "y_m", "x0", "P"], rows, {}


def _assert_matches_reference(table, capsys):
    argv, echo, columns, rows, metadata = table()
    assert main(argv) == 0
    assert capsys.readouterr().out == _reference_csv(columns, rows)
    assert main(argv + ["--format", "json"]) == 0
    config = {"command": argv[0], "parameters": echo, "format": "json", "out": None}
    document = {"config": config, "columns": columns, "rows": rows, "metadata": metadata}
    assert capsys.readouterr().out == _reference_json(document) + "\n"


_TABLES = [
    _wigner_table,
    _scl_map_table,
    _prob_density_table,
    _mixed_fidelity_table,
    _signed_zero_table,
    _cat_fidelity_table,
    _digit_layouts_table,
    _large_outcome_table,
]


@pytest.mark.parametrize("table", _TABLES)
def test_renderer_matches_row_by_row_rule(table, capsys):
    _assert_matches_reference(table, capsys)


# the wigner table has 195 = 15 * 13 rows, so block 13 ends on its last row
@pytest.mark.parametrize("block", [7, 13])
@pytest.mark.parametrize("table", _TABLES)
def test_renderer_block_boundaries(table, block, capsys, monkeypatch):
    monkeypatch.setattr(catgate.cli, "_BLOCK_ROWS", block)
    _assert_matches_reference(table, capsys)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_out_file_matches_stdout(fmt, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(catgate.cli, "_BLOCK_ROWS", 7)
    argv = _wigner_table()[0] + ["--format", fmt]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    target = tmp_path / f"table.{fmt}"
    assert main(argv + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    if fmt == "json":
        # the document echoes its destination
        expected = expected.replace('"out":null', '"out":' + json.dumps(str(target)), 1)
    assert target.read_bytes() == expected.encode()


class _SpyWriter:
    def __init__(self):
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)


def test_csv_streams_one_block_per_write(monkeypatch):
    monkeypatch.setattr(catgate.cli, "_BLOCK_ROWS", 7)
    spy = _SpyWriter()
    monkeypatch.setattr("sys.stdout", spy)
    assert main(["prob-density", "--n", "0,3,20", "--x0", "0.5", "--x-range=-2:3:11"]) == 0
    row_counts = [text.count("\n") for text in spy.writes]
    assert row_counts[0] == 1  # the header line
    assert sum(row_counts) == 1 + 33
    assert len(row_counts) > 2 and max(row_counts[1:]) <= 7


def test_json_streams_one_block_per_write(monkeypatch):
    monkeypatch.setattr(catgate.cli, "_BLOCK_ROWS", 7)
    spy = _SpyWriter()
    monkeypatch.setattr("sys.stdout", spy)
    assert main(["prob-density", "--n", "0,3,20", "--x0", "0.5", "--x-range=-2:3:11",
                 "--format", "json"]) == 0
    head, *blocks, tail = spy.writes
    assert head.endswith('"rows":[') and tail.startswith('],"metadata":')
    # every row opens one bracket, and no number or label holds one
    row_counts = [text.count("[") for text in blocks]
    assert sum(row_counts) == len(json.loads("".join(spy.writes))["rows"]) == 33
    assert len(blocks) > 1 and max(row_counts) <= 7


def test_wigner_large_n_default_axes_keep_mass(capsys):
    assert main(["wigner", "--n", "600"]) == 0
    w = np.loadtxt(capsys.readouterr().out.splitlines()[1:], delimiter=",")[:, 2]
    params, inp = GateParams(600, 0.0), CoherentParams(0.0, 0.0)
    x_axis, p_axis = default_axes(params, inp)
    grid = WignerGrid(x_axis, p_axis, w.reshape(x_axis.count, p_axis.count))
    assert abs(grid.total_mass() - 1.0) < 1e-6


def test_wigner_outcome_without_density_exits_3(capsys):
    argv = ["wigner", "--n", "300", "--ym", "60", "--x-range=58:62:3", "--p-range=-1:1:3"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "y_m=60.0" in captured.err and "conditional state undefined" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("y_m", [40, 60])
def test_density_far_outcome_is_correctly_rounded(y_m, capsys):
    # P = M_n / sqrt(2 pi) is 5.1e-92 at an offset of 40; at 60 it is 10^-419.99,
    # below the smallest subnormal, so 0 is the correctly rounded value
    assert main(["prob-density", "--n", "300", "--ym", str(y_m)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,y_m,x0,P" and len(lines) == 2
    printed = float(lines[1].split(",")[3])
    exact = outcome_norm_exact(300, float(y_m)) / Decimal(2 * math.pi).sqrt()
    if y_m == 40:
        np.testing.assert_allclose(printed, float(exact), rtol=1e-12)
    else:
        assert exact < Decimal(5e-324) / 2 and printed == 0.0


def test_density_at_offset_past_the_double_range_is_zero(capsys):
    assert main(["prob-density", "--n", "3", "--x0=-1e200", "--x-range=0:1:3"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["0", "0", "0"]


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert catgate.__version__ == re.search(r'^version = "([^"]+)"', text, re.M).group(1)


def test_top_level_exports_match_the_modules():
    # the package exports exactly what its modules declare public, so a kernel
    # deleted from a module cannot linger at the top level
    from catgate import errors, gate, metrics, numerics, phase_map, states, wigner

    modules = (gate, metrics, numerics, phase_map, states, wigner)
    declared = set().union(*(module.__all__ for module in modules))
    exceptions = {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, Exception)
    }
    assert len(catgate.__all__) == len(set(catgate.__all__))
    assert set(catgate.__all__) == declared | exceptions | {"__version__"}
    assert all(hasattr(catgate, name) for name in catgate.__all__)


def test_wigner_default_axes_follow_far_outcome(capsys):
    # at n = 4, y_m = 25 the state sits near x_c = 12.5; the x axis stays
    # within 26.6 of y_m, where the Hermite rows are in range
    assert main(["wigner", "--n", "4", "--ym", "25"]) == 0
    w = np.loadtxt(capsys.readouterr().out.splitlines()[1:], delimiter=",")[:, 2]
    x_axis, p_axis = default_axes(GateParams(4, 25.0), CoherentParams(0.0, 0.0))
    grid = WignerGrid(x_axis, p_axis, w.reshape(x_axis.count, p_axis.count))
    assert abs(grid.total_mass() - 1.0) < 1e-6


def test_wigner_default_axes_refuse_unreachable_state(capsys):
    # at n = 1000, y_m = 30 the state sits near x0 = 0, 30 away from y_m,
    # beyond the distance at which the Hermite rows start
    assert main(["wigner", "--n", "1000", "--ym", "30"]) == 3
    captured = capsys.readouterr()
    assert "Hermite rows underflow" in captured.err
    assert captured.out == ""


def _g17_edge_values() -> np.ndarray:
    values = [0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
              1.7976931348623157e308, 0.5, 0.1, 1000000000000000.75, 99999999999999999.0]
    for k in range(-324, 309):
        power = float(f"1e{k}")
        values += [power, np.nextafter(power, 0.0), np.nextafter(power, np.inf)]
    values += [float(i) for i in range(1000)] + [i / 8 for i in range(1000)]
    values += [i / 100 for i in range(1000)] + [2.0**k for k in range(-1074, 1024)]
    values += [float(2**k + 1) for k in range(80)] + [float(10**k + 1) for k in range(25)]
    # fixed layouts with 1 to 17 integer digits
    values += [float("12345678901234567"[:k] + ".25") for k in range(1, 18)]
    values += [float(i) * 10.0**k for i in range(1, 200) for k in range(10, 19)]
    values = np.array(values)
    return np.concatenate([values, -values])


def test_g17_cells_match_percent_g():
    # random finite bit patterns and the edge list against the C conversion:
    # ties, carries into an 18th digit, decade boundaries, subnormals, -0 and
    # the %f/%e switches
    bits = np.random.default_rng(8).integers(0, 2**64, size=200_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = np.concatenate([values[np.isfinite(values)], _g17_edge_values()])
    cells = catgate.cli._g17_cells(values).tolist()
    expected = [b"%.17g" % v for v in values.tolist()]
    assert [(v, c) for v, c, e in zip(values.tolist(), cells, expected) if c != e] == []
