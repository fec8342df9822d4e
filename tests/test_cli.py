from __future__ import annotations

import io
import itertools
import json
import math
import os
import re
import tracemalloc
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

import catgate
import catgate.cli
import catgate.wigner
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
from catgate.phase_map import map_disk, map_point
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
    assert lines[1] == "1,0,0,0,0.97336797343683601"
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


@pytest.mark.parametrize(
    "parts, reason",
    [((), "Is a directory"), (("missing", "dir", "x.csv"), "No such file or directory")],
)
def test_out_that_cannot_be_opened_exits_2(parts, reason, tmp_path, capsys):
    target = tmp_path.joinpath(*parts)
    assert main(["prob-density", "--n", "1", "--ym", "0", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"invalid configuration: cannot write {target}: {reason}\n"
    assert captured.out == "" and not (tmp_path / "missing").exists()


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
        (["prob-density", "--n", "1", "--x-range=1e15:1.00000000000001e15:201"],
         "catgate prob-density: error: argument --x-range: grid spacing 0.05 is too fine at "
         "|x| = 1e+15, where doubles are 0.125 apart, so its points would not be distinct"),
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
    # P comes first, a closed form, so width 1e4, far wider than the density, reaches F_mix
    for n, width in (("5", "10"), ("1", "4"), ("1", "1e4")):
        assert main(["mixed-fidelity", "--n", n, "--d", width]) == 3
        err = capsys.readouterr().err
        assert "window half-width" in err
        assert not err.startswith("invalid configuration")


def test_mixed_fidelity_runs_one_adaptive_integral_per_row(capsys, monkeypatch):
    # P is a closed form, so each row integrates only its F_mix numerator
    calls = []
    adaptive_nodes = catgate.metrics._adaptive_nodes

    def counted(lo, hi, evaluate):
        calls.append((lo, hi))
        return adaptive_nodes(lo, hi, evaluate)

    monkeypatch.setattr(catgate.metrics, "_adaptive_nodes", counted)
    assert main(["mixed-fidelity", "--n", "1,5,15", "--d", "0.1,0.5,1,2"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert calls == [(-0.5 * d, 0.5 * d) for n in (1, 5, 15) for d in (0.1, 0.5, 1.0, 2.0)]
    assert len(rows) == len(calls)


def test_mixed_fidelity_far_center_prints_the_centred_row(capsys):
    # P and F_mix depend on (n, width) alone, so x0 = 1e300 builds no grid around x0
    assert main(["mixed-fidelity", "--n", "1", "--x0", "1e300", "--d", "1"]) == 0
    far = capsys.readouterr().out.splitlines()[1].split(",")
    assert main(["mixed-fidelity", "--n", "1", "--d", "1"]) == 0
    centred = capsys.readouterr().out.splitlines()[1].split(",")
    assert far[1] == "1.0000000000000001e+300"
    assert far[3:] == centred[3:]


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--x0", "nan", "coherent-state quadratures must be finite"),
        ("--x0", "inf", "coherent-state quadratures must be finite"),
        ("--ym", "inf", "homodyne outcome y_m must be finite"),
        ("--ym", "nan", "homodyne outcome y_m must be finite"),
    ],
)
def test_fidelity_scan_names_the_non_finite_input(flag, value, message, capsys):
    # the inputs are checked before scan_grid, the same message as cat-fidelity's
    for command in ("fidelity-scan", "cat-fidelity"):
        assert main([command, "--n", "1", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"invalid configuration: {message}\n"
        assert captured.out == ""


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
        ["scl-map", "--n", "1", "--samples", "8", "--radius", "1e308"],
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


def _fidelity_scan_table():
    # 15 rows of a product whose outer axis x0 steps every 5 rows, with two
    # constant columns, y_m and p0: blocks of 7 and 13 rows start inside a
    # step, and each block reads the one value of a constant column
    argv = ["fidelity-scan", "--n", "1:5", "--x0", "0,0.5,1", "--ym", "0.25", "--p0=-0.5"]
    rows = [[n, 0.25, x0, -0.5, fidelity_scl_scan(n, 0.25, x0, -0.5)]
            for x0 in (0.0, 0.5, 1.0) for n in range(1, 6)]
    echo = {"n": [1, 2, 3, 4, 5], "x0": [0.0, 0.5, 1.0], "y_m": 0.25, "p0": -0.5}
    return argv, echo, ["n", "y_m", "x0", "p0", "F_scl"], rows, {}


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


def _scl_map_reference(n, y_m, center, samples):
    """argv, echo, columns, rows and metadata of the scl-map table of a unit
    disk, its image momenta taken from map_point on the whole lattice."""
    argv = ["scl-map", "--n", str(n), "--ym", repr(y_m), "--x0", repr(center[0]),
            "--p0", repr(center[1]), "--samples", str(samples)]
    params = GateParams(n, y_m)
    disk = map_disk(params, center, 1.0, samples)
    (q, p), (upper, lower) = disk.source, disk.preimage
    _, p_lower, p_upper = map_point(params, q, p)
    rows = []
    for label, pre, ps in (("source", range(q.size), p), ("upper", upper, p_upper),
                           ("lower", lower, p_lower)):
        rows += [[label, float(q[r]), float(ps[r])] for r in pre]
    assert 0 < lower.size <= upper.size < q.size and disk.dropped > 0
    echo = {"n": n, "y_m": y_m, "x0": center[0], "p0": center[1], "radius": 1.0,
            "samples": samples}
    metadata = {"dropped": disk.dropped, "upper_count": upper.size, "lower_count": lower.size}
    return argv, echo, ["branch", "q", "p"], rows, metadata


def _scl_map_table():
    # the disk center is a tangency point and its left half has no image
    return _scl_map_reference(0, 1.0, (0.0, 5.0), 9)


def _scl_map_straddle_table():
    # the disk straddles the band edge q = 3: 5214 rows, more than one block
    return _scl_map_reference(4, 0.0, (2.5, 0.5), 2000)


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


def _first_different_line(text: str, expected: str):
    """(index, line, expected line) of the first line where the two texts
    differ, or None when they are equal. pytest's own diff of two texts
    this long takes minutes."""
    pairs = enumerate(itertools.zip_longest(text.split("\n"), expected.split("\n")))
    return next(((i, a, b) for i, (a, b) in pairs if a != b), None)


def _assert_matches_reference(table, capsys):
    argv, echo, columns, rows, metadata = table()
    assert main(argv) == 0
    assert _first_different_line(capsys.readouterr().out, _reference_csv(columns, rows)) is None
    assert main(argv + ["--format", "json"]) == 0
    config = {"command": argv[0], "parameters": echo, "format": "json", "out": None}
    document = {"config": config, "columns": columns, "rows": rows, "metadata": metadata}
    text = capsys.readouterr().out
    assert _first_different_line(text, _reference_json(document) + "\n") is None


_TABLES = [
    _wigner_table,
    _scl_map_table,
    _prob_density_table,
    _mixed_fidelity_table,
    _signed_zero_table,
    _cat_fidelity_table,
    _fidelity_scan_table,
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


@pytest.mark.parametrize("block", [7, 512, 1 << 20])
@pytest.mark.parametrize("table", [_scl_map_table, _scl_map_straddle_table])
def test_scl_map_blocks_inside_a_branch_match_the_reference(table, block, capsys, monkeypatch):
    # every column is computed a block at a time, and here a block holds the
    # end of the samples' rows or of upper's and the start of the next branch
    argv, echo, columns, rows, metadata = table()
    labels = [row[0] for row in rows]
    assert all(labels.index(label) % block for label in ("upper", "lower"))
    monkeypatch.setattr(catgate.cli, "_BLOCK_ROWS", block)
    _assert_matches_reference(lambda: (argv, echo, columns, rows, metadata), capsys)


def _tiled_wigner_table(n: int, with_cat: bool, engine: str = "mehler"):
    """argv, echo, columns, rows and metadata of a 41 x 37 wigner map, W
    from wigner_mehler, W_quadrature from wigner_output_quadrature and W_cat
    from wigner_cat_reference, each on the whole axes."""
    argv = ["wigner", "--n", str(n), "--x0", "0.5", "--ym", "0.2", "--x-range=-3:4:41",
            "--p-range=-4:4:37"] + ["--engine=both"] * (engine == "both")
    argv += ["--with-cat"] * with_cat
    params, inp = GateParams(n, 0.2), CoherentParams(0.5, 0.0)
    xa, pa = Grid1D(-3.0, 4.0, 41), Grid1D(-4.0, 4.0, 37)
    grids, columns = [wigner_mehler(params, inp, xa, pa).values], ["x", "p", "W"]
    metadata = {"engine": engine}
    if engine == "both":
        grids.append(wigner_output_quadrature(params, inp, xa, pa).values)
        columns[2:] = ["W_mehler", "W_quadrature"]
        metadata["max_abs_difference"] = float(np.max(np.abs(grids[0] - grids[1])))
    if with_cat:
        grids.append(wigner_cat_reference(perfect_cat(params, inp), xa, pa).values)
        columns.append("W_cat")
    rows = [[float(xa.xs[i]), float(pa.xs[j])] + [float(g[i, j]) for g in grids]
            for i in range(xa.count) for j in range(pa.count)]
    echo = {"n": n, "x0": 0.5, "p0": 0.0, "y_m": 0.2, "engine": engine, "with_cat": with_cat,
            "x_axis": _axis(-3.0, 4.0, 41), "p_axis": _axis(-4.0, 4.0, 37)}
    return argv, echo, columns, rows, metadata


# tiles of 1 x row (n = 0) and of 7 (n = 6, its orders in chunks of 3), so that
# a block of 512 rows holds tiles and ends inside one
@pytest.mark.parametrize("with_cat", [False, True])
@pytest.mark.parametrize("n, tile", [(0, 1), (6, 7)])
def test_tiled_map_prints_wigner_mehler(n, tile, with_cat, capsys, monkeypatch):
    monkeypatch.setattr(catgate.wigner, "_CHUNK_VALUES", tile * 37)
    monkeypatch.setattr(catgate.cli, "_BLOCK_ROWS", 512)
    table = _tiled_wigner_table(n, with_cat)
    args = (GateParams(n, 0.2), CoherentParams(0.5, 0.0), Grid1D(-3.0, 4.0, 41),
            Grid1D(-4.0, 4.0, 37))
    rows = [len(t) for t in catgate.wigner._mehler_tiles(*args)]
    assert rows == [tile] * (41 // tile) + [41 % tile] * (41 % tile > 0)
    assert 512 % (tile * 37)
    _assert_matches_reference(lambda: table, capsys)


# the closed form beside its oracle, made and checked a tile at a time: the
# bytes of the two held maps, and max_abs_difference that of the whole maps
@pytest.mark.parametrize("with_cat", [False, True])
@pytest.mark.parametrize("n, tile", [(0, 1), (6, 7)])
def test_tiled_map_beside_its_oracle_prints_the_held_maps(n, tile, with_cat, capsys, monkeypatch):
    monkeypatch.setattr(catgate.wigner, "_CHUNK_VALUES", tile * 37)
    monkeypatch.setattr(catgate.cli, "_BLOCK_ROWS", 512)
    table = _tiled_wigner_table(n, with_cat, "both")
    args = (GateParams(n, 0.2), CoherentParams(0.5, 0.0), Grid1D(-3.0, 4.0, 41),
            Grid1D(-4.0, 4.0, 37))
    assert [len(t) for t in catgate.wigner._mehler_tiles(*args)][0] == tile
    maps = [engine(*args).values for engine in (wigner_mehler, wigner_output_quadrature)]
    assert table[4]["max_abs_difference"] == np.max(np.abs(maps[0] - maps[1])) > 0
    _assert_matches_reference(lambda: table, capsys)


def _poison_tile(monkeypatch, index: int) -> None:
    """Make the x rows of wigner_mehler's tile `index` nan."""
    orders, calls = catgate.wigner._hermite_orders, []

    def poisoned(x):
        calls.append(x.size)
        return orders(x * np.nan if len(calls) == index + 1 else x)

    monkeypatch.setattr(catgate.wigner, "_hermite_orders", poisoned)


def _assert_tiles_refused_as_the_handler(argv, fmt, capsys, monkeypatch) -> None:
    """The first tile of the map `argv` prints in `fmt`, made by the handler,
    is refused with exit 3, a numerics refusal, before the header; the
    second while the rows print, after all 7 x 37 rows of the first tile,
    whose blocks of 64 rows end at the tile's end."""
    argv = argv + ["--format", fmt]
    monkeypatch.setattr(catgate.wigner, "_CHUNK_VALUES", 7 * 37)
    monkeypatch.setattr(catgate.cli, "_BLOCK_ROWS", 64)
    assert main(argv) == 0
    whole = capsys.readouterr().out
    outputs = []
    for index in (0, 1):
        _poison_tile(monkeypatch, index)
        assert main(argv) == 3
        captured = capsys.readouterr()
        rows = f"{7 * index} to {7 * index + 6}"
        assert captured.err == f"Wigner map at n=6 went non-finite in x rows {rows}\n"
        outputs.append(captured.out)
    assert outputs[0] == ""
    assert whole.startswith(outputs[1])
    # 259 rows: CSV's header and each row end in a newline, and each JSON row
    # but the first opens with ",["
    assert outputs[1].count("\n" if fmt == "csv" else ",[") == (260 if fmt == "csv" else 258)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_refused_tile_exits_as_a_refused_handler(fmt, capsys, monkeypatch):
    _assert_tiles_refused_as_the_handler(_tiled_wigner_table(6, True)[0], fmt, capsys, monkeypatch)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_refused_tile_beside_the_oracle_exits_after_the_rows_before_it(fmt, capsys, monkeypatch):
    # under --engine both the oracle is made first and whole, then the closed
    # form's tiles as under --engine mehler, each checked as it is made
    argv = _tiled_wigner_table(6, False, "both")[0]
    _assert_tiles_refused_as_the_handler(argv, fmt, capsys, monkeypatch)


def test_tile_over_its_budget_is_refused_before_it_exists(capsys, monkeypatch):
    # tiles of 1001 x 1001 values at n = 1000 on 1001 x 1001 points, 8 MB
    # each, against a budget of 2^16 values
    monkeypatch.setattr(catgate.wigner, "_TILE_VALUES", 1 << 16)
    argv = ["wigner", "--n", "1000", "--x-range=-6:6:1001", "--p-range=-40:40:1001"]
    main(["wigner", "--n", "1", "--x-range=-6:6:3", "--p-range=-1:1:3"])
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main(argv) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("Wigner map at n=1000 on 1001 x 1001 points is made in tiles of "
                            "1002001 values, over the budget of 65536 values a tile\n")
    assert peak < 8 * 1001 * 1001 / 8


def test_poisson_matrix_over_its_budget_is_refused_before_it_exists(capsys):
    # the 1001 x 3000001 densities would take 22.4 GiB
    argv = ["prob-density", "--n", "3000000", "--x-range=-10:10:1001"]
    main(["prob-density", "--n", "1", "--ym", "0"])
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main(argv) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("Poisson weights of n=3000000 at 1001 points take 3003001001 values "
                            "and 4194304 log factorials, over the budget of 67108864 values for "
                            "each\n")
    assert peak < 2e6


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

    def flush(self) -> None:
        pass


# argv, the rows per block, and the table's rows: the handlers make their own
# blocks, which end at a map's tile ends (tiles of 7 x 37 rows here) and at a
# disk's branch ends (5214 rows: 2000 samples, 1607 upper and 1607 lower)
_STREAMED = [
    (["prob-density", "--n", "0,3,20", "--x0", "0.5", "--x-range=-2:3:11"], 7, 33),
    (["wigner", "--n", "6", "--x0", "0.5", "--ym", "0.2", "--x-range=-3:4:41",
      "--p-range=-4:4:37", "--engine=both", "--with-cat"], 64, 41 * 37),
    (["scl-map", "--n", "4", "--ym", "0.0", "--x0", "2.5", "--p0", "0.5", "--samples", "2000"],
     512, 5214),
]


def test_csv_streams_one_block_per_write(monkeypatch):
    monkeypatch.setattr(catgate.wigner, "_CHUNK_VALUES", 7 * 37)
    for argv, block, rows in _STREAMED:
        monkeypatch.setattr(catgate.cli, "_BLOCK_ROWS", block)
        spy = _SpyWriter()
        monkeypatch.setattr("sys.stdout", spy)
        assert main(argv) == 0
        row_counts = [text.count("\n") for text in spy.writes]
        assert row_counts[0] == 1  # the header line
        assert sum(row_counts) == 1 + rows
        assert len(row_counts) > 2 and max(row_counts[1:]) <= block


def test_json_streams_one_block_per_write(monkeypatch):
    monkeypatch.setattr(catgate.wigner, "_CHUNK_VALUES", 7 * 37)
    for argv, block, rows in _STREAMED:
        monkeypatch.setattr(catgate.cli, "_BLOCK_ROWS", block)
        spy = _SpyWriter()
        monkeypatch.setattr("sys.stdout", spy)
        assert main(argv + ["--format", "json"]) == 0
        head, *blocks, tail = spy.writes
        assert head.endswith('"rows":[') and tail.startswith('],"metadata":')
        # every row opens one bracket, and no number or label holds one
        row_counts = [text.count("[") for text in blocks]
        assert sum(row_counts) == len(json.loads("".join(spy.writes))["rows"]) == rows
        assert len(blocks) > 1 and max(row_counts) <= block


def _table_peak(argv: list[str]) -> int:
    """Largest traced allocation while `main` runs `argv` with its table
    written to the null device: the handler's data and the rendering."""
    tracemalloc.start()
    try:
        assert main(argv + ["--out", os.devnull]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_render_memory_does_not_grow_with_the_table(fmt, monkeypatch):
    # the render holds one block, not the table, and the map one tile: 16 times
    # the rows, about the same peak, which moves only with the rows of a block
    # and of a tile (tiles of at most 4096 values here, 40 and 11 x rows)
    monkeypatch.setattr(catgate.cli, "_BLOCK_ROWS", 512)
    monkeypatch.setattr(catgate.wigner, "_CHUNK_VALUES", 1 << 12)
    peaks = []
    for count in (101, 101, 401):  # the first run fills the formatter's caches
        argv = ["wigner", "--n", "10", f"--x-range=-6:6:{count}", f"--p-range=-9:9:{count}",
                "--format", fmt]
        peaks.append(_table_peak(argv))
    assert peaks[2] < 1.25 * peaks[1]


def test_render_memory_of_plain_columns_is_one_block():
    # a block's cells, matrix and text go before the next block is formatted, so
    # four blocks of two plain columns peak where one does: 0.34 MB
    rows = catgate.cli._BLOCK_ROWS
    rng = np.random.default_rng(3)
    peaks = []
    for count in (rows, rows, 4 * rows):  # the first run fills the formatter's caches
        a, b = rng.standard_normal(count), rng.standard_normal(count)
        blocks = ([a[i : i + rows], b[i : i + rows]] for i in range(0, count, rows))
        tracemalloc.start()
        try:
            with open(os.devnull, "w") as stream:
                for chunk in catgate.cli._render_csv(["a", "b"], [None, None], blocks):
                    stream.write(chunk)
                    del chunk
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[2] <= peaks[1] + 64e3


def test_table_memory_beyond_the_map_does_not_grow(monkeypatch):
    # the x and p columns' indices are made a block at a time, and the map a
    # tile at a time (at most 8192 values here): 16 times the rows, the same
    # peak, map included (an index as long as the table would add 2.4 MB here,
    # and a held map 4.8 MB)
    monkeypatch.setattr(catgate.wigner, "_CHUNK_VALUES", 1 << 13)
    peaks = []
    for count in (201, 201, 801):  # the first run fills the formatter's caches
        argv = ["wigner", "--n", "10", f"--x-range=-6:6:{count}", f"--p-range=-9:9:{count}"]
        peaks.append(_table_peak(argv))
    assert peaks[2] < peaks[1] + 256e3


def test_map_peak_does_not_grow_with_the_map():
    # a CSV map is printed a tile of x rows at a time (65 and 32 rows here, at
    # most _CHUNK_VALUES values): the 2001^2 map peaks about 90 kB above the
    # 1001^2 one, the axes' values and their formatted text, where the held
    # map took 24 MB more
    peaks = []
    for count in (1001, 1001, 2001):  # the first run fills the formatter's caches
        argv = ["wigner", "--n", "10", f"--x-range=-6:6:{count}", f"--p-range=-9:9:{count}"]
        peaks.append(_table_peak(argv))
    assert peaks[2] <= peaks[1] + 128e3


def test_map_peak_is_one_tile_and_one_render_block():
    # the 401^2 map at n = 10 is made in tiles of 163 x rows, each let go
    # before the next is made, so the peak is one tile, one render block of
    # x, p and W (0.42 MB traced at 2048 rows) and 0.1 MB: 1.00 MB traced,
    # where a handler that kept its first tile for the whole run took 1.54 MB
    argv = ["wigner", "--n", "10", "--x-range=-6:6:401", "--p-range=-9:9:401"]
    _table_peak(argv)  # fills the formatter's caches
    tile = 8 * (catgate.wigner._CHUNK_VALUES // 401) * 401
    assert _table_peak(argv) <= tile + 0.42e6 + 0.1e6


def test_wigner_engines_peak_is_one_map_plus_one_tile_or_the_oracle_slice_and_block():
    # the oracle runs first and whole, then beside it the closed form is made,
    # checked and printed a tile of x rows at a time (301 and 100 rows here),
    # so handler and render hold the oracle's map and at most the larger of:
    # the oracle's kernel slice (1201 x 52 complex) and block of correlation
    # rows (32 x 1201 complex); a tile with one chunk of orders and one block
    # of partial products (_CHUNK_VALUES values each); a tile and one render
    # block. 3.31 MB traced, in the first tile, where two held maps took 3.63 MB
    argv = ["wigner", "--n", "300", "--engine", "both", "--x-range=-6:6:401",
            "--p-range=-29:29:401"]
    _table_peak(argv)  # fills the formatter's caches
    peak = _table_peak(argv)
    tile, chunk = 301 * 401, catgate.wigner._CHUNK_VALUES
    phases = (2 * 1201 * (52 + catgate.wigner._BLOCK_ROWS), tile + 2 * chunk, tile + 0.35e6 / 8)
    assert peak <= 8 * (401 * 401 + max(phases)) + 0.1e6


def test_scl_map_peak_per_sample(tmp_path):
    # the disk keeps its lattice and its images' preimage rows, and every
    # column is computed a block at a time: about 38 bytes a sample at 200000
    # samples (56.8 when the q column's text and the table's rows were held,
    # 87.2 when the image momenta were stored too)
    samples = 200_000
    argv = ["scl-map", "--n", "4", "--ym", "3", "--x0", "3", "--p0", "3",
            "--samples", str(samples), "--out", str(tmp_path / "map.csv")]
    assert main(argv) == 0  # fills the formatter's caches
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 42 * samples


@pytest.mark.parametrize("engine", ["mehler", "both"])
def test_wigner_request_computes_its_norm_once(engine, monkeypatch):
    # default_axes, the closed form and the oracle each need M_n, which one
    # request computes once between them
    norm, calls = catgate.wigner.outcome_norm, []
    monkeypatch.setattr(catgate.wigner, "outcome_norm", lambda n, d: calls.append(n) or norm(n, d))
    catgate.wigner._conditional_norm.cache_clear()
    assert main(["wigner", "--n", "3", "--engine", engine, "--out", os.devnull]) == 0
    assert calls == [3]


def test_wigner_past_the_double_range_is_quiet(capsys):
    # (x - x0)^2 and x^2/2 overflow above |x| ~ 1.3e154, where W is 0
    argv = ["wigner", "--n", "1", "--x-range=-1e200:1e200:3", "--p-range=-1:1:3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    w = [row.split(",")[2] for row in captured.out.splitlines()[1:]]
    assert w[:3] == w[6:] == ["0"] * 3 and "0" not in w[3:6]


def test_g17_cells_peak_per_value():
    # the formatter forms its steps over arrays it has spent and gathers the
    # cells a few hundred at a time: 80 bytes a value at 8192 values
    rng = np.random.default_rng(5)
    values = rng.standard_normal(8192) * 10.0 ** rng.integers(-6, 6, 8192)
    catgate.cli._g17_cells(values)  # fills the formatter's caches
    tracemalloc.start()
    try:
        catgate.cli._g17_cells(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 88 * values.size


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


@pytest.mark.parametrize(
    "argv, outcome",
    [
        # named in the caller's frame, not in the shifted frame of scan_grid
        (["fidelity-scan", "--n", "1", "--x0", "1e9"], "y_m=0.0 for input x0=1000000000.0"),
        # refused on the density, before any default axis is built or used
        (["wigner", "--n", "1", "--ym", "1e300", "--x-range=0:1:3", "--p-range=0:1:3"],
         "y_m=1e+300 for input x0=0.0"),
        (["wigner", "--n", "1", "--ym", "1e300"], "y_m=1e+300 for input x0=0.0"),
    ]
    # y_m - x0 overflows to -inf, where the density is 0
    + [([command, "--n", "1", "--x0", "1e308", "--ym=-1e308"], "y_m=-1e+308 for input x0=1e+308")
       for command in ("cat-fidelity", "fidelity-scan", "wigner")]
    # the oracle, which runs first under --engine both, refuses by the same rule
    + [(["wigner", "--n", "1", "--ym", "1e300", "--engine", "both", "--x-range=0:1:3",
         "--p-range=0:1:3"], "y_m=1e+300 for input x0=0.0")],
)
def test_outcome_without_density_is_refused_on_the_density(argv, outcome, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == f"outcome {outcome} has density 0.0; conditional state undefined\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, spacing, magnitude, ulp",
    [
        # default axes 0.06 and 0.05 apart where doubles are 0.125 apart
        (["wigner", "--n", "1", "--ym", "1e15", "--x0", "1e15"], "0.06", "1e+15", "0.125"),
        (["prob-density", "--n", "1", "--x0", "1e15"], "0.05", "1e+15", "0.125"),
        # x0 -/+ 6 round to one double
        (["wigner", "--n", "1", "--ym", "1e17", "--x0", "1e17"], "0", "1e+17", "16"),
    ],
)
def test_default_axis_of_indistinct_points_exits_2(argv, spacing, magnitude, ulp, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"invalid configuration: grid spacing {spacing} is too fine at |x| = {magnitude}, "
        f"where doubles are {ulp} apart, so its points would not be distinct\n")
    assert captured.out == ""


def test_default_density_axis_far_out_keeps_distinct_outcomes(capsys):
    assert main(["prob-density", "--n", "1", "--x0", "1e9"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len({row.split(",")[1] for row in rows}) == len(rows) == 201


def test_wigner_engine_quadrature_is_refused(capsys):
    # the oracle prints only beside the closed form, under --engine both
    with pytest.raises(SystemExit) as info:
        main(["wigner", "--n", "1", "--engine", "quadrature"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1].startswith(
        "catgate wigner: error: argument --engine: invalid choice: 'quadrature'")
    assert captured.out == ""


def test_quadrature_oracle_over_budget_exits_3(capsys):
    # the state grid would run from the axis to x0 - 9 = 1e17 - 9 at 0.02 spacing; the
    # oracle runs before the closed form, which succeeds there
    argv = ["wigner", "--n", "1", "--ym", "1e17", "--x0", "1e17", "--engine", "both",
            "--x-range=-1:1:3", "--p-range=0:1:3"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "quadrature oracle needs 5000000000000001125 state-grid points for 3 axis points, "
        "over its budget of 5000000 for their product\n")
    assert captured.out == ""


def test_quadrature_kernel_over_budget_exits_3(capsys, monkeypatch):
    def build(*args):
        raise AssertionError("the kernel was built")

    monkeypatch.setattr(catgate.wigner, "_fourier_kernel", build)
    # 901 state-grid points times 6001 p points: the e^{2ipz} kernel would take 87 MB
    argv = ["wigner", "--n", "1", "--engine", "both", "--x-range=-1:1:3", "--p-range=-1:1:6001"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "quadrature oracle needs 901 state-grid points for 6001 p-axis points, "
        "over its budget of 5000000 for their product\n")
    assert captured.out == ""


def test_density_at_overflowed_offset_is_zero(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["prob-density", "--n", "1", "--x0", "1e308", "--ym=-1e308"]) == 0
    assert capsys.readouterr().out.splitlines() == ["n,y_m,x0,P", "1,-1e+308,1e+308,0"]


def test_scl_map_at_overflowed_offset_drops_every_sample(capsys):
    argv = ["scl-map", "--n", "1", "--ym", "1e308", "--x0=-1e308", "--samples", "8"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows and all(row.startswith("source,-1e+308,") for row in rows)


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


def _default_axes_mass(n: int, y_m: float, text: str) -> float:
    w = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, usecols=2)
    x_axis, p_axis = default_axes(GateParams(n, y_m), CoherentParams(0.0, 0.0))
    return WignerGrid(x_axis, p_axis, w.reshape(x_axis.count, p_axis.count)).total_mass()


def test_wigner_default_axes_follow_far_outcome(capsys):
    # at n = 4, y_m = 25 the state sits near x_c = 12.5, between x0 and y_m
    assert main(["wigner", "--n", "4", "--ym", "25"]) == 0
    assert abs(_default_axes_mass(4, 25.0, capsys.readouterr().out) - 1.0) < 1e-6


def test_wigner_default_axes_reach_far_state(capsys):
    # at n = 1000, y_m = 30 the state sits near x0 = 0, 30 away from y_m,
    # where the first Hermite row e^{-(x - y_m)^2} is below the double range
    assert main(["wigner", "--n", "1000", "--ym", "30"]) == 0
    assert abs(_default_axes_mass(1000, 30.0, capsys.readouterr().out) - 1.0) < 1e-6


def test_fidelity_scan_keeps_state_beyond_hermite_start_range(capsys):
    # at n = 3000, x0 = 60 the input sits inside the band of radius 77.5 but
    # past |x - y_m| = 38.6, where h_0 = pi^{-1/4} e^{-x^2/2} underflows; the
    # output is still close to its semiclassical form (F_scl = 0.99992)
    assert main(["fidelity-scan", "--n", "3000", "--x0", "60"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split(",")[-1] == "F_scl"
    assert float(row.split(",")[-1]) >= 0.9999


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
    # the printed text: a cell without the NULs of its empty places
    cells = [cell.replace(b"\0", b"") for cell in catgate.cli._g17_cells(values).tolist()]
    expected = [b"%.17g" % v for v in values.tolist()]
    assert [(v, c) for v, c, e in zip(values.tolist(), cells, expected) if c != e] == []
