from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

import catgate
from catgate.cli import RunConfig, build_parser, main, run
from catgate.gate import GateParams, perfect_cat
from catgate.metrics import AcceptanceWindow, mixed_fidelity, outcome_density, window_probability
from catgate.numerics import Grid1D
from catgate.phase_map import map_disk
from catgate.states import CoherentParams
from catgate.wigner import wigner_cat_reference, wigner_mehler, wigner_output_quadrature


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
    assert timings["compute_seconds"] >= 0.0


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


def test_conflicting_outcome_flags_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["cat-fidelity", "--n", "1", "--ym", "2", "--ym-equals-x0"])
    assert info.value.code == 2


def test_malformed_n_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["cat-fidelity", "--n", "one"])
    assert info.value.code == 2
    assert "--n expects integers" in capsys.readouterr().err


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
    ],
)
def test_non_finite_parameters_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid configuration:")
    assert captured.out == ""


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
            window = AcceptanceWindow(0.0, d)
            rows.append([n, 0.0, d, mixed_fidelity(n, 0.0, window),
                         window_probability(n, 0.0, window)])
    echo = {"n": [1, 2], "x0": 0.0, "d": [0.2, 0.5]}
    return argv, echo, ["n", "x0", "d", "F_mix", "P"], rows, {}


@pytest.mark.parametrize(
    "table", [_wigner_table, _scl_map_table, _prob_density_table, _mixed_fidelity_table]
)
def test_renderer_matches_row_by_row_rule(table, capsys):
    argv, echo, columns, rows, metadata = table()
    assert main(argv) == 0
    assert capsys.readouterr().out == _reference_csv(columns, rows)
    assert main(argv + ["--format", "json"]) == 0
    config = {"command": argv[0], "parameters": echo, "format": "json", "out": None}
    document = {"config": config, "columns": columns, "rows": rows, "metadata": metadata}
    assert capsys.readouterr().out == _reference_json(document) + "\n"


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert catgate.__version__ == re.search(r'^version = "([^"]+)"', text, re.M).group(1)
