"""Tests of the benchmark itself: tracer, self-time accounting, output checker.

    python3 -m pytest perfbench

They run small catgate invocations from ./src as child processes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import tracing
from run import CLI_CODE, HERE, child_env, spawn
from workloads import WORKLOADS

ROOT = HERE.parent
ENV = child_env(ROOT / "src")
REFERENCE = json.loads((HERE / "reference.json").read_text())


def _run(tmp_path: Path, argv: list[str], traced: bool = False):
    if traced:
        spans = tmp_path / "spans.json"
        cmd = [sys.executable, str(HERE / "tracing.py"), str(spans), "7", "--", *argv]
    else:
        cmd = [sys.executable, "-c", CLI_CODE, *argv]
    env = dict(ENV, PERFBENCH_PEAK=str(tmp_path / "peak"))
    outcome = spawn(cmd, env, ROOT, tmp_path / "out", tmp_path / "err")
    assert outcome.exit_code == 0, (tmp_path / "err").read_text()
    record = json.loads(spans.read_text()) if traced else None
    return outcome, record


ALIAS_PROBE = """
import json, types, importlib, tracing
replace = tracing.Tracer().install()
originals = set(replace)
modules = [importlib.import_module("catgate")] + [
    importlib.import_module("catgate." + m) for m in tracing.MODULES]
left = []
for mod in modules:
    for attr, obj in vars(mod).items():
        held = list(obj.values()) if isinstance(obj, dict) else [obj]
        left += [f"{mod.__name__}.{attr}" for v in held
                 if isinstance(v, types.FunctionType) and v in originals]
public = [f"{m.__name__}.{a}" for m in modules[1:] for a in m.__all__
          if isinstance(getattr(m, a), types.FunctionType) and getattr(m, a) not in replace.values()]
print(json.dumps({"left": left, "unwrapped_public": public, "wrapped": len(replace)}))
"""


def test_wrapper_leaves_no_unwrapped_alias():
    env = dict(ENV, PYTHONPATH=f"{ROOT / 'src'}:{HERE}")
    out = subprocess.run([sys.executable, "-c", ALIAS_PROBE], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    result = json.loads(out.stdout)
    assert result["left"] == []
    assert result["unwrapped_public"] == []
    assert result["wrapped"] > 30


def test_self_times_of_nested_spans():
    record = {
        "names": ["root", "a", "b"],
        "spans": [[0, 0.0, 10.0, -1], [1, 1.0, 4.0, 0], [2, 2.0, 3.0, 1], [1, 5.0, 9.0, 0]],
    }
    assert tracing.self_times(record) == {"root": 3.0, "a": 6.0, "b": 1.0}


def test_spans_account_for_the_traced_wall_time(tmp_path):
    outcome, record = _run(tmp_path, ["mixed-fidelity", "--n", "1", "--d", "0.1"], traced=True)
    selfs = tracing.self_times(record)
    names = record["names"]
    (root,) = [s for s in record["spans"] if s[3] == -1]
    assert names[root[0]] == tracing.ROOT
    # The untraced gap is interpreter start and exit: positive, and short of the wall time.
    gap = outcome.wall - (root[2] - root[1])
    assert 0 < gap < outcome.wall
    assert min(selfs.values()) > -1e-9
    # The cli.main span agrees with an unwrapped clock reading of the same call ...
    (main,) = [s for s in record["spans"] if names[s[0]] == "cli.main"]
    assert main[2] - main[1] == pytest.approx(record["main_s"], rel=0.01, abs=1e-4)
    # ... and the root span holds nothing but import, install and that call.
    assert selfs[tracing.ROOT] < 0.01 * (root[2] - root[1])
    for name in ("import", "cli.main", "cli.run", "metrics.mixed_fidelity",
                 "numerics.eval_hermite_fn", "gate.taylor_phase"):
        assert name in selfs


def test_counts_repeat_exactly_between_traced_runs(tmp_path):
    argv = ["wigner", "--n", "5", "--engine", "both", "--x-range=-6:6:81", "--p-range=-8:8:81"]
    first = _run(tmp_path, argv, traced=True)[1]["counts"]
    second = _run(tmp_path, argv, traced=True)[1]["counts"]
    assert first == second
    assert first["wigner.mehler.grid_points"] == 81 * 81
    assert first["wigner.quadrature.corr_bytes"] > 0
    assert first["numerics.series.coeff_ops"] > 0


def _key(text: str):
    return next(inv for w in WORKLOADS.values() for inv in w.invocations if inv.key == text)


def _change_digit(value: str) -> str:
    """Alter the third significant digit of a printed number."""
    digits = [i for i, c in enumerate(value) if c.isdigit()]
    lead = next(i for i in digits if value[i] != "0")
    pos = digits[digits.index(lead) + 2]
    return value[:pos] + str((int(value[pos]) + 5) % 10) + value[pos + 1:]


def test_checker_rejects_corrupted_small_table(tmp_path):
    inv = _key("cat-fidelity --n 1:40 --x0 0,1,2")
    _run(tmp_path, list(inv.argv))
    text = (tmp_path / "out").read_bytes()
    ref = REFERENCE[inv.key]
    assert checks.check(inv.argv, inv.exits, 0, text, ref) == []

    lines = text.decode().split("\n")
    cells = lines[17].split(",")
    cells[-1] = _change_digit(cells[-1])
    changed = "\n".join(lines[:17] + [",".join(cells)] + lines[18:]).encode()
    assert checks.check(inv.argv, inv.exits, 0, changed, ref)

    dropped = "\n".join(lines[:30] + lines[31:]).encode()
    assert checks.check(inv.argv, inv.exits, 0, dropped, ref)

    assert checks.check(inv.argv, inv.exits, 3, b"", ref)


def test_checker_rejects_changed_digit_between_sampled_rows(tmp_path):
    inv = _key("wigner --n 5 --x-range=-6:6:81 --p-range=-8:8:81")
    _run(tmp_path, list(inv.argv))
    text = (tmp_path / "out").read_bytes()
    ref = REFERENCE[inv.key]
    assert "checksum" in ref
    assert checks.check(inv.argv, inv.exits, 0, text, ref) == []

    table = checks.parse(text, "csv")
    sampled = set(checks.sample_indices(table.rows))
    row = max((i for i in range(table.rows) if i not in sampled),
              key=lambda i: abs(table.numeric["W"][i]))
    lines = text.decode().split("\n")
    cells = lines[row + 1].split(",")
    cells[2] = _change_digit(cells[2])
    lines[row + 1] = ",".join(cells)
    problems = checks.check(inv.argv, inv.exits, 0, "\n".join(lines).encode(), ref)
    assert any("checksum" in p for p in problems)


def test_known_defects_are_recognized_only_by_their_sign(tmp_path):
    inv = _key("wigner --n 300")
    _run(tmp_path, list(inv.argv))
    problems = checks.check(inv.argv, inv.exits, 0, (tmp_path / "out").read_bytes(),
                            REFERENCE[inv.key])
    assert problems and inv.is_known(problems)
    assert not inv.is_known(checks.check(inv.argv, inv.exits, 1, b"", REFERENCE[inv.key]))

    inv = _key("wigner --n 600")
    assert inv.is_known(checks.check(inv.argv, inv.exits, 2, b"", None))
    assert not inv.is_known(checks.check(inv.argv, inv.exits, 1, b"", None))
    assert checks.check(inv.argv, inv.exits, 3, b"", None) == []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "map-render", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
