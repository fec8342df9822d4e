"""What a fresh `catgate` process loads, and how it exits.

Each test runs a child interpreter on this checkout's sources, since both
the modules a process imports and its exit handlers are per-process state.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from catgate.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
# a RuntimeWarning fails a child as pyproject's filterwarnings fails an in-process test
ENV = dict(os.environ,
           PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
           PYTHONWARNINGS="error::RuntimeWarning")


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *args], env=ENV, capture_output=True,
                          timeout=60)


def _loaded(code: str) -> set[str]:
    """The catgate modules, and json, loaded once `code` has run."""
    probe = code + "\nimport sys\nprint(*[m for m in sys.modules if m.split('.')[0] in "
    probe += "('catgate', 'json')])"
    child = _python(probe)
    assert child.returncode == 0, child.stderr.decode()
    return set(child.stdout.decode().splitlines()[-1].split())


def test_cli_import_loads_only_errors_and_numerics():
    assert _loaded("import catgate.cli") == {
        "catgate", "catgate.cli", "catgate.errors", "catgate.numerics"}


def test_command_loads_only_what_it_computes_with():
    run = "import contextlib, io\nfrom catgate.cli import main\n"
    run += "with contextlib.redirect_stdout(io.StringIO()):\n    assert main({}) == 0"
    density = _loaded(run.format(["prob-density", "--n", "1", "--ym", "0"]))
    assert {"catgate.metrics", "catgate.gate", "catgate.states"} <= density
    assert not density & {"catgate.wigner", "catgate.phase_map", "json"}
    assert "json" in _loaded(run.format(["prob-density", "--n", "1", "--ym", "0", "--format",
                                         "json"]))


PUBLIC_NAMES = """
import sys, catgate
fresh = sorted(m for m in sys.modules if m.startswith("catgate."))
missing = [name for name in catgate.__all__ if not hasattr(catgate, name)]
unlisted = sorted(set(catgate.__all__) - set(dir(catgate)))
try:
    catgate.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
print(fresh, missing, unlisted, unknown, sep="\\n")
"""


def test_public_names_resolve_on_first_access():
    child = _python(PUBLIC_NAMES)
    assert child.returncode == 0, child.stderr.decode()
    assert child.stdout.decode().splitlines() == [
        "[]",  # nothing but the version and the name table is needed at import
        "[]",
        "[]",
        "module 'catgate' has no attribute 'no_such_name'",
    ]


# Runs main twice, to stdout and then to the file given first, with a
# reporter registered ahead of main's exit handler, so that it runs after it.
TWICE = """
import atexit, gc, sys
atexit.register(lambda: sys.stderr.write(f"freeze count {gc.get_freeze_count()}\\n"))
from catgate.cli import main
handlers = atexit._ncallbacks()
out, argv = sys.argv[1], sys.argv[2:]
status = main(argv)
assert main(argv + ["--out", out]) == status
sys.stderr.write(f"handlers added {atexit._ncallbacks() - handlers}\\n")
sys.exit(status)
"""


@pytest.mark.parametrize(
    "argv, status",
    [
        (["prob-density", "--n", "0,3", "--x0", "0.5", "--x-range=-2:3:11"], 0),
        (["scl-map", "--n", "4", "--samples", "64", "--format", "json"], 0),
        (["wigner", "--n", "2", "--ym", "inf"], 2),
        (["prob-density", "--n", "1", "--ym", "0", "--timings"], 2),
        (["mixed-fidelity", "--n", "5", "--d", "10"], 3),
    ],
)
def test_exit_freeze_keeps_output_and_status(argv, status, tmp_path, capsys):
    target = tmp_path / "table"
    assert main(argv) == status
    expected = capsys.readouterr()
    assert main(argv + ["--out", str(target)]) == status
    expected_file = target.read_bytes() if status == 0 else None
    capsys.readouterr()
    target.unlink(missing_ok=True)

    child = _python(TWICE, str(target), *argv)
    assert child.returncode == status
    assert child.stdout == expected.out.encode()
    assert (target.read_bytes() if status == 0 else None) == expected_file
    *messages, added, frozen = child.stderr.decode().splitlines(keepends=True)
    assert "".join(messages) == 2 * expected.err
    assert added == "handlers added 1\n"
    assert frozen.startswith("freeze count ") and int(frozen.split()[-1]) > 0
