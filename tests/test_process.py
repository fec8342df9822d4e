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
    # a handler that reached a module as an attribute of the package would
    # load every public module, and fail this
    run = "import contextlib, io\nfrom catgate.cli import main\n"
    run += "with contextlib.redirect_stdout(io.StringIO()):\n    assert main({}) == 0"
    common = {"catgate", "catgate.cli", "catgate.errors", "catgate.numerics", "catgate.gate",
              "catgate.states"}
    for argv, module in [
        (["fidelity-scan", "--n", "1"], "metrics"),
        (["cat-fidelity", "--n", "1"], "metrics"),
        (["prob-density", "--n", "1", "--ym", "0"], "metrics"),
        (["mixed-fidelity", "--n", "1", "--d", "0.1"], "metrics"),
        (["wigner", "--n", "1", "--x-range=-1:1:3", "--p-range=-1:1:3"], "wigner"),
        (["scl-map", "--n", "1", "--samples", "8"], "phase_map"),
    ]:
        assert _loaded(run.format(argv)) == common | {f"catgate.{module}"}, argv
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
        "[]",  # import binds only the version and the list of public modules
        "[]",
        "[]",
        "module 'catgate' has no attribute 'no_such_name'",
    ]


STAR = """
before = set(globals())
from catgate import *
bound = set(globals()) - before - {"before"}
import catgate
print(*sorted(bound))
print(*sorted(catgate.__all__))
"""


def test_star_import_binds_exactly_the_public_names():
    child = _python(STAR)
    assert child.returncode == 0, child.stderr.decode()
    bound, public = child.stdout.decode().splitlines()
    assert bound == public and "wigner_mehler" in bound.split()


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
        # every width is checked before a valid one can fail on its turning point
        (["mixed-fidelity", "--n", "1", "--d", "10,0"], 2),
        # rows past the double range are rescaled without an overflow warning
        (["wigner", "--n", "1000", "--ym", "30", "--x-range=-6:6:61", "--p-range=-50:50:101"], 0),
    ],
)
def test_exit_freeze_keeps_output_and_status(argv, status, tmp_path, capsys):
    target = tmp_path / "table"
    assert main(argv) == status
    expected = capsys.readouterr()
    # a failed run prints no partial table
    assert status == 0 or expected.out == ""
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


def test_closed_pipe_ends_the_run_quietly():
    # the 601 x 601 map is 21 MB of CSV, many pipe buffers, so the reader is
    # gone long before the last write; with a short table the outcome would
    # depend on timing
    argv = ["wigner", "--n", "10", "--x-range=-6:6:601", "--p-range=-9:9:601"]
    child = subprocess.Popen([sys.executable, "-m", "catgate.cli", *argv], env=ENV,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert child.stdout.read(4096).startswith(b"x,p,W\n")
    child.stdout.close()
    assert child.wait(timeout=60) == 1
    assert child.stderr.read() == b""
    child.stderr.close()


# The address space capped at 1.5 GB before NumPy loads: the one tile of the
# 22921 x 22921 default map at n = 2e6, 4.2 GB, and the 1001 x 3000001 Poisson
# matrix of the densities at n = 3e6, 22.4 GiB, would end in MemoryError (exit 1)
OVER_BUDGET = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))
from catgate.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_map_over_the_tile_budget_exits_3():
    child = _python(OVER_BUDGET, "wigner", "--n", "2000000")
    assert child.returncode == 3, child.stderr.decode()
    assert child.stdout == b""
    assert "over the budget of 8388608 values a tile" in child.stderr.decode()


def test_poisson_matrix_over_its_budget_exits_3():
    child = _python(OVER_BUDGET, "prob-density", "--n", "3000000", "--x-range=-10:10:1001")
    assert child.returncode == 3, child.stderr.decode()
    assert child.stdout == b""
    assert child.stderr.decode() == (
        "Poisson weights of n=3000000 at 1001 points take 3003001001 values and 4194304 log "
        "factorials, over the budget of 67108864 values for each\n")
