"""README's examples run as documented: the Python quick start executes, and
each `$ catgate ...` shell transcript is the command's output byte for byte."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from catgate.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```$", README, flags=re.M | re.S)


def _transcripts() -> dict[str, str]:
    """The printed output of each `$ catgate` line in a shell block."""
    found = {}
    for lang, body in BLOCKS:
        if lang == "sh":
            found.update(re.findall(r"^\$ (catgate .*)\n((?:[^$\n].*\n)*)", body, flags=re.M))
    return found


TRANSCRIPTS = _transcripts()


def test_python_quick_start_runs():
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})


@pytest.mark.parametrize(
    "command", ["catgate cat-fidelity --n 1,5,15", "catgate prob-density --n 0 --ym 0"]
)
def test_shell_transcript_matches_output(command, capsys):
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == TRANSCRIPTS[command]
