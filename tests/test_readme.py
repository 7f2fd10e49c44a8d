"""The README's examples run as written: its Python example, and every
``slevolve`` line of its "Command line" block, in order, through
``cli.main`` in a scratch directory."""

import re
import shlex
from pathlib import Path

import pytest

from slevolve import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(after: str, lang: str) -> str:
    """The first fenced ``lang`` block after the line ``after``."""
    tail = README[README.index(after):]
    return re.search(rf"```{lang}\n(.*?)```", tail, re.S).group(1)


@pytest.fixture
def scratch(tmp_path, monkeypatch):
    monkeypatch.delenv("SLEVOLVE_OUTDIR", raising=False)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_python_example_runs(scratch, capsys):
    exec(compile(_block("A quick computation:", "python"), "README.md",
                 "exec"), {})
    assert capsys.readouterr().out


def test_command_lines_run(scratch):
    lines = [ln for ln in _block("## Command line", "sh").splitlines()
             if ln.startswith("slevolve ")]
    assert len(lines) == 9
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line
