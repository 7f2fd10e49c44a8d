"""The README's examples run as written: its Python example, and every
``slevolve`` line of its "Command line" block, in order, through
``cli.main`` in a scratch directory; the numpy-only CI job runs those same
lines through the installed command."""

import re
import shlex
from pathlib import Path

import pytest

from slevolve import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


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


def _command_lines() -> list:
    return [ln for ln in _block("## Command line", "sh").splitlines()
            if ln.startswith("slevolve ")]


def test_command_lines_run(scratch):
    lines = _command_lines()
    assert len(lines) == 9
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line


def test_ci_runs_the_command_lines():
    # the numpy-only job's step for the installed command once ran three
    # of the nine lines; it must run all of them, as the README has them
    job = WORKFLOW.read_text().split("\n  runtime-numpy-only:\n")[1]
    step = job.split("- name: the installed slevolve command")[1]
    step = step.split("\n      - name:")[0]
    ran = [ln.strip() for ln in step.splitlines()
           if ln.strip().startswith("slevolve ")]
    assert ran[0] == "slevolve --version"
    assert ran[1:] == _command_lines()
