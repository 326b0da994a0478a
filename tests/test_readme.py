"""The README's command-line and library examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from qpencil.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(heading, language):
    """The first ``language`` code block after the ``## heading`` line."""
    section = README[README.index(f"## {heading}\n"):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


COMMANDS = [shlex.split(line) for line in fenced_block("Command line", "sh").splitlines()
            if line.startswith("qpencil ")]


def test_readme_lists_the_commands():
    assert len(COMMANDS) == 8


@pytest.mark.parametrize("argv", COMMANDS,
                         ids=[f"{i}-{argv[1]}" for i, argv in enumerate(COMMANDS)])
def test_readme_command_runs(argv, tmp_path, monkeypatch, capsys):
    (tmp_path / "problem.json").write_text(fenced_block("Command line", "json"),
                                           encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(argv[1:]) == 0, capsys.readouterr().err


def test_readme_library_example_runs(capsys):
    exec(compile(fenced_block("Library example", "python"), "README.md", "exec"), {})
    assert "vs oracle" in capsys.readouterr().out
