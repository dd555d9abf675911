"""The README's examples run as written, from a directory that holds a copy
of tests/fixtures."""

from __future__ import annotations

import re
import shlex
import shutil
from pathlib import Path

import pytest

from conftest import FIXTURES
from mixdom.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text()


def _block(heading: str, language: str) -> str:
    """The first fenced block of the given language after the heading."""
    section = README[README.index(heading):]
    match = re.search(rf"```{language}\n(.*?)```", section, re.DOTALL)
    assert match, heading
    return match.group(1)


@pytest.fixture
def checkout(tmp_path, monkeypatch):
    shutil.copytree(FIXTURES, tmp_path / "tests" / "fixtures")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_library_quick_start_prints_its_commented_values(checkout):
    code = _block("## Library quick start", "python")
    expected = [
        int(re.match(r"\s*(\d+)", line.split("#", 1)[1]).group(1))
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    printed = []
    exec(code, {"print": printed.append})
    assert expected == [2, 2, 2, 2]
    assert printed == expected


def test_command_line_examples_exit_zero(checkout, capsys):
    lines = [
        line for line in _block("## Command line", "sh").splitlines()
        if line.startswith("mixdom ")
    ]
    assert lines
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, (line, capsys.readouterr().err)
    capsys.readouterr()
