"""The README's library tour and CLI examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from pqfs.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _cli_lines():
    """The commands of the block under "## CLI", with continuations joined
    and an optional ``[--flag]`` run both without and with the flag."""
    block = re.search(r"^## CLI\n\n```\n(.*?)^```", README, re.M | re.S).group(1)
    lines = []
    for line in block.replace("\\\n", " ").splitlines():
        optional = re.search(r"\[(--[\w-]+)\]", line)
        if optional:
            lines.append(line.replace(optional.group(0), ""))
            line = line.replace(optional.group(0), optional.group(1))
        lines.append(line)
    return [shlex.split(line) for line in lines]


def test_library_tour_runs():
    tour = re.search(r"^```python\n(.*?)^```", README, re.M | re.S).group(1)
    exec(compile(tour, "README.md", "exec"), {})


def test_cli_block_has_ten_commands():
    argvs = _cli_lines()
    assert len(argvs) == 10 and all(argv[0] == "pqfs" for argv in argvs)


@pytest.mark.parametrize("argv", _cli_lines(), ids=" ".join)
def test_cli_line_exits_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv[1:]) == 0
