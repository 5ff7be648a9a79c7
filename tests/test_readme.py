"""The README examples run as written and give the results they state."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from spehline import DiagramPoint
from spehline.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def fenced(lang: str, after: str) -> str:
    """The first ``lang`` code block following the heading ``after``."""
    match = re.search(rf"^## {after}\n.*?```{lang}\n(.*?)```", README, re.S | re.M)
    assert match, f"no {lang} block under '## {after}'"
    return match.group(1)


def cli_lines() -> list[list[str]]:
    """The README's ``spehline`` command lines, as argument lists."""
    lines = []
    for line in fenced("sh", "Command line").splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "spehline"
        lines.append(argv[1:])
    return lines


def test_quick_tour(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ns: dict = {}
    exec(compile(fenced("python", "Quick tour"), "README.md", "exec"), ns)
    sl = ns["sl"]
    assert sl.trace_back(ns["component"], DiagramPoint(4, 0), 3) == DiagramPoint(8, 0)
    verdict = sl.theorem_check(ns["ds"], ns["pi"], ns["twin"], ns["pi2"], r=4, s=2)
    assert verdict.equal is True
    assert "degree 12" in capsys.readouterr().out


def test_single_square_line(capsys):
    assert ["diagram", "--s", "1", "--t", "3", "--ascii"] in cli_lines()
    assert main(["diagram", "--s", "1", "--t", "3", "--ascii"]) == 0
    out = capsys.readouterr().out
    assert out.count("#") == 1
    zero_row = next(line for line in out.splitlines() if line.startswith("i=  0"))
    assert zero_row.split("| ")[1].split() == [".", ".", "#"]


@pytest.mark.parametrize(
    "argv",
    [argv for argv in cli_lines() if not any(a.endswith(".json") for a in argv)],
    ids=" ".join,
)
def test_cli_line_without_input_file(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    out = capsys.readouterr().out
    if "--out" in argv:
        written = tmp_path / argv[argv.index("--out") + 1]
        assert out == "" and written.read_text().startswith("<svg")
    else:
        assert out
