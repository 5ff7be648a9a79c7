"""The README examples run as written and give the results they state."""

from __future__ import annotations

import argparse
import json
import re
import shlex
from pathlib import Path

from spehline import DiagramPoint, GlobalContext, generate_dataset, substitute_cuspidal
from spehline.cli import build_parser, main
from spehline.jsonio import canonical_dumps, component_from_dict, dataset_to_dict

from support import PI, PI_TWIN

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def fenced(lang: str, after: str) -> str:
    """The first ``lang`` code block following the heading ``after``."""
    match = re.search(rf"^## {after}\n.*?```{lang}\n(.*?)```", README, re.S | re.M)
    assert match, f"no {lang} block under '## {after}'"
    return match.group(1)


def section(heading: str) -> str:
    """The text of the section under ``## heading``."""
    match = re.search(rf"^## {heading}\n(.*?)(?=^## )", README, re.S | re.M)
    assert match, f"no section '## {heading}'"
    return match.group(1)


def section_blocks(lang: str, heading: str) -> list[str]:
    """Every ``lang`` code block in the section under ``## heading``."""
    return re.findall(rf"```{lang}\n(.*?)```", section(heading), re.S)


def key_paths(doc, at: str = "") -> set[str]:
    """The dotted path of every key in a JSON document; list items share their list's path."""
    if isinstance(doc, dict):
        paths = set()
        for key, value in doc.items():
            paths |= {at + key} | key_paths(value, f"{at}{key}.")
        return paths
    if isinstance(doc, list):
        return set().union(*(key_paths(item, at) for item in doc))
    return set()


def cli_lines() -> list[list[str]]:
    """The README's ``spehline`` command lines, as argument lists."""
    lines = []
    for line in fenced("sh", "Command line").splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "spehline"
        lines.append(argv[1:])
    return lines


def test_quick_tour(tmp_path, monkeypatch, capsys):
    """The tour, then every command line in order, in the directory the tour wrote to."""
    monkeypatch.chdir(tmp_path)
    ns: dict = {}
    exec(compile(fenced("python", "Quick tour"), "README.md", "exec"), ns)
    sl = ns["sl"]
    assert sl.trace_back(ns["component"], DiagramPoint(4, 0), 3) == DiagramPoint(8, 0)
    verdict = sl.theorem_check(ns["ds"], ns["pi"], ns["twin"], ns["pi2"], r=4, s=2)
    assert verdict.equal is True
    assert "degree 12" in capsys.readouterr().out
    terms = sl.resolution_terms(ns["ctx"], 2, ns["inf"])
    assert [(source, target) for source, target, _ in ns["arrows"]] == list(zip(terms[1:-1], terms))
    for argv in cli_lines():
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if "--out" in argv:
            assert out == "" and Path(argv[argv.index("--out") + 1]).read_text().startswith("<svg")
        elif "--report" in argv:  # the tour's two datasets
            assert out == "equal\n"
        else:
            assert out


def test_single_square_line(capsys):
    assert ["diagram", "--s", "1", "--t", "3", "--ascii"] in cli_lines()
    assert main(["diagram", "--s", "1", "--t", "3", "--ascii"]) == 0
    out = capsys.readouterr().out
    assert out.count("#") == 1
    zero_row = next(line for line in out.splitlines() if line.startswith("i=  0"))
    assert zero_row.split("| ")[1].split() == [".", ".", "#"]


def test_component_file_example(tmp_path):
    (block,) = section_blocks("json", "Command line")
    component = component_from_dict(json.loads(block))
    assert component.s == 4 and [(t, base.id) for t, base in component.factors] == [(1, "pi"), (3, "pi")]
    (tmp_path / "c.json").write_text(block, encoding="utf-8")
    assert main(["diagram", "--component", str(tmp_path / "c.json")]) == 0


def test_command_line_names_every_flag():
    (subcommands,) = [
        action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)
    ]
    flags = {
        flag
        for sub in subcommands.choices.values()
        for action in sub._actions
        for flag in action.option_strings
    }
    named = set(re.findall(r"--[a-z][a-z-]*", section("Command line")))
    assert named == flags - {"-h", "--help"}


def test_output_files_document_every_field(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    documented = [json.loads(block) for block in section_blocks("json", "Output files")]
    outputs = []
    for argv in (
        ["diagram", "--s", "3", "--t", "2", "--json"],
        ["resolution", "--d", "4", "--g", "1", "--t", "2", "--json"],
        ["filtration", "--d", "4", "--g", "1", "--t", "2", "--json"],
    ):
        main(argv)
        outputs.append(json.loads(capsys.readouterr().out))
    ds = generate_dataset(5, GlobalContext(d=12, pi=PI), r=4)
    twin = dataset_to_dict(substitute_cuspidal(ds, PI, PI_TWIN))
    twin["data"][0]["m"] += 1  # an unequal pair, so the report has diffs
    Path("a.json").write_text(canonical_dumps(dataset_to_dict(ds)))
    Path("b.json").write_text(canonical_dumps(twin))
    s = str(ds.data[0].local.s)
    assert main(["congruence", "a.json", "b.json", "--r", "4", "--s", s, "--report", "r.json"]) == 1
    outputs.append(json.loads(Path("r.json").read_text()))

    diagram_doc, resolution_doc, filtration_doc, report_doc = outputs
    points = [(p["r"], p["i"]) for p in diagram_doc["points"]]
    assert points == sorted(points)
    assert report_doc["diffs"]
    written = [diagram_doc, resolution_doc, report_doc]
    assert [key_paths(doc) for doc in documented] == [key_paths(doc) for doc in written]
    # the documented versions are the written ones, so a schema bump shows here
    assert [doc["schema_version"] for doc in documented] == [
        doc["schema_version"] for doc in written
    ]
    assert key_paths(filtration_doc) == key_paths(resolution_doc)
