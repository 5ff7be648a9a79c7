"""Which refusal wins when one call holds an argument fault and a file fault.

Each table crosses the argument faults of one subcommand with the faults
of the file it reads and gives the exit code of every pair.  Every
subcommand follows the one order the README's exit-code section states:

1. parse the command line;
2. check the flags no file enters;
3. read and check each file whole, in the order of the command line;
4. run the checks that need flags and files together;
5. write the output.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from support import run_cli

FIXTURES = Path(__file__).parent / "fixtures"
COMPONENT = json.loads((FIXTURES / "triple_component.json").read_text(encoding="utf-8"))
DATASETS = [
    json.loads((FIXTURES / f"congruence_{side}.json").read_text(encoding="utf-8"))
    for side in "ab"
]


def _version_7(doc: dict) -> None:
    doc["schema_version"] = 7


def _empty_class(doc: dict) -> None:
    doc["cuspidals"][next(iter(doc["cuspidals"]))]["modl_class"] = ""


FILE_FAULTS = ["none", "missing", "not json", "schema", "invariant"]
EDITS = {"schema": _version_7, "invariant": _empty_class}


def _write(tmp_path: Path, name: str, doc: dict, fault: str, edits: dict = EDITS) -> str:
    """``doc`` written to ``name`` with ``fault``: a path to no file, a file
    that is not JSON, or the document after ``edits[fault]``, if any."""
    path = tmp_path / name
    if fault == "missing":
        return str(path)
    if fault == "not json":
        path.write_text("{", encoding="utf-8")
        return str(path)
    doc = copy.deepcopy(doc)
    if fault in edits:
        edits[fault](doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _table(rows: dict, columns: list[str]):
    return [
        (row, column, code)
        for row, codes in rows.items()
        for column, code in zip(columns, codes, strict=True)
    ]


UNWRITABLE = "/nonexistent-dir/out"

# --component file fault, by column; the triple component has support at r = 4 only
DIAGRAM_ARGV = {
    "none": ["--at-r", "4"],
    "--s not an integer": ["--at-r", "4", "--s", "x"],
    "no support at --at-r": ["--at-r", "9"],
    "--out unwritable": ["--at-r", "4", "--out", UNWRITABLE],
}
DIAGRAM = {
    "none": [0, 64, 66, 66, 2],
    "--s not an integer": [64, 64, 64, 64, 64],
    "no support at --at-r": [2, 64, 66, 66, 2],
    "--out unwritable": [64, 64, 66, 66, 2],
}


@pytest.mark.parametrize("argv_fault, file_fault, code", _table(DIAGRAM, FILE_FAULTS))
def test_diagram(tmp_path, argv_fault, file_fault, code):
    path = _write(tmp_path, "c.json", COMPONENT, file_fault)
    assert run_cli("diagram", "--component", path, *DIAGRAM_ARGV[argv_fault])[0] == code


CONFIG = {"d": 12, "g": 3, "e_pi": 1, "pi_id": "pi"}
CONFIG_FAULTS = ["no --config", "missing", "not json", "e_pi not an integer", "good"]
CONFIG_EDITS = {"e_pi not an integer": lambda config: config.update(e_pi="1")}
LEDGER_ARGV = {
    "none": ["--d", "12", "--g", "3", "--t", "1"],
    "no --d, --g": ["--t", "1"],
    "--t not an integer": ["--d", "12", "--g", "3", "--t", "x"],
    "--g 0": ["--d", "12", "--g", "0", "--t", "1"],
    "--d below g": ["--d", "1", "--g", "3", "--t", "1"],
    "--t beyond s_g": ["--d", "12", "--g", "3", "--t", "9"],
    "--out unwritable": ["--d", "12", "--g", "3", "--t", "1", "--out", UNWRITABLE],
}
# every config field is type-checked as the file is read, also one a flag
# overrides; the settings are range-checked after that, g and e_pi with the
# label, then d with the context
LEDGER = {
    "none": [0, 64, 66, 66, 0],
    "no --d, --g": [64, 64, 66, 66, 0],
    "--t not an integer": [64, 64, 64, 64, 64],
    "--g 0": [2, 64, 66, 66, 2],
    "--d below g": [2, 64, 66, 66, 2],
    "--t beyond s_g": [65, 64, 66, 66, 65],
    "--out unwritable": [64, 64, 66, 66, 64],
}


@pytest.mark.parametrize("command", ["resolution", "filtration"])
@pytest.mark.parametrize("argv_fault, file_fault, code", _table(LEDGER, CONFIG_FAULTS))
def test_ledger(tmp_path, command, argv_fault, file_fault, code):
    argv = [command, *LEDGER_ARGV[argv_fault]]
    if file_fault != "no --config":
        argv += ["--config", _write(tmp_path, "config.json", CONFIG, file_fault, CONFIG_EDITS)]
    assert run_cli(*argv)[0] == code


# the first file's fault by row, the second file's by column; the first
# file is read and checked whole before the second is opened
CONGRUENCE = {
    "--r 4 --s 2": {
        "none": [0, 64, 66, 66, 2],
        "missing": [64, 64, 64, 64, 64],
        "not json": [66, 66, 66, 66, 66],
        "schema": [66, 66, 66, 66, 66],
        "invariant": [2, 2, 2, 2, 2],
    },
    # flags no dataset can satisfy are refused before either file is opened
    "--r 4 --s 5": {first: [2] * 5 for first in FILE_FAULTS},
    # the report is written last, once both files have passed
    f"--r 4 --s 2 --report {UNWRITABLE}": {
        "none": [64, 64, 66, 66, 2],
        "missing": [64, 64, 64, 64, 64],
        "not json": [66, 66, 66, 66, 66],
        "schema": [66, 66, 66, 66, 66],
        "invariant": [2, 2, 2, 2, 2],
    },
}


@pytest.mark.parametrize(
    "flags, first, second, code",
    [
        (flags, first, second, code)
        for flags, table in CONGRUENCE.items()
        for first, second, code in _table(table, FILE_FAULTS)
    ],
)
def test_congruence(tmp_path, flags, first, second, code):
    a = _write(tmp_path, "a.json", DATASETS[0], first)
    b = _write(tmp_path, "b.json", DATASETS[1], second)
    assert run_cli("congruence", a, b, *flags.split())[0] == code
