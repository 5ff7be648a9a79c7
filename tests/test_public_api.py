"""Every name the package exports earns its place.

A name exported by ``spehline/__init__.py`` must be read somewhere in
``src/`` outside ``__init__``, or named in ``README.md``, or be kept
below with the reason it stays.  So a function that only tests call is
deleted, or kept on purpose, but never exported by accident.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "spehline"
README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")

KEPT = {
    "constituent_sum": "the benchmark's tracer wraps it as a congruence span",
    "expand_resolution": "the benchmark's ledger workload calls it",
    "expected_contributions": "the benchmark's separation workload calls it",
    "group_by_stratum": "the benchmark's ledger workload calls it",
    "i_of_t": "the paper's torsion index, a named object of the paper",
    "members": "tests compare lazily built records by identity through it",
    "strip_adjunction_core": "the paper's t-independent adjunction core",
    "torsion_transfer_label": "the benchmark's ledger workload calls it",
}


def _exported() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def _read_in_src() -> set[str]:
    """Every name loaded, or read as an attribute, in a module other than ``__init__``."""
    names: set[str] = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _in_readme(name: str) -> bool:
    return re.search(rf"\b{re.escape(name)}\b", README) is not None


def test_every_export_is_used_documented_or_kept():
    read = _read_in_src()
    unearned = [
        name
        for name in _exported()
        if name not in read and not _in_readme(name) and name not in KEPT
    ]
    assert unearned == []


def test_every_kept_name_needs_keeping():
    # a kept name that is no longer exported, or is now used or documented,
    # leaves the list
    exported, read = set(_exported()), _read_in_src()
    stale = [
        name
        for name in KEPT
        if name not in exported or name in read or _in_readme(name)
    ]
    assert stale == []
