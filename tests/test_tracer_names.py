"""Every name the benchmark's tracer patches is where the tracer looks for it.

``perfbench/spans.py`` wraps functions by name in the modules that call
them, and counts calls by patching a few more.  A renamed function or a
dropped import would fail only a traced benchmark run; this test reads
the tracer's name tables from its source, without importing or running
it, and looks each name up in the owner's own ``__dict__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from spehline import cli, congruence, diagrams, formal, ledger, torsion, zline

SPANS = Path(__file__).parent.parent / "perfbench" / "spans.py"
MODULES = {m.__name__.rsplit(".", 1)[-1]: m for m in (cli, congruence, diagrams, formal, ledger, torsion, zline)}


def tables() -> dict[str, ast.expr]:
    """The module-level assignments of the tracer's source, by name."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    return {
        node.targets[0].id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
    }


def by_module(name: str) -> list[tuple[str, str]]:
    """``(module, function)`` of a ``{module: (names, ...)}`` table."""
    table = tables()[name]
    assert isinstance(table, ast.Dict)
    return [
        (key.id, fn)
        for key, names in zip(table.keys, table.values)
        for fn in ast.literal_eval(names)
    ]


@pytest.mark.parametrize("table", ["CROSS_MODULE", "JOB_CALLS"])
def test_wrapped_functions_sit_in_their_module(table):
    pairs = by_module(table)
    assert pairs
    for module, fn in pairs:
        assert fn in vars(MODULES[module]), f"{table}: {module}.{fn}"


def test_counted_calls_sit_in_their_module():
    counters = tables()["COUNTERS"]
    assert isinstance(counters, ast.Dict)
    for key in counters.keys:
        module, fn = ast.literal_eval(key).split(".")
        assert fn in vars(MODULES[module]), key


def test_groth_operators_sit_in_the_class():
    operators = ast.literal_eval(tables()["GROTH_OPERATORS"])
    assert operators
    for op in operators:
        assert op in vars(formal.GrothSum), op


def test_patched_counters_and_caches():
    assert "m_indicator" in vars(diagrams)
    assert "__post_init__" in vars(zline.Multisegment)
    # the benchmark reads the memo through modl_key and empties it
    # through the module attributes that have a cache_clear
    assert "cache_info" in vars(congruence.modl_key)
    assert "_traced_terms" in vars(congruence)
    assert callable(congruence._traced_terms.cache_clear)
