"""Traced run: spans and counts at the program's layer boundaries.

The tracer wraps, from outside ``src/``, the names through which the
program's modules call one another, plus the functions the benchmark calls
directly.  A layer is a module of ``spehline``; a wrapped name belongs to
the module that defines the function it calls.  Each call records a span
(name, start, end, parent span, job id).  Spans stay in memory and are
written out when the run ends.  A layer's self time is the time of its
spans minus the time of their child spans, and its ``calls`` count the
spans that enter the layer from outside it.
"""

from __future__ import annotations

import inspect
import json
import os
from collections import Counter
from time import perf_counter

from spehline import cli, congruence, diagrams, formal, ledger, torsion, zline

LAYERS = ("cli", "jsonio", "congruence", "diagrams", "formal", "zline", "ledger", "torsion", "render")

# the names cli imports are found by inspection; the rest are listed
CROSS_MODULE = {
    congruence: ("constituent_sum", "torsion_dimension"),
    ledger: ("normalized_product", "ordered_product"),
}
# called by the benchmark's jobs
JOB_CALLS = {
    cli: ("main",),
    ledger: ("expand_resolution", "group_by_stratum"),
    torsion: ("torsion_transfer_label",),
    congruence: ("d_sequence", "infer_B", "expected_contributions"),
    zline: ("jacquet_cuts",),
}
GROTH_OPERATORS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "items", "of", "zero")


def _size(x) -> int:
    return len(x) if hasattr(x, "__len__") else 0


def _formal_counts(counts, args, result):
    counts["formal.terms_touched"] += sum(_size(a) for a in args if isinstance(a, formal.GrothSum))
    counts["formal.terms_out"] += _size(result)


def _json_bytes_in(counts, args, result):
    counts["jsonio.bytes_in"] += os.fstat(args[0].fileno()).st_size


# size counts read off a wrapped call's arguments and result
COUNTERS = {
    "cli.dataset_from_dict": lambda c, a, r: c.update({"jsonio.records_in": len(a[0].get("data", ()))}),
    "cli.canonical_dumps": lambda c, a, r: c.update({"jsonio.bytes_out": len(r)}),
    "cli.superpose": lambda c, a, r: c.update({"diagrams.points_out": len(r)}),
    "cli.diagram": lambda c, a, r: c.update({"diagrams.points_out": len(r)}),
    "cli.ascii_diagram": lambda c, a, r: c.update({"render.bytes_out": len(r)}),
    "cli.svg_diagram": lambda c, a, r: c.update({"render.bytes_out": len(r)}),
    "cli.resolution_terms": lambda c, a, r: c.update({"ledger.terms_out": len(r)}),
    "cli.filtration_graded": lambda c, a, r: c.update({"ledger.terms_out": len(r)}),
    "ledger.expand_resolution": lambda c, a, r: c.update({"ledger.terms_out": len(r)}),
    "ledger.group_by_stratum": lambda c, a, r: c.update({"ledger.terms_out": sum(map(len, r.values()))}),
    "zline.jacquet_cuts": lambda c, a, r: c.update({"zline.cuts_out": len(r)}),
    "congruence.d_sequence": lambda c, a, r: c.update(
        {"congruence.table_cells": sum(map(len, r.values.values()))}
    ),
}


class _JsonProxy:
    """Stands in for the ``json`` module inside ``cli`` with a wrapped ``load``."""

    def __init__(self, load):
        self.load = load

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index, job]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.job = None
        self._undo: list[tuple] = []

    # ------------------------------------------------------------ wrapping

    def _span(self, name: str, layer: str, fn, counter=None):
        idx = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        spans, stack, counts, layer_of = self.spans, self.stack, self.counts, self.layer_of

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [idx, 0.0, 0.0, parent, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            # count work where it enters the layer, so a layer's internal
            # calls (GrothSum.__sub__ calling __add__) are not counted twice
            if counter is not None and (parent < 0 or layer_of[spans[parent][0]] != layer):
                counter(counts, args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _count(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        imported = [
            (name, fn)
            for name, fn in vars(cli).items()
            if inspect.isfunction(fn) and fn.__module__.startswith("spehline.") and fn.__module__ != cli.__name__
        ]
        for name, fn in imported:
            full = f"cli.{name}"
            self._patch(cli, name, self._span(full, _layer(fn), fn, COUNTERS.get(full)))
        self._patch(cli, "json", _JsonProxy(self._span("cli.json.load", "jsonio", json.load, _json_bytes_in)))
        for module, names in CROSS_MODULE.items():
            for name in names:
                fn = getattr(module, name)
                self._patch(module, name, self._span(f"{_short(module)}.{name}", _layer(fn), fn))
        for module, names in JOB_CALLS.items():
            for name in names:
                full = f"{_short(module)}.{name}"
                self._patch(module, name, self._span(full, _short(module), getattr(module, name), COUNTERS.get(full)))
        cls = formal.GrothSum
        for op in GROTH_OPERATORS:
            raw = cls.__dict__[op]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._span(f"GrothSum.{op}", "formal", raw.__func__, _formal_counts))
            else:
                wrapped = self._span(f"GrothSum.{op}", "formal", raw, _formal_counts)
            self._patch(cls, op, wrapped)
        self._patch(diagrams, "m_indicator", self._count("diagrams.indicator_calls", diagrams.m_indicator))
        self._patch(
            zline.Multisegment,
            "__post_init__",
            self._count("zline.multisegments_built", zline.Multisegment.__post_init__),
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------- reading

    def layer_totals(self) -> dict[str, float]:
        """Per layer: calls entering it and self time (span minus children)."""
        child = [0.0] * len(self.spans)
        for idx, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {f"{layer}.{key}": 0.0 for layer in LAYERS for key in ("calls", "self_s")}
        for sid, (idx, start, end, parent, _) in enumerate(self.spans):
            layer = self.layer_of[idx]
            out[f"{layer}.self_s"] += end - start - child[sid]
            if parent < 0 or self.layer_of[self.spans[parent][0]] != layer:
                out[f"{layer}.calls"] += 1
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "layers": self.layer_of}, fh)
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _layer(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]
