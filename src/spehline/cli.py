"""Command-line surface.

Subcommands: ``diagram`` (render a shape or a superposed component),
``resolution`` and ``filtration`` (ledger listings), ``congruence``
(two-sided dataset comparison).  Commands return their exit code and text;
``main`` writes the text (``congruence`` writes ``--report`` itself) and maps
every refusal to its code.  Exit codes are fixed for scripting:

    0  success / verdict equal
    1  verdict unequal
    2  inconsistent input (semantic invariant broken)
    64 usage error, an input or output path that cannot be read or written (an
       empty one is shown as ''), or standard output cannot be written; a pipe
       closed by its reader exits 64 silently
    65 stratum index out of range
    66 schema violation, file not UTF-8 or not JSON, JSON nested too deeply
       to read, or a string UTF-8 cannot encode
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from .congruence import _rows_within_radius, theorem_check
from .diagrams import (
    DiagramPoint,
    LocalComponent,
    constituent,
    diagram,
    m_indicator,
    superpose,
    trace_back,
)
from .jsonio import (
    SchemaError,
    _at,
    canonical_dumps,
    component_from_dict,
    dataset_from_dict,
    diagram_to_dict,
    ledger_listing_text,
    verdict_to_dict,
)
from .ledger import GlobalContext, filtration_graded, generic_infinitesimal, resolution_terms
from .render import ascii_diagram, svg_diagram
from .zline import InertialCuspidal

EX_OK = 0
EX_INCONSISTENT = 2
EX_USAGE = 64
EX_STRATUM = 65
EX_SCHEMA = 66


class _Refusal(Exception):
    """``(exit code, stderr text)``: ``main`` prints the text and returns the code."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 64 instead of argparse's default 2
        raise _Refusal(EX_USAGE, f"{self.format_usage()}error: {message}")

    def print_help(self, file=None):  # flushed: argparse drops a write fault, then exits 0
        file = file or sys.stdout
        file.write(self.format_help())
        file.flush()


# a string UTF-8 cannot encode is a lone surrogate, which a decoded document
# holds only where its text has a surrogate's escape
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE = re.compile("[\ud800-\udfff]")


def _encodable(text: str) -> str:
    """``--pi-id``'s type: a byte argv cannot decode arrives as a lone
    surrogate, refused as in a file, so every id can be written back."""
    if _SURROGATE.search(text):
        raise argparse.ArgumentTypeError("a lone surrogate, which UTF-8 cannot encode")
    return text


class _Decoder(json.JSONDecoder):
    """``json``'s decoder, which walks a text with a surrogate escape and
    refuses its first lone surrogate, in a key or a value, with the path."""

    def decode(self, s: str, *args):
        doc = super().decode(s, *args)
        todo = [("", doc)] if _SURROGATE_ESCAPE.search(s) else []
        while todo:
            path, value = todo.pop()
            if isinstance(value, dict):
                for key, item in reversed(value.items()):
                    at = _at(path, key.encode("utf-8", "backslashreplace").decode())
                    todo += [(at, item), (at, key)]
            elif isinstance(value, list):
                todo += reversed([(f"{path}[{idx}]", item) for idx, item in enumerate(value)])
            elif isinstance(value, str) and _SURROGATE.search(value):
                raise SchemaError(path or ".", "a lone surrogate, which UTF-8 cannot encode")
        return doc


def _read(path: str, build):
    """``build(document at path)``; every fault of the file is refused with its path."""
    doc = _read  # no document is this function: the file is not decoded yet
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, cls=_Decoder)
        return build(doc)
    except OSError as exc:
        raise _Refusal(EX_USAGE, f"error: cannot read {path or repr(path)}: {exc.strerror or exc}")
    except SchemaError as exc:  # a field, or a lone surrogate
        raise _Refusal(EX_SCHEMA, f"schema error: {path}: {exc}")
    except (ValueError, RecursionError) as exc:
        if doc is _read:  # not UTF-8, not JSON, or too deep
            raise _Refusal(EX_SCHEMA, f"error: {path} is not valid JSON: {exc}")
        raise _Refusal(EX_INCONSISTENT, f"inconsistent input: {path}: {exc}")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _Refusal(EX_USAGE, f"error: cannot write {path or repr(path)}: {exc.strerror or exc}")


# -------------------------------------------------------------------- commands


def cmd_diagram(args) -> tuple[int, str]:
    if args.at_r is not None and args.component is None:
        args.parser.error("--at-r needs a --component file")
    if args.component is not None:
        if args.s is not None or args.t is not None:  # the file holds the shape
            args.parser.error("--s and --t are not allowed with --component")
        if args.at_r is not None and args.format is not None:  # a listing has one format
            args.parser.error("--ascii, --json and --svg are not allowed with --at-r")
        component = _read(args.component, component_from_dict)
        if args.at_r is not None:
            return EX_OK, _constituents(component, args.at_r)
        diag = superpose(component)
    else:
        if args.s is None or args.t is None:
            args.parser.error("either --component or both --s and --t are required")
        diag = diagram(args.s, args.t)

    if args.format == "json":
        return EX_OK, canonical_dumps(diagram_to_dict(diag)) + "\n"
    if args.format == "svg":
        return EX_OK, svg_diagram(diag)
    return EX_OK, ascii_diagram(diag, show_counts=args.component is not None)


def _constituents(component: LocalComponent, r: int) -> str:
    p = DiagramPoint(r, 0)
    lines = []
    for k, (t_k, _) in enumerate(component.factors, start=1):
        if not m_indicator(component.s, t_k, r, 0):
            continue
        label = constituent(component, p, k)
        origin = trace_back(component, p, k)
        source = f"comes from {origin}" if origin else "no higher origin"
        lines.append(f"{p} factor {k} (t={t_k}): {label.product_str()}  <- {source}\n")
    if not lines:
        raise _Refusal(EX_INCONSISTENT, f"no support at {p}")
    return "".join(lines)


def cmd_ledger(args) -> tuple[int, str]:
    ctx = GlobalContext(d=args.d, pi=InertialCuspidal(id=args.pi_id, g=args.g, e_pi=args.e_pi))
    if not 1 <= args.t <= ctx.s_g:
        message = f"error: t={args.t} outside 1..s_g={ctx.s_g} for d={ctx.d}, g={ctx.g}"
        raise _Refusal(EX_STRATUM, message)
    inf = generic_infinitesimal(ctx, args.t)
    expand = resolution_terms if args.command == "resolution" else filtration_graded
    terms = expand(ctx, args.t, inf)
    if args.format == "json":
        return EX_OK, ledger_listing_text(ctx.d, ctx.g, args.t, terms) + "\n"
    lines = [
        f"{term.kind} h={term.stratum} sign={term.sign:+d} "
        f"xi={term.xi_power} tate={term.tate} deg={term.degree(ctx.g)} "
        f":: {term.infinitesimal}"
        for term in terms
    ]
    return EX_OK, "\n".join(lines) + "\n"


def cmd_congruence(args) -> tuple[int, str]:
    _rows_within_radius(args.r, args.s)  # flags no file can satisfy: before any read
    ds_a = _read(args.dataset_a, dataset_from_dict)
    ds_b = _read(args.dataset_b, dataset_from_dict)
    verdict = theorem_check(ds_a, ds_a.context.pi, ds_b, ds_b.context.pi, args.r, args.s)
    text = canonical_dumps(verdict_to_dict(verdict)) + "\n"
    if args.report is not None:
        _write(args.report, text)
        text = "equal\n" if verdict.equal else "unequal\n"
    for warning in verdict.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return verdict.exit_code, text


# ---------------------------------------------------------------------- parser


@functools.cache  # parsing keeps no state in the parser, so one serves every call
def build_parser() -> _Parser:
    parser = _Parser(prog="spehline", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_diag = sub.add_parser("diagram", help="render a support diagram")
    p_diag.set_defaults(run=cmd_diagram, parser=p_diag, format=None)
    p_diag.add_argument("--s", type=int, default=None, help="row count")
    p_diag.add_argument("--t", type=int, default=None, help="row length")
    p_diag.add_argument("--component", default=None, help="local component JSON file")
    p_diag.add_argument("--at-r", type=int, default=None, help="list constituents at (r, 0)")
    p_diag.add_argument("--ascii", dest="format", action="store_const", const="ascii")
    p_diag.add_argument("--json", dest="format", action="store_const", const="json")
    p_diag.add_argument("--svg", dest="format", action="store_const", const="svg")
    p_diag.add_argument("--out", default=None, help="write output to a file")

    for name in ("resolution", "filtration"):
        p = sub.add_parser(name, help=f"list the {name} terms at stratum t")
        p.set_defaults(run=cmd_ledger, parser=p, format="text")
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--g", type=int, required=True)
        p.add_argument("--t", type=int, required=True)
        p.add_argument("--e-pi", dest="e_pi", type=int, default=1)
        p.add_argument("--pi-id", dest="pi_id", type=_encodable, default="pi")
        p.add_argument("--json", dest="format", action="store_const", const="json")
        p.add_argument("--out", default=None)

    p_cong = sub.add_parser("congruence", help="compare two datasets")
    p_cong.set_defaults(run=cmd_congruence, parser=p_cong, out=None)
    p_cong.add_argument("dataset_a")
    p_cong.add_argument("dataset_b")
    p_cong.add_argument("--r", type=int, required=True)
    p_cong.add_argument("--s", type=int, required=True)
    p_cong.add_argument("--report", default=None, help="write the JSON report here")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code, text = args.run(args)
        if args.out is not None:
            _write(args.out, text)
        else:
            sys.stdout.write(text)
        sys.stdout.flush()  # a full disk or a closed pipe shows here, not at exit
        return code
    except _Refusal as exc:
        code, text = exc.args
        print(text, file=sys.stderr)
        return code
    except BrokenPipeError:  # the reader has gone: nothing to tell it
        return EX_USAGE
    except (OSError, UnicodeEncodeError) as exc:  # stdout, or its encoding, cannot take the text
        reason = getattr(exc, "strerror", None) or exc
        print(f"error: cannot write standard output: {reason}", file=sys.stderr)
        return EX_USAGE
    except ValueError as exc:  # a constructor or check rejected well-typed input
        print(f"inconsistent input: {exc}", file=sys.stderr)
        return EX_INCONSISTENT


def entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except OSError:  # what main could not write is still buffered: drop it at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
