"""Command-line surface.

Subcommands: ``diagram`` (render a shape or a superposed component),
``resolution`` and ``filtration`` (ledger listings), ``congruence``
(two-sided dataset comparison).  Exit codes are fixed for scripting:

    0  success / verdict equal
    1  verdict unequal
    2  inconsistent input (semantic invariant broken)
    64 usage error
    65 stratum index out of range
    66 schema violation in an input file
"""

from __future__ import annotations

import argparse
import json
import sys

from .congruence import theorem_check
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
    _fraction,
    _need,
    canonical_dumps,
    component_from_dict,
    dataset_from_dict,
    diagram_to_dict,
    ledger_listing_to_dict,
    verdict_to_dict,
)
from .ledger import (
    GlobalContext,
    filtration_graded,
    generic_infinitesimal,
    resolution_terms,
)
from .render import ascii_diagram, svg_diagram
from .zline import InertialCuspidal

EX_OK = 0
EX_UNEQUAL = 1
EX_INCONSISTENT = 2
EX_USAGE = 64
EX_STRATUM = 65
EX_SCHEMA = 66


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 64 instead of argparse's default 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc.strerror or exc}", file=sys.stderr)
        raise SystemExit(EX_USAGE)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or too deep
        print(f"error: {path} is not valid JSON: {exc}", file=sys.stderr)
        raise SystemExit(EX_SCHEMA)


def _context_from(args, parser: _Parser) -> GlobalContext:
    """Flags override the ``--config`` file, whose fields are type-checked."""
    config = _load_json(args.config) if args.config else {}

    def setting(key: str, typ, default=None):
        flag = getattr(args, key)
        return flag if flag is not None else _need(config, key, typ, "", default)

    d, g = setting("d", int), setting("g", int)
    if d is None or g is None:
        parser.error("d and g are required (flags or config file)")
    pi = InertialCuspidal(id=setting("pi_id", str, "pi"), g=g, e_pi=setting("e_pi", int, 1))
    kappa = _fraction(str(setting("kappa", (str, int, float), "1")))
    return GlobalContext(d=d, pi=pi, kappa=kappa)


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
            raise SystemExit(EX_USAGE)
    else:
        sys.stdout.write(text)


# -------------------------------------------------------------------- commands


def cmd_diagram(args, parser: _Parser) -> int:
    if args.at_r is not None and not args.component:
        parser.error("--at-r needs a --component file")
    if args.component:
        component = component_from_dict(_load_json(args.component))
        if args.at_r is not None:
            return _emit_constituents(component, args.at_r, args.out)
        diag = superpose(component)
    else:
        if args.s is None or args.t is None:
            parser.error("either --component or both --s and --t are required")
        diag = diagram(args.s, args.t)

    if args.format == "json":
        _emit(canonical_dumps(diagram_to_dict(diag)) + "\n", args.out)
    elif args.format == "svg":
        _emit(svg_diagram(diag), args.out)
    else:
        _emit(ascii_diagram(diag, show_counts=args.component is not None), args.out)
    return EX_OK


def _emit_constituents(component: LocalComponent, r: int, out: str | None) -> int:
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
        print(f"no support at {p}", file=sys.stderr)
        return EX_INCONSISTENT
    _emit("".join(lines), out)
    return EX_OK


def cmd_ledger(args, parser: _Parser) -> int:
    ctx = _context_from(args, parser)
    if not 1 <= args.t <= ctx.s_g:
        print(
            f"error: t={args.t} outside 1..s_g={ctx.s_g} for d={ctx.d}, g={ctx.g}",
            file=sys.stderr,
        )
        return EX_STRATUM
    inf = generic_infinitesimal(ctx, args.t)
    expand = resolution_terms if args.command == "resolution" else filtration_graded
    terms = expand(ctx, args.t, inf)
    if args.format == "json":
        listing = ledger_listing_to_dict(ctx.d, ctx.g, args.t, terms)
        _emit(canonical_dumps(listing) + "\n", args.out)
    else:
        lines = [
            f"{term.kind} h={term.stratum} sign={term.sign:+d} "
            f"xi={term.xi_power} tate={term.tate} deg={term.degree(ctx.g)} "
            f":: {term.infinitesimal}"
            for term in terms
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return EX_OK


def cmd_congruence(args, parser: _Parser) -> int:
    obj_a = _load_json(args.dataset_a)
    obj_b = _load_json(args.dataset_b)
    ds_a = dataset_from_dict(obj_a)
    ds_b = dataset_from_dict(obj_b)
    verdict = theorem_check(ds_a, ds_a.context.pi, ds_b, ds_b.context.pi, args.r, args.s)
    report = canonical_dumps(verdict_to_dict(verdict))
    _emit(report + "\n", args.report)
    if args.report:
        print("equal" if verdict.equal else "unequal")
    for warning in verdict.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return verdict.exit_code


# ---------------------------------------------------------------------- parser


def build_parser() -> _Parser:
    parser = _Parser(prog="spehline", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_diag = sub.add_parser("diagram", help="render a support diagram")
    p_diag.set_defaults(run=cmd_diagram, format="ascii")
    p_diag.add_argument("--s", type=int, default=None, help="row count")
    p_diag.add_argument("--t", type=int, default=None, help="row length")
    p_diag.add_argument("--component", default=None, help="local component JSON file")
    p_diag.add_argument(
        "--at-r", type=int, default=None, help="list constituents at (r, 0)"
    )
    p_diag.add_argument(
        "--ascii", dest="format", action="store_const", const="ascii"
    )
    p_diag.add_argument("--json", dest="format", action="store_const", const="json")
    p_diag.add_argument("--svg", dest="format", action="store_const", const="svg")
    p_diag.add_argument("--out", default=None, help="write output to a file")

    for name in ("resolution", "filtration"):
        p = sub.add_parser(name, help=f"list the {name} terms at stratum t")
        p.set_defaults(run=cmd_ledger, format="text")
        p.add_argument("--d", type=int, default=None)
        p.add_argument("--g", type=int, default=None)
        p.add_argument("--t", type=int, required=True)
        p.add_argument("--e-pi", dest="e_pi", type=int, default=None)
        p.add_argument("--pi-id", dest="pi_id", default=None)
        p.add_argument("--kappa", default=None)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--json", dest="format", action="store_const", const="json")
        p.add_argument("--out", default=None)

    p_cong = sub.add_parser("congruence", help="compare two datasets")
    p_cong.set_defaults(run=cmd_congruence)
    p_cong.add_argument("dataset_a")
    p_cong.add_argument("dataset_b")
    p_cong.add_argument("--r", type=int, required=True)
    p_cong.add_argument("--s", type=int, required=True)
    p_cong.add_argument("--report", default=None, help="write the JSON report here")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args, parser)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EX_SCHEMA
    except ValueError as exc:  # a constructor or check rejected well-typed input
        print(f"inconsistent input: {exc}", file=sys.stderr)
        return EX_INCONSISTENT


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
