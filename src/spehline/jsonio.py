"""Canonical JSON forms and schema checking for every file the CLI touches.

Multisegments serialize to a bit-stable canonical form: the segment list
is sorted, keys are emitted in sorted order and the encoding carries no
whitespace, so equal values produce byte-equal documents and file diffs
are meaningful.  Every document written carries a ``schema_version``,
and dataset and component files are read only at ``SCHEMA_VERSION``.

Each input format has one checked reader, which type-checks every field
through :func:`_need` as it reads it and builds the object in the same
pass; a violation raises :class:`SchemaError` with the path of the
field, and the first field read decides which one is reported.
Well-typed values that break an invariant raise the constructor's
``ValueError``.  Dataset files carry the traffic, thousands of records
each, so a record is first read by indexing and exact ``type`` tests; a
record that pass cannot read goes to the checked reader, the only one
that produces errors.  The other formats hold a handful of fields and
have no fast pass.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Iterable

from .congruence import AutomorphicDatum, Dataset, Verdict
from .diagrams import Diagram, LocalComponent
from .ledger import GlobalContext, LedgerTerm
from .torsion import TorsionProfile
from .zline import HalfInt, InertialCuspidal, Multisegment, Wildcard

SCHEMA_VERSION = 1

_REQUIRED = object()
_NULL = type(None)
_TYPE_NAMES = {
    int: "an integer",
    float: "a number",
    str: "a string",
    dict: "an object",
    list: "a list",
    _NULL: "null",
}


class SchemaError(ValueError):
    """A document does not match its schema; ``path`` locates the violation."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _fraction(text: str) -> Fraction:
    """``Fraction(text)``; a zero denominator is rejected like any other bad literal."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _need(obj: dict, key: str, typ, path: str, default=_REQUIRED):
    """``obj[key]`` checked against ``typ`` (a type or a tuple of types).

    ``path`` locates ``obj`` in its document.  A missing key returns
    ``default`` when one is given.  No field is a boolean, so booleans
    never pass as integers.
    """
    if not isinstance(obj, dict):
        raise SchemaError(path or ".", "expected an object")
    value = obj.get(key, _REQUIRED)
    if value is _REQUIRED:
        if default is _REQUIRED:
            raise SchemaError(_at(path, key), "missing field")
        return default
    if isinstance(value, bool) or not isinstance(value, typ):
        names = typ if isinstance(typ, tuple) else (typ,)
        expected = " or ".join(_TYPE_NAMES[t] for t in names)
        raise SchemaError(_at(path, key), f"expected {expected}")
    return value


def _ints(values: list, path: str) -> tuple[int, ...]:
    for idx, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, int):
            raise SchemaError(f"{path}[{idx}]", "expected an integer")
    return tuple(values)


def _entries(obj: dict, key: str, path: str):
    """The elements of the list ``obj[key]``, each with its path."""
    where = _at(path, key)
    for idx, item in enumerate(_need(obj, key, list, path)):
        yield f"{where}[{idx}]", item


def _version(obj: dict) -> None:
    """Reject a document whose ``schema_version`` is not ``SCHEMA_VERSION``."""
    version = _need(obj, "schema_version", int, "")
    if version != SCHEMA_VERSION:
        message = f"unsupported version {version}, expected {SCHEMA_VERSION}"
        raise SchemaError("schema_version", message)


def _cuspidal(
    obj: dict, key: str, cuspidals: dict[str, InertialCuspidal], path: str
) -> InertialCuspidal:
    """The registry entry named by the id at ``obj[key]``."""
    cid = _need(obj, key, str, path)
    if cid not in cuspidals:
        raise SchemaError(_at(path, key), f"unknown cuspidal {cid!r}")
    return cuspidals[cid]


# ---------------------------------------------------------------- multisegments


def wildcard_to_dict(w: Wildcard) -> dict:
    return {"id": w.id, "degree": w.degree, "shift_twice": w.shift.twice}


def wildcard_from_dict(obj: dict, path: str = "wildcard") -> Wildcard:
    return Wildcard(
        id=_need(obj, "id", str, path),
        degree=_need(obj, "degree", int, path),
        shift=HalfInt(_need(obj, "shift_twice", int, path, default=0)),
    )


def _optional_wildcard(obj: dict, path: str) -> Wildcard | None:
    wildcard = _need(obj, "wildcard", (dict, _NULL), path, default=None)
    return None if wildcard is None else wildcard_from_dict(wildcard, _at(path, "wildcard"))


def multisegment_to_dict(m: Multisegment) -> dict:
    return {
        "segments": [
            {"base_id": s.base.id, "start_twice": s.start.twice, "length": s.length}
            for s in m.segments
        ],
        "tate_twice": m.tate.twice,
        "wildcard": None if m.wildcard is None else wildcard_to_dict(m.wildcard),
        "order_tag": None if m.order_tag is None else list(m.order_tag),
    }


# -------------------------------------------------------------------- cuspidals


def cuspidal_to_dict(pi: InertialCuspidal) -> dict:
    return {"g": pi.g, "e_pi": pi.e_pi, "modl_class": pi.modl_class}


def cuspidal_registry(bases: Iterable[InertialCuspidal]) -> dict:
    return {pi.id: cuspidal_to_dict(pi) for pi in bases}


def registry_from_dict(obj: dict) -> dict[str, InertialCuspidal]:
    """Read the ``cuspidals`` object of a component or dataset file."""
    registry = {}
    for cid, rec in obj.items():
        path = f"cuspidals[{cid}]"
        registry[cid] = InertialCuspidal(
            id=cid,
            g=_need(rec, "g", int, path),
            e_pi=_need(rec, "e_pi", int, path),
            modl_class=_need(rec, "modl_class", str, path),
        )
    return registry


# ----------------------------------------------------------------- ledger terms


def ledger_term_to_dict(term: LedgerTerm) -> dict:
    return {
        "kind": term.kind,
        "stratum": term.stratum,
        "sign": term.sign,
        "xi_twice": term.xi_power.twice,
        "tate_twice": term.tate.twice,
        "infinitesimal": multisegment_to_dict(term.infinitesimal),
    }


def ledger_listing_to_dict(
    d: int, g: int, t: int, terms: list[LedgerTerm]
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "d": d,
        "g": g,
        "t": t,
        "terms": [ledger_term_to_dict(term) for term in terms],
    }


# --------------------------------------------------------------------- diagrams


def diagram_to_dict(diag: Diagram) -> dict:
    points = sorted(diag, key=lambda p: (p.r, p.i))
    return {
        "schema_version": SCHEMA_VERSION,
        "points": [{"r": p.r, "i": p.i, "factors": list(diag[p])} for p in points],
    }


# ------------------------------------------------------------- local components


def _local_to_dict(c: LocalComponent) -> dict:
    return {
        "s": c.s,
        "factors": [{"t": t, "base_id": base.id} for t, base in c.factors],
        "wildcard": None if c.wildcard is None else wildcard_to_dict(c.wildcard),
    }


def _local_from_dict(
    obj: dict, cuspidals: dict[str, InertialCuspidal], path: str
) -> LocalComponent:
    s = _need(obj, "s", int, path)
    factors = tuple(
        (_need(f, "t", int, fpath), _cuspidal(f, "base_id", cuspidals, fpath))
        for fpath, f in _entries(obj, "factors", path)
    )
    return LocalComponent(s=s, factors=factors, wildcard=_optional_wildcard(obj, path))


def component_from_dict(obj: dict) -> LocalComponent:
    _version(obj)
    cuspidals = registry_from_dict(_need(obj, "cuspidals", dict, ""))
    return _local_from_dict(obj, cuspidals, "")


# --------------------------------------------------------------------- datasets


def dataset_to_dict(ds: Dataset) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "context": {
            "d": ds.context.d,
            "kappa": str(ds.context.kappa),
            "pi_id": ds.context.pi.id,
        },
        "cuspidals": cuspidal_registry(ds.cuspidals()),
        "data": [
            {
                "id": datum.id,
                "local": _local_to_dict(datum.local),
                "m": datum.m,
                "d_xi": datum.d_xi,
                "inv_dim": datum.inv_dim,
                "satake": datum.satake,
            }
            for datum in ds.data
        ],
        "torsion": {
            "t0": ds.torsion.t0,
            "tau": list(ds.torsion.tau),
        },
        "levels": list(ds.levels),
    }


def _checked_record(rec: dict, cuspidals: dict, path: str) -> AutomorphicDatum:
    return AutomorphicDatum(
        id=_need(rec, "id", str, path),
        local=_local_from_dict(_need(rec, "local", dict, path), cuspidals, f"{path}.local"),
        m=_need(rec, "m", int, path),
        d_xi=_need(rec, "d_xi", int, path),
        inv_dim=_need(rec, "inv_dim", int, path),
        satake=_need(rec, "satake", str, path),
    )


def _record(rec: dict, cuspidals: dict, idx: int) -> AutomorphicDatum:
    """Record ``data[idx]`` read by indexing and exact type tests, or else,
    whatever goes wrong, by :func:`_checked_record`."""
    try:
        loc = rec["local"]
        factors, wild = loc["factors"], loc.get("wildcard")
        ident, s, m, d_xi, inv_dim, satake = fields = (
            rec["id"], loc["s"], rec["m"], rec["d_xi"], rec["inv_dim"], rec["satake"]
        )
        types = (type(rec), type(loc), type(factors), *map(type, fields))
        if types != (dict, dict, list, str, int, int, int, int, str):
            raise TypeError
        if wild is not None:
            wid, degree, shift = wild["id"], wild["degree"], wild.get("shift_twice", 0)
            if (type(wild), type(wid), type(degree), type(shift)) != (dict, str, int, int):
                raise TypeError
            wild = Wildcard(wid, degree, HalfInt(shift))
        pairs = []
        for f in factors:
            t, cid = f["t"], f["base_id"]
            if (type(f), type(t), type(cid)) != (dict, int, str):
                raise TypeError
            pairs.append((t, cuspidals[cid]))
        local = LocalComponent(s, tuple(pairs), wild)
        return AutomorphicDatum(ident, local, m, d_xi, inv_dim, satake)
    except Exception:
        return _checked_record(rec, cuspidals, f"data[{idx}]")


def dataset_from_dict(obj: dict) -> Dataset:
    _version(obj)
    context = _need(obj, "context", dict, "")
    d = _need(context, "d", int, "context")
    kappa = _need(context, "kappa", str, "context")
    cuspidals = registry_from_dict(_need(obj, "cuspidals", dict, ""))
    pi = _cuspidal(context, "pi_id", cuspidals, "context")
    records = enumerate(_need(obj, "data", list, ""))
    data = tuple(_record(rec, cuspidals, idx) for idx, rec in records)
    torsion = _need(obj, "torsion", dict, "")
    return Dataset(
        context=GlobalContext(d=d, pi=pi, kappa=_fraction(kappa)),
        data=data,
        torsion=TorsionProfile(
            t0=_need(torsion, "t0", (int, _NULL), "torsion"),
            tau=_ints(_need(torsion, "tau", list, "torsion"), "torsion.tau"),
        ),
        levels=_ints(_need(obj, "levels", list, ""), "levels"),
    )


# ---------------------------------------------------------------------- verdict


def verdict_to_dict(verdict: Verdict) -> dict:
    def side(total):
        return [
            {"key": sym.key, "level": sym.level, "coeff": coeff}
            for sym, coeff in total.items()
        ]

    return {
        "schema_version": SCHEMA_VERSION,
        "equal": verdict.equal,
        "exit_code": verdict.exit_code,
        "warnings": list(verdict.warnings),
        "lhs": side(verdict.lhs),
        "rhs": side(verdict.rhs),
        "diffs": [
            {"key": sym.key, "level": sym.level, "lhs": ca, "rhs": cb}
            for sym, ca, cb in verdict.diffs
        ],
    }
