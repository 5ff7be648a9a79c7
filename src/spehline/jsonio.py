"""Canonical JSON forms and schema checking for every file the CLI touches.

Every document is written in one canonical form: sorted keys, no whitespace
and sorted segment lists, so equal values give byte-equal files.
:func:`ledger_listing_text` writes the ledger listings as that text directly;
every other document is a dict passed to :func:`canonical_dumps`.  Each carries
a ``schema_version``: 2 for the level-free congruence report, else
``SCHEMA_VERSION``, the one version dataset and component files are read at.

Each input format has one checked reader, which type-checks every field
through :func:`_need` as it reads it and builds the object in the same
pass; a violation raises :class:`SchemaError` with the path of the
field, and the first field read decides which one is reported.
Well-typed values that break an invariant raise the constructor's
``ValueError``.  The other formats hold a handful of fields and have only
that reader.

Dataset files carry the traffic, thousands of records each, of which a
query reads the few in one row.  Each record is checked once, on the raw
document: :func:`_rows` makes every check of the checked reader and the
constructors and gives the record's row, which ``Dataset`` walks once
every record is checked, to check ids and degrees and index the records.
A record that fails the check is read alone by the checked reader, which
raises its first fault, so errors, their paths and which of two faults
is reported do not depend on the check.  The dataset builds each record
from its raw fields when it is first read (:func:`_record`, see
:class:`~spehline.congruence.Dataset`), so the document must not change
after it is read.
"""

from __future__ import annotations

import json
from typing import Any

from .congruence import AutomorphicDatum, Dataset, Verdict
from .diagrams import Diagram, LocalComponent
from .ledger import GlobalContext, LedgerTerm
from .torsion import TorsionProfile
from .zline import HalfInt, InertialCuspidal, Multisegment, Segment, Wildcard

SCHEMA_VERSION = 1
_str = json.encoder.encode_basestring_ascii  # json.dumps's escaper, under its ensure_ascii

_REQUIRED = object()
_NULL = type(None)
_TYPE_NAMES = {
    int: "an integer",
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


def _optional_wildcard(obj: dict, path: str) -> Wildcard | None:
    wildcard = _need(obj, "wildcard", (dict, _NULL), path, default=None)
    if wildcard is None:
        return None
    path = _at(path, "wildcard")
    return Wildcard(
        id=_need(wildcard, "id", str, path),
        degree=_need(wildcard, "degree", int, path),
        shift=HalfInt(_need(wildcard, "shift_twice", int, path, default=0)),
    )


def _segment_text(s: Segment) -> str:
    return f'{{"base_id":{_str(s.base.id)},"length":{s.length},"start_twice":{s.start.twice}}}'


def _multisegment_text(m: Multisegment) -> str:
    tag, wild = m.order_tag, m.wildcard
    tag = "null" if tag is None else f"[{','.join(map(str, tag))}]"
    if wild is not None:
        wild = f'{{"degree":{wild.degree},"id":{_str(wild.id)},"shift_twice":{wild.shift.twice}}}'
    segments = ",".join([_segment_text(seg) for seg in m.segments])
    return (
        f'{{"order_tag":{tag},"segments":[{segments}],'
        f'"tate_twice":{m.tate.twice},"wildcard":{wild or "null"}}}'
    )


# -------------------------------------------------------------------- cuspidals


def cuspidal_to_dict(pi: InertialCuspidal) -> dict:
    return {"g": pi.g, "e_pi": pi.e_pi, "modl_class": pi.modl_class}


def registry_from_dict(obj: dict) -> dict[str, InertialCuspidal]:
    """Read the ``cuspidals`` object of a component or dataset file.

    An empty ``modl_class`` is refused: a label built with one takes its
    own id as its class, so it would join any entry whose class names it.
    """
    registry = {}
    for cid, rec in obj.items():
        path = f"cuspidals[{cid}]"
        g = _need(rec, "g", int, path)
        e_pi = _need(rec, "e_pi", int, path)
        modl_class = _need(rec, "modl_class", str, path)
        if not modl_class:
            raise ValueError(f"{path}.modl_class: empty mod-l class")
        registry[cid] = InertialCuspidal(id=cid, g=g, e_pi=e_pi, modl_class=modl_class)
    return registry


# ----------------------------------------------------------------- ledger terms


def _term_text(term: LedgerTerm) -> str:
    return (
        f'{{"infinitesimal":{_multisegment_text(term.infinitesimal)},"kind":{_str(term.kind)},'
        f'"sign":{term.sign},"stratum":{term.stratum},'
        f'"tate_twice":{term.tate.twice},"xi_twice":{term.xi_power.twice}}}'
    )


def ledger_listing_text(d: int, g: int, t: int, terms: list[LedgerTerm]) -> str:
    """``canonical_dumps`` of the ``resolution``/``filtration`` document, byte
    for byte, written with each key in sorted order as a literal.

    Strings go through ``json.dumps``'s escaper and integers are written as
    ``{x}``, ``json``'s form of a plain ``int``.  Each is one: ``d``, ``g`` and
    ``t`` pass argparse's ``type=int``, and the rest are ``HalfInt.twice``
    values, signs, strata, lengths and degrees.
    """
    body = ",".join([_term_text(term) for term in terms])
    return f'{{"d":{d},"g":{g},"schema_version":{SCHEMA_VERSION},"t":{t},"terms":[{body}]}}'


# --------------------------------------------------------------------- diagrams


def diagram_to_dict(diag: Diagram) -> dict:
    points = sorted(diag)  # points are (r, i) tuples
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
        "context": {"d": ds.context.d, "pi_id": ds.context.pi.id},
        "cuspidals": {pi.id: cuspidal_to_dict(pi) for pi in ds.labels},
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
    """The record at ``path``, each field checked as it is read: the reader
    that finds and reports the first fault of a record that fails the check
    of :func:`_rows`."""
    return AutomorphicDatum(
        id=_need(rec, "id", str, path),
        local=_local_from_dict(_need(rec, "local", dict, path), cuspidals, f"{path}.local"),
        m=_need(rec, "m", int, path),
        d_xi=_need(rec, "d_xi", int, path),
        inv_dim=_need(rec, "inv_dim", int, path),
        satake=_need(rec, "satake", str, path),
    )


def _rows(records: list, cuspidals: dict):
    """The walk's row of each record, ``(id, s, factors, wildcard degree)``.

    A record is taken when it passes the checks of :func:`_checked_record`
    and the constructors: exact types, the ``>= 1`` bounds, a factor or a
    wildcard, a wildcard degree ``>= 0`` and known cuspidal ids.  That check
    builds nothing.  A record that fails it is read on the spot by
    :func:`_checked_record`, which raises the record's first fault; a record
    that reader accepts gives its row from the record it built.
    """
    for idx, rec in enumerate(records):
        try:
            loc = rec["local"]
            factors, wild = loc["factors"], loc.get("wildcard")
            ident, s, m, d_xi, inv_dim, satake = (
                rec["id"], loc["s"], rec["m"], rec["d_xi"], rec["inv_dim"], rec["satake"]
            )
            if not (
                type(rec) is type(loc) is dict and type(factors) is list
                and type(ident) is type(satake) is str
                and type(s) is type(m) is type(d_xi) is type(inv_dim) is int
                and s > 0 and m > 0 and d_xi > 0 and inv_dim > 0
            ):
                raise TypeError
            if wild is None:
                if not factors:
                    raise TypeError
                degree = 0
            else:
                wid, degree, shift = wild["id"], wild["degree"], wild.get("shift_twice", 0)
                if not (
                    type(wild) is dict and type(wid) is str
                    and type(degree) is type(shift) is int and degree >= 0
                ):
                    raise TypeError
            pairs = []
            for f in factors:
                t, cid = f["t"], f["base_id"]
                if not (type(f) is dict and type(t) is int and type(cid) is str and t > 0):
                    raise TypeError
                pairs.append((t, cuspidals[cid]))
        except (KeyError, TypeError, AttributeError):
            datum = _checked_record(rec, cuspidals, f"data[{idx}]")
            local = datum.local
            ident, s, pairs = datum.id, local.s, local.factors
            degree = 0 if local.wildcard is None else local.wildcard.degree
        yield ident, s, pairs, degree


def _record(rec: dict, cuspidals: dict) -> AutomorphicDatum:
    """The record :func:`_checked_record` builds from ``rec``, built from the
    raw fields by the same constructor calls, for a record that passed
    :func:`_rows`: it has every field, at its type."""
    loc = rec["local"]
    wild = loc.get("wildcard")
    if wild is not None:
        wild = Wildcard(wild["id"], wild["degree"], HalfInt(wild.get("shift_twice", 0)))
    factors = tuple([(f["t"], cuspidals[f["base_id"]]) for f in loc["factors"]])
    return AutomorphicDatum(
        rec["id"],
        LocalComponent(loc["s"], factors, wild),
        rec["m"],
        rec["d_xi"],
        rec["inv_dim"],
        rec["satake"],
    )


def _builder(records: list, cuspidals: dict):
    """``build(positions)``: the records at ``positions`` (all of them for
    ``None``), each built by :func:`_record` on its first request and kept.

    Every record passed :func:`_rows` and the walk, so none is checked a
    second time; the document must not change after it is read.
    """
    built: list[AutomorphicDatum | None] = [None] * len(records)

    def build(positions) -> list[AutomorphicDatum]:
        out = []
        for idx in range(len(records)) if positions is None else positions:
            datum = built[idx]
            if datum is None:
                datum = built[idx] = _record(records[idx], cuspidals)
            out.append(datum)
        return out

    return build


def dataset_from_dict(obj: dict) -> Dataset:
    """Read a dataset document.

    Every record is checked (:func:`_rows`), then the torsion and the
    levels are read, then ``Dataset._unbuilt`` checks and walks the rows
    as ``Dataset(...)`` does its records.  The dataset keeps the
    document's records and builds each from them when it is first read
    (:func:`_builder`), so the document must not change afterwards.
    """
    _version(obj)
    context = _need(obj, "context", dict, "")
    d = _need(context, "d", int, "context")
    cuspidals = registry_from_dict(_need(obj, "cuspidals", dict, ""))
    pi = _cuspidal(context, "pi_id", cuspidals, "context")
    records = _need(obj, "data", list, "")
    rows = list(_rows(records, cuspidals))
    torsion = _need(obj, "torsion", dict, "")
    context = GlobalContext(d=d, pi=pi)
    torsion = TorsionProfile(
        t0=_need(torsion, "t0", (int, _NULL), "torsion"),
        tau=_ints(_need(torsion, "tau", list, "torsion"), "torsion.tau"),
    )
    levels = _ints(_need(obj, "levels", list, ""), "levels")
    return Dataset._unbuilt(context, torsion, levels, rows, _builder(records, cuspidals))


# ---------------------------------------------------------------------- verdict


def verdict_to_dict(verdict: Verdict) -> dict:
    """The report: ``levels`` once, then one entry per mod-l key, sorted by key."""
    return {
        "schema_version": 2,
        "levels": list(verdict.levels),
        "equal": verdict.equal,
        "exit_code": verdict.exit_code,
        "warnings": list(verdict.warnings),
        "lhs": [{"key": key, "coeff": coeff} for key, coeff in verdict.lhs.items()],
        "rhs": [{"key": key, "coeff": coeff} for key, coeff in verdict.rhs.items()],
        "diffs": [{"key": key, "lhs": ca, "rhs": cb} for key, ca, cb in verdict.diffs],
    }
