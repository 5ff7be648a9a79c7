"""Shared oracles, strategies and dataset helpers for the test suite."""

from __future__ import annotations

import contextlib
import dataclasses
import io

import hypothesis.strategies as st

from spehline import (
    AutomorphicDatum,
    ConstituentLabel,
    Dataset,
    DiagramPoint,
    HalfInt,
    InertialCuspidal,
    LadderShape,
    LedgerTerm,
    LocalComponent,
    Multisegment,
    Segment,
    Wildcard,
    constituent_sum,
)
from spehline.cli import main
from spehline.jsonio import SCHEMA_VERSION, canonical_dumps, wildcard_to_dict

# a small pool of labels; pi and pi_twin share a mod-l class
PI = InertialCuspidal("pi", 1, e_pi=1, modl_class="a")
PI_TWIN = InertialCuspidal("pi2", 1, e_pi=2, modl_class="a")
RHO = InertialCuspidal("rho", 2, e_pi=1, modl_class="b")
TAU = InertialCuspidal("tau", 3, e_pi=1, modl_class="c")
BASES = [PI, PI_TWIN, RHO, TAU]

half_ints = st.builds(HalfInt, st.integers(-8, 8))

segments = st.builds(
    Segment,
    base=st.sampled_from(BASES),
    start=half_ints,
    length=st.integers(1, 4),
)

wildcards = st.builds(
    Wildcard,
    id=st.sampled_from(["w1", "w2"]),
    degree=st.integers(0, 6),
    shift=half_ints,
)

multisegments = st.builds(
    Multisegment,
    segments=st.lists(segments, max_size=5).map(tuple),
    tate=st.builds(HalfInt, st.integers(-4, 4)),
    wildcard=st.none() | wildcards,
)

plain_multisegments = st.builds(
    Multisegment, segments=st.lists(segments, max_size=5).map(tuple)
)

ladders = st.builds(
    LadderShape,
    base=st.sampled_from(BASES),
    s=st.integers(1, 5),
    t=st.integers(1, 5),
    center=st.builds(HalfInt, st.integers(-4, 4)),
)


# ------------------------------------------------------- the listing's document


def multisegment_to_dict(m: Multisegment) -> dict:
    """The documented form of a multisegment: the oracle of the listing writer."""
    return {
        "segments": [
            {"base_id": s.base.id, "start_twice": s.start.twice, "length": s.length}
            for s in m.segments
        ],
        "tate_twice": m.tate.twice,
        "wildcard": None if m.wildcard is None else wildcard_to_dict(m.wildcard),
        "order_tag": None if m.order_tag is None else list(m.order_tag),
    }


def ledger_term_to_dict(term: LedgerTerm) -> dict:
    return {
        "kind": term.kind,
        "stratum": term.stratum,
        "sign": term.sign,
        "xi_twice": term.xi_power.twice,
        "tate_twice": term.tate.twice,
        "infinitesimal": multisegment_to_dict(term.infinitesimal),
    }


def ledger_listing_to_dict(d: int, g: int, t: int, terms: list[LedgerTerm]) -> dict:
    """The documented ``resolution``/``filtration`` document, which
    ``jsonio.ledger_listing_text`` writes as canonical text."""
    return {
        "schema_version": SCHEMA_VERSION,
        "d": d,
        "g": g,
        "t": t,
        "terms": [ledger_term_to_dict(term) for term in terms],
    }


def golden_listing(case: dict, kind: str) -> str:
    """The canonical text of the ``kind`` listing of a ``golden_ledger.json`` case."""
    doc = {"schema_version": SCHEMA_VERSION, "d": case["d"], "g": case["g"], "t": case["t"]}
    return canonical_dumps({**doc, "terms": case[kind]})


# ------------------------------------------------------------ the command line


def run_cli(*argv: str) -> tuple[int, str, str]:
    """``spehline *argv`` run in this process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ------------------------------------------------------ diagram support oracle


def indicator_oracle(s: int, t: int, r: int, i: int) -> bool:
    """Literal transcription of the support conditions, kept independent
    of the library's implementation."""
    lo = max(1, s + t - 1 - 2 * (s - 1))
    hi = s + t - 1
    if not (lo <= r <= hi):
        return False
    if t <= r <= hi:
        bound = s + t - 1 - r
        return abs(i) <= bound and (i - (s + t - 1 - r)) % 2 == 0
    bound = s - 1 - (t - r)
    return abs(i) <= bound and (i - (s - t - 1 + r)) % 2 == 0


def reference_modl_key(c: LocalComponent, pi: InertialCuspidal, r: int) -> str:
    """The key built from the whole component: reduce it, take the
    constituent sum at ``(r, 0)``, then sort and join the unit terms."""
    p = DiagramPoint(r, 0)
    reduced = c.reduced()
    terms = sorted(
        f"1*{ConstituentLabel(reduced, p, label.xi_index)}"
        for label in constituent_sum(c, pi, p).labels()
    )
    return ";".join(terms) or "0"


def enumerate_support(s: int, t: int) -> set[tuple[int, int]]:
    pts = set()
    for r in range(0, s + t + 2):
        for i in range(-(s + t), s + t + 1):
            if indicator_oracle(s, t, r, i):
                pts.add((r, i))
    return pts


def hull_vertices(points: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """Vertices of the convex hull (monotone chain); collinear points and
    interior points are dropped.  Degenerate inputs return themselves."""
    pts = sorted(points)
    if len(pts) <= 2:
        return set(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[int, int]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[int, int]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if not hull:  # all points collinear
        return {pts[0], pts[-1]}
    return set(hull)


# ------------------------------------------------------------ dataset mutation


def field_paths(doc, prefix=()):
    """The key path of every field of a JSON document, parents before children."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


def _refit(datum: AutomorphicDatum, d: int, **changes) -> AutomorphicDatum | None:
    """Apply field changes to a record, refitting the wildcard filler so the
    total degree stays ``d``.  Returns None when the new shape overflows."""
    local = datum.local
    s = changes.pop("s", local.s)
    factors = changes.pop("factors", local.factors)
    used = s * sum(t * b.g for t, b in factors)
    if used > d:
        return None
    wid = local.wildcard.id if local.wildcard is not None else "mutw"
    wildcard = Wildcard(wid, d - used) if d - used > 0 else None
    new_local = LocalComponent(s=s, factors=factors, wildcard=wildcard)
    return dataclasses.replace(datum, local=new_local, **changes)


def single_field_mutations(
    ds: Dataset, pi: InertialCuspidal, r: int
) -> list[tuple[str, Dataset]]:
    """Every applicable single-field mutation of a contributing record.

    Mutated fields: the three weight factors, the row count, the length
    of the anchored factor, and the anchored base's mod-l class.  Hecke
    ideal labels and record ids are relabelling-invariant by contract
    and are not part of the suite.
    """
    d = ds.context.d
    alien = InertialCuspidal("mutant", pi.g, e_pi=1, modl_class="mutant~")
    out: list[tuple[str, Dataset]] = []
    for idx, datum in enumerate(ds.data):
        hits = [
            k
            for k, (t_k, base) in enumerate(datum.local.factors)
            if base.id == pi.id and datum.local.s + t_k - 1 == r
        ]
        if not hits:
            continue
        k = hits[0]
        t_k, _ = datum.local.factors[k]
        candidates = [
            ("m", dataclasses.replace(datum, m=datum.m + 1)),
            ("d_xi", dataclasses.replace(datum, d_xi=datum.d_xi + 1)),
            ("inv_dim", dataclasses.replace(datum, inv_dim=datum.inv_dim + 1)),
            ("s", _refit(datum, d, s=datum.local.s + 1)),
            (
                "t",
                _refit(
                    datum,
                    d,
                    factors=tuple(
                        (t + 1, b) if j == k else (t, b)
                        for j, (t, b) in enumerate(datum.local.factors)
                    ),
                ),
            ),
            (
                "base",
                _refit(
                    datum,
                    d,
                    factors=tuple(
                        (t, alien) if j == k else (t, b)
                        for j, (t, b) in enumerate(datum.local.factors)
                    ),
                ),
            ),
        ]
        for name, mutated in candidates:
            if mutated is None:
                continue
            data = ds.data[:idx] + (mutated,) + ds.data[idx + 1 :]
            out.append((f"{datum.id}.{name}", dataclasses.replace(ds, data=data)))
    return out


def unbuilt(ds: Dataset) -> bool:
    """Whether the ``data`` slot of ``ds`` is unset, which holds for a dataset
    read from a file until its ``data`` is read; reading the slot itself,
    not the attribute, builds nothing."""
    try:
        Dataset.data.__get__(ds, Dataset)
    except AttributeError:
        return True
    return False


# ------------------------------------------------------- a dataset file by hand


def small_dataset_doc() -> dict:
    """A seven-record dataset document at degree 12 over three labels.

    It holds a record with a shifted wildcard, one with a ``null`` and one
    with no ``wildcard`` key, a record with anchor factors at two radii and
    one with two anchor factors at one radius, labels on GL_1 and GL_2,
    torsion and three levels.
    """
    def rec(ident, s, factors, wildcard=(), m=1):
        local = {"s": s, "factors": [{"t": t, "base_id": b} for t, b in factors]}
        if wildcard != ():
            local["wildcard"] = wildcard
        return {"id": ident, "local": local, "m": m, "d_xi": 2, "inv_dim": 3, "satake": f"h{ident}"}

    return {
        "schema_version": 1,
        "context": {"d": 12, "pi_id": "pi"},
        "cuspidals": {
            "pi": {"g": 1, "e_pi": 1, "modl_class": "a"},
            "nz0": {"g": 1, "e_pi": 1, "modl_class": "nz0~"},
            "rho": {"g": 2, "e_pi": 1, "modl_class": "b"},
        },
        "data": [
            rec("a0", 2, [(3, "pi")], {"id": "w0", "degree": 6, "shift_twice": 0}),
            rec("a1", 1, [(4, "pi"), (2, "rho")], {"id": "w1", "degree": 4, "shift_twice": 3}, m=2),
            rec("a2", 3, [(2, "pi"), (1, "nz0")], {"id": "w2", "degree": 3}),
            rec("a3", 2, [(1, "pi"), (2, "pi")], {"id": "w3", "degree": 6, "shift_twice": -1}),
            rec("a4", 1, [(12, "nz0")], None, m=4),
            rec("a5", 2, [(3, "rho")]),
            rec("a6", 1, [(2, "pi"), (2, "pi")], {"id": "w6", "degree": 8, "shift_twice": 2}),
        ],
        "torsion": {"t0": 2, "tau": [0, 1, 2]},
        "levels": [2, 0, 1],
    }
