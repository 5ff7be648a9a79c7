"""Separation of automorphic contributions by row count, and the
two-sided congruence identity.

A synthetic dataset lists automorphic records: a local component (a
Speh-of-Steinberg product with an optional wildcard), a multiplicity, an
archimedean dimension, an invariant dimension and an opaque Hecke ideal
label.  From a dataset the engine builds the dimension table ``d_{k,n}``
of a fixed trace-back radius ``r``; shapes with ``s`` rows contribute to
``k = 0..s-1`` only, and torsion contributes a level profile to every
``k >= 1`` and nothing to ``k = 0``.  Peeling consecutive differences of
the table therefore recovers the contributing ``(s, t)`` pairs exactly,
and the two-sided check compares the formal sums of two datasets anchored
at congruent cuspidals, one coefficient per mod-l class.

Invariant dimensions are not computable from labels, so a matching
record contributes its weight to its mod-l class, the same at every
level.  Weights are therefore level-free until read: tables, peels,
contribution sets (``weights``) and the two-sided check, its
``Verdict`` included, are sums over mod-l keys; torsion alone carries a
level, one integer per level.  Only where a caller reads a level
(``DimensionTable.values``, ``ContributionSet.pairs``) is a weight
spread onto one formal symbol per (mod-l class, level), and torsion onto
the reserved unit symbol of each level.  A symbol is a tuple
``(key, level)``, built by ``tuple.__new__``, and a spread sum is built
as one dict in one pass, not merged term by term.

A record's mod-l class is the string ``modl_key``.  Its memo keys on
plain values: the rows, each factor's length, base id and class, the
anchor's id and the radius.  It keeps the key's text cut where the
wildcard's text goes, so a hit is one join.  A miss writes each reduced
factor's text once, then joins them per factor of
``diagrams.traced_factors``, the one statement of which factors trace.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

from .diagrams import DiagramPoint, LocalComponent, marker_text, traced_factors, traced_symbol
# not called here; kept as a module attribute, which perfbench/spans.py wraps by name
from .diagrams import constituent_sum
from .formal import GrothSum
from .ledger import GlobalContext
from .torsion import TorsionProfile, torsion_dimension
from .zline import ZERO, InertialCuspidal, Wildcard, ladder_text, reduced_id


class InconsistentDataError(ValueError):
    """A dataset or table breaks the invariants the separation relies on."""


class InconsistentTableError(InconsistentDataError):
    """A dimension table produced a negative residue while peeling."""


class DimensionProfileSymbol(NamedTuple):
    """Formal symbol for the invariant dimension of a mod-l class at a level.

    A tuple ``(key, level)``, so it is hashed and compared in C.  It is
    immutable, and as a tuple it equals the plain tuple ``(key, level)``,
    iterates as its two fields and orders as a tuple.  Formal sums order
    their terms by ``str``, not by the tuple order.
    """

    key: str
    level: int

    def __str__(self) -> str:
        return f"dim<{self.key} @n={self.level}>"


def unit_symbol(n: int) -> DimensionProfileSymbol:
    """The reserved symbol of level ``n`` that torsion units land on."""
    return tuple.__new__(DimensionProfileSymbol, ("1", n))


@dataclass(frozen=True, slots=True)
class AutomorphicDatum:
    """One synthetic automorphic record."""

    id: str
    local: LocalComponent
    m: int
    d_xi: int
    inv_dim: int
    satake: str

    def __post_init__(self) -> None:
        if not isinstance(self.m * self.d_xi * self.inv_dim, int):  # the weight
            factors = (self.m, self.d_xi, self.inv_dim)
            raise TypeError(f"multiplicities and dimensions must be integers, got {factors}")
        if min(self.m, self.d_xi, self.inv_dim) < 1:
            raise ValueError("multiplicities and dimensions must be >= 1")

    @property
    def weight(self) -> int:
        return self.m * self.d_xi * self.inv_dim


@dataclass(frozen=True, slots=True)
class Dataset:
    """A context, its records, a torsion profile and a level tower.

    Construction checks the levels, walks the records once
    (:func:`_walk`), then checks the torsion profile and that one id
    names one label (:func:`_one_label_per_id`).  It keeps
    ``labels``, the distinct label objects, anchor first, and the index
    the separation reads, where each base id maps ``(s + t - 1, s)`` to
    the positions of its records in dataset order (a record once per
    key); ``_build(positions)`` returns those records.
    ``dataclasses.replace`` rebuilds both.

    A dataset read from a file can hold its records unbuilt.  The reader
    checks every record of the document and hands over their rows and a
    builder (:meth:`_unbuilt`), and the dataset walks those rows: a
    row's records are built when a query reads it, and ``data`` when it
    is read, each record once.  Equality,
    ``repr``, hashing, ``replace``, copying and pickling read ``data``,
    so they build it.
    """

    context: GlobalContext
    data: tuple[AutomorphicDatum, ...]
    torsion: TorsionProfile = TorsionProfile()
    levels: tuple[int, ...] = (0,)
    labels: tuple[InertialCuspidal, ...] = field(init=False, repr=False, compare=False)
    _index: dict = field(init=False, repr=False, compare=False)
    _build: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rows = (
            (x.id, local.s, local.factors, 0 if local.wildcard is None else local.wildcard.degree)
            for x in self.data
            for local in [x.local]
        )
        data = self.data
        self._finish(rows, lambda positions: [data[idx] for idx in positions])

    @classmethod
    def _unbuilt(
        cls, context, torsion, levels, rows: Iterable[tuple], build: Callable
    ) -> "Dataset":
        """A dataset of records not yet built, from their checked rows.

        ``rows`` holds each record's row for :func:`_walk`, and
        ``build(positions)`` returns the records at ``positions`` (all of
        them for ``None``), building each on its first request.  The
        dataset is checked and walked as ``Dataset(...)`` is.
        """
        ds = object.__new__(cls)
        for name, value in (("context", context), ("torsion", torsion), ("levels", levels)):
            object.__setattr__(ds, name, value)
        ds._finish(rows, build)
        return ds

    def __getattr__(self, name: str):
        # reached only when a slot is unset: ``data`` of an unbuilt dataset
        if name != "data":
            raise AttributeError(name)
        data = tuple(self._build(None))
        object.__setattr__(self, "data", data)
        return data

    def __reduce__(self):
        # a copy or a pickle is built from the records and holds no builder
        return type(self), (self.context, self.data, self.torsion, self.levels)

    def _finish(self, rows: Iterable[tuple], build: Callable) -> None:
        """Construction's checks and walk, in their order, from the records'
        rows; then keep what the walk found."""
        levels = tuple(sorted(self.levels))
        object.__setattr__(self, "levels", levels)
        if not levels:
            raise InconsistentDataError("dataset needs at least one level")
        if len(set(levels)) != len(levels):
            raise InconsistentDataError("levels must be distinct")
        if any(n < 0 for n in levels):
            raise InconsistentDataError("levels must be >= 0")
        labels, index = _walk(self.context.d, self.context.pi, rows)
        t0, s_g = self.torsion.t0, self.context.s_g
        if t0 is not None and t0 > s_g:  # as torsion_transfer_label refuses it
            raise InconsistentDataError(f"need t0 <= s_g={s_g}, got t0={t0}")
        if t0 is not None and max(levels) >= len(self.torsion.tau):
            raise InconsistentDataError(
                "torsion profile does not cover every level of the tower"
            )
        labels = tuple(labels)
        _one_label_per_id(labels)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_build", build)


def _walk(d: int, pi: InertialCuspidal, rows: Iterable[tuple]) -> tuple[Iterable, dict]:
    """The labels and the index of a dataset's records, from one row per
    record in dataset order: ``(id, s, factors, wildcard degree)``, with
    ``factors`` as ``(t, base)`` pairs.

    The labels are the anchor ``pi``, then each distinct base object in
    order of first use, so :func:`_one_label_per_id` sees two objects
    that share an id; a factor whose base is the first object of its id
    costs one identity check.  Raises :class:`InconsistentDataError` at a
    repeated id or a record whose degree is not ``d``.
    """
    ids: set[str] = set()
    labels = {id(pi): pi}
    first = {pi.id: pi}  # the first label object of each base id
    index: dict[str, dict[tuple[int, int], list[int]]] = {}
    for idx, (ident, s, factors, degree) in enumerate(rows):
        if ident in ids:
            raise InconsistentDataError(f"duplicate datum id {ident!r}")
        ids.add(ident)
        for t, base in factors:
            degree += s * t * base.g
            bid = base.id
            if first.get(bid) is not base:  # a new id, or another object for one
                first.setdefault(bid, base)
                labels.setdefault(id(base), base)
            key = (s + t - 1, s)
            rows_of = index.get(bid)
            if rows_of is None:
                index[bid] = {key: [idx]}
            else:
                found = rows_of.get(key)
                if found is None:
                    rows_of[key] = [idx]
                elif found[-1] != idx:
                    found.append(idx)
        if degree != d:
            raise InconsistentDataError(f"datum {ident!r} has degree {degree}, expected {d}")
    return labels.values(), index


def _one_label_per_id(labels: Iterable[InertialCuspidal]) -> None:
    """Reject an id that names two labels, a mod-l class on two ``g``, or a
    class that holds a parenthesis: ``modl_key`` writes each class inside
    ``rl(...)``, and one that could close it early lets two components
    share a key.

    Fields are compared only when an id comes back as another object:
    the records of a file share its registry's labels.
    """
    by_id: dict[str, InertialCuspidal] = {}
    by_class: dict[str, InertialCuspidal] = {}
    for label in labels:
        seen = by_id.get(label.id)
        if seen is None:
            if "(" in label.modl_class or ")" in label.modl_class:
                raise InconsistentDataError(
                    f"mod-l class {label.modl_class!r} of {label.id!r} holds a parenthesis"
                )
            by_id[label.id] = label
            first = by_class.setdefault(label.modl_class, label)
            if first.g != label.g:
                raise InconsistentDataError(
                    f"mod-l class {label.modl_class!r} holds {first.id!r} on "
                    f"GL_{first.g} and {label.id!r} on GL_{label.g}"
                )
        elif seen is not label and (seen.g, seen.e_pi, seen.modl_class) != (
            label.g, label.e_pi, label.modl_class
        ):
            raise InconsistentDataError(
                f"cuspidal id {label.id!r} names two labels: {seen!r} and {label!r}"
            )


def _rows_within_radius(r: int, s: int) -> None:
    """Refuse rows ``s`` outside ``1..r``: no dataset can satisfy them."""
    if r < 1 or s < 1 or s > r:
        raise InconsistentDataError(f"need 1 <= s <= r, got r={r}, s={s}")


def _matching(ds: Dataset, pi: InertialCuspidal, r: int) -> tuple[dict, int | None]:
    """The rows at radius ``r`` of the records with a ``pi``-factor there, as
    positions by ``s`` for ``ds._build`` (in order of first appearance, each
    in dataset order), and the largest ``pi`` radius or ``None``."""
    index = ds._index.get(pi.id, {})
    rows = {s: found for (radius, s), found in index.items() if radius == r}
    return rows, max((radius for radius, _ in index), default=None)


def _maximal(observed: int | None, r: int) -> bool:
    """The rule for "maximal": no ``pi``-factor, or ``r`` is the largest ``pi`` radius."""
    return observed is None or observed == r


def _weight(records: Iterable[AutomorphicDatum], pi: InertialCuspidal, r: int) -> GrothSum:
    """The level-free weight of ``records``: each record's weight on its mod-l key."""
    terms: dict[str, int] = {}
    for datum in records:
        key = modl_key(datum.local, pi, r)
        terms[key] = terms.get(key, 0) + datum.weight
    return GrothSum._wrap(terms)


def members(
    ds: Dataset, pi: InertialCuspidal, r: int, s: int
) -> list[AutomorphicDatum]:
    """Records whose component has ``s`` rows and a ``pi``-factor at radius ``r``.

    A record qualifies when some factor ``(t_k, base_k)`` has ``base_k``
    equal to ``pi`` and ``s + t_k - 1 = r``.
    """
    return ds._build(_matching(ds, pi, r)[0].get(s, ()))


def modl_key(local: LocalComponent, pi: InertialCuspidal, r: int) -> str:
    """Canonical string of the mod-l class of the point-(r, 0) constituent sum.

    One ``1*<label>`` per traced factor, the label's component reduced
    mod l, sorted and joined by ``;``; ``"0"`` when no factor traces.
    The terms come in factor order, which the tests pin to the sorted
    one, each written from the label's product, the wildcard and the
    label's marker.

    The memo (:func:`_traced_terms`) keys on plain values, so a hit hashes
    and compares no label in Python.  Records repeat a key but each names
    its own wildcard, so a hit is one join of the memo's pieces with the
    record's wildcard text.
    """
    w = local.wildcard
    factors = tuple([(t, base.id, base.modl_class) for t, base in local.factors])
    return ("" if w is None else f" x {w}").join(_traced_terms(local.s, factors, pi.id, r))


@lru_cache(maxsize=16384)
def _traced_terms(s: int, factors: tuple, pi_id: str, r: int) -> tuple[str, ...]:
    """The text of ``modl_key`` cut at each place its wildcard text goes,
    between a traced term's product and its marker; ``("0",)`` when no
    factor traces.

    ``factors`` holds each factor as ``(t, base id, mod-l class)``, and
    ``pi_id`` is the anchor's id.  A miss asks ``diagrams.traced_factors``
    which factors trace, writes each factor's reduced ladder text once
    and, per traced factor, joins them with its ``R`` symbol in its
    place: the reduced component's ``ConstituentLabel.product_str`` and
    ``marker``, written without building a label.
    """
    p = DiagramPoint(r, 0)
    texts = [ladder_text(reduced_id(c), s, t) for t, _, c in factors]
    pieces, tail = [], ""  # tail: the previous term's marker, then ";"
    for k in traced_factors(s, [(t, bid) for t, bid, _ in factors], pi_id, p):
        t, _, c = factors[k - 1]
        parts = texts.copy()
        parts[k - 1] = traced_symbol(reduced_id(c), s, t, p)
        pieces.append(tail + "1*" + " x ".join(parts))
        tail = marker_text(k, ZERO) + ";"
    return (*pieces, tail[:-1]) if pieces else ("0",)


modl_key.cache_info = _traced_terms.cache_info


def _spread(weight: GrothSum, levels: Iterable[int], units: dict | None = None) -> GrothSum:
    """Put a level-free sum over mod-l keys on each level's symbols, and
    ``units[n]`` on the unit symbol of level ``n`` where it is not 0.

    The sum is built as one dict: its labels ``(key, n)`` are distinct,
    and the coefficients of ``weight`` are nonzero already.  No mod-l key
    is the unit key ``"1"``, so a unit never lands on a weight's symbol.
    """
    terms = weight._terms.items()
    new = tuple.__new__  # the namedtuple's own __new__ runs in Python
    out = {new(DimensionProfileSymbol, (key, n)): c for n in levels for key, c in terms}
    for n, c in (units or {}).items():
        if c:
            out[unit_symbol(n)] = c
    return GrothSum._wrap(out)


@dataclass
class DimensionTable:
    """The table ``d_{k,n}`` for ``k = 0..r-1`` over a level tower.

    A record weighs the same at every level, so the table keeps one
    level-free sum over mod-l keys per ``k`` (``sums[k]``) and the
    torsion profile, the only part that carries a level.  ``values``
    spreads both onto ``DimensionProfileSymbol(key, n)`` and
    ``unit_symbol(n)`` when read, each cell's sum built as one dict of
    tuple-backed symbols in one pass.  ``maximal`` (:func:`_maximal`): no
    ``pi``-factor exists or ``r`` is the largest radius of one, so not
    when ``r`` lies beyond all of them; ``theorem_check`` warns otherwise.
    """

    r: int
    levels: tuple[int, ...]
    sums: tuple[GrothSum, ...]
    torsion: TorsionProfile
    maximal: bool

    @property
    def values(self) -> dict[tuple[int, int], GrothSum]:
        return {
            (k, n): _spread(self.sums[k], (n,), {n: torsion_dimension(self.torsion, k, n)})
            for k in range(self.r)
            for n in self.levels
        }


def d_sequence(ds: Dataset, pi: InertialCuspidal, r: int) -> DimensionTable:
    """Build the dimension table at radius ``r`` anchored at ``pi``.

    A record with ``s`` rows and a matching factor contributes its
    weight on its mod-l class symbol to ``d_{k,n}`` for ``k = 0..s-1``
    exactly; the torsion profile adds ``tau[n]`` units to every
    ``k >= 1`` entry and nothing at ``k = 0``.  The table is additive in
    the dataset.
    """
    if r < 1:
        raise ValueError(f"radius must be >= 1, got {r}")
    rows, observed = _matching(ds, pi, r)
    # d_k sums the rows s > k: add them top down
    sums, above = [], GrothSum.zero()
    for s in range(r, 0, -1):
        above = above + _weight(ds._build(rows.get(s, ())), pi, r)
        sums.append(above)
    return DimensionTable(
        r=r,
        levels=ds.levels,
        sums=tuple(reversed(sums)),
        torsion=ds.torsion,
        maximal=_maximal(observed, r),
    )


@dataclass
class ContributionSet:
    """The recovered ``(s, t)`` pairs of one radius, with their weights.

    Every pair satisfies ``s + t - 1 = r``.  ``weights`` keeps each pair's
    level-free weight, a sum over mod-l keys; ``pairs`` spreads them onto
    ``levels`` when read, one ``DimensionProfileSymbol`` per (key, level).
    Equality compares ``r``, ``levels`` and ``weights``, so two empty sets
    on different towers differ; witness ids, when known, are metadata.
    """

    r: int
    weights: dict[tuple[int, int], GrothSum]
    levels: tuple[int, ...]
    witnesses: dict[tuple[int, int], tuple[str, ...]] = field(
        default_factory=dict, compare=False
    )

    @property
    def pairs(self) -> dict[tuple[int, int], GrothSum]:
        return {shape: _spread(weight, self.levels) for shape, weight in self.weights.items()}

    def __post_init__(self) -> None:
        for (s, t) in self.weights:
            if s < 1 or t < 1 or s + t - 1 != self.r:
                raise InconsistentDataError(
                    f"pair ({s},{t}) incompatible with radius {self.r}"
                )

    def shapes(self) -> list[tuple[int, int]]:
        return sorted(self.weights)


def infer_B(table: DimensionTable, torsion: TorsionProfile) -> ContributionSet:
    """Recover the contributing pairs from a dimension table.

    Subtracts the torsion profile from every ``k >= 1`` entry (legal
    because the torsion contribution is the same for all such ``k``),
    then peels top down: the difference ``d_{k-1,n} - d_{k,n}`` is the
    total weight of pairs with ``s = k``.  Any negative residue along
    the way rejects the table.  The level-free sums are peeled once per
    ``k``.  Torsion leaves one unit residue per level, read at ``k = 1``
    of the walk: a negative one rejects the table there and a positive
    one at ``k = 1`` of the peel, so no pair carries torsion.  At
    ``r = 1`` the walk still reaches ``k = 1``, on the zero row
    ``d_{1,n}`` the peel reads, so every radius checks the claim.  Each
    nonzero difference is kept level-free; an empty tower keeps none.
    """
    r, levels = table.r, table.levels
    sums = (*table.sums, GrothSum.zero())
    residue: dict[int, int] = {}  # level -> tau_table - tau_given
    for k, row in enumerate(sums[: max(r, 2)]):
        negative = row.has_negative()
        for n in levels:
            if k == 1:
                residue[n] = torsion_dimension(table.torsion, k, n) - torsion_dimension(torsion, k, n)
            if negative or residue.get(n, 0) < 0:
                raise InconsistentTableError(
                    f"negative residue at k={k}, n={n} after torsion subtraction"
                )
    weights: dict[tuple[int, int], GrothSum] = {}
    for k in range(r, 0, -1):
        diff = sums[k - 1] - sums[k]
        negative = diff.has_negative()
        for n in levels:
            if negative or (k == 1 and residue.get(n, 0) > 0):
                raise InconsistentTableError(
                    f"negative difference between degrees {k - 1} and {k} at n={n}"
                )
        if not diff.is_zero and levels:
            weights[(k, r - k + 1)] = diff
    return ContributionSet(r=r, weights=weights, levels=levels)


def expected_contributions(
    ds: Dataset, pi: InertialCuspidal, r: int
) -> ContributionSet:
    """Ground-truth contribution set read off the records: level-free weights on ``ds.levels``."""
    rows = [(s, ds._build(row)) for s, row in _matching(ds, pi, r)[0].items()]
    return ContributionSet(
        r=r,
        weights={(s, r - s + 1): _weight(row, pi, r) for s, row in rows},
        levels=ds.levels,
        witnesses={(s, r - s + 1): tuple(datum.id for datum in row) for s, row in rows},
    )


@dataclass
class Verdict:
    """Outcome of the two-sided identity check: sums over mod-l keys, the same
    on each of ``levels``, and ``(key, lhs, rhs)`` for each key that differs."""

    equal: bool
    levels: tuple[int, ...]
    lhs: GrothSum
    rhs: GrothSum
    diffs: list[tuple[str, int, int]]
    warnings: list[str]

    @property
    def exit_code(self) -> int:
        return 0 if self.equal else 1


def theorem_check(
    ds_a: Dataset,
    pi_a: InertialCuspidal,
    ds_b: Dataset,
    pi_b: InertialCuspidal,
    r: int,
    s: int,
) -> Verdict:
    """Compare the two formal sums of congruent datasets at ``(r, s)``.

    Both anchors must share a mod-l class and both datasets the same
    ambient degree and level tower.  A side warns when ``r`` is not
    maximal (:func:`_maximal`): the largest radius of its ``pi``-factors
    is not ``r``.  Only the rows ``s`` are built, and both sides are
    compared level-free, the same on every level.  Torsion is outside
    the comparison: the sides hold record weights only, so two datasets
    that differ only in their torsion profiles read equal.
    """
    if pi_a.modl_class != pi_b.modl_class:
        raise InconsistentDataError(
            "anchor cuspidals do not share a mod-l class: "
            f"{pi_a.modl_class!r} vs {pi_b.modl_class!r}"
        )
    if ds_a.context.d != ds_b.context.d:
        raise InconsistentDataError("datasets have different ambient degrees")
    if ds_a.levels != ds_b.levels:
        raise InconsistentDataError("datasets have different level towers")
    _rows_within_radius(r, s)
    _one_label_per_id(itertools.chain(ds_a.labels, ds_b.labels, (pi_a, pi_b)))
    warnings, sides = [], []
    for name, ds, pi in (("A", ds_a, pi_a), ("B", ds_b, pi_b)):
        rows, observed = _matching(ds, pi, r)
        if not _maximal(observed, r):
            warnings.append(
                f"dataset {name}: r={r} is not the maximal radius "
                f"(observed {observed}); check performed anyway"
            )
        sides.append(_weight(ds._build(rows.get(s, ())), pi, r))
    lhs, rhs = sides
    diffs = [(key, lhs.coefficient(key), rhs.coefficient(key)) for key, _ in (lhs - rhs).items()]
    return Verdict(
        equal=not diffs, levels=ds_a.levels, lhs=lhs, rhs=rhs, diffs=diffs, warnings=warnings
    )


def substitute_cuspidal(
    ds: Dataset, old: InertialCuspidal, new: InertialCuspidal
) -> Dataset:
    """Replace ``old`` by ``new`` in every local component of the dataset."""
    data = tuple(
        replace(datum, local=datum.local.substituted(old, new)) for datum in ds.data
    )
    context = ds.context
    if context.pi == old:
        context = replace(context, pi=new)
    return replace(ds, context=context, data=data)


def generate_dataset(
    seed: int,
    ctx: GlobalContext,
    *,
    r: int,
    pairs: list[tuple[int, int]] | None = None,
    levels: tuple[int, ...] = (0, 1, 2),
    torsion: TorsionProfile | None = None,
    noise_data: int = 1,
) -> Dataset:
    """Deterministic pseudo-random dataset anchored at ``ctx.pi``.

    ``pairs`` prescribes the contributing shapes exactly (repeats give
    multiplicity); when omitted a random admissible selection is drawn.
    All shapes satisfy ``s + t - 1 = r``; extra factors and fillers use
    bases foreign to the anchor, so ``r`` stays maximal.  A wildcard fills
    each record up to degree ``d``, and a record whose factors fill ``d``
    has none.  Unsatisfiable constraints raise ``ValueError``.
    """
    rng = random.Random(seed)
    d, g, pi = ctx.d, ctx.g, ctx.pi
    if r < 1:
        raise ValueError(f"radius must be >= 1, got {r}")

    def fits(s: int, t: int) -> bool:
        return s * t * g <= d

    if pairs is None:
        candidates = [s for s in range(1, r + 1) if fits(s, r - s + 1)]
        if not candidates:
            raise ValueError(f"no shape with s+t-1={r} fits inside degree {d}")
        chosen = rng.sample(candidates, rng.randint(1, min(6, len(candidates))))
        pairs = []
        for s in sorted(chosen):
            pairs.extend([(s, r - s + 1)] * rng.randint(1, 2))
    for s, t in pairs:
        if s + t - 1 != r:
            raise ValueError(f"pair ({s},{t}) does not sit at radius {r}")
        if not fits(s, t):
            raise ValueError(f"pair ({s},{t}) does not fit inside degree {d}")

    noise_bases = [
        InertialCuspidal(id=f"nz{j}", g=1, e_pi=1, modl_class=f"nz{j}~")
        for j in range(3)
    ]

    def record(id_: str, wild_id: str, s: int, factors, satake: str) -> AutomorphicDatum:
        used = s * sum(t_k * base.g for t_k, base in factors)
        wildcard = Wildcard(wild_id, d - used) if d - used > 0 else None
        return AutomorphicDatum(
            id=id_,
            local=LocalComponent(s=s, factors=tuple(factors), wildcard=wildcard),
            m=rng.randint(1, 4), d_xi=rng.randint(1, 4), inv_dim=rng.randint(1, 4),
            satake=satake,
        )

    data = []
    for idx, (s, t) in enumerate(pairs):
        factors: list[tuple[int, InertialCuspidal]] = [(t, pi)]
        if rng.random() < 0.5:
            extra_t = rng.randint(1, 2)
            if s * (t * g + extra_t) <= d:
                factors.append((extra_t, rng.choice(noise_bases)))
        data.append(record(f"dat{idx}", f"w{idx}", s, factors, f"mt[{idx}]"))
    for j in range(noise_data):
        s_n = rng.randint(1, max(1, min(3, d)))
        base = rng.choice(noise_bases)
        t_n = rng.randint(1, max(1, min(3, d // s_n)))
        data.append(record(f"noise{j}", f"nw{j}", s_n, [(t_n, base)], f"nt[{j}]"))
    return Dataset(
        context=ctx,
        data=tuple(data),
        torsion=torsion if torsion is not None else TorsionProfile(),
        levels=levels,
    )
