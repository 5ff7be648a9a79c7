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
and the two-sided check compares the formal level-indexed sums of two
datasets anchored at congruent cuspidals.

Invariant dimensions are not computable from labels, so a matching
record contributes its weight on one formal symbol per (mod-l class,
level); torsion rides on the reserved unit symbol of each level.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterator

from .diagrams import DiagramPoint, LocalComponent, constituent_sum
from .formal import GrothSum
from .ledger import GlobalContext
from .torsion import TorsionProfile, torsion_dimension
from .zline import InertialCuspidal, Wildcard


class InconsistentDataError(ValueError):
    """A dataset or table breaks the invariants the separation relies on."""


class InconsistentTableError(InconsistentDataError):
    """A dimension table produced a negative residue while peeling."""


UNIT_KEY = "1"


@dataclass(frozen=True)
class DimensionProfileSymbol:
    """Formal symbol for the invariant dimension of a mod-l class at a level."""

    key: str
    level: int

    def __str__(self) -> str:
        return f"dim<{self.key} @n={self.level}>"


def unit_symbol(n: int) -> DimensionProfileSymbol:
    return DimensionProfileSymbol(UNIT_KEY, n)


@dataclass(frozen=True)
class AutomorphicDatum:
    """One synthetic automorphic record."""

    id: str
    local: LocalComponent
    m: int
    d_xi: int
    inv_dim: int
    satake: str

    def __post_init__(self) -> None:
        if min(self.m, self.d_xi, self.inv_dim) < 1:
            raise ValueError("multiplicities and dimensions must be >= 1")

    @property
    def weight(self) -> int:
        return self.m * self.d_xi * self.inv_dim


@dataclass(frozen=True)
class Dataset:
    """A context, its records, a torsion profile and a level tower."""

    context: GlobalContext
    data: tuple[AutomorphicDatum, ...]
    torsion: TorsionProfile = TorsionProfile()
    levels: tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(sorted(self.levels)))
        if not self.levels:
            raise InconsistentDataError("dataset needs at least one level")
        if len(set(self.levels)) != len(self.levels):
            raise InconsistentDataError("levels must be distinct")
        if any(n < 0 for n in self.levels):
            raise InconsistentDataError("levels must be >= 0")
        ids: set[str] = set()
        for datum in self.data:
            if datum.id in ids:
                raise InconsistentDataError(f"duplicate datum id {datum.id!r}")
            ids.add(datum.id)
            if datum.local.degree != self.context.d:
                raise InconsistentDataError(
                    f"datum {datum.id!r} has degree {datum.local.degree}, "
                    f"expected {self.context.d}"
                )
        if self.torsion.t0 is not None and max(self.levels) >= len(self.torsion.tau):
            raise InconsistentDataError(
                "torsion profile does not cover every level of the tower"
            )


def _radii(local: LocalComponent, pi: InertialCuspidal) -> Iterator[int]:
    """The radius ``s + t_k - 1`` of each factor whose base is ``pi``."""
    return (local.s + t_k - 1 for t_k, base_k in local.factors if base_k.id == pi.id)


def members(
    ds: Dataset, pi: InertialCuspidal, r: int, s: int
) -> list[AutomorphicDatum]:
    """Records whose component has ``s`` rows and a ``pi``-factor at radius ``r``.

    A record qualifies when some factor ``(t_k, base_k)`` has ``base_k``
    inertially equal to ``pi`` and ``s + t_k - 1 = r``.
    """
    return [
        datum
        for datum in ds.data
        if datum.local.s == s and r in _radii(datum.local, pi)
    ]


@lru_cache(maxsize=16384)
def modl_key(local: LocalComponent, pi: InertialCuspidal, r: int) -> str:
    """Canonical string of the mod-l class of the point-(r, 0) constituent sum."""
    total = constituent_sum(local, pi, DiagramPoint(r, 0))
    reduced = GrothSum(
        ((label.reduced(), coeff) for label, coeff in total.items())
    )
    if reduced.is_zero:
        return "0"
    return ";".join(f"{coeff}*{label}" for label, coeff in reduced.items())


def _terms(
    datum: AutomorphicDatum, pi: InertialCuspidal, r: int, levels: tuple[int, ...]
) -> list[tuple[DimensionProfileSymbol, int]]:
    """The record's weight on the symbol of its mod-l class at each level."""
    key = modl_key(datum.local, pi, r)
    return [(DimensionProfileSymbol(key, n), datum.weight) for n in levels]


def _observed_radius(ds: Dataset, pi: InertialCuspidal) -> int | None:
    return max(
        (radius for datum in ds.data for radius in _radii(datum.local, pi)),
        default=None,
    )


@dataclass
class DimensionTable:
    """The table ``d_{k,n}`` for ``k = 0..r-1`` over a level tower."""

    r: int
    levels: tuple[int, ...]
    values: dict[tuple[int, int], GrothSum]
    maximal: bool
    pi_id: str

    def entry(self, k: int, n: int) -> GrothSum:
        return self.values.get((k, n), GrothSum.zero())


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
    cells: dict[tuple[int, int], list[tuple[DimensionProfileSymbol, int]]] = {
        (k, n): [] for k in range(r) for n in ds.levels
    }
    for datum in ds.data:
        if r in _radii(datum.local, pi):
            for n, term in zip(ds.levels, _terms(datum, pi, r, ds.levels)):
                for k in range(datum.local.s):
                    cells[(k, n)].append(term)
    for k in range(1, r):
        for n in ds.levels:
            tau = torsion_dimension(ds.torsion, k, n)
            if tau:
                cells[(k, n)].append((unit_symbol(n), tau))
    observed = _observed_radius(ds, pi)
    return DimensionTable(
        r=r,
        levels=ds.levels,
        values={cell: GrothSum(terms) for cell, terms in cells.items()},
        maximal=(observed is None or observed <= r),
        pi_id=pi.id,
    )


@dataclass
class ContributionSet:
    """The recovered ``(s, t)`` pairs of one radius, with their weights.

    Every pair satisfies ``s + t - 1 = r``.  Weights are formal sums
    over the level-indexed dimension symbols; witness ids, when known,
    are carried as metadata and ignored by equality.
    """

    r: int
    pairs: dict[tuple[int, int], GrothSum]
    witnesses: dict[tuple[int, int], tuple[str, ...]] = field(
        default_factory=dict, compare=False
    )

    def __post_init__(self) -> None:
        for (s, t) in self.pairs:
            if s < 1 or t < 1 or s + t - 1 != self.r:
                raise InconsistentDataError(
                    f"pair ({s},{t}) incompatible with radius {self.r}"
                )

    def shapes(self) -> list[tuple[int, int]]:
        return sorted(self.pairs)


def infer_B(table: DimensionTable, torsion: TorsionProfile) -> ContributionSet:
    """Recover the contributing pairs from a dimension table.

    Subtracts the torsion profile from every ``k >= 1`` entry (legal
    because the torsion contribution is the same for all such ``k``),
    then peels top down: the difference ``d_{k-1,n} - d_{k,n}`` is the
    total weight of pairs with ``s = k``.  Any negative residue along
    the way rejects the table.
    """
    r = table.r
    clean: dict[tuple[int, int], GrothSum] = {}
    for k in range(r):
        for n in table.levels:
            value = table.entry(k, n)
            if k >= 1:
                tau = torsion_dimension(torsion, k, n)
                if tau:
                    value = value - GrothSum.of(unit_symbol(n), tau)
            if value.has_negative():
                raise InconsistentTableError(
                    f"negative residue at k={k}, n={n} after torsion subtraction"
                )
            clean[(k, n)] = value
    pairs: dict[tuple[int, int], GrothSum] = {}
    for k in range(r, 0, -1):
        diffs = []
        for n in table.levels:
            above = clean[(k, n)] if k < r else GrothSum.zero()
            diff = clean[(k - 1, n)] - above
            if diff.has_negative():
                raise InconsistentTableError(
                    f"negative difference between degrees {k - 1} and {k} at n={n}"
                )
            diffs.append(diff)
        weight = GrothSum.sum(diffs)
        if not weight.is_zero:
            pairs[(k, r - k + 1)] = weight
    return ContributionSet(r=r, pairs=pairs)


def expected_contributions(
    ds: Dataset, pi: InertialCuspidal, r: int
) -> ContributionSet:
    """Ground-truth contribution set read directly off the records."""
    parts: dict[tuple[int, int], list[tuple[DimensionProfileSymbol, int]]] = {}
    witnesses: dict[tuple[int, int], tuple[str, ...]] = {}
    for datum in ds.data:
        if r in _radii(datum.local, pi):
            shape = (datum.local.s, r - datum.local.s + 1)
            parts.setdefault(shape, []).extend(_terms(datum, pi, r, ds.levels))
            witnesses[shape] = witnesses.get(shape, ()) + (datum.id,)
    pairs = {shape: GrothSum(terms) for shape, terms in parts.items()}
    return ContributionSet(r=r, pairs=pairs, witnesses=witnesses)


@dataclass
class Verdict:
    """Outcome of the two-sided identity check."""

    equal: bool
    lhs: GrothSum
    rhs: GrothSum
    diffs: list[tuple[DimensionProfileSymbol, int, int]]
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
    ambient degree and level tower.  Non-maximality of ``r`` on either
    side is reported as a warning; the comparison is still performed.
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
    if r < 1 or s < 1 or s > r:
        raise InconsistentDataError(f"need 1 <= s <= r, got r={r}, s={s}")
    warnings, sides = [], []
    for name, ds, pi in (("A", ds_a, pi_a), ("B", ds_b, pi_b)):
        observed = _observed_radius(ds, pi)
        if observed is not None and observed != r:
            warnings.append(
                f"dataset {name}: r={r} is not the maximal radius "
                f"(observed {observed}); check performed anyway"
            )
        records = members(ds, pi, r, s)
        sides.append(GrothSum(t for datum in records for t in _terms(datum, pi, r, ds.levels)))
    lhs, rhs = sides
    delta = lhs - rhs
    diffs = [
        (symbol, lhs.coefficient(symbol), rhs.coefficient(symbol))
        for symbol, _ in delta.items()
    ]
    return Verdict(
        equal=delta.is_zero, lhs=lhs, rhs=rhs, diffs=diffs, warnings=warnings
    )


def substitute_cuspidal(
    ds: Dataset, old: InertialCuspidal, new: InertialCuspidal
) -> Dataset:
    """Replace ``old`` by ``new`` in every local component of the dataset."""
    data = tuple(
        replace(datum, local=datum.local.substituted(old, new)) for datum in ds.data
    )
    context = ds.context
    if context.pi.id == old.id:
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
    with_extra_factors: bool = True,
) -> Dataset:
    """Deterministic pseudo-random dataset anchored at ``ctx.pi``.

    ``pairs`` prescribes the contributing shapes exactly (repeats give
    multiplicity); when omitted a random admissible selection is drawn.
    All shapes satisfy ``s + t - 1 = r``; extra factors and fillers use
    bases foreign to the anchor, so ``r`` stays maximal.  Unsatisfiable
    constraints raise ``ValueError``.
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
    data = []
    for idx, (s, t) in enumerate(pairs):
        factors: list[tuple[int, InertialCuspidal]] = [(t, pi)]
        if with_extra_factors and rng.random() < 0.5:
            extra_t = rng.randint(1, 2)
            if s * (t * g + extra_t) <= d:
                factors.append((extra_t, rng.choice(noise_bases)))
        used = s * sum(tk * bk.g for tk, bk in factors)
        wildcard = Wildcard(f"w{idx}", d - used) if d - used > 0 else None
        data.append(
            AutomorphicDatum(
                id=f"dat{idx}",
                local=LocalComponent(s=s, factors=tuple(factors), wildcard=wildcard),
                m=rng.randint(1, 4),
                d_xi=rng.randint(1, 4),
                inv_dim=rng.randint(1, 4),
                satake=f"mt[{idx}]",
            )
        )
    for j in range(noise_data):
        s_n = rng.randint(1, max(1, min(3, d)))
        base = rng.choice(noise_bases)
        t_n = rng.randint(1, max(1, min(3, d // s_n)))
        used = s_n * t_n * base.g
        wildcard = Wildcard(f"nw{j}", d - used) if d - used > 0 else None
        data.append(
            AutomorphicDatum(
                id=f"noise{j}",
                local=LocalComponent(
                    s=s_n, factors=((t_n, base),), wildcard=wildcard
                ),
                m=rng.randint(1, 4),
                d_xi=rng.randint(1, 4),
                inv_dim=rng.randint(1, 4),
                satake=f"nt[{j}]",
            )
        )
    return Dataset(
        context=ctx,
        data=tuple(data),
        torsion=torsion if torsion is not None else TorsionProfile(),
        levels=levels,
    )
