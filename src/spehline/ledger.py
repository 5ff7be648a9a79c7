"""Formal term calculus for resolutions and filtrations of stratified sheaves.

A ledger term is a labelled symbol: a shriek or intermediate extension
at a Newton stratum ``h*g``, carrying an infinitesimal multisegment, a
half power of the Xi marker, a half Tate twist and a sign.  The module
builds the resolution of an intermediate extension by shrieks at deeper
strata, the filtration of a shriek by intermediates, the adjunction-map
labels between consecutive resolution terms, and the Grothendieck-sum
expansion of the resolution through the filtrations of its shrieks.

A resolution and its arrows form one complex, built in one pass: one
set of shifts ``inf{-delta/2}`` and one ``zline.speh_tower`` of factors
``Speh_delta(pi{t/2})``, ``delta = 0..n`` with ``n = s_g - t``, whose
``2n - 1`` one-cell rows are built once, give every term and every
arrow label; ``torsion`` reads its Speh factors off a tower too.

An expansion shares the Steinberg factors ``St_delta(pi)``, built on
first use, among every shriek term of one resolution, builds each
expanded term as one ``LedgerTerm`` straight from its ordered product,
and gathers the terms into one dict that becomes the sum as it is.
Those terms are built by the trusted ``LedgerTerm._expanded``, which
skips the checks of ``__post_init__``: ``expand_resolution``, its one
caller, proves that they hold.  The multisegments beneath keep their
segment order without a sort wherever it is known (see ``Multisegment``).

Exactness of the expanded double sum is *not* asserted: cancelling it
needs decomposition rules for mixed Speh-times-Steinberg products that
this calculus deliberately leaves opaque.  What the ledger does verify
is degree conservation, sign alternation and grouping by stratum, and
it exposes the grouped residual for inspection.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .formal import GrothSum
from .zline import (
    HalfInt,
    InertialCuspidal,
    Multisegment,
    Wildcard,
    ZERO,
    make_steinberg,
    normalized_product,
    ordered_product,
    speh_tower,
)

SHRIEK = "shriek"
INTERMEDIATE = "intermediate"


class InvariantViolation(ValueError):
    """A ledger operation was fed data breaking the degree bookkeeping."""


@dataclass(frozen=True, slots=True)
class GlobalContext:
    """Ambient dimension ``d``, anchor cuspidal ``pi`` and scalar ``kappa``.

    ``kappa`` is the configured multiplicity prefactor; it never enters
    the formal bookkeeping, both sides of every comparison share it.
    """

    d: int
    pi: InertialCuspidal
    kappa: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if self.d < self.pi.g:
            raise ValueError(f"need d >= g, got d={self.d}, g={self.pi.g}")
        if self.kappa <= 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")

    @property
    def g(self) -> int:
        return self.pi.g

    @property
    def s_g(self) -> int:
        return self.d // self.g


@dataclass(frozen=True)
class LedgerTerm:
    """One labelled term of a resolution or filtration.

    ``stratum`` is the Newton index ``h`` (the stratum is ``h*g``).  The
    Xi and Tate markers double as degree bookkeeping: a term obtained by
    appending ``delta`` cells to the infinitesimal of a home stratum
    carries marker ``delta/2``, so the conserved total degree is

        stratum*g + degree(infinitesimal) - 2*g*(|2*xi| + |2*tate|)

    which reduces to ``stratum*g + degree(infinitesimal)`` on marker-free
    terms.

    The hash is the hash of the six fields, the two markers read by
    ``.twice``, computed on the first ``hash()`` and kept on the
    instance; the infinitesimal's hash is computed in C (see
    ``Multisegment``).  It is never copied: ``replace`` builds a new
    instance, and pickles and copies leave it out.
    """

    kind: str
    stratum: int
    infinitesimal: Multisegment
    xi_power: HalfInt = ZERO
    tate: HalfInt = ZERO
    sign: int = 1

    # not a field: equality, repr and replace never see it
    _hash = None

    def __post_init__(self) -> None:
        if self.kind not in (SHRIEK, INTERMEDIATE):
            raise ValueError(f"unknown term kind {self.kind!r}")
        if self.stratum < 1:
            raise ValueError(f"stratum must be >= 1, got {self.stratum}")
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +-1, got {self.sign}")

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(
                (
                    self.kind,
                    self.stratum,
                    self.infinitesimal,
                    self.xi_power.twice,
                    self.tate.twice,
                    self.sign,
                )
            )
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> dict:
        # a hash depends on the process's hash seed, so it must not travel
        state = dict(vars(self))
        state.pop("_hash", None)
        return state

    @classmethod
    def _expanded(
        cls, stratum: int, infinitesimal: Multisegment, xi_power: HalfInt, tate: HalfInt
    ) -> "LedgerTerm":
        """Trusted constructor of an intermediate term with sign 1.

        Its one caller, :func:`expand_resolution`, passes strata of at
        least 1, so it makes none of the checks of ``__post_init__``.
        """
        out = object.__new__(cls)
        # the fields in declaration order, as __init__ writes them
        fields = out.__dict__
        fields["kind"] = INTERMEDIATE
        fields["stratum"] = stratum
        fields["infinitesimal"] = infinitesimal
        fields["xi_power"] = xi_power
        fields["tate"] = tate
        fields["sign"] = 1
        return out

    @property
    def shift_cells(self) -> int:
        """Cells appended to the home infinitesimal, read off the markers."""
        return abs(self.xi_power.twice) + abs(self.tate.twice)

    def degree(self, g: int) -> int:
        return self.stratum * g + self.infinitesimal.degree - 2 * g * self.shift_cells

    def __str__(self) -> str:
        return (
            f"{self.kind} h={self.stratum} sign={self.sign:+d} "
            f"xi={self.xi_power} tate={self.tate} :: {self.infinitesimal}"
        )


def generic_infinitesimal(ctx: GlobalContext, t: int) -> Multisegment:
    """An opaque infinitesimal of the degree required at stratum ``t``."""
    return Multisegment(wildcard=Wildcard(f"Pi[{t}]", ctx.d - t * ctx.g))


def _check_home(ctx: GlobalContext, t: int, inf: Multisegment) -> None:
    if not 1 <= t <= ctx.s_g:
        raise InvariantViolation(f"stratum index t={t} outside 1..{ctx.s_g}")
    slack = inf.degree - (ctx.d - t * ctx.g)
    # terms re-expanded through the filtration carry whole appended cells
    if slack < 0 or slack % ctx.g != 0:
        raise InvariantViolation(
            f"infinitesimal degree {inf.degree} incompatible with stratum {t} "
            f"(expected {ctx.d - t * ctx.g} up to whole appended cells)"
        )


def _resolution(
    ctx: GlobalContext, t: int, inf: Multisegment
) -> tuple[list[LedgerTerm], list[Multisegment], list[Multisegment]]:
    """The terms of :func:`resolution_terms`, with the shifts ``inf{-delta/2}``
    and the tower ``Speh_delta(pi{t/2})``, ``delta = 0..s_g - t``, that build
    them: the shriek at ``delta`` has infinitesimal ``shifts[delta] x tower[delta]``."""
    _check_home(ctx, t, inf)
    tower = speh_tower(ctx.pi, ctx.s_g - t, HalfInt(t))
    shifts = [inf.shifted(HalfInt(-delta)) for delta in range(len(tower))]
    terms = [
        LedgerTerm(
            kind=SHRIEK,
            stratum=t + delta,
            infinitesimal=normalized_product(shifted, speh),
            xi_power=HalfInt(delta),
            sign=-1 if delta % 2 else 1,
        )
        for delta, (shifted, speh) in enumerate(zip(shifts, tower))
    ]
    terms.append(LedgerTerm(kind=INTERMEDIATE, stratum=t, infinitesimal=inf))
    return terms, shifts, tower


def resolution_terms(
    ctx: GlobalContext, t: int, inf: Multisegment
) -> list[LedgerTerm]:
    """Shriek terms resolving the intermediate extension at stratum ``t``.

    For ``delta = 0..s_g - t`` the term at stratum ``t + delta`` is the
    shriek of ``inf{-delta/2} x Speh_delta(pi{t/2})`` with Xi-power
    ``delta/2`` and sign ``(-1)^delta``; the augmentation intermediate
    at ``t`` closes the list.  Every ``Speh_delta`` is read off one
    ``speh_tower`` of length ``n = s_g - t``.
    """
    return _resolution(ctx, t, inf)[0]


def _graded(
    ctx: GlobalContext, t: int, inf: Multisegment, steinbergs: list[Multisegment]
) -> Iterator[tuple[int, Multisegment]]:
    """``(delta, ordered_product(inf, St_delta(pi)))`` for ``delta = 1..s_g - t``,
    after ``(0, inf)``: the graded parts of the shriek at ``t``.

    ``steinbergs[delta - 1]`` holds ``St_delta(pi)``; a missing one is
    built and appended, so callers that share the list build each once.
    """
    _check_home(ctx, t, inf)
    yield 0, inf
    for delta in range(1, ctx.s_g - t + 1):
        if delta > len(steinbergs):
            steinbergs.append(make_steinberg(ctx.pi, delta).to_multisegment())
        yield delta, ordered_product(inf, steinbergs[delta - 1])


def filtration_graded(
    ctx: GlobalContext, t: int, inf: Multisegment
) -> list[LedgerTerm]:
    """Graded parts of the filtration of the shriek extension at ``t``.

    For ``delta = 0..s_g - t``: the intermediate extension at stratum
    ``t + delta`` of ``inf`` ordered-times ``St_delta(pi)``, Tate twisted
    by ``delta/2``.  ``delta = 0`` is the plain intermediate at ``t``.
    """
    return [
        LedgerTerm(INTERMEDIATE, t + delta, part, tate=HalfInt(delta))
        for delta, part in _graded(ctx, t, inf, [])
    ]


def adjunction_labels(
    ctx: GlobalContext, t: int, inf: Multisegment
) -> list[tuple[LedgerTerm, LedgerTerm, Multisegment]]:
    """Every arrow of the resolution at ``t``, with its label.

    Entry ``delta - 1`` is the ``delta``-th arrow, ``delta = 1..s_g - t``,
    as ``(source, target, induced)``: source and target are the
    resolution's own terms at strata ``t + delta`` and ``t + delta - 1``,
    and ``induced`` is the multisegment

        inf{(1-delta)/2} x (Speh_{delta-1}(pi{-1/2}) x pi{(delta-1)/2}){t/2}

    carrying Xi-power ``delta/2`` in its Tate marker.  The core
    ``Speh_{delta-1}(pi{-1/2}) x pi{(delta-1)/2}`` has exactly the rows
    of ``Speh_delta(pi)``, the cells at ``(1-delta)/2, ..., (delta-1)/2``,
    so the label is the target's shift times the source's Speh factor,
    both taken from the one pass that builds the resolution.  Stripping
    the infinitesimal factor (see :func:`strip_adjunction_core`) leaves
    a label independent of the chosen ``t``.
    """
    terms, shifts, tower = _resolution(ctx, t, inf)
    return [
        (
            terms[delta],
            terms[delta - 1],
            normalized_product(shifts[delta - 1], tower[delta]).with_tate(HalfInt(delta)),
        )
        for delta in range(1, len(tower))
    ]


def strip_adjunction_core(induced: Multisegment, t: int) -> Multisegment:
    """Drop the opaque infinitesimal and recentre the remaining label.

    Removes the wildcard factor and undoes the ``{t/2}`` positioning, so
    the cores of the ``delta``-th arrows for different ``t`` coincide.
    """
    return induced.without_wildcard().shifted(HalfInt(-t))


def expand_resolution(ctx: GlobalContext, t: int, inf: Multisegment) -> GrothSum:
    """Expand every shriek term of the resolution at ``t`` through its filtration.

    Each expanded term keeps the originating shriek's Xi-power on top of
    its own Tate marker and has sign field 1; the shriek's sign is the
    term's coefficient in the sum.  So the combined sum groups by total
    stratum and conserves degree term by term.  The sum is exposed as is:
    no Speh-times-Steinberg cancellation is applied.

    Built once per expansion: each ``St_delta(pi)``, ``delta = 1..s_g - t``,
    shared by every shriek term; each marker ``HalfInt(delta)``, read off
    the shrieks' Xi-powers; and each expanded term, as one ``LedgerTerm``
    straight from its ordered product (the terms of
    :func:`filtration_graded` are never built).  Each shriek term is
    checked against its home stratum.

    Each term is built by the trusted ``LedgerTerm._expanded``, which
    skips the checks of ``__post_init__`` because they hold here: the
    kind is ``INTERMEDIATE`` and the sign 1 by construction, and the
    stratum is the shriek's stratum plus ``delta >= 0``, where the shriek's
    stratum is at least ``t`` and ``_check_home`` holds ``t >= 1``.

    The sum is one dict, taken as it is.  A term is named by its markers
    ``(xi, tate)``: the ``delta`` of its shriek, ``0..n`` with
    ``n = s_g - t``, and the ``delta`` of its graded part,
    ``0..n - xi``.  So the ``(n + 1)(n + 2)/2`` terms are distinct, no
    two ever merge, and each coefficient is a sign.  The length check
    guards that count.
    """
    shrieks = [term for term in resolution_terms(ctx, t, inf) if term.kind == SHRIEK]
    # the shriek at delta carries Xi-power HalfInt(delta): the graded markers
    markers = [term.xi_power for term in shrieks]
    steinbergs: list[Multisegment] = []
    build = LedgerTerm._expanded
    terms = {
        build(term.stratum + delta, part, term.xi_power, markers[delta]): term.sign
        for term in shrieks
        for delta, part in _graded(ctx, term.stratum, term.infinitesimal, steinbergs)
    }
    n = ctx.s_g - t
    if len(terms) != (n + 1) * (n + 2) // 2:
        raise InvariantViolation(
            f"expansion at t={t} has {len(terms)} distinct terms, "
            f"expected {(n + 1) * (n + 2) // 2}"
        )
    return GrothSum._wrap(terms)


def group_by_stratum(total: GrothSum) -> dict[int, GrothSum]:
    """Split a sum of ledger terms by their stratum, for inspection.

    Each group is part of a normal sum, so it is taken as it is.
    """
    groups: dict[int, dict[LedgerTerm, int]] = {}
    for term in total.labels():
        groups.setdefault(term.stratum, {})[term] = total.coefficient(term)
    return {stratum: GrothSum._wrap(terms) for stratum, terms in groups.items()}
