"""Formal term calculus for resolutions and filtrations of stratified sheaves.

A ledger term is a labelled symbol: a shriek or intermediate extension
at a Newton stratum ``h*g``, carrying an infinitesimal multisegment, a
half power of the Xi marker, a half Tate twist and a sign.  The module
builds the resolution of an intermediate extension by shrieks at deeper
strata, the filtration of a shriek by intermediates, the adjunction-map
labels between consecutive resolution terms, and the Grothendieck-sum
expansion of a shriek through its filtration.

Exactness of the expanded double sum is *not* asserted: cancelling it
needs decomposition rules for mixed Speh-times-Steinberg products that
this calculus deliberately leaves opaque.  What the ledger does verify
is degree conservation, sign alternation and grouping by stratum, and
it exposes the grouped residual for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .formal import GrothSum
from .zline import (
    HalfInt,
    InertialCuspidal,
    LadderShape,
    Multisegment,
    Segment,
    Wildcard,
    ZERO,
    make_steinberg,
    normalized_product,
    ordered_product,
    twist,
)

SHRIEK = "shriek"
INTERMEDIATE = "intermediate"


class InvariantViolation(ValueError):
    """A ledger operation was fed data breaking the degree bookkeeping."""


@dataclass(frozen=True)
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
    """

    kind: str
    stratum: int
    infinitesimal: Multisegment
    xi_power: HalfInt = ZERO
    tate: HalfInt = ZERO
    sign: int = 1

    def __post_init__(self) -> None:
        if self.kind not in (SHRIEK, INTERMEDIATE):
            raise ValueError(f"unknown term kind {self.kind!r}")
        if self.stratum < 1:
            raise ValueError(f"stratum must be >= 1, got {self.stratum}")
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +-1, got {self.sign}")

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


def _speh_cells(ctx: GlobalContext, delta: int, center: HalfInt) -> Multisegment:
    """``Speh_delta(pi{center})`` as a multisegment; empty when delta is 0."""
    if delta == 0:
        return Multisegment.empty()
    return LadderShape(ctx.pi, s=delta, t=1, center=center).to_multisegment()


def resolution_terms(
    ctx: GlobalContext, t: int, inf: Multisegment
) -> list[LedgerTerm]:
    """Shriek terms resolving the intermediate extension at stratum ``t``.

    For ``delta = 0..s_g - t`` the term at stratum ``t + delta`` is the
    shriek of ``inf{-delta/2} x Speh_delta(pi{t/2})`` with Xi-power
    ``delta/2`` and sign ``(-1)^delta``; the augmentation intermediate
    at ``t`` closes the list.
    """
    _check_home(ctx, t, inf)
    terms = []
    for delta in range(ctx.s_g - t + 1):
        infinitesimal = normalized_product(
            twist(inf, HalfInt(-delta)),
            _speh_cells(ctx, delta, HalfInt(t)),
        )
        terms.append(
            LedgerTerm(
                kind=SHRIEK,
                stratum=t + delta,
                infinitesimal=infinitesimal,
                xi_power=HalfInt(delta),
                sign=-1 if delta % 2 else 1,
            )
        )
    terms.append(LedgerTerm(kind=INTERMEDIATE, stratum=t, infinitesimal=inf))
    return terms


def filtration_graded(
    ctx: GlobalContext, t: int, inf: Multisegment
) -> list[LedgerTerm]:
    """Graded parts of the filtration of the shriek extension at ``t``.

    For ``delta = 0..s_g - t``: the intermediate extension at stratum
    ``t + delta`` of ``inf`` ordered-times ``St_delta(pi)``, Tate twisted
    by ``delta/2``.  ``delta = 0`` is the plain intermediate at ``t``.
    """
    _check_home(ctx, t, inf)
    terms = []
    for delta in range(ctx.s_g - t + 1):
        if delta == 0:
            infinitesimal = inf
        else:
            infinitesimal = ordered_product(
                inf, make_steinberg(ctx.pi, delta).to_multisegment()
            )
        terms.append(
            LedgerTerm(
                kind=INTERMEDIATE,
                stratum=t + delta,
                infinitesimal=infinitesimal,
                tate=HalfInt(delta),
            )
        )
    return terms


def adjunction_label(
    ctx: GlobalContext, t: int, delta: int, inf: Multisegment | None = None
) -> tuple[LedgerTerm, LedgerTerm, Multisegment]:
    """The ``delta``-th arrow of the resolution at ``t`` and its label.

    Returns ``(source, target, induced)`` where source and target are
    the resolution terms at strata ``t + delta`` and ``t + delta - 1``
    and ``induced`` is the multisegment

        inf{(1-delta)/2} x (Speh_{delta-1}(pi{-1/2}) x pi{(delta-1)/2}){t/2}

    carrying Xi-power ``delta/2`` in its Tate marker.  Stripping the
    infinitesimal factor (see :func:`strip_adjunction_core`) leaves a
    label independent of the chosen ``t``.
    """
    if inf is None:
        inf = generic_infinitesimal(ctx, t)
    if not 1 <= delta <= ctx.s_g - t:
        raise InvariantViolation(
            f"arrow index delta={delta} outside 1..{ctx.s_g - t}"
        )
    terms = resolution_terms(ctx, t, inf)
    source, target = terms[delta], terms[delta - 1]
    core = normalized_product(
        _speh_cells(ctx, delta - 1, HalfInt(-1)),
        Multisegment((Segment(ctx.pi, HalfInt(delta - 1), 1),)),
    )
    induced = normalized_product(
        twist(inf, HalfInt(1 - delta)), twist(core, HalfInt(t))
    ).with_tate(HalfInt(delta))
    return source, target, induced


def strip_adjunction_core(induced: Multisegment, t: int) -> Multisegment:
    """Drop the opaque infinitesimal and recentre the remaining label.

    Removes the wildcard factor and undoes the ``{t/2}`` positioning, so
    the cores of the ``delta``-th arrows for different ``t`` coincide.
    """
    return induced.without_wildcard().shifted(HalfInt(-t))


def expand_shriek(ctx: GlobalContext, t: int, inf: Multisegment) -> GrothSum:
    """Rewrite the shriek class at ``t`` as the sum of its graded parts."""
    return GrothSum((term, 1) for term in filtration_graded(ctx, t, inf))


def expand_resolution(ctx: GlobalContext, t: int, inf: Multisegment) -> GrothSum:
    """Expand every shriek term of the resolution at ``t`` through its filtration.

    Each expanded term keeps the originating shriek's sign and Xi-power
    on top of its own Tate marker, so the combined sum groups by total
    stratum and conserves degree term by term.  The sum is exposed as is:
    no Speh-times-Steinberg cancellation is applied.
    """
    return GrothSum(
        (replace(sub, xi_power=term.xi_power, sign=1), term.sign)
        for term in resolution_terms(ctx, t, inf)
        if term.kind == SHRIEK
        for sub in filtration_graded(ctx, term.stratum, term.infinitesimal)
    )


def group_by_stratum(total: GrothSum) -> dict[int, GrothSum]:
    """Split a sum of ledger terms by their stratum, for inspection."""
    groups: dict[int, list[tuple[LedgerTerm, int]]] = {}
    for term in total.labels():
        groups.setdefault(term.stratum, []).append((term, total.coefficient(term)))
    return {stratum: GrothSum(pairs) for stratum, pairs in groups.items()}
