"""(r, i) support diagrams of Speh-of-Steinberg shapes.

For a shape with ``s`` rows of length ``t`` the indicator ``m_{s,t}(r,i)``
marks the lattice points carrying cohomology: they fill the convex
polygon with vertices ``(s+t-1, 0)``, ``(t, +-(s-1))`` and ``(1, +-(s-t))``
when ``s >= t`` (left vertex ``(t-s+1, 0)`` when ``t >= s``), with ``i``
stepping by 2 from the boundary at each fixed ``r``.  A diagram is the
mapping from each support point to the 1-based indices of the factors
whose support holds it.  A local component is a product of such shapes
sharing the row count ``s``; its diagram is the superposition of the
per-factor diagrams.  A constituent is the triple (component, point,
traced factor ``k``): the component with its k-th factor replaced by an
opaque ``R`` symbol at the point.  Its text is written by
``traced_symbol``, ``marker_text`` and ``zline.ladder_text`` from plain
parts, and ``congruence.modl_key`` writes its keys with the same three.
Which factors trace is ``traced_factors``, also on plain parts (lengths
and ids), so ``constituent_sum`` and a ``modl_key`` miss share the rule.

A point is a ``DiagramPoint``, a named tuple ``(r, i)``: it is hashed,
compared and ordered in C, and a diagram's points are built in C, so
``sorted(diagram)`` lists them by ``r``, then ``i``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .formal import GrothSum
from .zline import HalfInt, InertialCuspidal, Wildcard, ladder_text, reduced_label


class DiagramPoint(NamedTuple):
    """A lattice point ``(r, i)`` of a support diagram.

    A tuple ``(r, i)``, so it is hashed and compared in C.  Its hash is
    ``hash((r, i))``.  It is immutable, and as a tuple it equals the
    plain tuple ``(r, i)``, iterates as its two fields and orders by
    ``r``, then ``i``.
    """

    r: int
    i: int

    def __str__(self) -> str:
        return f"({self.r},{self.i})"


def _half_width(s: int, t: int, r: int) -> int:
    """The largest ``|i|`` of the support of ``(s, t)`` at ``r``; negative past either end."""
    return s + t - 1 - r if r >= t else s - 1 - (t - r)


def m_indicator(s: int, t: int, r: int, i: int) -> int:
    """0/1 indicator of the support at the point ``(r, i)``.

    Nonzero iff ``r >= 1`` and, writing ``m = s+t-1-r`` for ``r >= t``
    and ``m = s-1-(t-r)`` for ``r <= t``, ``|i| <= m`` with ``i``
    congruent to ``m`` mod 2; so ``max(1, t-s+1) <= r <= s+t-1``.
    """
    if s < 1 or t < 1:
        raise ValueError(f"shape parameters must be positive, got s={s}, t={t}")
    m = _half_width(s, t, r)
    return 1 if r >= 1 and abs(i) <= m and (i - m) % 2 == 0 else 0


@dataclass(frozen=True, slots=True)
class LocalComponent:
    """``Speh_s(St_{t_1}(pi_1) x ... x St_{t_u}(pi_u)) x ?``.

    Factors are ordered and 1-indexed; an optional wildcard absorbs the
    unnamed remainder of the degree.
    """

    s: int
    factors: tuple[tuple[int, InertialCuspidal], ...]
    wildcard: Wildcard | None = None

    def __post_init__(self) -> None:
        if self.s < 1:
            raise ValueError(f"component needs s >= 1, got {self.s}")
        if not self.factors and self.wildcard is None:
            raise ValueError("component needs at least one factor or a wildcard")
        for t, _ in self.factors:
            if t < 1:
                raise ValueError(f"factor length must be >= 1, got {t}")

    @property
    def degree(self) -> int:
        total = self.s * sum(t * base.g for t, base in self.factors)
        if self.wildcard is not None:
            total += self.wildcard.degree
        return total

    def factor(self, k: int) -> tuple[int, InertialCuspidal]:
        """The k-th factor, 1-indexed."""
        if not 1 <= k <= len(self.factors):
            raise ValueError(f"factor index {k} out of range")
        return self.factors[k - 1]

    def substituted(
        self, old: InertialCuspidal, new: InertialCuspidal
    ) -> "LocalComponent":
        factors = tuple(
            (t, new if base == old else base) for t, base in self.factors
        )
        return LocalComponent(self.s, factors, self.wildcard)

    def reduced(self) -> "LocalComponent":
        """Every base replaced by the label of its mod-l class."""
        factors = tuple((t, reduced_label(base)) for t, base in self.factors)
        return LocalComponent(self.s, factors, self.wildcard)

    def __str__(self) -> str:
        return _product_str(self)


def _product_str(
    c: LocalComponent, p: DiagramPoint | None = None, k: int = 0
) -> str:
    """``c`` as a product of shapes, factor ``k`` written as its ``R`` symbol at ``p``."""
    parts = [
        traced_symbol(base.id, c.s, t, p) if j == k else ladder_text(base.id, c.s, t)
        for j, (t, base) in enumerate(c.factors, start=1)
    ]
    if c.wildcard is not None:
        parts.append(str(c.wildcard))
    return " x ".join(parts)


def traced_symbol(base_id: str, s: int, t: int, p: DiagramPoint) -> str:
    """The opaque symbol ``R_<id>(s,t)(r,i)`` of a traced factor at ``p``."""
    return f"R_{base_id}({s},{t}){p}"


def marker_text(k: int, tate: HalfInt) -> str:
    """The marker `` [xi_k, Xi^<tate>]`` of the constituent traced by factor ``k``."""
    return f" [xi_{k}, Xi^{tate}]"


Diagram = dict[DiagramPoint, tuple[int, ...]]  # point -> 1-based factor indices


def _scan(s: int, ts: list[int]) -> Diagram:
    """Superposed supports of the shapes ``(s, t_k)``, each point annotated
    with every 1-based ``k`` whose support holds it.

    Walks each polygon column by column: ``r`` from its left end to the
    right vertex, ``i`` from ``-m`` to ``m`` in steps of 2.
    """
    ann: Diagram = {}
    new = tuple.__new__  # builds each point in C, past the Python __new__
    for k, t_k in enumerate(ts, start=1):
        for r in range(max(1, t_k - s + 1), s + t_k):
            m = _half_width(s, t_k, r)
            for i in range(-m, m + 1, 2):
                p = new(DiagramPoint, (r, i))
                ann[p] = ann.get(p, ()) + (k,)
    return ann


def diagram(s: int, t: int) -> Diagram:
    """All points with ``m_indicator(s, t, r, i) = 1``, each mapped to ``(1,)``."""
    if s < 1 or t < 1:
        raise ValueError(f"shape parameters must be positive, got s={s}, t={t}")
    return _scan(s, [t])


def superpose(c: LocalComponent) -> Diagram:
    """Union of the per-factor diagrams of ``c`` with factor annotations.

    Maps the point ``(r, i)`` to every 1-based index ``k`` such that the
    k-th factor's indicator is nonzero there, in increasing order.
    Adding a factor never removes points or annotations.
    """
    return _scan(c.s, [t_k for t_k, _ in c.factors])


def _traced_length(c: LocalComponent, p: DiagramPoint, k: int) -> int:
    """The length ``t_k`` of factor ``k``; raises unless that factor annotates ``p``."""
    t_k, _ = c.factor(k)
    if not m_indicator(c.s, t_k, p.r, p.i):
        raise ValueError(f"factor {k} does not annotate {p}")
    return t_k


def trace_back(
    c: LocalComponent, p: DiagramPoint, k: int
) -> DiagramPoint | None:
    """The higher ``(r', 0)`` the k-th constituent at ``p`` comes from.

    Returns ``(s + t_k - 1, 0)`` when that is strictly to the right of
    ``p``; at the right vertex itself the constituent does not come
    from any higher point and the result is ``None``.
    """
    origin_r = c.s + _traced_length(c, p, k) - 1
    if origin_r > p.r:
        return DiagramPoint(origin_r, 0)
    return None


@dataclass(frozen=True)
class ConstituentLabel:
    """The constituent of ``component`` at ``point`` traced by factor ``xi_index``.

    Written as the component's product with the traced factor replaced
    by the opaque symbol ``R_<id>(s,t)(r,i)``, marked with the k-th
    twisting character and ``Xi^{i/2}``.  The symbol keeps the base and
    degree of the factor it replaces, so substituting or reducing a base
    commutes with the construction.
    """

    component: LocalComponent
    point: DiagramPoint
    xi_index: int

    def product_str(self) -> str:
        return _product_str(self.component, self.point, self.xi_index)

    def marker(self) -> str:
        return marker_text(self.xi_index, HalfInt(self.point.i))

    def __str__(self) -> str:
        return self.product_str() + self.marker()


def constituent(c: LocalComponent, p: DiagramPoint, k: int) -> ConstituentLabel:
    """The labelled constituent contributed by factor ``k`` at ``p``."""
    _traced_length(c, p, k)
    return ConstituentLabel(c, p, k)


def traced_factors(
    s: int, factors: Iterable[tuple[int, str]], pi_id: str, p: DiagramPoint
) -> Iterator[int]:
    """The 1-based index ``k`` of each factor that traces ``pi`` at ``p``, in
    factor order, from plain parts: the row count ``s``, each factor as its
    ``(t_k, base id)`` and the id of ``pi``.  Factor ``k`` traces when its
    base id is ``pi_id`` (labels compare by id, so this is ``base_k == pi``)
    and the indicator of ``(s, t_k)`` is nonzero at ``p``.

    The one statement of the rule: ``constituent_sum`` sums these factors,
    and a miss of ``congruence.modl_key`` writes each one's label text,
    without the sum or the label.
    """
    for k, (t_k, base_id) in enumerate(factors, start=1):
        if base_id == pi_id and m_indicator(s, t_k, p.r, p.i):
            yield k


def constituent_sum(
    c: LocalComponent, pi: InertialCuspidal, p: DiagramPoint
) -> GrothSum:
    """Sum of the constituents at ``p`` over factors whose base is equal to ``pi``.

    One unit term per factor index ``k`` of :func:`traced_factors`, asked
    on each factor's length and base id and on the id of ``pi``.
    """
    factors = [(t, base.id) for t, base in c.factors]
    return GrothSum((ConstituentLabel(c, p, k), 1) for k in traced_factors(c.s, factors, pi.id, p))
