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
opaque ``R`` symbol at the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .formal import GrothSum
from .zline import HalfInt, InertialCuspidal, LadderShape, Wildcard, reduced_label


@dataclass(frozen=True)
class DiagramPoint:
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
        f"R_{base.id}({c.s},{t}){p}" if j == k else str(LadderShape(base, c.s, t))
        for j, (t, base) in enumerate(c.factors, start=1)
    ]
    if c.wildcard is not None:
        parts.append(str(c.wildcard))
    return " x ".join(parts)


Diagram = dict[DiagramPoint, tuple[int, ...]]  # point -> 1-based factor indices


def _scan(s: int, ts: list[int]) -> Diagram:
    """Superposed supports of the shapes ``(s, t_k)``, each point annotated
    with every 1-based ``k`` whose support holds it.

    Walks each polygon column by column: ``r`` from its left end to the
    right vertex, ``i`` from ``-m`` to ``m`` in steps of 2.
    """
    ann: Diagram = {}
    for k, t_k in enumerate(ts, start=1):
        for r in range(max(1, t_k - s + 1), s + t_k):
            m = _half_width(s, t_k, r)
            for i in range(-m, m + 1, 2):
                p = DiagramPoint(r, i)
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

    @property
    def tate(self) -> HalfInt:
        return HalfInt(self.point.i)

    @property
    def degree(self) -> int:
        return self.component.degree

    def substituted(
        self, old: InertialCuspidal, new: InertialCuspidal
    ) -> "ConstituentLabel":
        return ConstituentLabel(self.component.substituted(old, new), self.point, self.xi_index)

    def reduced(self) -> "ConstituentLabel":
        return ConstituentLabel(self.component.reduced(), self.point, self.xi_index)

    def product_str(self) -> str:
        return _product_str(self.component, self.point, self.xi_index)

    def __str__(self) -> str:
        return f"{self.product_str()} [xi_{self.xi_index}, Xi^{self.tate}]"


def constituent(c: LocalComponent, p: DiagramPoint, k: int) -> ConstituentLabel:
    """The labelled constituent contributed by factor ``k`` at ``p``."""
    _traced_length(c, p, k)
    return ConstituentLabel(c, p, k)


def traced_factors(
    c: LocalComponent, pi: InertialCuspidal, p: DiagramPoint
) -> Iterator[int]:
    """The 1-based index ``k`` of each factor that traces ``pi`` at ``p``, in
    factor order: ``base_k`` is equal to ``pi`` and the indicator of
    ``(s, t_k)`` is nonzero at ``p``.

    The one statement of the rule: ``constituent_sum`` sums these factors,
    and ``congruence.modl_key`` formats their labels without the sum.
    """
    for k, (t_k, base_k) in enumerate(c.factors, start=1):
        if base_k == pi and m_indicator(c.s, t_k, p.r, p.i):
            yield k


def constituent_sum(
    c: LocalComponent, pi: InertialCuspidal, p: DiagramPoint
) -> GrothSum:
    """Sum of the constituents at ``p`` over factors whose base is equal to ``pi``.

    One unit term per factor index ``k`` of :func:`traced_factors`.
    """
    return GrothSum((ConstituentLabel(c, p, k), 1) for k in traced_factors(c, pi, p))
