"""(r, i) support diagrams of Speh-of-Steinberg shapes.

For a shape with ``s`` rows of length ``t`` the indicator ``m_{s,t}(r,i)``
marks the lattice points carrying cohomology: they fill the convex
polygon with vertices ``(s+t-1, 0)``, ``(t, +-(s-1))`` and ``(1, +-(s-t))``
when ``s >= t`` (left vertex ``(t-s+1, 0)`` when ``t >= s``), with ``i``
stepping by 2 from the boundary at each fixed ``r``.  A local component
is a product of such shapes sharing the row count ``s``; its diagram is
the superposition of the per-factor diagrams, each point remembering
which factors contributed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import KeysView

from .formal import GrothSum
from .zline import HalfInt, InertialCuspidal, LadderShape, Wildcard, reduced_label


@dataclass(frozen=True)
class DiagramPoint:
    r: int
    i: int

    def __str__(self) -> str:
        return f"({self.r},{self.i})"


def m_indicator(s: int, t: int, r: int, i: int) -> int:
    """0/1 indicator of the support at the point ``(r, i)``.

    Nonzero iff ``max(1, s+t-1-2(s-1)) <= r <= s+t-1`` and, writing
    ``m = s+t-1-r`` for ``r >= t`` and ``m = s-1-(t-r)`` for ``r <= t``,
    ``|i| <= m`` with ``i`` congruent to ``m`` mod 2.
    """
    if s < 1 or t < 1:
        raise ValueError(f"shape parameters must be positive, got s={s}, t={t}")
    lo = max(1, s + t - 1 - 2 * (s - 1))
    if not lo <= r <= s + t - 1:
        return 0
    if r >= t:
        m = s + t - 1 - r
    else:
        m = s - 1 - (t - r)
    return 1 if abs(i) <= m and (i - m) % 2 == 0 else 0


@dataclass(frozen=True)
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
            (t, new if base.id == old.id else base) for t, base in self.factors
        )
        return replace(self, factors=factors)

    def __str__(self) -> str:
        parts = [str(LadderShape(base, self.s, t)) for t, base in self.factors]
        if self.wildcard is not None:
            parts.append(str(self.wildcard))
        return " x ".join(parts)


@dataclass
class Diagram:
    """A set of support points with per-point factor annotations."""

    annotations: dict[DiagramPoint, tuple[int, ...]]

    @property
    def points(self) -> KeysView[DiagramPoint]:
        return self.annotations.keys()

    def factors_at(self, p: DiagramPoint) -> tuple[int, ...]:
        return self.annotations.get(p, ())

    @property
    def r_max(self) -> int:
        return max((p.r for p in self.points), default=0)

    @property
    def i_max(self) -> int:
        return max((abs(p.i) for p in self.points), default=0)

    def __len__(self) -> int:
        return len(self.annotations)


def _scan(s: int, ts: list[int]) -> Diagram:
    """Superposed supports of the shapes ``(s, t_k)``, each point annotated
    with every 1-based ``k`` whose indicator is nonzero there."""
    ann: dict[DiagramPoint, tuple[int, ...]] = {}
    for k, t_k in enumerate(ts, start=1):
        for r in range(1, s + t_k):
            for i in range(-(s - 1), s):
                if m_indicator(s, t_k, r, i):
                    p = DiagramPoint(r, i)
                    ann[p] = ann.get(p, ()) + (k,)
    return Diagram(ann)


def diagram(s: int, t: int) -> Diagram:
    """All points with ``m_indicator(s, t, r, i) = 1``, annotated {1}."""
    if s < 1 or t < 1:
        raise ValueError(f"shape parameters must be positive, got s={s}, t={t}")
    return _scan(s, [t])


def superpose(c: LocalComponent) -> Diagram:
    """Union of the per-factor diagrams of ``c`` with factor annotations.

    The point ``(r, i)`` is annotated with every 1-based index ``k``
    such that the k-th factor's indicator is nonzero there.  Adding a
    factor never removes points or annotations.
    """
    return _scan(c.s, [t_k for t_k, _ in c.factors])


def trace_back(
    c: LocalComponent, p: DiagramPoint, k: int
) -> DiagramPoint | None:
    """The higher ``(r', 0)`` the k-th constituent at ``p`` comes from.

    Returns ``(s + t_k - 1, 0)`` when that is strictly to the right of
    ``p``; at the right vertex itself the constituent does not come
    from any higher point and the result is ``None``.
    """
    t_k, _ = c.factor(k)
    if not m_indicator(c.s, t_k, p.r, p.i):
        raise ValueError(f"factor {k} does not annotate {p}")
    origin_r = c.s + t_k - 1
    if origin_r > p.r:
        return DiagramPoint(origin_r, 0)
    return None


@dataclass(frozen=True)
class RSlot:
    """The opaque symbol replacing the traced factor at a diagram point.

    Functorial in the base: substituting the base commutes with the
    whole constituent construction.  For degree bookkeeping the slot
    keeps the degree of the factor it replaces.
    """

    s: int
    t: int
    r: int
    i: int
    base: InertialCuspidal

    @property
    def degree(self) -> int:
        return self.s * self.t * self.base.g

    def substituted(self, old: InertialCuspidal, new: InertialCuspidal) -> "RSlot":
        return replace(self, base=new) if self.base.id == old.id else self

    def reduced(self) -> "RSlot":
        return replace(self, base=reduced_label(self.base))

    def __str__(self) -> str:
        return f"R_{self.base.id}({self.s},{self.t})({self.r},{self.i})"


@dataclass(frozen=True)
class ConstituentLabel:
    """Formal product of factor slots with the character/Tate marker.

    Exactly one slot is the opaque ``R`` symbol of the traced factor;
    ``xi_index`` records which factor carries the twisting character
    and ``tate`` the half power of the Tate marker (``i/2``).
    """

    s: int
    slots: tuple[LadderShape | RSlot, ...]
    xi_index: int
    tate: HalfInt
    wildcard: Wildcard | None = None

    @property
    def degree(self) -> int:
        total = sum(slot.degree for slot in self.slots)
        if self.wildcard is not None:
            total += self.wildcard.degree
        return total

    def substituted(
        self, old: InertialCuspidal, new: InertialCuspidal
    ) -> "ConstituentLabel":
        return replace(
            self, slots=tuple(slot.substituted(old, new) for slot in self.slots)
        )

    def reduced(self) -> "ConstituentLabel":
        return replace(self, slots=tuple(slot.reduced() for slot in self.slots))

    def product_str(self) -> str:
        parts = [str(slot) for slot in self.slots]
        if self.wildcard is not None:
            parts.append(str(self.wildcard))
        return " x ".join(parts)

    def __str__(self) -> str:
        return f"{self.product_str()} [xi_{self.xi_index}, Xi^{self.tate}]"


def constituent(c: LocalComponent, p: DiagramPoint, k: int) -> ConstituentLabel:
    """The labelled constituent contributed by factor ``k`` at ``p``.

    Every factor ``j != k`` stays as its Speh-of-Steinberg slot; factor
    ``k`` is replaced by the opaque ``R`` symbol at ``p``, and the label
    is marked with the k-th twisting character and ``Xi^{i/2}``.
    """
    t_k, _ = c.factor(k)
    if not m_indicator(c.s, t_k, p.r, p.i):
        raise ValueError(f"factor {k} does not annotate {p}")
    slots: list[LadderShape | RSlot] = []
    for j, (t_j, base_j) in enumerate(c.factors, start=1):
        if j == k:
            slots.append(RSlot(c.s, t_j, p.r, p.i, base_j))
        else:
            slots.append(LadderShape(base_j, c.s, t_j))
    return ConstituentLabel(
        s=c.s,
        slots=tuple(slots),
        xi_index=k,
        tate=HalfInt(p.i),
        wildcard=c.wildcard,
    )


def constituent_sum(
    c: LocalComponent, pi: InertialCuspidal, p: DiagramPoint
) -> GrothSum:
    """Sum of the constituents at ``p`` over factors inertially equal to ``pi``.

    One unit term per factor index ``k`` with ``base_k`` in the inertial
    class of ``pi`` whose indicator is nonzero at ``p``.
    """
    return GrothSum(
        (constituent(c, p, k), 1)
        for k, (t_k, base_k) in enumerate(c.factors, start=1)
        if base_k.id == pi.id and m_indicator(c.s, t_k, p.r, p.i)
    )
