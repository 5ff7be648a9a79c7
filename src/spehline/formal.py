"""Formal Z-linear combinations of hashable labels.

A ``GrothSum`` is the image of a list of labelled objects in a free
abelian group: a finite map ``label -> integer coefficient`` with zero
coefficients dropped.  Addition is commutative, the empty sum is the
zero element, and equality ignores construction order.

Build a sum in one pass: from ``(label, coeff)`` pairs with
``GrothSum(pairs)``, from other sums with ``GrothSum.sum(sums)``, never
with ``+`` in a loop, which copies the whole sum at every step.  No
operation mutates an operand, so one sum may be shared.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator


class GrothSum:
    """A finite integer linear combination of labels.

    Labels only need to be hashable and to have a deterministic ``str``
    (used for canonical ordering of the terms).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[Any, int]] = ()):
        self._terms = _merge({}, terms)

    @classmethod
    def _wrap(cls, terms: dict[Any, int]) -> "GrothSum":
        """Trusted constructor: ``terms`` holds only nonzero integer coefficients."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def sum(cls, sums: Iterable["GrothSum"]) -> "GrothSum":
        """The sum of ``sums`` in one pass, without touching any of them."""
        acc: dict[Any, int] = {}
        for part in sums:
            _merge(acc, part._terms.items())
        return cls._wrap(acc)

    @classmethod
    def zero(cls) -> "GrothSum":
        return cls()

    @classmethod
    def of(cls, label: Any, coeff: int = 1) -> "GrothSum":
        return cls(((label, coeff),))

    def items(self) -> list[tuple[Any, int]]:
        """Terms sorted by the string form of their label."""
        return sorted(self._terms.items(), key=lambda kv: str(kv[0]))

    def coefficient(self, label: Any) -> int:
        return self._terms.get(label, 0)

    def labels(self) -> Iterator[Any]:
        return iter(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def has_negative(self) -> bool:
        return any(c < 0 for c in self._terms.values())

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "GrothSum") -> "GrothSum":
        if not isinstance(other, GrothSum):
            return NotImplemented
        return GrothSum._wrap(_merge(dict(self._terms), other._terms.items()))

    def __neg__(self) -> "GrothSum":
        return GrothSum._wrap({k: -v for k, v in self._terms.items()})

    def __sub__(self, other: "GrothSum") -> "GrothSum":
        if not isinstance(other, GrothSum):
            return NotImplemented
        return self + (-other)

    def __mul__(self, k: int) -> "GrothSum":
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return GrothSum()
        return GrothSum._wrap({label: k * c for label, c in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GrothSum):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"GrothSum({self})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(f"{c}*[{label}]" for label, c in self.items())


def _merge(acc: dict[Any, int], items: Iterable[tuple[Any, int]]) -> dict[Any, int]:
    """Add ``(label, coeff)`` pairs into ``acc`` in place, dropping zero coefficients."""
    for label, coeff in items:
        if not isinstance(coeff, int):
            raise TypeError(f"coefficient must be an integer, got {coeff!r}")
        new = acc.get(label, 0) + coeff
        if new:
            acc[label] = new
        else:
            acc.pop(label, None)
    return acc
