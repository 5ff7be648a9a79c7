"""Formal Z-linear combinations of hashable labels.

A ``GrothSum`` is the image of a list of labelled objects in a free
abelian group: a finite map ``label -> integer coefficient`` with zero
coefficients dropped.  Addition is commutative, the empty sum is the
zero element, and equality ignores construction order.

Build a sum from ``(label, coeff)`` pairs with ``GrothSum(pairs)``.
``+`` copies its left operand, so add in a loop only where every
partial sum is kept, as ``d_sequence`` keeps each row of its table.  No
operation mutates an operand, so one sum may be shared.  A sum is not
hashable, like the dataclasses that hold one.

The trusted constructor ``GrothSum._wrap`` takes a dict of nonzero
integer coefficients as it is.  Outside this module its callers build
dicts whose labels are distinct by construction and whose coefficients
are nonzero:

- ``congruence._weight`` adds record weights, each an ``int >= 1`` by
  ``AutomorphicDatum``, so no coefficient is zero;
- ``ledger.expand_resolution`` names each term by its two markers
  ``(xi, tate)``, the ``delta`` of its shriek and of its graded part, so
  no two terms coincide, and each coefficient is a sign; a length check
  against ``(n + 1)(n + 2)/2`` guards the count;
- ``ledger.group_by_stratum`` splits the terms of a normal sum.
"""

from __future__ import annotations

from operator import neg
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
        terms = other._terms
        return GrothSum._wrap(_merge(dict(self._terms), zip(terms, map(neg, terms.values()))))

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
