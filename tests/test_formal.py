"""Properties of ``GrothSum`` arithmetic: one-pass sums, no zero terms, no aliasing."""

from __future__ import annotations

import functools
import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spehline import GrothSum

coefficients = st.integers(-3, 3)
sums = st.lists(st.tuples(st.sampled_from("abcde"), coefficients), max_size=8).map(GrothSum)
sum_lists = st.lists(sums, max_size=6)


def folded(parts: list[GrothSum]) -> GrothSum:
    return functools.reduce(operator.add, parts, GrothSum.zero())


@given(sums, sums, coefficients)
def test_results_hold_no_zero_coefficient(a, b, k):
    results = (a + b, a - b, -a, a * k, k * a)
    for result in results:
        assert all(coeff != 0 for _, coeff in result.items())
    for cancelled in (a - a, a + (-a), a * 0):
        assert cancelled.is_zero and len(cancelled) == 0


@given(sum_lists, coefficients)
def test_operands_are_never_mutated(parts, k):
    before = [part.items() for part in parts]
    folded(parts)
    for part in parts:
        _ = (part + part, part - part, -part, part * k, k * part)
    assert [part.items() for part in parts] == before


@given(sums)
def test_shared_operand_sums_like_a_copy(a):
    # one object added many times, as d_sequence adds one contribution to every k
    assert a * 3 == a + a + a


@pytest.mark.parametrize("total", [GrothSum(), GrothSum.of("a", 2)], ids=["zero", "one-term"])
def test_sums_are_unhashable(total):
    # no code keys a dict or a set by a sum, as none does by the dataclasses holding one
    with pytest.raises(TypeError):
        hash(total)


def test_foreign_operands_are_refused():
    # a float scale or an int summand is a type error, and a sum equals no int
    with pytest.raises(TypeError):
        GrothSum.of("a") * 1.5
    with pytest.raises(TypeError):
        GrothSum() + 1
    assert (GrothSum() == 0) is False
