from __future__ import annotations

import copy
import itertools
import math
import pickle
import random
import re
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from spehline import (
    GrothSum,
    HalfInt,
    InertialCuspidal,
    LadderShape,
    LocalComponent,
    Multisegment,
    Segment,
    Wildcard,
    ZERO,
    jacquet_cuts,
    make_speh,
    make_steinberg,
    normalized_product,
    ordered_product,
    reduced_label,
)
from spehline.jsonio import _multisegment_text, cuspidal_to_dict, wildcard_to_dict
from spehline.zline import _segment_key, key_hash_sum, multiset_hash

from support import (
    BASES,
    PI,
    PI_TWIN,
    RHO,
    ladders,
    multisegments,
    plain_multisegments,
)

shifts = st.builds(HalfInt, st.integers(-9, 9))
# the support labels, and each of them again with another g, e_pi or class
LABELS = BASES + [
    replace(b, **change)
    for b in BASES
    for change in ({"g": b.g + 1}, {"e_pi": b.e_pi + 1}, {"modl_class": "z"})
]


def ms(*segs: Segment) -> Multisegment:
    return Multisegment(tuple(segs))


class TestHalfInt:
    def test_arithmetic(self):
        a, b = HalfInt(3), HalfInt(-1)
        assert a + b == HalfInt(2)
        with pytest.raises(AttributeError):  # an int is not coerced
            a + 1

    def test_order_total(self):
        values = [HalfInt(k) for k in (-3, 0, 1, 4)]
        assert sorted(values, reverse=True) == list(reversed(values))
        assert HalfInt(1) < HalfInt(2) <= HalfInt(2)

    def test_str(self):
        assert str(HalfInt(4)) == "2"
        assert str(HalfInt(1)) == "1/2"
        assert str(HalfInt(-1)) == "-1/2"
        assert str(HalfInt(0)) == "0"


class TestShapes:
    def test_steinberg_is_single_cell(self):
        st1 = make_steinberg(PI, 1)
        assert st1.to_multisegment() == ms(Segment(PI, HalfInt(0), 1))
        assert st1.degree == PI.g

    def test_steinberg_three_centered(self):
        row = make_steinberg(PI, 3).to_multisegment()
        (seg,) = row.segments
        assert (seg.start, seg.end, seg.length) == (HalfInt(-2), HalfInt(2), 3)
        assert row.degree == 3 * PI.g

    def test_str_names_the_centre(self):
        x = InertialCuspidal("x", 1)
        assert str(LadderShape(x, s=2, t=3, center=HalfInt(1))) == "Speh_2(St_3(x)){1/2}"
        assert str(LadderShape(x, s=2, t=3, center=ZERO)) == "Speh_2(St_3(x))"

    def test_empty_multisegment_str(self):
        assert str(Multisegment()) == "[]"

    def test_steinberg_degree_scan(self):
        for base in BASES:
            for t in range(1, 51):
                assert make_steinberg(base, t).degree == t * base.g

    def test_steinberg_rejects_zero(self):
        with pytest.raises(ValueError):
            make_steinberg(PI, 0)

    def test_shape_checks_ladder_range(self):
        # make_steinberg and make_speh leave the range check to LadderShape
        with pytest.raises(ValueError, match="ladder needs t >= 1, got 0"):
            make_steinberg(PI, 0)
        for source in (make_steinberg(PI, 1), make_steinberg(PI, 3)):
            with pytest.raises(ValueError, match="ladder needs s >= 1, got 0"):
                make_speh(source, 0)

    def test_speh_of_cuspidal_matches_steinberg(self):
        assert make_speh(make_steinberg(PI, 1), 1) == make_steinberg(PI, 1)

    def test_speh_row_positions(self):
        # Speh_s(pi) has one cell at each of (1-s)/2, ..., (s-1)/2
        for s in range(1, 7):
            shape = make_speh(make_steinberg(PI, 1), s)
            starts = [seg.start.twice for seg in shape.to_multisegment().segments]
            assert starts == [1 - s + 2 * j for j in range(s)]

    def test_speh_4_of_st_3(self):
        shape = make_speh(make_steinberg(PI, 3), 4)
        assert (shape.s, shape.t) == (4, 3)
        assert shape.degree == 12 * PI.g
        rows = shape.to_multisegment().segments
        assert [seg.start.twice for seg in rows] == [-5, -3, -1, 1]
        assert all(seg.length == 3 for seg in rows)

    def test_speh_rejects_tall_ladder(self):
        with pytest.raises(ValueError):
            make_speh(make_speh(make_steinberg(PI, 1), 2), 2)

    @given(ladders)
    def test_ladder_reflection_symmetry(self, shape):
        # centered ladders are stable under negating all twists
        centered = LadderShape(
            shape.base, shape.s, shape.t, shape.center + HalfInt(-shape.center.twice)
        )
        segs = centered.to_multisegment().segments
        reflected = Multisegment(
            tuple(Segment(s.base, HalfInt(-s.end.twice), s.length) for s in segs)
        )
        assert reflected == centered.to_multisegment()


class TestTwist:
    def test_zero_is_identity(self):
        m = make_steinberg(PI, 2).to_multisegment()
        assert m.shifted(HalfInt(0)) == m

    def test_half_shift_on_steinberg(self):
        shifted = make_steinberg(PI, 2).to_multisegment().shifted(HalfInt(1))
        assert [s.start.twice for s in shifted.segments] == [0]

    @given(multisegments, shifts)
    def test_degree_invariant(self, m, n):
        assert m.shifted(n).degree == m.degree

    @given(multisegments, shifts)
    def test_involutive(self, m, n):
        assert m.shifted(n).shifted(HalfInt(-n.twice)) == m


class TestNormalizedProduct:
    def test_empty_identity(self):
        m = make_speh(make_steinberg(PI, 2), 2).to_multisegment()
        assert normalized_product(m, Multisegment()) == m
        assert normalized_product(Multisegment(), m) == m

    @given(multisegments, multisegments)
    def test_degree_additive(self, a, b):
        if a.wildcard is not None and b.wildcard is not None:
            with pytest.raises(ValueError):
                normalized_product(a, b)
            return
        assert normalized_product(a, b).degree == a.degree + b.degree

    @given(plain_multisegments, plain_multisegments, plain_multisegments)
    def test_associative(self, a, b, c):
        left = normalized_product(normalized_product(a, b), c)
        right = normalized_product(a, normalized_product(b, c))
        assert left == right

    @given(plain_multisegments, plain_multisegments)
    def test_commutative(self, a, b):
        assert normalized_product(a, b) == normalized_product(b, a)

    def test_tate_markers_add(self):
        a = Multisegment(tate=HalfInt(1))
        b = Multisegment(tate=HalfInt(2))
        assert normalized_product(a, b).tate == HalfInt(3)

    def test_ordered_product_tags_degrees(self):
        a = make_steinberg(PI, 2).to_multisegment()
        b = make_steinberg(PI, 1).to_multisegment()
        tagged = ordered_product(a, b)
        assert tagged.order_tag == (2 * PI.g, PI.g)
        assert tagged != normalized_product(a, b)

    def test_multiset_semantics(self):
        s1 = Segment(PI, HalfInt(0), 2)
        s2 = Segment(PI, HalfInt(3), 1)
        assert ms(s1, s2) == ms(s2, s1)

    @settings(max_examples=200, derandomize=True)
    @given(st.sampled_from(LABELS), st.sampled_from(LABELS), shifts, st.integers(1, 3))
    def test_equal_exactly_when_ids_match(self, x, y, start, n):
        # labels, and the segments, multisegments (in either order) and
        # components built on them, are equal and hash equal iff the ids match
        seg_x, seg_y, other = Segment(x, start, n), Segment(y, start, n), Segment(RHO, start, 1)
        pairs = [
            (x, y),
            (seg_x, seg_y),
            (ms(seg_x, other), ms(other, seg_y)),
            (LocalComponent(n, ((n, x), (1, RHO))), LocalComponent(n, ((n, y), (1, RHO)))),
        ]
        for a, b in pairs:
            assert (a == b) is (x.id == y.id)
            if a == b:
                assert hash(a) == hash(b)


class TestHashOnce:
    """Hashing a multisegment changes nothing in it, and a rebuild hashes like a fresh build."""

    def test_rebuilt_multisegment_hashes_like_a_fresh_one(self):
        a, b = Segment(PI, HalfInt(0), 2), Segment(PI_TWIN, HalfInt(1), 1)
        m = Multisegment((a, b), HalfInt(1), Wildcard("w", 2))
        before = repr(m)
        hash(m)
        assert repr(m) == before
        assert [f.name for f in fields(m)] == ["segments", "tate", "wildcard", "order_tag"]
        rebuilt = [
            (replace(m, tate=HalfInt(3)), Multisegment((a, b), HalfInt(3), m.wildcard)),
            (m.with_tate(HalfInt(-1)), Multisegment((a, b), HalfInt(-1), m.wildcard)),
            (
                m.shifted(HalfInt(2)),
                Multisegment(
                    (Segment(PI, HalfInt(2), 2), Segment(PI_TWIN, HalfInt(3), 1)),
                    HalfInt(1),
                    Wildcard("w", 2, HalfInt(2)),
                ),
            ),
            (m.without_wildcard(), Multisegment((a, b), HalfInt(1))),
        ]
        for got, fresh in rebuilt:
            assert got == fresh and got != m
            assert hash(got) == hash(fresh)
            assert GrothSum.of(fresh).coefficient(got) == 1
            assert GrothSum.of(got).coefficient(fresh) == 1

    def test_ordered_product_is_the_tagged_normalized_product(self):
        a = Multisegment((Segment(PI, HalfInt(0), 2),), HalfInt(1), Wildcard("w", 3))
        b = make_steinberg(RHO, 2).to_multisegment()
        tagged = ordered_product(b, a)
        assert tagged == replace(normalized_product(b, a), order_tag=(b.degree, a.degree))
        assert hash(tagged) == hash(replace(normalized_product(a, b), order_tag=(b.degree, a.degree)))
        with pytest.raises(ValueError):
            ordered_product(a, a)


def _replaced_shift(m: Multisegment, n: HalfInt) -> Multisegment:
    """``Multisegment.shifted`` as first written, through ``dataclasses.replace``."""
    if n.is_zero:
        return m
    return replace(
        m,
        segments=tuple(replace(seg, start=seg.start + n) for seg in m.segments),
        wildcard=None if m.wildcard is None else replace(m.wildcard, shift=m.wildcard.shift + n),
    )


# plain sums, and ordered products whose tag must survive the rebuild
tagged_or_plain = st.one_of(
    multisegments, st.builds(ordered_product, multisegments, plain_multisegments)
)


@st.composite
def product_operands(draw):
    """Two multisegments on one to three labels, at most one wildcard.

    The labels include same-id variants, so segments of equal key but
    different labels meet; ``b`` is moved far below or above ``a`` or
    left in place, so ``a`` before ``b``, ``b`` before ``a`` and
    interleaved runs all occur.
    """
    bases = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=3))
    offset = draw(st.sampled_from([-24, 0, 24]))

    def side(shift: int) -> Multisegment:
        segs = draw(
            st.lists(
                st.builds(
                    Segment,
                    base=st.sampled_from(bases),
                    start=st.builds(HalfInt, st.integers(-3 + shift, 3 + shift)),
                    length=st.integers(1, 3),
                ),
                max_size=4,
            )
        )
        tate = draw(st.builds(HalfInt, st.integers(-3, 3)))
        return Multisegment(tuple(segs), tate)

    a, b = side(0), side(offset)
    wild = draw(st.sampled_from(["a", "b", None]))
    w = Wildcard("w", draw(st.integers(0, 4)), draw(st.builds(HalfInt, st.integers(-2, 2))))
    if wild == "a":
        a = replace(a, wildcard=w)
    elif wild == "b":
        b = replace(b, wildcard=w)
    return a, b


def _sorting_product(a: Multisegment, b: Multisegment, order_tag) -> Multisegment:
    """The product through the sorting constructor."""
    wildcard = a.wildcard if a.wildcard is not None else b.wildcard
    return Multisegment(a.segments + b.segments, a.tate + b.tate, wildcard, order_tag)


class TestRebuildMatchesReplace:
    """``shifted``, ``with_tate`` and ``without_wildcard`` build what
    ``dataclasses.replace`` built, and the products and
    ``to_multisegment``, which build through the trusted ``_sorted``, what
    the sorting constructor builds."""

    @staticmethod
    def assert_same_fields(got, ref):
        # the fields, and whatever is kept, with equal values in equal order
        if hasattr(got, "__dict__"):
            assert got.__dict__ == ref.__dict__
            assert list(got.__dict__) == list(ref.__dict__)

    @classmethod
    def assert_same(cls, got, ref):
        assert type(got) is type(ref)
        cls.assert_same_fields(got, ref)
        assert got == ref and hash(got) == hash(ref) and str(got) == str(ref)
        cls.assert_same_fields(got, ref)
        if isinstance(got, LadderShape):
            # labels compare by id: the fields of the base must match too
            assert cuspidal_to_dict(got.base) == cuspidal_to_dict(ref.base)
            got, ref = got.to_multisegment(), ref.to_multisegment()
            cls.assert_same_fields(got, ref)
        if isinstance(got, Multisegment):
            assert [cuspidal_to_dict(seg.base) for seg in got.segments] == [
                cuspidal_to_dict(seg.base) for seg in ref.segments
            ]
            assert got.degree == ref.degree
            assert _multisegment_text(got) == _multisegment_text(ref)

    @settings(max_examples=150, derandomize=True)
    @given(tagged_or_plain, shifts)
    def test_multisegment(self, m, n):
        self.assert_same(m.shifted(n), _replaced_shift(m, n))
        self.assert_same(m.with_tate(n), replace(m, tate=n))
        for seg in m.segments:
            self.assert_same(seg.shifted(n), replace(seg, start=seg.start + n))
            self.assert_same(ms(seg.shifted(n)), ms(replace(seg, start=seg.start + n)))
        if m.wildcard is not None:
            w = m.wildcard
            self.assert_same(w.shifted(n), replace(w, shift=w.shift + n))
            assert wildcard_to_dict(w.shifted(n)) == wildcard_to_dict(
                replace(w, shift=w.shift + n)
            )

    @settings(max_examples=150, derandomize=True)
    @given(tagged_or_plain)
    def test_multisegment_without_wildcard(self, m):
        self.assert_same(m.without_wildcard(), replace(m, wildcard=None))

    @settings(max_examples=150, derandomize=True)
    @given(ladders, shifts, st.sampled_from(LABELS))
    def test_ladder(self, ladder, n, base):
        ladder = replace(ladder, base=base)
        shifted = LadderShape(ladder.base, ladder.s, ladder.t, ladder.center + n)
        self.assert_same(shifted, replace(ladder, center=ladder.center + n))

    @settings(max_examples=150, derandomize=True)
    @given(ladders, st.sampled_from(LABELS))
    def test_ladder_to_multisegment(self, ladder, base):
        ladder = replace(ladder, base=base)
        rows = [Segment(base, ladder.row_start(j), ladder.t) for j in range(ladder.s)]
        random.Random(ladder.s * 8 + ladder.t).shuffle(rows)
        self.assert_same(ladder.to_multisegment(), Multisegment(tuple(rows)))

    @settings(max_examples=300, derandomize=True)
    @given(product_operands())
    def test_products(self, operands):
        a, b = operands
        self.assert_same(normalized_product(a, b), _sorting_product(a, b, None))
        self.assert_same(
            ordered_product(a, b), _sorting_product(a, b, (a.degree, b.degree))
        )

    def test_products_in_each_order(self):
        # one id: a before b, b before a, interleaved, and key ties that
        # join the runs at their ends or start b's run
        variant = replace(PI, g=PI.g + 1)
        a = ms(Segment(PI, HalfInt(0), 1), Segment(PI, HalfInt(4), 2))
        cases = {
            "a before b": ms(Segment(PI, HalfInt(6), 1)),
            "b before a": ms(Segment(PI, HalfInt(-6), 3), Segment(PI, HalfInt(-2), 1)),
            "interleaved": ms(Segment(PI, HalfInt(-2), 1), Segment(PI, HalfInt(2), 1)),
            "tie at a's end": ms(Segment(variant, HalfInt(4), 2), Segment(PI, HalfInt(6), 1)),
            "tie at a's start": ms(Segment(PI, HalfInt(-2), 1), Segment(variant, HalfInt(0), 1)),
        }
        for b in cases.values():
            for got, want in (
                (normalized_product(a, b), _sorting_product(a, b, None)),
                (normalized_product(b, a), _sorting_product(b, a, None)),
                (ordered_product(a, b), _sorting_product(a, b, (a.degree, b.degree))),
            ):
                self.assert_same(got, want)

    @settings(max_examples=100, derandomize=True)
    @given(tagged_or_plain)
    def test_kept_degree_is_never_stale(self, m):
        def summed(x):
            wild = 0 if x.wildcard is None else x.wildcard.degree
            return sum(seg.length * seg.base.g for seg in x.segments) + wild

        assert m.degree == summed(m)
        rebuilt = [replace(m, segments=m.segments[1:]), m.without_wildcard()]
        rebuilt += [m.shifted(HalfInt(3)), pickle.loads(pickle.dumps(m))]
        for x in rebuilt:
            assert x.degree == summed(x)

    def test_zero_shift_wildcard_and_tag(self):
        left = Multisegment(
            (Segment(PI, HalfInt(-1), 2),), HalfInt(1), Wildcard("w", 3, HalfInt(-1))
        )
        m = ordered_product(left, make_steinberg(RHO, 2).to_multisegment())
        assert m.order_tag == (5, 4)
        assert m.shifted(ZERO) is m
        for n in (HalfInt(1), HalfInt(-4)):
            got = m.shifted(n)
            assert got.order_tag == m.order_tag
            assert got.wildcard == Wildcard("w", 3, HalfInt(-1) + n)
            self.assert_same(got, _replaced_shift(m, n))
            self.assert_same(got.with_tate(n), replace(got, tate=n))
            assert got.with_tate(n).order_tag == m.order_tag


# few ids, starts and lengths, so lists repeat segments and share starts
crowded_segments = st.builds(
    Segment,
    base=st.sampled_from(BASES),
    start=st.builds(HalfInt, st.integers(-1, 1)),
    length=st.integers(1, 3),
)


class TestSegmentOrder:
    @settings(max_examples=150, derandomize=True)
    @given(st.lists(crowded_segments, max_size=5))
    def test_every_permutation_gives_one_sorted_tuple(self, segs):
        expected = tuple(
            sorted(segs, key=lambda seg: (seg.base.id, seg.start.twice, seg.length))
        )
        for perm in itertools.permutations(segs):
            assert Multisegment(perm).segments == expected


def sorted_cuts(ladder: LadderShape) -> list[tuple[Multisegment, Multisegment]]:
    """Every cut of ``ladder`` in enumeration order, each side built and sorted
    by ``Multisegment(...)``."""
    s, t, base = ladder.s, ladder.t, ladder.base
    # row j runs from center + (1-s)/2 + j - (t-1)/2, in doubled units
    starts = [ladder.center.twice + 1 - s + 2 * j - (t - 1) for j in range(s)]
    cuts = []
    for ascending in itertools.combinations_with_replacement(range(t + 1), s):
        vector = ascending[::-1]
        left = [Segment(base, HalfInt(x), c) for x, c in zip(starts, vector) if c > 0]
        right = [
            Segment(base, HalfInt(x + 2 * c), t - c) for x, c in zip(starts, vector) if c < t
        ]
        cuts.append((Multisegment(tuple(left)), Multisegment(tuple(right))))
    return cuts


class TestJacquetCuts:
    def test_single_row_has_t_plus_one_cuts(self):
        cuts = jacquet_cuts(make_steinberg(PI, 2))
        assert len(cuts) == 3
        empty = Multisegment()
        st2 = make_steinberg(PI, 2).to_multisegment()
        cell_lo = ms(Segment(PI, HalfInt(-1), 1))
        cell_hi = ms(Segment(PI, HalfInt(1), 1))
        assert set(cuts) == {(empty, st2), (cell_lo, cell_hi), (st2, empty)}

    def test_speh_two_cuts(self):
        cuts = jacquet_cuts(make_speh(make_steinberg(PI, 1), 2))
        assert len(cuts) == 3  # descending vectors (0,0), (1,0), (1,1)
        assert sorted(left.degree for left, _ in cuts) == [0, 1, 2]

    def test_count_is_binomial(self):
        for s in range(1, 9):
            for t in range(1, 9):
                shape = make_speh(make_steinberg(PI, t), s)
                assert len(jacquet_cuts(shape)) == math.comb(s + t, s)

    def test_cuts_distinct_and_degree_conserved(self):
        for s in range(1, 6):
            for t in range(1, 6):
                shape = make_speh(make_steinberg(RHO, t), s)
                cuts = jacquet_cuts(shape)
                assert len(set(cuts)) == len(cuts)
                for left, right in cuts:
                    assert left.degree + right.degree == shape.degree

    def test_every_cut_rebuilt_from_scratch(self):
        # each cut built afresh from its vector, in enumeration order
        for base, s, t, center in itertools.product(
            (PI, RHO), range(1, 7), range(1, 7), (HalfInt(-3), HalfInt(0), HalfInt(5))
        ):
            ladder = LadderShape(base, s, t, center)
            cuts = jacquet_cuts(ladder)
            assert type(cuts) is list
            # multisegments compare by their sorted .segments tuples
            assert cuts == sorted_cuts(ladder)


class TestCutsMatchTheSortingConstructor:
    """``jacquet_cuts`` builds its sides in order through ``Multisegment._sorted``;
    each must be the multisegment the sorting constructor gives."""

    BASES = (InertialCuspidal("p", 1), InertialCuspidal("q", 2))

    @staticmethod
    def check(ladder: LadderShape, rng: random.Random) -> None:
        got, want = jacquet_cuts(ladder), sorted_cuts(ladder)
        assert got == want
        assert [hash(cut) for cut in got] == [hash(cut) for cut in want]
        for got_cut, want_cut in zip(got, want, strict=True):
            for side, ref in zip(got_cut, want_cut):
                assert side.segments == tuple(sorted(side.segments, key=_segment_key))
                assert side.__dict__ == ref.__dict__
                assert side.degree == ref.degree
        # the text forms are functions of the fields: compare them on a sample
        for k in sorted(rng.sample(range(len(got)), min(len(got), 12))):
            for side, ref in zip(got[k], want[k]):
                assert (str(side), repr(side)) == (str(ref), repr(ref))
                assert _multisegment_text(side) == _multisegment_text(ref)

    def test_every_ladder_up_to_eight(self):
        rng = random.Random(8)
        for s, t in itertools.product(range(1, 9), range(1, 9)):
            self.check(LadderShape(rng.choice(self.BASES), s, t, HalfInt(rng.randint(-9, 9))), rng)

    # the benchmark pool's outer shapes, and the longest single row and column
    @pytest.mark.parametrize("s,t", [(10, 4), (4, 10), (9, 3), (3, 9), (1, 12), (12, 1)])
    def test_outer_shapes(self, s, t):
        rng = random.Random(s * 100 + t)
        for base, center in zip(self.BASES, (HalfInt(-7), HalfInt(4))):
            self.check(LadderShape(base, s, t, center), rng)


class TestCutGrowthGuard:
    """What one ``jacquet_cuts`` call does, counted under ``sys.setprofile``:
    two trusted builds per cut, one ``Segment`` per row piece, and Python
    calls in a number linear in the cuts and the pieces.

    A ladder has ``2 * s * t`` pieces and ``C(s+t, s)`` cuts, and
    ``2 * s * t <= 2 * C(s+t, s)``, so the bound on the calls is at most
    10 per cut, whatever ``s`` and ``t``.  A Python-level step per row of
    every cut, or a side built through the sorting ``Multisegment(...)``,
    breaks it on the larger shapes.
    """

    # Python calls per piece: its Segment's __init__ and __post_init__, a
    # right piece's HalfInt, and the row's share of row_start and the
    # comprehensions that build the pieces
    PER_PIECE = 4

    @pytest.mark.parametrize("s,t", [(7, 7), (10, 4), (4, 10), (1, 12)])
    def test_calls_per_cut(self, s, t):
        ladder = LadderShape(RHO, s, t, HalfInt(-3))
        trusted = Multisegment._sorted.__func__.__code__
        segment = Segment.__post_init__.__code__
        counts = {"python": 0, "_sorted": 0, "Segment": 0}

        def profile(frame, event, arg):
            if event == "call":
                counts["python"] += 1
                code = frame.f_code
                if code is trusted:
                    counts["_sorted"] += 1
                elif code is segment:
                    counts["Segment"] += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            cuts = jacquet_cuts(ladder)
        finally:
            sys.setprofile(previous)
        counts["python"] -= 1  # the call of jacquet_cuts itself
        n, pieces = math.comb(s + t, s), 2 * s * t
        assert len(cuts) == n and pieces <= 2 * n
        assert counts["_sorted"] == 2 * n
        assert counts["Segment"] == pieces
        assert counts["python"] <= 2 * n + self.PER_PIECE * pieces


class TestCutPiecesAreTrue:
    """``jacquet_cuts`` drops the missing pieces of rows ``1..s-1`` (the
    suffix it shares across ``c_0``) with ``filter(None, ...)``: that drops
    exactly the ``None`` markers only while no piece is false."""

    def test_segment_defines_no_truth(self):
        for name in ("__bool__", "__len__"):
            assert not hasattr(Segment, name), name
        assert all(Segment(PI, HalfInt(j), 1 + j % 3) for j in range(-3, 4))


class TestTrustedConstructor:
    """``Multisegment._sorted`` builds what ``Multisegment(...)`` builds from
    presorted segments, and only ``zline`` calls it."""

    SEGS = (Segment(PI, HalfInt(-1), 2), Segment(PI, HalfInt(1), 1), Segment(RHO, HalfInt(0), 3))

    def test_equals_the_sorting_constructor(self):
        trusted, fresh = Multisegment._sorted(self.SEGS), Multisegment(self.SEGS)
        assert type(trusted) is Multisegment
        assert trusted == fresh and hash(trusted) == hash(fresh)
        assert trusted.__dict__ == fresh.__dict__
        assert list(trusted.__dict__) == list(fresh.__dict__)
        assert repr(trusted) == repr(fresh)
        assert Multisegment._sorted(()) == Multisegment()

    def test_copies_and_rebuilds(self):
        trusted = Multisegment._sorted(self.SEGS)
        for copied in (copy.copy(trusted), pickle.loads(pickle.dumps(trusted))):
            assert copied == trusted and copied.__dict__ == trusted.__dict__
        tagged = replace(trusted, tate=HalfInt(1))
        assert tagged == Multisegment(self.SEGS, HalfInt(1))
        assert replace(trusted) == trusted

    def test_degree_kept_on_first_read(self):
        trusted = Multisegment._sorted(self.SEGS)
        assert "_degree" not in trusted.__dict__
        assert trusted.degree == 2 + 1 + 3 * RHO.g
        assert trusted.__dict__["_degree"] == trusted.degree

    def test_named_only_in_zline(self):
        package = Path(__file__).parent.parent / "src" / "spehline"
        callers = sorted(
            path.name
            for path in package.glob("*.py")
            if re.search(r"\b_sorted\b", path.read_text(encoding="utf-8"))
        )
        assert callers == ["zline.py"]



class TestKeptHash:
    """A multisegment's hash is computed in C and equal across its copies and builds."""

    SEGS = TestTrustedConstructor.SEGS

    def test_copies_hash_like_the_original(self):
        m = Multisegment(self.SEGS, HalfInt(1), Wildcard("w", 2, HalfInt(-1)), (3, 4))
        h = hash(m)
        for copied in (copy.copy(m), pickle.loads(pickle.dumps(m)), replace(m)):
            assert copied == m
            assert hash(copied) == h

    def test_equal_builds_hash_equal(self):
        m = Multisegment(self.SEGS)
        # pickled before and after its first hash
        unhashed = pickle.loads(pickle.dumps(m))
        hash(m)
        builds = [
            Multisegment(self.SEGS[::-1]),
            Multisegment._sorted(self.SEGS),
            Multisegment(tuple(seg.shifted(HalfInt(-2)) for seg in self.SEGS)).shifted(HalfInt(2)),
            Multisegment(self.SEGS, HalfInt(3)).with_tate(ZERO),
            unhashed,
            pickle.loads(pickle.dumps(m)),
        ]
        for built in builds:
            assert built == m and hash(built) == hash(m)
            assert GrothSum.of(m).coefficient(built) == 1

    def test_hashes_no_part_through_python(self, monkeypatch):
        def refuse(self):
            raise AssertionError(f"hashed a {type(self).__name__}")

        m = Multisegment(self.SEGS, HalfInt(1), Wildcard("w", 2, HalfInt(-1)), (3, 4))
        for cls in (Segment, InertialCuspidal, HalfInt, Wildcard):
            monkeypatch.setattr(cls, "__hash__", refuse)
        h = hash(m)
        monkeypatch.undo()
        assert h == hash(Multisegment(self.SEGS, HalfInt(1), Wildcard("w", 2, HalfInt(-1)), (3, 4)))


class TestFactorSumHash:
    """A product hashes as ``multiset_hash`` of its factors' key-hash sums
    added, on every branch of ``_union``, and a lone inserted ``b`` segment
    lands where the stable sort of ``a + b`` puts it."""

    @staticmethod
    def branch(a: Multisegment, b: Multisegment) -> str:
        # the branch _union takes, by its own tests
        left, right = a.segments, b.segments
        if not left or not right or _segment_key(left[-1]) <= _segment_key(right[0]):
            return "join"
        if _segment_key(right[-1]) < _segment_key(left[0]):
            return "swap"
        if len(right) == 1:
            ties = any(_segment_key(seg) == _segment_key(right[0]) for seg in left)
            return "lone insertion, tie" if ties else "lone insertion"
        return "sort"

    def test_every_branch(self):
        # two ids and one same-id variant, few starts: ties, runs and overlaps
        rng = random.Random(28)
        bases = [PI, PI_TWIN, replace(PI, g=PI.g + 1)]
        seen: dict[str, int] = {}

        def side(offset: int) -> Multisegment:
            segs = [
                Segment(rng.choice(bases), HalfInt(rng.randint(-3, 3) + offset), rng.randint(1, 2))
                for _ in range(rng.choice([0, 1, 1, 2, 3, 4]))
            ]
            wildcard = Wildcard("w", 2, HalfInt(rng.randint(-1, 1))) if rng.random() < 0.3 else None
            return Multisegment(tuple(segs), HalfInt(rng.randint(-2, 2)), wildcard)

        for _ in range(4000):
            a, b = side(0), side(rng.choice([-12, 0, 0, 12]))
            if a.wildcard is not None and b.wildcard is not None:
                b = b.without_wildcard()
            name = self.branch(a, b)
            seen[name] = seen.get(name, 0) + 1
            stable = sorted(a.segments + b.segments, key=_segment_key)
            for product in (normalized_product(a, b), ordered_product(a, b)):
                # the same segment objects, in the stable sort's order
                assert [id(seg) for seg in product.segments] == [id(seg) for seg in stable]
                assert hash(product) == multiset_hash(
                    product, key_hash_sum(a.segments) + key_hash_sum(b.segments)
                )
                resorted = Multisegment(
                    tuple(stable), product.tate, product.wildcard, product.order_tag
                )
                assert product == resorted and hash(product) == hash(resorted)
        assert set(seen) == {"join", "swap", "lone insertion", "lone insertion, tie", "sort"}, seen
        assert min(seen.values()) >= 20, seen

    def test_order_free_and_marker_sensitive(self):
        segs = TestTrustedConstructor.SEGS
        m = Multisegment(segs, HalfInt(1), Wildcard("w", 2, HalfInt(-1)), (3, 4))
        assert key_hash_sum(segs) == key_hash_sum(segs[::-1]) == sum(
            hash(_segment_key(seg)) for seg in segs
        )
        assert hash(m) == multiset_hash(m, key_hash_sum(segs))
        assert key_hash_sum(()) == 0 and hash(Multisegment()) == multiset_hash(Multisegment(), 0)
        for other in (m.with_tate(ZERO), m.without_wildcard(), replace(m, order_tag=None)):
            assert hash(other) != hash(m)


class TestSegmentKey:
    """``Segment._key`` is ``(base.id, start.twice, length)`` on every copy and
    rebuild, and no comparison, hash, repr or field list sees it."""

    SEG = Segment(PI_TWIN, HalfInt(-3), 2)

    @staticmethod
    def key_of(seg: Segment) -> tuple:
        return (seg.base.id, seg.start.twice, seg.length)

    def test_right_after_every_build(self):
        seg = self.SEG
        twin = InertialCuspidal("pi2", 4, e_pi=1, modl_class="q")
        builds = [
            seg,
            Segment(PI_TWIN, HalfInt(-3), 2),
            replace(seg, start=HalfInt(5)),
            replace(seg, base=twin, length=3),
            copy.copy(seg),
            copy.deepcopy(seg),
            pickle.loads(pickle.dumps(seg)),
            seg.shifted(HalfInt(7)),
            ms(seg).shifted(HalfInt(-1)).segments[0],
        ]
        for built in builds:
            assert built._key == self.key_of(built) == _segment_key(built)

    def test_invisible(self):
        seg = self.SEG
        assert [f.name for f in fields(seg)] == ["base", "start", "length"]
        assert repr(seg) == f"Segment(base={PI_TWIN!r}, start=HalfInt(-3), length=2)"
        assert "_key" not in repr(seg)
        forged = copy.copy(seg)
        object.__setattr__(forged, "_key", ("other", 0, 1))
        assert forged == seg and hash(forged) == hash(seg)
        assert hash(seg) == hash((PI_TWIN, HalfInt(-3), 2))


class TestModLReduce:
    """``reduced_label``, the one mod-l reduction ``zline`` keeps; components
    apply it to their factors."""

    def test_class_defaults_to_the_id(self):
        assert InertialCuspidal("x", 1).modl_class == "x"
        assert InertialCuspidal("x", 1, modl_class="a").modl_class == "a"

    def test_idempotent(self):
        once = reduced_label(PI)
        assert reduced_label(once) is once

    def test_congruent_bases_reduce_equal(self):
        # PI and PI_TWIN share a class but differ in self-twist count
        assert cuspidal_to_dict(reduced_label(PI)) == cuspidal_to_dict(reduced_label(PI_TWIN))
