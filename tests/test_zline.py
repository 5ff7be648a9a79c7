from __future__ import annotations

import itertools
import math
import pickle
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from spehline import (
    GrothSum,
    HalfInt,
    LadderShape,
    LocalComponent,
    Multisegment,
    Segment,
    Wildcard,
    ZERO,
    jacquet_cuts,
    make_speh,
    make_steinberg,
    mod_l_reduce,
    normalized_product,
    ordered_product,
    reduced_label,
    twist,
)
from spehline.jsonio import (
    canonical_dumps,
    cuspidal_to_dict,
    multisegment_to_dict,
    wildcard_to_dict,
)

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
        assert a - b == HalfInt(4)
        assert -a == HalfInt(-3)
        assert a + 1 == HalfInt(5)
        assert 2 * a == HalfInt(6)

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

    def test_steinberg_degree_scan(self):
        for base in BASES:
            for t in range(1, 51):
                assert make_steinberg(base, t).degree == t * base.g

    def test_steinberg_rejects_zero(self):
        with pytest.raises(ValueError):
            make_steinberg(PI, 0)

    def test_speh_of_cuspidal_matches_steinberg(self):
        assert make_speh(PI, 1) == make_steinberg(PI, 1)

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
            make_speh(make_speh(PI, 2), 2)

    @given(ladders)
    def test_ladder_reflection_symmetry(self, shape):
        # centered ladders are stable under negating all twists
        centered = shape.shifted(-shape.center)
        segs = centered.to_multisegment().segments
        reflected = Multisegment(
            tuple(Segment(s.base, -s.end, s.length) for s in segs)
        )
        assert reflected == centered.to_multisegment()


class TestTwist:
    def test_zero_is_identity(self):
        m = make_steinberg(PI, 2).to_multisegment()
        assert twist(m, HalfInt(0)) == m

    def test_half_shift_on_steinberg(self):
        shifted = twist(make_steinberg(PI, 2).to_multisegment(), HalfInt(1))
        assert [s.start.twice for s in shifted.segments] == [0]

    @given(multisegments, shifts)
    def test_degree_invariant(self, m, n):
        assert twist(m, n).degree == m.degree

    @given(multisegments, shifts)
    def test_involutive(self, m, n):
        assert twist(twist(m, n), -n) == m


class TestNormalizedProduct:
    def test_empty_identity(self):
        m = make_speh(make_steinberg(PI, 2), 2).to_multisegment()
        assert normalized_product(m, Multisegment.empty()) == m
        assert normalized_product(Multisegment.empty(), m) == m

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
    """A multisegment keeps its hash, and no copy or rebuild inherits it."""

    def test_rebuilt_multisegment_hashes_like_a_fresh_one(self):
        a, b = Segment(PI, HalfInt(0), 2), Segment(PI_TWIN, HalfInt(1), 1)
        m = Multisegment((a, b), HalfInt(1), Wildcard("w", 2))
        before = repr(m)
        hash(m)
        assert repr(m) == before
        assert [f.name for f in fields(m)] == ["segments", "tate", "wildcard", "order_tag"]
        red = reduced_label(PI)
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
            (
                m.reduced(),
                Multisegment(
                    (Segment(red, HalfInt(0), 2), Segment(red, HalfInt(1), 1)),
                    HalfInt(1),
                    m.wildcard,
                ),
            ),
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


class TestRebuildMatchesReplace:
    """``shifted``, ``with_tate``, ``without_wildcard`` and ``reduced`` build
    what ``dataclasses.replace`` built."""

    @staticmethod
    def assert_same(got, ref):
        assert type(got) is type(ref)
        assert got == ref and hash(got) == hash(ref) and str(got) == str(ref)
        if isinstance(got, LadderShape):
            # labels compare by id: the fields of the base must match too
            assert cuspidal_to_dict(got.base) == cuspidal_to_dict(ref.base)
            got, ref = got.to_multisegment(), ref.to_multisegment()
        if isinstance(got, Multisegment):
            assert [cuspidal_to_dict(seg.base) for seg in got.segments] == [
                cuspidal_to_dict(seg.base) for seg in ref.segments
            ]
            assert got.degree == ref.degree
            assert canonical_dumps(multisegment_to_dict(got)) == canonical_dumps(
                multisegment_to_dict(ref)
            )

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
    def test_multisegment_reduced_and_without_wildcard(self, m):
        reduced = m.reduced()
        ref = replace(m, segments=tuple(replace(seg, base=reduced_label(seg.base)) for seg in m.segments))
        self.assert_same(reduced, ref)
        for got, want in zip(reduced.segments, ref.segments, strict=True):
            self.assert_same(got, want)
        self.assert_same(m.without_wildcard(), replace(m, wildcard=None))

    @settings(max_examples=150, derandomize=True)
    @given(ladders, shifts, st.sampled_from(LABELS))
    def test_ladder(self, ladder, n, base):
        ladder = replace(ladder, base=base)
        self.assert_same(ladder.shifted(n), replace(ladder, center=ladder.center + n))
        self.assert_same(ladder.reduced(), replace(ladder, base=reduced_label(ladder.base)))

    @settings(max_examples=100, derandomize=True)
    @given(tagged_or_plain)
    def test_kept_degree_is_never_stale(self, m):
        def summed(x):
            wild = 0 if x.wildcard is None else x.wildcard.degree
            return sum(seg.length * seg.base.g for seg in x.segments) + wild

        assert m.degree == summed(m)
        rebuilt = [replace(m, segments=m.segments[1:]), m.without_wildcard(), m.reduced()]
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


class TestJacquetCuts:
    def test_single_row_has_t_plus_one_cuts(self):
        cuts = jacquet_cuts(make_steinberg(PI, 2))
        assert len(cuts) == 3
        empty = Multisegment.empty()
        st2 = make_steinberg(PI, 2).to_multisegment()
        cell_lo = ms(Segment(PI, HalfInt(-1), 1))
        cell_hi = ms(Segment(PI, HalfInt(1), 1))
        assert set(cuts) == {(empty, st2), (cell_lo, cell_hi), (st2, empty)}

    def test_speh_two_cuts(self):
        cuts = jacquet_cuts(make_speh(PI, 2))
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
            # row j runs from center + (1-s)/2 + j - (t-1)/2, in doubled units
            starts = [center.twice + 1 - s + 2 * j - (t - 1) for j in range(s)]
            expected = []
            for ascending in itertools.combinations_with_replacement(range(t + 1), s):
                vector = tuple(reversed(ascending))
                left = [
                    Segment(base, HalfInt(x), c) for x, c in zip(starts, vector) if c > 0
                ]
                right = [
                    Segment(base, HalfInt(x + 2 * c), t - c)
                    for x, c in zip(starts, vector)
                    if c < t
                ]
                expected.append((ms(*left), ms(*right)))
            cuts = jacquet_cuts(LadderShape(base, s, t, center))
            assert type(cuts) is list
            # multisegments compare by their sorted .segments tuples
            assert cuts == expected


class TestModLReduce:
    def test_idempotent(self):
        m = make_speh(make_steinberg(PI, 2), 2).to_multisegment()
        once = mod_l_reduce(m)
        assert mod_l_reduce(once) == once

    def test_congruent_bases_reduce_equal(self):
        # PI and PI_TWIN share a class but differ in self-twist count
        left = mod_l_reduce(make_steinberg(PI, 3))
        right = mod_l_reduce(make_steinberg(PI_TWIN, 3))
        assert left == right

    @given(multisegments, shifts)
    def test_commutes_with_twist(self, m, n):
        assert mod_l_reduce(twist(m, n)) == twist(mod_l_reduce(m), n)

    @given(plain_multisegments, plain_multisegments)
    def test_commutes_with_product(self, a, b):
        assert mod_l_reduce(normalized_product(a, b)) == normalized_product(
            mod_l_reduce(a), mod_l_reduce(b)
        )

    def test_wildcard_fixed(self):
        m = Multisegment(wildcard=Wildcard("q", 3))
        assert mod_l_reduce(m) == m
