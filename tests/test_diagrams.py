from __future__ import annotations

import dataclasses
import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from spehline import (
    ConstituentLabel,
    DiagramPoint,
    HalfInt,
    InertialCuspidal,
    LocalComponent,
    Wildcard,
    constituent,
    constituent_sum,
    diagram,
    m_indicator,
    modl_key,
    superpose,
    trace_back,
)

from support import PI, PI_TWIN, RHO, TAU, enumerate_support, hull_vertices


def closed_form(s: int, t: int) -> int:
    if t >= s:
        return s * s
    return s * s - (s - t) * (s - t + 1) // 2


def triple_component() -> LocalComponent:
    # Speh_4(pi) x Speh_4(St_3(pi)) x Speh_4(St_5(pi))
    return LocalComponent(s=4, factors=((1, PI), (3, PI), (5, PI)))


class TestIndicator:
    def test_steinberg_line(self):
        for t in range(1, 13):
            assert m_indicator(1, t, t, 0) == 1
            for r in range(0, t + 4):
                if r == t:
                    continue
                for i in range(-3, 4):
                    assert m_indicator(1, t, r, i) == 0

    def test_parity_kills_point(self):
        # at (s,t,r) = (2,1,1) admissible i must be odd
        assert m_indicator(2, 1, 1, 0) == 0
        assert m_indicator(2, 1, 1, 1) == 1

    def test_wide_shape_interior_row(self):
        assert m_indicator(4, 5, 4, 0) == 1
        admissible = [i for i in range(-6, 7) if m_indicator(4, 5, 4, i)]
        assert admissible == [-2, 0, 2]

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            m_indicator(0, 1, 1, 0)
        with pytest.raises(ValueError):
            m_indicator(1, 0, 1, 0)

    def test_matches_independent_transcription(self):
        for s in range(1, 9):
            for t in range(1, 9):
                mine = {
                    (r, i)
                    for r in range(0, s + t + 1)
                    for i in range(-(s + t), s + t + 1)
                    if m_indicator(s, t, r, i)
                }
                assert mine == enumerate_support(s, t)


class TestDiagram:
    def test_steinberg_diagram_is_a_point(self):
        for t in range(1, 13):
            assert {(p.r, p.i) for p in diagram(1, t)} == {(t, 0)}

    def test_speh_triangle(self):
        for s in range(1, 13):
            diag = diagram(s, 1)
            assert len(diag) == s * (s + 1) // 2
            pts = {(p.r, p.i) for p in diag}
            assert (s, 0) in pts and (1, s - 1) in pts and (1, 1 - s) in pts

    def test_cardinality_closed_form(self):
        for s in range(1, 13):
            for t in range(1, 13):
                assert len(diagram(s, t)) == closed_form(s, t)
                assert len(enumerate_support(s, t)) == closed_form(s, t)

    def test_mirror_symmetry(self):
        for s in range(1, 9):
            for t in range(1, 9):
                pts = {(p.r, p.i) for p in diagram(s, t)}
                assert pts == {(r, -i) for r, i in pts}

    def test_rows_are_progressions_from_boundary(self):
        for s in range(2, 9):
            for t in range(1, 9):
                diag = diagram(s, t)
                for r in range(t, s + t):
                    column = sorted(p.i for p in diag if p.r == r)
                    bound = s + t - 1 - r
                    assert column == list(range(-bound, bound + 1, 2))

    def test_hull_vertices(self):
        for s in range(1, 11):
            for t in range(1, 11):
                pts = {(p.r, p.i) for p in diagram(s, t)}
                if s >= t:
                    expected = {
                        (s + t - 1, 0),
                        (t, s - 1),
                        (t, 1 - s),
                        (1, s - t),
                        (1, t - s),
                    }
                else:
                    expected = {
                        (s + t - 1, 0),
                        (t, s - 1),
                        (t, 1 - s),
                        (t - s + 1, 0),
                    }
                assert hull_vertices(pts) == expected


class TestSuperpose:
    def test_single_factor_matches_diagram(self):
        c = LocalComponent(s=3, factors=((2, PI),))
        assert superpose(c) == diagram(3, 2)

    def test_triple_component_annotations_at_4_0(self):
        diag = superpose(triple_component())
        assert diag[DiagramPoint(4, 0)] == (1, 2, 3)

    def test_right_vertex_annotated(self):
        c = triple_component()
        for k, (t_k, _) in enumerate(c.factors, start=1):
            p = DiagramPoint(c.s + t_k - 1, 0)
            assert k in superpose(c)[p]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.integers(1, 6),
        st.lists(st.tuples(st.integers(1, 7), st.sampled_from([PI, RHO])), min_size=1, max_size=5),
    )
    def test_matches_independent_enumeration(self, s, factors):
        expected: dict[tuple[int, int], tuple[int, ...]] = {}
        for k, (t_k, _) in enumerate(factors, start=1):
            for point in enumerate_support(s, t_k):
                expected[point] = expected.get(point, ()) + (k,)
        diag = superpose(LocalComponent(s=s, factors=tuple(factors)))
        assert {(p.r, p.i): ks for p, ks in diag.items()} == expected

    def test_monotone_under_adding_factors(self):
        small = LocalComponent(s=4, factors=((1, PI), (3, PI)))
        big = triple_component()
        small_diag, big_diag = superpose(small), superpose(big)
        assert small_diag.keys() <= big_diag.keys()
        for p in small_diag:
            assert set(small_diag[p]) <= set(big_diag[p])


class TestTraceBack:
    def test_triple_component_origins(self):
        c = triple_component()
        p = DiagramPoint(4, 0)
        assert trace_back(c, p, 3) == DiagramPoint(8, 0)
        assert trace_back(c, p, 2) == DiagramPoint(6, 0)
        assert trace_back(c, p, 1) is None

    def test_requires_annotation(self):
        c = triple_component()
        with pytest.raises(ValueError):
            trace_back(c, DiagramPoint(4, 1), 1)  # parity excludes (4,1) for t=1

    def test_none_exactly_at_own_vertex(self):
        c = triple_component()
        diag = superpose(c)
        for p in diag:
            for k in diag[p]:
                t_k, _ = c.factor(k)
                origin = trace_back(c, p, k)
                if c.s + t_k - 1 > p.r:
                    assert origin == DiagramPoint(c.s + t_k - 1, 0)
                else:
                    assert origin is None


class TestConstituent:
    def test_triple_component_labels(self):
        c = triple_component()
        p = DiagramPoint(4, 0)
        assert (
            constituent(c, p, 3).product_str()
            == "Speh_4(pi) x Speh_4(St_3(pi)) x R_pi(4,5)(4,0)"
        )
        assert (
            constituent(c, p, 2).product_str()
            == "Speh_4(pi) x R_pi(4,3)(4,0) x Speh_4(St_5(pi))"
        )
        assert (
            constituent(c, p, 1).product_str()
            == "R_pi(4,1)(4,0) x Speh_4(St_3(pi)) x Speh_4(St_5(pi))"
        )

    def test_substitution_commutes(self):
        c = triple_component()
        p = DiagramPoint(4, 0)
        for k in (1, 2, 3):
            swapped_first = constituent(c.substituted(PI, PI_TWIN), p, k)
            swapped_after = constituent(c, p, k).substituted(PI, PI_TWIN)
            assert swapped_first == swapped_after

    def test_degree_matches_component(self):
        c = LocalComponent(
            s=2, factors=((2, PI), (1, RHO)), wildcard=Wildcard("q", 3)
        )
        p = DiagramPoint(3, 0)
        label = constituent(c, p, 1)
        assert label.degree == c.degree

    def test_constituent_sum_filters_by_class(self):
        c = LocalComponent(s=2, factors=((2, PI), (2, RHO)))
        p = DiagramPoint(3, 0)
        total = constituent_sum(c, PI, p)
        assert len(total) == 1
        (label, coeff), = total.items()
        assert coeff == 1 and label.xi_index == 1


class TestConstituentStrings:
    """Full label strings, reduced labels and mod-l keys, as the
    ``congruence --report`` keys print them."""

    # two bases, pi twice, and a shifted wildcard
    C = LocalComponent(
        s=2,
        factors=((2, PI), (1, RHO), (2, PI)),
        wildcard=Wildcard("q", 3, HalfInt(1)),
    )

    def test_str_at_odd_i(self):
        p = DiagramPoint(2, 1)
        assert str(constituent(self.C, p, 1)) == (
            "R_pi(2,2)(2,1) x Speh_2(rho) x Speh_2(St_2(pi)) x ?q(3){1/2}"
            " [xi_1, Xi^1/2]"
        )
        assert str(constituent(self.C, DiagramPoint(2, -1), 3)) == (
            "Speh_2(St_2(pi)) x Speh_2(rho) x R_pi(2,2)(2,-1) x ?q(3){1/2}"
            " [xi_3, Xi^-1/2]"
        )

    def test_reduced_str(self):
        label = constituent(self.C, DiagramPoint(2, 1), 3).reduced()
        assert str(label) == (
            "Speh_2(St_2(rl(a))) x Speh_2(rl(b)) x R_rl(a)(2,2)(2,1) x ?q(3){1/2}"
            " [xi_3, Xi^1/2]"
        )
        assert label.degree == self.C.degree

    def test_modl_key(self):
        assert modl_key(self.C, PI, 3) == (
            "1*R_rl(a)(2,2)(3,0) x Speh_2(rl(b)) x Speh_2(St_2(rl(a))) x ?q(3){1/2}"
            " [xi_1, Xi^0];"
            "1*Speh_2(St_2(rl(a))) x Speh_2(rl(b)) x R_rl(a)(2,2)(3,0) x ?q(3){1/2}"
            " [xi_3, Xi^0]"
        )
        assert modl_key(self.C, RHO, 2) == (
            "1*Speh_2(St_2(rl(a))) x R_rl(b)(2,1)(2,0) x Speh_2(St_2(rl(a))) x ?q(3){1/2}"
            " [xi_2, Xi^0]"
        )
        assert modl_key(self.C, PI, 4) == "0"

    def test_modl_key_reads_the_classes_of_equal_components(self):
        # components of two unrelated datasets may be equal by id alone
        moved = self.C.substituted(PI, dataclasses.replace(PI, modl_class="z"))
        assert moved == self.C
        assert modl_key(self.C, PI, 3) != modl_key(moved, PI, 3)


def reference_modl_key(c: LocalComponent, pi, r: int) -> str:
    """The key built from the whole component: reduce it, take the
    constituent sum at ``(r, 0)``, then sort and join the unit terms."""
    p = DiagramPoint(r, 0)
    reduced = c.reduced()
    terms = sorted(
        f"1*{ConstituentLabel(reduced, p, label.xi_index)}"
        for label in constituent_sum(c, pi, p).labels()
    )
    return ";".join(terms) or "0"


def random_component(rng: random.Random, n: int, traced: int, wild: str):
    """A component with ``n`` factors, ``traced`` of them traced by ``PI`` at
    the returned radius, and a wildcard that is absent, unshifted or shifted."""
    s, t = rng.randint(1, 3), rng.randint(1, 4)
    r = s + t - 1
    factors = [(t, PI)] * traced
    while len(factors) < n:
        if rng.random() < 0.3 and r > s:  # a pi-factor that ends before r
            factors.append((rng.randint(1, r - s), PI))
        else:
            factors.append((rng.randint(1, 4), rng.choice([PI_TWIN, RHO, TAU])))
    rng.shuffle(factors)
    wildcard = {
        "absent": None,
        "unshifted": Wildcard(f"w{rng.randrange(100)}", rng.randint(0, 6)),
        "shifted": Wildcard(
            f"w{rng.randrange(100)}", rng.randint(0, 6), HalfInt(rng.choice([-3, 1, 2]))
        ),
    }[wild]
    return LocalComponent(s=s, factors=tuple(factors), wildcard=wildcard), r


class TestModlKeyMemo:
    CASES = [
        (n, traced, wild)
        for n, traced, wild in itertools.product(
            range(4), range(3), ("absent", "unshifted", "shifted")
        )
        if traced <= n and (n or wild != "absent")
    ]

    @pytest.mark.parametrize("n, traced, wild", CASES)
    def test_matches_the_whole_component_key(self, n, traced, wild):
        rng = random.Random(f"{n}-{traced}-{wild}")
        for _ in range(20):
            c, r = random_component(rng, n, traced, wild)
            assert len(constituent_sum(c, PI, DiagramPoint(r, 0))) == traced
            for pi, radius in itertools.product((PI, PI_TWIN, RHO), (r, r + 1, max(1, r - 1))):
                assert modl_key(c, pi, radius) == reference_modl_key(c, pi, radius)

    def test_wildcard_ids_share_one_entry(self):
        # a base no other test uses, so the first lookup misses
        probe = dataclasses.replace(PI, id="memo-probe", modl_class="memo")
        a, b = (
            LocalComponent(s=2, factors=((3, probe), (1, RHO)), wildcard=Wildcard(w, 4, HalfInt(1)))
            for w in ("wa", "wb")
        )
        before = modl_key.cache_info()
        key_a = modl_key(a, probe, 4)
        middle = modl_key.cache_info()
        key_b = modl_key(b, probe, 4)
        after = modl_key.cache_info()
        assert (middle.misses - before.misses, middle.hits - before.hits) == (1, 0)
        assert (after.misses - middle.misses, after.hits - middle.hits) == (0, 1)
        assert key_a != key_b
        assert key_a.replace("?wa(", "?wb(") == key_b
        assert key_a == reference_modl_key(a, probe, 4)


class TestModlKeyOrder:
    """``modl_key`` joins the traced terms in factor order without sorting
    them; that order must be the sorted one, whatever the classes and the
    wildcard hold."""

    PIECES = ("R", "S", "r", ";", " x ", "R_rl(", "rl(", "Speh_", "St_", "(", ")", "?", "a", "1*")

    def text(self, rng: random.Random) -> str:
        return "".join(rng.choice(self.PIECES) for _ in range(rng.randint(0, 4)))

    def test_matches_the_sorted_join(self):
        rng = random.Random(20261019)
        several = 0
        for case in range(2000):
            bases = [
                InertialCuspidal(f"o{case}.{j}", rng.randint(1, 2), modl_class=self.text(rng))
                for j in range(3)
            ]
            anchor, s = bases[0], rng.randint(1, 3)
            factors = tuple(
                (rng.randint(1, 4), bases[0] if rng.random() < 0.6 else rng.choice(bases))
                for _ in range(rng.randint(1, 5))
            )
            wildcard = rng.choice([
                None,
                Wildcard(self.text(rng), rng.randint(0, 6)),
                Wildcard(self.text(rng), rng.randint(0, 6), HalfInt(rng.choice([-3, 1, 2]))),
            ])
            c = LocalComponent(s=s, factors=factors, wildcard=wildcard)
            r = rng.randint(1, s + 4)
            several += len(constituent_sum(c, anchor, DiagramPoint(r, 0))) > 1
            assert modl_key(c, anchor, r) == reference_modl_key(c, anchor, r), c
        assert several >= 300
