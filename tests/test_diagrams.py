from __future__ import annotations

import dataclasses
import itertools
import random
import re
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from spehline import (
    ConstituentLabel,
    DiagramPoint,
    GrothSum,
    HalfInt,
    InertialCuspidal,
    LocalComponent,
    Wildcard,
    constituent,
    constituent_sum,
    diagram,
    m_indicator,
    modl_key,
    reduced_label,
    superpose,
    trace_back,
)
from spehline.congruence import _traced_terms
from spehline.jsonio import _local_to_dict, canonical_dumps, cuspidal_to_dict

from support import BASES, PI, PI_TWIN, RHO, TAU, enumerate_support, hull_vertices, reference_modl_key


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


@dataclasses.dataclass(frozen=True)
class DataclassPoint:
    """The frozen dataclass a point once was: its hash is ``hash((r, i))``."""

    r: int
    i: int


class TestDiagramPoint:
    """A point is the tuple ``(r, i)``, hashed as the frozen dataclass was."""

    POINTS = [(r, i) for r in range(-2, 9) for i in range(-7, 8)]

    def test_hash_is_the_tuple_hash_and_the_old_hash(self):
        for r, i in self.POINTS:
            assert hash(DiagramPoint(r, i)) == hash((r, i)) == hash(DataclassPoint(r, i))

    def test_repr_str_and_fields(self):
        p = DiagramPoint(4, -2)
        assert repr(p) == "DiagramPoint(r=4, i=-2)"
        assert str(p) == "(4,-2)"
        assert (p.r, p.i) == tuple(p) == (4, -2)
        assert repr(ConstituentLabel(triple_component(), p, 1)).count("DiagramPoint(r=4, i=-2)") == 1

    def test_immutable(self):
        p = DiagramPoint(4, 0)
        for name in ("r", "i", "other"):
            with pytest.raises(AttributeError):
                setattr(p, name, 1)
        assert p == (4, 0)

    def test_equals_the_plain_tuple(self):
        p = DiagramPoint(3, 1)
        assert p == (3, 1) and (3, 1) == p and p != (1, 3)
        assert {(3, 1): "x"}[p] == "x"
        assert "plain tuple ``(r, i)``" in DiagramPoint.__doc__

    def test_diagram_points_are_points(self):
        diag = superpose(triple_component())
        assert all(type(p) is DiagramPoint for p in diag)
        assert diag[(4, 0)] == diag[DiagramPoint(4, 0)] == (1, 2, 3)

    def test_sorted_in_the_old_key_order(self):
        for c in (triple_component(), LocalComponent(s=5, factors=((6, PI), (2, RHO), (1, PI)))):
            diag = superpose(c)
            assert sorted(diag) == sorted(diag, key=lambda p: (p.r, p.i))
        shuffled = [DiagramPoint(r, i) for r, i in self.POINTS]
        random.Random(24).shuffle(shuffled)
        assert sorted(shuffled) == sorted(shuffled, key=lambda p: (p.r, p.i))


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
            label = constituent(c, p, k)
            swapped_after = ConstituentLabel(
                label.component.substituted(PI, PI_TWIN), label.point, label.xi_index
            )
            assert swapped_first == swapped_after

    def test_degree_matches_component(self):
        c = LocalComponent(
            s=2, factors=((2, PI), (1, RHO)), wildcard=Wildcard("q", 3)
        )
        p = DiagramPoint(3, 0)
        label = constituent(c, p, 1)
        assert label.component.degree == c.degree

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
        traced = constituent(self.C, DiagramPoint(2, 1), 3)
        label = ConstituentLabel(traced.component.reduced(), traced.point, traced.xi_index)
        assert str(label) == (
            "Speh_2(St_2(rl(a))) x Speh_2(rl(b)) x R_rl(a)(2,2)(2,1) x ?q(3){1/2}"
            " [xi_3, Xi^1/2]"
        )
        assert label.component.degree == self.C.degree

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


# the text a traced term's own format writes around and between its factors
MARKERS = (" [", "]", "xi_", "Xi^", " x ", ";")


def marker_text(rng: random.Random) -> str:
    return "".join(rng.choice(MARKERS + ("a", "(", ")")) for _ in range(rng.randint(1, 4)))


def random_component(rng: random.Random, n: int, traced: int, wild: str, bases=BASES, wild_id=None):
    """A component with ``n`` factors, ``traced`` of them traced by
    ``bases[0]`` at the returned radius, the others on ``bases[1:]``, and a
    wildcard that is absent, unshifted or shifted, named by ``wild_id(rng)``."""
    anchor, others = bases[0], list(bases[1:])
    name = wild_id or (lambda rng: f"w{rng.randrange(100)}")
    s, t = rng.randint(1, 3), rng.randint(1, 4)
    r = s + t - 1
    factors = [(t, anchor)] * traced
    while len(factors) < n:
        if rng.random() < 0.3 and r > s:  # an anchor factor that ends before r
            factors.append((rng.randint(1, r - s), anchor))
        else:
            factors.append((rng.randint(1, 4), rng.choice(others)))
    rng.shuffle(factors)
    wildcard = {
        "absent": None,
        "unshifted": Wildcard(name(rng), rng.randint(0, 6)),
        "shifted": Wildcard(name(rng), rng.randint(0, 6), HalfInt(rng.choice([-3, 1, 2]))),
    }[wild]
    return LocalComponent(s=s, factors=tuple(factors), wildcard=wildcard), r


class TestModlKeyMemo:
    CASES = [
        (n, traced, wild)
        for n, traced, wild in itertools.product(
            range(4), range(4), ("absent", "unshifted", "shifted")
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

    @pytest.mark.parametrize("n, traced, wild", [case for case in CASES if case[1] >= 2])
    def test_marker_text_in_classes_and_wildcards(self, n, traced, wild):
        # classes and wildcard ids that write a term's own markers, between
        # the product and the marker, must leave the key as the reference
        rng = random.Random(f"markers-{n}-{traced}-{wild}")
        for case in range(40):
            # the first two bases share a class, as PI and PI_TWIN do
            classes = [marker_text(rng)] * 2 + [marker_text(rng) for _ in BASES[2:]]
            bases = [
                InertialCuspidal(f"mk{case}.{j}", base.g, modl_class=cls)
                for j, (base, cls) in enumerate(zip(BASES, classes))
            ]
            c, r = random_component(rng, n, traced, wild, bases, marker_text)
            assert len(constituent_sum(c, bases[0], DiagramPoint(r, 0))) == traced
            for pi in bases[:3]:
                assert modl_key(c, pi, r) == reference_modl_key(c, pi, r)

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


class TestModlKeyMisses:
    """A miss writes the traced labels' products and markers without
    building a formal sum or a whole label's text, and the memo behind
    ``modl_key`` empties with ``_traced_terms.cache_clear``."""

    def test_a_cold_call_builds_no_sum(self, monkeypatch):
        built = []
        init = GrothSum.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        probe = dataclasses.replace(PI, id="cold-probe", modl_class="cold")
        c = LocalComponent(s=2, factors=((3, probe), (1, RHO), (3, probe)), wildcard=Wildcard("w", 2))
        monkeypatch.setattr(GrothSum, "__init__", counted)
        before = modl_key.cache_info()
        key = modl_key(c, probe, 4)
        assert modl_key.cache_info().misses == before.misses + 1
        assert built == []
        monkeypatch.undo()
        assert key == reference_modl_key(c, probe, 4)
        assert key.count("[xi_") == 2

    def test_a_cold_call_formats_no_whole_label(self):
        # counted under sys.setprofile: a miss writes no ConstituentLabel.__str__
        code, calls = ConstituentLabel.__str__.__code__, []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is code:
                calls.append(frame.f_code)

        probe = dataclasses.replace(PI, id="str-probe", modl_class="str")
        c = LocalComponent(s=2, factors=((3, probe), (1, RHO), (3, probe)), wildcard=Wildcard("w", 2))
        before = modl_key.cache_info()
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            key = modl_key(c, probe, 4)
        finally:
            sys.setprofile(previous)
        assert modl_key.cache_info().misses == before.misses + 1
        assert calls == []
        assert key == reference_modl_key(c, probe, 4)
        assert key.count("[xi_") == 2

    def test_cache_clear_empties_the_memo(self):
        c = LocalComponent(s=1, factors=((2, PI),))
        modl_key(c, PI, 2)
        hit = modl_key.cache_info()
        modl_key(c, PI, 2)
        assert modl_key.cache_info().hits == hit.hits + 1
        _traced_terms.cache_clear()
        assert modl_key.cache_info().currsize == 0
        modl_key(c, PI, 2)
        after = modl_key.cache_info()
        assert (after.hits, after.misses, after.currsize) == (0, 1, 1)


class TestModlKeyHit:
    """A warm ``modl_key`` call, counted under ``sys.setprofile``.  The memo
    keys on plain values, so a hit hashes and compares no label in Python:
    it calls ``modl_key``, ``Wildcard.__str__`` and the comprehension that
    writes the key, a frame of its own only before Python 3.12."""

    def test_a_warm_call_hashes_no_label(self):
        probe = dataclasses.replace(PI, id="hit-probe", modl_class="hit")
        c = LocalComponent(s=2, factors=((3, probe), (1, RHO)), wildcard=Wildcard("w", 4))
        modl_key(c, probe, 4)
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        before = modl_key.cache_info()
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            key = modl_key(c, probe, 4)
        finally:
            sys.setprofile(previous)
        assert modl_key.cache_info().hits == before.hits + 1
        assert not {"__hash__", "__eq__"} & set(calls), calls
        assert len(calls) <= 3, calls
        assert key == reference_modl_key(c, probe, 4)


class TestTracingById:
    """A factor traces the anchor when its base has the anchor's id, in
    ``modl_key`` and in ``constituent_sum`` alike: another object with that
    id traces, and a base that shares only the anchor's class does not."""

    ANCHOR = InertialCuspidal("by-id-anchor", 1, modl_class="by-id")
    # the id built afresh, so neither the label nor its id is the anchor's object
    SAME_ID = InertialCuspidal("".join(["by-id-", "anchor"]), 1, modl_class="by-id-other")
    SAME_CLASS = InertialCuspidal("by-id-class", 1, modl_class="by-id")

    def test_another_object_with_the_id_traces(self):
        assert self.SAME_ID.id is not self.ANCHOR.id
        c = LocalComponent(s=2, factors=((2, self.SAME_ID), (1, RHO)), wildcard=Wildcard("w", 2))
        labels = list(constituent_sum(c, self.ANCHOR, DiagramPoint(3, 0)).labels())
        assert [label.xi_index for label in labels] == [1]
        assert modl_key(c, self.ANCHOR, 3) == (
            "1*R_rl(by-id-other)(2,2)(3,0) x Speh_2(rl(b)) x ?w(2) [xi_1, Xi^0]"
        )

    def test_a_shared_class_alone_does_not_trace(self):
        c = LocalComponent(s=2, factors=((2, self.SAME_CLASS), (1, RHO)), wildcard=Wildcard("w", 2))
        assert constituent_sum(c, self.ANCHOR, DiagramPoint(3, 0)).is_zero
        assert modl_key(c, self.ANCHOR, 3) == "0"


class TestModlKeyMissGrowth:
    """What one cold ``modl_key`` call does, counted under ``sys.setprofile``:
    Python calls linear in the factor count.  A miss writes each factor's
    text once; one that wrote the whole product once per traced factor
    would make calls quadratic in the factors, and breaks the bound."""

    @staticmethod
    def cold_calls(u: int) -> int:
        # a base no other test uses, so the call misses; half the factors trace it
        probe = dataclasses.replace(PI, id=f"growth-probe-{u}", modl_class=f"growth{u}")
        factors = tuple((3, probe) if j % 2 == 0 else (1, RHO) for j in range(u))
        c = LocalComponent(s=2, factors=factors, wildcard=Wildcard("w", 2))
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code)

        before = modl_key.cache_info()
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            key = modl_key(c, probe, 4)
        finally:
            sys.setprofile(previous)
        assert modl_key.cache_info().misses == before.misses + 1
        assert key == reference_modl_key(c, probe, 4)
        assert key.count("[xi_") == u // 2
        return len(calls)

    def test_calls_linear_in_the_factors(self):
        calls = {u: self.cold_calls(u) for u in (4, 16, 64)}
        assert calls[16] <= 4.5 * calls[4] and calls[64] <= 4.5 * calls[16], calls


def constituent_to_json(x) -> str:
    """Canonical JSON of a component or a label, with the fields of every
    base: labels compare by id alone."""
    c = x.component if isinstance(x, ConstituentLabel) else x
    doc = {
        "component": _local_to_dict(c),
        "bases": [cuspidal_to_dict(base) for _, base in c.factors],
    }
    if isinstance(x, ConstituentLabel):
        doc.update(point=[x.point.r, x.point.i], xi_index=x.xi_index)
    return canonical_dumps(doc)


# the support labels, and each again with another class, equal to it by id
LABELS = BASES + [dataclasses.replace(b, modl_class="z") for b in BASES]
components = st.builds(
    LocalComponent,
    s=st.integers(1, 3),
    factors=st.lists(st.tuples(st.integers(1, 4), st.sampled_from(LABELS)), min_size=1, max_size=4).map(tuple),
    wildcard=st.none() | st.builds(Wildcard, st.sampled_from(["w1", "w2"]), st.integers(0, 4)),
)


class TestRebuildMatchesReplace:
    """``substituted`` and ``reduced`` of components, and labels built on
    them, build what ``dataclasses.replace`` built; congruent components
    reduce equal, and reducing twice reduces once."""

    @staticmethod
    def assert_same(got, ref):
        assert type(got) is type(ref)
        assert got == ref and hash(got) == hash(ref) and str(got) == str(ref)
        assert constituent_to_json(got) == constituent_to_json(ref)

    @settings(max_examples=150, derandomize=True)
    @given(components, st.sampled_from(LABELS), st.sampled_from(LABELS), st.integers(1, 4), st.integers(-2, 2))
    def test_component_and_label(self, c, old, new, r, i):
        def substituted(x):
            return tuple((t, new if base == old else base) for t, base in x.factors)

        ref_sub = dataclasses.replace(c, factors=substituted(c))
        # ref_red keeps c's wildcard: reduction leaves a wildcard fixed
        ref_red = dataclasses.replace(c, factors=tuple((t, reduced_label(b)) for t, b in c.factors))
        # the same classes under other ids and self-twist counts
        congruent = dataclasses.replace(
            c,
            factors=tuple(
                (t, dataclasses.replace(b, id=b.id + "'", e_pi=b.e_pi + 1)) for t, b in c.factors
            ),
        )
        self.assert_same(c.substituted(old, new), ref_sub)
        self.assert_same(c.reduced(), ref_red)
        self.assert_same(congruent.reduced(), ref_red)
        self.assert_same(c.reduced().reduced(), ref_red)
        for k in range(1, len(c.factors) + 1):
            label = ConstituentLabel(c, DiagramPoint(r, i), k)
            sub = ConstituentLabel(label.component.substituted(old, new), label.point, k)
            red = ConstituentLabel(label.component.reduced(), label.point, k)
            self.assert_same(sub, dataclasses.replace(label, component=ref_sub))
            self.assert_same(red, dataclasses.replace(label, component=ref_red))


class TestModlKeyOrder:
    """``modl_key`` joins the traced terms in factor order without sorting
    them; that order must be the sorted one, whatever the classes and the
    wildcard hold."""

    PIECES = ("R", "S", "r", "R_rl(", "rl(", "Speh_", "St_", "(", ")", "?", "a", "1*") + MARKERS

    def text(self, rng: random.Random) -> str:
        return "".join(rng.choice(self.PIECES) for _ in range(rng.randint(0, 4)))

    def test_matches_the_sorted_join(self):
        rng = random.Random(20261019)
        several = 0
        for case in range(2400):
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


# A factor of a mod-l key: traced, ``R_rl(<class>)(<s>,<t>)(<r>,0)``, or not,
# ``[Speh_<s>(][St_<t>(]rl(<class>)`` and a ``)`` for each optional layer.
KEY_FACTOR = re.compile(
    r"R_rl\(([^()]*)\)\((\d+),(\d+)\)\((\d+),0\)|(Speh_\d+\()?(?:St_(\d+)\()?rl\(([^()]*)\)"
)


def key_text(s: int, r: int, factors, traced, wildcard) -> str:
    """The mod-l key of a reading, written from the documented forms."""
    def factor(c: str, t: int, k: int, traced_k: int) -> str:
        if k == traced_k:
            return f"R_rl({c})({s},{t})({r},0)"
        body = f"rl({c})" if t == 1 else f"St_{t}(rl({c}))"
        return body if s == 1 else f"Speh_{s}({body})"

    wild = ""
    if wildcard is not None:
        wid, degree, twice = wildcard
        wild = f" x ?{wid}({degree})" + (f"{{{HalfInt(twice)}}}" if twice else "")
    return ";".join(
        "1*" + " x ".join(factor(c, t, k, j) for k, (t, c) in enumerate(factors, start=1))
        + f"{wild} [xi_{j}, Xi^0]"
        for j in traced
    )


def wildcard_reading(text: str):
    """``(id, degree, twice the shift)`` of a wildcard's text `` x ?...``, read
    from the right, or ``None`` for no text; ``False`` when it is not one."""
    if not text:
        return None
    if not text.startswith(" x ?"):
        return False
    body, twice = text[4:], 0
    if body.endswith("}"):
        brace = body.rindex("{")
        shift, body = body[brace + 1 : -1], body[:brace]
        num, _, den = shift.partition("/")
        if not re.fullmatch(r"-?\d+", num) or den not in ("", "2"):
            return False
        twice = int(num) * (2 if not den else 1)
    paren = body.rfind("(")
    if not body.endswith(")") or paren < 0 or not body[paren + 1 : -1].isdigit():
        return False
    return body[:paren], int(body[paren + 1 : -1]), twice


def key_readings(key: str) -> list[tuple]:
    """Every ``(s, r, factors as (t, class), traced indices, wildcard)``
    whose key is ``key``, for classes without a parenthesis.

    The first term's factors are read left to right: each ``rl(`` closes
    at its first ``)``, and a factor never starts with the wildcard's
    ``?``.  Its one traced factor gives ``s``, ``r`` and the first traced
    index.  Then every set of traced indices is tried whose factors share
    that factor's class; the set fixes the wildcard's length, so its text,
    which is read from the right.  A reading counts when it writes ``key``.
    """
    if not key.startswith("1*"):
        return []
    pos, read = 2, []  # read: (t, class, (s, r) of a traced factor or None)
    while True:
        m = KEY_FACTOR.match(key, pos)
        if m is None:
            return []
        pos = m.end()
        if m[1] is not None:
            read.append((int(m[3]), m[1], (int(m[2]), int(m[4]))))
        else:
            layers = (m[5] is not None) + (m[6] is not None)
            if key[pos : pos + layers] != ")" * layers:
                return []
            pos += layers
            read.append((int(m[6] or 1), m[7], None))
        if not key.startswith(" x ", pos) or key.startswith(" x ?", pos):
            break
        pos += 3
    first = [k for k, f in enumerate(read, start=1) if f[2] is not None]
    if len(first) != 1:
        return []
    (first,) = first
    (s, r), factors = read[first - 1][2], tuple((t, c) for t, c, _ in read)
    anchor_class = factors[first - 1][1]
    later = [k for k in range(first + 1, len(factors) + 1) if factors[k - 1][1] == anchor_class]
    readings = []
    for size in range(len(later) + 1):
        for rest in itertools.combinations(later, size):
            traced = (first, *rest)
            bare = len(key_text(s, r, factors, traced, None))
            if (len(key) - bare) % len(traced):
                continue
            wildcard = wildcard_reading(key[pos : pos + (len(key) - bare) // len(traced)])
            if wildcard is not False and key_text(s, r, factors, traced, wildcard) == key:
                readings.append((s, r, factors, traced, wildcard))
    return readings


class TestModlKeysParseBack:
    """A key names one component's constituent sum: without a parenthesis in
    any class, each key parses back into ``s``, ``r``, each factor's
    ``(t, class)``, the traced factors and the wildcard, and into nothing
    else, whatever the wildcard's id holds."""

    CLASS_PIECES = tuple(p for p in TestModlKeyOrder.PIECES if "(" not in p and ")" not in p)

    def test_each_key_has_one_reading(self):
        rng = random.Random(20261021)

        def text(pieces) -> str:
            return "".join(rng.choice(pieces) for _ in range(rng.randint(0, 4)))

        parsed = several = 0
        for case in range(3000):
            classes = [text(self.CLASS_PIECES) or "a" for _ in range(3)]
            anchor = InertialCuspidal(f"o{case}", 1, modl_class=classes[0])
            # a base that shares the anchor's class but not its id does not trace
            bases = [anchor] + [
                InertialCuspidal(f"o{case}.{j}", 1, modl_class=c) for j, c in enumerate(classes)
            ]
            s = rng.randint(1, 3)
            factors = tuple(
                (rng.randint(1, 4), anchor if rng.random() < 0.5 else rng.choice(bases))
                for _ in range(rng.randint(1, 5))
            )
            wild_id, shift = text(TestModlKeyOrder.PIECES), HalfInt(rng.choice([-3, 0, 1, 2]))
            wildcard = rng.choice([None, Wildcard(wild_id, rng.randint(0, 6), shift)])
            c = LocalComponent(s=s, factors=factors, wildcard=wildcard)
            r = rng.randint(1, s + 4)
            key = modl_key(c, anchor, r)
            traced = tuple(
                k for k, (t, base) in enumerate(factors, start=1)
                if base is anchor and m_indicator(s, t, r, 0)
            )
            if not traced:
                assert key == "0"
                continue
            truth = (
                s,
                r,
                tuple((t, base.modl_class) for t, base in factors),
                traced,
                None if wildcard is None else (wildcard.id, wildcard.degree, wildcard.shift.twice),
            )
            assert key_readings(key) == [truth], (c, r, key)
            parsed += 1
            several += len(traced) > 1
        assert parsed >= 1000 and several >= 250
