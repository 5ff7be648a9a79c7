from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from spehline import (
    GlobalContext,
    GrothSum,
    HalfInt,
    InertialCuspidal,
    InvariantViolation,
    Multisegment,
    Wildcard,
    adjunction_label,
    expand_resolution,
    expand_shriek,
    filtration_graded,
    generic_infinitesimal,
    group_by_stratum,
    resolution_terms,
    strip_adjunction_core,
)
from spehline.jsonio import ledger_term_to_dict

FIXTURES = Path(__file__).parent / "fixtures"


def golden_cases():
    with open(FIXTURES / "golden_ledger.json", encoding="utf-8") as fh:
        return json.load(fh)["cases"]


def context_for(case: dict) -> GlobalContext:
    pi = InertialCuspidal(
        id=case["pi"]["id"],
        g=case["pi"]["g"],
        e_pi=case["pi"]["e_pi"],
        modl_class=case["pi"]["modl_class"],
    )
    return GlobalContext(d=case["d"], pi=pi)


def all_contexts(d_max: int = 30):
    """Every (d, g | d) pair with a fresh anchor label."""
    for d in range(1, d_max + 1):
        for g in range(1, d + 1):
            if d % g == 0:
                yield GlobalContext(d=d, pi=InertialCuspidal("pi", g))


class TestGrothSum:
    def test_zero_merging(self):
        a = GrothSum.of("x") + GrothSum.of("x", -1)
        assert a.is_zero
        assert a == GrothSum.zero()

    def test_commutative_addition(self):
        a, b = GrothSum.of("x", 2), GrothSum.of("y", -3)
        assert a + b == b + a
        assert (a + b).coefficient("y") == -3

    def test_scalar_and_negation(self):
        a = GrothSum.of("x", 2)
        assert 3 * a == GrothSum.of("x", 6)
        assert -a + a == GrothSum.zero()
        assert (a - GrothSum.of("x", 5)).has_negative()


class TestResolution:
    @pytest.mark.parametrize("case", golden_cases(), ids=lambda c: f"d{c['d']}g{c['g']}t{c['t']}")
    def test_golden(self, case):
        ctx = context_for(case)
        inf = generic_infinitesimal(ctx, case["t"])
        got = [ledger_term_to_dict(t) for t in resolution_terms(ctx, case["t"], inf)]
        assert got == case["resolution"]

    def test_term_count(self):
        ctx = GlobalContext(d=10, pi=InertialCuspidal("pi", 2))
        for t in range(1, ctx.s_g + 1):
            inf = generic_infinitesimal(ctx, t)
            assert len(resolution_terms(ctx, t, inf)) == ctx.s_g - t + 2

    def test_top_stratum_is_shriek_plus_augmentation(self):
        ctx = GlobalContext(d=6, pi=InertialCuspidal("pi", 2))
        terms = resolution_terms(ctx, ctx.s_g, generic_infinitesimal(ctx, ctx.s_g))
        assert [t.kind for t in terms] == ["shriek", "intermediate"]

    def test_signs_alternate_from_plus_one(self):
        ctx = GlobalContext(d=8, pi=InertialCuspidal("pi", 1))
        terms = resolution_terms(ctx, 2, generic_infinitesimal(ctx, 2))
        shrieks = [t for t in terms if t.kind == "shriek"]
        assert [t.sign for t in shrieks] == [(-1) ** k for k in range(len(shrieks))]

    def test_degree_invariant_sweep(self):
        for ctx in all_contexts():
            for t in range(1, ctx.s_g + 1):
                inf = generic_infinitesimal(ctx, t)
                for term in resolution_terms(ctx, t, inf):
                    assert term.degree(ctx.g) == ctx.d

    def test_rejects_degree_mismatch(self):
        ctx = GlobalContext(d=4, pi=InertialCuspidal("pi", 1))
        bad = Multisegment(wildcard=Wildcard("q", 1))  # stratum 2 expects degree 2
        with pytest.raises(InvariantViolation):
            resolution_terms(ctx, 2, bad)

    def test_rejects_stratum_out_of_range(self):
        ctx = GlobalContext(d=4, pi=InertialCuspidal("pi", 1))
        with pytest.raises(InvariantViolation):
            resolution_terms(ctx, 5, Multisegment.empty())


class TestFiltration:
    @pytest.mark.parametrize("case", golden_cases(), ids=lambda c: f"d{c['d']}g{c['g']}t{c['t']}")
    def test_golden(self, case):
        ctx = context_for(case)
        inf = generic_infinitesimal(ctx, case["t"])
        got = [ledger_term_to_dict(t) for t in filtration_graded(ctx, case["t"], inf)]
        assert got == case["filtration"]

    def test_count_and_first_part(self):
        ctx = GlobalContext(d=12, pi=InertialCuspidal("pi", 3))
        for t in range(1, ctx.s_g + 1):
            inf = generic_infinitesimal(ctx, t)
            graded = filtration_graded(ctx, t, inf)
            assert len(graded) == ctx.s_g - t + 1
            assert graded[0].kind == "intermediate"
            assert graded[0].stratum == t
            assert graded[0].infinitesimal == inf

    def test_degree_invariant_sweep(self):
        for ctx in all_contexts():
            for t in range(1, ctx.s_g + 1):
                inf = generic_infinitesimal(ctx, t)
                for term in filtration_graded(ctx, t, inf):
                    assert term.degree(ctx.g) == ctx.d


class TestAdjunction:
    def test_first_arrow_label(self):
        ctx = GlobalContext(d=4, pi=InertialCuspidal("pi", 1))
        _, _, induced = adjunction_label(ctx, 2, 1)
        # reduces to inf x pi{t/2} with a half Xi power
        assert induced.tate == HalfInt(1)
        assert [s.start.twice for s in induced.segments] == [2]
        assert induced.wildcard is not None and induced.wildcard.shift == HalfInt(0)

    def test_source_target_are_resolution_terms(self):
        ctx = GlobalContext(d=9, pi=InertialCuspidal("pi", 1))
        inf = generic_infinitesimal(ctx, 3)
        terms = resolution_terms(ctx, 3, inf)
        for delta in range(1, ctx.s_g - 3 + 1):
            source, target, _ = adjunction_label(ctx, 3, delta, inf)
            assert source == terms[delta]
            assert target == terms[delta - 1]
            assert source.degree(ctx.g) == target.degree(ctx.g) == ctx.d

    def test_independent_of_t_after_stripping(self):
        for g in (1, 2, 3):
            ctx = GlobalContext(d=12, pi=InertialCuspidal("pi", g))
            for delta in range(1, ctx.s_g):
                cores = set()
                for t in range(1, ctx.s_g - delta + 1):
                    _, _, induced = adjunction_label(ctx, t, delta)
                    cores.add(strip_adjunction_core(induced, t))
                assert len(cores) == 1

    def test_rejects_delta_out_of_range(self):
        ctx = GlobalContext(d=4, pi=InertialCuspidal("pi", 1))
        with pytest.raises(InvariantViolation):
            adjunction_label(ctx, 2, 3)


class TestExpansion:
    def test_top_stratum_single_term(self):
        ctx = GlobalContext(d=6, pi=InertialCuspidal("pi", 2))
        total = expand_shriek(ctx, ctx.s_g, generic_infinitesimal(ctx, ctx.s_g))
        assert len(total) == 1

    def test_expand_shriek_matches_filtration(self):
        ctx = GlobalContext(d=8, pi=InertialCuspidal("pi", 2))
        inf = generic_infinitesimal(ctx, 2)
        total = expand_shriek(ctx, 2, inf)
        assert total == sum(
            (GrothSum.of(t) for t in filtration_graded(ctx, 2, inf)),
            GrothSum.zero(),
        )

    def test_resolution_expansion_groups_by_stratum(self):
        ctx = GlobalContext(d=10, pi=InertialCuspidal("pi", 2))
        inf = generic_infinitesimal(ctx, 2)
        total = expand_resolution(ctx, 2, inf)
        groups = group_by_stratum(total)
        assert set(groups) <= set(range(2, ctx.s_g + 1))
        for stratum, part in groups.items():
            for term, _coeff in part.items():
                assert term.stratum == stratum
                # the markers recover the appended cell count
                assert term.shift_cells == stratum - 2
                assert term.degree(ctx.g) == ctx.d

    def test_grouping_formats_no_term(self):
        @dataclasses.dataclass(frozen=True)
        class Unprintable:
            name: str
            stratum: int

            def __str__(self) -> str:
                raise AssertionError("group_by_stratum formatted a term")

        a, b, c = Unprintable("a", 1), Unprintable("b", 2), Unprintable("c", 1)
        groups = group_by_stratum(GrothSum([(a, 2), (b, -1), (c, 3)]))
        assert groups == {1: GrothSum([(a, 2), (c, 3)]), 2: GrothSum([(b, -1)])}

    def test_expansion_degree_invariant_sweep(self):
        for ctx in all_contexts(20):
            inf = generic_infinitesimal(ctx, 1)
            for term, _ in expand_resolution(ctx, 1, inf).items():
                assert term.degree(ctx.g) == ctx.d
