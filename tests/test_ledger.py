from __future__ import annotations

import ast
import copy
import dataclasses
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spehline import (
    GlobalContext,
    GrothSum,
    HalfInt,
    InertialCuspidal,
    InvariantViolation,
    LedgerTerm,
    Multisegment,
    Segment,
    Wildcard,
    ZERO,
    adjunction_labels,
    expand_resolution,
    filtration_graded,
    generic_infinitesimal,
    group_by_stratum,
    resolution_terms,
    strip_adjunction_core,
)
from spehline.jsonio import ledger_term_to_dict
from spehline.ledger import INTERMEDIATE

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parent.parent / "src"


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
            resolution_terms(ctx, 5, Multisegment())


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
        _, _, induced = adjunction_labels(ctx, 2, generic_infinitesimal(ctx, 2))[0]
        # reduces to inf x pi{t/2} with a half Xi power
        assert induced.tate == HalfInt(1)
        assert [s.start.twice for s in induced.segments] == [2]
        assert induced.wildcard is not None and induced.wildcard.shift == HalfInt(0)

    def test_source_target_are_resolution_terms(self):
        ctx = GlobalContext(d=9, pi=InertialCuspidal("pi", 1))
        inf = generic_infinitesimal(ctx, 3)
        terms = resolution_terms(ctx, 3, inf)
        arrows = adjunction_labels(ctx, 3, inf)
        assert len(arrows) == ctx.s_g - 3
        for delta, (source, target, _) in enumerate(arrows, start=1):
            assert source == terms[delta]
            assert target == terms[delta - 1]
            assert source.degree(ctx.g) == target.degree(ctx.g) == ctx.d

    def test_independent_of_t_after_stripping(self):
        for g in (1, 2, 3):
            ctx = GlobalContext(d=12, pi=InertialCuspidal("pi", g))
            for delta in range(1, ctx.s_g):
                cores = set()
                for t in range(1, ctx.s_g - delta + 1):
                    arrows = adjunction_labels(ctx, t, generic_infinitesimal(ctx, t))
                    _, _, induced = arrows[delta - 1]
                    cores.add(strip_adjunction_core(induced, t))
                assert len(cores) == 1

    def test_consecutive_arrows_share_their_term(self):
        # one complex: the source of each arrow is the next arrow's target
        ctx = GlobalContext(d=12, pi=InertialCuspidal("pi", 2))
        arrows = adjunction_labels(ctx, 1, generic_infinitesimal(ctx, 1))
        for (source, _, _), (_, target, _) in zip(arrows, arrows[1:]):
            assert source is target

    def test_no_arrow_at_the_top_stratum(self):
        # n = s_g - t = 0: the resolution is one shriek and has no arrow
        ctx = GlobalContext(d=4, pi=InertialCuspidal("pi", 1))
        assert adjunction_labels(ctx, 4, generic_infinitesimal(ctx, 4)) == []


class TestExpansion:
    def test_top_stratum_single_term(self):
        ctx = GlobalContext(d=6, pi=InertialCuspidal("pi", 2))
        assert len(filtration_graded(ctx, ctx.s_g, generic_infinitesimal(ctx, ctx.s_g))) == 1

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

    def test_expansion_matches_replace_construction(self):
        # the expansion as first written, through dataclasses.replace
        def reference(ctx, t, inf):
            return GrothSum(
                (dataclasses.replace(sub, xi_power=term.xi_power, sign=1), term.sign)
                for term in resolution_terms(ctx, t, inf)
                if term.kind == "shriek"
                for sub in filtration_graded(ctx, term.stratum, term.infinitesimal)
            )

        for ctx in all_contexts(20):
            for t in range(1, ctx.s_g + 1):
                inf = generic_infinitesimal(ctx, t)
                total, ref = expand_resolution(ctx, t, inf), reference(ctx, t, inf)
                assert list(total.labels()) == list(ref.labels())
                assert [total.coefficient(x) for x in ref.labels()] == [
                    ref.coefficient(x) for x in ref.labels()
                ]
                groups, ref_groups = group_by_stratum(total), group_by_stratum(ref)
                assert list(groups) == list(ref_groups)
                for stratum, part in groups.items():
                    assert list(part.labels()) == list(ref_groups[stratum].labels())
                    assert part == ref_groups[stratum]


class TestHashOnce:
    """A ledger term keeps its hash, and no copy, rebuild or pickle inherits it."""

    def test_replaced_term_hashes_like_a_fresh_one(self):
        ctx = GlobalContext(d=8, pi=InertialCuspidal("pi", 2))
        term = next(iter(expand_resolution(ctx, 2, generic_infinitesimal(ctx, 2)).labels()))
        before = repr(term)
        hash(term)
        assert repr(term) == before
        fields = [f.name for f in dataclasses.fields(term)]
        assert fields == ["kind", "stratum", "infinitesimal", "xi_power", "tate", "sign"]
        for change in ({"sign": -1}, {"stratum": 3}, {"tate": HalfInt(5)}):
            got = dataclasses.replace(term, **change)
            fresh = LedgerTerm(**{name: getattr(term, name) for name in fields} | change)
            assert got == fresh and got != term
            assert hash(got) == hash(fresh)
            assert GrothSum.of(fresh).coefficient(got) == 1

    def test_pickled_terms_hash_afresh_under_another_seed(self, tmp_path):
        # expand_resolution hashes every term it returns before it is pickled
        dump = """
import pickle, sys
from spehline import GlobalContext, InertialCuspidal, expand_resolution, generic_infinitesimal
ctx = GlobalContext(d=9, pi=InertialCuspidal("pi", 1))
total = expand_resolution(ctx, 2, generic_infinitesimal(ctx, 2))
labels = list(total.labels())
infs = [term.infinitesimal for term in labels]
with open(sys.argv[1], "wb") as fh:
    pickle.dump((labels, infs), fh)
"""
        load = """
import pickle, sys
from spehline import GlobalContext, GrothSum, InertialCuspidal, expand_resolution, generic_infinitesimal
ctx = GlobalContext(d=9, pi=InertialCuspidal("pi", 1))
fresh = expand_resolution(ctx, 2, generic_infinitesimal(ctx, 2))
fresh_infs = GrothSum((term.infinitesimal, 1) for term in fresh.labels())
with open(sys.argv[1], "rb") as fh:
    labels, infs = pickle.load(fh)
assert len(labels) == len(fresh) > 1
for term in labels:
    assert fresh.coefficient(term) != 0, term
for inf in infs:
    assert fresh_infs.coefficient(inf) != 0, inf
"""
        path = tmp_path / "terms.pickle"
        for seed, code in (("0", dump), ("1", load)):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(SRC)}
            done = subprocess.run(
                [sys.executable, "-c", code, str(path)],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert done.returncode == 0, done.stderr

    def test_first_hash_hashes_no_part_through_python(self, monkeypatch):
        def refuse(self):
            raise AssertionError(f"hashed a {type(self).__name__}")

        ctx = GlobalContext(d=12, pi=InertialCuspidal("pi", 2))
        inf = Multisegment((Segment(ctx.pi, HalfInt(1), 2),), HalfInt(1), Wildcard("w", 4))
        term = LedgerTerm("shriek", 2, inf, HalfInt(3), HalfInt(-1))
        assert "_hash" not in vars(inf) and "_hash" not in vars(term)
        for cls in (Segment, InertialCuspidal, HalfInt, Wildcard):
            monkeypatch.setattr(cls, "__hash__", refuse)
        h = hash(term)
        monkeypatch.undo()
        assert h == hash(LedgerTerm("shriek", 2, inf, HalfInt(3), HalfInt(-1)))


class TestTrustedExpandedTerm:
    """``LedgerTerm._expanded`` builds what ``LedgerTerm(...)`` builds for an
    intermediate term of sign 1, and only ``ledger`` calls it."""

    def terms(self):
        ctx = GlobalContext(d=14, pi=InertialCuspidal("pi", 2, e_pi=2))
        inf = Multisegment((Segment(ctx.pi, HalfInt(1), 2),), HalfInt(1), Wildcard("w", 4))
        for part, xi, tate in (
            (inf, HalfInt(3), HalfInt(-1)),
            (generic_infinitesimal(ctx, 2), ZERO, ZERO),
        ):
            trusted = LedgerTerm._expanded(4, part, xi, tate)
            yield trusted, LedgerTerm(INTERMEDIATE, 4, part, xi, tate, 1)

    def test_equals_the_checked_constructor(self):
        for trusted, checked in self.terms():
            assert type(trusted) is LedgerTerm
            assert trusted.__dict__ == checked.__dict__
            assert list(trusted.__dict__) == list(checked.__dict__)
            assert repr(trusted) == repr(checked) and str(trusted) == str(checked)
            assert trusted == checked and hash(trusted) == hash(checked)
            assert GrothSum.of(checked).coefficient(trusted) == 1

    def test_copies_and_pickles_drop_the_kept_hash(self):
        for trusted, checked in self.terms():
            h = hash(trusted)
            assert trusted.__dict__["_hash"] == h
            for copied in (copy.copy(trusted), pickle.loads(pickle.dumps(trusted))):
                assert "_hash" not in copied.__dict__
                assert copied == checked and copied.__dict__ == checked.__dict__
                assert hash(copied) == h

    def test_expansion_terms_pass_the_checks(self):
        for ctx in all_contexts(12):
            for t in range(1, ctx.s_g + 1):
                for term in expand_resolution(ctx, t, generic_infinitesimal(ctx, t)).labels():
                    fields = {f.name: getattr(term, f.name) for f in dataclasses.fields(term)}
                    assert LedgerTerm(**fields).__dict__ == {
                        key: value for key, value in term.__dict__.items() if key != "_hash"
                    }

    def test_named_only_in_ledger(self):
        package = SRC / "spehline"
        callers = sorted(
            path.name
            for path in package.glob("*.py")
            if re.search(r"\b_expanded\b", path.read_text(encoding="utf-8"))
        )
        assert callers == ["ledger.py"]


def test_no_module_imports_a_ledger_private():
    for path in sorted((SRC / "spehline").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "ledger":
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert not private, (path.name, private)
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "ledger":
                assert not node.attr.startswith("_"), (path.name, node.attr)
