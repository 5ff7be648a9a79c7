from __future__ import annotations

import dataclasses

import pytest

from spehline import (
    AutomorphicDatum,
    Dataset,
    GlobalContext,
    GrothSum,
    InconsistentDataError,
    InconsistentTableError,
    LocalComponent,
    TorsionProfile,
    Wildcard,
    d_sequence,
    expected_contributions,
    generate_dataset,
    infer_B,
    members,
    substitute_cuspidal,
    theorem_check,
)
from spehline.congruence import unit_symbol

from support import PI, PI_TWIN, RHO, single_field_mutations

CTX = GlobalContext(d=12, pi=PI)


def datum(
    did: str, s: int, t: int, *, m=1, d_xi=1, inv_dim=1, base=PI, extra=(), wc=None
) -> AutomorphicDatum:
    factors = ((t, base),) + tuple(extra)
    used = s * sum(tk * bk.g for tk, bk in factors)
    wc_id = wc if wc is not None else f"w.{did}"
    wildcard = Wildcard(wc_id, CTX.d - used) if CTX.d - used > 0 else None
    return AutomorphicDatum(
        id=did,
        local=LocalComponent(s=s, factors=factors, wildcard=wildcard),
        m=m,
        d_xi=d_xi,
        inv_dim=inv_dim,
        satake=f"mt.{did}",
    )


def dataset(*data: AutomorphicDatum, torsion=None, levels=(0, 1)) -> Dataset:
    return Dataset(
        context=CTX,
        data=tuple(data),
        torsion=torsion or TorsionProfile(),
        levels=levels,
    )


class TestDatasetInvariants:
    def test_rejects_degree_mismatch(self):
        bad = AutomorphicDatum(
            id="x",
            local=LocalComponent(s=1, factors=((1, PI),)),
            m=1,
            d_xi=1,
            inv_dim=1,
            satake="mt",
        )
        with pytest.raises(InconsistentDataError):
            dataset(bad)

    def test_rejects_uncovered_levels(self):
        with pytest.raises(InconsistentDataError):
            dataset(
                datum("a", 2, 3),
                torsion=TorsionProfile(t0=1, tau=(1,)),
                levels=(0, 1),
            )

    def test_level_order_is_normalised(self):
        ds = generate_dataset(3, CTX, r=4, levels=(0, 1))
        flipped = dataclasses.replace(ds, levels=(1, 0))
        assert flipped.levels == (0, 1)
        s = ds.data[0].local.s
        assert theorem_check(ds, PI, flipped, PI, 4, s).equal

    def test_rejects_duplicate_ids(self):
        with pytest.raises(InconsistentDataError, match="'a'"):
            dataset(datum("a", 2, 3), datum("a", 4, 1))


class TestMembers:
    def test_empty_dataset(self):
        assert members(dataset(), PI, 4, 2) == []

    def test_each_factor_gives_membership(self):
        rec = datum("a", 2, 3, extra=((1, RHO),))  # radii 4 via pi, 2 via rho
        ds = dataset(rec)
        assert members(ds, PI, 4, 2) == [rec]
        assert members(ds, RHO, 2, 2) == [rec]
        assert members(ds, PI, 2, 2) == []

    def test_noise_base_excluded(self):
        ds = dataset(datum("a", 2, 3, base=RHO))
        assert members(ds, PI, 4, 2) == []


class TestDSequence:
    def test_empty_table_is_zero(self):
        table = d_sequence(dataset(), PI, 4)
        assert all(v.is_zero for v in table.values.values())

    def test_single_record_staircase(self):
        rec = datum("a", 3, 2, m=2, d_xi=3, inv_dim=1)  # r = 4, weight 6
        table = d_sequence(dataset(rec), PI, 4)
        for n in (0, 1):
            w0 = table.entry(0, n)
            assert not w0.is_zero
            assert table.entry(1, n) == w0
            assert table.entry(2, n) == w0
            assert table.entry(3, n).is_zero

    def test_torsion_hits_positive_degrees_only(self):
        prof = TorsionProfile(t0=2, tau=(5, 7))
        table = d_sequence(dataset(torsion=prof), PI, 3)
        for n, tau in ((0, 5), (1, 7)):
            assert table.entry(0, n).is_zero
            expected = GrothSum.of(unit_symbol(n), tau)
            assert table.entry(1, n) == expected
            assert table.entry(2, n) == expected

    def test_additive_in_dataset(self):
        a, b = datum("a", 2, 3, m=2), datum("b", 4, 1, d_xi=3)
        merged = d_sequence(dataset(a, b), PI, 4)
        left = d_sequence(dataset(a), PI, 4)
        right = d_sequence(dataset(b), PI, 4)
        for key, value in merged.values.items():
            assert value == left.values[key] + right.values[key]

    def test_maximality_flag(self):
        assert d_sequence(dataset(datum("a", 2, 3)), PI, 4).maximal
        assert not d_sequence(dataset(datum("a", 2, 3)), PI, 3).maximal


class TestInferB:
    def test_single_pair_roundtrip(self):
        ds = dataset(datum("a", 3, 2, m=2))
        table = d_sequence(ds, PI, 4)
        got = infer_B(table, ds.torsion)
        assert got.shapes() == [(3, 2)]
        assert got == expected_contributions(ds, PI, 4)

    def test_roundtrip_sweep(self):
        for seed in range(60):
            ds = generate_dataset(seed, CTX, r=4)
            table = d_sequence(ds, PI, 4)
            assert infer_B(table, ds.torsion) == expected_contributions(ds, PI, 4)

    def test_roundtrip_with_torsion(self):
        prof = TorsionProfile(t0=2, tau=(3, 1, 4))
        for seed in range(60):
            ds = generate_dataset(seed, CTX, r=4, torsion=prof)
            table = d_sequence(ds, PI, 4)
            assert infer_B(table, ds.torsion) == expected_contributions(ds, PI, 4)

    def test_overclaimed_torsion_rejected(self):
        ds = dataset(datum("a", 2, 3))
        table = d_sequence(ds, PI, 4)
        phantom = TorsionProfile(t0=1, tau=(1, 1))
        with pytest.raises(InconsistentTableError):
            infer_B(table, phantom)


class TestTheoremCheck:
    def contributing_s(self, ds) -> int:
        return ds.data[0].local.s

    def test_substituted_pair_is_equal(self):
        ds = generate_dataset(3, CTX, r=4)
        other = substitute_cuspidal(ds, PI, PI_TWIN)
        s = self.contributing_s(ds)
        verdict = theorem_check(ds, PI, other, PI_TWIN, 4, s)
        assert verdict.equal and not verdict.diffs

    def test_symmetric(self):
        ds = generate_dataset(5, CTX, r=4)
        other = substitute_cuspidal(ds, PI, PI_TWIN)
        s = self.contributing_s(ds)
        assert (
            theorem_check(ds, PI, other, PI_TWIN, 4, s).equal
            == theorem_check(other, PI_TWIN, ds, PI, 4, s).equal
        )

    def test_mutations_flip_the_verdict(self):
        ds = generate_dataset(11, CTX, r=4)
        other = substitute_cuspidal(ds, PI, PI_TWIN)
        shapes = {d.local.s for d in ds.data if any(b.id == PI.id for _, b in d.local.factors)}
        for name, mutated in single_field_mutations(other, PI_TWIN, 4):
            flipped = False
            for s in shapes:
                verdict = theorem_check(ds, PI, mutated, PI_TWIN, 4, s)
                if not verdict.equal:
                    flipped = True
            assert flipped, f"mutation {name} was not detected"

    def test_satake_relabelling_is_invisible(self):
        ds = generate_dataset(7, CTX, r=4)
        other = substitute_cuspidal(ds, PI, PI_TWIN)
        relabelled = dataclasses.replace(
            other,
            data=tuple(
                dataclasses.replace(d, satake=f"renamed.{i}")
                for i, d in enumerate(other.data)
            ),
        )
        s = self.contributing_s(ds)
        assert theorem_check(ds, PI, relabelled, PI_TWIN, 4, s).equal

    def test_merged_lifts_with_equal_aggregate(self):
        # two lifts of weight 2 and 3 against a single lift of weight 5;
        # the unnamed parts are declared congruent by sharing a label
        a = dataset(
            datum("a1", 2, 3, m=2, wc="q"),
            datum("a2", 2, 3, m=3, wc="q"),
        )
        b = dataset(datum("b1", 2, 3, m=5, base=PI_TWIN, wc="q"))
        b = dataclasses.replace(b, context=dataclasses.replace(CTX, pi=PI_TWIN))
        verdict = theorem_check(a, PI, b, PI_TWIN, 4, 2)
        assert verdict.equal

    def test_substitution_matches_by_id(self):
        # a record based at a label with pi's id but another e_pi is a member
        # for pi, so substitution must replace its base as well
        variant = dataclasses.replace(PI, e_pi=2)
        ds = dataset(datum("a", 2, 2, base=variant))
        assert members(ds, PI, 3, 2) == list(ds.data)
        twin = substitute_cuspidal(ds, PI, PI_TWIN)
        assert [base for _, base in twin.data[0].local.factors] == [PI_TWIN]
        assert theorem_check(ds, PI, twin, PI_TWIN, 3, 2).equal

    def test_requires_shared_modl_class(self):
        ds = generate_dataset(1, CTX, r=4)
        with pytest.raises(InconsistentDataError):
            theorem_check(ds, PI, ds, RHO, 4, 1)

    def test_warning_when_not_maximal(self):
        ds = dataset(datum("a", 2, 3), datum("b", 2, 4))  # radii 4 and 5
        other = substitute_cuspidal(ds, PI, PI_TWIN)
        verdict = theorem_check(ds, PI, other, PI_TWIN, 4, 2)
        assert verdict.warnings and verdict.equal


class TestGenerator:
    def test_deterministic(self):
        assert generate_dataset(42, CTX, r=4) == generate_dataset(42, CTX, r=4)

    def test_degree_invariants(self):
        for seed in range(40):
            ds = generate_dataset(seed, CTX, r=5)
            for rec in ds.data:
                assert rec.local.degree == CTX.d

    def test_targets_prescribed_pairs(self):
        pairs = [(1, 4), (2, 3), (2, 3), (4, 1)]
        ds = generate_dataset(0, CTX, r=4, pairs=pairs, noise_data=0)
        got = expected_contributions(ds, PI, 4)
        assert got.shapes() == [(1, 4), (2, 3), (4, 1)]
        assert got.witnesses[(2, 3)] == ("dat1", "dat2")

    def test_unsatisfiable_pairs_raise(self):
        with pytest.raises(ValueError):
            generate_dataset(0, CTX, r=4, pairs=[(4, 4)])  # 16 cells > d = 12
        with pytest.raises(ValueError):
            generate_dataset(0, CTX, r=4, pairs=[(2, 2)])  # wrong radius


class TestOneRecordFilter:
    """Table building, the ground truth and the two-sided check select the
    same records for each shape."""

    @pytest.mark.parametrize("seed", range(6))
    def test_witnesses_and_sides_match_members(self, seed):
        torsion = TorsionProfile(t0=1, tau=(2, 3, 5)) if seed % 2 else None
        r = 3 + seed % 3
        ds = generate_dataset(seed, CTX, r=r, torsion=torsion, noise_data=2)
        expected = expected_contributions(ds, PI, r)
        for s in range(1, r + 1):
            shape = (s, r - s + 1)
            ids = tuple(datum.id for datum in members(ds, PI, r, s))
            assert expected.witnesses.get(shape, ()) == ids
            lhs = theorem_check(ds, PI, ds, PI, r, s).lhs
            assert lhs == expected.pairs.get(shape, GrothSum.zero())
