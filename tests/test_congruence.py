from __future__ import annotations

import copy
import dataclasses
import pickle
import random
import sys
from types import SimpleNamespace

import pytest

from spehline import (
    AutomorphicDatum,
    Dataset,
    DimensionProfileSymbol,
    GlobalContext,
    GrothSum,
    InconsistentDataError,
    InconsistentTableError,
    InertialCuspidal,
    LocalComponent,
    TorsionProfile,
    Wildcard,
    d_sequence,
    expected_contributions,
    generate_dataset,
    infer_B,
    members,
    modl_key,
    substitute_cuspidal,
    theorem_check,
)
from spehline.congruence import ContributionSet, DimensionTable, _spread, unit_symbol
from spehline.jsonio import dataset_from_dict, dataset_to_dict
from spehline.torsion import torsion_dimension

from support import PI, PI_TWIN, RHO, single_field_mutations, unbuilt
from test_golden_separation import INPUTS as GOLDEN_INPUTS

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

    def test_rejects_one_class_on_two_gl(self):
        # St_4(pi) x q1 x q3 and St_4(pi) x q2 x q2 at d = 8, with q1, q2 and
        # q3 of class b on GL_1, GL_2 and GL_3: both reduce to one key
        q1, q2, q3 = (InertialCuspidal(f"q{g}", g, modl_class="b") for g in (1, 2, 3))
        x = LocalComponent(1, ((4, PI), (1, q1), (1, q3)))
        y = LocalComponent(1, ((4, PI), (1, q2), (1, q2)))
        assert modl_key(x, PI, 4) == modl_key(y, PI, 4)
        records = tuple(
            AutomorphicDatum(did, local, 1, 1, 1, "h")
            for did, local in (("x", x), ("y", y))
        )
        with pytest.raises(InconsistentDataError, match="mod-l class 'b'"):
            Dataset(GlobalContext(d=8, pi=PI), records)

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
        cells = d_sequence(dataset(rec), PI, 4).values
        for n in (0, 1):
            w0 = cells[0, n]
            assert not w0.is_zero
            assert cells[1, n] == w0
            assert cells[2, n] == w0
            assert cells[3, n].is_zero

    def test_cells_cover_the_table_only(self):
        rec = datum("a", 3, 2, m=2, d_xi=3, inv_dim=1)  # r = 4
        cells = d_sequence(dataset(rec, torsion=TorsionProfile(t0=2, tau=(5, 7))), PI, 4).values
        assert set(cells) == {(k, n) for k in range(4) for n in (0, 1)}
        assert not cells[0, 0].is_zero and not cells[3, 1].is_zero

    def test_torsion_hits_positive_degrees_only(self):
        prof = TorsionProfile(t0=2, tau=(5, 7))
        cells = d_sequence(dataset(torsion=prof), PI, 3).values
        for n, tau in ((0, 5), (1, 7)):
            assert cells[0, n].is_zero
            expected = GrothSum.of(unit_symbol(n), tau)
            assert cells[1, n] == expected
            assert cells[2, n] == expected

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
        # the largest radius counts, wherever its record sits
        assert not d_sequence(dataset(datum("b", 2, 4), datum("a", 2, 3)), PI, 4).maximal

    def test_radius_beyond_every_factor_is_not_maximal(self):
        ds = dataset(datum("a", 2, 3))  # radius 4 only
        assert not d_sequence(ds, PI, 5).maximal
        twin = substitute_cuspidal(ds, PI, PI_TWIN)
        assert theorem_check(ds, PI, twin, PI_TWIN, 5, 2).warnings == [
            f"dataset {side}: r=5 is not the maximal radius (observed 4); check performed anyway"
            for side in "AB"
        ]
        # no pi-factor at all: every radius is maximal
        assert d_sequence(ds, RHO, 5).maximal


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


def per_cell_infer_B(table: DimensionTable, torsion: TorsionProfile) -> SimpleNamespace:
    """``infer_B`` as a matrix of unit residues, one per cell ``(k, n)``: its
    ``r`` and its ``pairs``, each weight spread onto the levels here."""
    r, levels = table.r, table.levels
    sums = (*table.sums, GrothSum.zero())
    units = {}  # the unit residue tau_table - tau_given of each cell
    # at r = 1 the walk still reaches k = 1, on the zero row d_{1,n}
    for k, row in enumerate(sums[: max(r, 2)]):
        negative = row.has_negative()
        for n in levels:
            units[k, n] = torsion_dimension(table.torsion, k, n) - torsion_dimension(torsion, k, n)
            if negative or units[k, n] < 0:
                raise InconsistentTableError(
                    f"negative residue at k={k}, n={n} after torsion subtraction"
                )
    pairs: dict[tuple[int, int], GrothSum] = {}
    for k in range(r, 0, -1):
        diff = sums[k - 1] - sums[k]
        negative = diff.has_negative()
        unit_diff = {n: units[k - 1, n] - units.get((k, n), 0) for n in levels}
        for n in levels:
            if negative or unit_diff[n] < 0:
                raise InconsistentTableError(
                    f"negative difference between degrees {k - 1} and {k} at n={n}"
                )
        # built through the merging constructor, not the trusted build of _spread
        weight = GrothSum(
            [(DimensionProfileSymbol(key, n), c) for n in levels for key, c in diff.items()]
            + [(unit_symbol(n), unit_diff[n]) for n in levels]
        )
        if not weight.is_zero:
            pairs[(k, r - k + 1)] = weight
    return SimpleNamespace(r=r, pairs=pairs)


def random_profile(rng: random.Random) -> TorsionProfile:
    if rng.random() < 0.25:
        return TorsionProfile()
    tau = tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 5)))
    return TorsionProfile(rng.randint(1, 3), tau)


def claimed_profile(rng: random.Random, table: TorsionProfile) -> TorsionProfile:
    """A torsion-free, short, overclaimed, underclaimed or equal claim on ``table``."""
    kind = rng.choice(("free", "short", "over", "under", "equal"))
    if kind == "free":
        return TorsionProfile()
    if kind == "equal":
        return table
    tau = list(table.tau) or [rng.randint(0, 3) for _ in range(5)]
    t0 = table.t0 or rng.randint(1, 3)
    if kind == "short":
        tau = tau[: rng.randint(0, len(tau) - 1)] if len(tau) > 1 else []
    elif kind in ("over", "under"):
        step = 1 if kind == "over" else -1
        tau = [max(0, x + step * rng.randint(0, 2)) for x in tau]
    return TorsionProfile(t0, tuple(tau))


def random_table(rng: random.Random) -> DimensionTable:
    """A table of 1-5 rows on 0-4 levels whose rows may be broken or negative."""
    r = rng.randint(1, 5)
    sums, above = [], GrothSum.zero()
    for _ in range(r):
        row = GrothSum((rng.choice("abc"), rng.randint(0, 3)) for _ in range(rng.randint(0, 3)))
        if rng.random() < 0.15:
            row = row - GrothSum.of(rng.choice("abc"), rng.randint(1, 2))
        above = above + row
        sums.append(above)
    sums.reverse()
    if r > 1 and rng.random() < 0.15:
        i = rng.randrange(r - 1)
        sums[i], sums[i + 1] = sums[i + 1], sums[i]
    levels = tuple(sorted(rng.sample(range(5), rng.randint(0, 4))))
    return DimensionTable(r, levels, tuple(sums), random_profile(rng), maximal=True)


def peel_outcome(peel, table: DimensionTable, torsion: TorsionProfile):
    """The pairs of a peel (``repr``, in order), or its exception class and message."""
    try:
        got = peel(table, torsion)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return got.r, [(shape, repr(weight)) for shape, weight in got.pairs.items()]


class TestInferBPerCell:
    """``infer_B`` keeps one unit residue per level; it must peel, and fail,
    exactly as the matrix of residues per cell ``(k, n)`` does."""

    def test_matches_per_cell_residues(self):
        rng = random.Random(2014)
        kinds = set()
        for _ in range(2000):
            table = random_table(rng)
            torsion = claimed_profile(rng, table.torsion)
            want = peel_outcome(per_cell_infer_B, table, torsion)
            assert peel_outcome(infer_B, table, torsion) == want, (table, torsion)
            kinds.add(want[0] if isinstance(want[0], str) else "pairs" if want[1] else "none")
        assert kinds == {"pairs", "none", "InconsistentTableError", "ValueError"}


class TestSpread:
    """``_spread`` builds its dict directly; it must equal the sum merged from
    the explicit pairs, term for term and in ``repr``."""

    def test_matches_merged_pairs(self):
        rng = random.Random(17)
        for _ in range(500):
            weight = GrothSum(
                (rng.choice(("a", "b", "c", "1*x", "0")), rng.randint(-3, 3))
                for _ in range(rng.randint(0, 5))
            )
            levels = rng.choice(((0,), (3,), (0, 1), (0, 1, 2), (1, 4, 7)))
            units = rng.choice((None, {}, {n: rng.randint(-2, 2) for n in levels}))
            got = _spread(weight, levels, units)
            want = GrothSum(
                [(DimensionProfileSymbol(key, n), c) for n in levels for key, c in weight.items()]
                + [(unit_symbol(n), c) for n, c in (units or {}).items()]
            )
            assert got == want
            assert all(got.coefficient(label) != 0 for label in got.labels())
            assert repr(got) == repr(want)
            assert all(type(label) is DimensionProfileSymbol for label in got.labels())

    def test_every_read_symbol_is_exactly_the_symbol_type(self):
        # the spread builds symbols through tuple.__new__: the class must be
        # the symbol's own, on every path that hands a level-indexed sum out
        def symbols(*sums):
            return [label for total in sums for label in total.labels()]

        for seed in range(6):
            torsion = TorsionProfile(t0=1, tau=(1, 2, 3)) if seed % 2 else TorsionProfile()
            ds = generate_dataset(seed, CTX, r=4, torsion=torsion, levels=(0, 2))
            other = substitute_cuspidal(ds, PI, PI_TWIN)
            table = d_sequence(ds, PI, 4)
            verdicts = [
                theorem_check(ds, PI, side, PI_TWIN, 4, s)
                for side in (other, dataclasses.replace(other, data=other.data[1:]))
                for s in range(1, 5)
            ]
            found = symbols(
                *table.values.values(),
                *infer_B(table, ds.torsion).pairs.values(),
                *expected_contributions(ds, PI, 4).pairs.values(),
                *(side for v in verdicts for side in (v.lhs, v.rhs)),
            ) + [symbol for v in verdicts for symbol, _, _ in v.diffs]
            assert found and any(not v.equal for v in verdicts)
            assert all(type(symbol) is DimensionProfileSymbol for symbol in found)
        assert type(unit_symbol(3)) is DimensionProfileSymbol


def merged_spread(weight: GrothSum, levels: tuple[int, ...]) -> GrothSum:
    """A level-free weight on each level's symbols, through the merging constructor."""
    return GrothSum(
        [(DimensionProfileSymbol(key, n), c) for n in levels for key, c in weight.items()]
    )


class TestPairsView:
    """A contribution set keeps level-free ``weights``; ``pairs`` spreads them
    onto ``levels`` when read, with the shapes, order and ``repr`` of a spread
    merged term by term.  ``TestInferBPerCell`` checks the pairs themselves."""

    @staticmethod
    def check_view(found: ContributionSet) -> None:
        want = {shape: merged_spread(w, found.levels) for shape, w in found.weights.items()}
        got = found.pairs
        assert list(got) == list(want)
        assert [repr(weight) for weight in got.values()] == [repr(w) for w in want.values()]

    def test_golden_inputs(self):
        for _, seed, r, levels, tau in GOLDEN_INPUTS:
            torsion = TorsionProfile(t0=2, tau=tau) if tau is not None else None
            ds = generate_dataset(seed, CTX, r=r, levels=levels, torsion=torsion, noise_data=2)
            table = d_sequence(ds, PI, r)
            for found in (infer_B(table, ds.torsion), expected_contributions(ds, PI, r)):
                assert found.weights and found.levels == levels
                self.check_view(found)

    def test_random_tables(self):
        rng = random.Random(34)
        peeled = empty_towers = 0
        for _ in range(400):
            table = random_table(rng)
            try:
                found = infer_B(table, table.torsion)
            except ValueError:
                continue
            peeled += 1
            assert found.levels == table.levels
            self.check_view(found)
            if not table.levels and any(table.sums):
                # a nonzero peel on no level gives no pair, as its spread is 0
                empty_towers += 1
                assert found.weights == {} and found.pairs == {}
        assert peeled > 100 and empty_towers > 5

    def test_equality_reads_radius_levels_and_weights(self):
        weights = {(2, 3): GrothSum.of("a", 2)}
        found = ContributionSet(r=4, weights=weights, levels=(0, 1))
        assert found == ContributionSet(
            r=4, weights=dict(weights), levels=(0, 1), witnesses={(2, 3): ("x",)}
        )
        assert found != ContributionSet(r=4, weights=weights, levels=(0, 2))
        assert found != ContributionSet(r=4, weights={(2, 3): GrothSum.of("a", 3)}, levels=(0, 1))
        assert ContributionSet(r=4, weights={}, levels=(0,)) != ContributionSet(
            r=5, weights={}, levels=(0,)
        )
        # two empty sets on different towers differ, though neither has a pair
        one, two = (ContributionSet(r=4, weights={}, levels=levels) for levels in ((0,), (0, 1)))
        assert one.pairs == two.pairs == {}
        assert one != two
        assert one == ContributionSet(r=4, weights={}, levels=(0,))


class TestSpreadOnRead:
    """Counted under ``sys.setprofile``: ``infer_B`` and
    ``expected_contributions`` make no ``_spread`` call, and each read of
    ``pairs`` makes exactly one per pair."""

    TAU = (1, 0, 2, 5, 0, 3, 1, 4, 2, 0, 6, 2)

    @staticmethod
    def spread_calls(build):
        code, calls = _spread.__code__, []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is code:
                calls.append(frame.f_code)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            out = build()
        finally:
            sys.setprofile(previous)
        return out, len(calls)

    @pytest.mark.parametrize("torsion", [False, True])
    def test_spread_only_on_read(self, torsion):
        profile = TorsionProfile(t0=2, tau=self.TAU) if torsion else None
        ds = generate_dataset(8, CTX, r=5, levels=tuple(range(12)), torsion=profile, noise_data=2)
        table = d_sequence(ds, PI, 5)
        builds = (lambda: infer_B(table, ds.torsion), lambda: expected_contributions(ds, PI, 5))
        for build in builds:
            found, calls = self.spread_calls(build)
            assert calls == 0 and len(found.weights) > 1
            for _ in range(2):
                pairs, calls = self.spread_calls(lambda: found.pairs)
                assert calls == len(pairs) == len(found.weights)


class TestDimensionProfileSymbol:
    """The symbol's contract, whatever represents it."""

    def test_contract(self):
        symbol = DimensionProfileSymbol("k", 3)
        assert str(symbol) == "dim<k @n=3>"
        assert repr(symbol) == "DimensionProfileSymbol(key='k', level=3)"
        assert (symbol.key, symbol.level) == ("k", 3)
        with pytest.raises(AttributeError):
            symbol.key = "j"
        with pytest.raises(AttributeError):
            symbol.level = 4
        for copied in (pickle.loads(pickle.dumps(symbol)), copy.deepcopy(symbol)):
            assert copied == symbol and hash(copied) == hash(symbol)
            assert type(copied) is DimensionProfileSymbol
        assert unit_symbol(2) == DimensionProfileSymbol("1", 2)
        # documented: a symbol is the tuple (key, level)
        assert symbol == ("k", 3) and hash(symbol) == hash(("k", 3))


class TestInferBAtRadiusOne:
    """At ``r = 1`` the claimed torsion is checked at ``k = 1`` as at any radius."""

    def test_one_record(self):
        ds = dataset(datum("a", 1, 1), torsion=TorsionProfile(t0=1, tau=(5, 5)))
        table = d_sequence(ds, PI, 1)
        assert table.r == 1
        assert infer_B(table, ds.torsion) == expected_contributions(ds, PI, 1)
        assert infer_B(table, ds.torsion).shapes() == [(1, 1)]
        # a claim without tau for the tower's levels
        with pytest.raises(ValueError, match="no torsion dimension recorded for level 0"):
            infer_B(table, TorsionProfile(t0=1, tau=()))
        # too little torsion claimed: the positive residue fails the peel at k = 1
        with pytest.raises(InconsistentTableError, match="degrees 0 and 1 at n=0"):
            infer_B(table, TorsionProfile())
        # too much claimed: the walk rejects the negative residue at k = 1
        with pytest.raises(InconsistentTableError, match="residue at k=1, n=1"):
            infer_B(table, TorsionProfile(t0=1, tau=(5, 6)))


class TestTheoremCheck:
    def contributing_s(self, ds) -> int:
        return ds.data[0].local.s

    def test_substituted_pair_is_equal(self):
        ds = generate_dataset(3, CTX, r=4)
        other = substitute_cuspidal(ds, PI, PI_TWIN)
        s = self.contributing_s(ds)
        verdict = theorem_check(ds, PI, other, PI_TWIN, 4, s)
        assert verdict.equal and not verdict.diffs

    def test_substituting_another_label_keeps_the_anchor(self):
        ds = generate_dataset(3, CTX, r=4, noise_data=3)
        noise = next(b for x in ds.data for _, b in x.local.factors if b.id != PI.id)
        moved = InertialCuspidal("moved", noise.g, modl_class=noise.modl_class)
        out = substitute_cuspidal(ds, noise, moved)
        assert out.context == ds.context and out.context.pi is PI
        assert moved in out.labels and noise not in out.labels

    def test_torsion_is_outside_the_comparison(self):
        # a twin that differs in its torsion profile as well reads as the one
        # that does not, and equal, in every cell s = 1..r
        ds = generate_dataset(7, CTX, r=4, torsion=TorsionProfile(t0=2, tau=(3, 3, 3)))
        twin = substitute_cuspidal(ds, PI, PI_TWIN)
        other = dataclasses.replace(twin, torsion=TorsionProfile(t0=2, tau=(5, 5, 5)))
        verdicts = [theorem_check(ds, PI, other, PI_TWIN, 4, s) for s in range(1, 5)]
        assert verdicts == [theorem_check(ds, PI, twin, PI_TWIN, 4, s) for s in range(1, 5)]
        assert all(verdict.equal for verdict in verdicts)
        assert any(not verdict.lhs.is_zero for verdict in verdicts)

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
        # a label with pi's id but another e_pi is pi: a dataset holding both
        # is rejected, and substitution replaces the variant as it replaces pi
        variant = dataclasses.replace(PI, e_pi=2)
        with pytest.raises(InconsistentDataError):
            dataset(datum("a", 2, 2, base=variant))
        local = datum("a", 2, 2, base=variant).local
        assert [base for _, base in local.substituted(PI, PI_TWIN).factors] == [PI_TWIN]

    def test_rejects_datasets_disagreeing_on_an_id(self):
        ds = generate_dataset(7, CTX, r=4)
        twin = substitute_cuspidal(ds, PI, PI_TWIN)
        shared = next(b for d in ds.data for _, b in d.local.factors if b != PI)
        moved = dataclasses.replace(shared, modl_class="elsewhere")
        twin = substitute_cuspidal(twin, shared, moved)
        with pytest.raises(InconsistentDataError, match="names two labels"):
            theorem_check(ds, PI, twin, PI_TWIN, 4, 1)

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

    def test_witnesses_in_record_order(self):
        # equality ignores witnesses, so their order is pinned here
        shapes = [(2, 3), (3, 2), (2, 3), (2, 3), (3, 2)] * 8
        recs = [datum(f"r{i:02d}", s, t) for i, (s, t) in enumerate(shapes)]
        recs.insert(3, datum("other", 2, 2))  # radius 3: no witness at 4
        got = expected_contributions(dataset(*recs), PI, 4)
        assert list(got.witnesses) == list(got.pairs) == [(2, 3), (3, 2)]
        for shape in got.witnesses:
            ids = tuple(f"r{i:02d}" for i, sh in enumerate(shapes) if sh == shape)
            assert got.witnesses[shape] == ids

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


def scan(ds: Dataset, pi: InertialCuspidal, r: int):
    """Every record with a ``pi``-factor at radius ``r`` and the largest
    ``pi`` radius, by a scan of every factor of every record."""
    found, observed = [], None
    for rec in ds.data:
        radii = [rec.local.s + t - 1 for t, base in rec.local.factors if base == pi]
        if radii:
            observed = max(observed or 0, *radii)
            if r in radii:
                found.append(rec)
    return found, observed


class TestDatasetIndex:
    """``members``, maximality and the non-maximal warnings read the index
    built at construction, or by the file reader; each must agree with a
    scan of the records, and the table's maximality with the warnings."""

    OUTSIDE = InertialCuspidal("absent", 1, modl_class="absent~")

    def assert_matches_scan(self, ds: Dataset) -> None:
        top = max((rec.local.s + t - 1 for rec in ds.data for t, _ in rec.local.factors), default=1)
        read = dataset_from_dict(dataset_to_dict(ds))
        assert unbuilt(read)
        for form in (ds, read):
            for pi in (*ds.labels, self.OUTSIDE):
                for r in range(1, top + 2):
                    found, observed = scan(ds, pi, r)
                    maximal = d_sequence(form, pi, r).maximal
                    assert maximal == (observed is None or observed == r)
                    for s in range(1, r + 1):
                        assert members(form, pi, r, s) == [rec for rec in found if rec.local.s == s]
                        warnings = theorem_check(form, pi, form, pi, r, s).warnings
                        if maximal:  # the one rule: the table and the warnings agree
                            assert warnings == []
                        else:
                            assert len(warnings) == 2 and f"(observed {observed})" in warnings[0]

    @pytest.mark.parametrize("seed", range(4))
    def test_generated_with_noise(self, seed):
        r = 3 + seed % 3
        ds = generate_dataset(seed, CTX, r=r, noise_data=4)
        extra = (
            datum("twice-at-3", 2, 2, extra=((2, PI),)),  # two pi-factors, one radius
            datum("at-2-and-4", 2, 1, extra=((3, PI),)),  # two pi-factors, two radii
        )
        ds = dataclasses.replace(ds, data=ds.data[:2] + extra + ds.data[2:])
        self.assert_matches_scan(ds)
        assert members(ds, PI, 3, 2).count(extra[0]) == 1
        assert extra[1] in members(ds, PI, 2, 2) and extra[1] in members(ds, PI, 4, 2)

    def test_rebuilt_datasets_are_reindexed(self):
        ds = dataset(datum("a", 2, 3), datum("b", 3, 2, extra=((1, RHO),)), datum("c", 1, 2))
        twin = substitute_cuspidal(ds, PI, PI_TWIN)
        assert members(twin, PI, 4, 2) == []
        assert [rec.id for rec in members(twin, PI_TWIN, 4, 2)] == ["a"]
        assert [rec.id for rec in members(twin, RHO, 3, 3)] == ["b"]
        self.assert_matches_scan(twin)
        taller = dataclasses.replace(ds, levels=(0, 1, 2, 3))
        assert members(taller, PI, 4, 3) == members(ds, PI, 4, 3) == [ds.data[1]]
        self.assert_matches_scan(taller)
        assert dataclasses.replace(ds, data=ds.data[1:]).labels == (PI, RHO)
