"""The ledger expansion at benchmark sizes: pinned digests and growth guards.

``fixtures/expansion_digests.json`` holds sha256 digests of the canonical
JSON of ``expand_resolution`` (labels in order, with coefficients) and of
the ``resolution --json``/``filtration --json`` CLI listings, for
``n = s_g - t`` in {6, 12, 18} and ``g`` in {1, 2, 3}, plus one
infinitesimal that carries segments, a shifted wildcard and a Tate marker.
The digests were written by the expansion that built every graded part
from scratch, so they pin the outputs of any faster construction.

Each size also pins the outputs that print segments in their stored
order: the text listings of ``resolution`` and ``filtration``, every
adjunction label with its stripped core, and every torsion transfer
label of the profile with ``t0 = s_g``.  These were written by the
multisegments that sorted every segment tuple they were given.  The
Speh towers and the one-dict sum are checked against the ladders and
the merging constructor they replace, and the adjunction labels against
the two-factor construction the tower replaced.

The same digests pin the smallest sizes, ``n`` in {0, 1} for each ``g``,
where the resolution's Speh tower is ``Speh_0`` alone or one cell; these
were written by the ledger that built each Speh factor from its own
cell table.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from spehline import (
    GlobalContext,
    GrothSum,
    HalfInt,
    InertialCuspidal,
    InvariantViolation,
    LadderShape,
    LedgerTerm,
    Multisegment,
    Segment,
    TorsionProfile,
    Wildcard,
    ZERO,
    adjunction_labels,
    expand_resolution,
    filtration_graded,
    generic_infinitesimal,
    normalized_product,
    resolution_terms,
    speh_tower,
    strip_adjunction_core,
    torsion_transfer_label,
)
from spehline import ledger
from spehline.cli import main
from spehline.jsonio import canonical_dumps, ledger_term_to_dict, multisegment_to_dict
from spehline.ledger import INTERMEDIATE, SHRIEK

FIXTURES = Path(__file__).parent / "fixtures"
SIZES = [(n, g) for n in (6, 12, 18) for g in (1, 2, 3)]
SMALL_SIZES = [(n, g) for n in (0, 1) for g in (1, 2, 3)]


def _case(n: int, g: int) -> dict:
    """A deterministic job of size ``n``; ``d`` leaves a remainder mod ``g`` when it can."""
    t = 1 + (n // 6 + g) % 4
    return {
        "n": n,
        "g": g,
        "t": t,
        "d": g * (t + n) + (n // 6) % g,
        "e_pi": 1 + g % 2,
        "pi_id": f"p{g}",
    }


def _small_case(n: int, g: int) -> dict:
    """A job of size ``n`` in {0, 1} at ``t = 2``; ``d`` leaves a remainder for ``g = 3``."""
    return {"n": n, "g": g, "t": 2, "d": g * (2 + n) + g // 3, "e_pi": 1 + g % 2, "pi_id": f"p{g}"}


def _context(case: dict) -> GlobalContext:
    pi = InertialCuspidal(case["pi_id"], g=case["g"], e_pi=case["e_pi"])
    return GlobalContext(d=case["d"], pi=pi)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sum_digest(total) -> str:
    return _sha(
        canonical_dumps(
            [[ledger_term_to_dict(term), total.coefficient(term)] for term in total.labels()]
        )
    )


def _terms_digest(terms) -> str:
    return _sha(canonical_dumps([ledger_term_to_dict(term) for term in terms]))


def _cli_digest(command: str, case: dict, json_mode: bool = True) -> str:
    out = io.StringIO()
    argv = [
        command, "--d", str(case["d"]), "--g", str(case["g"]),
        "--t", str(case["t"]), "--e-pi", str(case["e_pi"]), "--pi-id", case["pi_id"],
    ]
    with contextlib.redirect_stdout(out):
        assert main(argv + ["--json"] if json_mode else argv) == 0
    text = out.getvalue()
    count = case["n"] + (2 if command == "resolution" else 1)
    if json_mode:
        assert len(json.loads(text)["terms"]) == count
    else:
        assert text.count("\n") == count
    return _sha(text)


def _multisegment_shown(m: Multisegment) -> list:
    return [str(m), multisegment_to_dict(m)]


def _adjunction_digest(ctx: GlobalContext, t: int) -> str:
    """Every arrow of the resolution at ``t``: its ends, label and stripped core."""
    arrows = []
    for source, target, induced in adjunction_labels(ctx, t, generic_infinitesimal(ctx, t)):
        arrows.append(
            [
                ledger_term_to_dict(source),
                ledger_term_to_dict(target),
                _multisegment_shown(induced),
                _multisegment_shown(strip_adjunction_core(induced, t)),
            ]
        )
    return _sha(canonical_dumps(arrows))


def _torsion_digest(ctx: GlobalContext) -> str:
    """The transfer label of every ``t`` in ``1..t0`` for ``t0 = s_g``."""
    profile = TorsionProfile(t0=ctx.s_g)
    labels = []
    for t in range(1, ctx.s_g + 1):
        label = torsion_transfer_label(ctx, profile, t, generic_infinitesimal(ctx, t))
        labels.append([str(label), ledger_term_to_dict(label)])
    return _sha(canonical_dumps(labels))


def size_digests(case: dict) -> dict:
    ctx = _context(case)
    inf = generic_infinitesimal(ctx, case["t"])
    return {
        "expansion": _sum_digest(expand_resolution(ctx, case["t"], inf)),
        "resolution_json": _cli_digest("resolution", case),
        "filtration_json": _cli_digest("filtration", case),
        "resolution_text": _cli_digest("resolution", case, json_mode=False),
        "filtration_text": _cli_digest("filtration", case, json_mode=False),
        "adjunction": _adjunction_digest(ctx, case["t"]),
        "torsion": _torsion_digest(ctx),
    }


def _marked() -> tuple[GlobalContext, int, Multisegment]:
    ctx = GlobalContext(d=35, pi=InertialCuspidal("q", g=2, e_pi=2))
    t, pi = 5, ctx.pi
    segments = (Segment(pi, HalfInt(3), 2), Segment(pi, HalfInt(-1), 1))
    # degree 3*2 in segments, the rest of d - t*g in a shifted wildcard
    wildcard = Wildcard("w", ctx.d - t * ctx.g - 6, HalfInt(1))
    return ctx, t, Multisegment(segments, tate=HalfInt(1), wildcard=wildcard)


def marked_digests() -> dict:
    ctx, t, inf = _marked()
    return {
        "expansion": _sum_digest(expand_resolution(ctx, t, inf)),
        "shriek": _sum_digest(GrothSum((term, 1) for term in filtration_graded(ctx, t, inf))),
        "resolution": _terms_digest(resolution_terms(ctx, t, inf)),
        "filtration": _terms_digest(filtration_graded(ctx, t, inf)),
    }


def _fixture() -> dict:
    with open(FIXTURES / "expansion_digests.json", encoding="utf-8") as fh:
        return json.load(fh)


class TestPinnedDigests:
    @pytest.mark.parametrize("n,g", SIZES)
    def test_size(self, n, g):
        case = _case(n, g)
        pinned = next(c for c in _fixture()["sizes"] if (c["n"], c["g"]) == (n, g))
        assert {key: pinned[key] for key in case} == case
        digests = size_digests(case)
        assert digests == {key: pinned[key] for key in digests}

    @pytest.mark.parametrize("n,g", SMALL_SIZES)
    def test_small_size(self, n, g):
        case = _small_case(n, g)
        pinned = next(c for c in _fixture()["small"] if (c["n"], c["g"]) == (n, g))
        assert {key: pinned[key] for key in case} == case
        digests = size_digests(case)
        assert digests == {key: pinned[key] for key in digests}

    def test_marked_infinitesimal(self):
        assert marked_digests() == _fixture()["marked"]


def _is_steinberg(m: Multisegment, pi: InertialCuspidal) -> bool:
    """``m`` is ``St_delta(pi)``: one segment of ``pi`` centred at 0, no markers."""
    if len(m.segments) != 1 or m.wildcard is not None or m.order_tag is not None:
        return False
    (seg,) = m.segments
    return seg.base == pi and seg.start.twice == 1 - seg.length and m.tate.is_zero


@contextlib.contextmanager
def _counting_builds(monkeypatch):
    """Collect every multisegment built inside the block.

    A multisegment is built either through ``Multisegment(...)``, which
    runs ``__post_init__``, or through the trusted ``Multisegment._sorted``,
    which does not; the count takes both.
    """
    built: list[Multisegment] = []
    post_init = Multisegment.__post_init__
    trusted = Multisegment._sorted

    def counted(self):
        post_init(self)
        built.append(self)

    def counted_trusted(cls, *args):
        built.append(trusted(*args))
        return built[-1]

    monkeypatch.setattr(Multisegment, "__post_init__", counted)
    monkeypatch.setattr(Multisegment, "_sorted", classmethod(counted_trusted))
    try:
        yield built
    finally:
        monkeypatch.undo()


class TestGrowthGuard:
    """One expansion builds each Steinberg factor once, and few multisegments;
    every arrow of a resolution is built in a number of builds linear in ``n``."""

    @pytest.mark.parametrize("n", [6, 12, 18])
    def test_expansion_builds(self, n, monkeypatch):
        case = _case(n, 2)
        ctx = _context(case)
        inf = generic_infinitesimal(ctx, case["t"])
        with _counting_builds(monkeypatch) as built:
            total = expand_resolution(ctx, case["t"], inf)
        assert len(total) == (n + 1) * (n + 2) // 2
        assert sum(_is_steinberg(m, ctx.pi) for m in built) == n
        assert len(built) <= (n + 1) * (n + 2) // 2 + 3 * n

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_adjunction_labels_build_linearly(self, g, monkeypatch):
        # rebuilding the resolution for each arrow took 5,224 builds at g = 2, n = 38
        pi = InertialCuspidal(f"p{g}", g=g, e_pi=1 + g % 2)
        for n in range(41):
            ctx = GlobalContext(d=g * (2 + n) + g // 3, pi=pi)
            inf = generic_infinitesimal(ctx, 2)
            with _counting_builds(monkeypatch) as built:
                arrows = adjunction_labels(ctx, 2, inf)
            assert len(arrows) == n
            assert len(built) <= 8 * (n + 1)


class TestSpehTable:
    """Every ``Speh_delta`` of a ``speh_tower`` is a slice of one list of
    shared cells, each built once."""

    CENTERS = [HalfInt(c) for c in (-7, -2, 0, 1, 4, 11)]
    BASES = [InertialCuspidal("p", 1), InertialCuspidal("q", 3, e_pi=2)]

    @pytest.mark.parametrize("pi", BASES)
    def test_slices_are_the_ladders(self, pi):
        for center in self.CENTERS:
            for n in range(21):
                tower = speh_tower(pi, n, center)
                assert len(tower) == n + 1
                cells = {id(seg) for speh in tower for seg in speh.segments}
                assert len(cells) == max(2 * n - 1, 0)
                assert tower[0] == Multisegment()
                for delta in range(1, n + 1):
                    got = tower[delta]
                    want = LadderShape(pi, delta, 1, center).to_multisegment()
                    assert got == want and got.__dict__ == want.__dict__

    def test_speh_0_is_shared(self):
        # the growth guard's bound counts no Speh_0 build
        towers = [speh_tower(pi, n, c) for pi in self.BASES for n in (0, 3) for c in self.CENTERS]
        assert len({id(tower[0]) for tower in towers}) == 1

    @pytest.mark.parametrize("g", [1, 3])
    def test_adjunction_core_is_the_tower_top(self, g):
        # Speh_{delta-1}(pi{-1/2}) x pi{(delta-1)/2} has the rows of Speh_delta(pi),
        # at every centre
        pi = InertialCuspidal(f"p{g}", g)
        for center in self.CENTERS + [ZERO]:
            for delta in range(1, 21):
                lower = (
                    LadderShape(pi, delta - 1, 1, center + HalfInt(-1)).to_multisegment()
                    if delta > 1
                    else Multisegment()
                )
                top = LadderShape(pi, 1, 1, center + HalfInt(delta - 1)).to_multisegment()
                core = normalized_product(lower, top)
                got = speh_tower(pi, delta, center)[delta]
                assert got == core and got.__dict__ == core.__dict__

    @pytest.mark.parametrize("n", [1, 6, 12, 18])
    def test_resolution_builds_each_speh_cell_once(self, n, monkeypatch):
        # n(n+1)/2 cells when every Speh_delta was built afresh
        case = _case(n, 2)
        ctx = _context(case)
        inf = generic_infinitesimal(ctx, case["t"])
        built: list[Segment] = []
        towers: list[tuple] = []
        post_init = Segment.__post_init__

        def counted(self):
            post_init(self)
            built.append(self)

        def tower(*args):
            towers.append(args)
            return speh_tower(*args)

        monkeypatch.setattr(Segment, "__post_init__", counted)
        monkeypatch.setattr(ledger, "speh_tower", tower)
        terms = resolution_terms(ctx, case["t"], inf)
        monkeypatch.undo()
        assert len(terms) == n + 2
        assert towers == [(ctx.pi, n, HalfInt(case["t"]))]
        assert len(built) <= 2 * n - 1


def _two_factor_label(ctx: GlobalContext, t: int, delta: int, inf: Multisegment) -> Multisegment:
    """``inf{(1-delta)/2} x (Speh_{delta-1}(pi{-1/2}) x pi{(delta-1)/2}){t/2}``,
    Xi-power ``delta/2``: the adjunction label built factor by factor."""
    lower = (
        LadderShape(ctx.pi, delta - 1, 1, HalfInt(-1)).to_multisegment()
        if delta > 1
        else Multisegment()
    )
    core = normalized_product(lower, Multisegment((Segment(ctx.pi, HalfInt(delta - 1), 1),)))
    return normalized_product(
        inf.shifted(HalfInt(1 - delta)), core.shifted(HalfInt(t))
    ).with_tate(HalfInt(delta))


class TestAdjunctionLabels:
    """Every adjunction label is the two-factor label of the paper's formula."""

    def test_every_arrow_is_the_two_factor_label(self):
        for ctx, t, inf in _small_jobs():
            arrows = adjunction_labels(ctx, t, inf)
            assert len(arrows) == ctx.s_g - t
            for delta, (_, _, induced) in enumerate(arrows, start=1):
                want = _two_factor_label(ctx, t, delta, inf)
                assert induced == want and induced.__dict__ == want.__dict__
                assert _multisegment_shown(induced) == _multisegment_shown(want)
                assert strip_adjunction_core(induced, t) == strip_adjunction_core(want, t)


class TestNoSortingBuild:
    """The resolution, the filtration, the expansion and the adjunction and
    torsion labels build every multisegment through ``Multisegment._sorted``:
    none runs the sorting ``Multisegment.__post_init__``."""

    def test_post_init_never_runs(self, monkeypatch):
        jobs = list(_small_jobs())
        for case in (_case(n, g) for n, g in SIZES):
            ctx = _context(case)
            jobs.append((ctx, case["t"], generic_infinitesimal(ctx, case["t"])))
        # sorting builds, by the function that ran them
        calls: dict[str, int] = {}
        post_init = Multisegment.__post_init__

        def counted(self):
            post_init(self)
            calls[name] = calls.get(name, 0) + 1

        monkeypatch.setattr(Multisegment, "__post_init__", counted)
        for ctx, t, inf in jobs:
            profile = TorsionProfile(t0=ctx.s_g)
            runs = {
                "resolution_terms": lambda: resolution_terms(ctx, t, inf),
                "filtration_graded": lambda: filtration_graded(ctx, t, inf),
                "expand_resolution": lambda: expand_resolution(ctx, t, inf),
                "torsion_transfer_label": lambda: torsion_transfer_label(ctx, profile, t, inf),
                "adjunction_labels": lambda: adjunction_labels(ctx, t, inf),
            }
            for name, run in runs.items():
                run()
        monkeypatch.undo()
        assert calls == {}


def _merged_expansion(ctx: GlobalContext, t: int, inf: Multisegment) -> GrothSum:
    """The expansion's terms, summed through the merging constructor."""
    steinbergs: list[Multisegment] = []
    return GrothSum(
        (
            LedgerTerm(INTERMEDIATE, term.stratum + delta, part, term.xi_power, HalfInt(delta)),
            term.sign,
        )
        for term in resolution_terms(ctx, t, inf)
        if term.kind == SHRIEK
        for delta, part in ledger._graded(ctx, term.stratum, term.infinitesimal, steinbergs)
    )


def _small_jobs():
    """Every ``g`` in 1..3, ``s_g <= 12`` and ``t``, generic; then the marked job."""
    for g in (1, 2, 3):
        pi = InertialCuspidal(f"p{g}", g=g, e_pi=1 + g % 2)
        for d in range(g, 13 * g):
            ctx = GlobalContext(d=d, pi=pi)
            for t in range(1, ctx.s_g + 1):
                yield ctx, t, generic_infinitesimal(ctx, t)
    yield _marked()


class TestOneDictExpansion:
    """``expand_resolution`` builds its sum as one dict, taken as it is."""

    def test_equals_the_merged_sum_in_order(self):
        for ctx, t, inf in _small_jobs():
            total, merged = expand_resolution(ctx, t, inf), _merged_expansion(ctx, t, inf)
            n = ctx.s_g - t
            assert len(total) == (n + 1) * (n + 2) // 2
            assert total == merged
            assert list(total.labels()) == list(merged.labels())
            assert [total.coefficient(x) for x in total.labels()] == [
                merged.coefficient(x) for x in merged.labels()
            ]

    def test_a_repeated_term_trips_the_length_guard(self, monkeypatch):
        graded = ledger._graded

        def repeating(*args):
            # the last graded part of every shriek but the top one repeats its first
            parts = list(graded(*args))
            return parts[:-1] + parts[:1] if len(parts) > 1 else parts

        ctx = GlobalContext(d=12, pi=InertialCuspidal("p", 2))
        monkeypatch.setattr(ledger, "_graded", repeating)
        with pytest.raises(InvariantViolation, match="distinct terms"):
            expand_resolution(ctx, 2, generic_infinitesimal(ctx, 2))
