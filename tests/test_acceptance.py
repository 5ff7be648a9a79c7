"""Acceptance suite: one test per top-level criterion, at its stated bound.

Every check here is exact.  Each test prints a single pass/fail line so
the suite can be read as a checklist:

    pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from pathlib import Path

from spehline import (
    DiagramPoint,
    GlobalContext,
    InertialCuspidal,
    LocalComponent,
    TorsionProfile,
    adjunction_labels,
    constituent,
    d_sequence,
    diagram,
    expected_contributions,
    filtration_graded,
    generate_dataset,
    generic_infinitesimal,
    i_of_t,
    infer_B,
    jacquet_cuts,
    make_speh,
    make_steinberg,
    resolution_terms,
    strip_adjunction_core,
    substitute_cuspidal,
    superpose,
    theorem_check,
    trace_back,
)
from spehline.jsonio import ledger_term_to_dict

from support import (
    PI,
    PI_TWIN,
    enumerate_support,
    hull_vertices,
    single_field_mutations,
)

FIXTURES = Path(__file__).parent / "fixtures"


@contextlib.contextmanager
def checked(name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def closed_form(s: int, t: int) -> int:
    if t >= s:
        return s * s
    return s * s - (s - t) * (s - t + 1) // 2


def test_point_diagrams_and_triangle():
    with checked("single-row and single-column diagrams"):
        for t in range(1, 13):
            assert {(p.r, p.i) for p in diagram(1, t)} == {(t, 0)}
        for s in range(1, 13):
            pts = {(p.r, p.i) for p in diagram(s, 1)}
            assert len(pts) == s * (s + 1) // 2
            assert pts == enumerate_support(s, 1)
            expected_vertices = {(s, 0), (1, s - 1), (1, 1 - s)}
            assert hull_vertices(pts) == expected_vertices


def test_polygon_extreme_points():
    with checked("polygon extreme points for all s,t <= 10"):
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


def test_triple_product_constituents():
    with checked("triple-product constituents and origins at (4,0)"):
        component = LocalComponent(s=4, factors=((1, PI), (3, PI), (5, PI)))
        p = DiagramPoint(4, 0)
        assert superpose(component)[p] == (1, 2, 3)

        bullets = {
            3: (
                "Speh_4(pi) x Speh_4(St_3(pi)) x R_pi(4,5)(4,0)",
                DiagramPoint(8, 0),
            ),
            2: (
                "Speh_4(pi) x R_pi(4,3)(4,0) x Speh_4(St_5(pi))",
                DiagramPoint(6, 0),
            ),
            1: (
                "R_pi(4,1)(4,0) x Speh_4(St_3(pi)) x Speh_4(St_5(pi))",
                None,
            ),
        }
        for k, (label, origin) in bullets.items():
            assert constituent(component, p, k).product_str() == label
            assert trace_back(component, p, k) == origin


def test_cardinality_law():
    with checked("cardinality: closed form vs enumeration for s,t <= 12"):
        for s in range(1, 13):
            for t in range(1, 13):
                enumerated = enumerate_support(s, t)
                assert len(diagram(s, t)) == closed_form(s, t)
                assert {(p.r, p.i) for p in diagram(s, t)} == enumerated
                assert len(enumerated) == closed_form(s, t)


def test_ledger_golden_and_invariants():
    with checked("ledger: golden listings, degree sweep, arrow labels"):
        with open(FIXTURES / "golden_ledger.json", encoding="utf-8") as fh:
            cases = json.load(fh)["cases"]
        assert {(c["d"], c["g"], c["t"]) for c in cases} == {
            (4, 1, 2), (6, 2, 1), (12, 3, 2),
        }
        for case in cases:
            pi = InertialCuspidal(case["pi"]["id"], case["pi"]["g"])
            ctx = GlobalContext(d=case["d"], pi=pi)
            inf = generic_infinitesimal(ctx, case["t"])
            got_res = [
                ledger_term_to_dict(t) for t in resolution_terms(ctx, case["t"], inf)
            ]
            got_fil = [
                ledger_term_to_dict(t) for t in filtration_graded(ctx, case["t"], inf)
            ]
            assert got_res == case["resolution"]
            assert got_fil == case["filtration"]

        for d in range(1, 31):
            for g in range(1, d + 1):
                if d % g:
                    continue
                ctx = GlobalContext(d=d, pi=InertialCuspidal("pi", g))
                for t in range(1, ctx.s_g + 1):
                    inf = generic_infinitesimal(ctx, t)
                    for term in resolution_terms(ctx, t, inf):
                        assert term.degree(g) == d
                    for term in filtration_graded(ctx, t, inf):
                        assert term.degree(g) == d

        for g in (1, 2, 3):
            ctx = GlobalContext(d=12, pi=InertialCuspidal("pi", g))
            for delta in range(1, ctx.s_g):
                cores = {
                    strip_adjunction_core(
                        adjunction_labels(ctx, t, generic_infinitesimal(ctx, t))[delta - 1][2], t
                    )
                    for t in range(1, ctx.s_g - delta + 1)
                }
                assert len(cores) == 1


def test_jacquet_cut_combinatorics():
    with checked("jacquet cuts: binomial count and degree conservation"):
        for s in range(1, 9):
            for t in range(1, 9):
                shape = make_speh(make_steinberg(PI, t), s)
                cuts = jacquet_cuts(shape)
                assert len(cuts) == math.comb(s + t, s)
                assert len(set(cuts)) == len(cuts)
                for left, right in cuts:
                    assert left.degree + right.degree == shape.degree


def test_first_torsion_degree_bookkeeping():
    with checked("torsion: first degree is t - t0, infinite above"):
        for t0 in range(1, 13):
            profile = TorsionProfile(t0=t0, tau=(1,))
            for t in range(1, 13):
                expected = t - t0 if t <= t0 else math.inf
                assert i_of_t(profile, t) == expected
        free = TorsionProfile()
        assert all(i_of_t(free, t) == math.inf for t in range(1, 13))


def test_separation_roundtrip():
    with checked("separation: 1000 generate-and-recover roundtrips"):
        started = time.perf_counter()
        layouts = [(12, 1, 4), (12, 1, 6), (10, 2, 3), (18, 3, 4)]
        for seed in range(1000):
            d, g, r = layouts[seed % len(layouts)]
            pi = InertialCuspidal("pi", g, modl_class="a")
            ctx = GlobalContext(d=d, pi=pi)
            if seed % 2:
                torsion = TorsionProfile(
                    t0=1 + seed % ctx.s_g, tau=(seed % 5, (seed + 1) % 4, 2)
                )
            else:
                torsion = None
            ds = generate_dataset(seed, ctx, r=r, torsion=torsion)
            table = d_sequence(ds, pi, r)
            assert infer_B(table, ds.torsion) == expected_contributions(ds, pi, r)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"roundtrip sweep took {elapsed:.1f}s"


def test_theorem_substitution_and_mutation_kill():
    with checked("theorem: 200 substituted pairs equal, all mutations caught"):
        ctx = GlobalContext(d=12, pi=PI)
        mutations_total = 0
        for seed in range(200):
            ds = generate_dataset(seed, ctx, r=4)
            twin = substitute_cuspidal(ds, PI, PI_TWIN)
            shapes = sorted(
                {
                    rec.local.s
                    for rec in ds.data
                    if any(b.id == PI.id for _, b in rec.local.factors)
                }
            )
            for s in shapes:
                verdict = theorem_check(ds, PI, twin, PI_TWIN, 4, s)
                assert verdict.equal, f"seed {seed}: substituted pair differs at s={s}"
            for name, mutated in single_field_mutations(twin, PI_TWIN, 4):
                killed = any(
                    not theorem_check(ds, PI, mutated, PI_TWIN, 4, s).equal
                    for s in shapes
                )
                assert killed, f"seed {seed}: mutation {name} not detected"
                mutations_total += 1
        assert mutations_total >= 200  # the suite actually exercised mutations
