"""The ledger expansion at benchmark sizes: pinned digests and growth guards.

``fixtures/expansion_digests.json`` holds sha256 digests of the canonical
JSON of ``expand_resolution`` (labels in order, with coefficients) and of
the ``resolution --json``/``filtration --json`` CLI listings, for
``n = s_g - t`` in {6, 12, 18} and ``g`` in {1, 2, 3}, plus one
infinitesimal that carries segments, a shifted wildcard and a Tate marker.
The digests were written by the expansion that built every graded part
from scratch, so they pin the outputs of any faster construction.
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
    HalfInt,
    InertialCuspidal,
    Multisegment,
    Segment,
    Wildcard,
    expand_resolution,
    expand_shriek,
    filtration_graded,
    generic_infinitesimal,
    resolution_terms,
)
from spehline.cli import main
from spehline.jsonio import canonical_dumps, ledger_term_to_dict

FIXTURES = Path(__file__).parent / "fixtures"
SIZES = [(n, g) for n in (6, 12, 18) for g in (1, 2, 3)]


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


def _cli_digest(command: str, case: dict) -> str:
    out = io.StringIO()
    argv = [
        command, "--json", "--d", str(case["d"]), "--g", str(case["g"]),
        "--t", str(case["t"]), "--e-pi", str(case["e_pi"]), "--pi-id", case["pi_id"],
    ]
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    text = out.getvalue()
    assert len(json.loads(text)["terms"]) == case["n"] + (2 if command == "resolution" else 1)
    return _sha(text)


def size_digests(case: dict) -> dict:
    ctx = _context(case)
    inf = generic_infinitesimal(ctx, case["t"])
    return {
        "expansion": _sum_digest(expand_resolution(ctx, case["t"], inf)),
        "resolution_json": _cli_digest("resolution", case),
        "filtration_json": _cli_digest("filtration", case),
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
        "shriek": _sum_digest(expand_shriek(ctx, t, inf)),
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

    def test_marked_infinitesimal(self):
        assert marked_digests() == _fixture()["marked"]


def _is_steinberg(m: Multisegment, pi: InertialCuspidal) -> bool:
    """``m`` is ``St_delta(pi)``: one segment of ``pi`` centred at 0, no markers."""
    if len(m.segments) != 1 or m.wildcard is not None or m.order_tag is not None:
        return False
    (seg,) = m.segments
    return seg.base == pi and seg.start.twice == 1 - seg.length and m.tate.is_zero


class TestGrowthGuard:
    """One expansion builds each Steinberg factor once, and few multisegments."""

    @pytest.mark.parametrize("n", [6, 12, 18])
    def test_expansion_builds(self, n, monkeypatch):
        case = _case(n, 2)
        ctx = _context(case)
        inf = generic_infinitesimal(ctx, case["t"])
        built: list[Multisegment] = []
        post_init = Multisegment.__post_init__

        def counted(self):
            post_init(self)
            built.append(self)

        monkeypatch.setattr(Multisegment, "__post_init__", counted)
        total = expand_resolution(ctx, case["t"], inf)
        monkeypatch.undo()
        assert len(total) == (n + 1) * (n + 2) // 2
        assert sum(_is_steinberg(m, ctx.pi) for m in built) == n
        assert len(built) <= (n + 1) * (n + 2) // 2 + 3 * n
