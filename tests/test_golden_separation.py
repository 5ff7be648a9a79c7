"""Golden separation transcript: tables, recovered weights, table errors
and verdicts of seeded datasets, pinned byte for byte.

Each input is a ``generate_dataset`` output with 1, 3 or 12 levels, with
and without torsion.  The transcript is level-free: a table is written as
its levels, one sum over mod-l keys per ``k`` and the torsion integer at
each level, and a contribution set as one weight per pair.  Regenerate
the fixture after a deliberate change with

    PYTHONPATH=src python tests/test_golden_separation.py --write
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

from spehline import (
    GlobalContext,
    TorsionProfile,
    d_sequence,
    expected_contributions,
    generate_dataset,
    infer_B,
    substitute_cuspidal,
    theorem_check,
    torsion_dimension,
)
from spehline.jsonio import canonical_dumps, verdict_to_dict

sys.path.insert(0, str(Path(__file__).parent))
from support import PI, PI_TWIN  # noqa: E402

GOLDEN = Path(__file__).parent / "fixtures" / "golden_separation.json"
CTX = GlobalContext(d=12, pi=PI)

# (name, seed, radius, levels, tau); a tau of None means torsion free
INPUTS = [
    ("one-level", 3, 4, (0,), None),
    ("one-level-torsion", 4, 4, (0,), (3,)),
    ("three-levels", 5, 4, (1, 3, 4), None),
    ("three-levels-torsion", 6, 4, (1, 3, 4), (9, 2, 0, 4, 1)),
    ("twelve-levels", 7, 5, tuple(range(12)), None),
    ("twelve-levels-torsion", 8, 5, tuple(range(12)), (1, 0, 2, 5, 0, 3, 1, 4, 2, 0, 6, 2)),
]


def _profiles(levels: tuple[int, ...], tau: tuple[int, ...] | None) -> dict:
    """Profiles that disagree with the dataset's, each in its own way."""
    base = list(tau or (0,) * (max(levels) + 1))
    last = levels[-1]
    out = {
        "overclaimed": TorsionProfile(t0=1, tau=tuple(x + 1 + n % 2 for n, x in enumerate(base))),
        "overclaimed-last-level": TorsionProfile(
            t0=1, tau=tuple(x + (n == last) for n, x in enumerate(base))
        ),
        "short": TorsionProfile(t0=1, tau=tuple(base[:last])),
        # an overclaim at the first level is met before the missing last one
        "overclaimed-first-and-short": TorsionProfile(
            t0=1, tau=tuple(x + (n == levels[0]) for n, x in enumerate(base[:last]))
        ),
    }
    if tau is not None:
        out["underclaimed"] = TorsionProfile(t0=1, tau=tuple(max(0, x - 1) for x in base))
    return out


def _weights(found) -> list[str]:
    return [f"{shape}: {weight!r}" for shape, weight in found.weights.items()]


def _outcome(table, profile) -> list[str] | str:
    try:
        return _weights(infer_B(table, profile))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _bumped(ds, did: str):
    data = tuple(
        dataclasses.replace(datum, m=datum.m + 1) if datum.id == did else datum
        for datum in ds.data
    )
    return dataclasses.replace(ds, data=data)


def transcript() -> dict:
    out = {}
    for name, seed, r, levels, tau in INPUTS:
        torsion = TorsionProfile(t0=2, tau=tau) if tau is not None else None
        ds = generate_dataset(seed, CTX, r=r, levels=levels, torsion=torsion, noise_data=2)
        table = d_sequence(ds, PI, r)
        expected = expected_contributions(ds, PI, r)
        twin = substitute_cuspidal(ds, PI, PI_TWIN)
        bumped = _bumped(twin, ds.data[0].id)
        checks = [(r, s) for s in range(1, r + 1)] + [(r - 1, 1)]
        out[name] = {
            "levels": list(table.levels),
            "sums": [f"{k}: {row!r}" for k, row in enumerate(table.sums)],
            # torsion adds the same integer to every k >= 1 of a level
            "torsion": [torsion_dimension(table.torsion, 1, n) for n in table.levels],
            "maximal": table.maximal,
            "infer_B": _weights(infer_B(table, ds.torsion)),
            "expected": _weights(expected),
            "witnesses": [f"{shape}: {ids}" for shape, ids in expected.witnesses.items()],
            "mismatched_profiles": {
                label: _outcome(table, profile)
                for label, profile in _profiles(levels, tau).items()
            },
            "twin_verdicts": [
                canonical_dumps(verdict_to_dict(theorem_check(ds, PI, twin, PI_TWIN, rr, s)))
                for rr, s in checks
            ],
            "bumped_verdicts": [
                canonical_dumps(verdict_to_dict(theorem_check(ds, PI, bumped, PI_TWIN, rr, s)))
                for rr, s in checks
            ],
        }
    return out


def _dumps(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def test_golden_separation_transcript():
    assert _dumps(transcript()) == GOLDEN.read_text(encoding="utf-8")


def test_transcript_reaches_every_outcome():
    """The fixture pins errors of both peeling phases, a short profile, a
    refusal at the twelfth level and unequal verdicts, not only equal ones."""
    text = GOLDEN.read_text(encoding="utf-8")
    for needle in (
        "InconsistentTableError: negative residue at k=1",
        "InconsistentTableError: negative difference between degrees 0 and 1",
        "ValueError: no torsion dimension recorded",
        "negative residue at k=1, n=11 after torsion subtraction",
        '\\"equal\\":false',
        "is not the maximal radius",
    ):
        assert needle in text, needle


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    GOLDEN.write_text(_dumps(transcript()), encoding="utf-8")
