from __future__ import annotations

import copy
import hashlib
import json
import sys
from pathlib import Path

import pytest

from spehline import (
    GlobalContext,
    HalfInt,
    Multisegment,
    Segment,
    Wildcard,
    generate_dataset,
    make_speh,
    make_steinberg,
)
from spehline.congruence import Dataset
from spehline.jsonio import (
    SchemaError,
    canonical_dumps,
    dataset_from_dict,
    dataset_to_dict,
    multisegment_from_dict,
    multisegment_to_dict,
)

from support import PI, RHO, field_paths

CUSPIDALS = {"pi": PI, "rho": RHO}


class TestMultisegmentForm:
    def test_roundtrip(self):
        m = Multisegment(
            segments=(
                Segment(PI, HalfInt(-1), 2),
                Segment(RHO, HalfInt(3), 1),
            ),
            tate=HalfInt(1),
            wildcard=Wildcard("q", 4, HalfInt(-2)),
            order_tag=(4, 2),
        )
        back = multisegment_from_dict(multisegment_to_dict(m), CUSPIDALS)
        assert back == m

    def test_canonical_form_is_sorted_and_stable(self):
        a = Multisegment((Segment(PI, HalfInt(2), 1), Segment(PI, HalfInt(-2), 1)))
        b = Multisegment((Segment(PI, HalfInt(-2), 1), Segment(PI, HalfInt(2), 1)))
        assert canonical_dumps(multisegment_to_dict(a)) == canonical_dumps(
            multisegment_to_dict(b)
        )
        starts = [s["start_twice"] for s in multisegment_to_dict(a)["segments"]]
        assert starts == sorted(starts)

    def test_ladder_roundtrip(self):
        m = make_speh(make_steinberg(PI, 3), 2).to_multisegment()
        assert multisegment_from_dict(multisegment_to_dict(m), CUSPIDALS) == m

    def test_unknown_base_reference(self):
        obj = multisegment_to_dict(Multisegment((Segment(PI, HalfInt(0), 2),)))
        obj["segments"][0]["base_id"] = "ghost"
        with pytest.raises(SchemaError) as err:
            multisegment_from_dict(obj, CUSPIDALS)
        assert err.value.path == "segments[0].base_id"


class TestDatasetForm:
    def make(self) -> Dataset:
        from spehline import GlobalContext

        ctx = GlobalContext(d=12, pi=PI)
        return generate_dataset(5, ctx, r=4)

    def test_roundtrip_bit_exact(self):
        ds = self.make()
        blob = canonical_dumps(dataset_to_dict(ds))
        back = dataset_from_dict(json.loads(blob))
        assert back == ds
        assert canonical_dumps(dataset_to_dict(back)) == blob

    def test_schema_reports_first_violation_path(self):
        obj = dataset_to_dict(self.make())
        obj["data"][1]["m"] = "three"
        with pytest.raises(SchemaError) as err:
            dataset_from_dict(obj)
        assert err.value.path == "data[1].m"

    def test_schema_missing_field(self):
        obj = dataset_to_dict(self.make())
        del obj["data"][0]["local"]["s"]
        with pytest.raises(SchemaError) as err:
            dataset_from_dict(obj)
        assert err.value.path == "data[0].local.s"

    def test_schema_bad_levels(self):
        obj = dataset_to_dict(self.make())
        obj["levels"] = [0, "one"]
        with pytest.raises(SchemaError) as err:
            dataset_from_dict(obj)
        assert err.value.path == "levels[1]"

    def test_unknown_base_reference(self):
        obj = dataset_to_dict(self.make())
        obj["data"][0]["local"]["factors"][0]["base_id"] = "ghost"
        with pytest.raises(SchemaError):
            dataset_from_dict(obj)


# ------------------------------------------------------------- mutation table
# Every field of a small dataset, deleted or set to each replacement below,
# and what ``dataset_from_dict`` makes of it: the exception class and message,
# or ``ok`` with a digest of the canonical form of the dataset it returns.
# The fixture was written by the reader that checks every field through
# ``_need``; ``PYTHONPATH=src python tests/test_jsonio.py`` prints the table.

MUTATION_TABLE = Path(__file__).parent / "fixtures" / "dataset_mutations.tsv"
DELETE = object()
REPLACEMENTS = (DELETE, None, True, False, "x", "", 1.5, 7, 0, -1, [], {}, "ghost")


def _path_str(path) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def _outcome(doc) -> str:
    try:
        ds = dataset_from_dict(doc)
    except Exception as exc:  # the class is part of the recorded outcome
        return f"{type(exc).__name__}: {exc}"
    return "ok " + hashlib.sha256(canonical_dumps(dataset_to_dict(ds)).encode()).hexdigest()[:16]


def mutation_lines() -> list[str]:
    base = dataset_to_dict(generate_dataset(3, GlobalContext(d=12, pi=PI), r=4))
    lines = []
    for *parents, key in field_paths(base):
        for value in REPLACEMENTS:
            doc = copy.deepcopy(base)
            owner = doc
            for step in parents:
                owner = owner[step]
            if value is DELETE:
                del owner[key]
            else:
                owner[key] = value
            shown = "delete" if value is DELETE else json.dumps(value)
            lines.append(f"{_path_str((*parents, key))}\t{shown}\t{_outcome(doc)}\n")
    return lines


def test_every_single_field_mutation_matches_table():
    expected = MUTATION_TABLE.read_text(encoding="utf-8").splitlines(keepends=True)
    got = mutation_lines()
    assert len(got) == len(expected)
    mismatches = [(e, g) for e, g in zip(expected, got) if e != g]
    assert not mismatches, mismatches[:5]


if __name__ == "__main__":
    sys.stdout.writelines(mutation_lines())
