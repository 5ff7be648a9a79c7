from __future__ import annotations

import json

import pytest

from spehline import (
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

from support import PI, RHO

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
