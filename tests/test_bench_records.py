"""Every committed benchmark record (``BENCH_*.json``) is complete.

A record compares a parent commit with a change over the workloads and
end-to-end metrics that ``BENCHMARK.json`` declares.  This test reads
``BENCHMARK.json`` and never writes it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]
MIN_PAIRS = {"seed_1": 5, "seed_1001": 3}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_is_complete(path: Path):
    record = json.loads(path.read_text(encoding="utf-8"))
    for key in ("commits", "python", "command", "pairing", "seeds"):
        assert key in record, f"{path.name}: no {key!r}"
    assert set(record["workloads"]) >= WORKLOADS, path.name
    for workload in WORKLOADS:
        for seed, least in MIN_PAIRS.items():
            where = f"{path.name}: {workload} {seed}"
            runs = record["workloads"][workload][seed]
            assert runs["pairs"] >= least, where
            assert runs["runs_failed"] == {"parent": 0, "change": 0}, where
            for metric in METRICS:
                sides = runs["metrics"][metric]
                for side in ("parent", "change"):
                    assert isinstance(sides[side]["median"], (int, float)), f"{where} {metric} {side}"
