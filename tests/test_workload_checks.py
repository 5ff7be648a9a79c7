"""The benchmark's own checks, run in tier-1.

For every workload that ``BENCHMARK.json`` names, the seed-1 pool is built
through ``perfbench/workloads.py`` (read, not changed), and the first job of
each block is run and passed to that workload's ``check``.  A program change
that a check refuses, such as a dropped ``ContributionSet.pairs`` or
``DimensionTable.values``, then fails here and not only in a benchmark run.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


@pytest.mark.parametrize("name", NAMES)
def test_first_job_of_each_block_passes_its_check(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    workload = workloads.WORKLOADS[name]
    blocks = workload.setup(1, tmp_path)
    assert len(blocks) > 1 and all(blocks)
    for block in blocks:
        job = block[0]
        assert workload.check(job, workload.run(job)) is None
