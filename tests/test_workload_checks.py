"""The benchmark's own code, run in tier-1 through its tracer.

For every workload that ``BENCHMARK.json`` names, the seed-1 pool is built
through ``perfbench/workloads.py`` (read, not changed), and every job of
every block is run and passed to that workload's ``check``.  The jobs run
with ``perfbench/spans.py``'s ``Tracer`` installed, as the traced pass of
``perfbench/run.py`` runs them, so each program name the benchmark reaches
is looked up, called and counted here:

- the pool's constructor keywords (``InertialCuspidal(e_pi=...)``);
- the tracer's name tables and the ``cli`` names it finds by inspection,
  each of which ``install()`` fails on when it is missing;
- the counters' reads of results, such as ``DimensionTable.values``;
- the memo attributes that ``run.py`` reads after the traced pass;
- each workload's ``check``, such as its read of ``ContributionSet.pairs``.

A program change that breaks a traced or an untraced benchmark run then
fails here, and not only in a benchmark run.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from spehline import congruence

ROOT = Path(__file__).parent.parent
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


@pytest.mark.parametrize("name", NAMES)
def test_first_job_of_each_block_passes_its_check(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans
    import workloads

    workload = workloads.WORKLOADS[name]
    blocks = workload.setup(1, tmp_path)
    assert len(blocks) > 1 and all(blocks)
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = list(tracer._undo)
        for block in blocks:
            for job in block:
                tracer.job = job.job
                assert workload.check(job, workload.run(job)) is None, job.job
        assert set(spans.COUNTERS) <= set(tracer.names)
        # run.py reads the memo after the traced pass, and empties the caches
        # before each pass through the attributes that have a cache_clear
        congruence.modl_key.cache_info()
        assert callable(congruence._traced_terms.cache_clear)
    finally:
        tracer.uninstall()
    assert patched and tracer.spans
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"
