"""``tools/bench_pairs.py`` reads one ``perfbench/run.py`` output and builds
the record ``test_bench_records.py`` checks, without starting a process."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]

# one real `run.py --workload shapes --seed 1 --trace 0` standard output, saved
# as printed: the tool reads run.py's human-readable lines as well as its JSON
RUN_OUTPUT = (ROOT / "tests" / "fixtures" / "run_py_shapes_seed1.txt").read_text(encoding="utf-8")


def test_parses_the_scaled_and_unscaled_figures():
    run = bench_pairs.parse_run(RUN_OUTPUT)
    assert (run["correct"], run["attempted"], run["failed"]) == (True, 208, 0)
    assert run["kernel_ms"] == 0.7251
    assert run["scaled"] == {
        "jobs_per_s": 154.8978276325501,
        "job_p50_ms": 4.393037076745864,
        "job_p90_ms": 15.54050189758025,
        "setup_s": 0.09327794397586277,
        "peak_rss_mb": 26.265625,
    }
    assert run["unscaled"] == {
        "jobs_per_s": 181.7846,
        "job_p50_ms": 3.7842,
        "job_p90_ms": 12.8464,
        "setup_s": 0.0676,  # the median of the nine unscaled set-ups
    }


def test_refuses_an_output_without_its_figures():
    last = RUN_OUTPUT.strip().splitlines()[-1]
    with pytest.raises(ValueError):
        bench_pairs.parse_run(last + "\n")
    with pytest.raises(ValueError):
        bench_pairs.parse_run("")


def test_summary_is_a_complete_record():
    parent = bench_pairs.parse_run(RUN_OUTPUT)
    faster = {
        **parent,
        "scaled": {**parent["scaled"], "jobs_per_s": 170.0, "job_p90_ms": 13.0},
        "unscaled": {**parent["unscaled"], "job_p90_ms": 13.5},
        "kernel_ms": 0.9,
    }
    # a run with wrong outputs counts as failed, however fast it was
    wrong = {**faster, "correct": False, "kernel_ms": 0.5}
    runs = {"parent": [parent, parent, parent, parent], "change": [faster, parent, None, wrong]}
    table = bench_pairs.summarize(runs, METRICS)
    assert table["pairs"] == 4
    assert table["runs_failed"] == {"parent": 0, "change": 2}
    assert table["runs_correct"] is False
    assert table["kernel_runs_ms"] == {"parent": [0.7251] * 4, "change": [0.9, 0.7251]}
    p90 = table["metrics"]["job_p90_ms"]
    # lower is better: the scaled reading won one pair, the unscaled one none
    assert p90["change_wins"] == 1 and p90["unscaled"]["change_wins"] == 0
    assert p90["runs"]["change"] == [13.0, 15.5405]
    assert table["metrics"]["jobs_per_s"]["change_wins"] == 1
    assert "unscaled" not in table["metrics"]["peak_rss_mb"]
    for metric in METRICS:
        for side in ("parent", "change"):
            assert isinstance(table["metrics"][metric["name"]][side]["median"], float)


def test_a_run_that_times_out_counts_as_failed(monkeypatch, capsys):
    seen = {}

    def hung(argv, **kwargs):
        seen.update(kwargs)
        raise subprocess.TimeoutExpired(argv, kwargs["timeout"])

    monkeypatch.setattr(bench_pairs.subprocess, "run", hung)
    assert bench_pairs.run_once(ROOT, "shapes", 1, 10) is None
    assert seen["timeout"] == bench_pairs.TIMEOUT_S == 300
    assert "timed out after 300 s" in capsys.readouterr().err
