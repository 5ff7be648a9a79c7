"""Interleaved parent/change pairs of the benchmark, written as one ``BENCH_*.json`` record.

Runs ``perfbench/run.py --trace 0`` alternately in a parent source tree and
in this one, each run in a fresh process: 10 pairs at seed 1 and 5 at the
held-out seed 1001, for every workload of ``BENCHMARK.json``, each run as
long as its ``run_seconds`` (passed as ``--seconds``: a one-workload run of
``run.py`` otherwise takes its own default).  Odd pairs run the parent first and even pairs
the change first, and each pair runs every workload before the next pair
starts.  A run still going after ``TIMEOUT_S`` seconds is stopped and
counts as failed.  Standard library only; it changes nothing under
``perfbench/``.

    python3 tools/bench_pairs.py PARENT_TREE --out BENCH_N.json

``PARENT_TREE`` is a git checkout of the parent commit, for example made
with ``git clone``.  Every run's scaled metrics come from the JSON object
``run.py`` prints last; its reference-kernel median and the unscaled
figures it prints before that (``jobs_per_s``, ``job_p50_ms``,
``job_p90_ms`` and the median of the unscaled set-ups) are kept beside
them, since the scaling divides by a kernel time that moves between runs
of the same code.  Those are read from ``run.py``'s human-readable lines,
so a change to their wording breaks this tool.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py"]
# (seed, pairs): run.py's default seed, then its first held-out seed.  Ten
# pairs are what a claimed gain is judged on.
SEEDS = ((1, 10), (1001, 5))
# seconds before a run is stopped and counted as failed: the bound run.py's
# own child() puts on each of its runs
TIMEOUT_S = 300

# the figures run.py prints before its JSON line
_KERNEL = re.compile(r"reference kernel ([\d.]+) ms")
_UNSCALED = {
    "jobs_per_s": re.compile(r"^\s*jobs_per_s\b.*unscaled ([\d.]+)\)", re.M),
    "job_p50_ms": re.compile(r"^\s*job_p50_ms\b.*unscaled ([\d.]+)\)", re.M),
    "job_p90_ms": re.compile(r"^\s*job_p90_ms\b.*unscaled ([\d.]+)\)", re.M),
}
_SETUPS = re.compile(r"^\s*setup_s\b.*unscaled ([\d., ]+)\)", re.M)


def parse_run(stdout: str) -> dict:
    """One run's figures from ``run.py --trace 0`` standard output.

    ``scaled`` holds the value of every metric in the final JSON object;
    ``unscaled`` the unscaled counterparts of the scaled ones, the set-up
    as the median of the unscaled set-ups; ``kernel_ms`` the run's median
    reference-kernel time.  Raises ``ValueError`` if a figure is missing.
    """
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    kernel = _KERNEL.search(stdout)
    setups = _SETUPS.search(stdout)
    found = {name: pattern.search(stdout) for name, pattern in _UNSCALED.items()}
    missing = [name for name, match in found.items() if match is None]
    if kernel is None or setups is None or missing:
        raise ValueError(f"run output lacks {missing or 'the kernel or set-up figures'}")
    unscaled = {name: float(match.group(1)) for name, match in found.items()}
    unscaled["setup_s"] = statistics.median(float(x) for x in setups.group(1).split(","))
    return {
        "correct": bool(result["correct"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "scaled": {name: m["value"] for name, m in result["metrics"].items()},
        "unscaled": unscaled,
        "kernel_ms": float(kernel.group(1)),
    }


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict | None:
    """One benchmark run in ``tree``; ``None`` if it failed, timed out or printed no figures."""
    argv = [sys.executable, *RUN, "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"  {tree}: {workload} seed {seed} timed out after {TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"  {tree}: {workload} seed {seed} exited {proc.returncode}", file=sys.stderr)
        return None
    try:
        return parse_run(proc.stdout)
    except (ValueError, KeyError) as exc:
        print(f"  {tree}: {workload} seed {seed}: {exc}", file=sys.stderr)
        return None


def _spread(values: list[float]) -> dict:
    if len(values) < 2:
        value = round(values[0], 4) if values else None
        return {"median": value, "q1": value, "q3": value}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(runs: dict[str, list[dict | None]], metrics: list[dict]) -> dict:
    """The record of one workload at one seed from its paired runs.

    ``runs[side][k]`` is pair ``k``'s run on that side, ``None`` if it
    failed.  Only runs that gave figures and reported correct outputs
    count in the spreads; a pair counts for ``change_wins`` when both of
    its runs count and the change's is strictly better.
    """
    def counts(run: dict | None) -> bool:
        return run is not None and run["correct"]

    ok = {side: [r for r in runs[side] if counts(r)] for side in ("parent", "change")}
    both = [(p, c) for p, c in zip(runs["parent"], runs["change"]) if counts(p) and counts(c)]
    out: dict = {
        "pairs": len(runs["parent"]),
        "runs_failed": {side: sum(not counts(r) for r in runs[side]) for side in ok},
        "runs_correct": all(r is None or r["correct"] for side in ok for r in runs[side]),
        "kernel_ms": {side: _spread([r["kernel_ms"] for r in ok[side]]) for side in ok},
        "kernel_runs_ms": {side: [round(r["kernel_ms"], 4) for r in ok[side]] for side in ok},
        "metrics": {},
    }
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"

        def wins(field: str) -> int:
            pairs = [(p[field][name], c[field][name]) for p, c in both]
            return sum((c > p) if higher else (c < p) for p, c in pairs)

        entry = {"unit": metric["unit"]}
        for side in ok:
            entry[side] = _spread([r["scaled"][name] for r in ok[side]])
        entry["change_wins"] = wins("scaled")
        entry["runs"] = {side: [round(r["scaled"][name], 4) for r in ok[side]] for side in ok}
        if name in _UNSCALED or name == "setup_s":
            entry["unscaled"] = {side: _spread([r["unscaled"][name] for r in ok[side]]) for side in ok}
            entry["unscaled"]["change_wins"] = wins("unscaled")
            entry["unscaled"]["runs"] = {
                side: [round(r["unscaled"][name], 4) for r in ok[side]] for side in ok
            }
        out["metrics"][name] = entry
    return out


def _commit(tree: Path) -> str:
    """The tree's commit, marked when its files differ from it; "unknown" outside git."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True, check=True
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=tree, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return f"uncommitted changes on {head}" if dirty else head


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree", type=Path, help="a checkout of the parent commit")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_*.json to write")
    parser.add_argument("--change", default="", help="what the change does, for the record")
    parser.add_argument("--claim", default="", help="the gain the change claims, if any")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    workloads = [w["name"] for w in benchmark["workloads"]]
    trees = {"parent": args.parent_tree.resolve(), "change": ROOT}
    for side, tree in trees.items():
        if not (tree / RUN[0]).is_file():
            parser.error(f"{side} tree {tree} has no {RUN[0]}")
    runs = {w: {seed: {"parent": [], "change": []} for seed, _ in SEEDS} for w in workloads}
    for seed, pairs in SEEDS:
        for k in range(pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    run = run_once(trees[side], workload, seed, seconds)
                    runs[workload][seed][side].append(run)
                    shown = "failed" if run is None else f"{run['scaled']['jobs_per_s']:.2f} jobs/s"
                    print(f"seed {seed} pair {k + 1}/{pairs} {workload} {side}: {shown}", flush=True)

    record = {
        "change": args.change,
        "claim": args.claim,
        "commits": {
            "parent": _commit(trees["parent"]),
            "change": _commit(ROOT),
        },
        "python": platform.python_version(),
        "host": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs, "
        f"load average at the end {', '.join(f'{x:.2f}' for x in os.getloadavg())}",
        "bytecode": {
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
            "cached_in_tree": {
                side: any((tree / "src").rglob("*.pyc")) for side, tree in trees.items()
            },
        },
        "command": f"python3 {RUN[0]} --workload W --seed S --seconds {seconds} --trace 0 "
        "(run_seconds of BENCHMARK.json), each run in a fresh process in the parent tree or "
        "the change tree",
        "pairing": "parent and change interleaved, odd pairs parent first and even pairs change "
        "first, every workload once per pair: "
        + ", then ".join(f"{pairs} pairs at seed {seed}" for seed, pairs in SEEDS)
        + ". The tables hold every run.",
        "seeds": [seed for seed, _ in SEEDS],
        "workloads": {
            w: {f"seed_{seed}": summarize(runs[w][seed], metrics) for seed, _ in SEEDS}
            for w in workloads
        },
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for w in workloads:
        for seed, _ in SEEDS:
            table = record["workloads"][w][f"seed_{seed}"]
            for name, entry in table["metrics"].items():
                print(f"{w:<11} seed {seed:<5} {name:<12} {entry['parent']['median']} -> "
                      f"{entry['change']['median']} ({entry['change_wins']}/{table['pairs']} better)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
