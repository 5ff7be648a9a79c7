"""Benchmark for spehline: seeded closed-loop workloads, end to end and per layer.

One workload per process, one client, one thread: each job starts when
the previous one has finished and been checked.  Run from the root of a
source checkout:

    python3 perfbench/run.py --workload ledger --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
jobs untraced and then traced, and prints the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Steadiness mode repeats every workload in fresh processes, on a first set
of seeds and on a held-out set, and reports each end-to-end metric's
median and quartiles against its bound from ``BENCHMARK.json``; it also
checks that the traced counts repeat exactly for one seed:

    python3 perfbench/run.py --steady --seed 1 --holdout-seed 1001
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before spehline is imported

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STEADY_RUNS = 10  # runs per seed set in steadiness mode
HARD_STOP_S = 100.0  # guard for the time limit: no pass starts after this
COUNT_METRICS = (
    "formal.ops", "formal.terms_touched", "diagrams.indicator_calls", "zline.cuts_out",
    "zline.multisegments_built", "congruence.modl_key_hit_ratio", "congruence.modl_key_lookups",
    "jsonio.records_in",
)


def import_program():
    """Import spehline from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "spehline" / "__init__.py").is_file():
        sys.exit(f"error: no spehline sources under {src}")
    sys.path.insert(0, str(src))
    import spehline

    if Path(spehline.__file__).resolve().parent != src / "spehline":
        sys.exit(f"error: imported spehline from {spehline.__file__}, not from {src}")
    return spehline


def fresh_caches() -> None:
    """Empty the program's memo caches, as a new CLI process would find them."""
    for name, module in list(sys.modules.items()):
        if name.startswith("spehline"):
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def attempt(workload, job):
    """Run one job; returns (seconds inside the program, failure or None)."""
    start = time.perf_counter()
    try:
        out = workload.run(job)
    except Exception:
        return time.perf_counter() - start, traceback.format_exc(limit=4)
    elapsed = time.perf_counter() - start
    try:
        return elapsed, workload.check(job, out)
    except Exception:
        return elapsed, "check raised on the output:\n" + traceback.format_exc(limit=4)


# Host speed.  After every job the loop times reference_kernel, a fixed
# piece of pure-Python work.  A job's latency is scaled by REFERENCE_S over
# the median kernel time of the runs around it, which removes the drift of
# a shared host's speed; REFERENCE_S is the kernel's time on a quiet
# 2-vCPU Xeon host, so scaled figures read as milliseconds there.
REFERENCE_S = 1.0e-3
WINDOW = 3  # kernel times on each side of a run that set its local speed
KERNEL_REPEATS = 3  # the first kernel run after a job pays for the job's memory state
SETUPS = 9  # least set-ups per run: one after each pass, the rest before the timed phase


def reference_kernel() -> None:
    """Dict updates on tuple keys, string formatting and a keyed sort."""
    table: dict[tuple[int, str], int] = {}
    for i in range(1500):
        key = (i % 61, f"k{i}")
        table[key] = table.get(key, 0) + i
    sorted(table.items(), key=lambda kv: kv[0][1])


def kernel_s() -> float:
    """Seconds the reference kernel takes now: the fastest of a few runs."""
    times = []
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return min(times)


class Tally:
    """Every run of every job in order: job id, latency and the kernel time after it."""

    def __init__(self):
        self.trail: list[tuple[int, float, float]] = []
        self.failed_jobs: set[int] = set()
        self.failures = 0

    def run_pass(self, workload, jobs, before_job=None) -> float:
        """Run every job once, from empty caches; returns seconds inside the program."""
        fresh_caches()
        busy = 0.0
        for job in jobs:
            if before_job is not None:
                before_job(job)
            elapsed, failure = attempt(workload, job)
            busy += elapsed
            self.trail.append((job.job, elapsed, kernel_s()))
            if failure is not None:
                if not self.failures:
                    print(f"first failure, job {job.job}: {failure}", file=sys.stderr)
                self.failures += 1
                self.failed_jobs.add(job.job)
        return busy

    @property
    def attempted(self) -> int:
        return len(self.trail)

    @property
    def correct_jobs(self) -> int:
        return len({job for job, _, _ in self.trail}) - len(self.failed_jobs)

    def latencies(self, scaled: bool) -> list[float]:
        """The latency of every run, optionally scaled to the reference speed."""
        kernel = [k for _, _, k in self.trail]
        out = []
        for i, (_, latency, _) in enumerate(self.trail):
            if scaled:
                latency *= REFERENCE_S / statistics.median(kernel[max(0, i - WINDOW): i + WINDOW + 1])
            out.append(latency)
        return out


def pass_count(workload, seconds: float) -> int:
    """Passes that fill ``seconds`` at the workload's nominal pass time.

    The count depends on ``--seconds`` only, never on how fast the program
    runs, so every program is measured over the same runs.
    """
    return max(1, round(seconds / workload.pass_s))


def closed_loop(workload, jobs, passes: int, tally: Tally, after_pass) -> int:
    """Run ``passes`` whole passes over the pool.

    Each pass starts from empty caches; ``after_pass`` runs, untimed,
    between passes.  Returns the passes run, fewer than asked only if the
    program is so slow that HARD_STOP_S is reached.
    """
    start = time.perf_counter()
    for done in range(passes):
        if done and time.perf_counter() - start > HARD_STOP_S:
            print(f"stopped after {done} of {passes} passes: {HARD_STOP_S:g} s reached", file=sys.stderr)
            return done
        tally.run_pass(workload, jobs)
        after_pass()
    return passes


def reimport_s() -> float:
    """Time a fresh import of every spehline module loaded so far, then put
    the first imports back.  The set covers the modules the jobs drive
    (``cli``, ``jsonio``, ``render`` among them), not only the package."""
    def ours(name: str) -> bool:
        return name == "spehline" or name.startswith("spehline.")

    saved = {name: module for name, module in sys.modules.items() if ours(name)}
    for name in saved:
        del sys.modules[name]
    start = time.perf_counter()
    for name in sorted(saved):
        importlib.import_module(name)
    elapsed = time.perf_counter() - start
    for name in [name for name in sys.modules if ours(name)]:
        del sys.modules[name]
    sys.modules.update(saved)
    return elapsed


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seed: int, seconds: float, workdir: Path, import_s: float) -> dict:
    """End-to-end metrics of one workload, over every run of every job.

    The host is shared: its speed drifts by tens of percent over seconds
    and minutes, so each run's latency is scaled to the reference speed
    (see REFERENCE_S).  Throughput is correct runs over the sum of the
    scaled latencies; p50/p90 are taken over all runs.
    """
    setup_times = []

    def timed_setup():
        # the first set-up runs from process start; each later one
        # re-imports every spehline module and builds the inputs again
        load_s = reimport_s() if setup_times else import_s
        start = time.perf_counter()
        blocks = workload.setup(seed, workdir)
        setup_times.append(load_s + time.perf_counter() - start)
        return blocks

    passes = pass_count(workload, seconds)
    for _ in range(max(2, SETUPS - passes)):
        blocks = timed_setup()
    jobs = [job for block in blocks for job in block]
    gc.collect()
    gc.freeze()  # keep the inputs out of the collector's scans during the jobs
    tally = Tally()
    # one more set-up after each pass spreads the set-ups over the run, so
    # their median does not hang on the host's speed at one moment
    passes = closed_loop(workload, jobs, passes, tally, after_pass=timed_setup)
    # set-ups are scaled by the run's median kernel time: the few kernel
    # runs next to a set-up follow its memory churn more than the host
    kernel_median = statistics.median(k for _, _, k in tally.trail)
    setup_s = statistics.median(setup_times) * REFERENCE_S / kernel_median
    scaled = tally.latencies(scaled=True)
    raw = tally.latencies(scaled=False)
    n = len(scaled)
    p50, p90 = _p50_p90(scaled)
    beyond = sum(1 for x in scaled if x > p90)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    correct = tally.attempted - tally.failures
    jobs_per_s = correct / sum(scaled)
    raw50, raw90 = _p50_p90(raw)
    print(f"workload {workload.name}, seed {seed}: {passes} passes over a pool of {len(jobs)} jobs "
          f"({len(blocks)} blocks), {n} runs; reference kernel {kernel_median * 1e3:.4f} ms "
          f"(median; {REFERENCE_S * 1e3:g} ms at reference speed)")
    print(f"  jobs_per_s   {jobs_per_s:12.4f} 1/s  ({correct} correct runs / {sum(scaled):.3f} s "
          f"scaled; unscaled {correct / sum(raw):.4f})")
    print(f"  job_p50_ms   {p50 * 1e3:12.4f} ms   (n={n} runs; unscaled {raw50 * 1e3:.4f})")
    print(f"  job_p90_ms   {p90 * 1e3:12.4f} ms   (n={n} runs, {beyond} beyond; unscaled {raw90 * 1e3:.4f})")
    print(f"  setup_s      {setup_s:12.4f} s    (median of {len(setup_times)} set-ups, unscaled "
          f"{', '.join(f'{x:.4f}' for x in setup_times)})")
    print(f"  peak_rss_mb  {rss_mb:12.4f} MB")
    print(f"  failed_frac  {tally.failures / tally.attempted:12.4f}      "
          f"({tally.failures} failed / {tally.attempted} runs attempted)")
    return {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": tally.failures,
        "metrics": {
            "jobs_per_s": metric(jobs_per_s, "1/s"),
            "job_p50_ms": metric(p50 * 1e3, "ms"),
            "job_p90_ms": metric(p90 * 1e3, "ms"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(rss_mb, "MB"),
        },
    }


def _p50_p90(values: list[float]) -> tuple[float, float]:
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[4], deciles[8]


def per_layer(workload, seed: int, seconds: float, workdir: Path, sl) -> dict:
    """Untraced passes for half of ``seconds``, one traced pass, and one
    more untraced pass.

    The overhead compares the traced pass with the mean of the untraced
    passes just before and after it, which cancels a steady drift in the
    host's speed.  When passes are long, the pass after is left out so the
    run stays well inside its time limit.
    """
    import spans

    jobs = [job for block in workload.setup(seed, workdir) for job in block]
    gc.collect()
    gc.freeze()
    untraced = Tally()
    start = time.perf_counter()
    for _ in range(pass_count(workload, seconds / 2)):
        untraced_busy = untraced.run_pass(workload, jobs)
    tracer = spans.Tracer()
    tracer.install()
    traced = Tally()
    try:
        traced_busy = traced.run_pass(workload, jobs, before_job=lambda job: setattr(tracer, "job", job.job))
        lookups = sl.congruence.modl_key.cache_info()
    finally:
        tracer.uninstall()
    if time.perf_counter() - start < HARD_STOP_S / 2:
        untraced_busy = (untraced_busy + untraced.run_pass(workload, jobs)) / 2
    out_dir = ROOT / ".bench_work"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(str(span_file))

    layers = tracer.layer_totals()
    counts = tracer.counts
    untraced_rate = untraced.correct_jobs / untraced_busy
    traced_rate = traced.correct_jobs / traced_busy
    n_lookups = lookups.hits + lookups.misses
    values = {}
    for layer in spans.LAYERS:
        calls = "ops" if layer == "formal" else "calls"
        values[f"{layer}.{calls}"] = (int(layers[f"{layer}.calls"]), "count")
        values[f"{layer}.self_s"] = (layers[f"{layer}.self_s"], "s")
    for key in ("jsonio.records_in", "congruence.table_cells", "diagrams.indicator_calls",
                "diagrams.points_out", "formal.terms_touched", "formal.terms_out", "zline.cuts_out",
                "zline.multisegments_built", "ledger.terms_out"):
        values[key] = (counts[key], "count")
    values["jsonio.bytes_in"] = (counts["jsonio.bytes_in"], "B")
    values["jsonio.bytes_out"] = (counts["jsonio.bytes_out"], "B")
    values["render.bytes_out"] = (counts["render.bytes_out"], "B")
    values["congruence.modl_key_hit_ratio"] = (lookups.hits / n_lookups if n_lookups else 0.0, "ratio")
    values["congruence.modl_key_lookups"] = (n_lookups, "count")
    indicator = counts["diagrams.indicator_calls"]
    values["diagrams.point_yield"] = (counts["diagrams.points_out"] / indicator if indicator else 0.0, "ratio")
    values["trace.jobs"] = (traced.attempted, "count")
    values["trace.spans"] = (len(tracer.spans), "count")
    values["trace.busy_s"] = (traced_busy, "s")
    values["trace.jobs_per_s"] = (traced_rate, "1/s")
    values["trace.untraced_jobs_per_s"] = (untraced_rate, "1/s")
    values["trace.overhead_frac"] = (1 - traced_rate / untraced_rate, "ratio")

    print(f"workload {workload.name}, seed {seed}: traced pass of {traced.attempted} jobs, "
          f"{len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}")
    print(f"  tracing overhead: {untraced_rate:.4f} -> {traced_rate:.4f} jobs/s "
          f"({values['trace.overhead_frac'][0]:.1%} fewer)")
    for layer in sorted(spans.LAYERS, key=lambda name: -layers[f"{name}.self_s"]):
        self_s = layers[f"{layer}.self_s"]
        print(f"  {layer:<11} self {self_s:9.4f} s  {self_s / traced_busy:6.1%} of traced job time, "
              f"{int(layers[f'{layer}.calls'])} entries")
    print(f"  modl_key hit ratio {values['congruence.modl_key_hit_ratio'][0]:.4f} "
          f"over {n_lookups} lookups; point yield {values['diagrams.point_yield'][0]:.4f} "
          f"over {indicator} indicator calls")
    failed = untraced.failures + traced.failures
    attempted = untraced.attempted + traced.attempted
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metric(value, unit) for name, (value, unit) in values.items()},
    }


# ------------------------------------------------------------------ steadiness


def child(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    summary = {}
    for name in names:
        sets = {}
        for label, first in (("first", args.seed), ("held-out", args.holdout_seed)):
            runs = [child(name, first + k, seconds, 0) for k in range(STEADY_RUNS)]
            if any(not run["correct"] for run in runs):
                print(f"{name}: a {label} run reported wrong outputs")
                ok = False
            sets[label] = {m: [run["metrics"][m]["value"] for run in runs] for m in bounds}
        print(f"{name}: {STEADY_RUNS} runs x 2 seed sets (from {args.seed} and {args.holdout_seed}), {seconds} s each")
        summary[name] = {}
        for m, info in bounds.items():
            q1, med, q3 = quartiles(sets["first"][m])
            spread = (q3 - q1) / med
            _, med2, _ = quartiles(sets["held-out"][m])
            worse = (med2 - med) / med if info["better"] == "lower" else (med - med2) / med
            verdict = "ok"
            if spread > info["bound"]:
                verdict, ok = "SPREAD ABOVE BOUND", False
            elif spread > info["bound"] / 3:
                verdict = "spread above bound/3"
            if worse > info["bound"]:
                verdict, ok = "HELD-OUT MEDIAN WORSE THAN BOUND", False
            print(f"  {m:<12} median {med:12.4f} {info['unit']:<4} q1 {q1:12.4f} q3 {q3:12.4f} "
                  f"spread {spread:7.2%} (bound {info['bound']:.0%}); held-out median {med2:12.4f} "
                  f"({worse:+.2%} worse)  {verdict}")
            summary[name][m] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                "heldout_median": med2, "heldout_worse": worse}
        traced = [child(name, args.seed, seconds, 1)["metrics"] for _ in range(2)]
        diverged = [m for m in COUNT_METRICS if traced[0][m]["value"] != traced[1][m]["value"]]
        if diverged:
            ok = False
        print(f"  traced counts repeat across two runs of seed {args.seed}: "
              f"{'yes' if not diverged else 'NO: ' + ', '.join(diverged)}; "
              f"tracing overhead {traced[0]['trace.overhead_frac']['value']:.1%}")
        summary[name]["counts_repeat"] = not diverged
    print(json.dumps({"steady": ok, "workloads": summary}))
    return 0 if ok else 1


# ------------------------------------------------------------------------ main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="ledger, separation, congruence or shapes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", action="store_true", help="repeat every workload and report spreads")
    parser.add_argument("--holdout-seed", type=int, default=1001, help="steadiness: first held-out seed")
    args = parser.parse_args()

    sl = import_program()
    import workloads

    import_s = time.perf_counter() - _T0
    if args.steady:
        return steady(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    seconds = args.seconds if args.seconds is not None else 10
    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = per_layer(workload, args.seed, seconds, workdir, sl)
        else:
            result = end_to_end(workload, args.seed, seconds, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
