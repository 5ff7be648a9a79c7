"""The four workloads: what one job runs, and how its output is checked.

``run`` holds only calls into the program and is what the benchmark
times.  ``check`` compares the outputs with references from
``reference.py`` and the generator, and returns a message for a wrong
answer or ``None``.  ``pass_s`` is the nominal time of one pass over
the pool at the reference speed at this commit; it sets how many passes
fill ``--seconds``, whatever the speed of the program.  The program is
always reached through its module attributes
(``ledger.expand_resolution``, ``cli.main``), so the traced run can wrap
them from outside ``src/``.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from spehline import cli, congruence, ledger, torsion, zline

import inputs
import reference


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run ``spehline.cli.main`` in-process; stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _failed(code: int, expected: int, what: str, err: str) -> str | None:
    if code != expected:
        return f"{what}: exit {code}, expected {expected}: {err.strip()[-200:]}"
    return None


# ---------------------------------------------------------------------- ledger


class Ledger:
    name = "ledger"
    pass_s = 6

    def setup(self, seed: int, workdir: Path):
        return inputs.ledger_jobs(seed)

    def run(self, job: inputs.LedgerJob):
        flags = ["--json", "--d", str(job.d), "--g", str(job.g), "--t", str(job.t),
                 "--e-pi", str(job.e_pi), "--pi-id", job.ctx.pi.id]
        res = call_cli(["resolution", *flags])
        fil = call_cli(["filtration", *flags])
        total = ledger.expand_resolution(job.ctx, job.t, job.inf)
        groups = ledger.group_by_stratum(total)
        label = torsion.torsion_transfer_label(job.ctx, job.profile, job.t, job.inf)
        return res, fil, total, groups, label

    def check(self, job: inputs.LedgerJob, out) -> str | None:
        (rc, rout, rerr), (fc, fout, ferr), total, groups, label = out
        n_res, n_fil, n_exp = reference.ledger_counts(job.n)
        strata = list(range(job.t, job.s_g + 1))
        for code, text, err, what, count in (
            (rc, rout, rerr, "resolution", n_res),
            (fc, fout, ferr, "filtration", n_fil),
        ):
            msg = _failed(code, 0, what, err)
            if msg:
                return msg
            doc = json.loads(text)
            terms = doc["terms"]
            if len(terms) != count:
                return f"{what}: {len(terms)} terms, expected {count}"
            g_of = {job.ctx.pi.id: job.g}
            for term in terms:
                inf_deg = reference.multisegment_dict_degree(term["infinitesimal"], g_of)
                deg = reference.ledger_degree(
                    term["stratum"], job.g, inf_deg, term["xi_twice"], term["tate_twice"]
                )
                if deg != job.d:
                    return f"{what}: term at h={term['stratum']} has degree {deg} != {job.d}"
            graded = terms[: job.n + 1]
            if [term["stratum"] for term in graded] != strata:
                return f"{what}: strata do not run from {job.t} to {job.s_g}"
            if what == "resolution":
                if [term["sign"] for term in graded] != [(-1) ** k for k in range(job.n + 1)]:
                    return "resolution: signs do not alternate"
                closing = terms[-1]
                if (closing["kind"], closing["stratum"]) != ("intermediate", job.t):
                    return "resolution: no closing intermediate at t"
        if len(total) != n_exp:
            return f"expansion: {len(total)} terms, expected {n_exp}"
        for term in total.labels():
            deg = reference.ledger_degree(
                term.stratum, job.g, reference.multisegment_degree(term.infinitesimal),
                term.xi_power.twice, term.tate.twice,
            )
            if deg != job.d:
                return f"expansion: term at h={term.stratum} has degree {deg}"
            # the sign of an expanded term is the sign of its shriek, (-1)^delta
            if total.coefficient(term) != (-1) ** term.xi_power.twice:
                return f"expansion: sign of {term} does not alternate"
        if sorted(groups) != strata:
            return f"grouping: strata {sorted(groups)} != {strata}"
        for h, part in groups.items():
            if len(part) != h - job.t + 1:
                return f"grouping: {len(part)} terms at h={h}, expected {h - job.t + 1}"
        cells = sum(seg.length for seg in label.infinitesimal.segments)
        inf_deg = reference.multisegment_degree(label.infinitesimal)
        if (
            label.stratum != job.t0
            or label.xi_power.twice != job.t - job.t0
            or cells != job.t0 - job.t
            or reference.ledger_degree(label.stratum, job.g, inf_deg, label.xi_power.twice, 0) != job.d
        ):
            return f"torsion transfer: wrong label {label}"
        return None


# ------------------------------------------------------------------ separation


class Separation:
    name = "separation"
    pass_s = 4.2

    def setup(self, seed: int, workdir: Path):
        return inputs.separation_jobs(seed)

    def run(self, job: inputs.SeparationJob):
        table = congruence.d_sequence(job.dataset, job.pi, job.r)
        found = congruence.infer_B(table, job.dataset.torsion)
        expected = congruence.expected_contributions(job.dataset, job.pi, job.r)
        return found, expected

    def check(self, job: inputs.SeparationJob, out) -> str | None:
        found, expected = out
        if found.shapes() != job.shapes:
            return f"infer_B shapes {found.shapes()} != prescribed {job.shapes}"
        if found.pairs != expected.pairs:
            return "infer_B pairs differ from expected_contributions"
        for shape, weight in found.pairs.items():
            total = sum(weight.coefficient(label) for label in weight.labels())
            if total != job.weight_totals[shape]:
                return f"weight of {shape} is {total}, expected {job.weight_totals[shape]}"
        return None


# ------------------------------------------------------------------ congruence


class Congruence:
    name = "congruence"
    pass_s = 25

    def setup(self, seed: int, workdir: Path):
        return inputs.congruence_jobs(seed, workdir)

    def run(self, job: inputs.CongruenceJob):
        return call_cli(["congruence", job.path_a, job.path_b, "--r", str(job.r),
                         "--s", str(job.s), "--report", job.report])

    def check(self, job: inputs.CongruenceJob, out) -> str | None:
        code, text, err = out
        msg = _failed(code, job.expected_exit, f"congruence ({job.kind})", err)
        if msg:
            return msg
        if job.kind == "schema":
            return None if "schema error" in err else "schema violation not reported"
        path = Path(job.report)
        report = json.loads(path.read_text(encoding="utf-8"))
        path.unlink()  # a later pass must write its own report
        verdict = "equal" if code == 0 else "unequal"
        if text.strip() != verdict or report["equal"] != (code == 0):
            return f"verdict line {text.strip()!r} / report disagree with exit {code}"
        if code == 1 and not report["diffs"]:
            return "unequal report without diffs"
        if code == 0 and report["diffs"]:
            return "equal report with diffs"
        return None


# ---------------------------------------------------------------------- shapes


class Shapes:
    name = "shapes"
    pass_s = 4.6

    def setup(self, seed: int, workdir: Path):
        return inputs.shapes_jobs(seed, workdir)

    def run(self, job: inputs.ShapesJob):
        cuts = zline.jacquet_cuts(job.ladder)
        shown = call_cli(["diagram", "--component", job.component, f"--{job.fmt}"])
        listed = call_cli(["diagram", "--component", job.component, "--at-r", str(job.at_r)])
        return cuts, shown, listed

    def check(self, job: inputs.ShapesJob, out) -> str | None:
        cuts, (code, text, err), (lcode, listing, lerr) = out
        ladder = job.ladder
        if len(cuts) != job.cuts:
            return f"{len(cuts)} cuts of {ladder}, expected C(s+t, s) = {job.cuts}"
        cells = ladder.s * ladder.t
        keys = set()
        for left, right in cuts:
            sides = tuple(
                tuple(sorted((seg.start.twice, seg.length) for seg in side.segments))
                for side in (left, right)
            )
            keys.add(sides)
            if sum(seg.length for side in (left, right) for seg in side.segments) != cells:
                return f"cut of {ladder} does not conserve degree"
        if len(keys) != len(cuts):
            return f"cuts of {ladder} are not pairwise distinct"
        msg = _failed(code, 0, f"diagram --{job.fmt}", err) or _failed(lcode, 0, "diagram --at-r", lerr)
        if msg:
            return msg
        expected = reference.superposed(job.s, [t for t, _ in job.factors])
        if job.fmt == "json":
            got = {(p["r"], p["i"]): p["factors"] for p in json.loads(text)["points"]}
            if got != expected:
                return "diagram points or factor annotations differ from the support polygons"
        elif job.fmt == "svg":
            if text.count("<rect ") != len(expected):
                return f"svg has {text.count('<rect ')} squares, expected {len(expected)}"
        else:
            got = reference.ascii_cells(text)
            if got != {p: str(len(ks)) for p, ks in expected.items()}:
                return "ascii cells differ from the support polygons"
        lines = listing.splitlines()
        want = reference.constituent_lines(job.s, job.factors, job.at_r)
        if len(lines) != len(want):
            return f"--at-r {job.at_r}: {len(lines)} constituents, expected {len(want)}"
        for line, (prefix, symbol, source) in zip(lines, want):
            if not (line.startswith(prefix) and symbol in line and line.endswith(source)):
                return f"--at-r {job.at_r}: unexpected line {line!r}"
        return None


WORKLOADS = {w.name: w for w in (Ledger(), Separation(), Congruence(), Shapes())}

