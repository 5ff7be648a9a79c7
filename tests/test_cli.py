from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spehline import GlobalContext, generate_dataset, substitute_cuspidal
from spehline.cli import build_parser, main
from spehline.jsonio import _fraction, canonical_dumps, dataset_from_dict, dataset_to_dict

from support import PI, PI_TWIN, field_paths

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parent.parent / "src"

GOLDEN_RESOLUTION_4_1_2 = """\
shriek h=2 sign=+1 xi=0 tate=0 deg=4 :: ?Pi[2](2)
shriek h=3 sign=-1 xi=1/2 tate=0 deg=4 :: pi[1] + ?Pi[2](2){-1/2}
shriek h=4 sign=+1 xi=1 tate=0 deg=4 :: pi[1/2] + pi[3/2] + ?Pi[2](2){-1}
intermediate h=2 sign=+1 xi=0 tate=0 deg=4 :: ?Pi[2](2)
"""


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDiagramCommand:
    def test_single_square(self, capsys):
        code, out, _ = run(capsys, "diagram", "--s", "1", "--t", "3", "--ascii")
        assert code == 0
        row = next(line for line in out.splitlines() if line.startswith("i=  0"))
        assert row.split("| ")[1] == ". . #"
        assert out.count("#") == 1

    def test_speh_triangle_point_count(self, capsys):
        code, out, _ = run(capsys, "diagram", "--s", "4", "--t", "1")
        assert code == 0
        assert out.count("#") == 10

    def test_json_output_roundtrips(self, capsys):
        code, out, _ = run(capsys, "diagram", "--s", "2", "--t", "2", "--json")
        assert code == 0
        obj = json.loads(out)
        assert canonical_dumps(obj) == out.strip()
        assert {(p["r"], p["i"]) for p in obj["points"]} == {
            (1, 0), (2, -1), (2, 1), (3, 0),
        }

    def test_component_constituents(self, capsys):
        code, out, _ = run(
            capsys,
            "diagram",
            "--component",
            str(FIXTURES / "triple_component.json"),
            "--at-r",
            "4",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert "R_pi(4,1)(4,0) x Speh_4(St_3(pi)) x Speh_4(St_5(pi))" in lines[0]
        assert lines[0].endswith("no higher origin")
        assert "Speh_4(pi) x R_pi(4,3)(4,0) x Speh_4(St_5(pi))" in lines[1]
        assert lines[1].endswith("comes from (6,0)")
        assert "Speh_4(pi) x Speh_4(St_3(pi)) x R_pi(4,5)(4,0)" in lines[2]
        assert lines[2].endswith("comes from (8,0)")

    @pytest.mark.parametrize("r", [0, 9, -1])
    def test_component_without_support_at_r(self, capsys, r):
        code, out, err = run(
            capsys,
            "diagram",
            "--component",
            str(FIXTURES / "triple_component.json"),
            "--at-r",
            str(r),
        )
        assert code == 2
        assert out == ""
        assert err == f"no support at ({r},0)\n"

    def test_svg_smoke(self, capsys):
        code, out, _ = run(capsys, "diagram", "--s", "3", "--t", "2", "--svg")
        assert code == 0
        assert out.startswith("<svg") and out.count("<rect") == 8

    @pytest.mark.parametrize(
        "flag, check",
        [
            ("--ascii", lambda out: out == "(empty diagram)\n"),
            ("--json", lambda out: '"points":[]' in out),
            ("--svg", lambda out: out.startswith("<svg") and "<rect" not in out),
        ],
    )
    def test_component_without_factors(self, capsys, tmp_path, flag, check):
        # a lone wildcard carries no point of the diagram
        doc = copy.deepcopy(TRIPLE)
        doc.update(factors=[], wildcard={"id": "w", "degree": 4})
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "diagram", "--component", str(path), flag)
        assert code == 0 and check(out)

    def test_component_render_counts_factors(self, capsys):
        code, out, _ = run(
            capsys, "diagram", "--component", str(FIXTURES / "triple_component.json")
        )
        assert code == 0
        row = next(line for line in out.splitlines() if line.startswith("i=  0"))
        assert "3" in row  # (4, 0) carries all three factors

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "d.svg"
        code, out, _ = run(
            capsys, "diagram", "--s", "1", "--t", "1", "--svg", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("<svg")

    def test_constituents_out_file(self, capsys, tmp_path):
        argv = ["diagram", "--component", str(FIXTURES / "triple_component.json"), "--at-r", "4"]
        _, printed, _ = run(capsys, *argv)
        target = tmp_path / "x.txt"
        code, out, _ = run(capsys, *argv, "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == printed
        code, err = run_exit(capsys, *argv, "--out", str(tmp_path / "missing" / "x.txt"))
        assert code == 64 and err.startswith("error: cannot write")

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "diagram", "--s", "one", "--t", "3")
        assert err.value.code == 64

    def test_missing_shape_flags(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "diagram")
        assert err.value.code == 64

    def test_at_r_requires_component(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "diagram", "--s", "2", "--t", "2", "--at-r", "3")
        assert err.value.code == 64


class TestLedgerCommands:
    def test_resolution_golden_text(self, capsys):
        code, out, _ = run(
            capsys, "resolution", "--d", "4", "--g", "1", "--t", "2"
        )
        assert code == 0
        assert out == GOLDEN_RESOLUTION_4_1_2

    def test_degree_column_constant(self, capsys):
        code, out, _ = run(capsys, "filtration", "--d", "12", "--g", "3", "--t", "1")
        assert code == 0
        for line in out.splitlines():
            assert "deg=12" in line

    def test_top_stratum_two_lines(self, capsys):
        code, out, _ = run(capsys, "resolution", "--d", "6", "--g", "2", "--t", "3")
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_stratum_out_of_range_exit_65(self, capsys):
        code, _, err = run(capsys, "resolution", "--d", "4", "--g", "1", "--t", "5")
        assert code == 65
        assert "s_g" in err

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"d": 4, "g": 1, "kappa": "1/2"}))
        code, out, _ = run(
            capsys, "resolution", "--config", str(config), "--t", "2"
        )
        assert code == 0
        assert out == GOLDEN_RESOLUTION_4_1_2

    def test_json_listing(self, capsys):
        code, out, _ = run(
            capsys, "resolution", "--d", "4", "--g", "1", "--t", "2", "--json"
        )
        assert code == 0
        obj = json.loads(out)
        assert [t["stratum"] for t in obj["terms"]] == [2, 3, 4, 2]


class TestCongruenceCommand:
    def write_pair(self, tmp_path) -> tuple[str, str, int]:
        ctx = GlobalContext(d=12, pi=PI)
        ds = generate_dataset(21, ctx, r=4)
        other = substitute_cuspidal(ds, PI, PI_TWIN)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(canonical_dumps(dataset_to_dict(ds)))
        b.write_text(canonical_dumps(dataset_to_dict(other)))
        s = ds.data[0].local.s
        return str(a), str(b), s

    def test_substituted_pair_exit_0(self, capsys, tmp_path):
        a, b, s = self.write_pair(tmp_path)
        code, out, _ = run(capsys, "congruence", a, b, "--r", "4", "--s", str(s))
        assert code == 0
        assert json.loads(out)["equal"] is True

    def test_mutated_pair_exit_1(self, capsys, tmp_path):
        a, b, s = self.write_pair(tmp_path)
        obj = json.loads(Path(b).read_text())
        obj["data"][0]["m"] += 1
        Path(b).write_text(canonical_dumps(obj))
        code, out, _ = run(capsys, "congruence", a, b, "--r", "4", "--s", str(s))
        assert code == 1
        report = json.loads(out)
        assert report["equal"] is False and report["diffs"]

    def test_torsion_inconsistent_exit_2(self, capsys, tmp_path):
        a, b, s = self.write_pair(tmp_path)
        obj = json.loads(Path(a).read_text())
        obj["torsion"] = {"t0": None, "tau": [1, 0, 0]}
        Path(a).write_text(canonical_dumps(obj))
        code, _, err = run(capsys, "congruence", a, b, "--r", "4", "--s", str(s))
        assert code == 2
        assert "inconsistent" in err

    def test_schema_violation_exit_66(self, capsys, tmp_path):
        a, b, s = self.write_pair(tmp_path)
        obj = json.loads(Path(a).read_text())
        del obj["data"][0]["inv_dim"]
        Path(a).write_text(canonical_dumps(obj))
        code, _, err = run(capsys, "congruence", a, b, "--r", "4", "--s", str(s))
        assert code == 66
        assert "data[0].inv_dim" in err

    def test_level_order_ignored(self, capsys, tmp_path):
        a, b, s = self.write_pair(tmp_path)
        obj = json.loads(Path(b).read_text())
        obj["levels"].reverse()
        Path(b).write_text(canonical_dumps(obj))
        code, out, _ = run(capsys, "congruence", a, b, "--r", "4", "--s", str(s))
        assert code == 0
        assert json.loads(out)["equal"] is True

    def test_duplicate_id_exit_2(self, capsys, tmp_path):
        a, b, s = self.write_pair(tmp_path)
        obj = json.loads(Path(a).read_text())
        obj["data"][1]["id"] = obj["data"][0]["id"]
        Path(a).write_text(canonical_dumps(obj))
        code, _, err = run(capsys, "congruence", a, b, "--r", "4", "--s", str(s))
        assert code == 2
        assert f"duplicate datum id {obj['data'][0]['id']!r}" in err

    def test_class_on_two_gl_exit_2(self, capsys, tmp_path):
        a, b, s = self.write_pair(tmp_path)
        obj = json.loads(Path(a).read_text())
        local = next(
            rec["local"] for rec in obj["data"]
            if rec["local"]["wildcard"] and rec["local"]["wildcard"]["degree"] >= 2 * rec["local"]["s"]
        )
        local["factors"].append({"t": 1, "base_id": "rho"})
        local["wildcard"]["degree"] -= 2 * local["s"]
        obj["cuspidals"]["rho"] = {"g": 2, "e_pi": 1, "modl_class": "a"}
        Path(a).write_text(canonical_dumps(obj))
        code, _, err = run(capsys, "congruence", a, b, "--r", "4", "--s", str(s))
        assert code == 2
        assert "mod-l class 'a' holds 'pi' on GL_1 and 'rho' on GL_2" in err

    def test_empty_class_exit_2(self, capsys, tmp_path):
        # read as the label's own id, "" would put x in y's class "x"
        a, b, s = self.write_pair(tmp_path)
        obj = json.loads(Path(a).read_text())
        obj["cuspidals"]["x"] = {"g": 1, "e_pi": 1, "modl_class": ""}
        obj["cuspidals"]["y"] = {"g": 1, "e_pi": 1, "modl_class": "x"}
        Path(a).write_text(canonical_dumps(obj))
        code, out, err = run(capsys, "congruence", a, b, "--r", "4", "--s", str(s))
        assert (code, out) == (2, "")
        assert err == "inconsistent input: cuspidals[x].modl_class: empty mod-l class\n"

    def test_files_disagree_on_an_id_exit_2(self, capsys, tmp_path):
        a, b, s = self.write_pair(tmp_path)
        obj = json.loads(Path(b).read_text())
        shared = min(set(obj["cuspidals"]) & set(json.loads(Path(a).read_text())["cuspidals"]))
        obj["cuspidals"][shared]["e_pi"] += 1
        Path(b).write_text(canonical_dumps(obj))
        code, _, err = run(capsys, "congruence", a, b, "--r", "4", "--s", str(s))
        assert code == 2
        assert f"cuspidal id {shared!r} names two labels" in err

    def test_ambient_degrees_differ_exit_2(self, capsys, tmp_path):
        a, _, s = self.write_pair(tmp_path)
        other = generate_dataset(21, GlobalContext(d=14, pi=PI_TWIN), r=4)
        b = tmp_path / "b14.json"
        b.write_text(canonical_dumps(dataset_to_dict(other)))
        code, out, err = run(capsys, "congruence", a, str(b), "--r", "4", "--s", str(s))
        assert (code, out) == (2, "")
        assert err == "inconsistent input: datasets have different ambient degrees\n"

    def test_report_file(self, capsys, tmp_path):
        a, b, s = self.write_pair(tmp_path)
        report = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "congruence", a, b, "--r", "4", "--s", str(s),
            "--report", str(report),
        )
        assert code == 0
        assert out.strip() == "equal"
        assert json.loads(report.read_text())["exit_code"] == 0

    def test_report_file_unequal(self, capsys, tmp_path):
        a, b, s = self.write_pair(tmp_path)
        obj = json.loads(Path(b).read_text())
        obj["data"][0]["m"] += 1
        Path(b).write_text(canonical_dumps(obj))
        report = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "congruence", a, b, "--r", "4", "--s", str(s),
            "--report", str(report),
        )
        assert (code, out) == (1, "unequal\n")
        assert json.loads(report.read_text())["exit_code"] == 1


# ------------------------------------------------------------ malformed input

TRIPLE = json.loads((FIXTURES / "triple_component.json").read_text())


def run_exit(capsys, *argv: str) -> tuple[int, str]:
    """Exit status and stderr, whether ``main`` returns or exits."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


class TestMalformedInput:
    @pytest.mark.parametrize(
        "edit, code, where",
        [
            (lambda c: c.pop("cuspidals"), 66, "cuspidals"),
            (lambda c: c["factors"][1].update(base_id="ghost"), 66, "factors[1].base_id"),
            (lambda c: c.update(s=0), 2, "s >= 1"),
            (lambda c: c["cuspidals"]["pi"].update(g=0), 2, "g must be"),
            (
                lambda c: c["cuspidals"]["pi"].update(modl_class=""),
                2,
                "inconsistent input: cuspidals[pi].modl_class: empty mod-l class",
            ),
            (lambda c: c.update(wildcard={"id": "w", "degree": -1}), 2, "degree"),
            (lambda c: c.pop("schema_version"), 66, "schema_version: missing field"),
            (lambda c: c.update(schema_version=7), 66, "schema_version: unsupported version 7"),
        ],
        ids=[
            "no-cuspidals", "unknown-base", "s-zero", "g-zero", "empty-class", "wildcard-degree",
            "no-version", "version-7",
        ],
    )
    def test_component(self, capsys, tmp_path, edit, code, where):
        doc = copy.deepcopy(TRIPLE)
        edit(doc)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        got, err = run_exit(capsys, "diagram", "--component", str(path))
        assert got == code and where in err

    def test_shape_out_of_range(self, capsys):
        code, err = run_exit(capsys, "diagram", "--s", "0", "--t", "2")
        assert code == 2 and "positive" in err

    def test_config_field_type(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"d": "4", "g": 1}))
        code, err = run_exit(capsys, "resolution", "--config", str(config), "--t", "2")
        assert code == 66
        assert err.startswith("schema error: d:")

    def test_directory_path(self, capsys, tmp_path):
        code, err = run_exit(capsys, "diagram", "--component", str(tmp_path))
        assert code == 64 and str(tmp_path) in err

    def test_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"s": "\xff"}')
        code, err = run_exit(capsys, "diagram", "--component", str(path))
        assert code == 66 and "not valid JSON" in err


class TestCheckedInPair:
    """``fixtures/congruence_{a,b}.json``: twin files with anchor records at
    radii 2 to 5.  CI runs the installed script on the same cases."""

    def run_pair(self, capsys, tmp_path, edit=None, r=5, s=5) -> tuple[int, str, str]:
        a, b = FIXTURES / "congruence_a.json", FIXTURES / "congruence_b.json"
        if edit is not None:
            doc = json.loads(b.read_text(encoding="utf-8"))
            edit(doc)
            b = tmp_path / "b.json"
            b.write_text(json.dumps(doc), encoding="utf-8")
        return run(capsys, "congruence", str(a), str(b), "--r", str(r), "--s", str(s))

    def test_twins_exit_0(self, capsys, tmp_path):
        code, out, err = self.run_pair(capsys, tmp_path)
        assert (code, err) == (0, "") and json.loads(out)["lhs"]

    def test_radius_beyond_anchors_warns_exit_0(self, capsys, tmp_path):
        code, out, err = self.run_pair(capsys, tmp_path, r=6, s=2)
        assert code == 0 and json.loads(out)["warnings"]
        assert err == "".join(
            f"warning: dataset {side}: r=6 is not the maximal radius (observed 5); "
            "check performed anyway\n"
            for side in "AB"
        )

    @pytest.mark.parametrize("r, s", [(5, 6), (5, 0), (0, 0)])
    def test_rows_outside_radius_exit_2(self, capsys, tmp_path, r, s):
        code, out, err = self.run_pair(capsys, tmp_path, r=r, s=s)
        assert (code, out) == (2, "")
        assert err == f"inconsistent input: need 1 <= s <= r, got r={r}, s={s}\n"

    @pytest.mark.parametrize("r, s", [(5, 6), (5, 0), (0, 0)])
    def test_rows_refused_before_files_are_read(self, capsys, tmp_path, r, s):
        def spoil(doc):
            doc["data"][23]["m"] = "1"

        # the spoiled file alone exits 66, so its schema error must never show
        code, out, err = self.run_pair(capsys, tmp_path, spoil, r=r, s=s)
        assert (code, out) == (2, "")
        assert err == f"inconsistent input: need 1 <= s <= r, got r={r}, s={s}\n"
        code, _, err = run(capsys, "congruence", "/nonexistent", "x", "--r", str(r), "--s", str(s))
        assert code == 2 and err.startswith("inconsistent input: need 1 <= s <= r")

    def test_level_towers_differ_exit_2(self, capsys, tmp_path):
        def extend(doc):
            doc["levels"].append(3)

        code, out, err = self.run_pair(capsys, tmp_path, extend)
        assert (code, out) == (2, "")
        assert err == "inconsistent input: datasets have different level towers\n"

    def test_bumped_m_exit_1(self, capsys, tmp_path):
        def bump(doc):
            doc["data"][19]["m"] += 1

        code, out, _ = self.run_pair(capsys, tmp_path, bump)
        assert code == 1 and json.loads(out)["diffs"]

    def test_bad_type_in_last_record_exit_66(self, capsys, tmp_path):
        def spoil(doc):
            doc["data"][-1]["m"] = "1"

        code, _, err = self.run_pair(capsys, tmp_path, spoil)
        assert code == 66 and "data[23].m: expected an integer" in err


# One valid document per input format, the argv that reads it, and fuzz
# tests that break one field of it, or two or three at once.
CTX = GlobalContext(d=12, pi=PI)
DATASET = dataset_to_dict(generate_dataset(3, CTX, r=4))
DOCUMENTS = {
    "dataset": (DATASET, ["congruence", "{}", "{}", "--r", "4", "--s", "2"]),
    "component": (TRIPLE, ["diagram", "--component", "{}", "--at-r", "4"]),
    "config": (
        {"d": 4, "g": 1, "e_pi": 1, "kappa": "1/2", "pi_id": "pi"},
        ["resolution", "--config", "{}", "--t", "2"],
    ),
}
OTHER_JSON = (None, True, "x", 1.5, 7, [], {})


@st.composite
def mutated_documents(draw, fields=st.just(1)):
    kind = draw(st.sampled_from(sorted(DOCUMENTS)))
    doc = copy.deepcopy(DOCUMENTS[kind][0])
    for _ in range(draw(fields)):
        *parents, key = draw(st.sampled_from(list(field_paths(doc))))
        owner = doc
        for step in parents:
            owner = owner[step]
        value = owner[key]
        choices = ["delete"] + [v for v in OTHER_JSON if type(v) is not type(value)]
        if type(value) is int:
            choices += [0, -1]
        if key in ("base_id", "pi_id"):
            choices.append("ghost")
        choice = draw(st.sampled_from(choices))
        if choice == "delete":
            del owner[key]
        else:
            owner[key] = choice
    return kind, doc


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mutated_documents())
def test_fuzz_one_broken_field(case):
    check_documented_exit(case)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(mutated_documents(fields=st.integers(2, 3)))
def test_fuzz_several_broken_fields(case):
    check_documented_exit(case)


def check_documented_exit(case):
    """Run the command reading the broken document; it ends in a documented
    exit code, never in a traceback."""
    kind, doc = case
    valid, argv = DOCUMENTS[kind]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        broken, intact = Path(tmp) / "broken.json", Path(tmp) / "intact.json"
        broken.write_text(json.dumps(doc))
        intact.write_text(json.dumps(valid))
        paths = iter([str(broken), str(intact)])
        argv = [next(paths) if arg == "{}" else arg for arg in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in {0, 1, 2, 64, 65, 66}, err.getvalue()


@pytest.mark.parametrize(
    "kind, edit, extra",
    [
        ("dataset", lambda doc: doc["context"].update(kappa="1/0"), []),
        ("config", lambda doc: doc.update(kappa="1/0"), []),
        ("config", lambda doc: None, ["--kappa", "1/0"]),
    ],
    ids=["dataset", "config", "flag"],
)
def test_kappa_zero_denominator(capsys, tmp_path, kind, edit, extra):
    doc, argv = copy.deepcopy(DOCUMENTS[kind][0]), DOCUMENTS[kind][1]
    edit(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [str(path) if arg == "{}" else arg for arg in argv] + extra
    code, err = run_exit(capsys, *argv)
    assert code == 2 and err.startswith("inconsistent input:") and "1/0" in err


@pytest.mark.parametrize(
    "kind, edit, extra",
    [
        ("dataset", lambda doc: doc["context"].update(kappa="1e-999999999"), []),
        ("config", lambda doc: doc.update(kappa="1e999999999"), []),
        ("config", lambda doc: None, ["--kappa", "1e999999999"]),
    ],
    ids=["dataset", "config", "flag"],
)
def test_kappa_huge_exponent_refused_at_once(tmp_path, kind, edit, extra):
    # Fraction would expand the exponent into an integer of a billion digits,
    # so the command runs in its own process, under a timeout
    doc, argv = copy.deepcopy(DOCUMENTS[kind][0]), DOCUMENTS[kind][1]
    edit(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [str(path) if arg == "{}" else arg for arg in argv] + extra
    done = subprocess.run(
        [sys.executable, "-m", "spehline.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("inconsistent input:") and "4300" in done.stderr


@pytest.mark.parametrize(
    "text, scale, power",
    [
        ("1e4299", 1, 4299),
        ("1e-4299", 1, -4299),
        ("1e0_004_299", 1, 4299),
        ("1.5E+3", 15, 2),
        ("1e4300", None, None),
        ("1e-4300", None, None),
        ("1e0_004_300", None, None),
        ("12e4299", None, None),
        ("1e4301", None, None),
        ("-2.5e-4301", None, None),
        ("1e4_301", None, None),
        ("1e" + "9" * 5000, None, None),
        ("1e0000000000000004301", None, None),
    ],
    ids=lambda value: value[:24] if isinstance(value, str) else None,
)
def test_kappa_exponent_bound(text, scale, power):
    # numerator and denominator of at most 4300 digits, Python's limit on the
    # digits of an integer string, so the exponent lies below 4300 either way
    if scale is None:
        with pytest.raises(ValueError, match="beyond"):
            _fraction(text)
    else:
        assert _fraction(text) == scale * Fraction(10) ** power


@pytest.mark.parametrize("text", ["1e4300", "12e4299", "1e-4300"])
@pytest.mark.parametrize("kind", ["dataset", "config", "flag"])
def test_kappa_beyond_the_digit_limit(capsys, tmp_path, kind, text):
    # a numerator or denominator of 4301 digits could not be written back
    doc, argv = copy.deepcopy(DOCUMENTS["config" if kind == "flag" else kind])
    if kind == "dataset":
        doc["context"]["kappa"] = text
    elif kind == "config":
        doc["kappa"] = text
    else:
        argv += ["--kappa", text]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, err = run_exit(capsys, *[str(path) if arg == "{}" else arg for arg in argv])
    assert code == 2 and err.startswith("inconsistent input:") and "4300 digits" in err


def test_kappa_at_the_digit_limit_round_trips():
    doc = json.loads((FIXTURES / "congruence_a.json").read_text(encoding="utf-8"))
    doc["context"]["kappa"] = "1e4299"
    written = dataset_to_dict(dataset_from_dict(doc))
    assert written["context"]["kappa"] == str(10**4299)
    assert dataset_from_dict(written).context.kappa == 10**4299


@pytest.mark.parametrize(
    "argv",
    [
        ["diagram", "--s", "2", "--t", "2", "--out", "{missing}/x.txt"],
        ["congruence", "{data}", "{data}", "--r", "4", "--s", "2", "--report", "{missing}/r.json"],
    ],
    ids=["diagram-out", "congruence-report"],
)
def test_unwritable_output(capsys, tmp_path, argv):
    data, missing = tmp_path / "ds.json", tmp_path / "missing"
    data.write_text(json.dumps(DATASET))
    argv = [arg.format(data=data, missing=missing) for arg in argv]
    code, err = run_exit(capsys, *argv)
    assert code == 64 and err.startswith(f"error: cannot write {missing}/")


@pytest.mark.parametrize(
    "argv",
    [
        ["congruence", "{deep}", "{deep}", "--r", "4", "--s", "2"],
        ["diagram", "--component", "{deep}"],
        ["resolution", "--config", "{deep}", "--t", "1"],
    ],
    ids=["congruence", "diagram", "resolution"],
)
def test_json_nested_too_deep(capsys, tmp_path, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    code, err = run_exit(capsys, *[arg.format(deep=deep) for arg in argv])
    assert code == 66 and str(deep) in err


def run_broken_dataset(capsys, tmp_path, edit) -> tuple[int, str]:
    """``congruence`` on a copy of ``DATASET`` changed by ``edit`` and an intact one."""
    doc = copy.deepcopy(DATASET)
    edit(doc)
    broken, intact = tmp_path / "broken.json", tmp_path / "intact.json"
    broken.write_text(json.dumps(doc))
    intact.write_text(json.dumps(DATASET))
    return run_exit(capsys, "congruence", str(broken), str(intact), "--r", "4", "--s", "2")


def _set(path: str, value):
    """An edit that sets the field at ``path`` (keys and indices split by dots)."""
    *parents, key = [int(k) if k.isdigit() else k for k in path.split(".")]

    def edit(doc):
        for step in parents:
            doc = doc[step]
        doc[key] = value

    return edit


def _edits(*edits):
    def edit(doc):
        for one in edits:
            one(doc)

    return edit


def _factorless(factors):
    """Record 0 with ``factors`` replaced and a wildcard that fills the degree."""
    return _edits(
        _set("data.0.local.factors", factors),
        _set("data.0.local.wildcard", {"id": "w0", "degree": 12, "shift_twice": 0}),
    )


# Containers as well as leaves must have their exact type: a string or an
# object iterates like an empty factor list, and the wildcard then fills the
# degree, so only a type check on the list itself rejects these.
@pytest.mark.parametrize(
    "edit, message",
    [
        (_factorless(""), "data[0].local.factors: expected a list"),
        (_factorless({}), "data[0].local.factors: expected a list"),
        (_set("data", {}), "data: expected a list"),
        (_set("data.0.local.wildcard", []), "data[0].local.wildcard: expected an object or null"),
        (_set("data.0.m", True), "data[0].m: expected an integer"),
    ],
    ids=["factors-string", "factors-object", "data-object", "wildcard-list", "m-true"],
)
def test_dataset_container_types(capsys, tmp_path, edit, message):
    code, err = run_broken_dataset(capsys, tmp_path, edit)
    assert (code, err) == (66, f"schema error: {message}\n")


# When several fields are broken, the first one the reader reaches decides
# the error: a record's fields in order (its component is built before ``m``
# is read), records in order, then the torsion profile and the levels, and
# only then the checks across records.
@pytest.mark.parametrize(
    "edit, code, message",
    [
        (
            _edits(_set("data.0.local.s", 0), _set("data.0.m", "x")),
            2,
            "inconsistent input: component needs s >= 1, got 0",
        ),
        (
            _edits(_set("data.0.m", "x"), _set("data.1.local.s", 0)),
            66,
            "schema error: data[0].m: expected an integer",
        ),
        (
            _edits(_set("data.0.m", 0), lambda doc: doc["data"][0].pop("satake")),
            66,
            "schema error: data[0].satake: missing field",
        ),
        (
            _edits(_set("data.1.id", DATASET["data"][0]["id"]), _set("levels", [0, "x"])),
            66,
            "schema error: levels[1]: expected an integer",
        ),
    ],
    ids=["component-before-m", "record-order", "satake-before-m-check", "levels-before-duplicates"],
)
def test_dataset_error_order(capsys, tmp_path, edit, code, message):
    assert run_broken_dataset(capsys, tmp_path, edit) == (code, message + "\n")


# ------------------------------------------------------------ one parser


def call(capsys, argv: list[str]) -> tuple[int, str, str]:
    """Exit status, stdout and stderr, whether ``main`` returns or exits."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_every_call(capsys, tmp_path):
    a, b, s = TestCongruenceCommand().write_pair(tmp_path)
    calls = [
        ["diagram", "--s", "2", "--t"],
        ["diagram", "--s", "2", "--t", "3", "--json"],
        ["congruence", a, b, "--r", "4", "--s", str(s)],
    ]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(call(capsys, argv))
    build_parser.cache_clear()
    parser = build_parser()
    shared = [call(capsys, argv) for argv in calls]
    assert build_parser() is parser
    assert [code for code, _, _ in shared] == [64, 0, 0]
    assert shared == fresh
