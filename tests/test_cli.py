from __future__ import annotations

import contextlib
import copy
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spehline import (
    GlobalContext,
    InertialCuspidal,
    filtration_graded,
    generate_dataset,
    generic_infinitesimal,
    resolution_terms,
    substitute_cuspidal,
)
from spehline import cli
from spehline.cli import build_parser, entry, main
from spehline.jsonio import canonical_dumps, dataset_to_dict

from support import PI, PI_TWIN, field_paths, ledger_listing_to_dict, run_cli

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parent.parent / "src"

GOLDEN_RESOLUTION_4_1_2 = """\
shriek h=2 sign=+1 xi=0 tate=0 deg=4 :: ?Pi[2](2)
shriek h=3 sign=-1 xi=1/2 tate=0 deg=4 :: pi[1] + ?Pi[2](2){-1/2}
shriek h=4 sign=+1 xi=1 tate=0 deg=4 :: pi[1/2] + pi[3/2] + ?Pi[2](2){-1}
intermediate h=2 sign=+1 xi=0 tate=0 deg=4 :: ?Pi[2](2)
"""


# the SVG of a diagram with no point: one column at r = 1, no square
EMPTY_SVG = """\
<svg xmlns="http://www.w3.org/2000/svg" width="66" height="66" viewBox="0 0 66 66">
<line x1="11" y1="22" x2="55" y2="22" stroke="#999" stroke-width="1"/>
<text x="22" y="60" font-size="10" text-anchor="middle">1</text>
</svg>
"""


def assert_usage(capsys, command: str, message: str) -> None:
    """The usage of ``spehline <command>``, then ``error: <message>``, on stderr alone."""
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == "" and lines[0].startswith(f"usage: spehline {command} ")
    assert lines[-1] == f"error: {message}"


class TestDiagramCommand:
    def test_single_square(self):
        code, out, _ = run_cli("diagram", "--s", "1", "--t", "3", "--ascii")
        assert code == 0
        row = next(line for line in out.splitlines() if line.startswith("i=  0"))
        assert row.split("| ")[1] == ". . #"
        assert out.count("#") == 1

    def test_speh_triangle_point_count(self):
        code, out, _ = run_cli("diagram", "--s", "4", "--t", "1")
        assert code == 0
        assert out.count("#") == 10

    def test_json_output_roundtrips(self):
        code, out, _ = run_cli("diagram", "--s", "2", "--t", "2", "--json")
        assert code == 0
        obj = json.loads(out)
        assert canonical_dumps(obj) == out.strip()
        assert {(p["r"], p["i"]) for p in obj["points"]} == {
            (1, 0), (2, -1), (2, 1), (3, 0),
        }

    def test_component_constituents(self):
        code, out, _ = run_cli(
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
    def test_component_without_support_at_r(self, r):
        code, out, err = run_cli(
            "diagram",
            "--component",
            str(FIXTURES / "triple_component.json"),
            "--at-r",
            str(r),
        )
        assert code == 2
        assert out == ""
        assert err == f"no support at ({r},0)\n"

    def test_svg_smoke(self):
        code, out, _ = run_cli("diagram", "--s", "3", "--t", "2", "--svg")
        assert code == 0
        assert out.startswith("<svg") and out.count("<rect") == 8

    @pytest.mark.parametrize(
        "flag, check",
        [
            ("--ascii", lambda out: out == "(empty diagram)\n"),
            ("--json", lambda out: '"points":[]' in out),
            ("--svg", lambda out: out == EMPTY_SVG),
        ],
    )
    def test_component_without_factors(self, tmp_path, flag, check):
        # a lone wildcard carries no point of the diagram
        doc = copy.deepcopy(TRIPLE)
        doc.update(factors=[], wildcard={"id": "w", "degree": 4})
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli("diagram", "--component", str(path), flag)
        assert code == 0 and check(out)

    def test_component_render_counts_factors(self):
        code, out, _ = run_cli("diagram", "--component", str(FIXTURES / "triple_component.json"))
        assert code == 0
        row = next(line for line in out.splitlines() if line.startswith("i=  0"))
        assert "3" in row  # (4, 0) carries all three factors

    def test_out_file(self, tmp_path):
        target = tmp_path / "d.svg"
        code, out, _ = run_cli("diagram", "--s", "1", "--t", "1", "--svg", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("<svg")

    def test_constituents_out_file(self, tmp_path):
        argv = ["diagram", "--component", str(FIXTURES / "triple_component.json"), "--at-r", "4"]
        _, printed, _ = run_cli(*argv)
        target = tmp_path / "x.txt"
        code, out, _ = run_cli(*argv, "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == printed
        code, _, err = run_cli(*argv, "--out", str(tmp_path / "missing" / "x.txt"))
        assert code == 64 and err.startswith("error: cannot write")

    def test_usage_error(self, capsys):
        assert main(["diagram", "--s", "one", "--t", "3"]) == 64
        assert_usage(capsys, "diagram", "argument --s: invalid int value: 'one'")

    def test_missing_shape_flags(self, capsys):
        assert main(["diagram"]) == 64
        assert_usage(capsys, "diagram", "either --component or both --s and --t are required")

    def test_at_r_requires_component(self, capsys):
        assert main(["diagram", "--s", "2", "--t", "2", "--at-r", "3"]) == 64
        assert_usage(capsys, "diagram", "--at-r needs a --component file")


class TestLedgerCommands:
    def test_resolution_golden_text(self):
        code, out, _ = run_cli("resolution", "--d", "4", "--g", "1", "--t", "2")
        assert code == 0
        assert out == GOLDEN_RESOLUTION_4_1_2

    def test_degree_column_constant(self):
        code, out, _ = run_cli("filtration", "--d", "12", "--g", "3", "--t", "1")
        assert code == 0
        for line in out.splitlines():
            assert "deg=12" in line

    def test_top_stratum_two_lines(self):
        code, out, _ = run_cli("resolution", "--d", "6", "--g", "2", "--t", "3")
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_missing_d_and_g(self, capsys):
        assert main(["resolution", "--t", "1"]) == 64
        assert_usage(capsys, "resolution", "the following arguments are required: --d, --g")

    def test_stratum_out_of_range_exit_65(self):
        code, _, err = run_cli("resolution", "--d", "4", "--g", "1", "--t", "5")
        assert code == 65
        assert "s_g" in err

    def test_config_is_an_unknown_flag(self):
        code, out, err = run_cli("resolution", "--d", "4", "--g", "1", "--t", "2", "--config", "x.json")
        assert (code, out) == (64, "") and "unrecognized arguments: --config x.json" in err

    def test_json_listing(self):
        code, out, _ = run_cli("resolution", "--d", "4", "--g", "1", "--t", "2", "--json")
        assert code == 0
        obj = json.loads(out)
        assert [t["stratum"] for t in obj["terms"]] == [2, 3, 4, 2]

    @pytest.mark.parametrize("command", ["resolution", "filtration"])
    def test_json_listing_escapes_the_id(self, command):
        # a quote, a backslash, a non-ASCII letter and an astral character
        pi_id = 'a"b\\é𝔭'
        ctx = GlobalContext(d=4, pi=InertialCuspidal(pi_id, g=1))
        expand = resolution_terms if command == "resolution" else filtration_graded
        doc = ledger_listing_to_dict(4, 1, 2, expand(ctx, 2, generic_infinitesimal(ctx, 2)))
        want = canonical_dumps(doc) + "\n"
        assert '"base_id":"a\\"b\\\\\\u00e9\\ud835\\udd2d"' in want
        flags = ("--d", "4", "--g", "1", "--t", "2", "--json")
        assert run_cli(command, *flags, "--pi-id", pi_id) == (0, want, "")


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

    def test_substituted_pair_exit_0(self, tmp_path):
        a, b, s = self.write_pair(tmp_path)
        code, out, _ = run_cli("congruence", a, b, "--r", "4", "--s", str(s))
        assert code == 0
        assert json.loads(out)["equal"] is True

    def test_mutated_pair_exit_1(self, tmp_path):
        a, b, s = self.write_pair(tmp_path)
        obj = json.loads(Path(b).read_text())
        obj["data"][0]["m"] += 1
        Path(b).write_text(canonical_dumps(obj))
        code, out, _ = run_cli("congruence", a, b, "--r", "4", "--s", str(s))
        assert code == 1
        report = json.loads(out)
        assert report["equal"] is False and report["diffs"]

    def test_torsion_inconsistent_exit_2(self, tmp_path):
        a, b, s = self.write_pair(tmp_path)
        obj = json.loads(Path(a).read_text())
        obj["torsion"] = {"t0": None, "tau": [1, 0, 0]}
        Path(a).write_text(canonical_dumps(obj))
        code, _, err = run_cli("congruence", a, b, "--r", "4", "--s", str(s))
        assert code == 2
        assert "inconsistent" in err

    def test_schema_violation_exit_66(self, tmp_path):
        a, b, s = self.write_pair(tmp_path)
        obj = json.loads(Path(a).read_text())
        del obj["data"][0]["inv_dim"]
        Path(a).write_text(canonical_dumps(obj))
        code, _, err = run_cli("congruence", a, b, "--r", "4", "--s", str(s))
        assert code == 66
        assert "data[0].inv_dim" in err

    def test_level_order_ignored(self, tmp_path):
        a, b, s = self.write_pair(tmp_path)
        obj = json.loads(Path(b).read_text())
        obj["levels"].reverse()
        Path(b).write_text(canonical_dumps(obj))
        code, out, _ = run_cli("congruence", a, b, "--r", "4", "--s", str(s))
        assert code == 0
        assert json.loads(out)["equal"] is True

    def test_duplicate_id_exit_2(self, tmp_path):
        a, b, s = self.write_pair(tmp_path)
        obj = json.loads(Path(a).read_text())
        obj["data"][1]["id"] = obj["data"][0]["id"]
        Path(a).write_text(canonical_dumps(obj))
        code, _, err = run_cli("congruence", a, b, "--r", "4", "--s", str(s))
        assert code == 2
        assert f"duplicate datum id {obj['data'][0]['id']!r}" in err

    def test_class_on_two_gl_exit_2(self, tmp_path):
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
        code, _, err = run_cli("congruence", a, b, "--r", "4", "--s", str(s))
        assert code == 2
        assert "mod-l class 'a' holds 'pi' on GL_1 and 'rho' on GL_2" in err

    def test_empty_class_exit_2(self, tmp_path):
        # read as the label's own id, "" would put x in y's class "x"
        a, b, s = self.write_pair(tmp_path)
        obj = json.loads(Path(a).read_text())
        obj["cuspidals"]["x"] = {"g": 1, "e_pi": 1, "modl_class": ""}
        obj["cuspidals"]["y"] = {"g": 1, "e_pi": 1, "modl_class": "x"}
        Path(a).write_text(canonical_dumps(obj))
        code, out, err = run_cli("congruence", a, b, "--r", "4", "--s", str(s))
        assert (code, out) == (2, "")
        assert err == f"inconsistent input: {a}: cuspidals[x].modl_class: empty mod-l class\n"

    def test_class_with_a_parenthesis_exit_2(self, tmp_path):
        # written inside rl(...), "q) x rl(w" would give A's record the key of
        # B's three-factor record: 1*R_rl(a)(1,1)(1,0) x rl(q) x rl(w) [xi_1, Xi^0]
        def write(name: str, classes: dict[str, tuple[int, str]]) -> str:
            path = tmp_path / name
            path.write_text(canonical_dumps({
                "schema_version": 1,
                "context": {"d": 3, "pi_id": "pi"},
                "cuspidals": {
                    cid: {"g": g, "e_pi": 1, "modl_class": c} for cid, (g, c) in classes.items()
                },
                "data": [{
                    "id": "x",
                    "local": {"s": 1, "factors": [{"t": 1, "base_id": cid} for cid in classes]},
                    "m": 1, "d_xi": 1, "inv_dim": 1, "satake": "h",
                }],
                "torsion": {"t0": None, "tau": [0]},
                "levels": [0],
            }))
            return str(path)

        a = write("a.json", {"pi": (1, "a"), "z": (2, "q) x rl(w")})
        b = write("b.json", {"pi": (1, "a"), "q": (1, "q"), "w": (1, "w")})
        code, out, err = run_cli("congruence", a, b, "--r", "1", "--s", "1")
        assert (code, out) == (2, "")
        assert err == (
            f"inconsistent input: {a}: mod-l class 'q) x rl(w' of 'z' holds a parenthesis\n"
        )

    def test_files_disagree_on_an_id_exit_2(self, tmp_path):
        a, b, s = self.write_pair(tmp_path)
        obj = json.loads(Path(b).read_text())
        shared = min(set(obj["cuspidals"]) & set(json.loads(Path(a).read_text())["cuspidals"]))
        obj["cuspidals"][shared]["e_pi"] += 1
        Path(b).write_text(canonical_dumps(obj))
        code, _, err = run_cli("congruence", a, b, "--r", "4", "--s", str(s))
        assert code == 2
        assert f"cuspidal id {shared!r} names two labels" in err

    def test_ambient_degrees_differ_exit_2(self, tmp_path):
        a, _, s = self.write_pair(tmp_path)
        other = generate_dataset(21, GlobalContext(d=14, pi=PI_TWIN), r=4)
        b = tmp_path / "b14.json"
        b.write_text(canonical_dumps(dataset_to_dict(other)))
        code, out, err = run_cli("congruence", a, str(b), "--r", "4", "--s", str(s))
        assert (code, out) == (2, "")
        assert err == "inconsistent input: datasets have different ambient degrees\n"

    def test_report_file(self, tmp_path):
        a, b, s = self.write_pair(tmp_path)
        report = tmp_path / "report.json"
        code, out, _ = run_cli(
            "congruence", a, b, "--r", "4", "--s", str(s),
            "--report", str(report),
        )
        assert code == 0
        assert out.strip() == "equal"
        assert json.loads(report.read_text())["exit_code"] == 0

    def test_report_file_unequal(self, tmp_path):
        a, b, s = self.write_pair(tmp_path)
        obj = json.loads(Path(b).read_text())
        obj["data"][0]["m"] += 1
        Path(b).write_text(canonical_dumps(obj))
        report = tmp_path / "report.json"
        code, out, _ = run_cli(
            "congruence", a, b, "--r", "4", "--s", str(s),
            "--report", str(report),
        )
        assert (code, out) == (1, "unequal\n")
        assert json.loads(report.read_text())["exit_code"] == 1


# ------------------------------------------------------------ malformed input

TRIPLE = json.loads((FIXTURES / "triple_component.json").read_text())


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
                "inconsistent input: {file}: cuspidals[pi].modl_class: empty mod-l class",
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
    def test_component(self, tmp_path, edit, code, where):
        doc = copy.deepcopy(TRIPLE)
        edit(doc)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        got, _, err = run_cli("diagram", "--component", str(path))
        assert got == code and str(path) in err and where.format(file=path) in err

    def test_shape_out_of_range(self):
        code, _, err = run_cli("diagram", "--s", "0", "--t", "2")
        assert code == 2 and "positive" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--d", "4", "--g", "0"], "g must be >= 1, got 0"),
            (["--d", "4", "--g", "1", "--e-pi", "0"], "e_pi must be >= 1, got 0"),
            (["--d", "2", "--g", "3"], "need d >= g, got d=2, g=3"),
        ],
        ids=["flag-g", "flag-e-pi", "flag-d-below-g"],
    )
    def test_setting_out_of_range(self, flags, message):
        code, _, err = run_cli("resolution", *flags, "--t", "1")
        assert (code, err) == (2, f"inconsistent input: {message}\n")

    def test_directory_path(self, tmp_path):
        code, _, err = run_cli("diagram", "--component", str(tmp_path))
        assert code == 64 and str(tmp_path) in err

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"s": "\xff"}')
        code, _, err = run_cli("diagram", "--component", str(path))
        assert code == 66 and "not valid JSON" in err


class TestConsoleScript:
    """The installed ``spehline`` script is ``cli.entry``: it reads
    ``sys.argv`` and exits with ``main``'s code."""

    def test_entry_runs_the_command_line(self, capsys, monkeypatch):
        # a text match: Python 3.10 has no tomllib
        pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
        assert 'spehline = "spehline.cli:entry"' in pyproject.splitlines()
        monkeypatch.setattr(sys, "argv", ["spehline", "diagram", "--s", "1", "--t", "3", "--ascii"])
        with pytest.raises(SystemExit) as err:
            entry()
        assert err.value.code == 0
        assert capsys.readouterr() == ("i=  0 | . . #\n      +------\n     r: 1 2 3\n", "")


class TestCheckedInPair:
    """``fixtures/congruence_{a,b}.json``: twin files with anchor records at
    radii 2 to 5."""

    def run_pair(self, tmp_path, edit=None, r=5, s=5) -> tuple[int, str, str]:
        a, b = FIXTURES / "congruence_a.json", FIXTURES / "congruence_b.json"
        if edit is not None:
            doc = json.loads(b.read_text(encoding="utf-8"))
            edit(doc)
            b = tmp_path / "b.json"
            b.write_text(json.dumps(doc), encoding="utf-8")
        return run_cli("congruence", str(a), str(b), "--r", str(r), "--s", str(s))

    def test_twins_exit_0(self, tmp_path):
        code, out, err = self.run_pair(tmp_path)
        assert (code, err) == (0, "") and json.loads(out)["lhs"]

    def test_radius_beyond_anchors_warns_exit_0(self, tmp_path):
        code, out, err = self.run_pair(tmp_path, r=6, s=2)
        assert code == 0 and json.loads(out)["warnings"]
        assert err == "".join(
            f"warning: dataset {side}: r=6 is not the maximal radius (observed 5); "
            "check performed anyway\n"
            for side in "AB"
        )

    @pytest.mark.parametrize("r, s", [(5, 6), (5, 0), (0, 0)])
    def test_rows_outside_radius_exit_2(self, tmp_path, r, s):
        code, out, err = self.run_pair(tmp_path, r=r, s=s)
        assert (code, out) == (2, "")
        assert err == f"inconsistent input: need 1 <= s <= r, got r={r}, s={s}\n"

    @pytest.mark.parametrize("r, s", [(5, 6), (5, 0), (0, 0)])
    def test_rows_refused_before_files_are_read(self, tmp_path, r, s):
        def spoil(doc):
            doc["data"][23]["m"] = "1"

        # the spoiled file alone exits 66, so its schema error must never show
        code, out, err = self.run_pair(tmp_path, spoil, r=r, s=s)
        assert (code, out) == (2, "")
        assert err == f"inconsistent input: need 1 <= s <= r, got r={r}, s={s}\n"
        code, _, err = run_cli("congruence", "/nonexistent", "x", "--r", str(r), "--s", str(s))
        assert code == 2 and err.startswith("inconsistent input: need 1 <= s <= r")

    def test_level_towers_differ_exit_2(self, tmp_path):
        def extend(doc):
            doc["levels"].append(3)

        code, out, err = self.run_pair(tmp_path, extend)
        assert (code, out) == (2, "")
        assert err == "inconsistent input: datasets have different level towers\n"

    def test_bumped_m_exit_1(self, tmp_path):
        def bump(doc):
            doc["data"][19]["m"] += 1

        code, out, _ = self.run_pair(tmp_path, bump)
        assert code == 1 and json.loads(out)["diffs"]

    def test_bad_type_in_last_record_exit_66(self, tmp_path):
        def spoil(doc):
            doc["data"][-1]["m"] = "1"

        code, _, err = self.run_pair(tmp_path, spoil)
        assert code == 66 and "data[23].m: expected an integer" in err

    def test_first_of_two_bad_types_wins_exit_66(self, tmp_path):
        def spoil_twice(doc):
            doc["data"][-1]["m"] = "1"
            doc["data"][2]["m"] = "1"

        code, out, err = self.run_pair(tmp_path, spoil_twice)
        assert (code, out) == (66, "")
        assert err == f"schema error: {tmp_path / 'b.json'}: data[2].m: expected an integer\n"

    def test_wildcard_one_degree_too_large_exit_2(self, tmp_path):
        def heavier(doc):
            doc["data"][0]["local"]["wildcard"]["degree"] += 1

        code, out, err = self.run_pair(tmp_path, heavier)
        assert (code, out) == (2, "")
        assert err == f"inconsistent input: {tmp_path / 'b.json'}: datum 'r2.dat0' has degree 13, expected 12\n"

    def test_repeated_id_does_not_hide_a_later_bad_type_exit_66(self, tmp_path):
        # a repeated id alone exits 2, but only once every record is read
        def repeat_and_spoil(doc):
            doc["data"][1]["id"] = doc["data"][0]["id"]
            doc["data"][-1]["m"] = "1"

        code, out, err = self.run_pair(tmp_path, repeat_and_spoil)
        assert (code, out) == (66, "")
        assert err == f"schema error: {tmp_path / 'b.json'}: data[23].m: expected an integer\n"


# ------------------------------------------------------------ standard output

PAIR = [str(FIXTURES / "congruence_a.json"), str(FIXTURES / "congruence_b.json"), "--r", "5", "--s", "5"]
NO_SPACE = f"error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n"


class _Unwritable(io.StringIO):
    """A standard output whose every write raises ``fault``."""

    def __init__(self, fault: OSError):
        super().__init__()
        self.fault = fault

    def write(self, text):
        raise self.fault


@pytest.mark.parametrize(
    "fault, stderr",
    [
        (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), NO_SPACE),
        (BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)), ""),
    ],
    ids=["no-space", "broken-pipe"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["diagram", "--s", "2", "--t", "2", "--ascii"],
        ["resolution", "--d", "4", "--g", "1", "--t", "2", "--json"],
        ["congruence", *PAIR],
        ["congruence", *PAIR, "--report", "{report}"],
        ["--help"],
    ],
    ids=["diagram", "resolution", "congruence-report", "congruence-verdict", "help"],
)
def test_stdout_fault_exit_64(tmp_path, argv, fault, stderr):
    # with --report, the report is written and the verdict line is what fails
    report = tmp_path / "report.json"
    stdout, err = sys.stdout, io.StringIO()
    with contextlib.redirect_stdout(_Unwritable(fault)), contextlib.redirect_stderr(err):
        code = main([arg.format(report=report) for arg in argv])
    assert (code, err.getvalue()) == (64, stderr)
    assert sys.stdout is stdout
    if "--report" in argv:
        assert json.loads(report.read_text(encoding="utf-8"))["equal"] is True


def write_pi_component(tmp_path: Path) -> str:
    """The triple component with its base id renamed ``π``, a character
    ASCII cannot encode."""
    doc = copy.deepcopy(TRIPLE)
    for factor in doc["factors"]:
        factor["base_id"] = "π"
    doc["cuspidals"] = {"π": doc["cuspidals"].pop("pi")}
    path = tmp_path / "pi.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestStdoutEncoding:
    """Valid text that stdout's encoding cannot write is a stdout fault
    (64), not inconsistent input (2); an ``--out`` file is always UTF-8."""

    def test_ascii_stdout_exit_64(self, tmp_path):
        argv = ["diagram", "--component", write_pi_component(tmp_path), "--at-r", "4"]
        stdout, err = io.TextIOWrapper(io.BytesIO(), encoding="ascii"), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
            code = main(argv)
        lines = err.getvalue().splitlines()
        assert (code, len(lines)) == (64, 1)
        assert lines[0].startswith("error: cannot write standard output: 'ascii' codec can't encode")
        assert stdout.buffer.getvalue() == b""

    def test_out_file_is_utf8(self, tmp_path):
        argv = ["diagram", "--component", write_pi_component(tmp_path), "--at-r", "4"]
        _, printed, _ = run_cli(*argv)
        target = tmp_path / "x.txt"
        assert run_cli(*argv, "--out", str(target)) == (0, "", "")
        assert target.read_bytes() == printed.encode("utf-8")
        assert "R_π(4,3)(4,0)" in printed


class TestStdoutFaultsInAProcess:
    """What only a process shows: a fault raised at a write or at ``main``'s
    flush, and an exit flush that must not fail a second time (exit 120)."""

    @staticmethod
    def spawn(argv: list[str], stdout, **extra_env: str) -> subprocess.Popen:
        # buffered, as by default, so a short verdict line fails only at a flush
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        return subprocess.Popen(
            [sys.executable, "-m", "spehline.cli", *argv],
            env={**env, "PYTHONPATH": str(SRC), **extra_env},
            stdout=stdout, stderr=subprocess.PIPE, text=True,
        )

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("extra", [[], ["--report", "{report}"]], ids=["report", "verdict-line"])
    def test_full_disk(self, tmp_path, extra):
        argv = ["congruence", *PAIR, *[arg.format(report=tmp_path / "r.json") for arg in extra]]
        with open("/dev/full", "w") as full:
            proc = self.spawn(argv, full)
            _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (64, NO_SPACE)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [["--help"], ["congruence", "--help"]], ids=["help", "subcommand-help"])
    @pytest.mark.parametrize("env", [{}, {"PYTHONUNBUFFERED": "1"}], ids=["buffered", "unbuffered"])
    def test_help_into_a_full_disk(self, argv, env):
        # argparse writes the help and exits before main's own flush
        with open("/dev/full", "w") as full:
            proc = self.spawn(argv, full, **env)
            _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (64, NO_SPACE)

    def test_stdout_encoding_cannot_write_the_text(self, tmp_path):
        argv = ["diagram", "--component", write_pi_component(tmp_path), "--at-r", "4"]
        proc = self.spawn(argv, subprocess.PIPE, PYTHONIOENCODING="ascii")
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out) == (64, "")
        assert err.startswith("error: cannot write standard output: 'ascii' codec can't encode")
        assert err.count("\n") == 1

    def test_pipe_closed_by_its_reader(self):
        # the listing is larger than a pipe holds, so it cannot all be written
        # before the reader closes its end
        proc = self.spawn(["filtration", "--d", "400", "--g", "1", "--t", "1", "--json"], subprocess.PIPE)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (64, "")


# One valid document per input format, the argv that reads it, and fuzz
# tests that break one field of it, or two or three at once.
CTX = GlobalContext(d=12, pi=PI)
DATASET = dataset_to_dict(generate_dataset(3, CTX, r=4))
DOCUMENTS = {
    "dataset": (DATASET, ["congruence", "{}", "{}", "--r", "4", "--s", "2"]),
    "component": (TRIPLE, ["diagram", "--component", "{}", "--at-r", "4"]),
}
OTHER_JSON = (None, True, "x", 1.5, 7, [], {})
LONE_SURROGATE = "\ud800x"  # a JSON escape can write it; UTF-8 cannot


class TestLoneSurrogates:
    """A string that UTF-8 cannot encode is refused where its file is read
    (66), with the field's path, in every kind of file; an escaped pair is
    one character and reads."""

    ROWS = {
        "component-base": ("component", lambda doc: doc["factors"][1].update(base_id=LONE_SURROGATE), "factors[1].base_id"),
        "component-key": ("component", lambda doc: doc["cuspidals"].update({"\udfff": {"g": 1}}), "cuspidals.\\udfff"),
        "dataset-id": ("dataset", lambda doc: doc["data"][2].update(id="a\udc00"), "data[2].id"),
        "dataset-satake": ("dataset", lambda doc: doc["data"][0].update(satake=LONE_SURROGATE), "data[0].satake"),
    }

    @staticmethod
    def write(tmp_path, kind, edit) -> list[str]:
        valid, argv = DOCUMENTS[kind]
        doc = copy.deepcopy(valid)
        edit(doc)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        intact = tmp_path / "intact.json"
        intact.write_text(json.dumps(valid), encoding="utf-8")
        paths = iter([str(path), str(intact)])
        return [next(paths) if arg == "{}" else arg for arg in argv]

    @pytest.mark.parametrize("kind, edit, where", ROWS.values(), ids=ROWS.keys())
    def test_refused_at_read(self, tmp_path, kind, edit, where):
        argv = self.write(tmp_path, kind, edit)
        code, _, err = run_cli(*argv)
        message = f"schema error: {tmp_path / 'doc.json'}: {where}: a lone surrogate, which UTF-8 cannot encode\n"
        assert (code, err) == (66, message)

    @pytest.mark.parametrize("base", ["\U0001f600", "\\ud800"], ids=["surrogate-pair", "escaped-backslash"])
    def test_encodable_ids_read(self, tmp_path, base):
        def rename(doc):
            doc["factors"][1]["base_id"] = base
            doc["cuspidals"][base] = doc["cuspidals"]["pi"]

        argv = self.write(tmp_path, "component", rename)
        if base == "\U0001f600":  # json.dumps writes the pair as two escapes, which the scan finds
            assert "\\ud83d\\ude00" in (tmp_path / "doc.json").read_text()
        code, out, err = run_cli(*argv)
        assert (code, err) == (0, "") and f"R_{base}(4,3)(4,0)" in out

    @pytest.mark.parametrize("extra", [[], ["--json"], ["--out", "{out}"]], ids=["text", "json", "out-file"])
    def test_pi_id_flag_refused_at_parse(self, capsys, tmp_path, extra):
        # a byte the command line cannot decode reaches argv as a lone surrogate
        out = tmp_path / "l.txt"
        argv = ["resolution", "--d", "4", "--g", "1", "--t", "2", "--pi-id", "\udcff"]
        assert main([*argv, *[arg.format(out=out) for arg in extra]]) == 64
        assert_usage(capsys, "resolution", "argument --pi-id: a lone surrogate, which UTF-8 cannot encode")
        assert not out.exists()

    def test_pi_id_flag_encodable_reads(self):
        code, out, err = run_cli("resolution", "--d", "4", "--g", "1", "--t", "2", "--pi-id", "\U0001f600")
        assert (code, err) == (0, "")
        assert out == GOLDEN_RESOLUTION_4_1_2.replace("pi[", "\U0001f600[")

    def test_only_a_surrogate_escape_is_walked(self, monkeypatch):
        # the walk asks _SURROGATE of each string; a text without an escape has no walk
        asked = []
        monkeypatch.setattr(cli, "_SURROGATE", types.SimpleNamespace(search=asked.append))
        json.loads(json.dumps(TRIPLE), cls=cli._Decoder)
        assert asked == []
        json.loads(json.dumps({"id": "\U0001f600"}), cls=cli._Decoder)
        assert asked == ["id", "\U0001f600"]


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
        if isinstance(value, str):
            choices.append(LONE_SURROGATE)
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
    with tempfile.TemporaryDirectory() as tmp:
        broken, intact = Path(tmp) / "broken.json", Path(tmp) / "intact.json"
        broken.write_text(json.dumps(doc))
        intact.write_text(json.dumps(valid))
        paths = iter([str(broken), str(intact)])
        code, _, err = run_cli(*[next(paths) if arg == "{}" else arg for arg in argv])
    assert code in {0, 1, 2, 64, 65, 66}, err


@pytest.mark.parametrize("kind", ["dataset", "flag"])
def test_kappa_zero_denominator(tmp_path, kind):
    """``kappa`` is read nowhere: a file's ``kappa``, a zero denominator, a
    list or none at all, gives the exit code and output of ``"1"``, and
    ``--kappa`` is an unknown flag."""
    if kind == "flag":
        code, out, err = run_cli("resolution", "--d", "4", "--g", "1", "--t", "2", "--kappa", "1")
        assert (code, out) == (64, "") and "unrecognized arguments: --kappa 1" in err
        return
    doc, argv = DOCUMENTS[kind]
    path = tmp_path / "doc.json"

    def outcome(kappa):
        edited = copy.deepcopy(doc)
        if kappa is not None:
            edited["context"]["kappa"] = kappa
        path.write_text(json.dumps(edited))
        return run_cli(*[str(path) if arg == "{}" else arg for arg in argv])[:2]

    expected = outcome("1")
    assert expected[0] == 0
    assert [outcome(kappa) for kappa in ("1/0", [], None)] == [expected] * 3


@pytest.mark.parametrize(
    "argv, refusal",
    [
        (["diagram", "--s", "2", "--t", "2", "--out", "{missing}/x.txt"], "cannot write {missing}/"),
        (
            ["congruence", "{data}", "{data}", "--r", "4", "--s", "2", "--report", "{missing}/r.json"],
            "cannot write {missing}/",
        ),
        # an empty path is a path, one that no file has
        (["diagram", "--s", "1", "--t", "2", "--out", ""], "cannot write '': "),
        (["congruence", "{data}", "{data}", "--r", "4", "--s", "2", "--report", ""], "cannot write '': "),
        (["diagram", "--component", ""], "cannot read '': "),
    ],
    ids=[
        "diagram-out", "congruence-report", "diagram-empty-out", "congruence-empty-report",
        "diagram-empty-component",
    ],
)
def test_unwritable_output(tmp_path, argv, refusal):
    data, missing = tmp_path / "ds.json", tmp_path / "missing"
    data.write_text(json.dumps(DATASET))
    argv = [arg.format(data=data, missing=missing) for arg in argv]
    code, out, err = run_cli(*argv)
    assert (code, out) == (64, "") and err.startswith("error: " + refusal.format(missing=missing))


@pytest.mark.parametrize(
    "argv",
    [
        ["congruence", "{deep}", "{deep}", "--r", "4", "--s", "2"],
        ["diagram", "--component", "{deep}"],
    ],
    ids=["congruence", "diagram"],
)
def test_json_nested_too_deep(tmp_path, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    code, _, err = run_cli(*[arg.format(deep=deep) for arg in argv])
    assert code == 66 and str(deep) in err


def run_broken_dataset(tmp_path, edit, first: bool = True) -> tuple[int, str]:
    """``congruence`` on a copy of ``DATASET`` changed by ``edit`` and an
    intact one, the broken file first or second.  Exit code and stderr,
    which names the broken file, shown as ``{file}``, and not the intact one."""
    doc = copy.deepcopy(DATASET)
    edit(doc)
    broken, intact = tmp_path / "broken.json", tmp_path / "intact.json"
    broken.write_text(json.dumps(doc))
    intact.write_text(json.dumps(DATASET))
    pair = [str(broken), str(intact)][:: 1 if first else -1]
    code, _, err = run_cli("congruence", *pair, "--r", "4", "--s", "2")
    assert str(intact) not in err
    return code, err.replace(str(broken), "{file}")


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
def test_dataset_container_types(tmp_path, edit, message):
    code, err = run_broken_dataset(tmp_path, edit)
    assert (code, err) == (66, f"schema error: {{file}}: {message}\n")


# When several fields are broken, the first one the reader reaches decides
# the error: a record's fields in order (its component is built before ``m``
# is read), records in order, then the torsion profile and the levels, and
# only then the checks across records.  Whichever file is broken, first or
# second, the error names it.
@pytest.mark.parametrize(
    "edit, code, message, first",
    [
        (
            _edits(_set("data.0.local.s", 0), _set("data.0.m", "x")),
            2,
            "inconsistent input: {file}: component needs s >= 1, got 0",
            True,
        ),
        (
            _edits(_set("data.0.m", "x"), _set("data.1.local.s", 0)),
            66,
            "schema error: {file}: data[0].m: expected an integer",
            True,
        ),
        (
            _edits(_set("data.0.m", 0), lambda doc: doc["data"][0].pop("satake")),
            66,
            "schema error: {file}: data[0].satake: missing field",
            True,
        ),
        (
            _edits(_set("data.1.id", DATASET["data"][0]["id"]), _set("levels", [0, "x"])),
            66,
            "schema error: {file}: levels[1]: expected an integer",
            True,
        ),
        (_set("data.0.m", "x"), 66, "schema error: {file}: data[0].m: expected an integer", False),
        (
            _set("data.1.id", DATASET["data"][0]["id"]),
            2,
            f"inconsistent input: {{file}}: duplicate datum id {DATASET['data'][0]['id']!r}",
            False,
        ),
        *[
            (
                _set("data.0.satake", LONE_SURROGATE),
                66,
                "schema error: {file}: data[0].satake: a lone surrogate, which UTF-8 cannot encode",
                first,
            )
            for first in (True, False)
        ],
    ],
    ids=[
        "component-before-m", "record-order", "satake-before-m-check", "levels-before-duplicates",
        "schema-second", "invariant-second", "surrogate-first", "surrogate-second",
    ],
)
def test_dataset_error_order(tmp_path, edit, code, message, first):
    assert run_broken_dataset(tmp_path, edit, first) == (code, message + "\n")


# ------------------------------------------------------------ one parser


def test_one_parser_serves_every_call(tmp_path):
    a, b, s = TestCongruenceCommand().write_pair(tmp_path)
    calls = [
        ["diagram", "--s", "2", "--t"],
        ["diagram", "--s", "2", "--t", "3", "--json"],
        ["congruence", a, b, "--r", "4", "--s", str(s)],
    ]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run_cli(*argv))
    build_parser.cache_clear()
    parser = build_parser()
    shared = [run_cli(*argv) for argv in calls]
    assert build_parser() is parser
    assert [code for code, _, _ in shared] == [64, 0, 0]
    assert shared == fresh
