"""``tools/same_outputs.py`` on tiny trees: one message differs, or tier-1 does not run whole."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

TOOL = (Path(__file__).parent.parent / "tools" / "same_outputs.py").read_text(encoding="utf-8")

CLI = '''import sys


def main(argv=None):
    if argv == ["hello"]:
        print("hello")
        return 0
    with open(argv[1], encoding="utf-8") as fh:
        print(f"{argv[0]}: {fh.read()}: {MESSAGE}", file=sys.stderr)
    return 64
'''
TESTS = '''from spehline.cli import main


def test_hello():
    assert main(["hello"]) == 0


def test_refusal(tmp_path):
    (tmp_path / "in.txt").write_text("read")
    assert main(["refuse", str(tmp_path / "in.txt")]) == 64
'''


def tree(at: Path, message: str, tests: str = TESTS) -> Path:
    for path, text in (
        ("src/spehline/__init__.py", ""),
        ("src/spehline/cli.py", CLI + f"\n\nMESSAGE = {message!r}\n"),
        ("tests/test_cli.py", tests),
        ("tools/same_outputs.py", TOOL),
    ):
        (at / path).parent.mkdir(parents=True, exist_ok=True)
        (at / path).write_text(text, encoding="utf-8")
    return at


def compare(changed: Path, parent: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(changed / "tools" / "same_outputs.py"), str(parent)],
        capture_output=True, text=True, timeout=60,
    )


def test_reports_the_one_call_whose_message_differs(tmp_path):
    parent = tree(tmp_path / "parent", "cannot refuse")
    changed = tree(tmp_path / "changed", "will not refuse")
    proc = compare(changed, parent)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(" in ")[0] for line in lines if line.startswith("tier-1")] == [
        "tier-1 at parent: 2 passed", "tier-1 at tree: 2 passed",
    ]
    assert "calls recorded: parent 2, tree 2; 2 distinct, each replayed on both trees" in lines
    differs = [line for line in lines if line.startswith("differs:")]
    assert differs == [
        "differs: spehline refuse '<tmp>/test_refusal0/in.txt'  [cwd <tree>; recorded at parent, tree]"
    ]
    assert "  stderr  parent 'refuse: read: cannot refuse'" in lines
    assert "          tree 'refuse: read: will not refuse'" in lines
    assert lines[-1] == "1 of 2 calls differ"


def test_refuses_trees_whose_tests_did_not_all_run(tmp_path):
    parent = tree(tmp_path / "parent", "cannot refuse", tests="from spehline.cli import missing\n")
    interrupted = TESTS + "\n\ndef test_stop():\n    import pytest\n    pytest.exit('stopped')\n"
    changed = tree(tmp_path / "changed", "cannot refuse", tests=interrupted)
    proc = compare(changed, parent)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    # no test collected, and a run stopped after two calls
    assert "error: tier-1 at parent exited 1 with 0 calls recorded:" in proc.stderr
    assert "error: tier-1 at tree exited 2 with 2 calls recorded:" in proc.stderr
    assert "calls differ" not in proc.stdout
