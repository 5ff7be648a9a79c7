"""``tools/same_outputs.py`` on two tiny trees whose one message differs."""

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
README = '''## Quick tour

```python
greeting = "hello"
```

## Command line

```sh
spehline hello            # greets
```
'''
WORKLOADS = '''from spehline import cli


class Hello:
    def setup(self, seed, workdir):
        return [[seed]]

    def run(self, job):
        return cli.main(["hello"])


WORKLOADS = {"hello": Hello()}
'''


def tree(at: Path, message: str) -> Path:
    for path, text in (
        ("src/spehline/__init__.py", ""),
        ("src/spehline/cli.py", CLI + f"\n\nMESSAGE = {message!r}\n"),
        ("tests/test_cli.py", TESTS),
        ("README.md", README),
        ("perfbench/workloads.py", WORKLOADS),
        ("tools/same_outputs.py", TOOL),
    ):
        (at / path).parent.mkdir(parents=True, exist_ok=True)
        (at / path).write_text(text, encoding="utf-8")
    return at


def test_reports_the_one_call_whose_message_differs(tmp_path):
    parent = tree(tmp_path / "parent", "cannot refuse")
    changed = tree(tmp_path / "changed", "will not refuse")
    proc = subprocess.run(
        [sys.executable, str(changed / "tools" / "same_outputs.py"), str(parent)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(" in ")[0] for line in lines if line.startswith("tier-1")] == [
        "tier-1 at parent: 2 passed", "tier-1 at tree: 2 passed",
    ]
    # tier-1 calls hello in the tree, the README and the pool in a temporary directory
    assert (
        "calls recorded: parent 4 (tier-1 2, readme 1, perfbench 1); "
        "tree 4 (tier-1 2, readme 1, perfbench 1); 3 distinct, each replayed on both trees"
    ) in lines
    differs = [line for line in lines if line.startswith("differs:")]
    assert differs == [
        "differs: spehline refuse '<tmp>/test_refusal0/in.txt'  "
        "[cwd <tree>; recorded by parent tier-1, tree tier-1]"
    ]
    assert "  stderr  parent 'refuse: read: cannot refuse'" in lines
    assert "          tree 'refuse: read: will not refuse'" in lines
    assert lines[-1] == "1 of 3 calls differ"
