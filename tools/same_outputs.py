"""Same outputs: every recorded CLI call, replayed on two source trees.

    python3 tools/same_outputs.py PARENT_TREE

compares the source tree this tool sits in with ``PARENT_TREE``, a
checkout of this repository (``git archive REV | tar -x -C DIR`` makes
one).  On each tree the tool records the calls to ``spehline.cli.main``
that tier-1 makes: ``python -m pytest`` runs in the tree with this module
loaded as a plugin (``-p same_outputs``).  Tier-1 runs the README's command
lines and every job of the seed-1 benchmark pools, so their calls are
among these.

A call is recorded as its argv, the directory it ran in, and the sha256 of
each input file and the directories that its argv names.  A path under the
tree or under tier-1's temporary directory is written as
``<tree>/...`` or ``<tmp>/...``, so a call that both trees make is one
call.

The union of both trees' calls is then replayed on each tree, in-process
and in a fresh directory per call that holds the call's input files.  A
replay gives the exit code and the sha256 of stdout, stderr and every file
written, with the replay directory's path normalised in each.  Every call
whose replays differ is printed with both sides, and the tool exits 1 if
any does, 0 if none does and 2 if a tree cannot be recorded: its pytest
exits with a code other than 0 or 1 (the run was stopped, or found no
test), or records no call.  Standard library only.  Nothing is written to
either tree except what its own tier-1 run writes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOLS = Path(__file__).resolve().parent
# how the orchestrator tells the tier-1 plugin where to record
LOG, BLOBS, ROOTS = "SAME_OUTPUTS_LOG", "SAME_OUTPUTS_BLOBS", "SAME_OUTPUTS_ROOTS"
TOKENS = ("<tmp>", "<tree>", "<cwd>")
SHOWN = 2000  # characters of stdout and stderr kept to show a difference


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ------------------------------------------------------------------ recording


class Recorder:
    """Appends one JSON line per ``cli.main`` call to ``log``.

    ``roots`` maps directories to their tokens; input files are copied to
    ``blobs`` under their digest.
    """

    def __init__(self, log: str, blobs: str, roots: list[tuple[str, str]]):
        self.log = Path(log)
        self.blobs = Path(blobs)
        self.roots = [(os.path.realpath(path), token) for path, token in roots]

    def install(self) -> None:
        from spehline import cli

        main = cli.main

        @functools.wraps(main)
        def recorded(argv=None):
            if isinstance(argv, (list, tuple)) and all(isinstance(arg, str) for arg in argv):
                self.record(list(argv))
            return main(argv)

        cli.main = recorded

    def _token(self, path: str) -> str | None:
        for root, token in self.roots:
            if path == root or path.startswith(root + os.sep):
                return token + path[len(root):]
        return None

    def _arg(self, arg: str, cwd: str, files: dict, dirs: set) -> str:
        """``arg`` as recorded; a path under a root is noted with what it names."""
        try:
            full = os.path.realpath(os.path.join(cwd, arg))
            token = self._token(full)
            if token is None:
                return arg
            if os.path.isfile(full):
                data = Path(full).read_bytes()
                files[token] = digest = _sha(data)
                blob = self.blobs / digest
                if not blob.exists():  # written whole, as other recorders may read it
                    part = self.blobs / f".{os.getpid()}.{digest}"
                    part.write_bytes(data)
                    os.replace(part, blob)
            elif os.path.isdir(full):
                dirs.add(token)
            elif os.path.isdir(os.path.dirname(full)):  # an output's directory
                dirs.add(self._token(os.path.dirname(full)))
        except (OSError, ValueError):  # not a path this system can name
            return arg
        return token if os.path.isabs(arg) else arg

    def record(self, argv: list[str]) -> None:
        cwd = os.path.realpath(os.getcwd())
        files: dict[str, str] = {}
        dirs: set[str] = set()
        args = [self._arg(arg, cwd, files, dirs) for arg in argv]
        call = {"argv": args, "cwd": self._token(cwd) or "<cwd>", "files": files, "dirs": sorted(dirs)}
        with open(self.log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(call) + "\n")


def pytest_configure(config) -> None:
    """Loaded by ``pytest -p same_outputs``: record every ``cli.main`` call of the run."""
    Recorder(os.environ[LOG], os.environ[BLOBS], json.loads(os.environ[ROOTS])).install()


# -------------------------------------------------------------------- replay


def replay(tree: str, calls_file: str, blobs: str, out: str, tmp: str) -> None:
    """Run every call of ``calls_file`` on the ``spehline`` of ``tree``; write the outcomes to ``out``."""
    import spehline
    from spehline import cli

    if not Path(spehline.__file__).resolve().is_relative_to(Path(tree, "src").resolve()):
        sys.exit(f"error: imported spehline from {spehline.__file__}, not from {tree}")
    outcomes = []
    for n, call in enumerate(json.loads(Path(calls_file).read_text(encoding="utf-8"))):
        run = Path(os.path.realpath(tmp), str(n))
        places = {token: str(run / token.strip("<>")) for token in TOKENS}

        def place(arg: str) -> str:
            for token, path in places.items():
                if arg == token or arg.startswith(token + "/"):
                    return path + arg[len(token):]
            return arg

        def normal(data: bytes) -> bytes:
            for token, path in places.items():
                data = data.replace(path.encode(), token.encode())
            return data.replace(str(run).encode(), b"<run>")

        for path in call["dirs"]:
            os.makedirs(place(path), exist_ok=True)
        for path, digest in call["files"].items():
            os.makedirs(os.path.dirname(place(path)), exist_ok=True)
            shutil.copyfile(Path(blobs, digest), place(path))
        os.makedirs(place(call["cwd"]), exist_ok=True)
        os.chdir(place(call["cwd"]))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main([place(arg) for arg in call["argv"]])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback is an outcome too
                code = f"raised {type(exc).__name__}: {exc}"
        os.chdir(tmp)
        written = {}
        for folder, _, names in os.walk(run):
            for name in names:
                full = os.path.join(folder, name)
                token = normal(full.encode()).decode()
                digest = _sha(normal(Path(full).read_bytes()))
                if call["files"].get(token) != digest:
                    written[token] = digest
        shutil.rmtree(run)
        texts = {name: normal(buffer.getvalue().encode("utf-8", "surrogatepass")).decode("utf-8", "replace")
                 for name, buffer in (("stdout", stdout), ("stderr", stderr))}
        outcomes.append({
            "exit": code,
            **{name: [_sha(text.encode()), text[:SHOWN]] for name, text in texts.items()},
            "files": written,
        })
    Path(out).write_text(json.dumps(outcomes), encoding="utf-8")


# -------------------------------------------------------------- orchestrator


def _env(tree: Path, **extra: str) -> dict:
    path = os.pathsep.join([str(tree / "src"), str(TOOLS)])
    return {**os.environ, "PYTHONPATH": path, "COLUMNS": "80", **extra}


def _record(trees: dict, work: Path) -> dict[str, list[dict]]:
    """Each tree's recorded calls, both tier-1 runs side by side."""
    blobs = work / "blobs"
    blobs.mkdir()
    procs = {}
    for side, tree in trees.items():
        here = work / side
        here.mkdir()
        tier1 = here / "pytest"
        env = _env(tree, **{LOG: str(here / "tier-1.jsonl"), BLOBS: str(blobs),
                            ROOTS: json.dumps([[str(tier1), "<tmp>"], [str(tree), "<tree>"]])})
        argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "same_outputs",
                f"--basetemp={tier1}", "--continue-on-collection-errors"]
        procs[side] = subprocess.Popen(argv, cwd=tree, env=env, stdin=subprocess.DEVNULL,
                                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    recorded, failed = {}, False
    for side, proc in procs.items():
        output, _ = proc.communicate()
        print(f"tier-1 at {side}: {(output.strip().splitlines() or ['(no output)'])[-1]}")
        log = work / side / "tier-1.jsonl"
        lines = log.read_text(encoding="utf-8").splitlines() if log.exists() else []
        recorded[side] = [json.loads(line) for line in lines]
        if proc.returncode not in (0, 1) or not recorded[side]:
            print(f"error: tier-1 at {side} exited {proc.returncode} with {len(recorded[side])} calls "
                  f"recorded:\n{output[-3000:]}", file=sys.stderr)
            failed = True
    if failed:
        raise SystemExit(2)
    return recorded


def _first_difference(a: str, b: str) -> tuple[str, str]:
    for x, y in zip(a.splitlines() + [""], b.splitlines() + [""]):
        if x != y:
            return x, y
    return a, b


def _show(call: dict, whence: list[str], old: dict, new: dict) -> None:
    """One differing call: its argv, then each part that differs, parent first."""
    where = f"cwd {call['cwd']}; recorded at {', '.join(whence)}"
    print(f"differs: spehline {shlex.join(call['argv'])}  [{where}]")
    if old["exit"] != new["exit"]:
        print(f"  exit    parent {old['exit']!r} | tree {new['exit']!r}")
    for name in ("stdout", "stderr"):
        if old[name][0] != new[name][0]:
            x, y = _first_difference(old[name][1], new[name][1])
            print(f"  {name}  parent {x[:160]!r}\n          tree {y[:160]!r}")
    if old["files"] != new["files"]:
        changed = set(old["files"].items()) ^ set(new["files"].items())
        print(f"  files   {', '.join(sorted({path for path, _ in changed}))}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", metavar="PARENT_TREE", help="the source tree to compare with")
    args = parser.parse_args(argv)
    trees = {"parent": Path(args.parent).resolve(), "tree": ROOT}
    for tree in trees.values():
        if not (tree / "src" / "spehline" / "__init__.py").is_file():
            parser.error(f"no spehline sources under {tree / 'src'}")
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        work = Path(tmp)
        recorded = _record(trees, work)
        calls: dict[str, dict] = {}
        whence: dict[str, list[str]] = {}
        for side, lines in recorded.items():
            for call in lines:
                key = json.dumps(call, sort_keys=True)
                calls[key] = call
                if side not in whence.setdefault(key, []):
                    whence[key].append(side)
        keys = sorted(calls)
        (work / "calls.json").write_text(json.dumps([calls[key] for key in keys]), encoding="utf-8")
        procs = {}
        for side, tree in trees.items():
            (work / side / "replay").mkdir()
            code = (f"import same_outputs; same_outputs.replay({str(tree)!r}, {str(work / 'calls.json')!r}, "
                    f"{str(work / 'blobs')!r}, {str(work / side / 'outcomes.json')!r}, "
                    f"{str(work / side / 'replay')!r})")
            procs[side] = subprocess.Popen([sys.executable, "-c", code], cwd=work, env=_env(tree),
                                           stdin=subprocess.DEVNULL)
        if any([proc.wait() for proc in procs.values()]):
            print("error: a replay failed", file=sys.stderr)
            return 2
        outcomes = {side: json.loads((work / side / "outcomes.json").read_text(encoding="utf-8"))
                    for side in trees}
    counts = ", ".join(f"{side} {len(lines)}" for side, lines in recorded.items())
    print(f"calls recorded: {counts}; {len(keys)} distinct, each replayed on both trees")
    differ = 0
    for key, old, new in zip(keys, outcomes["parent"], outcomes["tree"]):
        if old != new:
            differ += 1
            _show(calls[key], whence[key], old, new)
    print(f"{differ} of {len(keys)} calls differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
