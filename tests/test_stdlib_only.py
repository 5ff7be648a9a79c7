"""The runtime needs only the standard library.

Each command runs in a fresh interpreter started with ``-S``, which skips
``site`` and so every installed third-party package, with ``PYTHONPATH``
holding only ``src``: any import from outside the standard library fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from spehline import GlobalContext, generate_dataset, substitute_cuspidal
from spehline.jsonio import canonical_dumps, dataset_to_dict

from support import PI, PI_TWIN

ROOT = Path(__file__).parent.parent


def spehline(cwd: Path, *argv: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-S", "-m", "spehline.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["diagram", "--s", "2", "--t", "3", "--json"],
        ["diagram", "--component", "triple_component.json", "--at-r", "4"],
        ["resolution", "--d", "4", "--g", "1", "--t", "2", "--json"],
        ["filtration", "--d", "4", "--g", "1", "--t", "2", "--json"],
    ],
    ids=" ".join,
)
def test_command_without_site_packages(tmp_path, argv):
    shutil.copy(ROOT / "tests" / "fixtures" / "triple_component.json", tmp_path)
    done = spehline(tmp_path, *argv)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout


@pytest.mark.parametrize(
    "argv, code",
    [
        (["diagram", "--component", "missing.json"], 64),
        (["diagram", "--s", "0", "--t", "1"], 2),
        (["resolution", "--d", "4", "--g", "1", "--t", "9"], 65),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, list) else str(x),
)
def test_error_exit_without_site_packages(tmp_path, argv, code):
    done = spehline(tmp_path, *argv)
    assert done.returncode == code
    assert done.stdout == "" and "Traceback" not in done.stderr


def test_congruence_without_site_packages(tmp_path):
    ds = generate_dataset(5, GlobalContext(d=12, pi=PI), r=4)
    (tmp_path / "a.json").write_text(canonical_dumps(dataset_to_dict(ds)))
    twin = substitute_cuspidal(ds, PI, PI_TWIN)
    (tmp_path / "b.json").write_text(canonical_dumps(dataset_to_dict(twin)))
    s = str(ds.data[0].local.s)
    done = spehline(tmp_path, "congruence", "a.json", "b.json", "--r", "4", "--s", s)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["equal"] is True


def test_import_loads_no_exact_number_types():
    # cold start: no setting needs fractions, and decimal is the costliest
    # module fractions would bring in
    code = "import sys, spehline; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
