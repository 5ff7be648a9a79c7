"""Support diagrams and their labels on a grid of components: pinned digests.

``fixtures/diagram_digests.json`` holds sha256 digests of what the
``diagram`` command writes and of the labels read off a diagram:

- ``diagram --s S --t T`` as ``--json``, ``--svg`` and ``--ascii`` for
  every shape with ``s, t <= 6``;
- for each component of the grid below (``s <= 6``, 1-4 factors over
  three bases, two of them sharing a mod-l class, with and without a
  shifted wildcard): ``diagram --component`` in the three formats, and
  ``--at-r r`` for every ``r`` with support on the axis (every other
  ``r`` from 0 past the right end exits 2);
- for the same components, ``modl_key`` of every base and ``r``, and
  ``str``/``repr`` of every constituent label, plain and reduced;
- the three formats and every ``--at-r`` of ``fixtures/triple_component.json``.

The digests were written while ``DiagramPoint`` was a frozen dataclass,
so they pin the output of any faster point or diagram construction.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from spehline import ConstituentLabel, constituent, modl_key, superpose
from spehline.jsonio import component_from_dict

from support import run_cli

FIXTURES = Path(__file__).parent / "fixtures"
FORMATS = ("json", "svg", "ascii")
# p and q share a mod-l class, so reduction merges their factors
CUSPIDALS = {
    "p": {"g": 1, "e_pi": 1, "modl_class": "a"},
    "q": {"g": 1, "e_pi": 2, "modl_class": "a"},
    "u": {"g": 2, "e_pi": 1, "modl_class": "u"},
}
BASE_IDS = tuple(CUSPIDALS)


def component_doc(s: int, count: int, variant: int) -> dict:
    """A deterministic component of ``count`` factors with ``s`` rows."""
    factors = [
        {"t": 1 + (3 * s + 5 * j + 7 * variant + count) % 6, "base_id": BASE_IDS[(j + variant + s) % 3]}
        for j in range(count)
    ]
    wildcard = None
    if (s + count + variant) % 3:
        wildcard = {"id": f"w{variant}", "degree": (s + count) % 4, "shift_twice": variant - (s % 2)}
    return {"schema_version": 1, "s": s, "factors": factors, "wildcard": wildcard, "cuspidals": CUSPIDALS}


GRID = [(s, count, variant) for s in range(1, 7) for count in range(1, 5) for variant in range(2)]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _shown(argv: list[str]) -> dict:
    """The digest of each format's output; each must exit 0."""
    digests = {}
    for fmt in FORMATS:
        code, text, err = run_cli(*argv, f"--{fmt}")
        assert (code, err) == (0, ""), (argv, fmt)
        digests[fmt] = _sha(text)
    return digests


def cli_digests(path: Path, doc: dict) -> dict:
    """The three formats and each ``--at-r`` that exits 0 on the component
    file ``path`` holding ``doc``; every other ``r`` from 0 to one past the
    right end exits 2."""
    argv = ["diagram", "--component", str(path)]
    digests = _shown(argv)
    at_r = {}
    for r in range(doc["s"] + max(f["t"] for f in doc["factors"]) + 1):
        code, text, err = run_cli(*argv, "--at-r", str(r))
        if code == 0:
            assert not err, r
            at_r[str(r)] = _sha(text)
        else:
            assert code == 2 and not text, r
    digests["at_r"] = at_r
    return digests


def label_digests(doc: dict) -> dict:
    """``modl_key`` of every base and ``r``, and every constituent label."""
    c = component_from_dict(doc)
    r_end = c.s + max(t for t, _ in c.factors)
    bases = {base.id: base for _, base in c.factors}
    keys = [
        [base_id, r, modl_key(c, base, r)] for base_id, base in sorted(bases.items()) for r in range(r_end + 1)
    ]
    labels = []
    for p, ks in superpose(c).items():
        for k in ks:
            label = constituent(c, p, k)
            reduced = ConstituentLabel(label.component.reduced(), label.point, label.xi_index)
            labels.append([str(label), repr(label), str(reduced), repr(reduced)])
    return {"modl_key": _sha(json.dumps(keys)), "labels": _sha(json.dumps(labels))}


def _fixture() -> dict:
    with open(FIXTURES / "diagram_digests.json", encoding="utf-8") as fh:
        return json.load(fh)


class TestPinnedDiagramDigests:
    def test_shapes(self):
        pinned = _fixture()["shapes"]
        assert [(case["s"], case["t"]) for case in pinned] == [
            (s, t) for s in range(1, 7) for t in range(1, 7)
        ]
        for case in pinned:
            got = _shown(["diagram", "--s", str(case["s"]), "--t", str(case["t"])])
            assert got == {fmt: case[fmt] for fmt in FORMATS}, case

    @pytest.mark.parametrize("index", range(len(GRID)))
    def test_component(self, index, tmp_path):
        pinned = _fixture()["components"][index]
        doc = component_doc(*GRID[index])
        assert pinned["component"] == doc
        path = tmp_path / "component.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        got = cli_digests(path, doc) | label_digests(doc)
        assert got == {key: pinned[key] for key in got}

    def test_every_grid_component_pinned(self):
        assert len(_fixture()["components"]) == len(GRID)

    def test_triple_component(self):
        path = FIXTURES / "triple_component.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        got = cli_digests(path, doc) | label_digests(doc)
        assert got == _fixture()["triple_component"]
