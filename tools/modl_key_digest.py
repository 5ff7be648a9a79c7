"""One sha256 over every mod-l key that the benchmark pools ask for.

Walks the seed-1 and seed-1001 pools of ``perfbench/inputs.py`` and calls
``congruence.modl_key`` on every record at radii 1-7, anchored where the
benchmark anchors it:

- ``separation``: every record of every job, at the job's anchor;
- ``congruence``: both files of every job, each read with ``json.load``
  and ``jsonio.dataset_from_dict``, at the file's own anchor.  A file
  the reader refuses (the pool's schema violations) is skipped.  A file
  is read again for each of its jobs, so its keys are asked for warm as
  well as cold.

The digest is the sha256 of the keys, each followed by a newline, in that
order: seed, then pool, then job, file, record and radius.  Two source
trees whose ``modl_key`` writes the same keys print the same line::

    python3 tools/modl_key_digest.py [TREE]

``TREE`` is a source tree (default: this one); its ``src/`` and
``perfbench/`` are imported, and nothing is written to either: the
congruence files go to a temporary directory.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 1001)
RADII = range(1, 8)


def calls(seed: int):
    """Every ``(component, anchor, radius)`` of one seed's two pools, in
    digest order; the separation pool's first block comes first.

    Imports ``spehline`` and ``inputs`` from ``sys.path``, which
    :func:`main` points at the tree.
    """
    import inputs
    from spehline.jsonio import dataset_from_dict

    for block in inputs.separation_jobs(seed):
        for job in block:
            for datum in job.dataset.data:
                for r in RADII:
                    yield datum.local, job.pi, r
    with tempfile.TemporaryDirectory() as workdir:
        for block in inputs.congruence_jobs(seed, Path(workdir)):
            for job in block:
                for path in (job.path_a, job.path_b):
                    with open(path, encoding="utf-8") as fh:
                        doc = json.load(fh)
                    try:
                        ds = dataset_from_dict(doc)
                    except ValueError:  # a schema violation of the pool
                        continue
                    for datum in ds.data:
                        for r in RADII:
                            yield datum.local, ds.context.pi, r


def digest(triples) -> tuple[int, str]:
    """The number of ``(component, anchor, radius)`` triples and the
    sha256 of their keys."""
    from spehline.congruence import modl_key

    h, n = hashlib.sha256(), 0
    for local, pi, r in triples:
        h.update(modl_key(local, pi, r).encode("utf-8") + b"\n")
        n += 1
    return n, h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", default=str(ROOT), help="source tree (default: this one)")
    args = parser.parse_args(argv)
    tree = Path(args.tree).resolve()
    if not (tree / "src" / "spehline" / "__init__.py").is_file():
        parser.error(f"no spehline sources under {tree / 'src'}")
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    n, hexdigest = digest(itertools.chain.from_iterable(calls(seed) for seed in SEEDS))
    print(f"{n} keys sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
