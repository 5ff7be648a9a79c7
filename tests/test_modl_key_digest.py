"""``tools/modl_key_digest.py`` on the first block of the seed-1
``separation`` pool: the calls it makes and the keys it hashes."""

from __future__ import annotations

import importlib.util
import itertools
import re
from pathlib import Path

from spehline import modl_key

from support import reference_modl_key

ROOT = Path(__file__).parent.parent
_spec = importlib.util.spec_from_file_location("modl_key_digest", ROOT / "tools" / "modl_key_digest.py")
modl_key_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(modl_key_digest)


def test_one_separation_block(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import inputs

    block = inputs.separation_jobs(1)[0]
    want = [
        (datum.local, job.pi, r)
        for job in block
        for datum in job.dataset.data
        for r in modl_key_digest.RADII
    ]
    # the block comes first, so the walk stops before the congruence files are written
    got = list(itertools.islice(modl_key_digest.calls(1), len(want)))
    assert got == want and len(got) == 8400
    for local, pi, r in got:
        assert modl_key(local, pi, r) == reference_modl_key(local, pi, r)
    n, hexdigest = modl_key_digest.digest(got)
    assert n == len(got) and re.fullmatch("[0-9a-f]{64}", hexdigest)
