"""Guards that refuse a bad argument: one row per ``raise``, its error class
and a fragment of its message."""

from __future__ import annotations

import pytest

from spehline import (
    GlobalContext,
    GrothSum,
    InvariantViolation,
    LedgerTerm,
    LocalComponent,
    Multisegment,
    Segment,
    TorsionProfile,
    d_sequence,
    generate_dataset,
    i_of_t,
    torsion_dimension,
    torsion_transfer_label,
)
from spehline.congruence import ContributionSet, InconsistentDataError
from spehline.ledger import SHRIEK
from spehline.zline import ZERO

from support import PI

CTX = GlobalContext(d=4, pi=PI)  # s_g = 4
TORSION = TorsionProfile(t0=2, tau=(0, 1))

REFUSALS = {
    "d_sequence radius 0": (
        lambda: d_sequence(generate_dataset(1, CTX, r=2), PI, 0),
        ValueError, "radius must be >= 1, got 0",
    ),
    "contribution pair off its radius": (
        lambda: ContributionSet(r=3, pairs={(1, 1): GrothSum()}),
        InconsistentDataError, "pair (1,1) incompatible with radius 3",
    ),
    "generated radius 0": (
        lambda: generate_dataset(1, CTX, r=0),
        ValueError, "radius must be >= 1, got 0",
    ),
    "no generated shape fits": (
        lambda: generate_dataset(1, GlobalContext(d=2, pi=PI), r=3),
        ValueError, "no shape with s+t-1=3 fits inside degree 2",
    ),
    "generated pair off its radius": (
        lambda: generate_dataset(1, CTX, r=2, pairs=[(1, 1)]),
        ValueError, "pair (1,1) does not sit at radius 2",
    ),
    "generated pair too large": (
        lambda: generate_dataset(1, CTX, r=4, pairs=[(2, 3)]),
        ValueError, "pair (2,3) does not fit inside degree 4",
    ),
    "factor index 0": (
        lambda: LocalComponent(s=1, factors=((4, PI),)).factor(0),
        ValueError, "factor index 0 out of range",
    ),
    "float coefficient": (
        lambda: GrothSum([("a", 1.5)]),
        TypeError, "coefficient must be an integer, got 1.5",
    ),
    "ledger term kind": (
        lambda: LedgerTerm(kind="other", stratum=1, infinitesimal=Multisegment()),
        ValueError, "unknown term kind 'other'",
    ),
    "ledger term stratum 0": (
        lambda: LedgerTerm(kind=SHRIEK, stratum=0, infinitesimal=Multisegment()),
        ValueError, "stratum must be >= 1, got 0",
    ),
    "ledger term sign 0": (
        lambda: LedgerTerm(kind=SHRIEK, stratum=1, infinitesimal=Multisegment(), sign=0),
        ValueError, "sign must be +-1, got 0",
    ),
    "i_of_t stratum 0": (
        lambda: i_of_t(TORSION, 0),
        ValueError, "stratum index must be >= 1, got 0",
    ),
    "transfer t0 beyond s_g": (
        lambda: torsion_transfer_label(CTX, TorsionProfile(t0=5, tau=(0,)), 1, Multisegment()),
        InvariantViolation, "need 1 <= t <= t0 <= s_g=4, got t=1, t0=5",
    ),
    "transfer infinitesimal of another degree": (
        lambda: torsion_transfer_label(CTX, TORSION, 1, Multisegment()),
        InvariantViolation, "infinitesimal degree 0 does not fit stratum 1",
    ),
    "torsion degree index -1": (
        lambda: torsion_dimension(TORSION, -1, 0),
        ValueError, "degree index must be >= 0, got -1",
    ),
    "segment length 0": (
        lambda: Segment(PI, ZERO, 0),
        ValueError, "segment length must be >= 1, got 0",
    ),
}


@pytest.mark.parametrize("call,error,fragment", REFUSALS.values(), ids=REFUSALS.keys())
def test_refused(call, error, fragment):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and fragment in str(caught.value)
