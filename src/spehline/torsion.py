"""Torsion profiles and the transfer of torsion between strata.

Torsion is modelled as data, not derived: a profile names the largest
stratum index ``t0`` carrying torsion (absent means torsion free) and a
per-level dimension sequence ``tau``.  The first torsion degree at
stratum ``t`` is ``t - t0`` for ``t <= t0`` and infinite above, and the
mod-l torsion of the degree ``t - t0`` group at ``t`` matches a single
degree-0 group at ``t0`` whose label this module emits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ledger import INTERMEDIATE, GlobalContext, InvariantViolation, LedgerTerm
from .zline import HalfInt, Multisegment, normalized_product, speh_tower


class NoTorsionError(ValueError):
    """Asked for a torsion transfer at a stratum above the torsion range."""


@dataclass(frozen=True, slots=True)
class TorsionProfile:
    """Largest torsion stratum ``t0`` plus per-level torsion dimensions.

    ``tau[n]`` is the torsion dimension at level ``n``.  A profile with
    no ``t0`` must be identically zero.
    """

    t0: int | None = None
    tau: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if any(x < 0 for x in self.tau):
            raise ValueError("torsion dimensions must be >= 0")
        if self.t0 is None:
            if any(self.tau):
                raise ValueError("torsion-free profile must have zero tau")
        elif self.t0 < 1:
            raise ValueError(f"t0 must be >= 1, got {self.t0}")


def i_of_t(profile: TorsionProfile, t: int) -> int | float:
    """First degree with torsion at stratum ``t``: ``t - t0``, else +inf."""
    if t < 1:
        raise ValueError(f"stratum index must be >= 1, got {t}")
    if profile.t0 is None or t > profile.t0:
        return math.inf
    return t - profile.t0


def torsion_transfer_label(
    ctx: GlobalContext, profile: TorsionProfile, t: int, inf: Multisegment
) -> LedgerTerm:
    """The stratum-``t0`` term whose degree-0 torsion matches stratum ``t``.

    The emitted intermediate term sits at ``t0`` with infinitesimal
    ``inf{(t0-t)/2} x Speh_{t0-t}(pi){t/2}`` and Xi-power ``(t-t0)/2``.
    The appended Speh factor uses the positive count ``t0 - t``; the
    printed Xi-power keeps its non-positive sign, and the degree check
    reads the appended cells off its absolute value.  The Speh factor is
    the top of a ``zline.speh_tower``, as in the resolution.
    """
    if profile.t0 is None or t > profile.t0:
        raise NoTorsionError(f"stratum {t} carries no torsion in this profile")
    if not 1 <= t <= ctx.s_g or profile.t0 > ctx.s_g:
        raise InvariantViolation(
            f"need 1 <= t <= t0 <= s_g={ctx.s_g}, got t={t}, t0={profile.t0}"
        )
    if inf.degree != ctx.d - t * ctx.g:
        raise InvariantViolation(
            f"infinitesimal degree {inf.degree} does not fit stratum {t}"
        )
    delta = profile.t0 - t
    infinitesimal = normalized_product(
        inf.shifted(HalfInt(delta)), speh_tower(ctx.pi, delta, HalfInt(t))[delta]
    )
    return LedgerTerm(
        kind=INTERMEDIATE,
        stratum=profile.t0,
        infinitesimal=infinitesimal,
        xi_power=HalfInt(t - profile.t0),
    )


def torsion_dimension(profile: TorsionProfile, k: int, n: int) -> int:
    """Torsion contribution to the dimension table entry ``(k, n)``.

    Zero at ``k = 0``; for ``k >= 1`` the per-level value ``tau[n]``,
    identical for every such ``k``.  That uniformity is what lets the
    separation algorithm subtract torsion exactly.
    """
    if k < 0:
        raise ValueError(f"degree index must be >= 0, got {k}")
    if k == 0 or profile.t0 is None:
        return 0
    if not 0 <= n < len(profile.tau):
        raise ValueError(f"no torsion dimension recorded for level {n}")
    return profile.tau[n]
