"""Seeded input generator for the benchmark workloads.

Builds schema-v1 JSON documents and the matching objects straight from a
seed.  It never calls the program's own generators (``generate_dataset``,
``substitute_cuspidal``), so a change to the program cannot change what
the benchmark feeds it.

Every cuspidal, record and wildcard id carries its job number, so no two
jobs of a run share a label and caches kept across in-process calls see
no cross-job hits, as separate CLI processes would not.

Sizes come in *blocks*: one block holds every size class of a workload
exactly once, in a seeded order.  A run executes whole blocks, so the mix
of job sizes, and with it the cost of a run, is the same for every seed;
the seed changes the labels, weights, twists and record layouts.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from spehline.congruence import AutomorphicDatum, Dataset
from spehline.diagrams import LocalComponent
from spehline.ledger import GlobalContext
from spehline.torsion import TorsionProfile
from spehline.zline import InertialCuspidal, LadderShape, Multisegment, Wildcard, HalfInt

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------- ledger

# n = s_g - t.  Below 6 the job is mostly CLI overhead; the expansion grows
# faster than quadratically in n, and stopping at 18 keeps the slowest job
# of a block well under a second on a small host.
LEDGER_N = tuple(range(6, 19))
LEDGER_BLOCKS = 8


@dataclass
class LedgerJob:
    job: int
    n: int
    d: int
    g: int
    t: int
    t0: int
    e_pi: int
    ctx: GlobalContext
    inf: Multisegment
    profile: TorsionProfile

    @property
    def s_g(self) -> int:
        return self.t + self.n


def ledger_jobs(seed: int) -> list[list[LedgerJob]]:
    rng = random.Random(seed)
    blocks = []
    for _ in range(LEDGER_BLOCKS):
        sizes = list(LEDGER_N)
        rng.shuffle(sizes)
        block = []
        for n in sizes:
            j = sum(map(len, blocks)) + len(block)
            g = rng.randint(1, 3)
            t = rng.randint(1, 4)
            d = g * (t + n) + rng.randrange(g)
            e_pi = rng.randint(1, 2)
            pi = InertialCuspidal(f"j{j}p", g=g, e_pi=e_pi)
            ctx = GlobalContext(d=d, pi=pi)
            inf = Multisegment(wildcard=Wildcard(f"j{j}w", d - t * g))
            t0 = rng.randint(t, t + n)
            block.append(
                LedgerJob(j, n, d, g, t, t0, e_pi, ctx, inf, TorsionProfile(t0=t0))
            )
        blocks.append(block)
    return blocks


# ------------------------------------------------------------------ separation

# 40-120 records: below 40 the job is dominated by fixed costs, and table
# building grows with the square of the records at one level, so 120 x 12
# levels is the slowest job of a block.  6-12 levels and 0-40% repeated
# components move the modl_key hit ratio.  Radii 4-6 give up to six row counts.
SEP_RECORDS = (40, 60, 80, 100, 120)
SEP_LEVELS = (6, 9, 12)
SEP_SHARES = (0.0, 0.2, 0.4)
SEP_BLOCKS = 8
SEP_DEGREE = 48


@dataclass
class SeparationJob:
    job: int
    dataset: Dataset
    pi: InertialCuspidal
    r: int
    shapes: list[tuple[int, int]]
    weight_totals: dict[tuple[int, int], int]


def _filled(s: int, factors: list, d: int, wid: str) -> LocalComponent:
    used = s * sum(t * base.g for t, base in factors)
    wildcard = Wildcard(wid, d - used) if d > used else None
    return LocalComponent(s=s, factors=tuple(factors), wildcard=wildcard)


def _separation_job(
    rng: random.Random, j: int, n_rec: int, n_lev: int, share: float, r: int, n_rows: int
) -> SeparationJob:
    d = SEP_DEGREE
    pi = InertialCuspidal(f"j{j}p", g=1, e_pi=1, modl_class=f"j{j}m")
    foreign = [
        InertialCuspidal(f"j{j}f{k}", g=1 + k % 2, e_pi=1, modl_class=f"j{j}c{k}")
        for k in range(3)
    ]
    rows = sorted(rng.sample(range(1, r + 1), n_rows))
    locals_: list[LocalComponent] = []
    data = []
    totals: dict[tuple[int, int], int] = {}
    levels = tuple(sorted(rng.sample(range(2 * n_lev), n_lev)))
    for i in range(n_rec):
        wid = f"j{j}w{i}"
        if i >= len(rows) and rng.random() < share:
            local = locals_[rng.randrange(len(locals_))]
        elif i < len(rows) or rng.random() < 0.6:
            s = rows[i] if i < len(rows) else rng.choice(rows)
            factors = [(r - s + 1, pi)]
            extra_t, extra = rng.randint(1, 2), rng.choice(foreign)
            if rng.random() < 0.5 and s * (r - s + 1 + extra_t * extra.g) <= d:
                factors.append((extra_t, extra))
            local = _filled(s, factors, d, wid)
        elif rng.random() < 0.5:
            s = rng.randint(1, r - 1)
            local = _filled(s, [(rng.randint(1, r - s), pi)], d, wid)
        else:
            s = rng.randint(1, 3)
            local = _filled(s, [(rng.randint(1, 3), rng.choice(foreign))], d, wid)
        locals_.append(local)
        datum = AutomorphicDatum(
            id=f"j{j}r{i}",
            local=local,
            m=rng.randint(1, 4),
            d_xi=rng.randint(1, 4),
            inv_dim=rng.randint(1, 4),
            satake=f"j{j}h{i}",
        )
        data.append(datum)
        anchored = [t for t, base in local.factors if base.id == pi.id]
        if anchored and local.s + anchored[0] - 1 == r:
            shape = (local.s, r - local.s + 1)
            totals[shape] = totals.get(shape, 0) + datum.m * datum.d_xi * datum.inv_dim * n_lev
    torsion = TorsionProfile(
        t0=rng.randint(1, 3), tau=tuple(rng.randint(0, 5) for _ in range(max(levels) + 1))
    )
    ds = Dataset(
        context=GlobalContext(d=d, pi=pi), data=tuple(data), torsion=torsion, levels=levels
    )
    return SeparationJob(j, ds, pi, r, [(s, r - s + 1) for s in rows], totals)


def separation_jobs(seed: int) -> list[list[SeparationJob]]:
    rng = random.Random(seed)
    blocks = []
    for b in range(SEP_BLOCKS):
        # every (records, levels) pair once; the repeated-component share,
        # the radius (4-6) and the number of prescribed row counts (1-4)
        # rotate over the cells, since each changes the cost of a job
        cells = [
            (n_rec, n_lev, SEP_SHARES[(x + y + b) % len(SEP_SHARES)],
             4 + (x + 2 * y + b) % 3, 1 + (2 * x + y + b) % 4)
            for x, n_rec in enumerate(SEP_RECORDS)
            for y, n_lev in enumerate(SEP_LEVELS)
        ]
        rng.shuffle(cells)
        first = sum(map(len, blocks))
        blocks.append(
            [_separation_job(rng, first + k, *cell) for k, cell in enumerate(cells)]
        )
    return blocks


# ------------------------------------------------------------------ congruence

# 1,000-2,500 records per file, 3-6 levels: every job reads and validates
# two whole files.  Each file pair is queried at five (R, S) classes, and
# 5, 6.25, 7.5, 8.75 and 10% of the records are members of the five
# classes, so a query touches few records while the load reads all of
# them.  The shares are fixed rather than drawn, since a query's cost grows
# with the square of its members and drawn shares would make the slowest
# jobs differ from seed to seed.  Five queries per
# pair give a pool of 100 jobs from 40 files, which leaves ten jobs beyond
# p90 without writing 200 files in set-up.
CONG_RECORDS = (1000, 1375, 1750, 2125, 2500)
CONG_LEVELS = (3, 4, 5, 6)
CONG_QUERIES = 5
CONG_MEMBER_SHARES = (0.05, 0.0625, 0.075, 0.0875, 0.10)
CONG_DEGREE = 24
CONG_BLOCKS = len(CONG_LEVELS)
EXPECTED_EXIT = {"twin": 0, "bump": 1, "schema": 66}


def _congruence_kinds(b: int) -> list[str]:
    """Kinds for the five file pairs of block ``b``: 9 twins, 9 bumped and 2
    schema violations over the four blocks, the violations on the smallest
    file of the first block and the largest of the last."""
    kinds = ["twin", "bump"] * 3
    kinds = kinds[b % 2 : b % 2 + len(CONG_RECORDS)]
    if b == 0:
        kinds[0] = "schema"
    if b == CONG_BLOCKS - 1:
        kinds[-1] = "schema"
    return kinds


@dataclass
class CongruenceJob:
    job: int
    kind: str
    path_a: str
    path_b: str
    report: str
    r: int
    s: int
    expected_exit: int


def _corrupt(rng: random.Random, doc: dict) -> None:
    """Break one field in a way the program maps to a schema violation (66)."""
    rec = doc["data"][rng.randrange(len(doc["data"]))]
    how = rng.randrange(4)
    if how == 0:
        rec["m"] = str(rec["m"])
    elif how == 1:
        del rec["satake"]
    elif how == 2:
        rec["local"]["factors"][0]["t"] = float(rec["local"]["factors"][0]["t"])
    else:
        rec["inv_dim"] = None


def _congruence_docs(rng: random.Random, p: int, n_rec: int, n_lev: int, kind: str):
    """The two documents of file pair ``p`` and the (R, S) classes to query."""
    d = CONG_DEGREE
    a, b = f"c{p}a", f"c{p}b"
    registry = {f"c{p}f{k}": {"g": 1 + k % 2, "e_pi": 1, "modl_class": f"c{p}c{k}"} for k in range(3)}
    foreign = list(registry)
    queries = rng.sample([(R, S) for R in range(3, 7) for S in range(1, R + 1)], CONG_QUERIES)
    member_shapes = {(S, R - S + 1) for R, S in queries}
    slots = []
    for query, share in zip(queries, CONG_MEMBER_SHARES):
        slots += [query] * round(n_rec * share)
    slots += [None] * (n_rec - len(slots))
    rng.shuffle(slots)
    records, members = [], {query: [] for query in queries}
    for i, slot in enumerate(slots):
        if slot is not None:
            R, S = slot
            s, factors = S, [(R - S + 1, a)]
            extra_t, extra = rng.randint(1, 2), rng.choice(foreign)
            if rng.random() < 0.5 and S * (R - S + 1 + extra_t * registry[extra]["g"]) <= d:
                factors.append((extra_t, extra))
            members[slot].append(i)
        elif rng.random() < 0.5:
            while True:
                s = rng.randint(1, 6)
                t = rng.randint(1, 7 - s)
                if (s, t) not in member_shapes:
                    break
            factors = [(t, a)]
        else:
            s = rng.randint(1, 3)
            factors = [(rng.randint(1, 3), rng.choice(foreign))]
        used = s * sum(t * (1 if base == a else registry[base]["g"]) for t, base in factors)
        records.append(
            {
                "id": f"c{p}r{i}",
                "local": {
                    "s": s,
                    "factors": [{"t": t, "base_id": base} for t, base in factors],
                    "wildcard": {"id": f"c{p}w{i}", "degree": d - used, "shift_twice": 0}
                    if d > used
                    else None,
                },
                "m": rng.randint(1, 4),
                "d_xi": rng.randint(1, 4),
                "inv_dim": rng.randint(1, 4),
                "satake": f"c{p}h{i}",
            }
        )
    levels = sorted(rng.sample(range(2 * n_lev), n_lev))
    t0 = rng.choice([None, 1, 2])
    tau = [0 if t0 is None else rng.randint(0, 5) for _ in range(max(levels) + 1)]

    def doc(anchor: str, e_pi: int, recs: list) -> dict:
        cusp = {anchor: {"g": 1, "e_pi": e_pi, "modl_class": f"c{p}m"}, **registry}
        return {
            "schema_version": SCHEMA_VERSION,
            "context": {"d": d, "kappa": "1", "pi_id": anchor},
            "cuspidals": cusp,
            "data": recs,
            "torsion": {"t0": t0, "tau": tau},
            "levels": levels,
        }

    # the twin swaps the anchor for a congruent cuspidal: same mod-l class,
    # another id and self-twist count; every other label is kept
    twin = json.loads(json.dumps(records).replace(f'"base_id": "{a}"', f'"base_id": "{b}"'))
    doc_a, doc_b = doc(a, 1, records), doc(b, 2, twin)
    if kind == "bump":
        for query in queries:  # one bumped member per class, so every query differs
            twin[rng.choice(members[query])]["m"] += 1
    elif kind == "schema":
        _corrupt(rng, rng.choice([doc_a, doc_b]))
    return doc_a, doc_b, queries


def congruence_jobs(seed: int, workdir: Path) -> list[list[CongruenceJob]]:
    rng = random.Random(seed)
    blocks = []
    for b in range(CONG_BLOCKS):
        # every size once per block; levels rotate so that each size meets
        # each level count once over the four blocks
        pairs = [
            (n_rec, CONG_LEVELS[(x + b) % len(CONG_LEVELS)], kind)
            for x, (n_rec, kind) in enumerate(zip(CONG_RECORDS, _congruence_kinds(b)))
        ]
        block = []
        for n_rec, n_lev, kind in pairs:
            p = b * len(CONG_RECORDS) + len(block) // CONG_QUERIES
            doc_a, doc_b, queries = _congruence_docs(rng, p, n_rec, n_lev, kind)
            path_a, path_b = workdir / f"c{p}A.json", workdir / f"c{p}B.json"
            path_a.write_text(json.dumps(doc_a), encoding="utf-8")
            path_b.write_text(json.dumps(doc_b), encoding="utf-8")
            for R, S in queries:
                j = b * len(CONG_RECORDS) * CONG_QUERIES + len(block)
                block.append(
                    CongruenceJob(
                        j, kind, str(path_a), str(path_b), str(workdir / f"j{j}report.json"),
                        R, S, EXPECTED_EXIT[kind],
                    )
                )
        rng.shuffle(block)
        blocks.append(block)
    return blocks


# ---------------------------------------------------------------------- shapes

# Ladders with C(s+t, s) from 210 to 3,432 cuts: the smallest already makes
# the enumerator outweigh the CLI calls, and 7x7 is the slowest job of a
# block.  Orientation alternates by block, since an s-row ladder builds s
# segments per cut side.
SHAPE_LADDERS = (
    (3, 9), (4, 6), (5, 5), (4, 7), (5, 6), (4, 8), (5, 7),
    (6, 6), (4, 10), (5, 8), (6, 7), (6, 8), (7, 7),
)
SHAPE_FORMATS = ("json", "svg", "ascii")
SHAPE_BLOCKS = 8


@dataclass
class ShapesJob:
    job: int
    ladder: LadderShape
    cuts: int
    component: str
    s: int
    factors: list[tuple[int, str]]
    fmt: str
    at_r: int


def shapes_jobs(seed: int, workdir: Path) -> list[list[ShapesJob]]:
    rng = random.Random(seed)
    blocks = []
    for b in range(SHAPE_BLOCKS):
        order = list(range(len(SHAPE_LADDERS)))
        rng.shuffle(order)
        block = []
        for k, idx in enumerate(order):
            j = sum(map(len, blocks)) + k
            s, t = SHAPE_LADDERS[idx]
            if (b + idx) % 2:
                s, t = t, s
            base = InertialCuspidal(f"j{j}p", g=rng.randint(1, 2))
            ladder = LadderShape(base, s, t, HalfInt(rng.randint(-6, 6)))
            # a component of 3-7 factors with 4-12 rows over two or three bases
            rows = rng.randint(4, 12)
            bases = {f"j{j}q{m}": rng.randint(1, 2) for m in range(rng.randint(2, 3))}
            factors = [(rng.randint(1, 10), rng.choice(list(bases))) for _ in range(3 + (k + b) % 5)]
            doc = {
                "schema_version": SCHEMA_VERSION,
                "s": rows,
                "factors": [{"t": t_k, "base_id": base_id} for t_k, base_id in factors],
                "wildcard": {"id": f"j{j}w", "degree": rng.randint(0, 4), "shift_twice": 0},
                "cuspidals": {
                    cid: {"g": g, "e_pi": 1, "modl_class": f"{cid}~"} for cid, g in bases.items()
                },
            }
            path = workdir / f"j{j}component.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            t_k = rng.choice(factors)[0]
            block.append(
                ShapesJob(
                    j, ladder, math.comb(s + t, s), str(path), rows, factors,
                    SHAPE_FORMATS[(k + b) % len(SHAPE_FORMATS)], rows + t_k - 1,
                )
            )
        blocks.append(block)
    return blocks
