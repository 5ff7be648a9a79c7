"""Twisted-segment algebra on the line of a cuspidal support.

The basic datum is an opaque cuspidal label ``pi`` living on GL_g; its
unramified twists ``pi{a}`` for half-integers ``a`` form a line, and a
*segment* is an interval of consecutive twists.  A *multisegment* is a
multiset of segments, optionally decorated with a power of the
half-Tate marker and with an opaque wildcard factor of declared degree.
Ladders are the staggered-row shapes of ``Speh_s(St_t(pi))``.

Twists are ``HalfInt`` values, stored absolutely on every segment.
Constructors check the ranges of their parts but do not convert them:
callers pass each part in its final type (``jsonio`` builds them from
checked JSON), and ``HalfInt`` addition takes half-integers only, a
whole number ``n`` being ``HalfInt(2 * n)``.  Because the product of
two multisegments models *normalized* induction, the written twists of
the factors already are absolute positions, and the product reduces to
a plain multiset union; this makes the product exactly associative and
degree additive.

A multisegment keeps its segments in ``_segment_key`` order.
``Multisegment(...)`` sorts what it is given; a rebuild whose order is
already known skips the sort through the trusted ``Multisegment._sorted``.
Its callers are ``shifted``, ``with_tate``, ``without_wildcard``,
``LadderShape.to_multisegment``, ``speh_tower``, both products (through
``_union``) and ``jacquet_cuts``; the ``Multisegment`` docstring gives
the reason the order holds for each.  Each segment keeps its order key
as plain data, so sorts and hashes read one tuple per segment.  A
multisegment hashes as a multiset, through the sum of its segments' key
hashes (``multiset_hash``), so a product's hash follows from its
factors' sums.

Mod-l reduction acts on labels alone (``reduced_label``), which
``diagrams.LocalComponent.reduced`` applies to a component's factors.
``reduced_id`` and ``ladder_text`` write a reduced id and a ladder's text
from plain parts, for the labels here, in ``diagrams`` and in a miss of
``modl_key``'s memo, which holds ids and classes, not labels.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field


@dataclass(frozen=True, order=True, slots=True)
class HalfInt:
    """A half-integer, stored as twice its value.

    Closed under addition only; totally ordered.
    Operands are half-integers: a whole number ``n`` is ``HalfInt(2 * n)``.
    """

    twice: int

    @property
    def is_zero(self) -> bool:
        return self.twice == 0

    def __add__(self, other: "HalfInt") -> "HalfInt":
        return HalfInt(self.twice + other.twice)

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self.twice})"


ZERO = HalfInt(0)


@dataclass(frozen=True, slots=True)
class InertialCuspidal:
    """Opaque label for an inertial class of cuspidal representations.

    ``g`` is the dimension of the GL_g it lives on, ``e_pi`` the number
    of unramified self-twists, and ``modl_class`` an opaque identifier
    of its mod-l reduction class.  A label is its ``id``: labels compare
    and hash by ``id`` alone, so one id must name one label.  Datasets
    enforce this, and also that all labels of one ``modl_class`` share
    one ``g``.
    """

    id: str
    g: int = field(compare=False)
    e_pi: int = field(default=1, compare=False)
    modl_class: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.g < 1:
            raise ValueError(f"g must be >= 1, got {self.g}")
        if self.e_pi < 1:
            raise ValueError(f"e_pi must be >= 1, got {self.e_pi}")
        if not self.modl_class:
            object.__setattr__(self, "modl_class", self.id)


def reduced_id(modl_class: str) -> str:
    """The id ``rl(<class>)`` of the reduced label of a mod-l class."""
    return f"rl({modl_class})"


def reduced_label(pi: InertialCuspidal) -> InertialCuspidal:
    """The canonical label of the mod-l class of ``pi``, with id :func:`reduced_id`.

    Only the class identifier and the GL dimension survive reduction;
    the self-twist count is not meaningful mod l and is normalized to 1
    so that congruent labels reduce to equal values.  Idempotent.
    """
    rid = reduced_id(pi.modl_class)
    if pi.id == rid:
        return pi
    return InertialCuspidal(id=rid, g=pi.g, e_pi=1, modl_class=pi.modl_class)


@dataclass(frozen=True)
class Segment:
    """An interval of ``length`` consecutive twists of ``base``.

    Covers ``base{start}, base{start+1}, ..., base{start+length-1}``.

    Every constructor call also keeps the order key
    ``(base.id, start.twice, length)`` as ``_key``, which ``_segment_key``
    reads, so a sort or a hash of many segments reads one plain tuple per
    segment.  ``_key`` is not a field: equality, hash, repr and
    ``dataclasses.fields`` never see it.  It is plain data, the same under
    every hash seed, so copies and pickles carry it; ``replace`` and
    ``shifted`` call the constructor, which writes it afresh.
    """

    base: InertialCuspidal
    start: HalfInt
    length: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError(f"segment length must be >= 1, got {self.length}")
        object.__setattr__(self, "_key", (self.base.id, self.start.twice, self.length))

    @property
    def end(self) -> HalfInt:
        return HalfInt(self.start.twice + 2 * (self.length - 1))

    @property
    def degree(self) -> int:
        return self.length * self.base.g

    def shifted(self, n: HalfInt) -> "Segment":
        return Segment(self.base, self.start + n, self.length)

    def __str__(self) -> str:
        if self.length == 1:
            return f"{self.base.id}[{self.start}]"
        return f"{self.base.id}[{self.start}..{self.end}]"


@dataclass(frozen=True, slots=True)
class Wildcard:
    """An unspecified factor with a declared degree.

    Stands for a component of the Levi we do not want to name.  It is a
    first-class label: equality is by identifier (plus declared degree
    and accumulated twist), and mod-l reduction fixes it.
    """

    id: str
    degree: int
    shift: HalfInt = ZERO

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError("wildcard degree must be >= 0")

    def shifted(self, n: HalfInt) -> "Wildcard":
        return Wildcard(self.id, self.degree, self.shift + n)

    def __str__(self) -> str:
        body = f"?{self.id}({self.degree})"
        if self.shift.twice:
            body += f"{{{self.shift}}}"
        return body


# (base id, start, length), kept on the segment and read in C
_segment_key = operator.attrgetter("_key")
# (id, degree, shift), read in C
_wildcard_key = operator.attrgetter("id", "degree", "shift.twice")


def key_hash_sum(segments: tuple[Segment, ...]) -> int:
    """The sum of the hashes of the segments' ``_segment_key`` tuples, in C.

    The sum of a multiset union is the sum of its parts' sums.
    """
    return sum(map(hash, map(_segment_key, segments)))


def multiset_hash(m: "Multisegment", key_sum: int) -> int:
    """The hash of ``m``, given ``key_sum``, the ``key_hash_sum`` of its segments.

    The one formula of a multisegment's hash: the hash of the segment sum
    and the markers' plain values.  ``Multisegment.__hash__`` calls it
    with the sum of ``m``'s own segments; a caller that knows the sums of
    a product's factors passes the two added.
    """
    wildcard = m.wildcard
    return hash(
        (
            key_sum,
            m.tate.twice,
            None if wildcard is None else _wildcard_key(wildcard),
            m.order_tag,
        )
    )


@dataclass(frozen=True)
class Multisegment:
    """A multiset of segments with optional Tate-power and wildcard markers.

    The segment tuple is kept sorted, so two multisegments built in any
    order compare and hash equal.  ``tate`` records a formal power of
    the half-Tate character; ``order_tag`` marks multisegments produced
    by the ordered product (the tag stores the degrees of the two
    ordered factors).

    The degree is summed on the first read and kept on the instance, so
    a factor shared by many products is summed once.  The hash is a
    multiset hash (see ``multiset_hash``): it hashes the sum of the
    hashes of the ``_segment_key`` tuples, with the markers' plain
    values, so no segment, label or half-integer is hashed through
    Python, and the hash of a product follows from its factors' sums
    without a walk of its segments.  It is not kept: the ledger, the one
    part of the program that hashes multisegments in bulk, adds the sums
    of each product's factors and hands the result to the ``LedgerTerm``
    that holds the product, which keeps its own.

    The trusted constructor ``Multisegment._sorted`` takes a segment
    tuple as it is, with no sort, and the three markers.  Its callers,
    each of which knows the order of what it passes:

    - ``shifted``: one shift of every start keeps the ``_segment_key``
      order;
    - ``with_tate`` and ``without_wildcard``: the segments are kept;
    - ``LadderShape.to_multisegment``: one base, one length, and the row
      starts rise with the row;
    - ``speh_tower``: one base, one length, and the starts rise by 2;
    - ``_union``, behind both products: it joins two sorted tuples,
      inserts a one-segment right factor into the left one's tuple, and
      sorts otherwise;
    - ``jacquet_cuts``: it builds the rows but the first once per setting
      of theirs, then puts the first row's piece in front of the left side
      and into the right side where a sort would; its docstring proves
      that each side it builds is in ``_segment_key`` order.

    Every other multisegment is built through ``Multisegment(...)``,
    which sorts.
    """

    segments: tuple[Segment, ...] = ()
    tate: HalfInt = ZERO
    wildcard: Wildcard | None = None
    order_tag: tuple[int, int] | None = None

    # not a field: equality, hash, repr and replace never see it
    _degree = None

    def __post_init__(self) -> None:
        segs = tuple(sorted(self.segments, key=_segment_key))
        object.__setattr__(self, "segments", segs)

    def __hash__(self) -> int:
        return multiset_hash(self, key_hash_sum(self.segments))

    @classmethod
    def _sorted(
        cls,
        segments: tuple[Segment, ...],
        tate: HalfInt = ZERO,
        wildcard: Wildcard | None = None,
        order_tag: tuple[int, int] | None = None,
    ) -> "Multisegment":
        """Trusted constructor: ``segments`` is already in ``_segment_key`` order."""
        out = object.__new__(cls)
        # the fields in declaration order, as __init__ writes them
        fields = out.__dict__
        fields["segments"] = segments
        fields["tate"] = tate
        fields["wildcard"] = wildcard
        fields["order_tag"] = order_tag
        return out

    @property
    def degree(self) -> int:
        total = self._degree
        if total is None:
            total = sum(seg.degree for seg in self.segments)
            if self.wildcard is not None:
                total += self.wildcard.degree
            object.__setattr__(self, "_degree", total)
        return total

    def shifted(self, n: HalfInt) -> "Multisegment":
        if n.is_zero:
            return self
        return Multisegment._sorted(
            tuple([seg.shifted(n) for seg in self.segments]),
            self.tate,
            None if self.wildcard is None else self.wildcard.shifted(n),
            self.order_tag,
        )

    def with_tate(self, n: HalfInt) -> "Multisegment":
        return Multisegment._sorted(self.segments, n, self.wildcard, self.order_tag)

    def without_wildcard(self) -> "Multisegment":
        return Multisegment._sorted(self.segments, self.tate, None, self.order_tag)

    def __str__(self) -> str:
        parts = [str(seg) for seg in self.segments]
        if self.wildcard is not None:
            parts.append(str(self.wildcard))
        body = " + ".join(parts) if parts else "[]"
        if not self.tate.is_zero:
            body += f" * Xi^{self.tate}"
        if self.order_tag is not None:
            body += f" >({self.order_tag[0]}|{self.order_tag[1]})"
        return body


@dataclass(frozen=True)
class LadderShape:
    """The multisegment shape of ``Speh_s(St_t(base))`` twisted to ``center``.

    ``s`` rows of length ``t``; row ``j`` (j = 0..s-1) is the Steinberg
    segment of length ``t`` centered at ``center + (1-s)/2 + j``.
    """

    base: InertialCuspidal
    s: int
    t: int
    center: HalfInt = ZERO

    def __post_init__(self) -> None:
        if self.s < 1:
            raise ValueError(f"ladder needs s >= 1, got {self.s}")
        if self.t < 1:
            raise ValueError(f"ladder needs t >= 1, got {self.t}")

    @property
    def degree(self) -> int:
        return self.s * self.t * self.base.g

    def row_start(self, j: int) -> HalfInt:
        # row center is center + (1-s)/2 + j, the row extends (t-1)/2 both ways
        return HalfInt(self.center.twice + (1 - self.s) + 2 * j - (self.t - 1))

    def to_multisegment(self) -> Multisegment:
        rows = tuple(
            [Segment(self.base, self.row_start(j), self.t) for j in range(self.s)]
        )
        return Multisegment._sorted(rows)

    def __str__(self) -> str:
        body = ladder_text(self.base.id, self.s, self.t)
        if not self.center.is_zero:
            body += f"{{{self.center}}}"
        return body


def ladder_text(base_id: str, s: int, t: int) -> str:
    """The untwisted text of ``Speh_s(St_t(<base_id>))``, each trivial layer left out."""
    body = base_id if t == 1 else f"St_{t}({base_id})"
    return body if s == 1 else f"Speh_{s}({body})"


def make_steinberg(pi: InertialCuspidal, t: int) -> LadderShape:
    """The generalized Steinberg shape ``St_t(pi)``: one row of length t."""
    return LadderShape(base=pi, s=1, t=t, center=ZERO)


def make_speh(ladder: LadderShape, s: int) -> LadderShape:
    """``Speh_s`` of a Steinberg shape, a one-row ladder.

    ``Speh_s(St_t(pi))`` stacks s copies of the row of ``St_t(pi)`` at
    the staggered centers ``(1-s)/2, ..., (s-1)/2``; ``Speh_s(pi)`` is
    ``make_speh(make_steinberg(pi, 1), s)``.
    """
    if ladder.s != 1:
        raise ValueError("make_speh expects a one-row ladder")
    return LadderShape(base=ladder.base, s=s, t=ladder.t, center=ladder.center)


# Speh_0 of every base and centre, one instance: a tower builds only its rows
_SPEH_0 = Multisegment()


def speh_tower(base: InertialCuspidal, n: int, center: HalfInt) -> list[Multisegment]:
    """``[Speh_0, ..., Speh_n]`` of ``base{center}``, as multisegments.

    Row ``j`` of ``Speh_delta(base{center})`` is the one-cell segment at
    twice-position ``center.twice + 1 - delta + 2j``, ``j = 0..delta-1``,
    as in ``LadderShape(base, delta, 1, center)``.  Over ``delta <= n``
    these are the ``2n - 1`` positions from ``center.twice + 1 - n`` up,
    built here once each, in order; ``Speh_delta`` is the step-2 slice
    ``cells[n-delta : n+delta-1 : 2]``, and ``Speh_0`` is one shared
    empty multisegment.
    """
    first = center.twice + 1 - n
    cells = [Segment(base, HalfInt(first + k), 1) for k in range(2 * n - 1)]
    build = Multisegment._sorted
    return [_SPEH_0] + [
        build(tuple(cells[n - delta : n + delta - 1 : 2])) for delta in range(1, n + 1)
    ]


def normalized_product(a: Multisegment, b: Multisegment) -> Multisegment:
    """The multisegment of the normalized induction of ``a`` and ``b``.

    Because stored twists are absolute, this is the multiset union of
    the two segment multisets; Tate markers add, and at most one factor
    may carry a wildcard.  Degree is additive and the operation is
    associative and commutative up to multiset equality.
    """
    return _union(a, b, None)


def ordered_product(a: Multisegment, b: Multisegment) -> Multisegment:
    """Normalized product remembering the ordered pair of factors.

    The tag records the degrees of the left and right factors; it takes
    part in equality and serialization, so an ordered product never
    collides with the unordered one.
    """
    return _union(a, b, (a.degree, b.degree))


def _union(
    a: Multisegment, b: Multisegment, order_tag: tuple[int, int] | None
) -> Multisegment:
    """The product of ``a`` and ``b``, its segments in ``_segment_key`` order.

    Both tuples are sorted, so when all of ``a`` comes before all of ``b``
    (or after it) the tuples are joined as they are.  Otherwise a ``b`` of
    one segment, as the Steinberg factor of every graded part of a
    filtration, is inserted into ``a``'s tuple at the place a binary search
    of the keys finds, and any other pair is merged by one stable sort.  Every branch orders as a
    stable sort of ``a + b`` does: a key tie keeps ``a``'s segment first.
    So ``b`` goes first only when it ends strictly before ``a`` starts, and
    a lone ``b`` goes after every key of ``a`` equal to its own
    (``bisect_right``).
    """
    if a.wildcard is not None and b.wildcard is not None:
        raise ValueError("cannot combine two wildcard factors in one product")
    left, right = a.segments, b.segments
    if not left or not right or left[-1]._key <= right[0]._key:
        segments = left + right
    elif right[-1]._key < left[0]._key:
        segments = right + left
    elif len(right) == 1:
        at = bisect_right(left, right[0]._key, key=_segment_key)
        segments = left[:at] + right + left[at:]
    else:
        segments = tuple(sorted(left + right, key=_segment_key))
    return Multisegment._sorted(
        segments,
        # a zero marker on b, as on every ledger product, adds nothing
        a.tate + b.tate if b.tate.twice else a.tate,
        a.wildcard if a.wildcard is not None else b.wildcard,
        order_tag,
    )


def jacquet_cuts(ladder: LadderShape) -> list[tuple[Multisegment, Multisegment]]:
    """All two-sided cuts of a ladder shape.

    One cut per weakly decreasing vector ``c_0 >= c_1 >= ... >= c_{s-1}``
    with ``c_j`` in ``0..t`` (rows ordered by increasing twist): row j
    keeps its first ``c_j`` cells on the left and the remaining
    ``t - c_j`` on the right, both sides inheriting absolute twists.
    There are C(s+t, s) cuts, pairwise distinct, and each conserves the
    total degree.  Each row's ``2t`` pieces are built once, so the cuts
    share their (immutable) segment objects.

    The cuts come in the order of ``combinations_with_replacement(range(t
    + 1), s)``, each ascending combination read backwards as ``c``; so
    ``c_0``, its last entry, varies fastest, from ``c_1`` (0 when ``s =
    1``) to ``t``, while rows ``1..s-1`` stay fixed.  Those rows are the
    *suffix*, built once per setting of ``c_1..c_{s-1}``, that is once per
    ascending combination of ``s - 1`` entries, in C-level passes: the row
    pieces are picked by ``map`` and the missing ones dropped by
    ``filter(None, ...)``.  A missing piece is ``None``, and every other
    piece is true: a left piece is a ``Segment``, which defines neither
    ``__bool__`` nor ``__len__``, and a right piece is a ``(key, segment)``
    pair.  So the filter drops exactly the rows with no cells on that side.

    Each cut then places row 0's two pieces into its suffix, and both
    sides are in ``_segment_key`` order (one base, so by start, then
    length) without a sort of segments:

    - left: row j's piece starts at ``row_start(j)``, which rises with
      ``j``, and the rows with ``c_j > 0`` are a prefix, since ``c`` is
      weakly decreasing.  The suffix's left tuple is in order, and row 0's
      piece, which starts lowest, goes in front of it.  When ``c_0 = 0``,
      every ``c_j`` is 0: row 0 has no left piece and the suffix's left
      tuple is empty.
    - right: row j's piece starts ``j + c_j`` twists after ``row_start(0)``
      and has length ``t - c_j``; at one start a larger ``j`` has a smaller
      ``c_j``, so ordering the rows by the pairs ``(j + c_j, j)``, encoded
      as the distinct ints ``(j + c_j) * s + j``, orders them by start,
      then length.  The suffix's ``(key, segment)`` pairs are sorted once,
      and row 0's piece, when ``c_0 < t``, goes in at the ``bisect_left``
      of ``(c_0 * s,)`` among them.  Row 0's key ``c_0 * s`` is a multiple
      of ``s`` and row j's is not, so no key equals it: a pair compares
      below it exactly when its key is smaller, no segment is compared, and
      the place found is where a sort of all the rows puts row 0.
    """
    s, t, base = ladder.s, ladder.t, ladder.base
    # lefts[j][c] keeps c cells of row j (c >= 1); rights[j][c] holds the
    # other t - c cells with their order key (c < t); None marks no piece
    lefts: list[list[Segment | None]] = []
    rights: list[list[tuple[int, Segment] | None]] = []
    for j in range(s):
        start = ladder.row_start(j)
        lefts.append([None] + [Segment(base, start, c) for c in range(1, t + 1)])
        rights.append(
            [
                ((j + c) * s + j, Segment(base, HalfInt(start.twice + 2 * c), t - c))
                for c in range(t)
            ]
            + [None]
        )
    # row 0's pieces at each c_0, as tuples to join: no left piece at 0,
    # no right piece at t; marks[c] holds row 0's key at c, to bisect pairs by
    heads = [()] + [(seg,) for seg in lefts[0][1:]]
    tails = [(seg,) for _, seg in rights[0][:t]]
    marks = [(c * s,) for c in range(t)]
    suffix_lefts, suffix_rights = lefts[1:], rights[1:]
    build = Multisegment._sorted
    piece = list.__getitem__
    segment = operator.itemgetter(1)
    cuts: list[tuple[Multisegment, Multisegment]] = []
    # c_{s-1}, ..., c_1 is each ascending combination of s - 1 entries
    for ascending in itertools.combinations_with_replacement(range(t + 1), s - 1):
        left = tuple(filter(None, map(piece, suffix_lefts, reversed(ascending))))
        keyed = sorted(filter(None, map(piece, suffix_rights, reversed(ascending))))
        right = tuple(map(segment, keyed))
        for c0 in range(ascending[-1] if ascending else 0, t):
            at = bisect_left(keyed, marks[c0])
            cuts.append((build(heads[c0] + left), build(right[:at] + tails[c0] + right[at:])))
        cuts.append((build(heads[t] + left), build(right)))
    return cuts
