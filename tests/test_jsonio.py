from __future__ import annotations

import collections
import contextlib
import copy
import dataclasses
import hashlib
import itertools
import json
import pickle
import random
import sys
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from spehline import (
    AutomorphicDatum,
    GlobalContext,
    HalfInt,
    InertialCuspidal,
    LedgerTerm,
    Multisegment,
    Segment,
    TorsionProfile,
    Wildcard,
    congruence,
    filtration_graded,
    generate_dataset,
    generic_infinitesimal,
    jsonio,
    resolution_terms,
)
from spehline.congruence import (
    Dataset,
    InconsistentDataError,
    expected_contributions,
    members,
    substitute_cuspidal,
    theorem_check,
)
from spehline.jsonio import (
    SchemaError,
    canonical_dumps,
    dataset_from_dict,
    dataset_to_dict,
    ledger_listing_text,
)
from spehline.ledger import INTERMEDIATE, SHRIEK

from support import (
    PI,
    PI_TWIN,
    field_paths,
    ledger_listing_to_dict,
    ledger_term_to_dict,
    multisegment_to_dict,
    small_dataset_doc,
    unbuilt,
)


class TestMultisegmentForm:
    def test_canonical_form_is_sorted_and_stable(self):
        a = Multisegment((Segment(PI, HalfInt(2), 1), Segment(PI, HalfInt(-2), 1)))
        b = Multisegment((Segment(PI, HalfInt(-2), 1), Segment(PI, HalfInt(2), 1)))
        assert jsonio._multisegment_text(a) == jsonio._multisegment_text(b)
        starts = [s["start_twice"] for s in json.loads(jsonio._multisegment_text(a))["segments"]]
        assert starts == sorted(starts)


# ids that need escapes: a quote, a backslash, a control character, a
# non-ASCII letter, an astral character and a lone surrogate
_IDS = ['a"b', "c\\d", "\x01", "é", "𝔭", "\ud800", "pi", ""]
_ids = st.sampled_from(_IDS) | st.text(max_size=3)
_half = st.builds(HalfInt, st.integers(-9, 9))
_segments = st.builds(
    Segment,
    base=st.builds(InertialCuspidal, _ids, st.integers(1, 3)),
    start=_half,
    length=st.integers(1, 4),
)
_multisegments = st.builds(
    Multisegment,
    segments=st.lists(_segments, max_size=4).map(tuple),
    tate=_half,
    wildcard=st.none() | st.builds(Wildcard, _ids, st.integers(0, 9), _half),
    order_tag=st.none() | st.tuples(st.integers(0, 30), st.integers(0, 30)),
)
_terms = st.builds(
    LedgerTerm,
    kind=st.sampled_from([SHRIEK, INTERMEDIATE]),
    stratum=st.integers(1, 9),
    infinitesimal=_multisegments,
    xi_power=_half,
    tate=_half,
    sign=st.sampled_from([-1, 1]),
)


class TestListingWriter:
    """The listing's text is ``canonical_dumps`` of the documented document,
    byte for byte: the dict builders of ``support`` are the oracle."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.integers(-5, 99), st.integers(-5, 9), st.integers(-5, 99), st.lists(_terms, max_size=4)
    )
    def test_drawn_terms(self, d, g, t, terms):
        want = canonical_dumps(ledger_listing_to_dict(d, g, t, terms))
        assert ledger_listing_text(d, g, t, terms) == want
        for term in terms:
            m = term.infinitesimal
            assert jsonio._term_text(term) == canonical_dumps(ledger_term_to_dict(term))
            assert jsonio._multisegment_text(m) == canonical_dumps(multisegment_to_dict(m))
            for seg, want in zip(m.segments, multisegment_to_dict(m)["segments"], strict=True):
                assert jsonio._segment_text(seg) == canonical_dumps(want)

    def test_every_listing_up_to_degree_24(self):
        count = 0
        for g in (1, 2, 3):
            for d in range(g, 25):
                ctx = GlobalContext(d, InertialCuspidal('a"b\\é𝔭', g))
                for t in range(1, ctx.s_g + 1):
                    inf = generic_infinitesimal(ctx, t)
                    for terms in (resolution_terms(ctx, t, inf), filtration_graded(ctx, t, inf)):
                        want = canonical_dumps(ledger_listing_to_dict(d, g, t, terms))
                        assert ledger_listing_text(d, g, t, terms) == want
                        count += 1
        assert count == 2 * sum(d // g for g in (1, 2, 3) for d in range(g, 25))


class TestDatasetForm:
    def make(self) -> Dataset:
        from spehline import GlobalContext

        ctx = GlobalContext(d=12, pi=PI)
        return generate_dataset(5, ctx, r=4)

    def test_roundtrip_bit_exact(self):
        ds = self.make()
        blob = canonical_dumps(dataset_to_dict(ds))
        back = dataset_from_dict(json.loads(blob))
        assert back == ds
        assert canonical_dumps(dataset_to_dict(back)) == blob

    def test_schema_reports_first_violation_path(self):
        obj = dataset_to_dict(self.make())
        obj["data"][1]["m"] = "three"
        with pytest.raises(SchemaError) as err:
            dataset_from_dict(obj)
        assert err.value.path == "data[1].m"

    def test_schema_missing_field(self):
        obj = dataset_to_dict(self.make())
        del obj["data"][0]["local"]["s"]
        with pytest.raises(SchemaError) as err:
            dataset_from_dict(obj)
        assert err.value.path == "data[0].local.s"

    def test_schema_bad_levels(self):
        obj = dataset_to_dict(self.make())
        obj["levels"] = [0, "one"]
        with pytest.raises(SchemaError) as err:
            dataset_from_dict(obj)
        assert err.value.path == "levels[1]"

    def test_unknown_base_reference(self):
        obj = dataset_to_dict(self.make())
        obj["data"][0]["local"]["factors"][0]["base_id"] = "ghost"
        with pytest.raises(SchemaError):
            dataset_from_dict(obj)


# ------------------------------------------------------------- mutation table
# Every field of a small dataset, deleted or set to each replacement below,
# and what ``dataset_from_dict`` makes of it: the exception class and message,
# or ``ok`` with a digest of the canonical form of the dataset it returns.
# The fixture was written by the reader that checks every field through
# ``_need``; ``PYTHONPATH=src python tests/test_jsonio.py`` prints the table.

MUTATION_TABLE = Path(__file__).parent / "fixtures" / "dataset_mutations.tsv"
DELETE = object()
REPLACEMENTS = (DELETE, None, True, False, "x", "", 1.5, 7, 0, -1, [], {}, "ghost")


def _path_str(path) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def _outcome(doc) -> str:
    try:
        ds = dataset_from_dict(doc)
    except Exception as exc:  # the class is part of the recorded outcome
        return f"{type(exc).__name__}: {exc}"
    return "ok " + hashlib.sha256(canonical_dumps(dataset_to_dict(ds)).encode()).hexdigest()[:16]


def _value_at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _mutate(doc, path, value) -> None:
    """Delete the field at ``path`` of ``doc`` or set it to ``value``, in place."""
    *parents, key = path
    owner = _value_at(doc, parents)
    if value is DELETE:
        del owner[key]
    else:
        owner[key] = value


def _shown(value) -> str:
    return "delete" if value is DELETE else json.dumps(value)


def single_mutations():
    """``(path, value, doc)`` for each row of the mutation table; the last
    row sets ``t0`` above ``s_g = 12``."""
    base = dataset_to_dict(generate_dataset(3, GlobalContext(d=12, pi=PI), r=4))
    cases = [(path, value) for path in field_paths(base) for value in REPLACEMENTS]
    for path, value in cases + [(("torsion", "t0"), 13)]:
        doc = copy.deepcopy(base)
        _mutate(doc, path, value)
        yield path, value, doc


def mutation_lines() -> list[str]:
    return [
        f"{_path_str(path)}\t{_shown(value)}\t{_outcome(doc)}\n"
        for path, value, doc in single_mutations()
    ]


def test_every_single_field_mutation_matches_table():
    expected = MUTATION_TABLE.read_text(encoding="utf-8").splitlines(keepends=True)
    got = mutation_lines()
    assert len(got) == len(expected)
    mismatches = [(e, g) for e, g in zip(expected, got) if e != g]
    assert not mismatches, mismatches[:5]


# ------------------------------------------------------- double-fault table
# Pairs of faults in one file, and what ``dataset_from_dict`` makes of them.
# Each pair puts a fault the record walk finds (a duplicate id, a wrong
# degree, a mod-l class on two ``g``) early in ``data`` next to a fault
# that is read before that walk: a record's schema or constructor fault at
# a later index, or a fault of the context, ``torsion``, ``levels`` or the
# registry.  Every fault also stands alone.  An unreferenced registry entry
# whose class clashes is accepted.
# ``PYTHONPATH=src python tests/test_jsonio.py double`` prints the table.

DOUBLE_FAULT_TABLE = Path(__file__).parent / "fixtures" / "dataset_double_faults.tsv"
WALK_FAULTS = (
    (("data", 1, "id"), "a0"),
    (("data", 5, "id"), "a0"),
    (("data", 0, "local", "wildcard", "degree"), 7),
    (("data", 0, "local", "s"), 3),
    (("data", 2, "local", "factors", 1, "base_id"), "rho"),
    (("cuspidals", "rho", "modl_class"), "a"),
    (("cuspidals", "nz0", "modl_class"), "b"),
    (("cuspidals", "ghost"), {"g": 2, "e_pi": 1, "modl_class": "a"}),
)
READ_FAULTS = (
    (("data", 4, "m"), "x"),
    (("data", 4, "local", "factors", 0, "t"), True),
    (("data", 5, "satake"), DELETE),
    (("data", 4, "local", "wildcard"), []),
    (("data", 1, "local", "wildcard", "shift_twice"), "x"),
    (("data", 4, "local", "factors", 0, "base_id"), "ghost"),
    (("data", 4, "m"), 0),
    (("data", 4, "local", "s"), 0),
    (("data", 5, "local", "factors"), []),
    (("data", 3, "local", "factors", 1, "t"), 0),
    (("data", 1, "local", "wildcard", "degree"), -1),
    (("data", 5), "x"),
    (("context", "d"), 0),
    (("cuspidals", "rho", "g"), 0),
    (("torsion", "t0"), "x"),
    (("torsion", "tau"), [0, -1, 2]),
    (("torsion", "t0"), None),
    (("torsion", "tau"), [0, 1]),
    (("levels",), []),
    (("levels",), [0, 0]),
    (("levels",), [0, "x"]),
    (("levels",), [-1, 0]),
)


def double_fault_lines() -> list[str]:
    none = ((), None)
    cases = [(f, none) for f in WALK_FAULTS + READ_FAULTS]
    cases += [(early, late) for early in WALK_FAULTS for late in READ_FAULTS]
    cases += [(a, b) for a, b in itertools.combinations(WALK_FAULTS, 2)]
    lines = []
    for faults in cases:
        doc = small_dataset_doc()
        shown = []
        for path, value in faults:
            if path:
                _mutate(doc, path, value)
            shown.append(f"{_path_str(path)}={_shown(value)}" if path else "-")
        lines.append("\t".join(shown) + f"\t{_outcome(doc)}\n")
    return lines


def test_every_double_fault_matches_table():
    expected = DOUBLE_FAULT_TABLE.read_text(encoding="utf-8").splitlines(keepends=True)
    got = double_fault_lines()
    assert len(got) == len(expected)
    mismatches = [(e, g) for e, g in zip(expected, got) if e != g]
    assert not mismatches, mismatches[:5]


def _in_memory(doc: dict) -> Dataset:
    """``Dataset(...)`` of the parts of ``doc``, its records read by the checked reader."""
    cuspidals = jsonio.registry_from_dict(doc["cuspidals"])
    return Dataset(
        GlobalContext(d=doc["context"]["d"], pi=cuspidals[doc["context"]["pi_id"]]),
        tuple(
            jsonio._checked_record(rec, cuspidals, f"data[{idx}]")
            for idx, rec in enumerate(doc["data"])
        ),
        TorsionProfile(doc["torsion"]["t0"], tuple(doc["torsion"]["tau"])),
        tuple(doc["levels"]),
    )


# the level faults, found before the walk, and the torsion's, found after it
AROUND_THE_WALK = [
    fault for fault in READ_FAULTS if fault[0] == ("levels",) and fault[1] != [0, "x"]
] + [(("torsion", "tau"), [0, 1])]


def _faulty(*faults) -> dict:
    doc = small_dataset_doc()
    for path, value in faults:
        _mutate(doc, path, value)
    return doc


@pytest.mark.parametrize("other", AROUND_THE_WALK, ids=lambda f: f"{_path_str(f[0])}={_shown(f[1])}")
# WALK_FAULTS[:5] are the records' faults; the rest are the registry's
@pytest.mark.parametrize("walk", WALK_FAULTS[:5], ids=lambda f: f"{_path_str(f[0])}={_shown(f[1])}")
def test_both_dataset_forms_report_one_fault(walk, other):
    # read from a file or built in memory, a dataset reports its levels'
    # fault before the walk's, and the walk's before its torsion's
    first = other if other[0] == ("levels",) else walk
    with pytest.raises(InconsistentDataError) as alone:
        dataset_from_dict(_faulty(first))
    for read in (dataset_from_dict, _in_memory):
        with pytest.raises(InconsistentDataError) as both:
            read(_faulty(walk, other))
        assert str(both.value) == str(alone.value)


# ------------------------------------------------------ the check pass is sound
# ``dataset_from_dict`` checks every record on the document before it builds
# any (``jsonio._rows``, then the walk), and reads a record by the checked
# reader only where that check fails.  With the check switched off, every
# record is read by the checked reader.  A file must read the same both ways,
# and every JSON file the checked reader accepts must pass the check: its
# read makes no call of the checked reader.


def _checked_rows(records, cuspidals):
    """The walk's row of each record, read by the checked reader."""
    for idx, rec in enumerate(records):
        datum = jsonio._checked_record(rec, cuspidals, f"data[{idx}]")
        local = datum.local
        degree = 0 if local.wildcard is None else local.wildcard.degree
        yield datum.id, local.s, local.factors, degree


@contextlib.contextmanager
def _check_off(monkeypatch):
    """Inside, ``dataset_from_dict`` reads every record by the checked reader."""
    with monkeypatch.context() as patch:
        patch.setattr(jsonio, "_rows", _checked_rows)
        yield


@contextlib.contextmanager
def _counting_checked(monkeypatch):
    """Inside, the list yielded holds one entry per checked-reader call."""
    calls = []
    checked = jsonio._checked_record

    def counted(*args):
        calls.append(args[2])
        return checked(*args)

    with monkeypatch.context() as patch:
        patch.setattr(jsonio, "_checked_record", counted)
        yield calls


def _checked_data(doc: dict, ds: Dataset) -> tuple[AutomorphicDatum, ...]:
    """The records of ``doc`` as the checked reader reads them, over the
    label objects of ``ds``."""
    cuspidals = {label.id: label for label in ds.labels}
    return tuple(
        jsonio._checked_record(rec, cuspidals, f"data[{idx}]")
        for idx, rec in enumerate(doc["data"])
    )


def _read(doc):
    """``(unbuilt, canonical form, dataset)`` of the dataset read from ``doc``,
    or the class, path and message of the error it raises."""
    try:
        ds = dataset_from_dict(doc)
    except Exception as exc:  # the class is part of the outcome
        return type(exc).__name__, getattr(exc, "path", None), str(exc)
    return unbuilt(ds), canonical_dumps(dataset_to_dict(ds)), ds


def _assert_same_read(doc, monkeypatch) -> bool:
    """The two reads of ``doc`` agree; returns whether it was accepted."""
    with _counting_checked(monkeypatch) as calls:
        read = _read(doc)
    with _check_off(monkeypatch):
        reference = _read(doc)
    if reference[0] is True:  # accepted by the checked reader: the check passes
        assert calls == [] and read[:2] == reference[:2], doc
        # the records built from the raw document equal the checked ones and
        # hold the dataset's own label objects
        ds = read[2]
        assert ds.data == _checked_data(doc, ds), doc
        labels = {id(label) for label in ds.labels}
        assert all(id(base) in labels for x in ds.data for _, base in x.local.factors), doc
        return True
    assert read == reference, doc
    return False


def test_single_mutations_read_the_same_with_and_without_the_check(monkeypatch):
    accepted = sum(_assert_same_read(doc, monkeypatch) for _, _, doc in single_mutations())
    assert accepted == 84  # the "ok" rows of the table


def _multi_record_docs() -> list[dict]:
    """Files with shifted, ``null`` and missing wildcards, anchor factors at
    several radii and twice at one, torsion and unsorted levels."""
    docs = [small_dataset_doc(), small_dataset_doc()]
    docs[1]["data"].insert(0, docs[1]["data"].pop(5))  # the first record has no anchor
    for seed, (d, r) in enumerate([(12, 4), (24, 5), (9, 3)]):
        ctx = GlobalContext(d=d, pi=PI)
        ds = generate_dataset(seed, ctx, r=r, noise_data=4, torsion=TorsionProfile(1, (0, 2, 1)))
        docs.append(dataset_to_dict(ds))
    return docs


VALUES = (*REPLACEMENTS, 1, 2, 3, 4, 6, 12, "a0", "pi", "rho", "nz0", "pi2", "w1", "3/2")


def _random_mutant(rng: random.Random, base: dict) -> dict:
    """``base`` with one to three random edits: a field deleted or set to a
    value from ``VALUES`` or from another field, or records swapped, copied
    or dropped."""
    doc = copy.deepcopy(base)
    for _ in range(rng.randint(1, 3)):
        data = doc.get("data")
        op = rng.random()
        if op < 0.15 and isinstance(data, list) and len(data) > 1:
            i, j = rng.sample(range(len(data)), 2)
            if rng.random() < 0.5:
                data[i], data[j] = data[j], data[i]
            elif rng.random() < 0.5:
                data[i] = copy.deepcopy(data[j])
            else:
                del data[i]
            continue
        paths = list(field_paths(doc))
        if not paths:
            break
        if op < 0.4:
            value = copy.deepcopy(_value_at(doc, rng.choice(paths)))
        else:
            value = rng.choice(VALUES)
        _mutate(doc, rng.choice(paths), value)
    return doc


def _edge_docs() -> list[dict]:
    """Faults that only one check of the check pass tells apart: each would
    otherwise be found later or not at all, or be reported differently."""
    docs = [small_dataset_doc() for _ in range(6)]
    # a bad length, a bad or float wildcard degree, or no rows, that keeps the
    # record's degree
    docs[0]["data"][3]["local"]["factors"] = [{"t": 0, "base_id": "pi"}, {"t": 3, "base_id": "pi"}]
    docs[1]["data"][4]["local"].update(
        factors=[{"t": 13, "base_id": "nz0"}], wildcard={"id": "w", "degree": -1}
    )
    docs[4]["data"][4]["local"].update(s=0, wildcard={"id": "w", "degree": 12})
    docs[5]["data"][0]["local"]["wildcard"]["degree"] = 6.0
    # no factor and no wildcard, in a file of degree 0
    docs[2]["context"]["d"] = 0
    docs[2]["data"] = [docs[2]["data"][5]]
    docs[2]["data"][0]["local"]["factors"] = []
    # a clash reported in the order the labels are first used
    docs[3]["data"].insert(0, docs[3]["data"].pop(5))
    docs[3]["cuspidals"]["rho"]["modl_class"] = "a"
    return docs


@pytest.mark.parametrize("which", range(6))
def test_edge_faults_read_the_same_with_and_without_the_check(which, monkeypatch):
    assert not _assert_same_read(_edge_docs()[which], monkeypatch)


@pytest.mark.parametrize("where", ["record", "local", "wildcard", "factor", "integer id"])
def test_a_document_json_cannot_give_reads_the_same(where, monkeypatch):
    # a caller's document may hold another mapping than a dict, or a
    # registry id that is not a string: the checked reader refuses both, so
    # the check must not pass them
    doc = small_dataset_doc()
    rec = doc["data"][0]
    if where == "record":
        doc["data"][0] = MappingProxyType(rec)
    elif where == "local":
        rec["local"] = MappingProxyType(rec["local"])
    elif where == "wildcard":
        rec["local"]["wildcard"] = MappingProxyType(rec["local"]["wildcard"])
    elif where == "factor":
        rec["local"]["factors"][0] = MappingProxyType(rec["local"]["factors"][0])
    else:
        doc["cuspidals"][7] = doc["cuspidals"].pop("nz0")
        for factor in itertools.chain(*(r["local"]["factors"] for r in doc["data"])):
            if factor["base_id"] == "nz0":
                factor["base_id"] = 7
    assert not _assert_same_read(doc, monkeypatch)


def test_a_dict_subclass_is_read_by_the_checked_reader(monkeypatch):
    # ``json.load`` with ``object_pairs_hook=OrderedDict`` gives such a
    # document: the check refuses every record, and the checked reader,
    # which accepts any dict, reads each one alone into the same dataset
    doc = small_dataset_doc()
    ordered = json.loads(json.dumps(doc), object_pairs_hook=collections.OrderedDict)
    with _counting_checked(monkeypatch) as calls:
        ds = dataset_from_dict(ordered)
    assert calls == [f"data[{idx}]" for idx in range(len(doc["data"]))]
    plain = dataset_from_dict(doc)
    assert ds._index == plain._index and ds.labels == plain.labels
    assert ds == plain


def test_random_mutations_read_the_same_with_and_without_the_check(monkeypatch):
    rng = random.Random(20261018)
    bases = _multi_record_docs()
    accepted = 0
    for _ in range(1500):
        accepted += _assert_same_read(_random_mutant(rng, rng.choice(bases)), monkeypatch)
    assert accepted >= 150


class TestOneWalk:
    """``congruence._walk`` is the one walk of a dataset's records: built
    from records or read from a valid file, a dataset is walked once, and
    the file is not read record by record."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"walk": 0, "checked": 0}
        walk, checked = congruence._walk, jsonio._checked_record

        def counted_walk(*args):
            counts["walk"] += 1
            return walk(*args)

        def counted_checked(*args):
            counts["checked"] += 1
            return checked(*args)

        monkeypatch.setattr(congruence, "_walk", counted_walk)
        monkeypatch.setattr(jsonio, "_checked_record", counted_checked)
        return counts

    def test_both_forms_walk_once_and_alike(self, counts):
        lazy = dataset_from_dict(small_dataset_doc())
        assert counts == {"walk": 1, "checked": 0} and unbuilt(lazy)
        assert [x.id for x in members(lazy, lazy.context.pi, 4, 2)] == ["a0"]
        built = Dataset(lazy.context, lazy.data, lazy.torsion, lazy.levels)
        assert counts == {"walk": 2, "checked": 0}  # a checked record is not checked again
        assert built.labels == lazy.labels and built._index == lazy._index

    def test_generated_dataset_walks_once(self, counts):
        generate_dataset(5, GlobalContext(d=12, pi=PI), r=4)
        assert counts == {"walk": 1, "checked": 0}

    def test_a_walk_fault_reads_no_record_alone(self, counts):
        # the records after the one the walk refused pass the check
        doc = small_dataset_doc()
        doc["data"][1]["id"] = doc["data"][0]["id"]
        with pytest.raises(InconsistentDataError, match="duplicate datum id"):
            dataset_from_dict(doc)
        assert counts == {"walk": 1, "checked": 0}

    def test_a_fault_in_the_last_record_reads_it_alone(self, counts):
        doc = small_dataset_doc()
        doc["data"][-1]["m"] = "2"
        with pytest.raises(SchemaError, match=r"^data\[6\]\.m: expected an integer$"):
            dataset_from_dict(doc)
        assert counts == {"walk": 0, "checked": 1}  # every record is checked before the walk


def _built(ds: Dataset, doc: dict) -> Dataset:
    """The dataset read from ``doc`` built from the checked reader's records,
    over the label objects of ``ds``."""
    return Dataset(ds.context, _checked_data(doc, ds), ds.torsion, ds.levels)


class TestUnbuiltDataset:
    """A dataset read with its records unbuilt behaves as one built from the
    checked reader's records."""

    @pytest.mark.parametrize("which", range(5))
    def test_reads_match(self, which):
        doc = _multi_record_docs()[which]
        lazy = dataset_from_dict(doc)
        eager = _built(lazy, doc)
        assert unbuilt(lazy)
        assert lazy.labels == eager.labels
        anchors = [label for label in eager.labels if label.id in eager._index]
        for pi, r in itertools.product(anchors, range(1, 8)):
            assert expected_contributions(lazy, pi, r) == expected_contributions(eager, pi, r)
            for s in range(1, r + 1):
                assert members(lazy, pi, r, s) == members(eager, pi, r, s)
        assert lazy == eager and hash(lazy) == hash(eager) and repr(lazy) == repr(eager)
        for twin in (pickle.loads(pickle.dumps(dataset_from_dict(doc))), copy.deepcopy(lazy)):
            assert twin == eager and twin.labels == eager.labels and not unbuilt(twin)

    @pytest.mark.parametrize("which", range(5))
    def test_substitute_and_replace_match(self, which):
        doc = _multi_record_docs()[which]
        eager = _built(dataset_from_dict(doc), doc)

        def same(make):
            lazy = dataset_from_dict(doc)
            a, b = make(lazy), make(eager)
            assert a == b
            assert canonical_dumps(dataset_to_dict(a)) == canonical_dumps(dataset_to_dict(b))

        same(lambda ds: substitute_cuspidal(ds, PI, PI_TWIN))
        same(lambda ds: dataclasses.replace(ds))
        same(lambda ds: dataclasses.replace(ds, levels=(2, 0)))
        same(lambda ds: dataclasses.replace(ds, data=ds.data[1:]))

        # after a query has built one radius
        lazy = dataset_from_dict(doc)
        built = members(lazy, PI, 4, 2) + members(lazy, PI, 3, 1)
        assert all(any(datum is x for x in lazy.data) for datum in built)
        assert substitute_cuspidal(lazy, PI, PI_TWIN) == substitute_cuspidal(eager, PI, PI_TWIN)


# --------------------------------------------------------------- growth guard


def _sweep_doc(pi) -> dict:
    """Anchor records at radii 2 to 5 of one file, with noise records; for
    ``PI`` and ``PI_TWIN`` the two files are congruent twins."""
    ctx = GlobalContext(d=12, pi=pi)
    data = []
    for r in (2, 3, 4, 5):
        part = generate_dataset(r, ctx, r=r, noise_data=3)
        data += [dataclasses.replace(datum, id=f"r{r}.{datum.id}") for datum in part.data]
    return dataset_to_dict(Dataset(ctx, tuple(data), levels=(0, 1, 2)))


def _ids_at(doc: dict, r: int, s: int) -> set[str]:
    """Ids of the records of ``doc`` with ``s`` rows and an anchor factor at
    radius ``r``."""
    anchor = doc["context"]["pi_id"]
    return {
        rec["id"]
        for rec in doc["data"]
        for f in rec["local"]["factors"]
        if f["base_id"] == anchor and rec["local"]["s"] == s and s + f["t"] - 1 == r
    }


@pytest.mark.parametrize("r,s", [(2, 1), (3, 3), (4, 3), (5, 5)])
def test_query_builds_only_its_rows(r, s, monkeypatch):
    doc_a, doc_b = _sweep_doc(PI), _sweep_doc(PI_TWIN)
    built: list[AutomorphicDatum] = []
    post_init = AutomorphicDatum.__post_init__

    def counted(self):
        post_init(self)
        built.append(self)

    monkeypatch.setattr(AutomorphicDatum, "__post_init__", counted)
    ds_a, ds_b = dataset_from_dict(doc_a), dataset_from_dict(doc_b)
    assert built == []
    verdict = theorem_check(ds_a, ds_a.context.pi, ds_b, ds_b.context.pi, r, s)
    assert verdict.equal and verdict.lhs
    rows = _ids_at(doc_a, r, s)
    assert 0 < len(rows) < len(doc_a["data"]) // 4
    assert sorted(datum.id for datum in built) == sorted([*rows, *_ids_at(doc_b, r, s)])

    built.clear()
    data = ds_a.data
    assert sorted(datum.id for datum in built) == sorted(
        rec["id"] for rec in doc_a["data"] if rec["id"] not in rows
    )
    built.clear()
    assert ds_a.data is data and members(ds_a, PI, r, s) and built == []


if __name__ == "__main__":
    sys.stdout.writelines(double_fault_lines() if sys.argv[1:] == ["double"] else mutation_lines())
