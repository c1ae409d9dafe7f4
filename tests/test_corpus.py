import contextlib
import dataclasses
import gc
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collabmap import errors
from collabmap.cli import main
from collabmap.corpus import (
    AuthorRef,
    Corpus,
    Publication,
    Researcher,
    ValidationIssue,
    _parse_publication,
    load_corpus,
    load_taxonomy,
    validate_corpus,
)
from collabmap.harness import SynthConfig, generate
from collabmap.report import render_all

from conftest import DATA, FIXTURE40


def _rewrite(path, old, new, count=1):
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, count), encoding="utf-8")


def _append_pub(data_dir, record):
    with (data_dir / "publications.jsonl").open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")


def _copy_of(pub_id, year=2001):
    """A minimal valid record with the given pub_id and year."""
    return {
        "pub_id": pub_id, "year": year, "journal_id": "JRN-A",
        "authors": [{"raw_name": "X", "researcher_id": None, "org_id": "FRM-X"}],
        "address_org_ids": ["FRM-X"],
    }


def test_load_counts(corpus40):
    c = corpus40
    assert len(c.publications) == 40
    assert c.window_excluded == 1
    assert c.window == (2001, 2003)
    assert len(c.organizations) == 12
    assert len(c.researchers) == 16
    assert len(c.journals) == 9
    assert c.journal_ids == {"JRN-A", "JRN-B", "JRN-G"}
    assert len(c.taxonomy) == 6
    assert c.taxonomy["ELEC"].uda_id == "ENG"
    assert {e.uda_id: e.uda_name for e in c.taxonomy.values()} == {
        "BIO": "Biology", "CHEM": "Chemistry", "ENG": "Engineering"}


def test_publications_sorted_and_frozen(corpus40):
    ids = [p.pub_id for p in corpus40.publications]
    assert ids == sorted(ids)
    with pytest.raises(dataclasses.FrozenInstanceError):
        corpus40.publications[0].year = 1900


def test_addresses_sorted_and_deduped(fixture_copy):
    _append_pub(fixture_copy, {
        "pub_id": "P99", "year": 2002, "journal_id": "JRN-A",
        "authors": [{"raw_name": "Martorana E.", "researcher_id": "RES-E1", "org_id": "UNI-A"}],
        "address_org_ids": ["UNI-B", "UNI-A", "UNI-B"],
    })
    c = load_corpus(fixture_copy)
    pub = {p.pub_id: p for p in c.publications}["P99"]
    assert pub.address_org_ids == ("UNI-A", "UNI-B")


def test_window_filtering(fixture_copy):
    c = load_corpus(fixture_copy, window=(1999, 2003))
    assert len(c.publications) == 41
    assert c.window_excluded == 0
    c = load_corpus(fixture_copy, window=(2001, 2001))
    assert all(p.year == 2001 for p in c.publications)
    assert len(c.publications) + c.window_excluded == 41


def _append_bytes(path, data):
    with path.open("ab") as fh:
        fh.write(data)


def _line(pub_id, year=2001):
    return (json.dumps(_copy_of(pub_id, year)) + "\n").encode()


_BAD_LINE = b"{not json\n"


# a repeated pub_id fails at its own line, in file order with the line errors;
# 20000 blank lines put the bad byte well past the text reader's 8 KB chunks
@pytest.mark.parametrize("tail, error, message", [
    pytest.param(_line("P01") + _BAD_LINE, errors.DuplicateId, "pub_id: 'P01'",
                 id="repeat_then_malformed"),
    pytest.param(_BAD_LINE + _line("P01"), errors.ParseError, ":42: invalid JSON",
                 id="malformed_then_repeat"),
    pytest.param(_line("P98", 1995) * 2 + _BAD_LINE, errors.DuplicateId, "pub_id: 'P98'",
                 id="repeat_outside_window_then_malformed"),
    pytest.param(_line("P01") + b"\n" * 20_000 + b"\xff\n", errors.DuplicateId,
                 "pub_id: 'P01'", id="repeat_then_bad_utf8_in_later_chunk"),
    # P01 is read before P05, but the copy of P05 comes first
    pytest.param(_line("P05") + _line("P01"), errors.DuplicateId, "pub_id: 'P05'",
                 id="first_repeat_in_file_order"),
])
def test_repeat_and_line_errors_raise_in_file_order(fixture_copy, tail, error, message):
    _append_bytes(fixture_copy / "publications.jsonl", tail)
    with pytest.raises(error, match=message):
        load_corpus(fixture_copy)


def test_construction_rejects_duplicate_pub_id(corpus40):
    with pytest.raises(errors.DuplicateId) as exc:
        dataclasses.replace(
            corpus40, publications=corpus40.publications + corpus40.publications[:1])
    assert (exc.value.kind, exc.value.value) == ("pub_id", "P01")


@pytest.mark.parametrize("addresses", [("UNI-B", "UNI-A"), ("UNI-A", "UNI-A")])
def test_construction_rejects_unsorted_address_list(corpus40, addresses):
    bad_pub = dataclasses.replace(corpus40.publications[0], address_org_ids=addresses)
    with pytest.raises(errors.InvariantViolation, match="P01: address list"):
        dataclasses.replace(corpus40, publications=(bad_pub,) + corpus40.publications[1:])


_BAD_RECORDS = [
    {"pub_id": "P99", "year": "2002", "journal_id": "JRN-A",
     "authors": [{"raw_name": "A", "researcher_id": None, "org_id": "FRM-X"}],
     "address_org_ids": ["FRM-X"]},
    {"pub_id": "P99", "year": True, "journal_id": "JRN-A",
     "authors": [{"raw_name": "A", "researcher_id": None, "org_id": "FRM-X"}],
     "address_org_ids": ["FRM-X"]},
    {"pub_id": "P99", "year": 2002, "journal_id": "JRN-A",
     "authors": [], "address_org_ids": ["FRM-X"]},
    {"pub_id": "P99", "year": 2002, "journal_id": "JRN-A",
     "authors": [{"raw_name": "A", "researcher_id": 42, "org_id": "FRM-X"}],
     "address_org_ids": ["FRM-X"]},
    {"pub_id": "", "year": 2002, "journal_id": "JRN-A",
     "authors": [{"raw_name": "A", "researcher_id": None, "org_id": "FRM-X"}],
     "address_org_ids": ["FRM-X"]},
]


def _dated(record, year):
    """The record dated ``year``; a year of the wrong type keeps its type."""
    old = record["year"]
    if isinstance(old, bool):
        return record
    return {**record, "year": str(year) if isinstance(old, str) else year}


@pytest.mark.parametrize("record", _BAD_RECORDS + [
    {"pub_id": "P99", "year": 2002, "journal_id": "JRN-A",
     "authors": ["A"], "address_org_ids": ["FRM-X"]},
    {"pub_id": "P99", "year": 2002, "journal_id": "JRN-A",
     "authors": [{"raw_name": "A", "researcher_id": None, "org_id": "FRM-X"}],
     "address_org_ids": ["FRM-X", 7]},
])
def test_bad_row_outside_window_raises_as_inside(fixture_copy, record):
    # no record is built for a row outside the window, but it is checked in full
    original = (fixture_copy / "publications.jsonl").read_text(encoding="utf-8")
    raised = []
    for year in (1995, 2002):
        (fixture_copy / "publications.jsonl").write_text(original, encoding="utf-8")
        _append_pub(fixture_copy, _dated(record, year))
        with pytest.raises(errors.ParseError) as exc:
            load_corpus(fixture_copy)
        raised.append((exc.value.line, str(exc.value)))
    assert raised[0] == raised[1]
    assert raised[0][0] == 42


def test_author_without_researcher_id_key_is_unlinked(fixture_copy):
    _append_pub(fixture_copy, {
        "pub_id": "P99", "year": 2002, "journal_id": "JRN-A",
        "authors": [{"raw_name": "Nemo X.", "org_id": "FRM-X"},
                    {"raw_name": "Nemo X.", "researcher_id": None, "org_id": "FRM-X"}],
        "address_org_ids": ["FRM-X"],
    })
    pub = {p.pub_id: p for p in load_corpus(fixture_copy).publications}["P99"]
    assert pub.authors[0] == AuthorRef("Nemo X.", None, "FRM-X")
    assert pub.authors[0] is pub.authors[1]


def _repeated(records):
    """Records grouped by value: {value: set of object ids}, for values seen twice or more."""
    groups = {}
    for record in records:
        groups.setdefault(record, []).append(id(record))
    return {value: set(ids) for value, ids in groups.items() if len(ids) > 1}


def test_one_load_shares_repeated_records(corpus40):
    pubs = corpus40.publications
    bylines = _repeated([a for p in pubs for a in p.authors])
    addresses = _repeated([p.address_org_ids for p in pubs])
    journals = _repeated([p.journal_id for p in pubs])
    years = _repeated([p.year for p in pubs])
    for groups in (bylines, addresses, journals, years):
        assert groups  # fixture40 repeats each kind, so the check is not empty
        assert all(len(ids) == 1 for ids in groups.values())


def _keys_of(mapping):
    return {id(key) for key in mapping}


@pytest.mark.parametrize("source", ["fixture40", "synth"])
def test_loaded_ids_are_the_tables_own_strings(source, tmp_path):
    if source == "synth":
        generate(SynthConfig(seed=1234, n_pubs=5000), tmp_path)
    corpus = load_corpus(FIXTURE40 if source == "fixture40" else tmp_path)
    orgs, roster = _keys_of(corpus.organizations), _keys_of(corpus.researchers)
    sectors = _keys_of(corpus.taxonomy)
    journals = {id(journal_id) for journal_id, _ in corpus.journals}
    for researcher in corpus.researchers.values():
        assert id(researcher.university_org_id) in orgs
        assert id(researcher.sds_id) in sectors
    linked = 0
    for pub in corpus.publications:
        assert id(pub.journal_id) in journals
        assert all(id(org_id) in orgs for org_id in pub.address_org_ids)
        for author in pub.authors:
            assert id(author.org_id) in orgs
            if author.researcher_id is not None:
                assert id(author.researcher_id) in roster
                linked += 1
    assert linked  # the check is not empty


def test_byline_and_address_list_never_share_a_key():
    # the byline (A, B, C) and the address list [A, B, C] hold the same strings
    line = json.dumps({
        "pub_id": "P1", "year": 2002, "journal_id": "J",
        "authors": [{"raw_name": "A", "researcher_id": "B", "org_id": "C"}],
        "address_org_ids": ["C", "B", "A"],
    })
    shared = {}
    _, pub = _parse_publication(Path("publications.jsonl"), 1, line, (2001, 2003), shared)
    _, again = _parse_publication(Path("publications.jsonl"), 2, line, (2001, 2003), shared)
    assert pub.authors == (AuthorRef("A", "B", "C"),)
    assert pub.address_org_ids == ("A", "B", "C")
    assert again.authors[0] is pub.authors[0]
    assert again.address_org_ids is pub.address_org_ids


def test_loads_share_no_author(corpus40):
    again = load_corpus(FIXTURE40)
    assert again == corpus40
    ids = {id(a) for p in corpus40.publications for a in p.authors}
    assert ids.isdisjoint(id(a) for p in again.publications for a in p.authors)


def test_records_have_slots(corpus40):
    pub = corpus40.publications[0]
    assert not hasattr(pub, "__dict__")
    assert not hasattr(pub.authors[0], "__dict__")
    assert not hasattr(corpus40.researchers["RES-E1"], "__dict__")


def test_shared_records_equal_unshared_copies(corpus40):
    unshared = dataclasses.replace(corpus40, publications=tuple(
        dataclasses.replace(
            pub,
            authors=tuple(dataclasses.replace(a) for a in pub.authors),
            address_org_ids=tuple(list(pub.address_org_ids)),
        )
        for pub in corpus40.publications
    ))
    authors = [a for p in unshared.publications for a in p.authors]
    assert len({id(a) for a in authors}) == len(authors)
    assert unshared == corpus40
    assert render_all(unshared, min_collab_pubs=3) == render_all(corpus40, min_collab_pubs=3)


def test_byte_order_mark_is_accepted(fixture_copy, corpus40):
    # spreadsheet exports often start a UTF-8 file with an invisible BOM
    for path in fixture_copy.iterdir():
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    corpus = load_corpus(fixture_copy)
    assert corpus == corpus40
    assert render_all(corpus, min_collab_pubs=3) == render_all(corpus40, min_collab_pubs=3)


def _kb_per_kept_pub(config, out):
    """(kept, peak) traced KB per in-window publication of loading a generated corpus.

    Kept bytes are measured as perfbench's memory pass measures them.
    """
    generate(config, out)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_corpus(out)
        gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_pub = 1024 * len(loaded.publications)
    return (kept - before) / per_pub, (peak - before) / per_pub


def test_loaded_corpus_memory_bound(tmp_path):
    kept, _ = _kb_per_kept_pub(SynthConfig(seed=1234, n_pubs=5000), tmp_path)
    assert kept <= 0.40


def test_loaded_corpus_peak_bound(tmp_path):
    # 40% of the rows lie outside the window: the duplicate check sees ids no record keeps
    config = SynthConfig(seed=1234, n_pubs=5000, year_min=1999, year_max=2003)
    _, peak = _kb_per_kept_pub(config, tmp_path)
    assert peak <= 0.55


def test_long_csv_field_echoed_as_a_prefix(fixture_copy, capsys):
    _rewrite(fixture_copy / "journals.csv", ",2002,1.200,", f",{'9' * 5000},1.200,")
    assert main(["validate", "--data-dir", str(fixture_copy)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {fixture_copy / 'journals.csv'}:3: ")
    assert len(err[0]) < 200


def test_long_csv_header_echoed_as_a_prefix(fixture_copy, capsys, monkeypatch):
    _rewrite(fixture_copy / "journals.csv", "sci_categories\n", f"sci_categories{'x' * 5000}\n")
    # a relative data dir, so the line's length is the message's, not the temp path's
    monkeypatch.chdir(fixture_copy.parent)
    assert main(["validate", "--data-dir", fixture_copy.name]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {Path(fixture_copy.name) / 'journals.csv'}:1: ")
    assert err[0].endswith(", got journal_id,name,year,impact_factor,sci_c... (5049 characters)")
    assert len(err[0]) < 200


_FIELDS = {
    "year": ("journals.csv", 3, ",2002,1.200,", ",{},1.200,", "year must be an integer, got {}"),
    "impact_factor": ("journals.csv", 3, ",2002,1.200,", ",2002,{},",
                      "impact_factor must be a number, got {}"),
    "kind": ("organizations.csv", 2, ",consortium,", ",{},",
             "organization CNS-1: unknown kind {}"),
    "country": ("organizations.csv", 2, "consortium,IT", "consortium,{}",
                "organization CNS-1: country must be an alpha-2 code, got {}"),
}
_SIZES = [("x" * 40, repr("x" * 40)), ("x" * 41, repr("x" * 40) + "... (41 characters)")]
_REPEATED_CODE = "x" * 20 + ";" + "x" * 20  # a 41-character category list


@pytest.mark.parametrize("value, shown, name, line, old, new, message", [
    *(pytest.param(*size, *field, id=f"{key}_{len(size[0])}")
      for size in _SIZES for key, field in _FIELDS.items()),
    pytest.param(_REPEATED_CODE, repr(_REPEATED_CODE[:40]) + "... (41 characters)",
                 "journals.csv", 3, ",2002,1.200,CAT-A", ",2002,1.200,{}",
                 "journal JRN-A@2002: categories {} are not a non-empty sorted set",
                 id="categories_41"),
    # a record's name is cut too; a 4000-digit year parses, as int() allows 4300 digits
    pytest.param("9" * 4000, "9" * 40 + "... (4000 characters)",
                 "organizations.csv", 2, "CNS-1,Consorzio Ricerche Applicate,consortium,",
                 "{},Consorzio Ricerche Applicate,firm,", "organization {}: unknown kind 'firm'",
                 id="long_organization_id"),
    pytest.param("9" * 4000, "JRN-A@" + "9" * 34 + "... (4006 characters)",
                 "journals.csv", 3, ",2002,1.200,", ",{},-1.0,",
                 "journal {}: impact_factor -1.0 is not a finite number >= 0",
                 id="long_journal_year"),
])
def test_csv_field_errors_show_at_most_a_prefix(fixture_copy, name, line, old, new, message,
                                                value, shown):
    _rewrite(fixture_copy / name, old, new.format(value))
    with pytest.raises(errors.ParseError) as exc:
        load_corpus(fixture_copy)
    assert (exc.value.path, exc.value.line) == (str(fixture_copy / name), line)
    assert exc.value.message == message.format(shown)


_FIXTURE_FILES = {path.name: path.read_bytes() for path in FIXTURE40.iterdir()}


def _mutate(data, kind, at, size, byte):
    """One damaged copy of ``data``; ``at`` is a fraction of its length."""
    pos = int(at * len(data))
    if kind == "flip":
        return data[:pos] + bytes([byte]) + data[pos + 1:]
    if kind == "truncate":
        return data[:pos]
    if kind == "repeat":
        lines = data.splitlines(keepends=True) or [b""]
        return data + lines[int(at * len(lines))] * size
    if kind == "nest":
        return data[:pos] + b"[" * (size * 10_000) + data[pos:]
    return data[:pos] + bytes([byte]) * (size * 50_000) + data[pos:]  # a long field


_MUTATION = st.tuples(
    st.sampled_from(sorted(_FIXTURE_FILES)),
    st.sampled_from(["flip", "truncate", "repeat", "nest", "long"]),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=255),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_MUTATION, min_size=1, max_size=3))
def test_damaged_input_raises_only_domain_errors(mutations):
    files = dict(_FIXTURE_FILES)
    for name, kind, at, size, byte in mutations:
        files[name] = _mutate(files[name], kind, at, size, byte)
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = Path(tmp)
        for name, data in files.items():
            (data_dir / name).write_bytes(data)
        try:
            load_corpus(data_dir)
        except errors.CollabmapError:
            pass
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(["validate", "--data-dir", str(data_dir)]) in (0, 1)


def test_blank_jsonl_lines_skipped(fixture_copy):
    with (fixture_copy / "publications.jsonl").open("a", encoding="utf-8") as fh:
        fh.write("\n\n")
    assert len(load_corpus(fixture_copy).publications) == 40


def test_validate_clean_corpus(corpus40):
    warnings = validate_corpus(corpus40)
    codes = [w.code for w in warnings]
    assert len(codes) == 11
    assert codes.count("UnlinkedAuthor") == 10
    assert codes.count("UnreferencedOrganization") == 1
    subjects = [w.subject for w in warnings if w.code == "UnreferencedOrganization"]
    assert subjects == ["UNI-D"]
    # deterministic ordering
    keys = [(w.code, w.subject) for w in warnings]
    assert keys == sorted(keys)
    assert validate_corpus(corpus40) == warnings


def test_validate_sorts_warnings_by_code_before_subject(fixture_copy):
    # AAA-0 sorts before every UnlinkedAuthor subject, so a subject-first key lists it first
    with (fixture_copy / "organizations.csv").open("a", encoding="utf-8") as fh:
        fh.write("AAA-0,Agenzia Assente,public_org,IT\n")
    unlinked = ("P01:Rossi G.", "P02:Colombo P.", "P03:Bianchi L.", "P03:Ferrario D.",
                "P03:Greco S.", "P04:Moretti A.", "P04:Villa R.", "P06:Huber K.",
                "P13:Weber H.", "P35:Gasser P.")
    assert validate_corpus(load_corpus(fixture_copy)) == (
        *(ValidationIssue("UnlinkedAuthor", subject) for subject in unlinked),
        ValidationIssue("UnreferencedOrganization", "AAA-0"),
        ValidationIssue("UnreferencedOrganization", "UNI-D"),
    )


def test_construction_rejects_dangling(corpus40):
    bad_pub = dataclasses.replace(corpus40.publications[0], journal_id="JRN-NOPE")
    with pytest.raises(errors.DanglingReference) as exc:
        dataclasses.replace(corpus40, publications=(bad_pub,) + corpus40.publications[1:])
    assert exc.value.entity == "journal"
    assert str(exc.value) == "unknown journal: 'JRN-NOPE' (publication P01)"


def _publication(record):
    return Publication(
        record["pub_id"], record["year"], record["journal_id"],
        tuple(AuthorRef(a["raw_name"], a["researcher_id"], a["org_id"])
              for a in record["authors"]),
        tuple(sorted(set(record["address_org_ids"]))),
    )


def _p99(journal_id="JRN-A", researcher_id="RES-E1", org_id="UNI-A", addresses=("UNI-A",)):
    return {
        "pub_id": "P99", "year": 2002, "journal_id": journal_id,
        "authors": [{"raw_name": "Martorana E.", "researcher_id": researcher_id,
                     "org_id": org_id}],
        "address_org_ids": list(addresses),
    }


@pytest.mark.parametrize("record, error, entity", [
    (_p99(addresses=("UNI-A", "ORG-NOPE")), errors.DanglingReference, "organization"),
    (_p99(org_id="ORG-NOPE"), errors.DanglingReference, "organization"),
    (_p99(journal_id="JRN-Q"), errors.DanglingReference, "journal"),
    (_p99(journal_id="JRN-OLD"), errors.DanglingReference, "journal_year"),
    (_p99(researcher_id="RES-NOPE"), errors.DanglingReference, "researcher"),
    (_p99(addresses=("UNI-B",)), errors.InvariantViolation, None),
], ids=["address", "author_org", "journal", "journal_year", "researcher", "university"])
def test_construction_raises_what_load_raises(fixture_copy, record, error, entity):
    # JRN-OLD has a row outside the window only, so no year of it is usable
    with (fixture_copy / "journals.csv").open("a", encoding="utf-8") as fh:
        fh.write("JRN-OLD,Old Journal,1995,1.0,CAT-X\n")
    clean = load_corpus(fixture_copy)
    _append_pub(fixture_copy, record)
    with pytest.raises(error) as loaded:
        load_corpus(fixture_copy)
    with pytest.raises(error) as built:
        dataclasses.replace(clean, publications=clean.publications + (_publication(record),))
    assert getattr(built.value, "entity", None) == getattr(loaded.value, "entity", None) == entity
    assert str(built.value) == str(loaded.value)


@pytest.mark.parametrize("university, sds, error, entity", [
    ("UNI-NOPE", "ELEC", errors.DanglingReference, "organization"),
    ("FRM-X", "ELEC", errors.InvariantViolation, None),
    ("UNI-A", "NOPE", errors.DanglingReference, "sds"),
], ids=["unknown_university", "not_a_university", "unknown_sds"])
def test_roster_construction_raises_what_load_raises(fixture_copy, university, sds, error,
                                                     entity):
    clean = load_corpus(fixture_copy)
    with (fixture_copy / "roster.csv").open("a", encoding="utf-8") as fh:
        fh.write(f"RES-ZZ,Zed,{university},{sds}\n")
    with pytest.raises(error) as loaded:
        load_corpus(fixture_copy)
    entry = Researcher("RES-ZZ", "Zed", university, sds)
    with pytest.raises(error) as built:
        dataclasses.replace(clean, researchers={**clean.researchers, "RES-ZZ": entry})
    assert getattr(built.value, "entity", None) == getattr(loaded.value, "entity", None) == entity
    assert str(built.value) == str(loaded.value)
    assert "roster entry RES-ZZ" in str(built.value)


@pytest.mark.parametrize("window, drop_all, error", [
    ((1990, 1995), True, errors.EmptyCorpus),
    ((2003, 2001), False, ValueError),
], ids=["empty", "reversed_window"])
def test_window_construction_raises_what_load_raises(fixture_copy, window, drop_all, error):
    clean = load_corpus(fixture_copy)
    with pytest.raises(error) as loaded:
        load_corpus(fixture_copy, window=window)
    publications = () if drop_all else clean.publications
    with pytest.raises(error) as built:
        dataclasses.replace(clean, window=window, publications=publications)
    assert type(built.value) is type(loaded.value)
    assert str(built.value) == str(loaded.value)


def test_construction_rejects_publication_outside_window(fixture_copy):
    clean = load_corpus(fixture_copy)
    lines = (fixture_copy / "publications.jsonl").read_text(encoding="utf-8").splitlines()
    p01 = next(r for r in map(json.loads, lines) if r["pub_id"] == "P01")
    record = dict(p01, pub_id="P99", year=1995)
    _append_pub(fixture_copy, record)
    # the loader drops the row as it reads it
    assert load_corpus(fixture_copy).window_excluded == clean.window_excluded + 1
    with pytest.raises(errors.InvariantViolation) as exc:
        dataclasses.replace(clean, publications=clean.publications + (_publication(record),))
    assert str(exc.value) == "publication P99: year 1995 is outside the window 2001-2003"


def test_construction_rejects_publication_without_authors(corpus40):
    pub = dataclasses.replace(corpus40.publications[0], authors=())
    with pytest.raises(errors.InvariantViolation) as exc:
        dataclasses.replace(corpus40, publications=(pub,) + corpus40.publications[1:])
    assert str(exc.value) == "publication P01: no authors"


_NOT_A_SET = "are not a non-empty sorted set"


# each record rule as a changed field of one fixture40 record and as the same
# change to its file row; a corpus holding such a record would fail later with
# a ZeroDivisionError, shift impact percentiles or classify an organization as OTHER
@pytest.mark.parametrize("table, key, field, value, file, old, new, message", [
    ("journals", ("JRN-A", 2002), "sci_categories", (),
     "journals.csv", ",2002,1.200,CAT-A", ",2002,1.200,;",
     "journal JRN-A@2002: categories '' " + _NOT_A_SET),
    ("journals", ("JRN-A", 2002), "sci_categories", ("CAT-A", "CAT-A"),
     "journals.csv", ",2002,1.200,CAT-A", ",2002,1.200,CAT-A;CAT-A",
     "journal JRN-A@2002: categories 'CAT-A;CAT-A' " + _NOT_A_SET),
    ("journals", ("JRN-G", 2002), "impact_factor", float("nan"),
     "journals.csv", ",2002,3.200,", ",2002,nan,",
     "journal JRN-G@2002: impact_factor nan is not a finite number >= 0"),
    ("journals", ("JRN-G", 2002), "impact_factor", -1.0,
     "journals.csv", ",2002,3.200,", ",2002,-1.0,",
     "journal JRN-G@2002: impact_factor -1.0 is not a finite number >= 0"),
    ("journals", ("JRN-G", 2002), "impact_factor", float("inf"),
     "journals.csv", ",2002,3.200,", ",2002,inf,",
     "journal JRN-G@2002: impact_factor inf is not a finite number >= 0"),
    ("organizations", "FRM-X", "kind", "bogus",
     "organizations.csv", "SpA,private_firm,IT", "SpA,bogus,IT",
     "organization FRM-X: unknown kind 'bogus'"),
    ("organizations", "UNI-B", "country", "italy",
     "organizations.csv", "Bassano,university,IT", "Bassano,university,italy",
     "organization UNI-B: country must be an alpha-2 code, got 'italy'"),
], ids=["no_categories", "repeated_category", "nan_impact_factor", "negative_impact_factor",
        "infinite_impact_factor", "unknown_org_kind", "bad_org_country"])
def test_construction_rejects_what_the_loader_rejects(corpus40, fixture_copy, table, key, field,
                                                      value, file, old, new, message):
    with pytest.raises(errors.InvariantViolation) as built:
        dataclasses.replace(getattr(corpus40, table)[key], **{field: value})
    assert str(built.value) == message
    _rewrite(fixture_copy / file, old, new)
    with pytest.raises(errors.ParseError) as loaded:
        load_corpus(fixture_copy)
    assert loaded.value.message == message


def test_journals_checked_when_built_before_roster_and_publications(corpus40, fixture_copy):
    with pytest.raises(errors.InvariantViolation, match="journal JRN-A@2002"):
        dataclasses.replace(corpus40.journals[("JRN-A", 2002)], sci_categories=("CAT-B", "CAT-A"))
    # the loader reads journals.csv before the roster and the publications
    _rewrite(fixture_copy / "journals.csv", ",2002,1.200,CAT-A", ",2002,1.200,CAT-A;CAT-A")
    _rewrite(fixture_copy / "roster.csv", "UNI-A,ELEC", "UNI-A,NOPE")
    _append_pub(fixture_copy, _p99(journal_id="JRN-Q"))
    with pytest.raises(errors.ParseError) as exc:
        load_corpus(fixture_copy)
    assert (exc.value.path, exc.value.line) == (str(fixture_copy / "journals.csv"), 3)


def test_roster_checked_first_in_roster_order(corpus40):
    bad_pub = dataclasses.replace(corpus40.publications[0], journal_id="JRN-NOPE")
    researchers = {**corpus40.researchers,
                   "RES-ZZ": Researcher("RES-ZZ", "Zed", "UNI-A", "NOPE"),
                   "RES-AA": Researcher("RES-AA", "Abe", "UNI-NOPE", "ELEC")}
    with pytest.raises(errors.DanglingReference) as exc:
        dataclasses.replace(corpus40, researchers=researchers,
                            publications=(bad_pub,) + corpus40.publications[1:])
    assert str(exc.value) == "unknown sds: 'NOPE' (roster entry RES-ZZ)"


def test_construction_sorts_publications(corpus40):
    reversed_copy = dataclasses.replace(corpus40, publications=corpus40.publications[::-1])
    assert reversed_copy.publications == corpus40.publications
    assert reversed_copy == corpus40


def test_first_violation_in_pub_id_order(fixture_copy):
    # file order puts the unknown journal first; pub_id order puts P98 first
    _append_pub(fixture_copy, _p99(journal_id="JRN-Q"))
    _append_pub(fixture_copy, dict(_p99(researcher_id="RES-NOPE"), pub_id="P98"))
    with pytest.raises(errors.DanglingReference) as exc:
        load_corpus(fixture_copy)
    assert exc.value.entity == "researcher"
    assert "publication P98" in str(exc.value)


def test_effective_journal_exact_and_fallback(fixture_copy):
    with (fixture_copy / "journals.csv").open("a", encoding="utf-8") as fh:
        fh.write("JRN-T,Testi e Tavole,2001,1.000,CAT-A\n")
        fh.write("JRN-T,Testi e Tavole,2003,2.000,CAT-A\n")
        fh.write("JRN-Q,Quaderni,1998,1.000,CAT-A\n")
    _append_pub(fixture_copy, {
        "pub_id": "P99", "year": 2002, "journal_id": "JRN-T",
        "authors": [{"raw_name": "Martorana E.", "researcher_id": "RES-E1", "org_id": "UNI-A"}],
        "address_org_ids": ["UNI-A"],
    })
    c = load_corpus(fixture_copy)
    assert c.effective_journal("JRN-A", 2002).year == 2002
    # equidistant fallback prefers the earlier year
    assert c.effective_journal("JRN-T", 2002).year == 2001
    assert c.effective_journal("JRN-T", 2003).year == 2003
    # any in-window year can serve, however far the request
    assert c.effective_journal("JRN-T", 9999).year == 2003
    # a journal ranked only outside the window has no usable record,
    # not even in the year of that row
    assert c.effective_journal("JRN-Q", 2002) is None
    assert c.effective_journal("JRN-Q", 1998) is None


def test_full_size_taxonomy():
    tax = load_taxonomy(DATA / "taxonomy_full.csv")
    assert len(tax) == 183
    assert len({entry.uda_id for entry in tax.values()}) == 8
    assert tax["S001"].uda_id == "A01"
    assert tax["S183"].uda_id == "A07"


def test_corpus_is_frozen(corpus40):
    with pytest.raises(dataclasses.FrozenInstanceError):
        corpus40.window = (1990, 1999)
    assert isinstance(corpus40, Corpus)


def test_corpus_mappings_are_read_only(corpus40):
    org = corpus40.organizations["UNI-A"]
    targets = (
        corpus40.organizations,
        corpus40.journals,
        corpus40.researchers,
        corpus40.taxonomy,
    )
    for mapping in targets:
        with pytest.raises(TypeError):
            mapping["X"] = org
    # read-only copies still compare by content
    assert corpus40.organizations == dict(corpus40.organizations)
    assert load_corpus(FIXTURE40) == corpus40


@pytest.mark.parametrize("code", ["it", "", "ITA", "I1", "ÄÖ"])
def test_home_country_must_be_alpha2(code):
    # argparse checks the code before any file is read; the loader takes it as given
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--data-dir", str(FIXTURE40), "--home-country", code])
    assert exc.value.code == 2


def test_corpus_copies_the_mappings_it_is_given(corpus40):
    organizations = dict(corpus40.organizations)
    copy = dataclasses.replace(corpus40, organizations=organizations)
    del organizations["UNI-A"]
    assert "UNI-A" in copy.organizations
