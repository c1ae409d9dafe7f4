import json
import shutil
from pathlib import Path

import pytest

from collabmap import views
from collabmap.corpus import load_corpus
from collabmap.errors import (
    DanglingReference,
    DanglingUda,
    DuplicateId,
    EmptyCorpus,
    InsufficientData,
    InsufficientSectors,
    InvariantViolation,
    MissingFile,
    ParseError,
    ZeroVariance,
)
from collabmap.report import (
    LEVEL_SDS,
    LEVEL_UDA,
    SELECTORS,
    build_multidisc_table,
    sector_intensity,
)
from collabmap.stats import COMPARISONS, compare

from oracles import Oracle

DATA = Path(__file__).parent / "data"
FIXTURE40 = DATA / "fixture40"
GOLDEN = Path(__file__).parent / "golden"
# byte-exact renders in the formats render_all does not write
GOLDEN_FORMATS = Path(__file__).parent / "golden_formats"


@pytest.fixture(scope="session")
def corpus40():
    return load_corpus(FIXTURE40)


@pytest.fixture
def fixture_copy(tmp_path):
    """Mutable copy of the small corpus for tamper tests."""
    dest = tmp_path / "data"
    shutil.copytree(FIXTURE40, dest)
    return dest


def ifpr_by_pub_id(corpus):
    """The ifpr view keyed by pub_id, as the raw-file oracle keys it."""
    return dict(zip((pub.pub_id for pub in corpus.publications), views.of(corpus).ifpr))


def assert_close(got, want, context):
    """Equal sequences of rows or numbers; floats may differ by 1e-9."""
    assert len(got) == len(want), context
    for g, w in zip(got, want):
        if isinstance(w, (tuple, list)):
            assert_close(g, w, context)
        elif isinstance(w, float):
            assert g is not None and abs(g - w) <= 1e-9, (context, g, w)
        else:
            assert g == w, (context, g, w)


def _replace(old, new):
    def edit(text):
        assert old in text, old
        return text.replace(old, new, 1)
    return edit


def _append(line):
    return lambda text: text + line + "\n"


_E1 = {"raw_name": "Martorana E.", "researcher_id": "RES-E1", "org_id": "UNI-A"}


def _pub(**fields):
    """A publications.jsonl line: a well-formed record P99 with ``fields`` changed."""
    return json.dumps({"pub_id": "P99", "year": 2002, "journal_id": "JRN-A",
                       "authors": [_E1], "address_org_ids": ["UNI-A"], **fields})


_PUBS, _JOURNALS, _ORGS = "publications.jsonl", "journals.csv", "organizations.csv"
_ROSTER, _TAXONOMY = "roster.csv", "taxonomy.csv"
_E1_ROW = "RES-E1,Elena Martorana,UNI-A,ELEC"

# Each malformed copy of fixture40 by name: {file: edit}, extra `validate`
# arguments, the error type the library raises, and the error `validate`
# reports, where {dir} is the copy. An edit maps the file's text to its new
# text, or to None to delete the file. Text is written with surrogateescape,
# so "\udcff" is the byte 0xff.
MALFORMED = {
    # field-level parse errors, located at file and line
    "json": ({_PUBS: _append("{not json")}, [], ParseError,
             "{dir}/publications.jsonl:42: invalid JSON: "
             "Expecting property name enclosed in double quotes"),
    "json_digit_limit": ({_PUBS: _append('{"year": ' + "9" * 5000 + "}")}, [], ParseError,
                         "{dir}/publications.jsonl:42: invalid JSON: Exceeds the limit (4300 "
                         "digits) for integer string conversion: value has 5000 digits; use "
                         "sys.set_int_max_str_digits() to increase the limit"),
    "json_nested": ({_PUBS: _append("[" * 200_000)}, [], ParseError,
                    "{dir}/publications.jsonl:42: invalid JSON: nested too deeply"),
    "record_not_object": ({_PUBS: _append("[]")}, [], ParseError,
                          "{dir}/publications.jsonl:42: publication record must be an object"),
    "pub_id": ({_PUBS: _append(_pub(pub_id=""))}, [], ParseError,
               "{dir}/publications.jsonl:42: pub_id must be a non-empty string"),
    "year": ({_PUBS: _append(_pub(year="2002"))}, [], ParseError,
             "{dir}/publications.jsonl:42: year must be an integer"),
    "journal_id": ({_PUBS: _append(_pub(journal_id=""))}, [], ParseError,
                   "{dir}/publications.jsonl:42: journal_id must be a non-empty string"),
    "authors": ({_PUBS: _append(_pub(authors=[]))}, [], ParseError,
                "{dir}/publications.jsonl:42: authors must be a non-empty list"),
    "author_entry": ({_PUBS: _append(_pub(authors=["Martorana E."]))}, [], ParseError,
                     "{dir}/publications.jsonl:42: author entries must be objects"),
    "author_raw_name": (
        {_PUBS: _append(_pub(authors=[{**_E1, "raw_name": ""}]))}, [], ParseError,
        "{dir}/publications.jsonl:42: author raw_name must be a non-empty string"),
    "author_org_id": (
        {_PUBS: _append(_pub(authors=[{**_E1, "org_id": ""}]))}, [], ParseError,
        "{dir}/publications.jsonl:42: author org_id must be a non-empty string"),
    "author_researcher_id": (
        {_PUBS: _append(_pub(authors=[{**_E1, "researcher_id": 42}]))}, [], ParseError,
        "{dir}/publications.jsonl:42: author researcher_id must be null or a string"),
    "address_list": ({_PUBS: _append(_pub(address_org_ids="UNI-A"))}, [], ParseError,
                     "{dir}/publications.jsonl:42: address_org_ids must be a list"),
    "address_entry": ({_PUBS: _append(_pub(address_org_ids=["UNI-A", 7]))}, [], ParseError,
                      "{dir}/publications.jsonl:42: address_org_ids must be non-empty strings"),
    "publications_utf8": ({_PUBS: _replace('"P02"', '"P\udcff2"')}, [], ParseError,
                          "{dir}/publications.jsonl:3: "
                          "byte 0xff is not valid UTF-8 (invalid start byte)"),
    "journal_year": ({_JOURNALS: _replace(",2002,1.200,", ",x,1.200,")}, [], ParseError,
                     "{dir}/journals.csv:3: year must be an integer, got 'x'"),
    "journal_impact_factor": ({_JOURNALS: _replace(",2002,1.200,", ",2002,x,")}, [], ParseError,
                              "{dir}/journals.csv:3: impact_factor must be a number, got 'x'"),
    "journal_negative_impact_factor": (
        {_JOURNALS: _replace(",2002,1.200,", ",2002,-1.200,")}, [], ParseError,
        "{dir}/journals.csv:3: journal JRN-A@2002: "
        "impact_factor -1.2 is not a finite number >= 0"),
    "journal_infinite_impact_factor": (
        {_JOURNALS: _replace("2001,1.000", "2001,inf")}, [], ParseError,
        "{dir}/journals.csv:2: journal JRN-A@2001: "
        "impact_factor inf is not a finite number >= 0"),
    "journal_no_category": (
        {_JOURNALS: _replace(",2002,1.200,CAT-A", ",2002,1.200,;")}, [], ParseError,
        "{dir}/journals.csv:3: journal JRN-A@2002: "
        "categories '' are not a non-empty sorted set"),
    "journal_repeated_category": (
        {_JOURNALS: _replace(",2002,1.200,CAT-A", ",2002,1.200,CAT-A;CAT-A")}, [], ParseError,
        "{dir}/journals.csv:3: journal JRN-A@2002: "
        "categories 'CAT-A;CAT-A' are not a non-empty sorted set"),
    "journals_utf8": ({_JOURNALS: _replace("Annals", "Ann\udcffls")}, [], ParseError,
                      "{dir}/journals.csv:2: byte 0xff is not valid UTF-8 (invalid start byte)"),
    "journals_utf8_later_row": (
        {_JOURNALS: _replace("Applied Studies,2002", "Appli\udcffd Studies,2002")}, [], ParseError,
        "{dir}/journals.csv:3: byte 0xff is not valid UTF-8 (invalid start byte)"),
    "organization_kind": ({_ORGS: _replace(",consortium,", ",firm,")}, [], ParseError,
                          "{dir}/organizations.csv:2: organization CNS-1: unknown kind 'firm'"),
    "long_value": ({_ORGS: _replace(",consortium,", "," + "x" * 41 + ",")}, [], ParseError,
                   "{dir}/organizations.csv:2: organization CNS-1: unknown kind "
                   "'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx'... (41 characters)"),
    "organization_country": (
        {_ORGS: _replace(",consortium,IT", ",consortium,Italy")}, [], ParseError,
        "{dir}/organizations.csv:2: organization CNS-1: "
        "country must be an alpha-2 code, got 'Italy'"),
    "csv_empty": ({_TAXONOMY: lambda text: ""}, [], ParseError,
                  "{dir}/taxonomy.csv:1: empty file"),
    "csv_header": (
        {_ROSTER: _replace("researcher_id,full_name", "id,full_name")}, [], ParseError,
        "{dir}/roster.csv:1: expected header researcher_id,full_name,"
        "university_org_id,sds_id, got id,full_name,university_org_id,sds_id"),
    "csv_ragged_row": ({_ROSTER: _append("RES-Z1,Zeno Zanetti,UNI-A")}, [], ParseError,
                       "{dir}/roster.csv:18: wrong number of fields"),
    "csv_empty_name": ({_ROSTER: _append("RES-Z1,,UNI-A,ELEC")}, [], ParseError,
                       "{dir}/roster.csv:18: researcher_id and full_name must be non-empty"),
    "csv_field_limit": (
        {_ROSTER: _append("RES-Z1," + "x" * 200_000 + ",UNI-A,ELEC")}, [], ParseError,
        "{dir}/roster.csv:18: field larger than field limit (131072)"),
    "taxonomy_no_rows": (
        {_TAXONOMY: lambda text: text.splitlines(keepends=True)[0]}, [], ParseError,
        "{dir}/taxonomy.csv:1: taxonomy has no rows"),
    # table-level errors, unlocated
    "missing_file": ({_TAXONOMY: lambda text: None}, [], MissingFile,
                     "missing input file: {dir}/taxonomy.csv"),
    "missing_journals": ({_JOURNALS: lambda text: None}, [], MissingFile,
                         "missing input file: {dir}/journals.csv"),
    "taxonomy_missing_area": (
        {_TAXONOMY: _replace("ELEC,Electronics,ENG,Engineering", "ELEC,Electronics,,")}, [],
        DanglingUda, "sector 'ELEC': missing area id or name"),
    "taxonomy_area_names": (
        {_TAXONOMY: _replace("MECH,Mechanical design,ENG,Engineering",
                             "MECH,Mechanical design,ENG,Engines")}, [], DanglingUda,
        "sector 'MECH': area 'ENG' named both 'Engineering' and 'Engines'"),
    "duplicate_sector": ({_TAXONOMY: _append("ELEC,Electronics,ENG,Engineering")}, [],
                         DuplicateId, "duplicate sds_id: 'ELEC'"),
    "duplicate_organization": ({_ORGS: _append("UNI-A,Universita di Arquata,university,IT")},
                               [], DuplicateId, "duplicate org_id: 'UNI-A'"),
    "duplicate_journal_year": (
        {_JOURNALS: _append("JRN-A,Annals of Applied Studies,2002,1.200,CAT-A")}, [],
        DuplicateId, "duplicate journal_id/year: 'JRN-A/2002'"),
    "duplicate_researcher": ({_ROSTER: _append(_E1_ROW)}, [], DuplicateId,
                             "duplicate researcher_id: 'RES-E1'"),
    "duplicate_pub_id": ({_PUBS: _append(_pub(pub_id="P01"))}, [], DuplicateId,
                         "duplicate pub_id: 'P01'"),
    # the window drops the 1995 copy before construction, so only the loader sees it
    "duplicate_pub_id_outside_window": ({_PUBS: _append(_pub(pub_id="P01", year=1995))}, [],
                                        DuplicateId, "duplicate pub_id: 'P01'"),
    "reversed_window": ({}, ["--year-min", "2005", "--year-max", "2001"], ValueError,
                        "window start 2005 is after window end 2001"),
    "empty_window": ({}, ["--year-min", "1990", "--year-max", "1991"], EmptyCorpus,
                     "no publications fall inside the window 1990-1991"),
    # construction checks
    "roster_university_kind": (
        {_ROSTER: _replace(_E1_ROW, "RES-E1,Elena Martorana,FRM-X,ELEC")}, [], InvariantViolation,
        "roster entry RES-E1: organization 'FRM-X' has kind 'private_firm', "
        "expected 'university'"),
    "roster_unknown_university": (
        {_ROSTER: _replace(_E1_ROW, "RES-E1,Elena Martorana,UNI-Q,ELEC")}, [], DanglingReference,
        "unknown organization: 'UNI-Q' (roster entry RES-E1)"),
    "roster_unknown_sector": (
        {_ROSTER: _replace(_E1_ROW, "RES-E1,Elena Martorana,UNI-A,NOPE")}, [], DanglingReference,
        "unknown sds: 'NOPE' (roster entry RES-E1)"),
    "dangling_journal": ({_PUBS: _append(_pub(journal_id="JRN-Q"))}, [], DanglingReference,
                         "unknown journal: 'JRN-Q' (publication P99)"),
    "journal_without_usable_year": (
        {_JOURNALS: _append("JRN-Q,Quaderni Storici,1998,1.500,CAT-A"),
         _PUBS: _append(_pub(journal_id="JRN-Q"))}, [], DanglingReference,
        "unknown journal_year: 'JRN-Q@2002' (publication P99)"),
    "dangling_address_org": (
        {_PUBS: _append(_pub(address_org_ids=["ORG-Q", "UNI-A"]))}, [], DanglingReference,
        "unknown organization: 'ORG-Q' (publication P99)"),
    "dangling_author_org": (
        {_PUBS: _append(_pub(authors=[_E1, {"raw_name": "Chi E.", "researcher_id": None,
                                             "org_id": "ORG-Q"}]))}, [], DanglingReference,
        "unknown organization: 'ORG-Q' (author 'Chi E.' of P99)"),
    "dangling_researcher": (
        {_PUBS: _append(_pub(authors=[{**_E1, "researcher_id": "RES-Q"}]))}, [],
        DanglingReference, "unknown researcher: 'RES-Q' (publication P99)"),
    "author_university_not_in_addresses": (
        {_PUBS: _append(_pub(address_org_ids=["UNI-B"]))}, [], InvariantViolation,
        "publication P99: author RES-E1 belongs to 'UNI-A', which is not in the address list"),
}


def write_copy(edits, dest):
    """Write fixture40 to ``dest`` with ``edits`` ({file: edit}) applied."""
    shutil.copytree(FIXTURE40, dest)
    for file, edit in edits.items():
        path = dest / file
        text = edit(path.read_text(encoding="utf-8"))
        if text is None:
            path.unlink()
        else:
            path.write_text(text, encoding="utf-8", errors="surrogateescape")


def write_malformed(name, dest):
    """Write the malformed copy ``name`` of fixture40 to ``dest``; return the
    `validate` argv for it and the one line it must print to stderr."""
    edits, args, _, message = MALFORMED[name]
    write_copy(edits, dest)
    return (["validate", "--data-dir", str(dest), *args],
            f"error: {message.format(dir=dest)}\n")


RESEARCHERS = "researchers_industry_vs_rest"


def assert_comparison_layer(corpus, out, min_collab_pubs, seed):
    """Sector intensity, multidisc rows and every comparison's samples of
    ``corpus`` equal the raw-file oracles of ``out`` over the same window."""
    oracle = Oracle(out, corpus.window, corpus.home_country)
    for level in (LEVEL_SDS, LEVEL_UDA):
        rows = [(r.sector_id, r.n_industry_coauth, r.pct_of_all, r.pct_of_coauth,
                 r.per_researcher) for r in sector_intensity(corpus, level)]
        assert_close(rows, oracle.sector_intensity(level), (seed, level))
    for selector in SELECTORS:
        rows = [(r.scope_id, r.ii_sds, r.ii_sci, r.n_pubs)
                for r in build_multidisc_table(corpus, selector).rows]
        assert_close(rows, oracle.multidisc_by_scope(selector), (seed, selector))
    for grouping, indicator in COMPARISONS:
        context = (seed, grouping, indicator)
        if grouping == RESEARCHERS:
            xs, ys, excluded = oracle.researcher_groups(indicator)
            n_units = len(xs) + len(ys)
        else:
            xs, ys, excluded = oracle.paired_samples(grouping, indicator,
                                                     min_collab_pubs)
            n_units = len(xs)
        try:
            c = compare(corpus, grouping, indicator, min_collab_pubs=min_collab_pubs)
        except (InsufficientData, InsufficientSectors):
            assert min(len(xs), len(ys)) < 2, context
            continue
        except ZeroVariance:
            if grouping == RESEARCHERS:
                constant = (xs, ys)
            else:
                constant = ([x - y for x, y in zip(xs, ys)],)
            assert all(max(v) - min(v) <= 1e-9 for v in constant), context
            continue
        assert_close(c.sample_a.values, xs, context)
        assert_close(c.sample_b.values, ys, context)
        assert (c.n_units, c.excluded) == (n_units, excluded), context
