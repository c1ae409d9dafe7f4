import dataclasses
import json
import shutil
from pathlib import Path

import pytest

from collabmap import views
from collabmap.corpus import AuthorRef, Organization, Publication, load_corpus
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
    CASE_M_N,
    CASE_M_ONE,
    CASE_ONE_N,
    CASE_ONE_ONE,
    LEVEL_SDS,
    LEVEL_UDA,
    SELECTORS,
    build_multidisc_table,
    count_collaborations,
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


def pub_ids(corpus, mask):
    """The pub_ids of the publications set in a view's bitmask ``mask``."""
    return frozenset(corpus.publications[i].pub_id for i in views.members(mask))


def org_registry(n_universities, n_firms, extras=()):
    """Universities U0.., Italian firms F0.. and ``extras`` (id, kind, country), by id."""
    orgs = [Organization(f"U{i}", f"University {i}", "university", "IT")
            for i in range(n_universities)]
    orgs += [Organization(f"F{i}", f"Firm {i}", "private_firm", "IT") for i in range(n_firms)]
    orgs += [Organization(oid, oid, kind, country) for oid, kind, country in extras]
    return {org.org_id: org for org in orgs}


def with_articles(base, orgs, address_lists):
    """``base`` plus ``orgs``, with one article PX00, PX01, ... per address list."""
    pubs = [Publication(f"PX{k:02d}", 2002, "JRN-A",
                        (AuthorRef("Someone A.", None, addresses[0]),),
                        tuple(sorted(addresses)))
            for k, addresses in enumerate(address_lists)]
    return dataclasses.replace(
        base, organizations={**base.organizations, **orgs}, publications=pubs)


def _expected_case(m, n):
    """The case of m universities and n firms, looked up by (m > 1, n > 1)."""
    if m == 0 or n == 0:
        return None
    return ((CASE_ONE_ONE, CASE_ONE_N), (CASE_M_ONE, CASE_M_N))[m > 1][n > 1]


def article_case(corpus, pub):
    """The case and collaboration count ``count_collaborations`` gives one article."""
    s = count_collaborations(dataclasses.replace(corpus, publications=[pub]))
    cases = [case for case, k in s.articles_by_case.items() if k]
    assert s.industry_articles == len(cases) <= 1, pub.pub_id
    return (cases[0] if cases else None), s.total_collaborations


def other_orgs(corpus, pub):
    """The address organizations of ``pub`` on neither side."""
    universities, firms = views.of(corpus).parties
    return frozenset(pub.address_org_ids) - universities - firms


def case_grid(base):
    """One article per cell (m, n) in [0,4]^2, PX{5m+n:02d}, with a public org on each."""
    registry = org_registry(4, 4, extras=[("P0", "public_org", "IT")])
    return with_articles(base, registry, [
        [f"U{i}" for i in range(m)] + [f"F{j}" for j in range(n)] + ["P0"]
        for m in range(5) for n in range(5)])


def assert_grid_cell(grid, edges, pub):
    m, n = divmod(int(pub.pub_id[2:]), 5)
    universities, firms = views.of(grid).parties
    assert article_case(grid, pub) == (_expected_case(m, n), m * n), (m, n)
    assert [(u, f) for p, u, f in edges if p == pub.pub_id] == [
        (f"U{i}", f"F{j}") for i in range(m) for j in range(n)], (m, n)
    assert universities & set(pub.address_org_ids) == {f"U{i}" for i in range(m)}
    assert firms & set(pub.address_org_ids) == {f"F{j}" for j in range(n)}
    assert other_orgs(grid, pub) == {"P0"}


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
    # a whole record decodes, but more follows it on its line
    "json_extra_data": ({_PUBS: _append(_pub() + " {}")}, [], ParseError,
                        "{dir}/publications.jsonl:42: invalid JSON: Extra data"),
    # only the file's first byte-order mark is skipped
    "json_bom_later_line": ({_PUBS: _append("\ufeff" + _pub())}, [], ParseError,
                            "{dir}/publications.jsonl:42: invalid JSON: "
                            "Unexpected UTF-8 BOM (decode using utf-8-sig)"),
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
    "address_empty_entry": ({_PUBS: _append(_pub(address_org_ids=["UNI-A", ""]))}, [],
                            ParseError, "{dir}/publications.jsonl:42: "
                            "address_org_ids must be non-empty strings"),
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
    # a row's own rules come before the check for a repeated id
    "organization_repeat_with_bad_kind": (
        {_ORGS: _append("UNI-A,Universita di Arquata,bogus,IT")}, [], ParseError,
        "{dir}/organizations.csv:14: organization UNI-A: unknown kind 'bogus'"),
    "journal_repeat_with_bad_impact_factor": (
        {_JOURNALS: _append("JRN-A,Annals of Applied Studies,2002,abc,CAT-A")}, [], ParseError,
        "{dir}/journals.csv:11: impact_factor must be a number, got 'abc'"),
    "researcher_repeat_with_empty_name": (
        {_ROSTER: _append("RES-E1,,UNI-A,ELEC")}, [], ParseError,
        "{dir}/roster.csv:18: researcher_id and full_name must be non-empty"),
    # a quoted record that spans lines is reported at its last line
    "organization_multiline_record": (
        {_ORGS: _append('ORG-Z,"Two\nlines",bogus,IT')}, [], ParseError,
        "{dir}/organizations.csv:15: organization ORG-Z: unknown kind 'bogus'"),
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
    "taxonomy_repeat_renames_area": (
        {_TAXONOMY: _append("ELEC,Electronics,ENG,Engines")}, [], DanglingUda,
        "sector 'ELEC': area 'ENG' named both 'Engineering' and 'Engines'"),
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


# expected cumulative probabilities computed with 40-digit arithmetic via
# the regularized incomplete beta function, then frozen; the tail P(T > |t|)
# is the expected value below zero and 1 minus it at or above zero
TCDF_CASES = (
    (-6.444289, 10.0, 3.7007681048174975e-05),
    (-6.141012, 5.0, 0.0008317224426862889),
    (0.838741, 4.5, 0.7780652427392607),
    (1.541507, 0.5, 0.7491137576864473),
    (-1.170292, 1.0, 0.2250748781182558),
    (5.391758, 3.0, 0.9937493855245608),
    (2.583439, 1000.0, 0.9950384792194163),
    (3.020392, 0.5, 0.8169472976258598),
    (-2.575498, 3.0, 0.04105000137619049),
    (-0.859472, 60.0, 0.19675058137626286),
    (2.597545, 15.0, 0.9899012720299523),
    (-0.931235, 1.0, 0.2613291939842655),
    (6.601797, 30.0, 0.9999998685869339),
    (6.857409, 4.5, 0.999238476510332),
    (-4.931246, 15.0, 9.049474014613815e-05),
    (-3.348396, 7.25, 0.005829906600293751),
    (-4.822523, 3.0, 0.008495084396314082),
    (6.10694, 120.0, 0.9999999935407505),
    (-1.517626, 60.0, 0.06718020997535103),
    (1.674916, 1000.0, 0.9528683152642883),
    (0.25662, 1000.0, 0.6012375403857537),
    (-2.005462, 30.0, 0.027003537745001565),
    (1.627501, 4.5, 0.9144970087548976),
    (-3.356282, 4.5, 0.01186074936190289),
    (2.726463, 1.0, 0.8881010940343141),
    (-4.198876, 30.0, 0.00011023741326242143),
    (-5.953956, 4.5, 0.0013628266131055404),
    (-4.577055, 5.0, 0.0029817203680685737),
    (-6.293071, 60.0, 1.979917981258974e-08),
    (3.839268, 3.0, 0.9844175745565076),
    (-1.259706, 60.0, 0.1063267555195341),
    (4.708393, 1.0, 0.9333850698647828),
    (-2.497497, 4.5, 0.030039158638892463),
    (-1.591345, 5.0, 0.08620334079765724),
    (0.574659, 60.0, 0.7161647710883554),
    (-3.010664, 15.0, 0.004389982953577478),
    (4.802883, 4.5, 0.9967973953624293),
    (-3.011221, 15.0, 0.004385004852976838),
    (-5.576582, 7.25, 0.000370270936310401),
    (7.478726, 2.0, 0.9912932866645404),
    (-1.088729, 60.0, 0.14031359730404375),
    (4.794562, 120.0, 0.9999976378822436),
    (1.563372, 3.0, 0.892044420276889),
    (-2.442356, 2.0, 0.06730360368419666),
    (-4.198999, 30.0, 0.00011019980570955686),
    (-2.764567, 1.0, 0.11047825424178173),
    (6.926726, 2.0, 0.9898937690352365),
    (-1.494029, 5.0, 0.09769809409617546),
    (5.882895, 60.0, 0.9999999037010393),
    (1.480717, 60.0, 0.9280427905959523),
)


# drawn samples with verdicts frozen from a 40-digit reference computation
PAIRED_WELCH_CASES = [
    ('paired', (-3.0, -2.5, 7.5, -3.5, -4.0, 7.5, 3.5), (2.5, 0.5, -4.5, -2.5, 3.0, 5.5, 2.5),
     -0.09003151654715279, 6.0, 0.46559619858873363, 0.9311923971774673),
    ('paired', (-0.5, 1.5, -3.0, 8.0, 1.0, -2.0, 3.5, 8.5, 8.0, 6.0), (8.5, 7.5, 7.0, 7.0, 5.5, -0.5, -1.5, 0.0, 1.0, 9.5),
     -0.6309226055592756, 9.0, 0.2718893173538307, 0.5437786347076614),
    ('paired', (7.5, -4.0, -4.5, 7.5, 1.0, -2.0, 2.0, 1.0), (3.0, 2.5, 9.5, 3.5, 6.5, 5.0, 1.0, 7.5),
     -1.6637349728108604, 7.0, 0.07005686881093211, 0.14011373762186421),
    ('paired', (-3.5, 2.5, -4.0, -4.5, 3.5, 3.0, -3.5, -2.5, 1.5, 1.5), (4.0, 6.0, -4.0, 1.5, -2.5, 7.0, -1.0, 5.5, -4.5, 6.5),
     -1.5402172523131914, 9.0, 0.07894703936414808, 0.15789407872829617),
    ('paired', (-1.0, 5.0, 3.0, -1.0, 5.0, -0.5, 9.0, -1.5, 9.5, 4.5), (7.5, 3.0, 2.5, -1.5, 1.0, 9.0, 5.0, 8.0, -4.5, 2.0),
     0.0, 9.0, 0.5, 1.0),
    ('paired', (-2.5, 9.5, 3.0, 7.0, 9.0), (-3.5, -3.5, -1.5, 3.5, 5.5),
     2.478240606824299, 4.0, 0.03416995032186517, 0.06833990064373034),
    ('paired', (6.0, 0.0, 6.5, 3.5, 0.0, -1.0, -4.5, 4.5, 1.0, 10.0), (-1.0, 5.0, 0.5, 9.5, -1.0, -3.0, -4.0, 8.5, -3.5, 1.0),
     0.8418541208472313, 9.0, 0.210837619206758, 0.421675238413516),
    ('paired', (8.5, 4.0, 2.0, -3.0, -1.0, 7.0, 2.0), (-0.5, -2.5, 9.0, -3.0, 7.5, 8.0, -2.0),
     0.17217983691292998, 6.0, 0.4344784887861387, 0.8689569775722774),
    ('paired', (9.5, 4.5, 2.5, 4.0, 8.0, 9.5), (-1.0, -1.0, -3.0, 2.5, -3.0, -1.5),
     4.666282626286914, 5.0, 0.0027504630184609444, 0.005500926036921889),
    ('paired', (9.5, 0.0, 5.0, 3.0, 7.5, -4.0), (-2.5, 0.0, 6.0, 2.0, 7.0, 4.0),
     0.2856063671889196, 5.0, 0.393316699634929, 0.786633399269858),
    ('paired', (9.0, 5.5, 4.5, -4.5, -3.0, -3.0, 2.0, -4.0, 7.0), (-2.5, 9.5, -3.5, 6.5, 0.5, 6.5, -1.5, -2.0, 9.5),
     -0.4230587207583805, 8.0, 0.3416977901413071, 0.6833955802826142),
    ('paired', (-1.5, 6.0, 1.0, 9.5, 1.0, 2.0, 4.5, -4.0, -3.0, 5.0), (5.5, 8.0, 2.5, 9.5, -3.0, 6.0, -3.5, -2.5, 8.0, 5.5),
     -0.928654425917386, 9.0, 0.1886511069135463, 0.3773022138270926),
    ('paired', (-4.0, -4.5, 0.0, 2.0), (4.0, 0.0, -3.5, 4.5),
     -1.1930290799683905, 3.0, 0.15930520448322627, 0.31861040896645254),
    ('paired', (-1.0, -3.0, 2.5, 2.0, -2.0, 10.0, 8.0, 0.5), (-2.0, -2.5, 9.0, -2.0, 1.5, 6.5, 0.5, 7.5),
     -0.10207051133379538, 7.0, 0.46078153372066605, 0.9215630674413321),
    ('paired', (5.0, -4.0, 9.0, 2.5, -3.0, 6.0), (6.0, 7.5, 1.0, -1.0, 8.0, 1.0),
     -0.34287370858435284, 5.0, 0.37281916902806556, 0.7456383380561311),
    ('paired', (-1.5, 6.5, -0.5), (0.0, -1.0, -2.0),
     0.944911182523068, 2.0, 0.2222222222222222, 0.4444444444444444),
    ('paired', (1.0, 5.5, 9.5, 7.0, 7.5), (4.0, -3.5, 2.0, 6.5, -3.5),
     1.873171623163388, 4.0, 0.06716872377643986, 0.1343374475528797),
    ('paired', (2.5, 10.0, 7.0, -0.5, -1.5, -2.0, -4.5, -4.0, 9.5, 2.0), (5.5, -3.0, 3.5, 8.0, 9.0, -2.0, 0.0, 6.5, -4.0, -3.0),
     -0.07120188545089044, 9.0, 0.4723970954896449, 0.9447941909792898),
    ('paired', (0.0, 7.0, -1.5), (-1.5, 5.5, 10.0),
     -0.6538461538461539, 2.0, 0.2901714230901922, 0.5803428461803845),
    ('paired', (0.5, 8.5, 1.0, 6.0, -4.0), (8.5, -1.0, 6.5, 6.5, -2.5),
     -0.40022240757904204, 4.0, 0.3547230215782534, 0.7094460431565068),
    ('paired', (4.5, 0.5, -2.0, -3.5, 4.5, 9.0, -2.5, 4.5), (-4.5, 7.0, 2.0, -2.5, 8.5, 7.5, 3.0, 4.5),
     -0.7425284203862264, 7.0, 0.24096772270410619, 0.48193544540821237),
    ('paired', (3.0, -1.0, 2.0, -2.5, 0.0, 7.0, 2.0, 4.5), (4.5, -1.0, 6.0, 7.5, -3.0, -1.0, 5.5, 1.0),
     -0.2882729177340981, 7.0, 0.39074335366856255, 0.7814867073371251),
    ('paired', (7.5, 0.0, -3.5, 3.0, 0.5, 8.0, -3.0), (5.5, -2.0, -2.5, 9.5, 4.5, 2.5, 8.0),
     -0.8633158302221952, 6.0, 0.21056407196687474, 0.4211281439337495),
    ('paired', (1.0, -1.0, -0.5, 9.5, 8.0, -0.5, -2.0, 6.0, -1.5, 2.0), (5.0, 4.0, -0.5, 1.5, -3.0, -2.5, 6.5, 2.0, -3.0, 4.0),
     0.3714632972805431, 9.0, 0.3594433603566878, 0.7188867207133756),
    ('paired', (2.0, 5.5, 4.0, -0.5, -2.0, 6.5, 10.0, -2.5), (9.0, -0.5, 8.5, -3.0, 0.5, 2.0, -1.5, 4.0),
     0.2123406857568687, 7.0, 0.4189460175437127, 0.8378920350874254),
    ('welch', (-3.0, 7.5, -1.0), (4.0, 5.0, 3.5, 5.5, 4.0, 9.0, -2.5, 5.5, 9.0, 9.5, 2.5),
     -1.1329786826390724, 2.436031405283249, 0.17817255117569764, 0.35634510235139527),
    ('welch', (6.5, 5.0, 3.5, 0.0, 0.0, -2.5, 8.0), (9.0, 3.5, 3.0, 3.5, 4.0, -4.0, 8.5),
     -0.45776736692757614, 11.869695650994112, 0.3276930340973174, 0.6553860681946349),
    ('welch', (9.0, 5.5, -0.5, 10.0, 4.0, -0.5, 3.0, 7.5), (0.5, -0.5, 10.0, 8.0, 2.5, 7.5, 7.5, -4.0, 6.5, 2.5, -1.5, 8.0),
     0.4302900909546508, 16.5049332686098, 0.3362752448697002, 0.6725504897394003),
    ('welch', (4.0, 0.5, 1.5, 8.0), (1.0, 3.5, 0.5, -3.0, -3.0),
     1.772656378163033, 5.912744778986914, 0.06369315932449723, 0.12738631864899447),
    ('welch', (-4.0, -3.5, -2.5, 2.0, 1.0, -3.5), (1.0, -4.5, 5.5, 9.5, -3.0, 9.5, 7.0, 10.0),
     -2.649948639709397, 10.180425799670186, 0.011987716917727983, 0.023975433835455966),
    ('welch', (0.5, -4.5, -1.5, 1.5, -4.5, 9.0, 4.0, 6.0, -4.5, -2.5, -3.0, 0.5), (2.5, -3.0, 6.5, 0.5, 10.0, -0.5, 4.5, 8.5, 4.5, 4.5, -4.5),
     -1.5782226367426349, 20.66319126124567, 0.06485088453684636, 0.1297017690736927),
    ('welch', (4.0, -1.0, -4.5, -3.5), (8.5, 10.0, 2.5),
     -2.7725545663754594, 4.3285936813516, 0.022987873957578016, 0.04597574791515603),
    ('welch', (9.5, 9.5, 6.0, -3.5), (-4.0, 8.5, 4.5, 2.5, 4.0, 10.0),
     0.30605636036721123, 5.534796134185873, 0.3853719187514239, 0.7707438375028478),
    ('welch', (-4.0, -0.5, -1.5, 2.5, -2.5, 7.5, 2.5, 7.5, 4.5, 2.0, -4.0, 3.0), (2.0, -2.0, -3.5, 0.5, -2.0, 7.5, 4.5, -3.0, 1.5, 2.5),
     0.384615082360521, 19.90414911487472, 0.3523006450745127, 0.7046012901490254),
    ('welch', (7.5, 5.0, 1.5, 2.0), (-3.5, 8.5, 3.0, 0.5, 0.5, 7.0, 7.5, 1.0, 5.5, 0.0, -4.5),
     0.8742786836958774, 8.656598521627435, 0.20278395947646058, 0.40556791895292116),
    ('welch', (6.5, 0.5, -2.0, 1.5, 1.5, 10.0, -2.5, 1.5, 9.0), (0.0, -4.5, -1.0, 8.0, -1.5, -0.5, 6.5, 3.0, 8.0, 6.5),
     0.21030730148101667, 16.78227433620838, 0.4179800028927592, 0.8359600057855184),
    ('welch', (6.0, -0.5, -1.5, 3.5, 3.0, -4.5, 3.5, 6.0, -2.0, -1.0, 7.0), (-0.5, 0.0, -1.5, -2.5, -4.5, 2.0, 7.5, 0.0, 6.5, 6.0),
     0.2722090294111799, 18.51099632623693, 0.3942371853791948, 0.7884743707583896),
    ('welch', (1.0, 3.0, -3.5, 5.5, 4.5, 8.5, 5.5), (0.5, -2.0, -0.5, 5.0, -4.5, 3.0, 4.0, 2.5, 5.5, 0.5),
     1.1828285982334346, 11.385070430622308, 0.1304947827186598, 0.2609895654373196),
    ('welch', (0.5, 7.5, -1.0, 2.5, 7.5, -2.0, 9.5, 3.5), (-2.0, 0.5, -1.5, 8.5, 5.5),
     0.5085485541829057, 8.138904001088836, 0.31228211975012915, 0.6245642395002583),
    ('welch', (-0.5, 3.0, 7.0, -2.5, 6.0, -4.5, 1.0, 1.0, 1.5, 4.5, 1.0, 10.0), (0.0, -2.5, 3.5, -4.5, 0.0, -2.5),
     2.007673837104392, 14.080992835438831, 0.03213244625908432, 0.06426489251816864),
    ('welch', (1.0, -3.5, -0.5, 1.0, -1.5, 7.5, -0.5, -2.0, 9.0), (3.5, -3.0, 4.0, 9.5, -2.0, 5.5),
     -0.7318361587306613, 10.09883996458966, 0.24045328711322722, 0.48090657422645444),
    ('welch', (1.5, 1.5, 5.5, -1.0, -4.5, -1.5, 9.5, -4.0, 9.0, 7.0, 8.0), (-2.0, 7.0, -0.5, -2.0, -2.0, 4.0, 0.0, 1.0, -0.5, -1.0, 0.5),
     1.3524105125872776, 15.308551325850155, 0.09794250700329613, 0.19588501400659225),
    ('welch', (-3.5, 3.5, 4.0, 4.5, 2.5, 8.0, 3.0), (-3.0, -0.5, 6.5, 8.5),
     0.08809771710383954, 4.37979963699455, 0.4668411508061456, 0.9336823016122912),
    ('welch', (3.0, -2.0, 4.0, 1.5, 0.0, 9.5, 1.5, -1.0, -4.5, 2.5, 1.0), (0.0, -2.0, 7.5, 1.5, 2.5, -3.5, 7.5, 8.5, 6.0),
     -0.9250406429535107, 15.374051956458795, 0.18461883240369992, 0.36923766480739983),
    ('welch', (-0.5, 10.0, 1.5, 8.5, 5.5, -1.5, 7.0, 2.5), (-0.5, 0.0, 1.5, 8.5),
     0.6808949492885515, 6.205154065950262, 0.26026219719414384, 0.5205243943882877),
    ('welch', (0.5, 5.0, -4.0), (9.5, 4.5, 5.5, 4.0, -1.5),
     -1.2420130228320398, 3.8580316298782407, 0.1421919853185778, 0.2843839706371556),
    ('welch', (8.0, -1.5, 6.0, 5.5, 5.0, 2.5), (1.0, -3.0, 2.5),
     1.916344664631514, 4.781266462172941, 0.05805009300959884, 0.11610018601919768),
    ('welch', (5.0, 6.5, 5.5, 0.0, -3.0, 4.5, 2.5, 1.0, 0.5, 6.0, -4.5, -4.5), (0.5, 4.0, 8.0, 7.0, 6.5),
     -2.0074343632876195, 10.151558169872475, 0.03603030985381734, 0.07206061970763468),
    ('welch', (-2.0, -2.5, -4.0, 7.0, 6.5, 5.5, 1.5, 3.5, -1.0, 6.5), (6.0, 5.5, 9.5, 9.0, -0.5, 1.5, -4.5, 4.0, -4.0),
     -0.38669960121155544, 15.533854109022975, 0.3521122326282649, 0.7042244652565298),
    ('welch', (8.5, 7.5, 2.0, -2.0, 5.0, 10.0, 7.5), (3.5, 3.5, 9.0, 6.5),
     -0.06035454657505933, 8.758434344601145, 0.4766139718965535, 0.953227943793107),
]
