import csv
import dataclasses
import io
import json

import pytest

from collabmap import views
from collabmap.corpus import load_corpus
from collabmap.harness import SynthConfig, generate
from collabmap.report import (
    CASE_M_N,
    CASE_M_ONE,
    CASE_ONE_N,
    CASE_ONE_ONE,
    COLLAB_CASES,
    FORMATS,
    LEVEL_SDS,
    LEVEL_UDA,
    METRICS,
    SELECTORS,
    TOP_SDS,
    TOP_UDA,
    build_multidisc_table,
    build_rank_table,
    count_collaborations,
    edges_csv,
    extract_edges,
    render,
    render_all,
    sector_headcounts,
    sector_intensity,
)
from collabmap.stats import COMPARISONS, Comparison, compare

from conftest import (FIXTURE40, GOLDEN, GOLDEN_FORMATS, article_case, assert_grid_cell,
                      case_grid, other_orgs)
from oracles import Oracle

GOLDEN_NAMES = (
    "compare_multidisc_all_vs_industry_ii_sci.json",
    "compare_multidisc_all_vs_industry_ii_sds.json",
    "compare_multidisc_collab_vs_industry_ii_sci.json",
    "compare_multidisc_collab_vs_industry_ii_sds.json",
    "compare_researchers_industry_vs_rest_fss.json",
    "compare_researchers_industry_vs_rest_o.json",
    "compare_sds_all_vs_collab_ifpr.json",
    "compare_sds_all_vs_industry_ifpr.json",
    "edges.csv",
    "rank_sds_count.csv",
    "rank_sds_pct_all.csv",
    "rank_sds_pct_coauth.csv",
    "rank_sds_per_researcher.csv",
    "rank_uda_count.md",
)

EXPECTED_EDGES = [
    ("P01", "UNI-A", "FRM-X"),
    ("P02", "UNI-A", "FRM-Y"),
    ("P02", "UNI-B", "FRM-Y"),
    ("P03", "UNI-A", "FRM-X"),
    ("P03", "UNI-A", "FRM-Y"),
    ("P03", "UNI-A", "FRM-Z"),
    ("P04", "UNI-B", "FRM-X"),
    ("P04", "UNI-B", "FRM-Z"),
    ("P04", "UNI-C", "FRM-X"),
    ("P04", "UNI-C", "FRM-Z"),
]


@pytest.fixture(scope="module")
def rendered(corpus40):
    return render_all(corpus40, min_collab_pubs=3)


def test_render_all_produces_expected_names(rendered):
    assert tuple(sorted(rendered)) == GOLDEN_NAMES


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_byte_identical(rendered, name):
    assert rendered[name].encode("utf-8") == (GOLDEN / name).read_bytes()


# output name -> the fixture40 table it renders, in the format its suffix names
FORMAT_GOLDENS = {
    "rank_sds_pct_coauth.json": lambda c: build_rank_table(c, LEVEL_SDS, "pct_coauth", TOP_SDS),
    "compare_sds_all_vs_collab_ifpr.csv":
        lambda c: compare(c, "sds_all_vs_collab", "ifpr", min_collab_pubs=3),
    "compare_researchers_industry_vs_rest_fss.md":
        lambda c: compare(c, "researchers_industry_vs_rest", "fss", min_collab_pubs=3),
    **{f"multidisc_industry_coauthored.{fmt}":
       lambda c: build_multidisc_table(c, "industry_coauthored") for fmt in FORMATS},
}


@pytest.mark.parametrize("name", sorted(FORMAT_GOLDENS))
def test_format_golden_byte_identical(corpus40, name):
    text = render(FORMAT_GOLDENS[name](corpus40), name.rsplit(".", 1)[1])
    assert text.encode("utf-8") == (GOLDEN_FORMATS / name).read_bytes()
    assert sorted(p.name for p in GOLDEN_FORMATS.iterdir()) == sorted(FORMAT_GOLDENS)


def test_render_all_deterministic(corpus40, rendered):
    again = render_all(corpus40, min_collab_pubs=3)
    assert again == rendered


def test_render_all_fresh_load_matches(corpus40, rendered):
    assert render_all(load_corpus(FIXTURE40), min_collab_pubs=3) == rendered
    # construction sorts by pub_id, so the input order of publications is moot
    reversed_copy = dataclasses.replace(corpus40, publications=corpus40.publications[::-1])
    assert render_all(reversed_copy, min_collab_pubs=3) == rendered


def test_no_carriage_returns(rendered):
    for name, text in rendered.items():
        assert "\r" not in text, name


def test_rank_table_structure(corpus40):
    table = build_rank_table(corpus40, level="sds", metric="count", k=2)
    assert table.k == 2
    assert len(table.rows) == 2
    assert table.rows[0].sector_id == "ELEC"
    assert table.rows[0].n_industry_coauth == 3
    assert table.title == "Top 2 sectors by industry co-authored articles"


def test_rank_table_sorts_by_value_then_id(corpus40):
    table = build_rank_table(corpus40, level="sds", metric="count", k=10)
    assert [r.sector_id for r in table.rows] == [
        "ELEC", "BIO1", "CHIM1", "BIO2", "CHIM2", "MECH"]


def test_rank_table_unknown_metric(corpus40):
    assert set(METRICS) == {"count", "pct_all", "pct_coauth", "per_researcher"}


def test_rank_table_render_roundtrip(corpus40):
    table = build_rank_table(corpus40, level="sds", metric="count", k=10)
    text = render(table, "csv")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["sector", "value", "pct_all", "pct_coauth", "per_researcher"]
    assert rows[1] == ["ELEC", "3", "30.000", "50.000", "0.375"]
    md = render(table, "md")
    assert md.startswith("Top 10 sectors by industry co-authored articles\n")
    assert "| ELEC | 3 | 30.000 | 50.000 | 0.375 |" in md
    payload = json.loads(render(table, "json"))
    assert payload["rows"][0]["sector"] == "ELEC"
    assert payload["rows"][0]["value"] == 3


def test_comparison_csv_and_json_agree(corpus40):
    table = compare(corpus40, "sds_all_vs_collab", "ifpr", min_collab_pubs=3)
    payload = json.loads(render(table, "json"))
    rows = {r[0]: r[1:] for r in csv.reader(io.StringIO(render(table, "csv")))}
    assert float(rows["mean"][0]) == payload["sample_a"]["mean"]
    assert float(rows["mean"][1]) == payload["sample_b"]["mean"]
    assert float(rows["variance"][0]) == payload["sample_a"]["variance"]
    assert int(rows["n"][0]) == payload["sample_a"]["n"]
    assert float(rows["t"][0]) == payload["t"]
    assert float(rows["df"][0]) == payload["df"]
    assert float(rows["p_one"][0]) == payload["p_one"]
    assert float(rows["p_two"][0]) == payload["p_two"]


def test_comparison_exclusion_note_carries_floor(corpus40):
    table = compare(corpus40, "sds_all_vs_collab", "ifpr", min_collab_pubs=3)
    assert "3" in table.exclusion_note
    md = render(table, "md")
    assert table.exclusion_note in md
    assert table.title in md


def test_small_p_values_use_scientific_notation(corpus40):
    table = compare(corpus40, "sds_all_vs_collab", "ifpr", min_collab_pubs=3)
    patched = json.loads(render(table, "json"))
    assert patched["p_two"] == 0.737
    # a tiny p-value formats as d.dddE-dd and survives the JSON round trip
    from collabmap.report import _fmt_p
    assert _fmt_p(3.2e-7) == "3.200e-07"
    assert _fmt_p(0.04) == "0.040"
    assert _fmt_p(9.999e-4) == "9.999e-04"
    assert _fmt_p(1e-3) == "0.001"


def test_multidisc_table(corpus40):
    table = build_multidisc_table(corpus40, "industry_coauthored")
    assert table.subset == "industry_coauthored"
    ids = [r.scope_id for r in table.rows]
    assert ids == ["BIO1", "CHIM1", "ELEC", "CAT-A", "CAT-B", "CAT-C"]
    text = render(table, "csv")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["scope", "subset", "ii_sds", "ii_sci", "n_pubs"]
    assert rows[1] == ["BIO1", "industry_coauthored", "2.000", "", "1"]
    md = render(table, "md")
    assert "| BIO1 | industry_coauthored | 2.000 | - | 1 |" in md
    payload = json.loads(render(table, "json"))
    assert payload["rows"][0]["ii_sci"] is None


def _cell_agrees(cell, value):
    """A CSV cell parses to the value JSON carries; empty means null."""
    if value is None:
        return cell == ""
    if isinstance(value, str):
        return cell == value
    return cell != "" and float(cell) == value


def _assert_formats_agree(table, context):
    payload = json.loads(render(table, "json"))
    csv_rows = list(csv.reader(io.StringIO(render(table, "csv"))))
    if isinstance(table, Comparison):
        a, b = payload["sample_a"], payload["sample_b"]
        want = [["field", a["label"], b["label"]],
                *([f, a[f], b[f]] for f in ("mean", "variance", "n")),
                *([f, payload[f], None] for f in ("t", "df", "p_one", "p_two"))]
        tail = ["", payload["exclusion_note"], ""]
    else:
        header = csv_rows[0]
        assert all(list(row) == header for row in payload["rows"]), context
        want = [header, *([row[h] for h in header] for row in payload["rows"])]
        tail = [""]
    assert [len(row) for row in csv_rows] == [len(row) for row in want], context
    for got_row, want_row in zip(csv_rows, want):
        for cell, value in zip(got_row, want_row):
            assert _cell_agrees(cell, value), (context, cell, value)
    lines = render(table, "md").split("\n")
    assert lines[:2] == [payload["title"], ""], context
    grid = [line[2:-2].split(" | ") for line in lines[2:3 + len(csv_rows)]]
    assert grid[1] == ["---"] * len(csv_rows[0]), context
    assert [grid[0], *grid[2:]] == [[c or "-" for c in row] for row in csv_rows], context
    assert lines[3 + len(csv_rows):] == tail, context


def test_csv_json_and_markdown_agree(corpus40, tmp_path):
    corpora = {"fixture40": corpus40}
    for seed in range(3):
        out = generate(SynthConfig(seed=seed, n_pubs=300), tmp_path / f"c{seed}")
        corpora[f"seed{seed}"] = load_corpus(out)
    for name, corpus in corpora.items():
        # at min_collab_pubs=3 every comparison computes on these four corpora
        tables = [compare(corpus, grouping, indicator, min_collab_pubs=3)
                  for grouping, indicator in COMPARISONS]
        tables += [build_rank_table(corpus, level, metric, TOP_SDS)
                   for level in (LEVEL_SDS, LEVEL_UDA) for metric in METRICS]
        tables += [build_multidisc_table(corpus, selector) for selector in SELECTORS]
        for table in tables:
            _assert_formats_agree(table, (name, table.title))


def test_edges_csv(corpus40, rendered):
    assert edges_csv(corpus40) == rendered["edges.csv"]
    lines = edges_csv(corpus40).splitlines()
    assert lines[0] == "pub_id,university_org_id,firm_org_id"
    assert len(lines) == 11


def test_rank_tables_and_edges_match_raw_file_oracles(tmp_path):
    # the second corpus shape of the acceptance sweep, over its first 40 seeds
    n_tables = n_edges = 0
    for seed in range(40):
        out = generate(
            SynthConfig(seed=seed, n_pubs=20 + 4 * seed, n_researchers=30 + 20 * seed,
                        n_journals=12, industry_rate=0.02 * (seed % 8),
                        max_authors=1 + seed % 5),
            tmp_path / f"c{seed}")
        corpus = load_corpus(out)
        oracle = Oracle(out, corpus.window, corpus.home_country)
        for level, k in ((LEVEL_SDS, TOP_SDS), (LEVEL_UDA, TOP_UDA)):
            intensity = oracle.sector_intensity(level)
            # oracle rows are (sector, count, pct_all, pct_coauth, per_researcher)
            for column, metric in enumerate(METRICS, start=1):
                defined = [row for row in intensity if row[column] is not None]
                expected = sorted(defined, key=lambda row: (-row[column], row[0]))[:k]
                table = build_rank_table(corpus, level, metric, k)
                assert [(r.sector_id, r.n_industry_coauth, r.pct_of_all, r.pct_of_coauth,
                         r.per_researcher) for r in table.rows] == expected, (seed, level, metric)
                n_tables += 1
        edges = list(extract_edges(corpus))
        assert edges == oracle.edges, seed
        n_edges += len(edges)
    assert n_tables == 320
    assert n_edges > 0


def _tiny_corpus(tmp_path, extra_pub_lines=()):
    d = tmp_path / "tiny"
    d.mkdir()
    t1 = ('{"pub_id": "T1", "year": 2002, "journal_id": "JRN-A", '
          '"authors": [{"raw_name": "Uno R.", "researcher_id": "R1", "org_id": "UNI-A"}], '
          '"address_org_ids": ["UNI-A"]}')
    files = {
        "taxonomy.csv": "sds_id,sds_name,uda_id,uda_name\nSDS1,Solo sector,UDA1,Solo area\n",
        "organizations.csv": ("org_id,canonical_name,kind,country\n"
                              "UNI-A,Uni A,university,IT\nFRM-X,Firm X,private_firm,IT\n"),
        "journals.csv": ("journal_id,name,year,impact_factor,sci_categories\n"
                         "JRN-A,Journal A,2002,1.000,CAT-A\n"),
        "roster.csv": "researcher_id,full_name,university_org_id,sds_id\nR1,Rita Uno,UNI-A,SDS1\n",
        "publications.jsonl": "\n".join([t1, *extra_pub_lines]) + "\n",
    }
    for name, text in files.items():
        (d / name).write_text(text, encoding="utf-8")
    return load_corpus(d, window=(2002, 2002))


def _multidisc(corpus, selector, column):
    return {r.scope_id: (getattr(r, column), r.n_pubs)
            for r in build_multidisc_table(corpus, selector).rows
            if getattr(r, column) is not None}


def test_case_grid(corpus40):
    grid = case_grid(corpus40)
    edges = list(extract_edges(grid))
    for pub in grid.publications:
        assert_grid_cell(grid, edges, pub)
    s = count_collaborations(grid)
    assert s.articles_by_case == {"one_one": 1, "m_one": 3, "one_n": 3, "m_n": 9}
    assert s.total_collaborations == len(edges) == sum(range(5)) ** 2


def test_fixture_profiles(corpus40):
    pubs = {pub.pub_id: pub for pub in corpus40.publications}
    assert article_case(corpus40, pubs["P01"]) == (CASE_ONE_ONE, 1)
    assert article_case(corpus40, pubs["P02"]) == (CASE_M_ONE, 2)
    assert article_case(corpus40, pubs["P03"]) == (CASE_ONE_N, 3)
    assert article_case(corpus40, pubs["P04"]) == (CASE_M_N, 4)
    assert article_case(corpus40, pubs["P05"]) == (None, 0)
    assert other_orgs(corpus40, pubs["P05"]) == frozenset({"PUB-L1"})
    assert article_case(corpus40, pubs["P13"]) == (None, 0)
    assert other_orgs(corpus40, pubs["P13"]) == frozenset({"FRM-DE"})
    assert other_orgs(corpus40, pubs["P35"]) == frozenset({"FGN-U1"})


def test_count_collaborations(corpus40):
    s = count_collaborations(corpus40)
    assert s.total_collaborations == 10
    assert s.industry_articles == 4
    assert s.articles_by_case == {"one_one": 1, "m_one": 1, "one_n": 1, "m_n": 1}
    assert s.collaborations_by_case == {"one_one": 1, "m_one": 2, "one_n": 3, "m_n": 4}
    assert list(s.articles_by_case) == list(COLLAB_CASES)


def test_extract_edges(corpus40):
    assert list(extract_edges(corpus40)) == EXPECTED_EDGES


def test_edge_count_matches_collab_total(corpus40):
    assert len(list(extract_edges(corpus40))) == count_collaborations(corpus40).total_collaborations


def test_count_with_foreign_home_country(corpus40):
    loaded = load_corpus(FIXTURE40, home_country="DE")
    replaced = dataclasses.replace(corpus40, home_country="DE")
    italian = count_collaborations(corpus40)
    for german in (loaded, replaced):
        assert german.home_country == "DE"
        s = count_collaborations(german)
        # only the German-firm article counts now
        assert s.industry_articles == 1
        assert s.total_collaborations == 1
        assert s.articles_by_case == {"one_one": 1, "m_one": 0, "one_n": 0, "m_n": 0}
        assert views.of(german) is not views.of(corpus40)
        assert edges_csv(german) == "pub_id,university_org_id,firm_org_id\nP13,UNI-C,FRM-DE\n"
    assert count_collaborations(corpus40) == italian


def test_sector_headcounts(corpus40):
    assert sector_headcounts(corpus40, LEVEL_SDS) == {
        "BIO1": 2, "BIO2": 1, "CHIM1": 2, "CHIM2": 1, "ELEC": 8, "MECH": 2}
    assert sector_headcounts(corpus40, LEVEL_UDA) == {"BIO": 3, "CHEM": 3, "ENG": 10}


def test_sector_intensity_sds(corpus40):
    rows = {r.sector_id: r for r in sector_intensity(corpus40, LEVEL_SDS)}
    elec = rows["ELEC"]
    assert elec.n_industry_coauth == 3
    assert elec.pct_of_all == pytest.approx(30.0, abs=1e-12)
    assert elec.pct_of_coauth == pytest.approx(50.0, abs=1e-12)
    assert elec.per_researcher == pytest.approx(0.375, abs=1e-12)
    assert rows["CHIM1"].pct_of_coauth == pytest.approx(100.0 / 3, abs=1e-12)
    assert rows["MECH"].n_industry_coauth == 0
    assert rows["MECH"].pct_of_all == 0.0
    assert [r.sector_id for r in sector_intensity(corpus40, LEVEL_SDS)] == sorted(rows)


def test_sector_intensity_uda(corpus40):
    rows = {r.sector_id: r for r in sector_intensity(corpus40, LEVEL_UDA)}
    eng = rows["ENG"]
    assert eng.n_industry_coauth == 3
    assert eng.pct_of_all == pytest.approx(100.0 * 3 / 18, abs=1e-12)
    assert eng.pct_of_coauth == pytest.approx(100.0 * 3 / 9, abs=1e-12)
    assert eng.per_researcher == pytest.approx(0.3, abs=1e-12)


def test_sector_intensity_zero_denominator(tmp_path):
    c = _tiny_corpus(tmp_path)
    rows = sector_intensity(c, LEVEL_SDS)
    assert len(rows) == 1
    row = rows[0]
    # one intramural article: no co-authored output, so that share is undefined
    assert row.n_industry_coauth == 0
    assert row.pct_of_all == 0.0
    assert row.pct_of_coauth is None
    assert row.per_researcher == 0.0


def test_multidisc_sds(corpus40):
    # BIO1 on each subset: P04, its one industry article, spans two sectors
    assert _multidisc(corpus40, "all", "ii_sds")["BIO1"] == (1.375, 8)
    assert _multidisc(corpus40, "extramural_collab", "ii_sds") == {
        "BIO1": (1.5, 4), "BIO2": (pytest.approx(4.0 / 3, abs=1e-12), 3),
        "CHIM1": (pytest.approx(5.0 / 3, abs=1e-12), 3), "CHIM2": (1.5, 2),
        "ELEC": (1.0, 6), "MECH": (1.0, 3)}
    assert _multidisc(corpus40, "industry_coauthored", "ii_sds")["BIO1"] == (2.0, 1)


def test_multidisc_sci(corpus40):
    assert _multidisc(corpus40, "extramural_collab", "ii_sci") == {
        "CAT-A": (pytest.approx(37.0 / 18, abs=1e-12), 18),
        "CAT-B": (pytest.approx(32.0 / 13, abs=1e-12), 13), "CAT-C": (3.0, 6)}
    assert _multidisc(corpus40, "industry_coauthored", "ii_sci")["CAT-A"] == (2.0, 4)


def test_multidisc_requires_academic_author(tmp_path):
    # an article with no roster-linked author counts for its category only
    extra = (
        '{"pub_id": "T2", "year": 2002, "journal_id": "JRN-A", '
        '"authors": [{"raw_name": "Solo F.", "researcher_id": null, "org_id": "FRM-X"}], '
        '"address_org_ids": ["FRM-X"]}',
    )
    c = _tiny_corpus(tmp_path, extra)
    assert _multidisc(c, "all", "ii_sds") == {"SDS1": (1.0, 1)}
    assert _multidisc(c, "all", "ii_sci") == {"CAT-A": (1.0, 2)}


def test_multidisc_by_scope_industry(corpus40):
    table = build_multidisc_table(corpus40, "industry_coauthored")
    as_tuples = [(r.scope_id, r.ii_sds, r.ii_sci, r.n_pubs) for r in table.rows]
    assert as_tuples[:3] == [("BIO1", 2.0, None, 1), ("CHIM1", 2.0, None, 1),
                             ("ELEC", 1.0, None, 3)]
    assert as_tuples[3][0] == "CAT-A" and as_tuples[3][2] == 2.0 and as_tuples[3][3] == 4
    assert as_tuples[4][0] == "CAT-B" and as_tuples[4][2] == pytest.approx(7.0 / 3)
    assert as_tuples[5] == ("CAT-C", None, 3.0, 1)
    assert table.subset == "industry_coauthored"


def test_multidisc_by_scope_all(corpus40):
    rows = {r.scope_id: r for r in build_multidisc_table(corpus40, "all").rows}
    assert len(rows) == 9
    assert rows["ELEC"].ii_sds == 1.0 and rows["ELEC"].n_pubs == 10
    assert rows["CHIM1"].ii_sds == pytest.approx(1.375, abs=1e-12)
    assert rows["BIO2"].ii_sds == pytest.approx(4.0 / 3, abs=1e-12)
    assert rows["CAT-A"].ii_sci == pytest.approx(1.95, abs=1e-12)
    assert rows["CAT-B"].ii_sci == pytest.approx(32.0 / 13, abs=1e-12)
    assert rows["CAT-C"].ii_sci == 3.0
