import csv
import dataclasses
import io
import json

import pytest

from collabmap.corpus import load_corpus
from collabmap.harness import SynthConfig, generate
from collabmap.report import (
    FORMATS,
    LEVEL_SDS,
    LEVEL_UDA,
    METRICS,
    SELECTORS,
    TOP_SDS,
    TOP_UDA,
    build_multidisc_table,
    build_rank_table,
    edges_csv,
    extract_edges,
    render,
    render_all,
)
from collabmap.stats import COMPARISONS, Comparison, compare

from conftest import FIXTURE40, GOLDEN, GOLDEN_FORMATS
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
    "rank_sds_pct_coauth.json": lambda c: build_rank_table(c, LEVEL_SDS, "pct_coauth"),
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
        tables += [build_rank_table(corpus, level, metric)
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
        edges = extract_edges(corpus)
        assert edges == oracle.edges, seed
        n_edges += len(edges)
    assert n_tables == 320
    assert n_edges > 0
