import csv
import dataclasses
import io
import json

import pytest

from collabmap import errors
from collabmap.corpus import load_corpus
from collabmap.report import (
    METRICS,
    build_comparison_table,
    build_multidisc_table,
    build_rank_table,
    edges_csv,
    render,
    render_all,
)

from conftest import FIXTURE40, GOLDEN

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
    assert table.rows[0].value == 3
    assert table.title == "Top 2 sectors by industry co-authored articles"
    assert [name for name, _ in table.rows[0].context] == [
        "pct_all", "pct_coauth", "per_researcher"]


def test_rank_table_sorts_by_value_then_id(corpus40):
    table = build_rank_table(corpus40, level="sds", metric="count", k=10)
    assert [r.sector_id for r in table.rows] == [
        "ELEC", "BIO1", "CHIM1", "BIO2", "CHIM2", "MECH"]


def test_rank_table_rejects_k_below_one(corpus40):
    for k in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            build_rank_table(corpus40, k=k)


def test_rank_table_unknown_metric(corpus40):
    with pytest.raises(errors.UnknownMetric):
        build_rank_table(corpus40, metric="magic")
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
    table = build_comparison_table(corpus40, "sds_all_vs_collab", "ifpr", min_collab_pubs=3)
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
    table = build_comparison_table(corpus40, "sds_all_vs_collab", "ifpr", min_collab_pubs=3)
    assert "3" in table.exclusion_note
    md = render(table, "md")
    assert table.exclusion_note in md
    assert table.title in md


def test_small_p_values_use_scientific_notation(corpus40):
    table = build_comparison_table(corpus40, "sds_all_vs_collab", "ifpr", min_collab_pubs=3)
    patched = json.loads(render(table, "json"))
    assert patched["p_two"] == 0.737
    # a tiny p-value formats as d.dddE-dd and survives the JSON round trip
    from collabmap.report import _fmt_p
    assert _fmt_p(3.2e-7) == "3.200e-07"
    assert _fmt_p(0.04) == "0.040"


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


def test_render_rejects_unknown_format(corpus40):
    table = build_rank_table(corpus40)
    with pytest.raises(ValueError):
        render(table, "xml")
    with pytest.raises(TypeError):
        render(42, "csv")


def test_edges_csv(corpus40, rendered):
    assert edges_csv(corpus40) == rendered["edges.csv"]
    lines = edges_csv(corpus40).splitlines()
    assert lines[0] == "pub_id,university_org_id,firm_org_id"
    assert len(lines) == 11
