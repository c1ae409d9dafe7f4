from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collabmap import views
from collabmap.corpus import load_corpus
from collabmap.report import (
    LEVEL_SDS,
    LEVEL_UDA,
    build_multidisc_table,
    render_all,
    sector_headcounts,
    sector_intensity,
)
from collabmap.views import if_percentile_ranks, midrank_percentiles, rank_within_sector

from conftest import ifpr_by_pub_id
from oracles import Oracle, oracle_percentiles

A = Fraction(1, 6)
B = Fraction(3, 8)
G = Fraction(25, 36)

FSS_EXPECTED = {
    "RES-E1": A / 2 + A + B / 2,
    "RES-E2": B / 3 + B / 2,
    "RES-E3": B / 3 + G,
    "RES-E4": G / 4,
    "RES-E5": A / 2,
    "RES-E6": B / 2,
    "RES-E7": B / 2 + A / 2,
    "RES-E8": G + A / 2,
    "RES-M1": A + A + B / 2 + B / 2 + B,
    "RES-M2": B / 2 + G + B / 2 + B,
    "RES-C1": B / 4 + B + A / 2 + G / 2 + B / 3,
    "RES-C2": G + A / 2 + G + A + B / 3,
    "RES-C3": A + B + A + G / 2 + G,
    "RES-B1": B / 4 + G + G / 2 + A + A / 2,
    "RES-B2": A + G / 2 + B + B / 2,
    "RES-B3": A + B + G + G / 2 + A / 2 + B / 3,
}

OUTPUT_EXPECTED = {
    "RES-E1": 3, "RES-E2": 2, "RES-E3": 2, "RES-E4": 1, "RES-E5": 1,
    "RES-E6": 1, "RES-E7": 2, "RES-E8": 2, "RES-M1": 5, "RES-M2": 4,
    "RES-C1": 5, "RES-C2": 5, "RES-C3": 5, "RES-B1": 5, "RES-B2": 4,
    "RES-B3": 6,
}

O_RANK_EXPECTED = {
    "RES-E1": 93.75, "RES-E2": 62.5, "RES-E3": 62.5, "RES-E4": 18.75,
    "RES-E5": 18.75, "RES-E6": 18.75, "RES-E7": 62.5, "RES-E8": 62.5,
    "RES-M1": 75.0, "RES-M2": 25.0, "RES-C1": 50.0, "RES-C2": 50.0,
    "RES-C3": 50.0, "RES-B1": 75.0, "RES-B2": 25.0, "RES-B3": 50.0,
}

FSS_RANK_EXPECTED = {
    "RES-E1": 68.75, "RES-E2": 56.25, "RES-E3": 93.75, "RES-E4": 18.75,
    "RES-E5": 6.25, "RES-E6": 31.25, "RES-E7": 43.75, "RES-E8": 81.25,
    "RES-M1": 25.0, "RES-M2": 75.0, "RES-C1": 25.0, "RES-C2": 75.0,
    "RES-C3": 50.0, "RES-B1": 75.0, "RES-B2": 25.0, "RES-B3": 50.0,
}


def _tiny_corpus(tmp_path, extra_pub_lines=()):
    d = tmp_path / "tiny"
    d.mkdir()
    (d / "taxonomy.csv").write_text(
        "sds_id,sds_name,uda_id,uda_name\nSDS1,Solo sector,UDA1,Solo area\n",
        encoding="utf-8")
    (d / "organizations.csv").write_text(
        "org_id,canonical_name,kind,country\n"
        "UNI-A,Uni A,university,IT\n"
        "FRM-X,Firm X,private_firm,IT\n",
        encoding="utf-8")
    (d / "journals.csv").write_text(
        "journal_id,name,year,impact_factor,sci_categories\n"
        "JRN-A,Journal A,2002,1.000,CAT-A\n",
        encoding="utf-8")
    (d / "roster.csv").write_text(
        "researcher_id,full_name,university_org_id,sds_id\nR1,Rita Uno,UNI-A,SDS1\n",
        encoding="utf-8")
    lines = [
        '{"pub_id": "T1", "year": 2002, "journal_id": "JRN-A", '
        '"authors": [{"raw_name": "Uno R.", "researcher_id": "R1", "org_id": "UNI-A"}], '
        '"address_org_ids": ["UNI-A"]}',
    ]
    lines.extend(extra_pub_lines)
    (d / "publications.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return load_corpus(d, window=(2002, 2002))


def test_midrank_basic():
    assert midrank_percentiles([1.0, 2.0, 3.0]) == [
        100.0 * 0.5 / 3, 100.0 * 1.5 / 3, 100.0 * 2.5 / 3]
    assert midrank_percentiles([5.0, 5.0, 7.0]) == [100.0 / 3, 100.0 / 3, 100.0 * 2.5 / 3]
    assert midrank_percentiles([7.5]) == [50.0]
    assert midrank_percentiles([2.0, 2.0, 2.0]) == [50.0, 50.0, 50.0]


def test_midrank_empty():
    # no caller ranks an empty group; both rankers give no ranks for one
    assert midrank_percentiles([]) == []
    assert oracle_percentiles([]) == []


def test_midrank_preserves_input_order():
    assert midrank_percentiles([3.0, 1.0, 2.0]) == [
        100.0 * 2.5 / 3, 100.0 * 0.5 / 3, 100.0 * 1.5 / 3]


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=120))
@settings(max_examples=300)
def test_midrank_group_mean_is_fifty(values):
    ranks = midrank_percentiles([float(v) for v in values])
    assert abs(sum(ranks) / len(ranks) - 50.0) <= 1e-9
    assert all(0.0 < r < 100.0 for r in ranks)


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=120))
@settings(max_examples=300)
def test_midrank_monotone_transform_invariant(values):
    floats = [float(v) for v in values]
    shifted = [2.0 * v + 128.0 for v in floats]
    assert midrank_percentiles(floats) == midrank_percentiles(shifted)


def test_if_percentile_ranks(corpus40):
    for year in (2001, 2002, 2003):
        ranks = if_percentile_ranks(corpus40, year)
        assert ranks[("JRN-A", "CAT-A")] == pytest.approx(float(100 * A), abs=1e-12)
        assert ranks[("JRN-B", "CAT-A")] == 50.0
        assert ranks[("JRN-G", "CAT-A")] == pytest.approx(250.0 / 3, abs=1e-12)
        assert ranks[("JRN-B", "CAT-B")] == 25.0
        assert ranks[("JRN-G", "CAT-B")] == 75.0
        assert ranks[("JRN-G", "CAT-C")] == 50.0
        assert corpus40.effective_journal("JRN-G", year).sci_categories == (
            "CAT-A", "CAT-B", "CAT-C")


def test_if_percentile_ranks_skip_journal_outside_window(fixture_copy, corpus40):
    # a journal whose only row precedes the window has no record to rank
    with (fixture_copy / "journals.csv").open("a", encoding="utf-8") as fh:
        fh.write("JRN-OLD,Old Journal,1995,1.0,CAT-X\n")
    c = load_corpus(fixture_copy)
    assert "JRN-OLD" in c.journal_ids
    # also in the row's own year, which lies outside the window
    for year in (1995, 2001, 2002, 2003):
        assert if_percentile_ranks(c, year) == if_percentile_ranks(corpus40, year)
    assert render_all(c, min_collab_pubs=3) == render_all(corpus40, min_collab_pubs=3)
    assert ifpr_by_pub_id(c) == pytest.approx(
        Oracle(fixture_copy, c.window, c.home_country).ifpr, abs=1e-12)


def test_ifpr_by_publication(corpus40):
    expected = {"JRN-A": float(100 * A), "JRN-B": 37.5, "JRN-G": float(100 * G)}
    ifpr = ifpr_by_pub_id(corpus40)
    assert set(ifpr) == {p.pub_id for p in corpus40.publications}
    for pub in corpus40.publications:
        assert ifpr[pub.pub_id] == pytest.approx(expected[pub.journal_id], abs=1e-12)


def test_ifpr_follows_rank_index(corpus40):
    ranks = {year: if_percentile_ranks(corpus40, year) for year in (2001, 2002, 2003)}
    assert {p.year for p in corpus40.publications} == set(ranks)
    expected = {}
    for p in corpus40.publications:
        categories = corpus40.effective_journal(p.journal_id, p.year).sci_categories
        total = 0.0
        for cat in categories:
            total += ranks[p.year][(p.journal_id, cat)]
        expected[p.pub_id] = total / len(categories)
    assert ifpr_by_pub_id(corpus40) == expected


def _pub_ids(index, groups):
    pubs = index.corpus.publications
    return {scope: {pubs[i].pub_id for i in views.members(mask)} for scope, mask in groups.items()}


def test_views_by_sector(corpus40):
    index = views.of(corpus40)
    by_sds = _pub_ids(index, index.by_sds)
    assert {k: len(v) for k, v in by_sds.items()} == {
        "BIO1": 8, "BIO2": 6, "CHIM1": 8, "CHIM2": 5, "ELEC": 10, "MECH": 8}
    assert "P04" in by_sds["CHIM1"] and "P04" in by_sds["BIO1"]
    by_uda = _pub_ids(index, index.by_uda)
    assert {k: len(v) for k, v in by_uda.items()} == {"BIO": 13, "CHEM": 12, "ENG": 18}


def test_views_by_category(corpus40):
    index = views.of(corpus40)
    by_cat = _pub_ids(index, index.by_category)
    assert {k: len(v) for k, v in by_cat.items()} == {"CAT-A": 40, "CAT-B": 26, "CAT-C": 12}


def test_sectors_view_per_publication(corpus40):
    sectors = dict(zip((p.pub_id for p in corpus40.publications), views.of(corpus40).sectors))
    assert sectors["P04"] == frozenset({"BIO1", "CHIM1"})
    assert sectors["P09"] == frozenset({"ELEC"})


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


def test_researcher_performance_bulk(corpus40):
    perf = views.of(corpus40).performance
    assert set(perf) == set(corpus40.researchers)
    for rid, p in perf.items():
        assert p.output == OUTPUT_EXPECTED[rid]
        assert p.fss == pytest.approx(float(FSS_EXPECTED[rid]), abs=1e-12)
        assert p.fss <= p.output


def test_rank_within_sector(corpus40):
    perf = views.of(corpus40).performance
    o_ranks = rank_within_sector(corpus40, {rid: float(p.output) for rid, p in perf.items()})
    assert o_ranks == pytest.approx(O_RANK_EXPECTED, abs=1e-12)
    f_ranks = rank_within_sector(corpus40, {rid: p.fss for rid, p in perf.items()})
    assert f_ranks == pytest.approx(FSS_RANK_EXPECTED, abs=1e-12)


def _multidisc(corpus, selector, column):
    return {r.scope_id: (getattr(r, column), r.n_pubs)
            for r in build_multidisc_table(corpus, selector).rows
            if getattr(r, column) is not None}


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
