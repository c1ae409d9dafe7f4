import dataclasses
import gc
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collabmap
from collabmap import views
from collabmap.corpus import load_corpus
from collabmap.harness import SynthConfig, generate
from collabmap.report import (
    CASE_ONE_ONE,
    SELECTORS,
    SELECTOR_ALL,
    SELECTOR_EXTRAMURAL,
    SELECTOR_INDUSTRY,
    build_multidisc_table,
    count_collaborations,
    extract_edges,
    render_all,
)
from collabmap.views import if_percentile_ranks, midrank_percentiles, rank_within_sector

from conftest import (FIXTURE40, article_case, ifpr_by_pub_id, org_registry, other_orgs,
                      pub_ids, with_articles)
from oracles import Oracle, oracle_percentiles

EXTRAMURAL = frozenset(
    "P01 P02 P03 P04 P05 P06 P07 P08 P13 P14 P17 P21 P23 P27 P28 P31 P35 P37".split()
)

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
# the sweep benchmark's shape, a tenth of its size; it renders at every threshold below
SWEEP_SHAPE = SynthConfig(seed=1234, n_pubs=5000, n_researchers=625, n_journals=60,
                          industry_rate=0.05)


@pytest.fixture(scope="module")
def corpus5k(tmp_path_factory):
    return load_corpus(generate(SWEEP_SHAPE, tmp_path_factory.mktemp("sweep5k")))


def test_members_ascend_and_mean_sums_in_position_order():
    mask = views._mask([70, 0, 9, 8], 71)
    assert mask == (1 << 70) | (1 << 9) | (1 << 8) | 1
    assert views.members(mask) == [0, 8, 9, 70]
    assert views.members(0) == []
    values = [0.1 * i for i in range(71)]
    expected = (values[0] + values[8] + values[9] + values[70]) / 4
    assert views.mean_over(mask, values) == expected


def test_views_cached_per_corpus(corpus40):
    fresh = dataclasses.replace(corpus40)
    italian = views.of(fresh)
    assert views.of(fresh) is italian
    assert views.of(dataclasses.replace(fresh, home_country="DE")) is not italian
    assert views.of(corpus40) is not italian
    assert views.of(fresh) is italian


def test_masks_match_id_sets(corpus40):
    index = views.of(corpus40)
    by_sector = {}
    for pub in corpus40.publications:
        linked = {a.researcher_id for a in pub.authors if a.researcher_id is not None}
        for sector_id in {corpus40.researchers[r].sds_id for r in linked}:
            by_sector.setdefault(sector_id, []).append(pub.pub_id)
    assert set(by_sector) == set(index.by_sds)
    for sector_id, ids in by_sector.items():
        positions = views.members(index.by_sds[sector_id])
        assert [corpus40.publications[i].pub_id for i in positions] == sorted(ids)


def test_render_all_classifies_once(corpus40, monkeypatch):
    calls = []
    original = views.Views.parties.func

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(views.Views.parties, "func", counting)
    fresh = dataclasses.replace(corpus40)
    render_all(fresh, min_collab_pubs=3)
    render_all(fresh, min_collab_pubs=4)
    assert calls == [views.of(fresh)]


def test_repeated_renders_equal_fresh_renders(corpus5k):
    # a higher threshold first, so the later ones admit scopes it excluded
    shared = dataclasses.replace(corpus5k)
    for m in (15, 3, 7):
        fresh = dataclasses.replace(corpus5k)
        assert render_all(shared, min_collab_pubs=m) == render_all(fresh, min_collab_pubs=m)


def test_second_render_computes_no_mean_and_no_ranking(corpus5k, monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(views, "mean_over", counting("mean", views.mean_over))
    monkeypatch.setattr(views, "rank_within_sector",
                        counting("rank", views.rank_within_sector))
    fresh = dataclasses.replace(corpus5k)
    render_all(fresh, min_collab_pubs=3)
    assert calls.count("rank") == 2 and calls.count("mean") > 0
    calls.clear()
    render_all(fresh, min_collab_pubs=7)
    render_all(fresh, min_collab_pubs=3)
    assert calls == []


def test_multidisc_table_reads_the_comparisons_means(corpus40, monkeypatch):
    # each industry_coauthored scope has an industry article, so the paired
    # multidisc comparisons of render_all already took every one of its means
    calls = []
    original = views.mean_over
    fresh = dataclasses.replace(corpus40)
    render_all(fresh, min_collab_pubs=3)
    monkeypatch.setattr(views, "mean_over", lambda *args: calls.append(args) or original(*args))
    assert build_multidisc_table(fresh, "industry_coauthored").rows
    assert calls == []


def test_cached_views_memory_bound(corpus5k):
    # bytes the views of one corpus keep after a three-threshold sweep, per publication
    fresh = dataclasses.replace(corpus5k)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for m in (3, 7, 15):
            render_all(fresh, min_collab_pubs=m)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / 1024 / len(fresh.publications) <= 0.30


_RENDER = """
import sys, tempfile
from collabmap.corpus import load_corpus
from collabmap.harness import SynthConfig, generate
from collabmap.report import edges_csv, render_all

tables = render_all(load_corpus(sys.argv[1]), min_collab_pubs=3)
with tempfile.TemporaryDirectory() as out:
    edges = edges_csv(load_corpus(generate(SynthConfig(seed=7, n_pubs=5000), out)))
sys.stdout.write("".join(name + "\\n" + text for name, text in tables.items()) + edges)
"""


def test_output_independent_of_hash_seed():
    src = str(Path(collabmap.__file__).parent.parent)
    runs = [subprocess.Popen([sys.executable, "-c", _RENDER, str(FIXTURE40)],
                             stdout=subprocess.PIPE,
                             env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed})
            for seed in ("0", "12345")]
    outputs = [run.communicate(timeout=60)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert outputs[0] == outputs[1]
    assert b"compare_sds_all_vs_collab_ifpr.json" in outputs[0]


def test_classification_partitions_org_kinds(corpus40):
    registry = org_registry(1, 1, extras=[
        ("P0", "public_org", "IT"),
        ("C0", "consortium", "IT"),
        ("N0", "foundation", "IT"),
        ("G0", "foreign_org", "CH"),
        ("FD", "private_firm", "DE"),
    ])
    corpus = with_articles(corpus40, registry, [["C0", "F0", "FD", "G0", "N0", "P0", "U0"]])
    (pub,) = corpus.publications
    universities, firms = views.of(corpus).parties
    assert universities & set(registry) == {"U0"}
    assert firms & set(registry) == {"F0"}
    assert other_orgs(corpus, pub) == frozenset({"P0", "C0", "N0", "G0", "FD"})
    assert article_case(corpus, pub) == (CASE_ONE_ONE, 1)
    assert list(extract_edges(corpus)) == [("PX00", "U0", "F0")]


def test_home_country_switch(corpus40):
    registry = org_registry(1, 1, extras=[("FD", "private_firm", "DE")])
    italian = with_articles(corpus40, registry, [["F0", "FD", "U0"]])
    german = dataclasses.replace(italian, home_country="DE")
    (pub,) = italian.publications
    assert views.of(italian).parties[1] & set(registry) == {"F0"}
    assert views.of(german).parties[1] & set(registry) == {"FD"}
    assert other_orgs(italian, pub) == frozenset({"FD"})
    assert other_orgs(german, pub) == frozenset({"F0"})
    assert list(extract_edges(italian)) == [("PX00", "U0", "F0")]
    assert list(extract_edges(german)) == [("PX00", "U0", "FD")]


def test_subsets(corpus40):
    index = views.of(corpus40)
    all_ids, extramural, industry = (
        pub_ids(corpus40, getattr(index, SELECTORS[selector]))
        for selector in (SELECTOR_ALL, SELECTOR_EXTRAMURAL, SELECTOR_INDUSTRY))
    assert all_ids == frozenset(p.pub_id for p in corpus40.publications)
    assert extramural == EXTRAMURAL
    assert industry == frozenset({"P01", "P02", "P03", "P04"})
    assert industry <= extramural <= all_ids


def test_parties_and_edges_are_repeatable(corpus40):
    parties, edges = views.of(corpus40).parties, list(extract_edges(corpus40))
    assert parties == (frozenset({"UNI-A", "UNI-B", "UNI-C", "UNI-D"}),
                       frozenset({"FRM-X", "FRM-Y", "FRM-Z"}))
    assert views.of(corpus40).parties == parties
    assert list(extract_edges(corpus40)) == edges
    fresh = load_corpus(FIXTURE40)
    assert views.of(fresh).parties == parties
    assert list(extract_edges(fresh)) == edges


def _assert_views_match_reference(corpus):
    index = views.of(corpus)
    expected_edges = []
    for i, pub in enumerate(corpus.publications):
        # the rule restated here, so the reference shares no code with Views
        orgs = [corpus.organizations[o] for o in pub.address_org_ids]
        universities = sorted({o.org_id for o in orgs if o.kind == "university"})
        firms = sorted({o.org_id for o in orgs if o.kind == "private_firm"
                        and o.country == corpus.home_country})
        bit = 1 << i
        assert bool(index.industry & bit) == bool(universities and firms), pub.pub_id
        assert bool(index.extramural & bit) == (
            len(pub.address_org_ids) >= 2 and len(universities) >= 1), pub.pub_id
        expected_edges += [(pub.pub_id, univ, firm) for univ in universities for firm in firms]
    assert list(extract_edges(corpus)) == expected_edges


def test_views_match_per_article_reference(corpus40, tmp_path):
    _assert_views_match_reference(corpus40)
    _assert_views_match_reference(dataclasses.replace(corpus40, home_country="DE"))
    for seed in range(3):
        out = generate(SynthConfig(seed=seed, n_pubs=300), tmp_path / f"s{seed}")
        _assert_views_match_reference(load_corpus(out))


def test_replaced_corpus_gets_its_own_views(corpus40):
    full = count_collaborations(corpus40)
    head = dataclasses.replace(corpus40, publications=corpus40.publications[:3])
    assert pub_ids(head, getattr(views.of(head), SELECTORS[SELECTOR_ALL])) == {"P01", "P02", "P03"}
    assert pub_ids(head, getattr(views.of(head), SELECTORS[SELECTOR_INDUSTRY])) == {
        "P01", "P02", "P03"}
    assert count_collaborations(head).total_collaborations == 1 + 2 + 3
    assert [pub_id for pub_id, _, _ in extract_edges(head)] == [
        "P01", "P02", "P02", "P03", "P03", "P03"]
    assert count_collaborations(corpus40) == full


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


def test_views_by_sector(corpus40):
    index = views.of(corpus40)
    by_sds = {k: pub_ids(corpus40, mask) for k, mask in index.by_sds.items()}
    assert {k: len(v) for k, v in by_sds.items()} == {
        "BIO1": 8, "BIO2": 6, "CHIM1": 8, "CHIM2": 5, "ELEC": 10, "MECH": 8}
    assert "P04" in by_sds["CHIM1"] and "P04" in by_sds["BIO1"]
    by_uda = {k: pub_ids(corpus40, mask) for k, mask in index.by_uda.items()}
    assert {k: len(v) for k, v in by_uda.items()} == {"BIO": 13, "CHEM": 12, "ENG": 18}


def test_views_by_category(corpus40):
    index = views.of(corpus40)
    by_cat = {k: pub_ids(corpus40, mask) for k, mask in index.by_category.items()}
    assert {k: len(v) for k, v in by_cat.items()} == {"CAT-A": 40, "CAT-B": 26, "CAT-C": 12}


def test_sectors_view_per_publication(corpus40):
    sectors = dict(zip((p.pub_id for p in corpus40.publications), views.of(corpus40).sectors))
    assert sectors["P04"] == frozenset({"BIO1", "CHIM1"})
    assert sectors["P09"] == frozenset({"ELEC"})


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
