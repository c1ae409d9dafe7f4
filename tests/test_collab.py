import dataclasses

import pytest

from collabmap import errors, views
from collabmap.collab import (
    CASE_M_N,
    CASE_M_ONE,
    CASE_NONE,
    CASE_ONE_N,
    CASE_ONE_ONE,
    COLLAB_CASES,
    SELECTOR_ALL,
    SELECTOR_EXTRAMURAL,
    SELECTOR_INDUSTRY,
    classify_publication,
    count_collaborations,
    extract_edges,
    subset,
)
from collabmap.corpus import AuthorRef, Organization, Publication, load_corpus
from collabmap.harness import SynthConfig, generate
from collabmap.report import edges_csv

from conftest import FIXTURE40

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

EXTRAMURAL = frozenset(
    "P01 P02 P03 P04 P05 P06 P07 P08 P13 P14 P17 P21 P23 P27 P28 P31 P35 P37".split()
)


def _registry(n_universities, n_firms, extras=()):
    orgs = {}
    for i in range(n_universities):
        oid = f"U{i}"
        orgs[oid] = Organization(oid, f"University {i}", "university", "IT")
    for i in range(n_firms):
        oid = f"F{i}"
        orgs[oid] = Organization(oid, f"Firm {i}", "private_firm", "IT")
    for oid, kind, country in extras:
        orgs[oid] = Organization(oid, oid, kind, country)
    return orgs


def _expected_case(m, n):
    if m == 0 or n == 0:
        return CASE_NONE
    if m == 1 and n == 1:
        return CASE_ONE_ONE
    if n == 1:
        return CASE_M_ONE
    if m == 1:
        return CASE_ONE_N
    return CASE_M_N


def test_case_grid():
    registry = _registry(4, 4, extras=[("P0", "public_org", "IT")])
    for m in range(5):
        for n in range(5):
            addresses = [f"U{i}" for i in range(m)] + [f"F{i}" for i in range(n)] + ["P0"]
            pub = Publication(
                "PX", 2002, "JRN-A",
                (AuthorRef("Someone A.", None, addresses[0]),),
                tuple(sorted(addresses)),
            )
            profile = classify_publication(pub, registry)
            assert profile.case == _expected_case(m, n), (m, n)
            assert profile.collab_count == m * n
            assert profile.universities == frozenset(f"U{i}" for i in range(m))
            assert profile.domestic_firms == frozenset(f"F{i}" for i in range(n))
            assert profile.other_orgs == frozenset({"P0"})


def test_classification_partitions_org_kinds():
    registry = _registry(1, 1, extras=[
        ("P0", "public_org", "IT"),
        ("C0", "consortium", "IT"),
        ("N0", "foundation", "IT"),
        ("G0", "foreign_org", "CH"),
        ("FD", "private_firm", "DE"),
    ])
    pub = Publication(
        "PX", 2002, "JRN-A",
        (AuthorRef("Someone A.", None, "U0"),),
        ("C0", "F0", "FD", "G0", "N0", "P0", "U0"),
    )
    profile = classify_publication(pub, registry)
    assert profile.universities == frozenset({"U0"})
    assert profile.domestic_firms == frozenset({"F0"})
    assert profile.other_orgs == frozenset({"P0", "C0", "N0", "G0", "FD"})
    assert profile.case == CASE_ONE_ONE
    assert profile.collab_count == 1


def test_home_country_switch():
    registry = _registry(1, 1, extras=[("FD", "private_firm", "DE")])
    pub = Publication(
        "PX", 2002, "JRN-A",
        (AuthorRef("Someone A.", None, "U0"),),
        ("F0", "FD", "U0"),
    )
    italian = classify_publication(pub, registry, home_country="IT")
    german = classify_publication(pub, registry, home_country="DE")
    assert italian.domestic_firms == frozenset({"F0"})
    assert german.domestic_firms == frozenset({"FD"})
    assert italian.other_orgs == frozenset({"FD"})
    assert german.other_orgs == frozenset({"F0"})


def test_fixture_profiles(corpus40):
    profiles = {pub.pub_id: classify_publication(pub, corpus40.organizations,
                                                 corpus40.home_country)
                for pub in corpus40.publications}
    assert set(profiles) == {p.pub_id for p in corpus40.publications}
    assert profiles["P01"].case == CASE_ONE_ONE
    assert profiles["P02"].case == CASE_M_ONE
    assert profiles["P02"].collab_count == 2
    assert profiles["P03"].case == CASE_ONE_N
    assert profiles["P03"].collab_count == 3
    assert profiles["P04"].case == CASE_M_N
    assert profiles["P04"].collab_count == 4
    assert profiles["P05"].case == CASE_NONE
    assert profiles["P05"].other_orgs == frozenset({"PUB-L1"})
    assert profiles["P13"].case == CASE_NONE
    assert profiles["P13"].other_orgs == frozenset({"FRM-DE"})
    assert profiles["P35"].other_orgs == frozenset({"FGN-U1"})


def test_count_collaborations(corpus40):
    s = count_collaborations(corpus40)
    assert s.total_collaborations == 10
    assert s.industry_articles == 4
    assert s.articles_by_case == {"one_one": 1, "m_one": 1, "one_n": 1, "m_n": 1}
    assert s.collaborations_by_case == {"one_one": 1, "m_one": 2, "one_n": 3, "m_n": 4}
    assert list(s.articles_by_case) == list(COLLAB_CASES)


def test_extract_edges(corpus40):
    edges = extract_edges(corpus40)
    assert [(e.pub_id, e.university_org_id, e.firm_org_id) for e in edges] == EXPECTED_EDGES


def test_edge_count_matches_collab_total(corpus40):
    assert len(extract_edges(corpus40)) == count_collaborations(corpus40).total_collaborations


def test_subsets(corpus40):
    all_ids = subset(corpus40, SELECTOR_ALL)
    extramural = subset(corpus40, SELECTOR_EXTRAMURAL)
    industry = subset(corpus40, SELECTOR_INDUSTRY)
    assert all_ids == frozenset(p.pub_id for p in corpus40.publications)
    assert extramural == EXTRAMURAL
    assert industry == frozenset({"P01", "P02", "P03", "P04"})
    assert industry <= extramural <= all_ids


def test_subset_unknown_selector(corpus40):
    with pytest.raises(errors.UnknownSelector):
        subset(corpus40, "everything")


def test_parties_and_edges_are_repeatable(corpus40):
    parties, edges = views.of(corpus40).parties, extract_edges(corpus40)
    assert parties == (frozenset({"UNI-A", "UNI-B", "UNI-C", "UNI-D"}),
                       frozenset({"FRM-X", "FRM-Y", "FRM-Z"}))
    assert views.of(corpus40).parties == parties
    assert extract_edges(corpus40) == edges
    fresh = load_corpus(FIXTURE40)
    assert views.of(fresh).parties == parties
    assert extract_edges(fresh) == edges


def _assert_views_match_reference(corpus):
    index = views.of(corpus)
    expected_edges = []
    for i, pub in enumerate(corpus.publications):
        profile = classify_publication(pub, corpus.organizations, corpus.home_country)
        bit = 1 << i
        assert bool(index.industry & bit) == (profile.collab_count >= 1), pub.pub_id
        assert bool(index.extramural & bit) == (
            len(pub.address_org_ids) >= 2 and len(profile.universities) >= 1), pub.pub_id
        expected_edges += [(pub.pub_id, univ, firm) for univ in sorted(profile.universities)
                           for firm in sorted(profile.domestic_firms)]
    assert [(e.pub_id, e.university_org_id, e.firm_org_id)
            for e in extract_edges(corpus)] == expected_edges


def test_views_match_per_article_reference(corpus40, tmp_path):
    _assert_views_match_reference(corpus40)
    _assert_views_match_reference(dataclasses.replace(corpus40, home_country="DE"))
    for seed in range(3):
        out = generate(SynthConfig(seed=seed, n_pubs=300), tmp_path / f"s{seed}")
        _assert_views_match_reference(load_corpus(out))


def test_replaced_corpus_gets_its_own_views(corpus40):
    full = count_collaborations(corpus40)
    head = dataclasses.replace(corpus40, publications=corpus40.publications[:3])
    assert subset(head, SELECTOR_ALL) == {"P01", "P02", "P03"}
    assert subset(head, SELECTOR_INDUSTRY) == {"P01", "P02", "P03"}
    assert count_collaborations(head).total_collaborations == 1 + 2 + 3
    assert [e.pub_id for e in extract_edges(head)] == ["P01", "P02", "P02", "P03", "P03", "P03"]
    assert count_collaborations(corpus40) == full


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
