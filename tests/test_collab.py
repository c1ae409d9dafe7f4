import dataclasses

from collabmap import views
from collabmap.corpus import AuthorRef, Organization, Publication, load_corpus
from collabmap.harness import SynthConfig, generate
from collabmap.report import (
    CASE_M_N,
    CASE_M_ONE,
    CASE_ONE_N,
    CASE_ONE_ONE,
    COLLAB_CASES,
    SELECTORS,
    SELECTOR_ALL,
    SELECTOR_EXTRAMURAL,
    SELECTOR_INDUSTRY,
    count_collaborations,
    edges_csv,
    extract_edges,
)

from conftest import FIXTURE40

def _ids(corpus, selector):
    pubs = corpus.publications
    chosen = getattr(views.of(corpus), SELECTORS[selector])
    return frozenset(pubs[i].pub_id for i in views.members(chosen))


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


def _with_articles(base, orgs, address_lists):
    """``base`` plus ``orgs``, with one article PX00, PX01, ... per address list."""
    pubs = [Publication(f"PX{k:02d}", 2002, "JRN-A",
                        (AuthorRef("Someone A.", None, addresses[0]),),
                        tuple(sorted(addresses)))
            for k, addresses in enumerate(address_lists)]
    return dataclasses.replace(
        base, organizations={**base.organizations, **orgs}, publications=pubs)


def _expected_case(m, n):
    if m == 0 or n == 0:
        return None
    if m == 1 and n == 1:
        return CASE_ONE_ONE
    if n == 1:
        return CASE_M_ONE
    if m == 1:
        return CASE_ONE_N
    return CASE_M_N


def _article_case(corpus, pub):
    """The case and collaboration count ``count_collaborations`` gives one article."""
    s = count_collaborations(dataclasses.replace(corpus, publications=[pub]))
    cases = [case for case, k in s.articles_by_case.items() if k]
    assert s.industry_articles == len(cases) <= 1, pub.pub_id
    return (cases[0] if cases else None), s.total_collaborations


def _others(corpus, pub):
    """The address organizations of ``pub`` on neither side."""
    universities, firms = views.of(corpus).parties
    return frozenset(pub.address_org_ids) - universities - firms


def _grid(base):
    """One article per cell (m, n) in [0,4]^2, PX{5m+n:02d}, with a public org on each."""
    registry = _registry(4, 4, extras=[("P0", "public_org", "IT")])
    return _with_articles(base, registry, [
        [f"U{i}" for i in range(m)] + [f"F{j}" for j in range(n)] + ["P0"]
        for m in range(5) for n in range(5)])


def _assert_grid_cell(grid, edges, pub):
    m, n = divmod(int(pub.pub_id[2:]), 5)
    universities, firms = views.of(grid).parties
    assert _article_case(grid, pub) == (_expected_case(m, n), m * n), (m, n)
    assert [(u, f) for p, u, f in edges if p == pub.pub_id] == [
        (f"U{i}", f"F{j}") for i in range(m) for j in range(n)], (m, n)
    assert universities & set(pub.address_org_ids) == {f"U{i}" for i in range(m)}
    assert firms & set(pub.address_org_ids) == {f"F{j}" for j in range(n)}
    assert _others(grid, pub) == {"P0"}


def test_case_grid(corpus40):
    grid = _grid(corpus40)
    edges = extract_edges(grid)
    for pub in grid.publications:
        _assert_grid_cell(grid, edges, pub)
    s = count_collaborations(grid)
    assert s.articles_by_case == {"one_one": 1, "m_one": 3, "one_n": 3, "m_n": 9}
    assert s.total_collaborations == len(edges) == sum(range(5)) ** 2


def test_classification_partitions_org_kinds(corpus40):
    registry = _registry(1, 1, extras=[
        ("P0", "public_org", "IT"),
        ("C0", "consortium", "IT"),
        ("N0", "foundation", "IT"),
        ("G0", "foreign_org", "CH"),
        ("FD", "private_firm", "DE"),
    ])
    corpus = _with_articles(corpus40, registry, [["C0", "F0", "FD", "G0", "N0", "P0", "U0"]])
    (pub,) = corpus.publications
    universities, firms = views.of(corpus).parties
    assert universities & set(registry) == {"U0"}
    assert firms & set(registry) == {"F0"}
    assert _others(corpus, pub) == frozenset({"P0", "C0", "N0", "G0", "FD"})
    assert _article_case(corpus, pub) == (CASE_ONE_ONE, 1)
    assert extract_edges(corpus) == [("PX00", "U0", "F0")]


def test_home_country_switch(corpus40):
    registry = _registry(1, 1, extras=[("FD", "private_firm", "DE")])
    italian = _with_articles(corpus40, registry, [["F0", "FD", "U0"]])
    german = dataclasses.replace(italian, home_country="DE")
    (pub,) = italian.publications
    assert views.of(italian).parties[1] & set(registry) == {"F0"}
    assert views.of(german).parties[1] & set(registry) == {"FD"}
    assert _others(italian, pub) == frozenset({"FD"})
    assert _others(german, pub) == frozenset({"F0"})
    assert extract_edges(italian) == [("PX00", "U0", "F0")]
    assert extract_edges(german) == [("PX00", "U0", "FD")]


def test_fixture_profiles(corpus40):
    pubs = {pub.pub_id: pub for pub in corpus40.publications}
    assert _article_case(corpus40, pubs["P01"]) == (CASE_ONE_ONE, 1)
    assert _article_case(corpus40, pubs["P02"]) == (CASE_M_ONE, 2)
    assert _article_case(corpus40, pubs["P03"]) == (CASE_ONE_N, 3)
    assert _article_case(corpus40, pubs["P04"]) == (CASE_M_N, 4)
    assert _article_case(corpus40, pubs["P05"]) == (None, 0)
    assert _others(corpus40, pubs["P05"]) == frozenset({"PUB-L1"})
    assert _article_case(corpus40, pubs["P13"]) == (None, 0)
    assert _others(corpus40, pubs["P13"]) == frozenset({"FRM-DE"})
    assert _others(corpus40, pubs["P35"]) == frozenset({"FGN-U1"})


def test_count_collaborations(corpus40):
    s = count_collaborations(corpus40)
    assert s.total_collaborations == 10
    assert s.industry_articles == 4
    assert s.articles_by_case == {"one_one": 1, "m_one": 1, "one_n": 1, "m_n": 1}
    assert s.collaborations_by_case == {"one_one": 1, "m_one": 2, "one_n": 3, "m_n": 4}
    assert list(s.articles_by_case) == list(COLLAB_CASES)


def test_extract_edges(corpus40):
    assert extract_edges(corpus40) == EXPECTED_EDGES


def test_edge_count_matches_collab_total(corpus40):
    assert len(extract_edges(corpus40)) == count_collaborations(corpus40).total_collaborations


def test_subsets(corpus40):
    all_ids = _ids(corpus40, SELECTOR_ALL)
    extramural = _ids(corpus40, SELECTOR_EXTRAMURAL)
    industry = _ids(corpus40, SELECTOR_INDUSTRY)
    assert all_ids == frozenset(p.pub_id for p in corpus40.publications)
    assert extramural == EXTRAMURAL
    assert industry == frozenset({"P01", "P02", "P03", "P04"})
    assert industry <= extramural <= all_ids


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
    assert extract_edges(corpus) == expected_edges


def test_views_match_per_article_reference(corpus40, tmp_path):
    _assert_views_match_reference(corpus40)
    _assert_views_match_reference(dataclasses.replace(corpus40, home_country="DE"))
    for seed in range(3):
        out = generate(SynthConfig(seed=seed, n_pubs=300), tmp_path / f"s{seed}")
        _assert_views_match_reference(load_corpus(out))


def test_replaced_corpus_gets_its_own_views(corpus40):
    full = count_collaborations(corpus40)
    head = dataclasses.replace(corpus40, publications=corpus40.publications[:3])
    assert _ids(head, SELECTOR_ALL) == {"P01", "P02", "P03"}
    assert _ids(head, SELECTOR_INDUSTRY) == {"P01", "P02", "P03"}
    assert count_collaborations(head).total_collaborations == 1 + 2 + 3
    assert [pub_id for pub_id, _, _ in extract_edges(head)] == [
        "P01", "P02", "P02", "P03", "P03", "P03"]
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
