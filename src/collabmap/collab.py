"""Classification and counting of university-industry collaborations.

An article whose address list contains m universities and n domestic private
firms embeds m*n pairwise collaborations. Organizations that are publicly
owned, consortiums, foundations, or located abroad never count toward the
industry side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import views
from .corpus import HOME_COUNTRY, Corpus, Organization, Publication
from .errors import UnknownSelector

CASE_NONE = "none"
CASE_ONE_ONE = "one_one"
CASE_M_ONE = "m_one"
CASE_ONE_N = "one_n"
CASE_M_N = "m_n"

# the four collaboration cases, in presentation order
COLLAB_CASES = (CASE_ONE_ONE, CASE_M_ONE, CASE_ONE_N, CASE_M_N)

SELECTOR_ALL = "all"
SELECTOR_EXTRAMURAL = "extramural_collab"
SELECTOR_INDUSTRY = "industry_coauthored"
SELECTORS = (SELECTOR_ALL, SELECTOR_EXTRAMURAL, SELECTOR_INDUSTRY)


@dataclass(frozen=True)
class CollaborationProfile:
    """How one publication splits across organization classes."""

    pub_id: str
    universities: frozenset[str]
    domestic_firms: frozenset[str]
    other_orgs: frozenset[str]
    case: str
    collab_count: int


@dataclass(frozen=True)
class CollabEdge:
    """One (publication, university, firm) collaboration instance."""

    pub_id: str
    university_org_id: str
    firm_org_id: str


@dataclass(frozen=True)
class CollabSummary:
    """Corpus-level collaboration totals with the per-case breakdown."""

    total_collaborations: int
    industry_articles: int
    articles_by_case: dict[str, int]
    collaborations_by_case: dict[str, int]


def _case_for(m: int, n: int) -> str:
    if m == 0 or n == 0:
        return CASE_NONE
    if m == 1 and n == 1:
        return CASE_ONE_ONE
    if n == 1:
        return CASE_M_ONE
    if m == 1:
        return CASE_ONE_N
    return CASE_M_N


def classify_publication(
    pub: Publication,
    registry: Mapping[str, Organization],
    home_country: str = HOME_COUNTRY,
) -> CollaborationProfile:
    """Partition a publication's addresses and derive its collaboration case.

    Universities are counted by kind alone; the industry side requires kind
    private_firm *and* the home country. Duplicate addresses of one
    organization collapse (address lists are sets).
    """
    universities = set()
    firms = set()
    other = set()
    for org_id in pub.address_org_ids:
        org = registry[org_id]
        if org.kind == "university":
            universities.add(org_id)
        elif org.kind == "private_firm" and org.country == home_country:
            firms.add(org_id)
        else:
            other.add(org_id)
    m, n = len(universities), len(firms)
    return CollaborationProfile(
        pub_id=pub.pub_id,
        universities=frozenset(universities),
        domestic_firms=frozenset(firms),
        other_orgs=frozenset(other),
        case=_case_for(m, n),
        collab_count=m * n,
    )


def classify_corpus(corpus: Corpus) -> dict[str, CollaborationProfile]:
    """Profiles for every publication against the corpus's home country, by pub_id."""
    registry, home_country = corpus.organizations, corpus.home_country
    return {
        pub.pub_id: classify_publication(pub, registry, home_country)
        for pub in corpus.publications
    }


def count_collaborations(corpus: Corpus) -> CollabSummary:
    """Total collaborations and the article/collaboration split by case."""
    profiles = views.of(corpus).profiles
    articles_by_case = {case: 0 for case in COLLAB_CASES}
    collaborations_by_case = {case: 0 for case in COLLAB_CASES}
    for pub in corpus.publications:
        profile = profiles[pub.pub_id]
        if profile.case == CASE_NONE:
            continue
        articles_by_case[profile.case] += 1
        collaborations_by_case[profile.case] += profile.collab_count
    return CollabSummary(
        total_collaborations=sum(collaborations_by_case.values()),
        industry_articles=sum(articles_by_case.values()),
        articles_by_case=articles_by_case,
        collaborations_by_case=collaborations_by_case,
    )


def extract_edges(corpus: Corpus) -> list[CollabEdge]:
    """Every (publication, university, firm) triple, sorted in that order."""
    profiles = views.of(corpus).profiles
    edges: list[CollabEdge] = []
    for pub in corpus.publications:
        profile = profiles[pub.pub_id]
        for univ in sorted(profile.universities):
            for firm in sorted(profile.domestic_firms):
                edges.append(CollabEdge(pub.pub_id, univ, firm))
    return edges


def subset_mask(corpus: Corpus, selector: str) -> int:
    """The publications a selector keeps, as a bitmask (see :mod:`.views`).

    ``all`` is everything; ``extramural_collab`` requires at least two
    distinct address organizations, one of them a university;
    ``industry_coauthored`` requires at least one collaboration. The three
    sets nest: industry_coauthored <= extramural_collab <= all.
    """
    if selector not in SELECTORS:
        raise UnknownSelector(f"unknown selector {selector!r}; expected one of {SELECTORS}")
    index = views.of(corpus)
    if selector == SELECTOR_ALL:
        return index.everything
    if selector == SELECTOR_EXTRAMURAL:
        return index.extramural
    return index.industry


def subset(corpus: Corpus, selector: str) -> frozenset[str]:
    """Publication ids matching a selector; see :func:`subset_mask`."""
    return views.of(corpus).pub_ids(subset_mask(corpus, selector))
