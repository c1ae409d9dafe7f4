"""Counting of university-industry collaborations.

An article whose address list contains m universities and n domestic private
firms embeds m*n pairwise collaborations. Organizations that are publicly
owned, consortiums, foundations, or located abroad never count toward the
industry side. ``views.Views.parties`` states which organizations are on
each side; everything here reads the article's parties through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import views
from .corpus import Corpus, Publication
from .errors import UnknownSelector

CASE_ONE_ONE = "one_one"
CASE_M_ONE = "m_one"
CASE_ONE_N = "one_n"
CASE_M_N = "m_n"

# the four collaboration cases, in presentation order
COLLAB_CASES = (CASE_ONE_ONE, CASE_M_ONE, CASE_ONE_N, CASE_M_N)

SELECTOR_ALL = "all"
SELECTOR_EXTRAMURAL = "extramural_collab"
SELECTOR_INDUSTRY = "industry_coauthored"
# each selector and the Views attribute that holds its publications
SELECTORS = {
    SELECTOR_ALL: "everything",
    SELECTOR_EXTRAMURAL: "extramural",
    SELECTOR_INDUSTRY: "industry",
}


@dataclass(frozen=True)
class CollabSummary:
    """Corpus-level collaboration totals with the per-case breakdown."""

    total_collaborations: int
    industry_articles: int
    articles_by_case: dict[str, int]
    collaborations_by_case: dict[str, int]


def _case_for(m: int, n: int) -> str:
    if m == 1 and n == 1:
        return CASE_ONE_ONE
    if n == 1:
        return CASE_M_ONE
    if m == 1:
        return CASE_ONE_N
    return CASE_M_N


def _parties_of(corpus: Corpus) -> Iterator[tuple[Publication, list[str], list[str]]]:
    """Each industry co-authored publication with its university and firm ids, in order."""
    index = views.of(corpus)
    universities, firms = index.parties
    for i in views.members(index.industry):
        pub = corpus.publications[i]
        yield (pub, [o for o in pub.address_org_ids if o in universities],
               [o for o in pub.address_org_ids if o in firms])


def count_collaborations(corpus: Corpus) -> CollabSummary:
    """Total collaborations and the article/collaboration split by case."""
    articles_by_case = {case: 0 for case in COLLAB_CASES}
    collaborations_by_case = {case: 0 for case in COLLAB_CASES}
    for _, univs, firms in _parties_of(corpus):
        case = _case_for(len(univs), len(firms))
        articles_by_case[case] += 1
        collaborations_by_case[case] += len(univs) * len(firms)
    return CollabSummary(
        total_collaborations=sum(collaborations_by_case.values()),
        industry_articles=sum(articles_by_case.values()),
        articles_by_case=articles_by_case,
        collaborations_by_case=collaborations_by_case,
    )


def extract_edges(corpus: Corpus) -> list[tuple[str, str, str]]:
    """Every (pub_id, university org id, firm org id) triple, sorted in that order."""
    return [(pub.pub_id, univ, firm)
            for pub, univs, firms in _parties_of(corpus)
            for univ in univs for firm in firms]


def subset_mask(corpus: Corpus, selector: str) -> int:
    """The publications a selector keeps, as a bitmask (see :mod:`.views`).

    ``all`` is everything; ``extramural_collab`` requires at least two
    distinct address organizations, one of them a university;
    ``industry_coauthored`` requires at least one collaboration. The three
    sets nest: industry_coauthored <= extramural_collab <= all.
    """
    if selector not in SELECTORS:
        raise UnknownSelector(
            f"unknown selector {selector!r}; expected one of {tuple(SELECTORS)}")
    return getattr(views.of(corpus), SELECTORS[selector])

