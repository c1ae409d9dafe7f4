"""Bibliometric indicators over a loaded corpus.

Covers journal impact percentile ranks, per-sector industry co-authorship
intensity, per-researcher output and fractional scientific strength, and the
two multidisciplinarity indices. Every aggregate iterates in sorted id order,
so all results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from . import collab, views
from .corpus import Corpus, Publication
from .errors import (
    EmptySample,
    EmptySector,
    UnknownResearcher,
    UnrankedJournal,
)

LEVEL_SDS = "sds"
LEVEL_UDA = "uda"


def midrank_percentiles(values: Sequence[float]) -> list[float]:
    """Percentile rank of each value in its own distribution, midrank ties.

    rank_pct = 100 * (count_below + 0.5 * count_equal) / n. The group mean is
    always 50, and any strictly increasing transform of the values leaves the
    ranks unchanged.
    """
    n = len(values)
    if n == 0:
        raise EmptySample("cannot rank an empty distribution")
    order = sorted(range(n), key=lambda i: values[i])
    out = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        equal = j - i + 1
        pct = 100.0 * (i + 0.5 * equal) / n
        for k in range(i, j + 1):
            out[order[k]] = pct
        i = j + 1
    return out


@dataclass(frozen=True)
class PercentileRanked:
    subject_id: str
    value: float
    rank_pct: float


@dataclass(frozen=True)
class YearRanks:
    """Per-category journal impact percentile ranks for one year."""

    year: int
    ranks: dict[tuple[str, str], PercentileRanked]  # (journal_id, category) -> rank
    categories: dict[str, tuple[str, ...]]  # journal_id -> categories that year


def if_percentile_ranks(corpus: Corpus, year: int) -> YearRanks:
    """Rank every journal's impact factor within each of its categories.

    A journal's record for the year follows the same resolution rule articles
    use (exact year, else nearest in the window); a journal with no usable
    record, such as one whose rows all fall outside the window, is left out
    of that year's ranking.
    """
    effective = {}
    for journal_id in sorted(corpus.journal_ids):
        record = corpus.effective_journal(journal_id, year)
        if record is not None:
            effective[journal_id] = record

    by_category: dict[str, list[str]] = {}
    for journal_id, record in effective.items():
        for cat in record.sci_categories:
            by_category.setdefault(cat, []).append(journal_id)

    ranks: dict[tuple[str, str], PercentileRanked] = {}
    for cat in sorted(by_category):
        members = sorted(by_category[cat])
        pcts = midrank_percentiles([effective[j].impact_factor for j in members])
        for journal_id, pct in zip(members, pcts):
            ranks[(journal_id, cat)] = PercentileRanked(
                subject_id=journal_id,
                value=effective[journal_id].impact_factor,
                rank_pct=pct,
            )
    categories = {j: record.sci_categories for j, record in effective.items()}
    return YearRanks(year=year, ranks=ranks, categories=categories)


def build_rank_index(corpus: Corpus) -> dict[int, YearRanks]:
    """YearRanks for every publication year present in the corpus."""
    years = sorted({pub.year for pub in corpus.publications})
    return {year: if_percentile_ranks(corpus, year) for year in years}


def article_ifpr(pub: Publication, ranks: YearRanks) -> float:
    """Mean percentile rank of the publishing journal over its categories."""
    cats = ranks.categories.get(pub.journal_id)
    if cats is None:
        raise UnrankedJournal(f"journal {pub.journal_id!r} is not in the rank index")
    total = 0.0
    for cat in cats:
        total += ranks.ranks[(pub.journal_id, cat)].rank_pct
    return total / len(cats)


def ifpr_by_publication(corpus: Corpus) -> dict[str, float]:
    """Article-level impact percentile for every publication."""
    ifpr = views.of(corpus).ifpr
    return {pub.pub_id: value for pub, value in zip(corpus.publications, ifpr)}


# -- sector attribution ---------------------------------------------------------

def sectors_of_publication(corpus: Corpus, pub: Publication) -> frozenset[str]:
    """Distinct sectors of the roster-linked authors of one publication."""
    return frozenset(
        corpus.researchers[a.researcher_id].sds_id
        for a in pub.authors
        if a.researcher_id is not None
    )


def _by_scope(index: views.Views, level: str) -> dict[str, int]:
    if level == LEVEL_SDS:
        return index.by_sds
    if level == LEVEL_UDA:
        return index.by_uda
    raise ValueError(f"level must be 'sds' or 'uda', got {level!r}")


def sector_headcounts(corpus: Corpus, level: str = LEVEL_SDS) -> dict[str, int]:
    """Roster headcount per sector (or per area)."""
    counts: dict[str, int] = {}
    for researcher in corpus.researchers.values():
        scope = researcher.sds_id
        if level == LEVEL_UDA:
            scope = corpus.taxonomy.uda_of(scope)
        counts[scope] = counts.get(scope, 0) + 1
    return counts


@dataclass(frozen=True)
class SectorIntensityRow:
    """Industry co-authorship intensity of one sector.

    Ratios with a zero denominator are None, never 0: a sector with no
    extramural output has no defined share of collaborative articles.
    """

    sector_id: str
    n_industry_coauth: int
    pct_of_all: float | None
    pct_of_coauth: float | None
    per_researcher: float | None


def sector_intensity(corpus: Corpus, level: str = LEVEL_SDS) -> list[SectorIntensityRow]:
    """The four intensity indicators per sector, sorted by sector id.

    Sectors with no attributed articles are omitted entirely.
    """
    index = views.of(corpus)
    attributed = _by_scope(index, level)
    headcounts = sector_headcounts(corpus, level)

    rows = []
    for sector_id in sorted(attributed):
        pubs = attributed[sector_id]
        n_all = pubs.bit_count()
        n_extramural = (pubs & index.extramural).bit_count()
        n_industry = (pubs & index.industry).bit_count()
        headcount = headcounts.get(sector_id, 0)
        rows.append(
            SectorIntensityRow(
                sector_id=sector_id,
                n_industry_coauth=n_industry,
                pct_of_all=100.0 * n_industry / n_all if n_all else None,
                pct_of_coauth=100.0 * n_industry / n_extramural if n_extramural else None,
                per_researcher=n_industry / headcount if headcount else None,
            )
        )
    return rows


# -- per-researcher performance ---------------------------------------------------

@dataclass(frozen=True)
class ResearcherPerformance:
    """Output (publications authored) and fractional scientific strength.

    Each authored publication adds (article_ifpr / 100) / (number of byline
    authors) to ``fss``, so ``fss`` never exceeds ``output``.
    """

    researcher_id: str
    output: int
    fss: float


def researcher_performance(corpus: Corpus) -> dict[str, ResearcherPerformance]:
    """Output and FSS for every roster researcher, sorted by researcher id."""
    return dict(views.of(corpus).performance)


def rank_within_sector(corpus: Corpus, values: Mapping[str, float]) -> dict[str, float]:
    """Midrank percentile of each researcher's value within their own sector.

    The population of each sector is exactly the researchers present in
    ``values``; every sector's ranks average to 50.
    """
    if not values:
        raise EmptySector("no researchers to rank")
    groups: dict[str, list[str]] = {}
    for researcher_id in sorted(values):
        researcher = corpus.researchers.get(researcher_id)
        if researcher is None:
            raise UnknownResearcher(f"researcher {researcher_id!r} is not on the roster")
        groups.setdefault(researcher.sds_id, []).append(researcher_id)

    ranks: dict[str, float] = {}
    for sds_id in sorted(groups):
        members = groups[sds_id]
        pcts = midrank_percentiles([values[r] for r in members])
        for researcher_id, pct in zip(members, pcts):
            ranks[researcher_id] = pct
    return ranks


# -- multidisciplinarity ------------------------------------------------------------

@dataclass(frozen=True)
class MultidiscIndex:
    """Multidisciplinarity of one scope (a sector or a journal category)."""

    scope_id: str
    subset: str
    ii_sds: float | None
    ii_sci: float | None
    n_pubs: int


def multidisc_by_scope(corpus: Corpus, selector: str) -> list[MultidiscIndex]:
    """Multidisciplinarity per scope, restricted to a publication subset.

    Sector scopes carry the author-sector index, category scopes the journal
    category index; scopes with no publication in the subset are omitted.
    """
    chosen = collab.subset_mask(corpus, selector)
    index = views.of(corpus)
    rows = []
    for groups, counts, field in ((index.by_sds, index.sector_counts, "ii_sds"),
                                  (index.by_category, index.category_counts, "ii_sci")):
        for scope_id in sorted(groups):
            pubs = groups[scope_id] & chosen
            if not pubs:
                continue
            values = {"ii_sds": None, "ii_sci": None, field: views.mean_over(pubs, counts)}
            rows.append(MultidiscIndex(scope_id, selector, n_pubs=pubs.bit_count(), **values))
    return rows
