"""Bibliometric indicators over a loaded corpus.

Covers per-sector industry co-authorship intensity, within-sector ranks of
researchers, and the two multidisciplinarity indices. The impact percentile
ranks are a view (see :mod:`.views`). Every aggregate iterates in sorted id
order, so all results are deterministic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from . import collab, views
from .corpus import Corpus

LEVEL_SDS = "sds"
LEVEL_UDA = "uda"


# -- sector attribution ---------------------------------------------------------

def sector_headcounts(corpus: Corpus, level: str = LEVEL_SDS) -> dict[str, int]:
    """Roster headcount per sector (or per area)."""
    sectors = (researcher.sds_id for researcher in corpus.researchers.values())
    if level == LEVEL_UDA:
        sectors = map(corpus.taxonomy.uda_of, sectors)
    return Counter(sectors)


@dataclass(frozen=True)
class SectorIntensityRow:
    """Industry co-authorship intensity of one sector.

    Only ``pct_of_coauth`` can be None, never 0: a sector with no extramural
    output has no defined share of collaborative articles.
    """

    sector_id: str
    n_industry_coauth: int
    pct_of_all: float
    pct_of_coauth: float | None
    per_researcher: float


def sector_intensity(corpus: Corpus, level: str = LEVEL_SDS) -> list[SectorIntensityRow]:
    """The four intensity indicators per sector, sorted by sector id.

    Sectors with no attributed articles are omitted entirely. Every sector
    listed has an article, and so a roster researcher who wrote it.
    """
    index = views.of(corpus)
    headcounts = index.memo(("headcounts", level), lambda: sector_headcounts(corpus, level))
    attributed = index.by_sds if level == LEVEL_SDS else index.by_uda

    rows = []
    for sector_id in sorted(attributed):
        pubs = attributed[sector_id]
        n_all = pubs.bit_count()
        n_extramural = (pubs & index.extramural).bit_count()
        n_industry = (pubs & index.industry).bit_count()
        headcount = headcounts[sector_id]
        rows.append(
            SectorIntensityRow(
                sector_id=sector_id,
                n_industry_coauth=n_industry,
                pct_of_all=100.0 * n_industry / n_all,
                pct_of_coauth=100.0 * n_industry / n_extramural if n_extramural else None,
                per_researcher=n_industry / headcount,
            )
        )
    return rows


# -- per-researcher ranks ---------------------------------------------------------

def rank_within_sector(corpus: Corpus, values: Mapping[str, float]) -> dict[str, float]:
    """Midrank percentile of each researcher's value within their own sector.

    The population of each sector is exactly the roster researchers keyed
    in ``values``; every sector's ranks average to 50.
    """
    groups: dict[str, list[str]] = {}
    for researcher_id in sorted(values):
        groups.setdefault(corpus.researchers[researcher_id].sds_id, []).append(researcher_id)

    ranks: dict[str, float] = {}
    for sds_id in sorted(groups):
        members = groups[sds_id]
        pcts = views.midrank_percentiles([values[r] for r in members])
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
    index = views.of(corpus)
    chosen = getattr(index, collab.SELECTORS[selector])
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
