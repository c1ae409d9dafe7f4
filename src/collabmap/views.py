"""Derived views of a corpus, built once per corpus.

Every analysis reads its inputs through the one :class:`Views` object cached
on the corpus. The corpus fixes the home country that ``parties`` uses;
a corpus for another country, from ``load_corpus(..., home_country=)`` or
``dataclasses.replace``, is a new corpus with views of its own. Each view is
computed on first use and kept, so a bundle of tables computes it once, and
a command that needs only ``parties`` builds nothing else.

Every corpus is sorted by pub_id and closed by construction, so each
organization, journal record and researcher a view looks up exists.
Publications are interned to their position in ``corpus.publications``. A
set of publications is an ``int`` bitmask over those positions:
intersection is ``&`` and size is ``int.bit_count()``. Members come out in
ascending position, which is pub_id order, so a sum over a set adds its
terms in the same order as a sum over its sorted ids.

``collab`` and ``indicators`` read their views from here, so the views that
need their primitives import them when first built.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress, count
from typing import TYPE_CHECKING, Iterable, Sequence

from .corpus import Corpus

if TYPE_CHECKING:
    from .indicators import ResearcherPerformance


def of(corpus: Corpus) -> Views:
    """The views of ``corpus``, created on first use."""
    views = corpus._views
    if views is None:
        views = Views(corpus)
        object.__setattr__(corpus, "_views", views)
    return views


def _mask(positions: Iterable[int], size: int) -> int:
    """Bitmask with the given positions set, out of ``size`` positions."""
    packed = bytearray((size + 7) // 8)
    for i in positions:
        packed[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(packed, "little")


def _flags(mask: int) -> bytes:
    """One byte per position, lowest first, zero where the bit is clear."""
    return bin(mask)[:1:-1].encode().replace(b"0", b"\0")


def members(mask: int) -> list[int]:
    """Positions set in ``mask``, ascending."""
    return list(compress(count(), _flags(mask)))


def mean_over(mask: int, values: Sequence[float]) -> float:
    """Mean of ``values`` at the positions set in a non-empty ``mask``."""
    return sum(compress(values, _flags(mask))) / mask.bit_count()


def _group(scopes_per_pub: Iterable[Iterable[str]], size: int) -> dict[str, int]:
    """Bitmask of the publications carrying each scope."""
    positions: dict[str, list[int]] = {}
    for i, scopes in enumerate(scopes_per_pub):
        for scope in scopes:
            positions.setdefault(scope, []).append(i)
    return {scope: _mask(p, size) for scope, p in positions.items()}


class Views:
    """Derived views of one corpus.

    Publication sets are bitmasks over positions in ``corpus.publications``;
    per-publication values are lists indexed by position. Only ``parties``,
    the subsets and the collaborators depend on the home country.
    """

    def __init__(self, corpus: Corpus) -> None:
        self.corpus = corpus
        self.size = len(corpus.publications)
        self.everything = (1 << self.size) - 1

    def pub_ids(self, mask: int) -> frozenset[str]:
        pubs = self.corpus.publications
        return frozenset(pubs[i].pub_id for i in members(mask))

    @cached_property
    def parties(self) -> tuple[frozenset[str], frozenset[str]]:
        """The university-side and the domestic-firm org ids, each org classified once."""
        from . import collab

        home_country = self.corpus.home_country
        sides = {org_id: collab.side_of(org, home_country)
                 for org_id, org in self.corpus.organizations.items()}
        return (frozenset(o for o, side in sides.items() if side == collab.UNIVERSITY),
                frozenset(o for o, side in sides.items() if side == collab.FIRM))

    @cached_property
    def extramural(self) -> int:
        """Articles with two or more address organizations, one a university."""
        universities = self.parties[0]
        return _mask((i for i, pub in enumerate(self.corpus.publications)
                      if len(pub.address_org_ids) >= 2
                      and not universities.isdisjoint(pub.address_org_ids)), self.size)

    @cached_property
    def industry(self) -> int:
        """Articles with at least one university-firm collaboration."""
        universities, firms = self.parties
        return _mask((i for i, pub in enumerate(self.corpus.publications)
                      if not universities.isdisjoint(pub.address_org_ids)
                      and not firms.isdisjoint(pub.address_org_ids)), self.size)

    @cached_property
    def collaborators(self) -> frozenset[str]:
        """Roster researchers who authored an industry co-authored article."""
        pubs = self.corpus.publications
        return frozenset(a.researcher_id for i in members(self.industry)
                         for a in pubs[i].authors if a.researcher_id is not None)

    @cached_property
    def sectors(self) -> list[frozenset[str]]:
        """Distinct sectors of the roster-linked authors of each publication."""
        from . import indicators

        # few distinct sets occur; keep one object per set
        distinct: dict[frozenset[str], frozenset[str]] = {}
        return [
            distinct.setdefault(s, s)
            for s in (indicators.sectors_of_publication(self.corpus, pub)
                      for pub in self.corpus.publications)
        ]

    @cached_property
    def sector_counts(self) -> list[int]:
        return [len(sectors) for sectors in self.sectors]

    @cached_property
    def by_sds(self) -> dict[str, int]:
        return _group(self.sectors, self.size)

    @cached_property
    def by_uda(self) -> dict[str, int]:
        """Publications per area: the union of its sectors' publications."""
        by_uda: dict[str, int] = {}
        for sds_id, mask in self.by_sds.items():
            uda_id = self.corpus.taxonomy.uda_of(sds_id)
            by_uda[uda_id] = by_uda.get(uda_id, 0) | mask
        return by_uda

    @cached_property
    def categories(self) -> list[tuple[str, ...]]:
        """Categories of the journal record each publication uses."""
        effective = self.corpus.effective_journal
        # every corpus is closed by construction, so every publication has one
        return [effective(p.journal_id, p.year).sci_categories  # type: ignore[union-attr]
                for p in self.corpus.publications]

    @cached_property
    def category_counts(self) -> list[int]:
        return [len(categories) for categories in self.categories]

    @cached_property
    def by_category(self) -> dict[str, int]:
        return _group(self.categories, self.size)

    @cached_property
    def ifpr(self) -> list[float]:
        """Article-level impact percentile of each publication."""
        from . import indicators

        index = indicators.build_rank_index(self.corpus)
        return [indicators.article_ifpr(p, index[p.year]) for p in self.corpus.publications]

    @cached_property
    def performance(self) -> dict[str, ResearcherPerformance]:
        """Output and fractional scientific strength of every roster researcher."""
        from .indicators import ResearcherPerformance

        pubs, ifpr = self.corpus.publications, self.ifpr
        authored: dict[str, list[int]] = {r: [] for r in self.corpus.researchers}
        for i, pub in enumerate(pubs):
            for researcher_id in dict.fromkeys(a.researcher_id for a in pub.authors):
                if researcher_id is not None:
                    authored[researcher_id].append(i)
        result = {}
        for researcher_id in sorted(authored):
            fss = 0.0
            for i in authored[researcher_id]:
                fss += (ifpr[i] / 100.0) / len(pubs[i].authors)
            result[researcher_id] = ResearcherPerformance(
                researcher_id, len(authored[researcher_id]), fss)
        return result
