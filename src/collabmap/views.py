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
terms in the same order as a sum over its sorted ids. ``categories`` and
``ifpr`` are worked out once per distinct (journal, year), and the scope
groupings once per distinct sector set or category tuple.

The tables also share corpus aggregates, kept by :meth:`Views.memo`: each
scope mean a paired comparison or a multidisc table takes, the roster
headcount per level, and each researcher comparison. None of them depends on ``min_collab_pubs``,
whose floor only picks which means to read, so ``render_all`` calls on one
corpus, at any thresholds, compute each of them at most once.

``parties`` states the collaboration rule itself. The percentile primitives
live here too: ``midrank_percentiles``, ``if_percentile_ranks``, which
``ifpr`` reads, and ``rank_within_sector``, which the researcher comparisons
rank with.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import compress, count
from operator import attrgetter
from typing import Callable, Hashable, Iterable, Mapping, Sequence, TypeVar

from .corpus import Corpus, JournalYear

T = TypeVar("T")

_AUTHORS = attrgetter("authors")
_RESEARCHER = attrgetter("researcher_id")
_JOURNAL_YEAR = attrgetter("journal_id", "year")
_CLEAR = bytes.maketrans(b"0", b"\0")  # a binary digit 0 to a zero byte


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
    return bin(mask)[:1:-1].encode().translate(_CLEAR)


def members(mask: int) -> list[int]:
    """Positions set in ``mask``, ascending."""
    return list(compress(count(), _flags(mask)))


def total(values: Iterable[float]) -> float:
    """The floats added left to right, in the same bits on every interpreter;
    the builtin ``sum`` adds them with compensated summation from Python 3.12 on."""
    result = 0.0
    for v in values:
        result += v
    return result


def mean_over(mask: int, values: Sequence[float]) -> float:
    """Mean of ``values`` at the positions set in a non-empty ``mask``, in position order."""
    return total(compress(values, _flags(mask))) / mask.bit_count()


def _group(scopes_per_pub: Iterable[Iterable[str]], size: int) -> dict[str, int]:
    """Bitmask of the publications carrying each scope.

    Publications are gathered per distinct collection of scopes first, so
    each collection's scopes are walked once, not once per publication.
    """
    by_collection: dict[Iterable[str], list[int]] = {}
    for i, scopes in enumerate(scopes_per_pub):
        by_collection.setdefault(scopes, []).append(i)
    positions: dict[str, list[int]] = {}
    for scopes, where in by_collection.items():
        for scope in scopes:
            positions.setdefault(scope, []).extend(where)
    return {scope: _mask(p, size) for scope, p in positions.items()}


def midrank_percentiles(values: Sequence[float]) -> list[float]:
    """Percentile rank of each value in its own distribution, midrank ties.

    percentile = 100 * (count_below + 0.5 * count_equal) / n. The group mean is
    always 50, and any strictly increasing transform of the values leaves the
    ranks unchanged.
    """
    n = len(values)
    ordered = sorted(values)
    # 50 * (below + below + equal) is the exact integer 100 * below + 50 * equal;
    # ties share one float, as the rankings keep one per researcher and journal
    pct = {v: 50.0 * (bisect_left(ordered, v) + bisect_right(ordered, v)) / n for v in ordered}
    return [pct[v] for v in values]


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
        pcts = midrank_percentiles([values[r] for r in members])
        for researcher_id, pct in zip(members, pcts):
            ranks[researcher_id] = pct
    return ranks


def if_percentile_ranks(corpus: Corpus, year: int) -> dict[tuple[str, str], float]:
    """Midrank percentile of every journal's impact factor within each of its
    categories, keyed by (journal_id, category).

    A journal's record for the year follows the same resolution rule articles
    use (exact year, else nearest in the window); a journal with no usable
    record, such as one whose rows all fall outside the window, is left out
    of that year's ranking.
    """
    by_category: dict[str, list[JournalYear]] = {}
    for journal_id in sorted(corpus.journal_ids):
        record = corpus.effective_journal(journal_id, year)
        if record is not None:
            for cat in record.sci_categories:
                by_category.setdefault(cat, []).append(record)

    ranks: dict[tuple[str, str], float] = {}
    for cat in sorted(by_category):
        records = by_category[cat]
        pcts = midrank_percentiles([record.impact_factor for record in records])
        for record, pct in zip(records, pcts):
            ranks[(record.journal_id, cat)] = pct
    return ranks


@dataclass(frozen=True)
class ResearcherPerformance:
    """Output (publications authored) and fractional scientific strength.

    Each authored publication adds (its ifpr / 100) / (number of byline
    authors) to ``fss``, so ``fss`` never exceeds ``output``.
    """

    researcher_id: str
    output: int
    fss: float


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
        self._memo: dict[Hashable, object] = {}

    def memo(self, key: Hashable, compute: Callable[[], T]) -> T:
        """The corpus aggregate kept under ``key``, computed on first use."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]  # type: ignore[return-value]

    def mean(self, scopes: str, scope_id: str, side: str, value: str) -> float:
        """Mean of view ``value`` over the publications of one scope of view
        ``scopes`` that the subset view ``side`` holds."""
        return self.memo(("mean", scopes, scope_id, side, value), lambda: mean_over(
            getattr(self, scopes)[scope_id] & getattr(self, side), getattr(self, value)))

    def _per_journal_year(self, value: Callable[[str, int], T]) -> list[T]:
        """``value(journal_id, year)`` of each publication, computed once per pair."""
        return list(map(cache(lambda key: value(*key)),
                        map(_JOURNAL_YEAR, self.corpus.publications)))

    @cached_property
    def parties(self) -> tuple[frozenset[str], frozenset[str]]:
        """The university-side and the domestic-firm org ids, each org looked at once.

        Universities count by kind alone; the industry side requires kind
        private_firm *and* the corpus's home country. Every other
        organization is on neither side.
        """
        universities, firms = [], []
        for org_id, org in self.corpus.organizations.items():
            if org.kind == "university":
                universities.append(org_id)
            elif org.kind == "private_firm" and org.country == self.corpus.home_country:
                firms.append(org_id)
        return frozenset(universities), frozenset(firms)

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
        sector_of = {r.researcher_id: r.sds_id for r in self.corpus.researchers.values()}
        # few distinct sets occur; keep one object per set
        distinct: dict[frozenset[str], frozenset[str]] = {}
        return [
            distinct.setdefault(s, s)
            for s in (frozenset(sector_of[a.researcher_id] for a in pub.authors
                                if a.researcher_id is not None)
                      for pub in self.corpus.publications)
        ]

    @cached_property
    def sector_counts(self) -> list[int]:
        return list(map(len, self.sectors))

    @cached_property
    def by_sds(self) -> dict[str, int]:
        return _group(self.sectors, self.size)

    @cached_property
    def by_uda(self) -> dict[str, int]:
        """Publications per area: the union of its sectors' publications."""
        by_uda: dict[str, int] = {}
        for sds_id, mask in self.by_sds.items():
            uda_id = self.corpus.taxonomy[sds_id].uda_id
            by_uda[uda_id] = by_uda.get(uda_id, 0) | mask
        return by_uda

    @cached_property
    def categories(self) -> list[tuple[str, ...]]:
        """Categories of the journal record each publication uses."""
        effective = self.corpus.effective_journal
        # every corpus is closed by construction, so every publication has one
        return self._per_journal_year(
            lambda journal_id, year: effective(journal_id, year).sci_categories)  # type: ignore

    @cached_property
    def category_counts(self) -> list[int]:
        return list(map(len, self.categories))

    @cached_property
    def by_category(self) -> dict[str, int]:
        return _group(self.categories, self.size)

    @cached_property
    def ifpr(self) -> list[float]:
        """Article-level impact percentile of each publication: the mean of its
        journal's percentile ranks in that year over its ``categories``."""
        ranks: dict[int, dict[tuple[str, str], float]] = {}
        effective = self.corpus.effective_journal

        def mean_rank(journal_id: str, year: int) -> float:
            if year not in ranks:
                ranks[year] = if_percentile_ranks(self.corpus, year)
            categories = effective(journal_id, year).sci_categories  # type: ignore[union-attr]
            return total(ranks[year][(journal_id, cat)] for cat in categories) / len(categories)

        return self._per_journal_year(mean_rank)

    @cached_property
    def performance(self) -> dict[str, ResearcherPerformance]:
        """Output and fractional scientific strength of every roster researcher.

        One walk in position order: each ``fss`` adds its terms in pub_id order.
        """
        output = dict.fromkeys(self.corpus.researchers, 0)
        fss = dict.fromkeys(self.corpus.researchers, 0.0)
        for authors, ifpr in zip(map(_AUTHORS, self.corpus.publications), self.ifpr):
            share = (ifpr / 100.0) / len(authors)
            linked = set(map(_RESEARCHER, authors))
            linked.discard(None)
            for researcher_id in linked:
                output[researcher_id] += 1
                fss[researcher_id] += share
        return {r: ResearcherPerformance(r, output[r], fss[r]) for r in sorted(output)}
