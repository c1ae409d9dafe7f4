"""Report tables and their renderers.

Three table shapes: sector rankings, two-sample comparisons, and
multidisciplinarity listings. The rank rows (each sector's industry
co-authorship intensity) and the multidisc rows are computed here from the
views, the comparisons in :mod:`.stats`. Each table renders to CSV, JSON or
Markdown through one row layout, ``_render_rows`` (a comparison keeps its
own nested JSON), with fixed numeric formatting (3 decimals for percentages
and indices, 4 for t statistics, scientific notation for p-values below
1e-3), LF newlines, and deterministic byte output. JSON carries the same
formatted values as numbers, so CSV and JSON renders of one table parse to
equal values.

The collaboration edge list and its per-case counts are computed here too:
an article whose address list contains m universities and n domestic
private firms embeds m*n pairwise collaborations, on the two sides that
``views.Views.parties`` states.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

from . import stats, views
from .corpus import Corpus, Publication

LEVEL_SDS = "sds"
LEVEL_UDA = "uda"

# each metric: the SectorIntensityRow field it ranks by, and its title words
_METRICS = {
    "count": ("n_industry_coauth", "industry co-authored articles"),
    "pct_all": ("pct_of_all", "industry share of all articles (%)"),
    "pct_coauth": ("pct_of_coauth", "industry share of extramural collaborations (%)"),
    "per_researcher": ("per_researcher", "industry co-authored articles per researcher"),
}
METRICS = tuple(_METRICS)
FORMATS = ("csv", "json", "md")

_LEVEL_WORD = {LEVEL_SDS: "sectors", LEVEL_UDA: "areas"}

# rows kept in the sector and area rankings of render_all; TOP_SDS is also
# build_rank_table's and `map --top`'s default
TOP_SDS = 10
TOP_UDA = 4

CASE_ONE_ONE = "one_one"
CASE_M_ONE = "m_one"
CASE_ONE_N = "one_n"
CASE_M_N = "m_n"

# the four collaboration cases, in presentation order
COLLAB_CASES = (CASE_ONE_ONE, CASE_M_ONE, CASE_ONE_N, CASE_M_N)

SELECTOR_ALL = "all"
SELECTOR_EXTRAMURAL = "extramural_collab"
SELECTOR_INDUSTRY = "industry_coauthored"
# each selector and the Views attribute that holds its publications, as a
# bitmask: ``all`` is everything; ``extramural_collab`` requires at least two
# distinct address organizations, one of them a university;
# ``industry_coauthored`` requires at least one collaboration. The three sets
# nest: industry_coauthored <= extramural_collab <= all.
SELECTORS = {
    SELECTOR_ALL: "everything",
    SELECTOR_EXTRAMURAL: "extramural",
    SELECTOR_INDUSTRY: "industry",
}


def sector_headcounts(corpus: Corpus, level: str) -> dict[str, int]:
    """Roster headcount per sector (or per area)."""
    sectors = (researcher.sds_id for researcher in corpus.researchers.values())
    if level == LEVEL_UDA:
        sectors = (corpus.taxonomy[sds_id].uda_id for sds_id in sectors)
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


def sector_intensity(corpus: Corpus, level: str) -> list[SectorIntensityRow]:
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


@dataclass(frozen=True)
class MultidiscIndex:
    """Multidisciplinarity of one scope (a sector or a journal category)."""

    scope_id: str
    ii_sds: float | None
    ii_sci: float | None
    n_pubs: int


@dataclass(frozen=True)
class RankTable:
    title: str
    level: str
    metric: str
    k: int
    rows: tuple[SectorIntensityRow, ...]


@dataclass(frozen=True)
class MultidiscTable:
    title: str
    subset: str
    rows: tuple[MultidiscIndex, ...]


def build_rank_table(
    corpus: Corpus,
    level: str = LEVEL_SDS,
    metric: str = "count",
    k: int = TOP_SDS,
) -> RankTable:
    """Rank sectors by one intensity metric, keeping the top k.

    The rows are the sectors' intensity rows: those whose metric is
    undefined are dropped, and ties order by sector id. Rendering puts the
    metric in the ``value`` column and the other three after it.
    """
    intensity = sector_intensity(corpus, level)
    field, words = _METRICS[metric]
    scored = sorted((row for row in intensity if getattr(row, field) is not None),
                    key=lambda row: (-getattr(row, field), row.sector_id))
    title = f"Top {k} {_LEVEL_WORD[level]} by {words}"
    return RankTable(title=title, level=level, metric=metric, k=k, rows=tuple(scored[:k]))


def build_multidisc_table(corpus: Corpus, selector: str) -> MultidiscTable:
    """Multidisciplinarity per scope, restricted to a publication subset.

    Sector scopes carry the author-sector index, category scopes the journal
    category index; scopes with no publication in the subset are omitted.
    Each index is a scope mean kept on the views, shared with the paired
    comparisons.
    """
    index = views.of(corpus)
    side = SELECTORS[selector]
    chosen = getattr(index, side)
    rows = []
    for scopes, value, field in (("by_sds", "sector_counts", "ii_sds"),
                                 ("by_category", "category_counts", "ii_sci")):
        groups = getattr(index, scopes)
        for scope_id in sorted(groups):
            pubs = groups[scope_id] & chosen
            if not pubs:
                continue
            values = {"ii_sds": None, "ii_sci": None,
                      field: index.mean(scopes, scope_id, side, value)}
            rows.append(MultidiscIndex(scope_id, n_pubs=pubs.bit_count(), **values))
    return MultidiscTable(
        title=f"Multidisciplinarity by scope, subset: {selector}",
        subset=selector,
        rows=tuple(rows),
    )


# -- formatting ---------------------------------------------------------------------

def _fmt_real(x: float) -> str:
    return f"{x:.3f}"


def _fmt_t(x: float) -> str:
    return f"{x:.4f}"


def _fmt_p(x: float) -> str:
    return f"{x:.3e}" if x < 1e-3 else f"{x:.3f}"


def _fmt_cell(v: str | float | int | None) -> str:
    if v is None:
        return ""
    if isinstance(v, (str, int)):
        return str(v)
    return _fmt_real(v)


def _json_cell(v: str | float | int | None) -> str | float | int | None:
    # JSON carries the formatted value as a number, so CSV and JSON parse equal
    if v is None or isinstance(v, (str, int)):
        return v
    return float(_fmt_real(v))


def _dump_json(obj: object) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=True) + "\n"


def _csv_lines(rows: Iterable[Sequence[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _render_rows(title: str, header: list[str], rows: list[list[str | float | int | None]],
                 fmt: str, meta: dict[str, object]) -> str:
    """The row-table layout; ``rows`` hold raw cells, Markdown shows ``-`` for an empty one."""
    if fmt == "json":
        return _dump_json({"title": title, **meta,
                           "rows": [dict(zip(header, map(_json_cell, row))) for row in rows]})
    cells = [[_fmt_cell(v) for v in row] for row in rows]
    if fmt == "csv":
        return _csv_lines([header, *cells])
    md_rows = [header, ["---"] * len(header), *cells]
    lines = ["| " + " | ".join(cell if cell else "-" for cell in row) + " |" for row in md_rows]
    return "\n".join([title, "", *lines]) + "\n"


def _render_rank(table: RankTable, fmt: str) -> str:
    # column name -> row field: the ranked metric, then the others in METRICS order
    columns = {"value": _METRICS[table.metric][0],
               **{m: f for m, (f, _) in _METRICS.items() if m != table.metric}}
    rows = [[row.sector_id, *(getattr(row, f) for f in columns.values())]
            for row in table.rows]
    meta = {"level": table.level, "metric": table.metric, "k": table.k}
    return _render_rows(table.title, ["sector", *columns], rows, fmt, meta)


def _render_comparison(cmp: stats.Comparison, fmt: str) -> str:
    a, b, r = cmp.sample_a, cmp.sample_b, cmp.result
    if fmt != "json":
        rows = [
            ["mean", a.mean, b.mean],
            ["variance", a.variance, b.variance],
            ["n", a.n, b.n],
            ["t", _fmt_t(r.t), None],
            ["df", r.df, None],
            ["p_one", _fmt_p(r.p_one), None],
            ["p_two", _fmt_p(r.p_two), None],
        ]
        text = _render_rows(cmp.title, ["field", a.label, b.label], rows, fmt, {})
        return text + "\n" + cmp.exclusion_note + "\n" if fmt == "md" else text
    return _dump_json(
        {
            "title": cmp.title,
            "grouping": cmp.grouping,
            "indicator": cmp.indicator,
            "exclusion_note": cmp.exclusion_note,
            "n_units": cmp.n_units,
            "excluded": cmp.excluded,
            **{key: {"label": s.label, "n": s.n, "mean": _json_cell(s.mean),
                     "variance": _json_cell(s.variance)}
               for key, s in (("sample_a", a), ("sample_b", b))},
            "t": float(_fmt_t(r.t)),
            "df": float(_fmt_real(r.df)),
            "p_one": float(_fmt_p(r.p_one)),
            "p_two": float(_fmt_p(r.p_two)),
        }
    )


def _render_multidisc(table: MultidiscTable, fmt: str) -> str:
    header = ["scope", "subset", "ii_sds", "ii_sci", "n_pubs"]
    rows = [[row.scope_id, table.subset, row.ii_sds, row.ii_sci, row.n_pubs]
            for row in table.rows]
    return _render_rows(table.title, header, rows, fmt, {"subset": table.subset})


def render(table: RankTable | stats.Comparison | MultidiscTable, fmt: str = "csv") -> str:
    """Render a table, or a comparison, to one of FORMATS."""
    if isinstance(table, RankTable):
        return _render_rank(table, fmt)
    if isinstance(table, stats.Comparison):
        return _render_comparison(table, fmt)
    return _render_multidisc(table, fmt)


# -- collaborations -----------------------------------------------------------------

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


def extract_edges(corpus: Corpus) -> Iterator[tuple[str, str, str]]:
    """Yield every (pub_id, university org id, firm org id) triple, sorted in that order."""
    return ((pub.pub_id, univ, firm)
            for pub, univs, firms in _parties_of(corpus)
            for univ in univs for firm in firms)


def edges_csv(corpus: Corpus) -> str:
    """The collaboration edge list as CSV, written as it is extracted."""
    return _csv_lines(chain([("pub_id", "university_org_id", "firm_org_id")],
                            extract_edges(corpus)))


def render_all(
    corpus: Corpus, *, min_collab_pubs: int = stats.MIN_COLLAB_PUBS
) -> dict[str, str]:
    """Every standard render of one corpus, keyed by output name.

    All tables read the views cached on the corpus, so each view is computed
    once across tables and across calls; every aggregation iterates in sorted
    order, so the result is byte-identical across runs.
    """
    out: dict[str, str] = {}
    table = build_rank_table(corpus, LEVEL_UDA, "count", TOP_UDA)
    out["rank_uda_count.md"] = render(table, "md")
    for metric in METRICS:
        table = build_rank_table(corpus, LEVEL_SDS, metric, TOP_SDS)
        out[f"rank_sds_{metric}.csv"] = render(table, "csv")

    out["edges.csv"] = edges_csv(corpus)

    for grouping, indicator in stats.COMPARISONS:
        comparison = stats.compare(corpus, grouping, indicator, min_collab_pubs=min_collab_pubs)
        out[f"compare_{grouping}_{indicator}.json"] = render(comparison, "json")
    return out
