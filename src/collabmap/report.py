"""Report tables and their renderers.

Three table shapes: sector rankings, two-sample comparisons, and
multidisciplinarity listings. Each renders to CSV, JSON or Markdown with
fixed numeric formatting (3 decimals for percentages and indices, 4 for t
statistics, scientific notation for p-values below 1e-3), LF newlines, and
deterministic byte output. JSON carries the same formatted values as numbers,
so CSV and JSON renders of one table parse to equal values.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from . import collab, indicators, stats
from .corpus import Corpus
from .errors import UnknownMetric

METRICS = ("count", "pct_all", "pct_coauth", "per_researcher")

_METRIC_FIELD = {
    "count": "n_industry_coauth",
    "pct_all": "pct_of_all",
    "pct_coauth": "pct_of_coauth",
    "per_researcher": "per_researcher",
}

_METRIC_TITLE = {
    "count": "industry co-authored articles",
    "pct_all": "industry share of all articles (%)",
    "pct_coauth": "industry share of extramural collaborations (%)",
    "per_researcher": "industry co-authored articles per researcher",
}

_LEVEL_WORD = {indicators.LEVEL_SDS: "sectors", indicators.LEVEL_UDA: "areas"}

# rows kept in the sector and area rankings of render_all; TOP_SDS is also
# build_rank_table's and `map --top`'s default
TOP_SDS = 10
TOP_UDA = 4


@dataclass(frozen=True)
class RankRow:
    sector_id: str
    value: float | int | None
    context: tuple[tuple[str, float | int | None], ...]


@dataclass(frozen=True)
class RankTable:
    title: str
    level: str
    metric: str
    k: int
    rows: tuple[RankRow, ...]


@dataclass(frozen=True)
class ComparisonTable:
    title: str
    comparison: stats.Comparison
    exclusion_note: str


@dataclass(frozen=True)
class MultidiscTable:
    title: str
    subset: str
    rows: tuple[indicators.MultidiscIndex, ...]


def build_rank_table(
    corpus: Corpus,
    level: str = indicators.LEVEL_SDS,
    metric: str = "count",
    k: int = TOP_SDS,
) -> RankTable:
    """Rank sectors by one intensity metric, keeping the top k.

    Sectors whose metric is undefined are excluded; ties order by sector id.
    The other three metrics ride along as context columns.
    """
    if metric not in METRICS:
        raise UnknownMetric(f"unknown metric {metric!r}; expected one of {METRICS}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    intensity = indicators.sector_intensity(corpus, level)
    field = _METRIC_FIELD[metric]
    context_names = tuple(m for m in METRICS if m != metric)

    scored = []
    for row in intensity:
        value = getattr(row, field)
        if value is None:
            continue
        context = tuple(
            (name, getattr(row, _METRIC_FIELD[name])) for name in context_names
        )
        scored.append(RankRow(sector_id=row.sector_id, value=value, context=context))
    scored.sort(key=lambda r: (-r.value, r.sector_id))

    title = f"Top {k} {_LEVEL_WORD[level]} by {_METRIC_TITLE[metric]}"
    return RankTable(title=title, level=level, metric=metric, k=k, rows=tuple(scored[:k]))


def build_comparison_table(
    corpus: Corpus,
    grouping: str,
    indicator: str,
    *,
    min_collab_pubs: int = stats.MIN_COLLAB_PUBS,
) -> ComparisonTable:
    comparison = stats.compare(corpus, grouping, indicator, min_collab_pubs=min_collab_pubs)
    spec = stats.COMPARISONS[(grouping, indicator)]
    note = spec.note.format(excluded=comparison.excluded, min_collab_pubs=min_collab_pubs)
    return ComparisonTable(title=spec.title, comparison=comparison, exclusion_note=note)


def build_multidisc_table(corpus: Corpus, selector: str) -> MultidiscTable:
    rows = indicators.multidisc_by_scope(corpus, selector)
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


def _fmt_cell(v: float | int | None) -> str:
    if v is None:
        return ""
    if isinstance(v, int):
        return str(v)
    return _fmt_real(v)


def _json_cell(v: float | int | None) -> float | int | None:
    # JSON carries the formatted value as a number, so CSV and JSON parse equal
    if v is None or isinstance(v, int):
        return v
    return float(_fmt_real(v))


def _dump_json(obj: object) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=True) + "\n"


def _csv_lines(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _md_table(header: list[str], rows: list[list[str]]) -> list[str]:
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(cell if cell else "-" for cell in row) + " |")
    return lines


def _render_rank(table: RankTable, fmt: str) -> str:
    context_names = [name for name, _ in table.rows[0].context] if table.rows else [
        m for m in METRICS if m != table.metric
    ]
    header = ["sector", "value", *context_names]
    cells = [
        [row.sector_id, _fmt_cell(row.value), *(_fmt_cell(v) for _, v in row.context)]
        for row in table.rows
    ]
    if fmt == "csv":
        return _csv_lines([header, *cells])
    if fmt == "md":
        return "\n".join([table.title, "", *_md_table(header, cells)]) + "\n"
    rows = [
        {
            "sector": row.sector_id,
            "value": _json_cell(row.value),
            **{name: _json_cell(v) for name, v in row.context},
        }
        for row in table.rows
    ]
    return _dump_json(
        {
            "title": table.title,
            "level": table.level,
            "metric": table.metric,
            "k": table.k,
            "rows": rows,
        }
    )


def _render_comparison(table: ComparisonTable, fmt: str) -> str:
    cmp = table.comparison
    a, b, r = cmp.sample_a, cmp.sample_b, cmp.result
    var_a = "" if a.variance is None else _fmt_real(a.variance)
    var_b = "" if b.variance is None else _fmt_real(b.variance)
    summary_rows = [
        ["mean", _fmt_real(a.mean), _fmt_real(b.mean)],
        ["variance", var_a, var_b],
        ["n", str(a.n), str(b.n)],
    ]
    stat_rows = [
        ["t", _fmt_t(r.t), ""],
        ["df", _fmt_real(r.df), ""],
        ["p_one", _fmt_p(r.p_one), ""],
        ["p_two", _fmt_p(r.p_two), ""],
    ]
    if fmt == "csv":
        header = ["field", a.label, b.label]
        return _csv_lines([header, *summary_rows, *stat_rows])
    if fmt == "md":
        lines = [table.title, ""]
        lines += _md_table(["field", a.label, b.label], summary_rows + stat_rows)
        lines += ["", table.exclusion_note]
        return "\n".join(lines) + "\n"
    return _dump_json(
        {
            "title": table.title,
            "grouping": cmp.grouping,
            "indicator": cmp.indicator,
            "exclusion_note": table.exclusion_note,
            "n_units": cmp.n_units,
            "excluded": cmp.excluded,
            "sample_a": {
                "label": a.label,
                "n": a.n,
                "mean": _json_cell(a.mean),
                "variance": _json_cell(a.variance),
            },
            "sample_b": {
                "label": b.label,
                "n": b.n,
                "mean": _json_cell(b.mean),
                "variance": _json_cell(b.variance),
            },
            "t": float(_fmt_t(r.t)),
            "df": float(_fmt_real(r.df)),
            "p_one": float(_fmt_p(r.p_one)),
            "p_two": float(_fmt_p(r.p_two)),
        }
    )


def _render_multidisc(table: MultidiscTable, fmt: str) -> str:
    header = ["scope", "subset", "ii_sds", "ii_sci", "n_pubs"]
    cells = [
        [
            row.scope_id,
            row.subset,
            _fmt_cell(row.ii_sds),
            _fmt_cell(row.ii_sci),
            str(row.n_pubs),
        ]
        for row in table.rows
    ]
    if fmt == "csv":
        return _csv_lines([header, *cells])
    if fmt == "md":
        return "\n".join([table.title, "", *_md_table(header, cells)]) + "\n"
    rows = [
        {
            "scope": row.scope_id,
            "subset": row.subset,
            "ii_sds": _json_cell(row.ii_sds),
            "ii_sci": _json_cell(row.ii_sci),
            "n_pubs": row.n_pubs,
        }
        for row in table.rows
    ]
    return _dump_json({"title": table.title, "subset": table.subset, "rows": rows})


def render(table: RankTable | ComparisonTable | MultidiscTable, fmt: str = "csv") -> str:
    """Render a table to one of csv, json, md."""
    if fmt not in ("csv", "json", "md"):
        raise ValueError(f"unknown format {fmt!r}; expected csv, json or md")
    if isinstance(table, RankTable):
        return _render_rank(table, fmt)
    if isinstance(table, ComparisonTable):
        return _render_comparison(table, fmt)
    if isinstance(table, MultidiscTable):
        return _render_multidisc(table, fmt)
    raise TypeError(f"cannot render {type(table).__name__}")


def edges_csv(corpus: Corpus) -> str:
    """The collaboration edge list as CSV."""
    rows = [["pub_id", "university_org_id", "firm_org_id"]]
    for edge in collab.extract_edges(corpus):
        rows.append([edge.pub_id, edge.university_org_id, edge.firm_org_id])
    return _csv_lines(rows)


def render_all(
    corpus: Corpus, *, min_collab_pubs: int = stats.MIN_COLLAB_PUBS
) -> dict[str, str]:
    """Every standard render of one corpus, keyed by output name.

    All tables read the views cached on the corpus, so each view is computed
    once across tables and across calls; every aggregation iterates in sorted
    order, so the result is byte-identical across runs.
    """
    out: dict[str, str] = {}
    table = build_rank_table(corpus, indicators.LEVEL_UDA, "count", TOP_UDA)
    out["rank_uda_count.md"] = render(table, "md")
    for metric in METRICS:
        table = build_rank_table(corpus, indicators.LEVEL_SDS, metric, TOP_SDS)
        out[f"rank_sds_{metric}.csv"] = render(table, "csv")

    out["edges.csv"] = edges_csv(corpus)

    for grouping, indicator in stats.COMPARISONS:
        table = build_comparison_table(corpus, grouping, indicator,
                                       min_collab_pubs=min_collab_pubs)
        out[f"compare_{grouping}_{indicator}.json"] = render(table, "json")
    return out
