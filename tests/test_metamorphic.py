"""Metamorphic relations: input rewrites that must leave every table unchanged.

Each relation is checked on fixture40 and on a generated corpus:

- shuffling the data rows of all five input files, since the loader sorts
  and every aggregate iterates in id order;
- rewriting every impact factor as 3 * IF**2 + 1, a strictly increasing map
  of the non-negative impact factors, since impact percentiles use ranks only;
- swapping the country codes IT and DE and loading with home country DE,
  since a firm is domestic by the corpus's home country, whichever it is;
- prefixing the raw name of every author with no roster link, since only
  the roster link identifies an author;
- on a copy where two journals of one category and year share an impact
  factor, renaming the journal ids by an order-reversing map, since tied
  impact factors share one midrank whatever order their journals sort in.

Under each, every rank, multidisc and comparison table and the edge list
stay byte-identical, and a table that cannot be computed fails the same way.
"""

import csv
import json
import random
import shutil
from functools import partial

import pytest

from collabmap import report, stats
from collabmap.collab import SELECTORS
from collabmap.corpus import load_corpus
from collabmap.errors import CollabmapError
from collabmap.harness import SynthConfig, generate
from collabmap.indicators import LEVEL_SDS, LEVEL_UDA

from conftest import FIXTURE40

FILES = ("taxonomy.csv", "organizations.csv", "journals.csv", "roster.csv",
         "publications.jsonl")
MIN_COLLAB_PUBS = 3


def _shuffle_rows(data_dir):
    rng = random.Random(20)
    for name in FILES:
        path = data_dir / name
        lines = path.read_text(encoding="utf-8").splitlines()
        head = 0 if name.endswith(".jsonl") else 1
        rows = lines[head:]
        rng.shuffle(rows)
        assert rows != lines[head:], name
        path.write_text("\n".join(lines[:head] + rows) + "\n", encoding="utf-8")


def _edit_csv(path, edit):
    """Rewrite the CSV file ``path``, passing its header and data rows to ``edit``."""
    with path.open(encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    edit(header, rows)
    with path.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def _edit_publications(data_dir, edit):
    """Rewrite publications.jsonl, passing each record to ``edit`` to change in place."""
    path = data_dir / "publications.jsonl"
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
               if line.strip()]
    for record in records:
        edit(record)
    path.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")


def _square_impact_factors(data_dir):
    def edit(header, rows):
        at = header.index("impact_factor")
        for row in rows:
            row[at] = repr(3.0 * float(row[at]) ** 2 + 1.0)
    _edit_csv(data_dir / "journals.csv", edit)


def _swap_home_country(data_dir):
    def edit(header, rows):
        at = header.index("country")
        for row in rows:
            row[at] = {"IT": "DE", "DE": "IT"}.get(row[at], row[at])
    _edit_csv(data_dir / "organizations.csv", edit)
    return {"home_country": "DE"}


def _prefix_unlinked_names(data_dir):
    def edit(record):
        for author in record["authors"]:
            if author["researcher_id"] is None:
                author["raw_name"] = "Dr. " + author["raw_name"]
    _edit_publications(data_dir, edit)


def _tie_impact_factors(data_dir):
    """Give the later of the first two rows of different journals that share a
    year and a category the earlier one's impact factor."""
    def edit(header, rows):
        year, impact, categories = map(header.index, ("year", "impact_factor", "sci_categories"))
        first = {}
        for row in rows:
            for category in row[categories].split(";"):
                journal_id, impact_factor = first.setdefault((row[year], category),
                                                             (row[0], row[impact]))
                if journal_id != row[0]:
                    row[impact] = impact_factor
                    return
        raise AssertionError("no two journals share a category and year")
    _edit_csv(data_dir / "journals.csv", edit)


def _reverse_journal_ids(data_dir):
    ids = {}

    def edit(header, rows):
        old = sorted({row[0] for row in rows})
        ids.update((journal_id, f"J{len(old) - i:06d}") for i, journal_id in enumerate(old))
        for row in rows:
            row[0] = ids[row[0]]
    _edit_csv(data_dir / "journals.csv", edit)
    _edit_publications(data_dir, lambda record: record.update(
        journal_id=ids[record["journal_id"]]))


def _tables(corpus):
    """Every rank table in full, every multidisc and comparison table, each as
    the table and its CSV, and the edge list; a table that cannot be computed
    holds its error's type and message instead."""
    builders = {}
    for level in (LEVEL_SDS, LEVEL_UDA):
        for metric in report.METRICS:
            builders[f"rank_{level}_{metric}"] = partial(
                report.build_rank_table, corpus, level, metric, len(corpus.taxonomy.sectors))
    for selector in SELECTORS:
        builders[f"multidisc_{selector}"] = partial(
            report.build_multidisc_table, corpus, selector)
    for grouping, indicator in stats.COMPARISONS:
        builders[f"compare_{grouping}_{indicator}"] = partial(
            report.build_comparison_table, corpus, grouping, indicator,
            min_collab_pubs=MIN_COLLAB_PUBS)
    out = {"edges": report.edges_csv(corpus)}
    for name, build in builders.items():
        try:
            table = build()
        except CollabmapError as exc:
            out[name] = (type(exc), str(exc))
        else:
            out[name] = (table, report.render(table, "csv"))
    return out


REWRITES = (_shuffle_rows, _square_impact_factors, _swap_home_country, _prefix_unlinked_names)
REWRITE_IDS = ("shuffle_rows", "square_impact_factors", "swap_home_country",
               "prefix_unlinked_names")


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    return generate(SynthConfig(seed=7, n_pubs=5000), tmp_path_factory.mktemp("generated"))


def _check_relation(source, tmp_path, rewrite):
    """Tables of ``source`` and of a copy changed by ``rewrite``, which may
    return the ``load_corpus`` arguments the copy is loaded with."""
    before = load_corpus(source)
    data_dir = shutil.copytree(source, tmp_path / "rewritten")
    after = load_corpus(data_dir, **(rewrite(data_dir) or {}))
    want, got = _tables(before), _tables(after)
    assert want.keys() == got.keys()
    # the names alone: a diff of two large tables takes pytest minutes to print
    changed = [name for name in want if got[name] != want[name]]
    assert not changed, changed
    return before, after, want


@pytest.mark.parametrize("rewrite", REWRITES, ids=REWRITE_IDS)
def test_fixture40_tables_invariant(tmp_path, rewrite):
    before, after, tables = _check_relation(FIXTURE40, tmp_path, rewrite)
    assert not any(isinstance(value[0], type) for value in tables.values())
    assert (report.render_all(after, min_collab_pubs=MIN_COLLAB_PUBS)
            == report.render_all(before, min_collab_pubs=MIN_COLLAB_PUBS))


@pytest.mark.parametrize("rewrite", REWRITES, ids=REWRITE_IDS)
def test_generated_tables_invariant(generated, tmp_path, rewrite):
    # render_all raises on this corpus: every researcher is an industry
    # collaborator, so the two researcher comparisons cannot be computed
    _, _, tables = _check_relation(generated, tmp_path, rewrite)
    failed = sorted(name for name, value in tables.items() if isinstance(value[0], type))
    assert failed == ["compare_researchers_industry_vs_rest_fss",
                      "compare_researchers_industry_vs_rest_o"]
    assert len(tables) - len(failed) == 18


@pytest.mark.parametrize("source", ["fixture40", "generated"])
def test_tied_impact_factors_ignore_journal_id_order(request, tmp_path, source):
    source = FIXTURE40 if source == "fixture40" else request.getfixturevalue(source)
    tied = shutil.copytree(source, tmp_path / "tied")
    _tie_impact_factors(tied)
    _check_relation(tied, tmp_path, _reverse_journal_ids)
