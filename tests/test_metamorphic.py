"""Metamorphic relations: input rewrites that must leave every table unchanged.

Each relation is checked on fixture40 and on a generated corpus:

- shuffling the data rows of all five input files, since the loader sorts
  and every aggregate iterates in id order;
- rewriting every impact factor as 3 * IF**2 + 1, a strictly increasing map
  of the non-negative impact factors, since impact percentiles use ranks only.

Under both, every rank, multidisc and comparison table and the edge list
stay byte-identical, and a table that cannot be computed fails the same way.
"""

import csv
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


def _square_impact_factors(data_dir):
    path = data_dir / "journals.csv"
    with path.open(encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    at = header.index("impact_factor")
    for row in rows:
        row[at] = repr(3.0 * float(row[at]) ** 2 + 1.0)
    with path.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


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


REWRITES = (_shuffle_rows, _square_impact_factors)
REWRITE_IDS = ("shuffle_rows", "square_impact_factors")


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    return generate(SynthConfig(seed=7, n_pubs=5000), tmp_path_factory.mktemp("generated"))


def _check_relation(source, tmp_path, rewrite):
    before = load_corpus(source)
    data_dir = shutil.copytree(source, tmp_path / "rewritten")
    rewrite(data_dir)
    after = load_corpus(data_dir)
    want, got = _tables(before), _tables(after)
    assert want.keys() == got.keys()
    for name in want:
        assert got[name] == want[name], name
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
