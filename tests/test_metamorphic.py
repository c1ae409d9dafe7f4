"""Metamorphic relations: input rewrites and what they must do to the tables.

Each of these relations is checked on fixture40 and on a generated corpus:

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

Two more are checked on fixture40 and on small generated shapes:

- adding one foreign private firm to every address list leaves the edge
  list and every table built on industry co-authorship alone identical,
  since a firm abroad is never industry; it does make single-university
  articles extramural, so the tables of extramural output may change;
- copying an industry article whose address list holds m universities and
  n domestic firms, m * n > 1, under a new pub_id adds exactly m * n
  collaborations to its case of ``count_collaborations``, and the copy's
  m * n pairs to the edge list.
"""

import csv
import json
import random
import shutil
import tempfile
from functools import partial
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from collabmap import report, stats
from collabmap.corpus import DEFAULT_WINDOW, HOME_COUNTRY, load_corpus
from collabmap.errors import CollabmapError
from collabmap.harness import SynthConfig, generate
from collabmap.report import (
    CASE_M_N,
    CASE_M_ONE,
    CASE_ONE_N,
    LEVEL_SDS,
    LEVEL_UDA,
    SELECTORS,
    count_collaborations,
    extract_edges,
)

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
                report.build_rank_table, corpus, level, metric, len(corpus.taxonomy))
    for selector in SELECTORS:
        builders[f"multidisc_{selector}"] = partial(
            report.build_multidisc_table, corpus, selector)
    for grouping, indicator in stats.COMPARISONS:
        builders[f"compare_{grouping}_{indicator}"] = partial(
            stats.compare, corpus, grouping, indicator, min_collab_pubs=MIN_COLLAB_PUBS)
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


def _check_relation(source, tmp_path, rewrite, names=None):
    """Tables of ``source`` and of a copy changed by ``rewrite``, which may
    return the ``load_corpus`` arguments the copy is loaded with; the tables
    ``names`` lists, or all of them, must be identical."""
    before = load_corpus(source)
    data_dir = shutil.copytree(source, tmp_path / "rewritten")
    after = load_corpus(data_dir, **(rewrite(data_dir) or {}))
    want, got = _tables(before), _tables(after)
    assert want.keys() == got.keys()
    # the names alone: a diff of two large tables takes pytest minutes to print
    changed = [name for name in names or want if got[name] != want[name]]
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


# small generated corpora: few enough publications that a shape loads in
# milliseconds, with few universities and firms so that m * n > 1 is common
SHAPES = st.builds(
    SynthConfig, seed=st.integers(min_value=0, max_value=2**64 - 1),
    n_pubs=st.integers(min_value=20, max_value=120),
    n_universities=st.integers(min_value=1, max_value=4),
    n_firms=st.integers(min_value=1, max_value=6),
    n_researchers=st.integers(min_value=2, max_value=30),
    n_journals=st.integers(min_value=1, max_value=8),
    industry_rate=st.floats(min_value=0.2, max_value=1.0))

FOREIGN_FIRM = "FRM-ABROAD"
# the tables that read industry co-authorship and never the extramural subset
INDUSTRY_ONLY = ("edges", "compare_sds_all_vs_industry_ifpr",
                 "compare_multidisc_all_vs_industry_ii_sds",
                 "compare_multidisc_all_vs_industry_ii_sci",
                 "compare_researchers_industry_vs_rest_o",
                 "compare_researchers_industry_vs_rest_fss")


def _add_foreign_firm(data_dir):
    def edit(header, rows):
        rows.append([FOREIGN_FIRM, "Firma Estera GmbH", "private_firm", "DE"])
    _edit_csv(data_dir / "organizations.csv", edit)
    _edit_publications(data_dir, lambda record: record["address_org_ids"].append(FOREIGN_FIRM))


def _parties(data_dir):
    """Each in-window publication record, read from the raw files, with its
    number of universities m and domestic firms n."""
    with (data_dir / "organizations.csv").open(encoding="utf-8", newline="") as fh:
        orgs = list(csv.DictReader(fh))
    universities = {o["org_id"] for o in orgs if o["kind"] == "university"}
    firms = {o["org_id"] for o in orgs
             if o["kind"] == "private_firm" and o["country"] == HOME_COUNTRY}
    lo, hi = DEFAULT_WINDOW
    for line in (data_dir / "publications.jsonl").read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if lo <= record["year"] <= hi:
            addresses = set(record["address_org_ids"])
            yield record, len(addresses & universities), len(addresses & firms)


def _check_copied_article(source, tmp_path):
    """Copy the first article with m * n > 1; False when there is none."""
    found = next(((record, m, n) for record, m, n in _parties(source) if m * n > 1), None)
    if found is None:
        return False
    record, m, n = found
    data_dir = shutil.copytree(source, tmp_path / "copied")
    copy = dict(record, pub_id=record["pub_id"] + "-copy")
    with (data_dir / "publications.jsonl").open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(copy) + "\n")
    before, after = load_corpus(source), load_corpus(data_dir)
    case = CASE_ONE_N if m == 1 else CASE_M_ONE if n == 1 else CASE_M_N
    want, got = count_collaborations(before), count_collaborations(after)
    assert got.collaborations_by_case == {
        c: k + m * n * (c == case) for c, k in want.collaborations_by_case.items()}
    assert got.articles_by_case == {
        c: k + (c == case) for c, k in want.articles_by_case.items()}
    assert got.total_collaborations == want.total_collaborations + m * n
    edges = list(extract_edges(before))
    added = [(copy["pub_id"], u, f) for pub_id, u, f in edges if pub_id == record["pub_id"]]
    assert len(added) == m * n
    assert list(extract_edges(after)) == sorted(edges + added)
    return True


def test_fixture40_foreign_firm_keeps_industry_tables(tmp_path):
    _check_relation(FIXTURE40, tmp_path, _add_foreign_firm, INDUSTRY_ONLY)


def test_fixture40_copied_article_adds_m_times_n(tmp_path):
    assert _check_copied_article(FIXTURE40, tmp_path)


@settings(max_examples=40, deadline=None)
@given(SHAPES)
def test_generated_foreign_firm_keeps_industry_tables(config):
    with tempfile.TemporaryDirectory() as tmp:
        source = generate(config, Path(tmp) / "source")
        _check_relation(source, Path(tmp), _add_foreign_firm, INDUSTRY_ONLY)


@settings(max_examples=40, deadline=None)
@given(SHAPES)
def test_generated_copied_article_adds_m_times_n(config):
    with tempfile.TemporaryDirectory() as tmp:
        assume(_check_copied_article(generate(config, Path(tmp) / "source"), Path(tmp)))
