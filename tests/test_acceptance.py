"""End-to-end checks, one per shipped guarantee, each printing one verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
alongside the pytest outcomes.
"""

import dataclasses
import functools
import hashlib
import json
import time

import pytest

from collabmap import views
from collabmap.corpus import load_corpus
from collabmap.harness import SplitMix64, SynthConfig, generate, oracle_collab_counts
from collabmap.report import (
    LEVEL_SDS,
    LEVEL_UDA,
    METRICS,
    TOP_SDS,
    count_collaborations,
    extract_edges,
    render_all,
    sector_intensity,
)
from collabmap.stats import _tail, descriptive, paired_t, welch_t
from collabmap.views import if_percentile_ranks, midrank_percentiles

from conftest import GOLDEN, assert_comparison_layer, ifpr_by_pub_id
from oracles import Oracle
from pins import LARGE_BUNDLE_DIGESTS
from test_collab import _assert_grid_cell, _grid
from test_stats import PAIRED_WELCH_CASES, TCDF_CASES


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"\nFAIL {label}")
                raise
            elapsed = time.perf_counter() - start
            suffix = f"; {detail}" if detail else ""
            print(f"\nPASS {label} [{elapsed:.2f}s{suffix}]")
        return run
    return wrap


@criterion("collaboration case grid over m,n in [0,4]^2, budget 1s")
def test_case_grid_complete_and_fast(corpus40):
    start = time.perf_counter()
    grid = _grid(corpus40)
    edges = list(extract_edges(grid))
    for pub in grid.publications:
        _assert_grid_cell(grid, edges, pub)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"case grid took {elapsed:.3f}s"
    return "25 cells exact"


@criterion("synthetic corpora match raw-file oracles over 100 seeds, budget 60s")
def test_engine_matches_oracles_over_seeds(tmp_path):
    start = time.perf_counter()
    for seed in range(100):
        out = generate(SynthConfig(seed=seed, n_pubs=1000), tmp_path / f"s{seed}")
        corpus = load_corpus(out)

        summary = count_collaborations(corpus)
        assert dataclasses.asdict(summary) == dataclasses.asdict(oracle_collab_counts(out)), seed
        assert len(list(extract_edges(corpus))) == summary.total_collaborations, seed

        oracle = Oracle(out, corpus.window, corpus.home_country)
        perf = views.of(corpus).performance
        assert oracle.outputs == {r: p.output for r, p in perf.items()}, seed
        for rid, fss in oracle.fss.items():
            assert perf[rid].fss == fss, (seed, rid)

        engine_ifpr = ifpr_by_pub_id(corpus)
        assert set(engine_ifpr) == set(oracle.ifpr), seed
        for pub_id, value in oracle.ifpr.items():
            assert engine_ifpr[pub_id] == value, (seed, pub_id)

        # a second shape per seed, from 20 single-author articles to a sparse
        # roster with 2000 researchers, so that scopes get excluded and
        # skipped, industry output runs from none to 14%, and both Welch
        # groups are populated in most seeds
        shaped = generate(
            SynthConfig(seed=seed, n_pubs=20 + 4 * seed, n_researchers=30 + 20 * seed,
                        n_journals=12, industry_rate=0.02 * (seed % 8),
                        max_authors=1 + seed % 5),
            tmp_path / f"c{seed}")
        assert_comparison_layer(load_corpus(shaped), shaped, 2 * (seed % 16), seed)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    return "counts, outputs, fss and impact ranks exact, comparison samples at 1e-9"


@criterion("midrank percentile group mean 50 within 1e-9 over 1000 groups, transform-stable")
def test_midrank_mean_and_invariance(fixture_copy):
    rng = SplitMix64(20240817)
    for _ in range(1000):
        size = 1 + rng.below(60)
        values = [float(rng.below(25)) for _ in range(size)]
        ranks = midrank_percentiles(values)
        assert abs(sum(ranks) / size - 50.0) <= 1e-9
        transformed = [2.0 * v + 17.0 for v in values]
        assert midrank_percentiles(transformed) == ranks

    # rescaling every journal impact factor must leave the ranks untouched
    before = load_corpus(fixture_copy)
    path = fixture_copy / "journals.csv"
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    rewritten = [header]
    for row in rows:
        jid, name, year, impact, cats = row.split(",")
        rewritten.append(f"{jid},{name},{year},{3.0 * float(impact) + 5.0},{cats}")
    path.write_text("\n".join(rewritten) + "\n", encoding="utf-8")
    after = load_corpus(fixture_copy)
    for year in (2001, 2002, 2003):
        assert if_percentile_ranks(before, year) == if_percentile_ranks(after, year)
    assert ifpr_by_pub_id(before) == ifpr_by_pub_id(after)
    return "1000 groups, exact order-isomorphism invariance"


@criterion("fractional strength never exceeds output count, 100000+ researcher samples")
def test_fss_bounded_by_output(tmp_path):
    checked = 0
    seed = 0
    while checked < 100_000:
        out = generate(
            SynthConfig(seed=900 + seed, n_pubs=1200, n_researchers=5000, n_journals=40),
            tmp_path / f"s{seed}")
        corpus = load_corpus(out)
        for perf in views.of(corpus).performance.values():
            assert perf.fss <= perf.output, perf
            assert perf.fss >= 0.0
            checked += 1
        seed += 1
    return f"{checked} samples across {seed} corpora"


@criterion("industry share of all output never exceeds share of co-authored output")
def test_sector_share_ordering(tmp_path, corpus40):
    corpora = [corpus40]
    for seed in (31, 32, 33, 34, 35):
        out = generate(SynthConfig(seed=seed, n_pubs=2000), tmp_path / f"s{seed}")
        corpora.append(load_corpus(out))
    rows = 0
    for corpus in corpora:
        for level in (LEVEL_SDS, LEVEL_UDA):
            for row in sector_intensity(corpus, level):
                if row.pct_of_coauth is not None:
                    assert row.pct_of_all <= row.pct_of_coauth + 1e-12, row
                    rows += 1
    return f"{rows} sector rows ordered"


@criterion("t distribution versus 30-digit reference, grid 1e-10 to df 1000, relative 1e-9 "
           "at df 19999.3 and 1e-8 at df 1e5, fixture 1e-9, paired 1e-12, "
           "tails to 1e-100 at relative 1e-12")
def test_t_distribution_accuracy():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30

    def reference(t, df):
        tm, dfm = mpmath.mpf(t), mpmath.mpf(df)
        x = dfm / (dfm + tm * tm)
        tail = mpmath.betainc(dfm / 2, mpmath.mpf("0.5"), 0, x, regularized=True) / 2
        return float(tail)

    grid_points = 0
    for df in (1.0, 2.0, 5.0, 10.0, 30.0, 100.0, 1000.0):
        t = -8.0
        while t <= 8.0:
            assert abs(_tail(t, df) - reference(t, df)) <= 1e-10, (t, df)
            grid_points += 1
            t += 0.25
    # at large df the kernel loses relative precision near t = 0: the worst
    # errors are 4.9e-10 at df 19999.3, t 0.002 and 4.4e-9 at df 1e5, t 0.001
    small = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2)
    ts = [-8.0 + 0.25 * k for k in range(65)] + [sign * t for t in small for sign in (1, -1)]
    for df, bound in ((19999.3, 1e-9), (1e5, 1e-8)):
        for t in ts:
            want = reference(t, df)
            assert abs(_tail(t, df) - want) <= bound * want, (t, df)
            grid_points += 1
    for t, df, expected in TCDF_CASES:
        cdf = 1.0 - _tail(t, df) if t >= 0 else _tail(t, df)
        assert abs(cdf - expected) <= 1e-9, (t, df)
    for kind, xs, ys, t, df, p_one, p_two in PAIRED_WELCH_CASES:
        if kind == "paired":
            r = paired_t(list(xs), list(ys))
        else:
            r = welch_t(descriptive(list(xs), "a"), descriptive(list(ys), "b"))
        for got, want in ((r.t, t), (r.df, df), (r.p_one, p_one), (r.p_two, p_two)):
            assert abs(got - want) <= 1e-9, (kind, xs, ys)
    r = paired_t([1.0, 2.0, 3.0], [1.0, 3.0, 5.0])
    assert abs(r.t - (-(3.0 ** 0.5))) <= 1e-12

    # p-values keep their relative precision in both tails down to 1e-100
    tail_points = 0
    for df in (1.0, 5.0, 30.0, 200.0):
        t = 1.0
        while True:
            tm, dfm = mpmath.mpf(t), mpmath.mpf(df)
            x = dfm / (dfm + tm * tm)
            tail = mpmath.betainc(dfm / 2, mpmath.mpf("0.5"), 0, x, regularized=True) / 2
            if tail < mpmath.mpf("1e-100"):
                break
            for signed in (t, -t):
                assert abs(_tail(signed, df) - tail) <= 1e-12 * tail, (signed, df)
            tail_points += 1
            t *= 4.0
    return f"{grid_points} grid points, 50+50 frozen cases, {tail_points} tail points"


@criterion("rendered tables byte-identical to frozen goldens")
def test_report_goldens(corpus40):
    rendered = render_all(corpus40, min_collab_pubs=3)
    golden_names = sorted(p.name for p in GOLDEN.iterdir())
    assert sorted(rendered) == golden_names
    for name in golden_names:
        assert rendered[name].encode("utf-8") == (GOLDEN / name).read_bytes(), name
    return f"{len(golden_names)} tables"


@criterion("50000-publication run under 10s, stable across repeats and fresh loads, "
           "each table matching its frozen digest")
def test_large_corpus_fast_and_stable(tmp_path):
    out = generate(SynthConfig(seed=1234, n_pubs=50_000, n_researchers=6000,
                               n_journals=60, industry_rate=0.05), tmp_path)
    start = time.perf_counter()
    corpus = load_corpus(out)
    first = render_all(corpus)
    elapsed = time.perf_counter() - start
    assert render_all(corpus) == first
    assert render_all(dataclasses.replace(corpus)) == first
    corpus_again = load_corpus(out)
    assert render_all(corpus_again) == first
    assert elapsed < 10.0, f"load+render took {elapsed:.1f}s"

    assert sorted(first) == sorted(LARGE_BUNDLE_DIGESTS)
    for name, digest in LARGE_BUNDLE_DIGESTS.items():
        assert hashlib.sha256(first[name].encode()).hexdigest() == digest, name
    # the two branches the fixture40 goldens leave out: a full top-10 of the
    # 12 sectors, and p-values in scientific form
    for metric in METRICS:
        assert len(first[f"rank_sds_{metric}.csv"].splitlines()) == 1 + TOP_SDS, metric
    for indicator in ("o", "fss"):
        name = f"compare_researchers_industry_vs_rest_{indicator}.json"
        p_two = json.loads(first[name])["p_two"]
        assert p_two < 1e-3, (name, p_two)
    return f"load+render {elapsed:.1f}s, {len(first)} tables stable and pinned"

