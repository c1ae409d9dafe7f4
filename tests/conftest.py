import shutil
from pathlib import Path

import pytest

from collabmap.collab import SELECTORS
from collabmap.corpus import load_corpus
from collabmap.errors import InsufficientData, InsufficientSectors, ZeroVariance
from collabmap.harness import ComparisonOracle
from collabmap.indicators import LEVEL_SDS, LEVEL_UDA, multidisc_by_scope, sector_intensity
from collabmap.stats import INDICATORS_BY_GROUPING, compare

DATA = Path(__file__).parent / "data"
FIXTURE40 = DATA / "fixture40"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def corpus40():
    return load_corpus(FIXTURE40)


@pytest.fixture
def fixture_copy(tmp_path):
    """Mutable copy of the small corpus for tamper tests."""
    dest = tmp_path / "data"
    shutil.copytree(FIXTURE40, dest)
    return dest


def assert_close(got, want, context):
    """Equal sequences of rows or numbers; floats may differ by 1e-9."""
    assert len(got) == len(want), context
    for g, w in zip(got, want):
        if isinstance(w, (tuple, list)):
            assert_close(g, w, context)
        elif isinstance(w, float):
            assert g is not None and abs(g - w) <= 1e-9, (context, g, w)
        else:
            assert g == w, (context, g, w)


RESEARCHERS = "researchers_industry_vs_rest"


def assert_comparison_layer(corpus, out, min_collab_pubs, seed):
    """Sector intensity, multidisc rows and every comparison's samples of
    ``corpus`` equal the raw-file oracles of ``out`` over the same window."""
    oracle = ComparisonOracle(out, window=corpus.window)
    for level in (LEVEL_SDS, LEVEL_UDA):
        rows = [(r.sector_id, r.n_industry_coauth, r.pct_of_all, r.pct_of_coauth,
                 r.per_researcher) for r in sector_intensity(corpus, level)]
        assert_close(rows, oracle.sector_intensity(level), (seed, level))
    for selector in SELECTORS:
        rows = [(r.scope_id, r.ii_sds, r.ii_sci, r.n_pubs)
                for r in multidisc_by_scope(corpus, selector)]
        assert_close(rows, oracle.multidisc_by_scope(selector), (seed, selector))
    for grouping, indicators in INDICATORS_BY_GROUPING.items():
        for indicator in indicators:
            context = (seed, grouping, indicator)
            if grouping == RESEARCHERS:
                xs, ys, excluded = oracle.researcher_groups(indicator)
                n_units = len(xs) + len(ys)
            else:
                xs, ys, excluded = oracle.paired_samples(grouping, indicator,
                                                         min_collab_pubs)
                n_units = len(xs)
            try:
                c = compare(corpus, grouping, indicator, min_collab_pubs=min_collab_pubs)
            except (InsufficientData, InsufficientSectors):
                assert min(len(xs), len(ys)) < 2, context
                continue
            except ZeroVariance:
                if grouping == RESEARCHERS:
                    constant = (xs, ys)
                else:
                    constant = ([x - y for x, y in zip(xs, ys)],)
                assert all(max(v) - min(v) <= 1e-9 for v in constant), context
                continue
            assert_close(c.sample_a.values, xs, context)
            assert_close(c.sample_b.values, ys, context)
            assert (c.n_units, c.excluded) == (n_units, excluded), context
