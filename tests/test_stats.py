import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collabmap import errors
from collabmap.corpus import load_corpus
from collabmap.harness import SynthConfig, generate
from collabmap.stats import (
    COMPARISONS,
    GROUPINGS,
    Sample,
    _beta_contfrac,
    _tail,
    compare,
    descriptive,
    paired_t,
    welch_t,
)

from conftest import PAIRED_WELCH_CASES, TCDF_CASES
from pins import KERNEL_DIGEST, kernel_digest


@pytest.mark.parametrize("t,df,expected", TCDF_CASES)
def test_t_cdf_frozen_cases(t, df, expected):
    cdf = 1.0 - _tail(t, df) if t >= 0 else _tail(t, df)
    assert abs(cdf - expected) <= 1e-9


def test_t_cdf_closed_form_one_df():
    for t in (-8.0, -2.5, -0.3, 0.0, 0.7, 3.3, 8.0):
        assert abs(_tail(t, 1.0) - (0.5 - math.atan(abs(t)) / math.pi)) <= 1e-12


def test_t_cdf_closed_form_two_df():
    for t in (-8.0, -2.5, -0.3, 0.0, 0.7, 3.3, 8.0):
        expected = 0.5 - abs(t) / (2.0 * math.sqrt(t * t + 2.0))
        assert abs(_tail(t, 2.0) - expected) <= 1e-12


def test_t_cdf_at_zero_is_half():
    for df in (0.5, 1.0, 2.0, 5.0, 33.0, 1000.0):
        assert _tail(0.0, df) == 0.5


def test_t_cdf_infinite_t():
    for df in (0.5, 1.0, 7.0, 1000.0):
        assert _tail(math.inf, df) == 0.0
        assert _tail(-math.inf, df) == 0.0


def test_p_values_equal_in_both_tails():
    # the upper tail used to be 1 - cdf, off by 3e-7 relative at this point
    assert _tail(200.0, 5.0) == _tail(-200.0, 5.0)
    assert abs(_tail(-200.0, 5.0) - 2.964883041e-11) <= 1e-19


def test_beta_fraction_reports_non_convergence():
    # at the crossover point with both shapes large, the fraction needs far
    # more terms than its iteration cap
    with pytest.raises(errors.NoConvergence):
        _beta_contfrac(1e6, 1e6, 0.5)


@given(st.floats(min_value=-30.0, max_value=30.0),
       st.floats(min_value=0.1, max_value=500.0))
@settings(max_examples=400)
def test_t_cdf_symmetry_exact(t, df):
    assert _tail(t, df) == _tail(-t, df)


@given(st.floats(min_value=0.1, max_value=200.0),
       st.lists(st.floats(min_value=-12.0, max_value=12.0), min_size=2, max_size=8))
def test_t_cdf_monotone_in_t(df, ts):
    # the tail does not increase in |t|
    tails = [_tail(t, df) for t in sorted(ts, key=abs)]
    assert all(a >= b for a, b in zip(tails, tails[1:]))
    assert all(0.0 <= p <= 0.5 for p in tails)


def test_descriptive():
    s = descriptive([2.0, 4.0, 6.0], "demo")
    assert s.label == "demo"
    assert s.n == 3
    assert s.mean == 4.0
    assert s.variance == 4.0
    assert s.values == (2.0, 4.0, 6.0)


def test_descriptive_single_value_has_no_variance():
    assert descriptive([5.0]).variance is None


def test_paired_t_exact():
    r = paired_t([1.0, 2.0, 3.0], [1.0, 3.0, 5.0])
    assert abs(r.t - (-math.sqrt(3.0))) <= 1e-12
    assert r.df == 2.0
    assert abs(r.p_one - _tail(r.t, 2.0)) <= 1e-15
    assert abs(r.p_two - 2.0 * r.p_one) <= 1e-15


def test_paired_t_antisymmetric():
    a, b = [3.0, 5.0, 9.0, 4.0], [1.0, 7.0, 2.0, 4.5]
    assert paired_t(a, b).t == -paired_t(b, a).t


def test_paired_t_errors():
    with pytest.raises(errors.InsufficientData):
        paired_t([1.0], [2.0])
    with pytest.raises(errors.ZeroVariance):
        paired_t([1.0, 2.0], [2.0, 3.0])


def test_welch_frozen():
    a = Sample("a", (), 100, 10.0, 4.0)
    b = Sample("b", (), 100, 9.0, 4.0)
    r = welch_t(a, b)
    assert abs(r.t - 1.0 / math.sqrt(0.08)) <= 1e-12
    assert abs(r.df - 198.0) <= 1e-9


def test_welch_identical_samples_center():
    a = Sample("a", (), 30, 5.0, 2.0)
    r = welch_t(a, Sample("b", (), 30, 5.0, 2.0))
    assert r.t == 0.0
    assert r.p_one == 0.5
    assert r.p_two == 1.0


def test_welch_satterthwaite_df():
    a = Sample("a", (), 10, 0.0, 9.0)
    b = Sample("b", (), 20, 0.0, 1.0)
    r = welch_t(a, b)
    se_a, se_b = 9.0 / 10, 1.0 / 20
    expected_df = (se_a + se_b) ** 2 / (se_a**2 / 9 + se_b**2 / 19)
    assert abs(r.df - expected_df) <= 1e-12


def test_welch_errors():
    ok = Sample("ok", (), 10, 1.0, 1.0)
    with pytest.raises(errors.InsufficientData):
        welch_t(Sample("tiny", (), 1, 1.0, None), ok)
    with pytest.raises(errors.ZeroVariance):
        welch_t(Sample("flat", (), 10, 1.0, 0.0),
                Sample("flat2", (), 10, 2.0, 0.0))


@given(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=3, max_size=40),
       st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=3, max_size=40))
@settings(max_examples=200)
def test_paired_t_outputs_well_formed(xs, ys):
    n = min(len(xs), len(ys))
    xs, ys = xs[:n], ys[:n]
    deltas = [x - y for x, y in zip(xs, ys)]
    try:
        r = paired_t(xs, ys)
    except errors.ZeroVariance:
        # distinct deltas can still underflow to zero float variance
        mean = sum(deltas) / n
        assert sum((d - mean) ** 2 for d in deltas) / (n - 1) == 0.0
        return
    assert math.isfinite(r.t)
    assert r.df == float(n - 1)
    assert 0.0 <= r.p_one <= 1.0
    assert 0.0 <= r.p_two <= 1.0


@pytest.mark.parametrize("case", PAIRED_WELCH_CASES,
                         ids=[f"{c[0]}-{i}" for i, c in enumerate(PAIRED_WELCH_CASES)])
def test_paired_welch_fixture(case):
    kind, xs, ys, t, df, p_one, p_two = case
    if kind == "paired":
        r = paired_t(list(xs), list(ys))
    else:
        r = welch_t(descriptive(list(xs), "a"), descriptive(list(ys), "b"))
    assert abs(r.t - t) <= 1e-9
    assert abs(r.df - df) <= 1e-9
    assert abs(r.p_one - p_one) <= 1e-9
    assert abs(r.p_two - p_two) <= 1e-9


# values pinned from the hand-checkable fixture corpus
COMPARE_EXPECTED = {
    ("sds_all_vs_collab", "ifpr"): (-0.35965020296866346, 4.0, 5, 1),
    ("sds_all_vs_industry", "ifpr"): (0.5455494927046056, 2.0, 3, 3),
    ("researchers_industry_vs_rest", "o"): (1.3719886811400706, 8.939618906211336, 16, 0),
    ("researchers_industry_vs_rest", "fss"): (0.6968974849668491, 9.339629907794189, 16, 0),
    ("multidisc_all_vs_industry", "ii_sds"): (-1.9999999999999998, 2.0, 3, 3),
    ("multidisc_all_vs_industry", "ii_sci"): (0.4912172013361586, 2.0, 3, 0),
    ("multidisc_collab_vs_industry", "ii_sds"): (-1.8898223650461354, 2.0, 3, 3),
    ("multidisc_collab_vs_industry", "ii_sci"): (1.6501885463746706, 2.0, 3, 0),
}


@pytest.mark.parametrize("grouping,indicator", sorted(COMPARE_EXPECTED))
def test_compare_pinned(corpus40, grouping, indicator):
    t, df, n_units, excluded = COMPARE_EXPECTED[(grouping, indicator)]
    c = compare(corpus40, grouping, indicator, min_collab_pubs=3)
    assert abs(c.result.t - t) <= 1e-9
    assert abs(c.result.df - df) <= 1e-9
    assert c.n_units == n_units
    assert c.excluded == excluded
    assert c.grouping == grouping and c.indicator == indicator


def test_compare_groupings_cover_all_indicators():
    assert {grouping for grouping, _ in COMPARISONS} == set(GROUPINGS)
    assert len(COMPARISONS) == 8


def test_compare_sample_details(corpus40):
    c = compare(corpus40, "sds_all_vs_collab", "ifpr", min_collab_pubs=3)
    assert c.sample_a.label == "all publications"
    assert c.sample_b.label == "extramural collaborations"
    assert c.sample_a.n == c.sample_b.n == 5
    sector_all_means = [2712.5 / 72, 2225.0 / 54, 3187.5 / 72, 38.75, 2612.5 / 72]
    assert abs(c.sample_a.mean - sum(sector_all_means) / 5) <= 1e-9
    r = compare(corpus40, "researchers_industry_vs_rest", "o")
    assert r.sample_a.label == "industry collaborators"
    assert (r.sample_a.n, r.sample_b.n) == (6, 10)
    assert abs(r.sample_a.mean - 362.5 / 6) <= 1e-12
    assert r.sample_b.mean == 43.75


def test_compare_floor_can_exhaust_sectors(corpus40):
    # default floor of 7 leaves too few paired sectors in the small corpus
    with pytest.raises(errors.InsufficientSectors):
        compare(corpus40, "sds_all_vs_collab", "ifpr")


def test_compare_without_roster_authors_runs_out_of_units(corpus40):
    unlinked = dataclasses.replace(corpus40, publications=[
        dataclasses.replace(pub, authors=tuple(
            dataclasses.replace(author, researcher_id=None) for author in pub.authors))
        for pub in corpus40.publications])
    for grouping, indicator in COMPARISONS:
        if indicator == "ii_sci":
            # journal categories do not depend on the roster
            assert compare(unlinked, grouping, indicator).n_units == 3
        elif grouping == "researchers_industry_vs_rest":
            # no sector has a publication, so neither researcher group has a member
            with pytest.raises(errors.InsufficientData, match="researcher groups is empty"):
                compare(unlinked, grouping, indicator, min_collab_pubs=0)
        else:
            # no sector has a publication, so no sector survives
            with pytest.raises(errors.InsufficientSectors):
                compare(unlinked, grouping, indicator, min_collab_pubs=0)


def test_compare_with_every_researcher_collaborating_has_no_rest_group(tmp_path):
    # with 5000 articles, each of the 120 researchers co-authors with industry
    corpus = load_corpus(generate(SynthConfig(seed=7, n_pubs=5000), tmp_path))
    for indicator in ("o", "fss"):
        for min_collab_pubs in (1, 3, 7):
            with pytest.raises(errors.InsufficientData, match="researcher groups is empty"):
                compare(corpus, "researchers_industry_vs_rest", indicator,
                        min_collab_pubs=min_collab_pubs)


def test_compare_error_names_its_unit(corpus40):
    no_industry = dataclasses.replace(corpus40, home_country="FR")
    with pytest.raises(errors.InsufficientSectors, match="only 0 sectors survive"):
        compare(no_industry, "multidisc_all_vs_industry", "ii_sds")
    with pytest.raises(errors.InsufficientSectors, match="only 0 categories survive"):
        compare(no_industry, "multidisc_collab_vs_industry", "ii_sci")


def test_compare_rejects_negative_floor(corpus40):
    assert compare(corpus40, "sds_all_vs_collab", "ifpr", min_collab_pubs=0).excluded == 0


def test_compare_rejects_unknown_names(corpus40):
    with pytest.raises(errors.UnknownIndicator, match=r"expected one of \('o', 'fss'\)$"):
        compare(corpus40, "researchers_industry_vs_rest", "ifpr")
    with pytest.raises(errors.UnknownIndicator):
        compare(corpus40, "sds_all_vs_collab", "fss")


# -- bit-for-bit pin ---------------------------------------------------------------


def test_kernels_bit_for_bit():
    # a change to any single output bit fails; tests/pins.py checks the same
    # digest under every other interpreter (test_interpreters.py)
    assert kernel_digest() == KERNEL_DIGEST
