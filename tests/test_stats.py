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

from pins import KERNEL_DIGEST, kernel_digest

# expected cumulative probabilities computed with 40-digit arithmetic via
# the regularized incomplete beta function, then frozen; the tail P(T > |t|)
# is the expected value below zero and 1 minus it at or above zero
TCDF_CASES = (
    (-6.444289, 10.0, 3.7007681048174975e-05),
    (-6.141012, 5.0, 0.0008317224426862889),
    (0.838741, 4.5, 0.7780652427392607),
    (1.541507, 0.5, 0.7491137576864473),
    (-1.170292, 1.0, 0.2250748781182558),
    (5.391758, 3.0, 0.9937493855245608),
    (2.583439, 1000.0, 0.9950384792194163),
    (3.020392, 0.5, 0.8169472976258598),
    (-2.575498, 3.0, 0.04105000137619049),
    (-0.859472, 60.0, 0.19675058137626286),
    (2.597545, 15.0, 0.9899012720299523),
    (-0.931235, 1.0, 0.2613291939842655),
    (6.601797, 30.0, 0.9999998685869339),
    (6.857409, 4.5, 0.999238476510332),
    (-4.931246, 15.0, 9.049474014613815e-05),
    (-3.348396, 7.25, 0.005829906600293751),
    (-4.822523, 3.0, 0.008495084396314082),
    (6.10694, 120.0, 0.9999999935407505),
    (-1.517626, 60.0, 0.06718020997535103),
    (1.674916, 1000.0, 0.9528683152642883),
    (0.25662, 1000.0, 0.6012375403857537),
    (-2.005462, 30.0, 0.027003537745001565),
    (1.627501, 4.5, 0.9144970087548976),
    (-3.356282, 4.5, 0.01186074936190289),
    (2.726463, 1.0, 0.8881010940343141),
    (-4.198876, 30.0, 0.00011023741326242143),
    (-5.953956, 4.5, 0.0013628266131055404),
    (-4.577055, 5.0, 0.0029817203680685737),
    (-6.293071, 60.0, 1.979917981258974e-08),
    (3.839268, 3.0, 0.9844175745565076),
    (-1.259706, 60.0, 0.1063267555195341),
    (4.708393, 1.0, 0.9333850698647828),
    (-2.497497, 4.5, 0.030039158638892463),
    (-1.591345, 5.0, 0.08620334079765724),
    (0.574659, 60.0, 0.7161647710883554),
    (-3.010664, 15.0, 0.004389982953577478),
    (4.802883, 4.5, 0.9967973953624293),
    (-3.011221, 15.0, 0.004385004852976838),
    (-5.576582, 7.25, 0.000370270936310401),
    (7.478726, 2.0, 0.9912932866645404),
    (-1.088729, 60.0, 0.14031359730404375),
    (4.794562, 120.0, 0.9999976378822436),
    (1.563372, 3.0, 0.892044420276889),
    (-2.442356, 2.0, 0.06730360368419666),
    (-4.198999, 30.0, 0.00011019980570955686),
    (-2.764567, 1.0, 0.11047825424178173),
    (6.926726, 2.0, 0.9898937690352365),
    (-1.494029, 5.0, 0.09769809409617546),
    (5.882895, 60.0, 0.9999999037010393),
    (1.480717, 60.0, 0.9280427905959523),
)


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
    assert r.kind == "paired"
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
    assert r.kind == "welch"


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


# drawn samples with verdicts frozen from a 40-digit reference computation
PAIRED_WELCH_CASES = [
    ('paired', (-3.0, -2.5, 7.5, -3.5, -4.0, 7.5, 3.5), (2.5, 0.5, -4.5, -2.5, 3.0, 5.5, 2.5),
     -0.09003151654715279, 6.0, 0.46559619858873363, 0.9311923971774673),
    ('paired', (-0.5, 1.5, -3.0, 8.0, 1.0, -2.0, 3.5, 8.5, 8.0, 6.0), (8.5, 7.5, 7.0, 7.0, 5.5, -0.5, -1.5, 0.0, 1.0, 9.5),
     -0.6309226055592756, 9.0, 0.2718893173538307, 0.5437786347076614),
    ('paired', (7.5, -4.0, -4.5, 7.5, 1.0, -2.0, 2.0, 1.0), (3.0, 2.5, 9.5, 3.5, 6.5, 5.0, 1.0, 7.5),
     -1.6637349728108604, 7.0, 0.07005686881093211, 0.14011373762186421),
    ('paired', (-3.5, 2.5, -4.0, -4.5, 3.5, 3.0, -3.5, -2.5, 1.5, 1.5), (4.0, 6.0, -4.0, 1.5, -2.5, 7.0, -1.0, 5.5, -4.5, 6.5),
     -1.5402172523131914, 9.0, 0.07894703936414808, 0.15789407872829617),
    ('paired', (-1.0, 5.0, 3.0, -1.0, 5.0, -0.5, 9.0, -1.5, 9.5, 4.5), (7.5, 3.0, 2.5, -1.5, 1.0, 9.0, 5.0, 8.0, -4.5, 2.0),
     0.0, 9.0, 0.5, 1.0),
    ('paired', (-2.5, 9.5, 3.0, 7.0, 9.0), (-3.5, -3.5, -1.5, 3.5, 5.5),
     2.478240606824299, 4.0, 0.03416995032186517, 0.06833990064373034),
    ('paired', (6.0, 0.0, 6.5, 3.5, 0.0, -1.0, -4.5, 4.5, 1.0, 10.0), (-1.0, 5.0, 0.5, 9.5, -1.0, -3.0, -4.0, 8.5, -3.5, 1.0),
     0.8418541208472313, 9.0, 0.210837619206758, 0.421675238413516),
    ('paired', (8.5, 4.0, 2.0, -3.0, -1.0, 7.0, 2.0), (-0.5, -2.5, 9.0, -3.0, 7.5, 8.0, -2.0),
     0.17217983691292998, 6.0, 0.4344784887861387, 0.8689569775722774),
    ('paired', (9.5, 4.5, 2.5, 4.0, 8.0, 9.5), (-1.0, -1.0, -3.0, 2.5, -3.0, -1.5),
     4.666282626286914, 5.0, 0.0027504630184609444, 0.005500926036921889),
    ('paired', (9.5, 0.0, 5.0, 3.0, 7.5, -4.0), (-2.5, 0.0, 6.0, 2.0, 7.0, 4.0),
     0.2856063671889196, 5.0, 0.393316699634929, 0.786633399269858),
    ('paired', (9.0, 5.5, 4.5, -4.5, -3.0, -3.0, 2.0, -4.0, 7.0), (-2.5, 9.5, -3.5, 6.5, 0.5, 6.5, -1.5, -2.0, 9.5),
     -0.4230587207583805, 8.0, 0.3416977901413071, 0.6833955802826142),
    ('paired', (-1.5, 6.0, 1.0, 9.5, 1.0, 2.0, 4.5, -4.0, -3.0, 5.0), (5.5, 8.0, 2.5, 9.5, -3.0, 6.0, -3.5, -2.5, 8.0, 5.5),
     -0.928654425917386, 9.0, 0.1886511069135463, 0.3773022138270926),
    ('paired', (-4.0, -4.5, 0.0, 2.0), (4.0, 0.0, -3.5, 4.5),
     -1.1930290799683905, 3.0, 0.15930520448322627, 0.31861040896645254),
    ('paired', (-1.0, -3.0, 2.5, 2.0, -2.0, 10.0, 8.0, 0.5), (-2.0, -2.5, 9.0, -2.0, 1.5, 6.5, 0.5, 7.5),
     -0.10207051133379538, 7.0, 0.46078153372066605, 0.9215630674413321),
    ('paired', (5.0, -4.0, 9.0, 2.5, -3.0, 6.0), (6.0, 7.5, 1.0, -1.0, 8.0, 1.0),
     -0.34287370858435284, 5.0, 0.37281916902806556, 0.7456383380561311),
    ('paired', (-1.5, 6.5, -0.5), (0.0, -1.0, -2.0),
     0.944911182523068, 2.0, 0.2222222222222222, 0.4444444444444444),
    ('paired', (1.0, 5.5, 9.5, 7.0, 7.5), (4.0, -3.5, 2.0, 6.5, -3.5),
     1.873171623163388, 4.0, 0.06716872377643986, 0.1343374475528797),
    ('paired', (2.5, 10.0, 7.0, -0.5, -1.5, -2.0, -4.5, -4.0, 9.5, 2.0), (5.5, -3.0, 3.5, 8.0, 9.0, -2.0, 0.0, 6.5, -4.0, -3.0),
     -0.07120188545089044, 9.0, 0.4723970954896449, 0.9447941909792898),
    ('paired', (0.0, 7.0, -1.5), (-1.5, 5.5, 10.0),
     -0.6538461538461539, 2.0, 0.2901714230901922, 0.5803428461803845),
    ('paired', (0.5, 8.5, 1.0, 6.0, -4.0), (8.5, -1.0, 6.5, 6.5, -2.5),
     -0.40022240757904204, 4.0, 0.3547230215782534, 0.7094460431565068),
    ('paired', (4.5, 0.5, -2.0, -3.5, 4.5, 9.0, -2.5, 4.5), (-4.5, 7.0, 2.0, -2.5, 8.5, 7.5, 3.0, 4.5),
     -0.7425284203862264, 7.0, 0.24096772270410619, 0.48193544540821237),
    ('paired', (3.0, -1.0, 2.0, -2.5, 0.0, 7.0, 2.0, 4.5), (4.5, -1.0, 6.0, 7.5, -3.0, -1.0, 5.5, 1.0),
     -0.2882729177340981, 7.0, 0.39074335366856255, 0.7814867073371251),
    ('paired', (7.5, 0.0, -3.5, 3.0, 0.5, 8.0, -3.0), (5.5, -2.0, -2.5, 9.5, 4.5, 2.5, 8.0),
     -0.8633158302221952, 6.0, 0.21056407196687474, 0.4211281439337495),
    ('paired', (1.0, -1.0, -0.5, 9.5, 8.0, -0.5, -2.0, 6.0, -1.5, 2.0), (5.0, 4.0, -0.5, 1.5, -3.0, -2.5, 6.5, 2.0, -3.0, 4.0),
     0.3714632972805431, 9.0, 0.3594433603566878, 0.7188867207133756),
    ('paired', (2.0, 5.5, 4.0, -0.5, -2.0, 6.5, 10.0, -2.5), (9.0, -0.5, 8.5, -3.0, 0.5, 2.0, -1.5, 4.0),
     0.2123406857568687, 7.0, 0.4189460175437127, 0.8378920350874254),
    ('welch', (-3.0, 7.5, -1.0), (4.0, 5.0, 3.5, 5.5, 4.0, 9.0, -2.5, 5.5, 9.0, 9.5, 2.5),
     -1.1329786826390724, 2.436031405283249, 0.17817255117569764, 0.35634510235139527),
    ('welch', (6.5, 5.0, 3.5, 0.0, 0.0, -2.5, 8.0), (9.0, 3.5, 3.0, 3.5, 4.0, -4.0, 8.5),
     -0.45776736692757614, 11.869695650994112, 0.3276930340973174, 0.6553860681946349),
    ('welch', (9.0, 5.5, -0.5, 10.0, 4.0, -0.5, 3.0, 7.5), (0.5, -0.5, 10.0, 8.0, 2.5, 7.5, 7.5, -4.0, 6.5, 2.5, -1.5, 8.0),
     0.4302900909546508, 16.5049332686098, 0.3362752448697002, 0.6725504897394003),
    ('welch', (4.0, 0.5, 1.5, 8.0), (1.0, 3.5, 0.5, -3.0, -3.0),
     1.772656378163033, 5.912744778986914, 0.06369315932449723, 0.12738631864899447),
    ('welch', (-4.0, -3.5, -2.5, 2.0, 1.0, -3.5), (1.0, -4.5, 5.5, 9.5, -3.0, 9.5, 7.0, 10.0),
     -2.649948639709397, 10.180425799670186, 0.011987716917727983, 0.023975433835455966),
    ('welch', (0.5, -4.5, -1.5, 1.5, -4.5, 9.0, 4.0, 6.0, -4.5, -2.5, -3.0, 0.5), (2.5, -3.0, 6.5, 0.5, 10.0, -0.5, 4.5, 8.5, 4.5, 4.5, -4.5),
     -1.5782226367426349, 20.66319126124567, 0.06485088453684636, 0.1297017690736927),
    ('welch', (4.0, -1.0, -4.5, -3.5), (8.5, 10.0, 2.5),
     -2.7725545663754594, 4.3285936813516, 0.022987873957578016, 0.04597574791515603),
    ('welch', (9.5, 9.5, 6.0, -3.5), (-4.0, 8.5, 4.5, 2.5, 4.0, 10.0),
     0.30605636036721123, 5.534796134185873, 0.3853719187514239, 0.7707438375028478),
    ('welch', (-4.0, -0.5, -1.5, 2.5, -2.5, 7.5, 2.5, 7.5, 4.5, 2.0, -4.0, 3.0), (2.0, -2.0, -3.5, 0.5, -2.0, 7.5, 4.5, -3.0, 1.5, 2.5),
     0.384615082360521, 19.90414911487472, 0.3523006450745127, 0.7046012901490254),
    ('welch', (7.5, 5.0, 1.5, 2.0), (-3.5, 8.5, 3.0, 0.5, 0.5, 7.0, 7.5, 1.0, 5.5, 0.0, -4.5),
     0.8742786836958774, 8.656598521627435, 0.20278395947646058, 0.40556791895292116),
    ('welch', (6.5, 0.5, -2.0, 1.5, 1.5, 10.0, -2.5, 1.5, 9.0), (0.0, -4.5, -1.0, 8.0, -1.5, -0.5, 6.5, 3.0, 8.0, 6.5),
     0.21030730148101667, 16.78227433620838, 0.4179800028927592, 0.8359600057855184),
    ('welch', (6.0, -0.5, -1.5, 3.5, 3.0, -4.5, 3.5, 6.0, -2.0, -1.0, 7.0), (-0.5, 0.0, -1.5, -2.5, -4.5, 2.0, 7.5, 0.0, 6.5, 6.0),
     0.2722090294111799, 18.51099632623693, 0.3942371853791948, 0.7884743707583896),
    ('welch', (1.0, 3.0, -3.5, 5.5, 4.5, 8.5, 5.5), (0.5, -2.0, -0.5, 5.0, -4.5, 3.0, 4.0, 2.5, 5.5, 0.5),
     1.1828285982334346, 11.385070430622308, 0.1304947827186598, 0.2609895654373196),
    ('welch', (0.5, 7.5, -1.0, 2.5, 7.5, -2.0, 9.5, 3.5), (-2.0, 0.5, -1.5, 8.5, 5.5),
     0.5085485541829057, 8.138904001088836, 0.31228211975012915, 0.6245642395002583),
    ('welch', (-0.5, 3.0, 7.0, -2.5, 6.0, -4.5, 1.0, 1.0, 1.5, 4.5, 1.0, 10.0), (0.0, -2.5, 3.5, -4.5, 0.0, -2.5),
     2.007673837104392, 14.080992835438831, 0.03213244625908432, 0.06426489251816864),
    ('welch', (1.0, -3.5, -0.5, 1.0, -1.5, 7.5, -0.5, -2.0, 9.0), (3.5, -3.0, 4.0, 9.5, -2.0, 5.5),
     -0.7318361587306613, 10.09883996458966, 0.24045328711322722, 0.48090657422645444),
    ('welch', (1.5, 1.5, 5.5, -1.0, -4.5, -1.5, 9.5, -4.0, 9.0, 7.0, 8.0), (-2.0, 7.0, -0.5, -2.0, -2.0, 4.0, 0.0, 1.0, -0.5, -1.0, 0.5),
     1.3524105125872776, 15.308551325850155, 0.09794250700329613, 0.19588501400659225),
    ('welch', (-3.5, 3.5, 4.0, 4.5, 2.5, 8.0, 3.0), (-3.0, -0.5, 6.5, 8.5),
     0.08809771710383954, 4.37979963699455, 0.4668411508061456, 0.9336823016122912),
    ('welch', (3.0, -2.0, 4.0, 1.5, 0.0, 9.5, 1.5, -1.0, -4.5, 2.5, 1.0), (0.0, -2.0, 7.5, 1.5, 2.5, -3.5, 7.5, 8.5, 6.0),
     -0.9250406429535107, 15.374051956458795, 0.18461883240369992, 0.36923766480739983),
    ('welch', (-0.5, 10.0, 1.5, 8.5, 5.5, -1.5, 7.0, 2.5), (-0.5, 0.0, 1.5, 8.5),
     0.6808949492885515, 6.205154065950262, 0.26026219719414384, 0.5205243943882877),
    ('welch', (0.5, 5.0, -4.0), (9.5, 4.5, 5.5, 4.0, -1.5),
     -1.2420130228320398, 3.8580316298782407, 0.1421919853185778, 0.2843839706371556),
    ('welch', (8.0, -1.5, 6.0, 5.5, 5.0, 2.5), (1.0, -3.0, 2.5),
     1.916344664631514, 4.781266462172941, 0.05805009300959884, 0.11610018601919768),
    ('welch', (5.0, 6.5, 5.5, 0.0, -3.0, 4.5, 2.5, 1.0, 0.5, 6.0, -4.5, -4.5), (0.5, 4.0, 8.0, 7.0, 6.5),
     -2.0074343632876195, 10.151558169872475, 0.03603030985381734, 0.07206061970763468),
    ('welch', (-2.0, -2.5, -4.0, 7.0, 6.5, 5.5, 1.5, 3.5, -1.0, 6.5), (6.0, 5.5, 9.5, 9.0, -0.5, 1.5, -4.5, 4.0, -4.0),
     -0.38669960121155544, 15.533854109022975, 0.3521122326282649, 0.7042244652565298),
    ('welch', (8.5, 7.5, 2.0, -2.0, 5.0, 10.0, 7.5), (3.5, 3.5, 9.0, 6.5),
     -0.06035454657505933, 8.758434344601145, 0.4766139718965535, 0.953227943793107),
]


@pytest.mark.parametrize("case", PAIRED_WELCH_CASES,
                         ids=[f"{c[0]}-{i}" for i, c in enumerate(PAIRED_WELCH_CASES)])
def test_paired_welch_fixture(case):
    kind, xs, ys, t, df, p_one, p_two = case
    if kind == "paired":
        r = paired_t(list(xs), list(ys))
    else:
        r = welch_t(descriptive(list(xs), "a"), descriptive(list(ys), "b"))
    assert r.kind == kind
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
