"""Statistics kernel and corpus comparison assembly.

The kernel uses only ``math`` and :func:`views.total`, the one left-to-right
float sum: descriptive statistics, the paired t-test, the Welch two-sample
t-test, and the t-distribution tail ``_tail``, the only source of both
p-values, evaluated through the regularized incomplete beta function (Lentz
continued fraction). On top of it, :func:`compare` assembles the aligned
samples for each corpus comparison listed in :data:`COMPARISONS` and runs
the appropriate test.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, lgamma, log, log1p, sqrt
from typing import Sequence

from . import views
from .corpus import Corpus
from .errors import (
    InsufficientData,
    InsufficientSectors,
    NoConvergence,
    UnknownIndicator,
    ZeroVariance,
)

# default floor on a sector's extramural publications in sds_all_vs_collab
MIN_COLLAB_PUBS = 7


@dataclass(frozen=True)
class ComparisonSpec:
    """One standard comparison: how its samples are drawn and reported.

    ``scopes``, ``base``, ``side_a``, ``side_b`` and ``value`` name
    attributes of :class:`views.Views`. A paired comparison takes each scope
    with a publication in ``base``, excludes it when side b has fewer than
    ``floor`` publications (None: the caller's ``min_collab_pubs``), and
    pairs the mean ``value`` over side a with the mean over side b. The
    researcher comparison has no ``scopes``; its ``value`` names a
    :class:`views.ResearcherPerformance` field. :func:`compare` formats ``note``
    with ``excluded`` and ``min_collab_pubs`` into ``Comparison.exclusion_note``.
    """

    title: str
    note: str
    label_a: str
    label_b: str
    value: str
    scopes: str | None = None
    base: str = "everything"
    side_a: str = "everything"
    side_b: str = "industry"
    floor: int | None = 1


_ALL, _EXTRAMURAL = "all publications", "extramural collaborations"
_INDUSTRY = "industry co-authored"
_NO_INDUSTRY_SECTORS = "sectors with no industry co-authored publications excluded: {excluded}"
_NO_INDUSTRY_CATEGORIES = (
    "categories with no industry co-authored publications excluded: {excluded}")
_RESEARCHERS_NOTE = "researchers in sectors with no publications excluded: {excluded}"

COMPARISONS: dict[tuple[str, str], ComparisonSpec] = {
    # a sector with no extramural output is skipped, not excluded
    ("sds_all_vs_collab", "ifpr"): ComparisonSpec(
        "Journal impact percentile: all output vs extramural collaborations, by sector",
        "sectors with fewer than {min_collab_pubs} extramural publications excluded: "
        "{excluded}",
        _ALL, _EXTRAMURAL, "ifpr", "by_sds", base="extramural", side_b="extramural",
        floor=None),
    ("sds_all_vs_industry", "ifpr"): ComparisonSpec(
        "Journal impact percentile: all output vs industry co-authored output, by sector",
        _NO_INDUSTRY_SECTORS, _ALL, _INDUSTRY, "ifpr", "by_sds"),
    ("researchers_industry_vs_rest", "o"): ComparisonSpec(
        "Output percentile ranks: industry collaborators vs rest",
        _RESEARCHERS_NOTE, "industry collaborators", "non-collaborators", "output"),
    ("researchers_industry_vs_rest", "fss"): ComparisonSpec(
        "Fractional scientific strength percentile ranks: industry collaborators vs rest",
        _RESEARCHERS_NOTE, "industry collaborators", "non-collaborators", "fss"),
    ("multidisc_all_vs_industry", "ii_sds"): ComparisonSpec(
        "Author-sector multidisciplinarity: all output vs industry co-authored, by sector",
        _NO_INDUSTRY_SECTORS, _ALL, _INDUSTRY, "sector_counts", "by_sds"),
    ("multidisc_all_vs_industry", "ii_sci"): ComparisonSpec(
        "Journal-category multidisciplinarity: all output vs industry co-authored, "
        "by category",
        _NO_INDUSTRY_CATEGORIES, _ALL, _INDUSTRY, "category_counts", "by_category"),
    ("multidisc_collab_vs_industry", "ii_sds"): ComparisonSpec(
        "Author-sector multidisciplinarity: extramural vs industry co-authored, by sector",
        _NO_INDUSTRY_SECTORS, _EXTRAMURAL, _INDUSTRY, "sector_counts", "by_sds",
        base="extramural", side_a="extramural"),
    ("multidisc_collab_vs_industry", "ii_sci"): ComparisonSpec(
        "Journal-category multidisciplinarity: extramural vs industry co-authored, "
        "by category",
        _NO_INDUSTRY_CATEGORIES, _EXTRAMURAL, _INDUSTRY, "category_counts",
        "by_category", base="extramural", side_a="extramural"),
}

GROUPINGS = tuple(dict.fromkeys(grouping for grouping, _ in COMPARISONS))


@dataclass(frozen=True)
class Sample:
    """A labeled sample with its summary statistics.

    ``variance`` uses the n-1 denominator and is None for singletons.
    """

    label: str
    values: tuple[float, ...]
    n: int
    mean: float
    variance: float | None


@dataclass(frozen=True)
class TestResult:
    t: float
    df: float
    p_one: float
    p_two: float


@dataclass(frozen=True)
class Comparison:
    """A finished comparison: its title, the two samples, the test, the exclusions."""

    grouping: str
    indicator: str
    title: str
    sample_a: Sample
    sample_b: Sample
    result: TestResult
    n_units: int
    excluded: int
    exclusion_note: str


def descriptive(values: Sequence[float], label: str = "") -> Sample:
    """Mean and sample variance, computed in input order.

    Both sums add left to right through :func:`views.total`: the builtin
    ``sum`` rounds float totals differently from Python 3.12 on.
    """
    n = len(values)
    mean = views.total(values) / n
    variance = None if n == 1 else views.total((v - mean) ** 2 for v in values) / (n - 1)
    return Sample(label=label, values=tuple(values), n=n, mean=mean, variance=variance)


def _beta_contfrac(a: float, b: float, x: float) -> float:
    # modified Lentz evaluation of the continued fraction for I_x(a, b); each
    # iteration takes the even step, then the odd one, and tests convergence
    # on the odd step's factor
    tiny = 1e-300
    eps = 1e-16
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            h *= d * c
        if abs(d * c - 1.0) < eps:
            return h
    raise NoConvergence(f"incomplete beta fraction for a={a!r}, b={b!r}, x={x!r}")


def _reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for x in [0, 1]."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = lgamma(a + b) - lgamma(a) - lgamma(b) + a * log(x) + b * log1p(-x)
    front = exp(ln_front)
    # the continued fraction converges fast only below the crossover point
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_contfrac(a, b, x) / a
    return 1.0 - front * _beta_contfrac(b, a, 1.0 - x) / b


def _tail(t: float, df: float) -> float:
    """P(T > |t|) = I_x(df/2, 1/2) / 2 with x = df / (df + t^2).

    This is the one-tail p on the observed side, and twice it the two-tail p.
    Both come from the tail itself, never from 1 - cdf, so they keep full
    relative precision however small they get.
    """
    return 0.5 * _reg_inc_beta(0.5 * df, 0.5, df / (df + t * t))


def paired_t(xs: Sequence[float], ys: Sequence[float]) -> TestResult:
    """Paired t-test on aligned samples: t = mean(d) / (sd(d) / sqrt(n))."""
    n = len(xs)
    if n < 2:
        raise InsufficientData("paired test needs at least 2 pairs")
    diffs = descriptive([x - y for x, y in zip(xs, ys)])
    if diffs.variance == 0.0:
        raise ZeroVariance("all pairwise differences are equal")
    t = diffs.mean / (sqrt(diffs.variance) / sqrt(n))
    df = float(n - 1)
    p_one = _tail(t, df)
    return TestResult(t=t, df=df, p_one=p_one, p_two=2.0 * p_one)


def welch_t(a: Sample, b: Sample) -> TestResult:
    """Welch's unequal-variance t-test with Welch-Satterthwaite df."""
    if a.n < 2 or b.n < 2:
        raise InsufficientData("welch test needs at least 2 observations per group")
    assert a.variance is not None and b.variance is not None
    se_a = a.variance / a.n
    se_b = b.variance / b.n
    pooled = se_a + se_b
    if pooled == 0.0:
        raise ZeroVariance("both groups have zero variance")
    t = (a.mean - b.mean) / sqrt(pooled)
    df = pooled * pooled / (se_a * se_a / (a.n - 1) + se_b * se_b / (b.n - 1))
    p_one = _tail(t, df)
    return TestResult(t=t, df=df, p_one=p_one, p_two=2.0 * p_one)


# -- comparison assembly ----------------------------------------------------------

def _paired_scope_samples(
    index: views.Views, spec: ComparisonSpec, floor: int
) -> tuple[list[float], list[float], int]:
    """Per-scope means of ``spec.value`` over sides a and b of each scope.

    Scopes with no publication in ``spec.base`` are skipped; scopes with
    fewer than ``floor`` publications on side b are excluded and counted.
    The means are kept on the views; the floor only picks which to read.
    """
    scopes = getattr(index, spec.scopes)
    base, set_b = getattr(index, spec.base), getattr(index, spec.side_b)
    xs: list[float] = []
    ys: list[float] = []
    excluded = 0
    for scope_id in sorted(scopes):
        if not scopes[scope_id] & base:
            continue
        if (scopes[scope_id] & set_b).bit_count() < floor:
            excluded += 1
            continue
        xs.append(index.mean(spec.scopes, scope_id, spec.side_a, spec.value))
        ys.append(index.mean(spec.scopes, scope_id, spec.side_b, spec.value))
    return xs, ys, excluded


def _researcher_comparison(
    corpus: Corpus, grouping: str, indicator: str, spec: ComparisonSpec
) -> Comparison:
    """Welch's test on within-sector percentile ranks, collaborators vs the rest."""
    index = views.of(corpus)
    perf = index.performance
    population = [
        rid
        for rid in sorted(corpus.researchers)
        if corpus.researchers[rid].sds_id in index.by_sds
    ]
    excluded = len(corpus.researchers) - len(population)
    group_a = [r for r in population if r in index.collaborators]
    group_b = [r for r in population if r not in index.collaborators]
    if not group_a or not group_b:
        raise InsufficientData("one of the researcher groups is empty")
    values = {rid: float(getattr(perf[rid], spec.value)) for rid in population}
    ranks = views.rank_within_sector(corpus, values)
    sample_a = descriptive([ranks[r] for r in group_a], spec.label_a)
    sample_b = descriptive([ranks[r] for r in group_b], spec.label_b)
    result = welch_t(sample_a, sample_b)
    return Comparison(grouping, indicator, spec.title, sample_a, sample_b, result,
                      len(population), excluded, spec.note.format(excluded=excluded))


def compare(
    corpus: Corpus,
    grouping: str,
    indicator: str,
    *,
    min_collab_pubs: int = MIN_COLLAB_PUBS,
) -> Comparison:
    """Assemble the aligned samples for a named comparison and test them.

    Exclusion thresholds are applied before testing. Paired groupings compare
    per-scope means; the researcher grouping runs Welch's test on within-sector
    percentile ranks of the population in sectors with at least one article.
    """
    spec = COMPARISONS.get((grouping, indicator))
    if spec is None:
        raise UnknownIndicator(
            f"indicator {indicator!r} is not valid for {grouping!r}; expected one of "
            f"{tuple(i for g, i in COMPARISONS if g == grouping)}"
        )
    index = views.of(corpus)

    if spec.scopes is None:
        # its note names no floor, so one result serves every min_collab_pubs
        return index.memo(("compare", grouping, indicator),
                          lambda: _researcher_comparison(corpus, grouping, indicator, spec))

    floor = min_collab_pubs if spec.floor is None else spec.floor
    xs, ys, excluded = _paired_scope_samples(index, spec, floor)
    n_units = len(xs)
    if n_units < 2:
        unit = "sectors" if spec.scopes == "by_sds" else "categories"
        raise InsufficientSectors(f"only {n_units} {unit} survive the exclusion thresholds")
    sample_a = descriptive(xs, spec.label_a)
    sample_b = descriptive(ys, spec.label_b)
    result = paired_t(xs, ys)
    note = spec.note.format(excluded=excluded, min_collab_pubs=min_collab_pubs)
    return Comparison(grouping, indicator, spec.title, sample_a, sample_b, result, n_units,
                      excluded, note)
