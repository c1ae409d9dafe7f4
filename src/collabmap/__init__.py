"""collabmap: university-industry collaboration mapping from co-authorship data."""

from .collab import (
    CollabSummary,
    CollaborationProfile,
    classify_publication,
    count_collaborations,
    extract_edges,
    subset,
)
from .corpus import (
    Corpus,
    Organization,
    Publication,
    Researcher,
    Taxonomy,
    load_corpus,
    load_taxonomy,
    validate_corpus,
)
from .indicators import (
    MultidiscIndex,
    ResearcherPerformance,
    SectorIntensityRow,
    if_percentile_ranks,
    midrank_percentiles,
    rank_within_sector,
    sector_intensity,
)
from .stats import Comparison, Sample, TestResult, compare, descriptive, paired_t, t_cdf, welch_t

__version__ = "0.1.0"

__all__ = [
    "CollabSummary",
    "CollaborationProfile",
    "Comparison",
    "Corpus",
    "MultidiscIndex",
    "Organization",
    "Publication",
    "Researcher",
    "ResearcherPerformance",
    "Sample",
    "SectorIntensityRow",
    "Taxonomy",
    "TestResult",
    "classify_publication",
    "compare",
    "count_collaborations",
    "descriptive",
    "extract_edges",
    "if_percentile_ranks",
    "load_corpus",
    "load_taxonomy",
    "midrank_percentiles",
    "paired_t",
    "rank_within_sector",
    "sector_intensity",
    "subset",
    "t_cdf",
    "validate_corpus",
    "welch_t",
]
