"""Workload shapes and the output tables each workload must produce.

Shared by the orchestrator (``run.py``), the per-run process (``body.py``)
and the smoke test. Nothing here imports the program, so the orchestrator
can fail cleanly when the checkout holds no ``src/collabmap``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "bundle", "sweep" or "edges": which body runs
    shape: dict  # SynthConfig fields other than the seed


_SHAPE_50K = dict(n_pubs=50_000, n_researchers=6000, n_journals=60, industry_rate=0.05)
_SHAPE_200K = dict(
    n_pubs=200_000,
    n_researchers=20_000,
    n_journals=60,
    industry_rate=0.25,
    year_min=1999,
    year_max=2003,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("bundle-50k", "bundle", _SHAPE_50K),
        Workload("edges-200k", "edges", _SHAPE_200K),
        Workload("sweep-50k", "sweep", _SHAPE_50K),
    )
}

SWEEP_THRESHOLDS = (3, 7, 15)

# The comparisons render_all writes, as (grouping, indicator). Fixed here so
# that a later change to the program cannot silently shrink what is checked.
COMPARISONS = (
    ("sds_all_vs_collab", "ifpr"),
    ("sds_all_vs_industry", "ifpr"),
    ("researchers_industry_vs_rest", "o"),
    ("researchers_industry_vs_rest", "fss"),
    ("multidisc_all_vs_industry", "ii_sds"),
    ("multidisc_all_vs_industry", "ii_sci"),
    ("multidisc_collab_vs_industry", "ii_sds"),
    ("multidisc_collab_vs_industry", "ii_sci"),
)

BUNDLE_TABLES = (
    "rank_uda_count.md",
    "rank_sds_count.csv",
    "rank_sds_pct_all.csv",
    "rank_sds_pct_coauth.csv",
    "rank_sds_per_researcher.csv",
    "edges.csv",
    *(f"compare_{grouping}_{indicator}.json" for grouping, indicator in COMPARISONS),
)


def expected_tables(kind: str) -> dict[str, tuple[str, ...]]:
    """Output group -> table names that one run of the body must write."""
    if kind == "bundle":
        return {"bundle": BUNDLE_TABLES}
    if kind == "sweep":
        return {f"m{m}": BUNDLE_TABLES for m in SWEEP_THRESHOLDS}
    if kind == "edges":
        return {"edges": ("edges.csv",)}
    raise ValueError(f"unknown workload kind {kind!r}")


def import_program():
    """Import ``collabmap`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "collabmap" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no collabmap sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import collabmap

    if Path(collabmap.__file__).resolve().parent != (SRC / "collabmap").resolve():
        raise SystemExit(f"perfbench: collabmap imported from {collabmap.__file__}, not {SRC}")
    return collabmap
