"""Outside-in span tracer for the collabmap pipeline.

The program has no tracing of its own, so the benchmark wraps public
corpus-level functions from outside. A probe rebinds the function's name in
every loaded ``collabmap`` module that holds it. That catches calls made
inside the defining module (they resolve through its globals) and calls from
modules that imported the name directly, such as ``cli``'s
``from .corpus import load_corpus``.

Per-publication functions (``classify_publication``, ``article_ifpr``,
``sectors_of_publication``) are deliberately not probed: the wrapper would
cost as much as the span it measures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections.abc import Mapping
from time import perf_counter

from workloads import COMPARISONS

PROBES = (
    "corpus.load_corpus",
    "collab.classify_corpus",
    "collab.subset",
    "collab.extract_edges",
    "indicators.ifpr_by_publication",
    "indicators.build_rank_index",
    "indicators.publications_by_sector",
    "indicators.publications_by_category",
    "indicators.sector_counts_by_publication",
    "indicators.category_counts_by_publication",
    "indicators.researcher_performance",
    "indicators.sector_intensity",
    "indicators.rank_within_sector",
    "stats.compare",
    "stats.paired_t",
    "stats.welch_t",
    "stats.t_cdf",
    "report.render",
    "report.edges_csv",
    "report.render_all",
    "cli.main",
)

# Functions that compute a derived view of the corpus. A call whose view was
# already computed in this process (same corpus object, same scalar
# arguments) is wasted work; ``views.useful_ratio`` measures how much.
VIEW_BUILDERS = frozenset(
    {
        "collab.classify_corpus",
        "collab.subset",
        "indicators.publications_by_sector",
        "indicators.publications_by_category",
        "indicators.sector_counts_by_publication",
        "indicators.category_counts_by_publication",
        "indicators.researcher_performance",
        "indicators.ifpr_by_publication",
    }
)

PACKAGE = "collabmap"


def _view_key(signature: inspect.Signature, args: tuple, kwargs: dict) -> str:
    """Identity of the view one call computes.

    Scalar arguments (selector, level, home country) select the view; the
    corpus counts by identity; mappings such as precomputed ``profiles=``
    are inputs to the computation, not part of what it computes.
    """
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    parts = []
    for name, value in bound.arguments.items():
        if isinstance(value, (str, int, float, bool, type(None))):
            parts.append(f"{name}={value!r}")
        elif not isinstance(value, Mapping):
            parts.append(f"{name}=#{id(value)}")
    return ",".join(parts)


def _comparison_key(signature: inspect.Signature, args: tuple, kwargs: dict) -> str:
    bound = signature.bind(*args, **kwargs)
    return f"{bound.arguments['grouping']}.{bound.arguments['indicator']}"


class Tracer:
    """Records one span per probed call: name, detail, start, end, parent."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def install(self, probes: tuple[str, ...] = PROBES) -> list[str]:
        """Wrap every probe that exists; return the ones that do not."""
        absent = []
        found = []
        for probe in probes:
            module_name, func_name = probe.split(".")
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                absent.append(probe)
                continue
            original = getattr(module, func_name, None)
            if not callable(original):
                absent.append(probe)
                continue
            found.append((probe, original))

        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for probe, original in found:
            wrapper = self._wrap(probe, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
        return absent

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        if name in VIEW_BUILDERS:
            describe = _view_key
        elif name == "stats.compare":
            describe = _comparison_key
        else:
            describe = None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            detail = describe(signature, args, kwargs) if describe else None
            span = [name, detail, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()

        return wrapper


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics from recorded spans.

    A span's self time is its duration minus the durations of its direct
    children. Probes with no span report 0 calls and 0 s.
    """
    child_time = [0.0] * len(spans)
    for name, detail, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start

    metrics: dict[str, float] = {}
    for probe in PROBES:
        metrics[f"{probe}.calls"] = 0
        metrics[f"{probe}.self_s"] = 0.0
    for grouping, indicator in COMPARISONS:
        metrics[f"stats.compare.{grouping}.{indicator}.total_s"] = 0.0

    views: set[tuple[str, str]] = set()
    view_calls = 0
    for index, (name, detail, start, end, parent) in enumerate(spans):
        metrics[f"{name}.calls"] += 1
        metrics[f"{name}.self_s"] += (end - start) - child_time[index]
        if name == "stats.compare":
            key = f"stats.compare.{detail}.total_s"
            metrics[key] = metrics.get(key, 0.0) + (end - start)
        if name in VIEW_BUILDERS:
            view_calls += 1
            views.add((name, detail))
    # no view-builder call means no wasted view computation
    metrics["views.useful_ratio"] = len(views) / view_calls if view_calls else 1.0
    return metrics
