"""Smoke test of the benchmark: every workload shape at a tiny corpus size.

    python3 -m pytest perfbench/test_smoke.py -q

It checks the benchmark's own mechanics (metric names and units against
BENCHMARK.json, span attribution through names other modules imported, and
that a corrupted table counts as an error), not the program's speed.
"""

from __future__ import annotations

import json

import pytest

import run
from workloads import ROOT, WORKLOADS

TINY_PUBS = 4000
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _declared(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_declared_metric_is_emitted(workload, trace):
    result = run.run(workload, seed=5, seconds=0, trace=trace, n_pubs=TINY_PUBS)
    section = "per_layer" if trace else "end_to_end"
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == _declared(section)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        # loading is attributed to the loader even when cli calls it through
        # its own imported name
        assert result["metrics"]["corpus.load_corpus.calls"]["value"] == 1
    else:
        assert result["metrics"]["tables_ok_ratio"]["value"] == 1.0


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_tampered_output_is_an_error(trace):
    result = run.run("bundle-50k", seed=5, seconds=0, trace=trace, n_pubs=TINY_PUBS,
                     tamper=True)
    assert not result["correct"]
    assert result["failed"] >= 1
    if not trace:
        assert result["metrics"]["tables_ok_ratio"]["value"] < 1.0
