import dataclasses
import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import collabmap
from collabmap import views
from collabmap.corpus import load_corpus
from collabmap.harness import SynthConfig, generate
from collabmap.report import build_multidisc_table, render_all

from conftest import FIXTURE40

# the sweep benchmark's shape, a tenth of its size; it renders at every threshold below
SWEEP_SHAPE = SynthConfig(seed=1234, n_pubs=5000, n_researchers=625, n_journals=60,
                          industry_rate=0.05)


@pytest.fixture(scope="module")
def corpus5k(tmp_path_factory):
    return load_corpus(generate(SWEEP_SHAPE, tmp_path_factory.mktemp("sweep5k")))


def test_members_ascend_and_mean_sums_in_position_order():
    mask = views._mask([70, 0, 9, 8], 71)
    assert mask == (1 << 70) | (1 << 9) | (1 << 8) | 1
    assert views.members(mask) == [0, 8, 9, 70]
    assert views.members(0) == []
    values = [0.1 * i for i in range(71)]
    expected = (values[0] + values[8] + values[9] + values[70]) / 4
    assert views.mean_over(mask, values) == expected


def test_views_cached_per_corpus(corpus40):
    fresh = dataclasses.replace(corpus40)
    italian = views.of(fresh)
    assert views.of(fresh) is italian
    assert views.of(dataclasses.replace(fresh, home_country="DE")) is not italian
    assert views.of(corpus40) is not italian
    assert views.of(fresh) is italian


def test_masks_match_id_sets(corpus40):
    index = views.of(corpus40)
    by_sector = {}
    for pub in corpus40.publications:
        linked = {a.researcher_id for a in pub.authors if a.researcher_id is not None}
        for sector_id in {corpus40.researchers[r].sds_id for r in linked}:
            by_sector.setdefault(sector_id, []).append(pub.pub_id)
    assert set(by_sector) == set(index.by_sds)
    for sector_id, ids in by_sector.items():
        positions = views.members(index.by_sds[sector_id])
        assert [corpus40.publications[i].pub_id for i in positions] == sorted(ids)


def test_render_all_classifies_once(corpus40, monkeypatch):
    calls = []
    original = views.Views.parties.func

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(views.Views.parties, "func", counting)
    fresh = dataclasses.replace(corpus40)
    render_all(fresh, min_collab_pubs=3)
    render_all(fresh, min_collab_pubs=4)
    assert calls == [views.of(fresh)]


def test_repeated_renders_equal_fresh_renders(corpus5k):
    # a higher threshold first, so the later ones admit scopes it excluded
    shared = dataclasses.replace(corpus5k)
    for m in (15, 3, 7):
        fresh = dataclasses.replace(corpus5k)
        assert render_all(shared, min_collab_pubs=m) == render_all(fresh, min_collab_pubs=m)


def test_second_render_computes_no_mean_and_no_ranking(corpus5k, monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(views, "mean_over", counting("mean", views.mean_over))
    monkeypatch.setattr(views, "rank_within_sector",
                        counting("rank", views.rank_within_sector))
    fresh = dataclasses.replace(corpus5k)
    render_all(fresh, min_collab_pubs=3)
    assert calls.count("rank") == 2 and calls.count("mean") > 0
    calls.clear()
    render_all(fresh, min_collab_pubs=7)
    render_all(fresh, min_collab_pubs=3)
    assert calls == []


def test_multidisc_table_reads_the_comparisons_means(corpus40, monkeypatch):
    # each industry_coauthored scope has an industry article, so the paired
    # multidisc comparisons of render_all already took every one of its means
    calls = []
    original = views.mean_over
    fresh = dataclasses.replace(corpus40)
    render_all(fresh, min_collab_pubs=3)
    monkeypatch.setattr(views, "mean_over", lambda *args: calls.append(args) or original(*args))
    assert build_multidisc_table(fresh, "industry_coauthored").rows
    assert calls == []


def test_cached_views_memory_bound(corpus5k):
    # bytes the views of one corpus keep after a three-threshold sweep, per publication
    fresh = dataclasses.replace(corpus5k)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for m in (3, 7, 15):
            render_all(fresh, min_collab_pubs=m)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / 1024 / len(fresh.publications) <= 0.30


_RENDER = """
import sys, tempfile
from collabmap.corpus import load_corpus
from collabmap.harness import SynthConfig, generate
from collabmap.report import edges_csv, render_all

tables = render_all(load_corpus(sys.argv[1]), min_collab_pubs=3)
with tempfile.TemporaryDirectory() as out:
    edges = edges_csv(load_corpus(generate(SynthConfig(seed=7, n_pubs=5000), out)))
sys.stdout.write("".join(name + "\\n" + text for name, text in tables.items()) + edges)
"""


def test_output_independent_of_hash_seed():
    src = str(Path(collabmap.__file__).parent.parent)
    runs = [subprocess.Popen([sys.executable, "-c", _RENDER, str(FIXTURE40)],
                             stdout=subprocess.PIPE,
                             env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed})
            for seed in ("0", "12345")]
    outputs = [run.communicate(timeout=60)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert outputs[0] == outputs[1]
    assert b"compare_sds_all_vs_collab_ifpr.json" in outputs[0]
