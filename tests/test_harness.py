import csv
import json
import re
import tracemalloc
from dataclasses import asdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collabmap import errors, views
from collabmap.corpus import load_corpus, validate_corpus
from collabmap.harness import _LANES, SplitMix64, SynthConfig, generate
from collabmap.report import count_collaborations
from collabmap.views import midrank_percentiles

from conftest import assert_comparison_layer, ifpr_by_pub_id
from oracles import Oracle, oracle_collab_summary, oracle_percentiles
from pins import GENERATED_FILES, PINNED_SHAPES, generated_digests


def reference_splitmix64(seed, count):
    """Direct transcription of the published mixing constants."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def reference_distinct(seed, n, k, skip=0):
    """Direct transcription of the documented draws, past the first ``skip``:
    a partial Fisher-Yates when k > n // 2, otherwise reject repeats until k
    values are drawn."""
    draws = iter(reference_splitmix64(seed, skip + 4 * k + 64)[skip:])
    if k > n // 2:
        pool = list(range(n))
        for i in range(k):
            j = i + next(draws) % (n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]
    chosen = []
    while len(chosen) < k:
        v = next(draws) % n
        if v not in chosen:
            chosen.append(v)
    return chosen


def test_splitmix_known_stream():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    rng = SplitMix64(42)
    assert [rng.next_u64() for _ in range(3)] == [
        13679457532755275413, 2949826092126892291, 5139283748462763858]


@given(st.integers(min_value=0, max_value=2**64 - 1))
@example(0)
@example(42)
@example(2**64 - 1)
@example(2**64 + 5)
@example(-1)
@settings(max_examples=100)
def test_splitmix_matches_reference(seed):
    # two whole blocks of lanes and three draws into the third
    count = 2 * _LANES + 3
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in range(count)] == reference_splitmix64(seed, count)


def test_splitmix_random_unit_interval():
    rng = SplitMix64(42)
    values = [rng.random() for _ in range(1000)]
    assert values[:3] == [0.7415648787718233, 0.1599103928769201, 0.27860113025513866]
    assert all(0.0 <= v < 1.0 for v in values)


def test_splitmix_below():
    rng = SplitMix64(42)
    assert [rng.below(10) for _ in range(5)] == [3, 1, 8, 4, 0]
    rng = SplitMix64(7)
    assert all(0 <= rng.below(13) < 13 for _ in range(1000))
    assert SplitMix64(1).below(1) == 0


def test_splitmix_distinct():
    assert SplitMix64(7).distinct(10, 4) == [7, 4, 6, 3]
    assert sorted(SplitMix64(7).distinct(6, 6)) == [0, 1, 2, 3, 4, 5]
    for seed in range(20):
        # dense branch (k > n // 2) and sparse branch must both be exact
        for n, k in ((10, 9), (10, 3), (5, 5), (100, 2)):
            picks = SplitMix64(seed).distinct(n, k)
            assert len(picks) == k
            assert len(set(picks)) == k
            assert all(0 <= p < n for p in picks)


def test_splitmix_distinct_matches_reference():
    # from the first draw, and from two draws before the end of the first
    # block of lanes, so that one pick straddles the boundary
    for seed in range(20):
        for skip in (0, _LANES - 2):
            for n, k in ((10, 9), (10, 3), (5, 5), (100, 2), (20000, 6), (16, 2), (1, 1)):
                rng = SplitMix64(seed)
                for _ in range(skip):
                    rng.next_u64()
                assert rng.distinct(n, k) == reference_distinct(seed, n, k, skip), \
                    (seed, skip, n, k)


def test_splitmix_distinct_rejects_bad_counts():
    with pytest.raises(ValueError):
        SplitMix64(1).distinct(10, 11)
    with pytest.raises(ValueError):
        SplitMix64(1).distinct(10, -1)
    with pytest.raises(ValueError):
        SplitMix64(1).distinct(-3, -5)


def test_synth_config_validation():
    with pytest.raises(errors.InvalidConfig):
        SynthConfig(seed=1, n_pubs=0)
    with pytest.raises(errors.InvalidConfig):
        SynthConfig(seed=1, n_pubs=10, industry_rate=1.5)
    with pytest.raises(errors.InvalidConfig):
        SynthConfig(seed=1, n_pubs=10, year_min=2003, year_max=2001)
    with pytest.raises(errors.InvalidConfig):
        SynthConfig(seed=1, n_pubs=10, max_authors=0)


def test_generate_is_deterministic(tmp_path):
    cfg = SynthConfig(seed=11, n_pubs=200)
    d1 = generate(cfg, tmp_path / "a")
    d2 = generate(cfg, tmp_path / "b")
    for name in GENERATED_FILES:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
        assert b"\r" not in (d1 / name).read_bytes(), name


def test_generate_bytes_pinned(tmp_path):
    for label, (cfg, pinned) in PINNED_SHAPES.items():
        out = generate(cfg, tmp_path / label.replace(" ", "_"))
        assert generated_digests(out) == pinned, label


_PLAIN_TEXT = re.compile(r"[A-Za-z0-9 -]+")


def test_generate_writes_canonical_json(tmp_path):
    # generate assembles each line by hand from fragments it never escapes:
    # the line must be what json.dumps writes, and no id or name may hold a
    # character that JSON would escape
    for label, (cfg, _) in PINNED_SHAPES.items():
        out = generate(cfg, tmp_path / label.replace(" ", "_"))
        texts = []
        with (out / "publications.jsonl").open(encoding="utf-8", newline="") as fh:
            for line in fh:
                record = json.loads(line)
                assert line == json.dumps(record, ensure_ascii=True) + "\n", label
                texts.append(record["journal_id"])
                texts.extend(record["address_org_ids"])
                texts.extend(author["raw_name"] for author in record["authors"])
        for name, columns in (("organizations.csv", ("org_id", "canonical_name")),
                              ("journals.csv", ("journal_id", "name")),
                              ("roster.csv", ("researcher_id", "full_name", "university_org_id"))):
            with (out / name).open(newline="", encoding="utf-8") as fh:
                texts.extend(row[c] for row in csv.DictReader(fh) for c in columns)
        bad = {text for text in texts if not _PLAIN_TEXT.fullmatch(text)}
        assert not bad, (label, sorted(bad)[:5])


def _generate_peak_bytes(n_pubs, out_dir):
    config = SynthConfig(seed=1234, n_pubs=n_pubs)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        generate(config, out_dir)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_generate_memory_is_constant(tmp_path):
    small = _generate_peak_bytes(5000, tmp_path / "small")
    large = _generate_peak_bytes(20_000, tmp_path / "large")
    assert large <= 1_000_000, large
    # four times the publications may not raise the peak by more than noise
    assert large <= small + 64 * 1024, (small, large)


def test_generate_seed_changes_output(tmp_path):
    d1 = generate(SynthConfig(seed=11, n_pubs=200), tmp_path / "a")
    d2 = generate(SynthConfig(seed=12, n_pubs=200), tmp_path / "b")
    assert (d1 / "publications.jsonl").read_bytes() != (d2 / "publications.jsonl").read_bytes()


def test_generated_corpus_is_valid(tmp_path):
    out = generate(SynthConfig(seed=5, n_pubs=400), tmp_path)
    # loading checks closure; what validate adds are advisory warnings only
    corpus = load_corpus(out)
    assert len(corpus.publications) == 400
    codes = {w.code for w in validate_corpus(corpus)}
    assert codes <= {"UnlinkedAuthor", "UnreferencedOrganization"}


def test_generated_corpus_matches_oracles(tmp_path):
    out = generate(SynthConfig(seed=7, n_pubs=300), tmp_path)
    corpus = load_corpus(out)
    oracle = Oracle(out, corpus.window, corpus.home_country)

    assert oracle_collab_summary(oracle.edges) == asdict(count_collaborations(corpus))

    engine_ifpr = ifpr_by_pub_id(corpus)
    assert set(engine_ifpr) == set(oracle.ifpr)
    for pub_id, value in oracle.ifpr.items():
        assert engine_ifpr[pub_id] == value, pub_id

    perf = views.of(corpus).performance
    assert oracle.outputs == {r: p.output for r, p in perf.items()}
    for rid, fss in oracle.fss.items():
        assert perf[rid].fss == fss, rid


def test_generated_corpus_loads_under_its_own_years(tmp_path):
    out = generate(SynthConfig(seed=1, n_pubs=50, year_min=1990, year_max=1995), tmp_path)
    with pytest.raises(errors.EmptyCorpus):
        load_corpus(out)
    assert len(load_corpus(out, window=(1990, 1995)).publications) == 50


def test_oracle_percentiles_matches_engine():
    # negative values, and -0.0 tied with 0.0
    rng = SplitMix64(3)
    for _ in range(50):
        values = [float(rng.below(20)) - 8.0 for _ in range(1 + rng.below(40))]
        values += [0.0, -0.0][: rng.below(3)]
        assert oracle_percentiles(values) == midrank_percentiles(values)


def test_oracle_sees_window(tmp_path):
    out = generate(SynthConfig(seed=9, n_pubs=150, year_min=1999, year_max=2004), tmp_path)
    narrow = (2001, 2003)
    corpus = load_corpus(out, window=narrow)
    oracle = Oracle(out, narrow, corpus.home_country)
    assert asdict(count_collaborations(corpus)) == oracle_collab_summary(oracle.edges)
    assert corpus.window_excluded > 0

    engine_ifpr = ifpr_by_pub_id(corpus)
    assert engine_ifpr.keys() == oracle.ifpr.keys()
    for pub_id, value in oracle.ifpr.items():
        assert engine_ifpr[pub_id] == value, pub_id

    perf = views.of(corpus).performance
    assert oracle.outputs == {r: p.output for r, p in perf.items()}
    for rid, fss in oracle.fss.items():
        assert perf[rid].fss == fss, rid

    assert_comparison_layer(corpus, out, 3, "window")
