import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collabmap import errors
from collabmap.collab import count_collaborations
from collabmap.corpus import load_corpus, validate_corpus
from collabmap.harness import (
    SplitMix64,
    SynthConfig,
    generate,
    oracle_article_ifpr,
    oracle_collab_counts,
    oracle_percentiles,
    oracle_researcher_fss,
    oracle_researcher_outputs,
)
from collabmap.indicators import ifpr_by_publication, midrank_percentiles, researcher_performance

from conftest import assert_comparison_layer


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


def test_splitmix_known_stream():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    rng = SplitMix64(42)
    assert [rng.next_u64() for _ in range(3)] == [
        13679457532755275413, 2949826092126892291, 5139283748462763858]


@given(st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=100)
def test_splitmix_matches_reference(seed):
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in range(5)] == reference_splitmix64(seed, 5)


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
    for name in ("taxonomy.csv", "organizations.csv", "journals.csv",
                 "roster.csv", "publications.jsonl"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
        assert b"\r" not in (d1 / name).read_bytes(), name


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

    assert oracle_collab_counts(out) == count_collaborations(corpus)

    engine_ifpr = ifpr_by_publication(corpus)
    oracle_ifpr = oracle_article_ifpr(out)
    assert set(engine_ifpr) == set(oracle_ifpr)
    for pub_id, value in oracle_ifpr.items():
        assert abs(engine_ifpr[pub_id] - value) <= 1e-9, pub_id

    perf = researcher_performance(corpus)
    assert oracle_researcher_outputs(out) == {r: p.output for r, p in perf.items()}
    for rid, fss in oracle_researcher_fss(out).items():
        assert abs(perf[rid].fss - fss) <= 1e-9, rid


def test_oracle_percentiles_matches_engine():
    rng = SplitMix64(3)
    for _ in range(50):
        values = [float(rng.below(20)) for _ in range(1 + rng.below(40))]
        assert oracle_percentiles(values) == midrank_percentiles(values)


def test_oracle_sees_window(tmp_path):
    out = generate(SynthConfig(seed=9, n_pubs=150, year_min=1999, year_max=2004), tmp_path)
    narrow = (2001, 2003)
    corpus = load_corpus(out, window=narrow)
    assert count_collaborations(corpus) == oracle_collab_counts(out, window=narrow)
    assert corpus.window_excluded > 0

    engine_ifpr = ifpr_by_publication(corpus)
    oracle_ifpr = oracle_article_ifpr(out, window=narrow)
    assert engine_ifpr.keys() == oracle_ifpr.keys()
    for pub_id, value in oracle_ifpr.items():
        assert abs(engine_ifpr[pub_id] - value) <= 1e-9, pub_id

    perf = researcher_performance(corpus)
    assert oracle_researcher_outputs(out, window=narrow) == {
        r: p.output for r, p in perf.items()}
    for rid, fss in oracle_researcher_fss(out, window=narrow).items():
        assert abs(perf[rid].fss - fss) <= 1e-9, rid

    assert_comparison_layer(corpus, out, 3, "window")
