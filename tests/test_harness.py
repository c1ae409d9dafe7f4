import csv
import hashlib
import json
import re
import tracemalloc
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collabmap import errors, views
from collabmap.collab import count_collaborations
from collabmap.corpus import load_corpus, validate_corpus
from collabmap.harness import (
    SplitMix64,
    SynthConfig,
    generate,
    oracle_collab_counts,
    oracle_ifpr_by_publication,
    oracle_percentiles,
    oracle_researcher_fss,
    oracle_researcher_outputs,
)
from collabmap.views import midrank_percentiles

from conftest import assert_comparison_layer, ifpr_by_pub_id


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


def reference_distinct(seed, n, k):
    """Direct transcription of the documented draws: a partial Fisher-Yates
    when k > n // 2, otherwise reject repeats until k values are drawn."""
    draws = iter(reference_splitmix64(seed, 4 * k + 64))
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


def test_splitmix_distinct_matches_reference():
    for seed in range(20):
        for n, k in ((10, 9), (10, 3), (5, 5), (100, 2), (20000, 6), (16, 2), (1, 1)):
            assert SplitMix64(seed).distinct(n, k) == reference_distinct(seed, n, k), (seed, n, k)


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


_GENERATED_FILES = ("taxonomy.csv", "organizations.csv", "journals.csv",
                    "roster.csv", "publications.jsonl")


def test_generate_is_deterministic(tmp_path):
    cfg = SynthConfig(seed=11, n_pubs=200)
    d1 = generate(cfg, tmp_path / "a")
    d2 = generate(cfg, tmp_path / "b")
    for name in _GENERATED_FILES:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
        assert b"\r" not in (d1 / name).read_bytes(), name


# sha256 of every generated file, for shapes that reach each branch of the
# publication loop: the default shape, the bundle-50k and edges-200k perfbench
# shapes cut to 2000 publications, all-industry single-author records with one
# firm and no public bodies, no industry at all, and five researchers with two
# domestic firms (the academic draw swaps within the dense branch, and a firm
# draw can take both firms).
_PINNED_SHAPES = {
    "default": (
        SynthConfig(seed=7, n_pubs=150),
        {
            "taxonomy.csv": "5b12e25d6108dd460f4f0c4434bf7b0c8b9065533785c7f7092ebd8ca5527851",
            "organizations.csv": "e36ec4dac431ceee552c7b6ba7e613f6f0616cdb942e5a03d61203736c63e153",
            "journals.csv": "9aa22bdb8006f6b1b17267e636e37cd4d79d2b50e1effeb13d48c932e7516088",
            "roster.csv": "5435f0c1c88a257f8a099b85275d393a2beb83092dc279ab87cbfa1806d26e7f",
            "publications.jsonl": "f796c28b542e01e758d17d664d4a1c959ed5dbb16623d9fb4878045ea5fec3de",
        },
    ),
    "bundle-50k shape": (
        SynthConfig(seed=1, n_pubs=2000, n_researchers=6000, n_journals=60,
                    industry_rate=0.05),
        {
            "taxonomy.csv": "5b12e25d6108dd460f4f0c4434bf7b0c8b9065533785c7f7092ebd8ca5527851",
            "organizations.csv": "e36ec4dac431ceee552c7b6ba7e613f6f0616cdb942e5a03d61203736c63e153",
            "journals.csv": "a150a1dd5820d2b7f387336254d6fb14c1382f8c706a33d67b8a6d94e7c206c0",
            "roster.csv": "dd5722671137cb793cea9b9687eda67a24ae47c69cf4f1af5d401f43de718c0f",
            "publications.jsonl": "acfafc18c1201025acd2ac1a5a6aff5595a2bce6189503b98e309b848fe0a7bf",
        },
    ),
    "edges-200k shape": (
        SynthConfig(seed=1, n_pubs=2000, n_researchers=20_000, n_journals=60,
                    industry_rate=0.25, year_min=1999, year_max=2003),
        {
            "taxonomy.csv": "5b12e25d6108dd460f4f0c4434bf7b0c8b9065533785c7f7092ebd8ca5527851",
            "organizations.csv": "e36ec4dac431ceee552c7b6ba7e613f6f0616cdb942e5a03d61203736c63e153",
            "journals.csv": "98bb5f251ee250a8185686fe769c8e0fd98162ad00a30b988a9267eae15278b0",
            "roster.csv": "f654f9226e29827e3044f77c8961f2d8915661fb100f8368cd7204353ac46619",
            "publications.jsonl": "832a05e4a6adb7d025577edd98b3c20131543ccf4e513e3a116d75f5776a3e54",
        },
    ),
    "all industry": (
        SynthConfig(seed=3, n_pubs=150, industry_rate=1.0, max_authors=1,
                    n_public_orgs=0, n_firms=1),
        {
            "taxonomy.csv": "5b12e25d6108dd460f4f0c4434bf7b0c8b9065533785c7f7092ebd8ca5527851",
            "organizations.csv": "ee42ac4c87f01077b28b2d643e0927acaaea9e8896726e3ac748aa3e73eaeab9",
            "journals.csv": "586880c9339847c66a0fa07206e2f1094a486d925ccfc9a3787f81efe872f483",
            "roster.csv": "c6c8fb8e8ee678a535efda448f184e67dc857c88a0333651eb1a5831ff1d1439",
            "publications.jsonl": "fdd23cc3d070850697b1018e8201d52efd4d6b05cba5716cf2325091f2bf022b",
        },
    ),
    "no industry": (
        SynthConfig(seed=5, n_pubs=150, industry_rate=0.0),
        {
            "taxonomy.csv": "5b12e25d6108dd460f4f0c4434bf7b0c8b9065533785c7f7092ebd8ca5527851",
            "organizations.csv": "e36ec4dac431ceee552c7b6ba7e613f6f0616cdb942e5a03d61203736c63e153",
            "journals.csv": "bb5e3da8b065ad36816271ff0913bf63196c7186a4b30591ffec04312fcad8bf",
            "roster.csv": "a5b3990044b6144cea99e476b9a31170960f9ff4b2c92a702f6bf640467c65c5",
            "publications.jsonl": "a3c0c7adfdfa7512de2e8285af23eb44f2d05bb2118f18f54fa0f289cfe141c1",
        },
    ),
    "five researchers": (
        SynthConfig(seed=9, n_pubs=150, n_researchers=5, max_authors=6, n_firms=2),
        {
            "taxonomy.csv": "9ad09c15a67ec9c122020e1c211933dff3bcf3831452efa8c557575a72190151",
            "organizations.csv": "8ba3616b898a41fa0a1c287de6e3729881e8933754da2fa73ec0368ed84fa72d",
            "journals.csv": "20346ac112a27f3ea6a34269ecf6552aafb7509fa8eb172f662128891d0bdd2f",
            "roster.csv": "c30d1ef3941804c7327b71fdb598c77f4aba529ff883550404d3ac5130c5ff15",
            "publications.jsonl": "17c372dd97fec0b8be064c98b1cb8f3e17df7cde3fb330286e0706e99b0cda5c",
        },
    ),
}


def test_generate_bytes_pinned(tmp_path):
    for label, (cfg, pinned) in _PINNED_SHAPES.items():
        out = generate(cfg, tmp_path / label.replace(" ", "_"))
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in _GENERATED_FILES}
        assert digests == pinned, label


_PLAIN_TEXT = re.compile(r"[A-Za-z0-9 -]+")


def test_generate_writes_canonical_json(tmp_path):
    # generate assembles each line by hand from fragments it never escapes:
    # the line must be what json.dumps writes, and no id or name may hold a
    # character that JSON would escape
    for label, (cfg, _) in _PINNED_SHAPES.items():
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

    assert asdict(oracle_collab_counts(out)) == asdict(count_collaborations(corpus))

    engine_ifpr = ifpr_by_pub_id(corpus)
    oracle_ifpr = oracle_ifpr_by_publication(out)
    assert set(engine_ifpr) == set(oracle_ifpr)
    for pub_id, value in oracle_ifpr.items():
        assert engine_ifpr[pub_id] == value, pub_id

    perf = views.of(corpus).performance
    assert oracle_researcher_outputs(out) == {r: p.output for r, p in perf.items()}
    for rid, fss in oracle_researcher_fss(out).items():
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
    assert asdict(count_collaborations(corpus)) == asdict(oracle_collab_counts(out, window=narrow))
    assert corpus.window_excluded > 0

    engine_ifpr = ifpr_by_pub_id(corpus)
    oracle_ifpr = oracle_ifpr_by_publication(out, window=narrow)
    assert engine_ifpr.keys() == oracle_ifpr.keys()
    for pub_id, value in oracle_ifpr.items():
        assert engine_ifpr[pub_id] == value, pub_id

    perf = views.of(corpus).performance
    assert oracle_researcher_outputs(out, window=narrow) == {
        r: p.output for r, p in perf.items()}
    for rid, fss in oracle_researcher_fss(out, window=narrow).items():
        assert perf[rid].fss == fss, rid

    assert_comparison_layer(corpus, out, 3, "window")
