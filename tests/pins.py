"""Frozen outputs that every interpreter ``requires-python`` admits must
reproduce bit for bit, and a stdlib-only check of them.

The generated-corpus digests (``PINNED_SHAPES``), the six-area bundle's
table digests (``SIX_AREA_DIGESTS``) and the statistics kernel digest
(``KERNEL_DIGEST``) are read by the pytest suite and by this file's own
check, which also renders fixture40 and compares it with every file in
``tests/golden/``. Run the check under any interpreter, without pytest:

    python tests/pins.py

It prints one line per check and exits 1 if any output differs.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))

from collabmap.corpus import load_corpus  # noqa: E402
from collabmap.harness import SplitMix64, SynthConfig, generate  # noqa: E402
from collabmap.report import render_all  # noqa: E402
from collabmap.stats import _tail, descriptive, paired_t, welch_t  # noqa: E402
from collabmap.views import mean_over, midrank_percentiles  # noqa: E402

GENERATED_FILES = ("taxonomy.csv", "organizations.csv", "journals.csv",
                   "roster.csv", "publications.jsonl")

# sha256 of every generated file, for shapes that reach each branch of the
# publication loop: the default shape, the bundle-50k and edges-200k perfbench
# shapes cut to 2000 publications, all-industry single-author records with one
# firm and no public bodies, no industry at all, and five researchers with two
# domestic firms (the academic draw swaps within the dense branch, and a firm
# draw can take both firms).
PINNED_SHAPES = {
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


def generated_digests(out: Path) -> dict[str, str]:
    """sha256 of each file ``generate`` wrote to ``out``."""
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in GENERATED_FILES}


# sha256 of each table render_all writes for the seed-1234 50k corpus of
# test_large_corpus_fast_and_stable. That corpus reaches two branches the
# fixture40 goldens do not: its 12 sectors fill each rank_sds_* table's 10
# rows, and both researcher comparisons print p_two below 1e-3.
LARGE_BUNDLE_DIGESTS = {
    "compare_multidisc_all_vs_industry_ii_sci.json": "425e00a4fbf9ce53bd6335bbc2a4bb3466ea849aa9f359fde3c5ce80440bb741",
    "compare_multidisc_all_vs_industry_ii_sds.json": "f5825e04307dac8fe16f84be5194028098e04d35d83b899b625a5113be95e044",
    "compare_multidisc_collab_vs_industry_ii_sci.json": "d521bcfce9bfe54837bfe91a2d39ee527bbbd5c92a059231d088ed617bc7e6c4",
    "compare_multidisc_collab_vs_industry_ii_sds.json": "36c8b881926e865bd024964e8a9477976f1bc5da68ba41adcd754d4a625abc5b",
    "compare_researchers_industry_vs_rest_fss.json": "3ddaf107908ab8b3bd221e04596bcb8fa59000eccf81cae24c74427b1be53b2a",
    "compare_researchers_industry_vs_rest_o.json": "66817943ac7f1e2b2c6e27772d90e0efc57d1a0cb07aa4cb56051b801e5f1c63",
    "compare_sds_all_vs_collab_ifpr.json": "cb876b1ee23a08c8627e60123fed389d2f5373321e81fbecc49b519d8407d741",
    "compare_sds_all_vs_industry_ifpr.json": "4d191dfc14c69b90d00a344529f38bdbf21d7c26d54a61bfb6fb5593095a155a",
    "edges.csv": "637e6e1776134cb05dd843d54834dc017ec952c1200503273d0dc0aeb1ec4336",
    "rank_sds_count.csv": "c63948e799db7bcf25244044fe604905693eac7b93a0890d415043c98fc4aab1",
    "rank_sds_pct_all.csv": "82f8766cf37be02c3d1e496e1e13588af656f6b0f2de56be1a2b845994d32591",
    "rank_sds_pct_coauth.csv": "0f2d720666b6a618e07fe0f04bc9b26c317203ffb41b6bf2e0664766b328beff",
    "rank_sds_per_researcher.csv": "a09fa7bacaf9026011aaea97a2f8b67ed470a6c36a4c791e288a34b58ce3c072",
    "rank_uda_count.md": "e2b3a31462a1b7e207ed0a325eed2d3d309df5f499ca3b34ebdedfb1412bc713",
}


# a 5000-publication corpus whose taxonomy spreads the 12 sectors over six
# areas (see six_area_corpus), so the area ranking's top-4 cut drops two
# areas; every generated taxonomy has four, and fixture40 has three
SIX_AREA_CONFIG = SynthConfig(seed=1234, n_pubs=5000, n_researchers=625, n_journals=60,
                              industry_rate=0.05)

# sha256 of each table render_all writes for six_area_corpus at the default
# min_collab_pubs
SIX_AREA_DIGESTS = {
    "compare_multidisc_all_vs_industry_ii_sci.json": "ca08a25864f8bce1a28f48f3e617ef2263f4d0096ffa7f927addfa289bb811b4",
    "compare_multidisc_all_vs_industry_ii_sds.json": "f26b56f0ece2d102525c34de2eb226079c3d7a6c8ca8688817a5092ca8ad230d",
    "compare_multidisc_collab_vs_industry_ii_sci.json": "a8213163e6db1f5cf9fd44907ae11f51ebbd06b88008ce13c7c7aa8565bafab3",
    "compare_multidisc_collab_vs_industry_ii_sds.json": "805d823c3b8308b8f912b0dde131cdf0f7e664a764f363066c6342b01155418d",
    "compare_researchers_industry_vs_rest_fss.json": "fb36dc3f059a5ff619b57d51d095adaf4c871da16b4d6e183fc3b74ca7ca061c",
    "compare_researchers_industry_vs_rest_o.json": "b1cb930c1cd3654a0940c1eee8501ee7cc3998bc4fe827371325e77e31cef21b",
    "compare_sds_all_vs_collab_ifpr.json": "8cba8d49f16424f93a41638bc2cf08ea67831433fc143c4001c7d64a11c1d23e",
    "compare_sds_all_vs_industry_ifpr.json": "7e1b03467702d78d1059b1211f81c19a006c1eb7bc97964e10669f048cd470c0",
    "edges.csv": "5fd58849b3eb3667813f0fcde279278d8814af699eb60f9cb9c0b5d769167b44",
    "rank_sds_count.csv": "b4a4dca4d78c84be2f70b0aab63d8934c76756e3ea51a295484e2dce7b710579",
    "rank_sds_pct_all.csv": "2d191fae35c9f462e677e61461647795211065aff149adb834eec042b8ed9fc7",
    "rank_sds_pct_coauth.csv": "527e94e4beca920a7097580332b128d25b2ab2c53719fccf076b9c1c544e0be0",
    "rank_sds_per_researcher.csv": "67f0052d0992bf9a8d318af7c54f49d132da9dbb65f8f03ee575d5541348d5d0",
    "rank_uda_count.md": "403cf77e232d774cd861aedf09b1f633679bba39a64899536735e6ec679f268a",
}


def six_area_corpus(out: Path) -> Path:
    """Generate SIX_AREA_CONFIG into ``out``, then put taxonomy row i (from 0,
    in file order) in area ``A{i % 6 + 1:02d}``, named ``Area {i % 6 + 1:02d}``."""
    generate(SIX_AREA_CONFIG, out)
    path = out / "taxonomy.csv"
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    lines = [header]
    for i, row in enumerate(rows):
        sds_id, sds_name, _, _ = row.split(",")
        area = f"{i % 6 + 1:02d}"
        lines.append(f"{sds_id},{sds_name},A{area},Area {area}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


def table_digests(tables: dict[str, str]) -> dict[str, str]:
    """sha256 of each rendered table, by name."""
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in tables.items()}


# frozen from the loop-over-ties midranks and the two-body Lentz loop that
# the kernels replaced; a change to any single output bit changes it
KERNEL_DIGEST = "49597d7f68292bbdc583928092020f1b1ae9e669026857ba96ea007dc39b33f2"

TAIL_DFS = (0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 7.25, 10.0, 33.0, 120.0, 1e3, 1e4, 1e5)


def kernel_outputs():
    """Every float the kernels return on a fixed input set, as ``.hex()``.

    The t grid runs from 0 to 1e3 on both signs, so ``x = df / (df + t^2)``
    falls on both sides of ``_tail``'s crossover for every df.
    """
    ts = [0.0] + [10.0 ** (k / 8) for k in range(-24, 25)]
    for df in TAIL_DFS:
        for t in ts:
            yield _tail(t, df).hex()
            yield _tail(-t, df).hex()
    rng = SplitMix64(24)
    for _ in range(300):
        xs = [rng.below(41) / 4 - 5.0 for _ in range(2 + rng.below(30))]
        ys = [rng.below(41) / 4 - 5.0 for _ in range(len(xs))]
        zs = [rng.random() * 100.0 for _ in range(2 + rng.below(30))]
        for r in (paired_t(xs, ys), welch_t(descriptive(xs), descriptive(zs))):
            yield from (v.hex() for v in (r.t, r.df, r.p_one, r.p_two))
        ties = [float(rng.below(1 + rng.below(12))) - 4.0 for _ in range(1 + rng.below(60))]
        ties += [0.0, -0.0][: rng.below(3)]
        yield from (v.hex() for v in midrank_percentiles(ties))


def kernel_digest() -> str:
    return hashlib.sha256(" ".join(kernel_outputs()).encode()).hexdigest()


def _checks():
    """(name, whether the output matches its pin) for every pin."""
    with tempfile.TemporaryDirectory() as tmp:
        for label, (config, pinned) in PINNED_SHAPES.items():
            out = generate(config, Path(tmp) / label.replace(" ", "_"))
            yield f"generate {label}", generated_digests(out) == pinned
        rendered = render_all(load_corpus(six_area_corpus(Path(tmp) / "six_areas")))
        yield "six-area bundle", table_digests(rendered) == SIX_AREA_DIGESTS
    yield "kernel digest", kernel_digest() == KERNEL_DIGEST
    # ten tenths added left to right; the builtin sum of 3.12 on rounds to ...9ap-4
    yield "mean_over order", mean_over((1 << 10) - 1, [0.1] * 10).hex() == "0x1.9999999999999p-4"
    rendered = render_all(load_corpus(HERE / "data" / "fixture40"), min_collab_pubs=3)
    goldens = sorted((HERE / "golden").iterdir())
    yield "golden names", sorted(rendered) == [path.name for path in goldens]
    for path in goldens:
        yield f"golden {path.name}", rendered.get(path.name, "").encode() == path.read_bytes()


def main() -> int:
    failed = 0
    for name, ok in _checks():
        print(f"{'ok' if ok else 'MISMATCH'} {name}")
        failed += not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
