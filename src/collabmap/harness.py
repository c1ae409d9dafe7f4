"""Synthetic corpus generation and the one oracle the benchmark needs.

The generator is fully determined by its seed: it draws from SplitMix64, a
documented 64-bit generator, in a fixed order, so equal configs produce
byte-identical data directories.

``oracle_collab_counts`` re-derives the collaboration totals by brute force
from the raw files, sharing no logic with the analysis modules. The other
raw-file oracles live with the tests, in ``tests/oracles.py``; this one stays
in the package because the benchmark (``perfbench/run.py``) imports it to
check every edge list it times.
"""

from __future__ import annotations

import csv
import json
import struct
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, Iterator

from .corpus import (
    DEFAULT_WINDOW,
    HOME_COUNTRY,
    JOURNAL_FIELDS,
    ORGANIZATION_FIELDS,
    ROSTER_FIELDS,
    TAXONOMY_FIELDS,
)
from .errors import InvalidConfig

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_LANES = 1024  # draws mixed per block


class SplitMix64:
    """SplitMix64 generator (Steele, Lea, Flood 2014).

    Draw i (from 1) scrambles the state ``seed + i * gamma`` (mod 2**64), for
    the golden-gamma constant, with two xor-shift-multiply rounds and a final
    xor-shift. random() keeps the top 53 bits; below(n) is next_u64() % n,
    whose modulo bias is negligible for n far below 2**64.

    The draws are mixed ``_LANES`` at a time, in one Python int per block:
    the state of the block's j-th draw sits in bits 128*j to 128*j + 63, so
    every lane has a 128-bit slot whose upper half is zero before each
    product. No operation carries into the next slot. A right shift by at
    most 31 moves a lane's lowest bits into the top 31 bits of the slot
    below, and the mask that follows clears them (the last shift's are never
    read). A lane below 2**64 times a constant below 2**64 stays below
    2**128, and a lane plus the block step stays below 2**65; the mask then
    keeps each low half, which is the value mod 2**64. The blocks are packed
    and unpacked little-endian, whatever the host's byte order.
    """

    def __init__(self, seed: int):
        slots = struct.Struct("<" + "Q8x" * _LANES)

        def pack(lanes: list[int]) -> int:
            return int.from_bytes(slots.pack(*lanes), "little")

        mask = pack([_MASK64] * _LANES)
        step = pack([_LANES * _GAMMA & _MASK64] * _LANES)
        states = pack([(seed + j * _GAMMA) & _MASK64 for j in range(1, _LANES + 1)])
        blocks = _mixed_blocks(states, step, mask, slots.unpack)
        self.next_u64: Callable[[], int] = chain.from_iterable(blocks).__next__

    def random(self) -> float:
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def distinct(self, n: int, k: int) -> list[int]:
        """k distinct indices in [0, n), in draw order."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} distinct values from {n}")
        below = self.below
        if k > n // 2:
            # dense case: partial Fisher-Yates
            pool = list(range(n))
            for i in range(k):
                j = i + below(n - i)
                pool[i], pool[j] = pool[j], pool[i]
            return pool[:k]
        # sparse case: redraw repeats; a dict keeps first-draw order
        chosen: dict[int, None] = {}
        while len(chosen) < k:
            chosen[below(n)] = None
        return list(chosen)


def _mixed_blocks(states: int, step: int, mask: int,
                  unpack: Callable[[bytes], tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
    """SplitMix64's draws, one block of lanes at a time (see SplitMix64)."""
    size = 16 * _LANES
    while True:
        z = ((states ^ (states >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
        z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
        yield unpack((z ^ (z >> 31)).to_bytes(size, "little"))
        states = (states + step) & mask


_CATEGORY_POOL = (
    "ACOUSTICS", "BIOPHYSICS", "CATALYSIS", "DYNAMICS",
    "ENERGETICS", "FLUIDICS", "GENOMICS", "HYDROLOGY",
)

_UDA_NAMES = ("Engineering", "Chemistry", "Biology", "Physics")


@dataclass(frozen=True)
class SynthConfig:
    """Shape of a synthetic corpus; every field bounds a generation draw."""

    seed: int
    n_pubs: int
    n_universities: int = 12
    n_firms: int = 20
    n_public_orgs: int = 6
    n_researchers: int = 120
    n_journals: int = 30
    industry_rate: float = 0.25
    max_authors: int = 6
    year_min: int = DEFAULT_WINDOW[0]
    year_max: int = DEFAULT_WINDOW[1]

    def __post_init__(self) -> None:
        counts = {
            "n_pubs": self.n_pubs,
            "n_universities": self.n_universities,
            "n_firms": self.n_firms,
            "n_researchers": self.n_researchers,
            "n_journals": self.n_journals,
            "max_authors": self.max_authors,
        }
        for name, value in counts.items():
            if value < 1:
                raise InvalidConfig(f"{name} must be >= 1, got {value}")
        if self.n_public_orgs < 0:
            raise InvalidConfig("n_public_orgs must be >= 0")
        if not 0.0 <= self.industry_rate <= 1.0:
            raise InvalidConfig(f"industry_rate must be in [0, 1], got {self.industry_rate}")
        if self.year_min > self.year_max:
            raise InvalidConfig("year_min must not exceed year_max")


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def generate(config: SynthConfig, out_dir: str | Path) -> Path:
    """Write a synthetic data directory, fully determined by the config.

    Draw order per run: journal categories and impact factors, then roster
    assignments, then one publication at a time (year, journal, industry
    flag, author picks, extra address orgs). Organizations and the taxonomy
    are derived without draws. Every 5th firm is foreign; industry
    publications gain 1-2 domestic firms, other publications may gain a
    public organization, a foreign firm, or a second university. Generated
    directories load and validate without errors under a window covering
    ``year_min..year_max``; a window that misses those years is empty.

    Each publication's line is written as soon as it is drawn, so memory
    does not grow with ``n_pubs``; it holds only the small tables and one
    pre-encoded byline per roster researcher.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = SplitMix64(config.seed)
    draw, distinct, random = rng.next_u64, rng.distinct, rng.random

    # taxonomy: no draws
    n_sds = min(12, max(2, config.n_researchers))
    n_uda = min(4, n_sds)
    sds_ids = [f"S{i + 1:03d}" for i in range(n_sds)]
    taxonomy_rows = []
    for i, sds_id in enumerate(sds_ids):
        uda_index = i % n_uda
        taxonomy_rows.append(
            [sds_id, f"Sector {i + 1:03d}", f"A{uda_index + 1:02d}", _UDA_NAMES[uda_index]]
        )
    _write_csv(out_dir / "taxonomy.csv", TAXONOMY_FIELDS, taxonomy_rows)

    # organizations: no draws; every 5th firm is foreign
    university_ids = [f"U{i + 1:03d}" for i in range(config.n_universities)]
    firm_ids = [f"F{i + 1:03d}" for i in range(config.n_firms)]
    firm_country = ["DE" if i % 5 == 4 else "IT" for i in range(config.n_firms)]
    public_kinds = ("public_org", "consortium", "foundation")
    org_rows = []
    for i, org_id in enumerate(university_ids):
        org_rows.append([org_id, f"Synthetic University {i + 1:03d}", "university", "IT"])
    for i, org_id in enumerate(firm_ids):
        org_rows.append([org_id, f"Synthetic Firm {i + 1:03d}", "private_firm", firm_country[i]])
    public_ids = [f"P{i + 1:03d}" for i in range(config.n_public_orgs)]
    for i, org_id in enumerate(public_ids):
        kind = public_kinds[i % 3]
        org_rows.append([org_id, f"Synthetic Body {i + 1:03d}", kind, "IT"])
    _write_csv(out_dir / "organizations.csv", ORGANIZATION_FIELDS, org_rows)

    # journals: per journal, 1-3 distinct categories, then one IF per year
    years = list(range(config.year_min, config.year_max + 1))
    journal_ids = [f"J{i + 1:03d}" for i in range(config.n_journals)]
    journal_rows = []
    for i, journal_id in enumerate(journal_ids):
        n_cats = 1 + draw() % 3
        cat_idx = distinct(len(_CATEGORY_POOL), n_cats)
        cats = ";".join(_CATEGORY_POOL[c] for c in sorted(cat_idx))
        for year in years:
            impact = round(0.1 + random() * 9.9, 3)
            journal_rows.append(
                [journal_id, f"Synthetic Journal {i + 1:03d}", str(year), f"{impact:.3f}", cats]
            )
    _write_csv(out_dir / "journals.csv", JOURNAL_FIELDS, journal_rows)

    # roster: university and sector per researcher
    researcher_ids = [f"R{i + 1:05d}" for i in range(config.n_researchers)]
    researcher_univ = []
    roster_rows = []
    for i, researcher_id in enumerate(researcher_ids):
        univ = university_ids[draw() % config.n_universities]
        sds = sds_ids[draw() % n_sds]
        researcher_univ.append(univ)
        roster_rows.append([researcher_id, f"Synthetic Researcher {i + 1:05d}", univ, sds])
    _write_csv(out_dir / "roster.csv", ROSTER_FIELDS, roster_rows)

    domestic_firms = [firm_ids[i] for i in range(config.n_firms) if firm_country[i] == "IT"]
    foreign_firms = [firm_ids[i] for i in range(config.n_firms) if firm_country[i] == "DE"]

    # Every id and name is plain ASCII with nothing JSON escapes, so each
    # record line is assembled from pre-encoded fragments and equals
    # json.dumps(record, ensure_ascii=True).
    researcher_bylines = [
        f'{{"raw_name": "{name}", "researcher_id": "{researcher_id}", "org_id": "{univ}"}}'
        for researcher_id, name, univ, _ in roster_rows
    ]
    journal_json = [f'"{journal_id}"' for journal_id in journal_ids]

    year_min, n_years, n_journals = config.year_min, len(years), config.n_journals
    industry_rate, n_researchers = config.industry_rate, config.n_researchers
    n_universities, n_public = config.n_universities, len(public_ids)
    author_cap = min(config.max_authors, n_researchers)
    n_domestic, n_foreign = len(domestic_firms), len(foreign_firms)
    firm_cap = min(2, n_domestic)
    with (out_dir / "publications.jsonl").open("w", encoding="utf-8") as fh:
        for p in range(1, config.n_pubs + 1):
            year = year_min + draw() % n_years
            journal = journal_json[draw() % n_journals]
            industry = random() < industry_rate

            picked = distinct(n_researchers, 1 + draw() % author_cap)
            bylines = [researcher_bylines[idx] for idx in picked]
            addresses = {researcher_univ[idx] for idx in picked}

            if industry and n_domestic:
                for slot, pos in enumerate(distinct(n_domestic, 1 + draw() % firm_cap), 1):
                    firm = domestic_firms[pos]
                    addresses.add(firm)
                    bylines.append(
                        f'{{"raw_name": "Industry Author {p:06d}-{slot}", '
                        f'"researcher_id": null, "org_id": "{firm}"}}'
                    )
            else:
                extra = draw() % 4
                if extra == 1 and n_public:
                    addresses.add(public_ids[draw() % n_public])
                elif extra == 2 and n_foreign:
                    addresses.add(foreign_firms[draw() % n_foreign])
                elif extra == 3:
                    addresses.add(university_ids[draw() % n_universities])

            orgs = '", "'.join(sorted(addresses))
            fh.write(
                f'{{"pub_id": "PUB{p:06d}", "year": {year}, "journal_id": {journal}, '
                f'"authors": [{", ".join(bylines)}], "address_org_ids": ["{orgs}"]}}\n'
            )
    return out_dir


# -- oracle ----------------------------------------------------------------------------
#
# Reads the raw files with csv/json directly and tallies naively.
# Intentionally no imports from the analysis modules.

@dataclass(frozen=True)
class OracleCollabCounts:
    """Collaboration totals as the oracle tallies them, with the per-case split."""

    total_collaborations: int
    industry_articles: int
    articles_by_case: dict[str, int]
    collaborations_by_case: dict[str, int]


def oracle_collab_counts(
    data_dir: str | Path,
    window: tuple[int, int] = DEFAULT_WINDOW,
    home_country: str = HOME_COUNTRY,
) -> OracleCollabCounts:
    """Brute-force collaboration totals from organizations.csv and
    publications.jsonl.

    Every (university, domestic firm) pair of every in-window publication is
    enumerated explicitly and tallied.
    """
    data_dir = Path(data_dir)
    with (data_dir / "organizations.csv").open(newline="", encoding="utf-8") as fh:
        orgs = {row["org_id"]: (row["kind"], row["country"]) for row in csv.DictReader(fh)}

    cases = ("one_one", "m_one", "one_n", "m_n")
    articles = {case: 0 for case in cases}
    collaborations = {case: 0 for case in cases}
    with (data_dir / "publications.jsonl").open(encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            pub = json.loads(line)
            if not window[0] <= pub["year"] <= window[1]:
                continue
            universities = []
            firms = []
            for org_id in set(pub["address_org_ids"]):
                if orgs[org_id][0] == "university":
                    universities.append(org_id)
                elif orgs[org_id] == ("private_firm", home_country):
                    firms.append(org_id)
            pairs = []
            for univ in universities:
                for firm in firms:
                    pairs.append((univ, firm))
            if not pairs:
                continue  # case: none
            if len(universities) == 1 and len(firms) == 1:
                case = "one_one"
            elif len(firms) == 1:
                case = "m_one"
            elif len(universities) == 1:
                case = "one_n"
            else:
                case = "m_n"
            articles[case] += 1
            collaborations[case] += len(pairs)

    return OracleCollabCounts(
        total_collaborations=sum(collaborations.values()),
        industry_articles=sum(articles.values()),
        articles_by_case=articles,
        collaborations_by_case=collaborations,
    )
