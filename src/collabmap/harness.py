"""Synthetic corpus generation and naive verification oracles.

The generator is fully determined by its seed: it draws from SplitMix64, a
documented 64-bit generator, in a fixed order, so equal configs produce
byte-identical data directories.

The oracles re-derive collaboration counts, per-researcher indicators, sector
intensity, multidisciplinarity and the samples of every comparison by brute
force, parsing the raw files directly. They share no logic with the analysis
modules: collaboration pairs are enumerated one by one, percentiles are
computed by quadratic pairwise counting, and every scope is rebuilt by
filtering the full publication list.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .corpus import (
    DEFAULT_WINDOW,
    HOME_COUNTRY,
    JOURNAL_FIELDS,
    ORGANIZATION_FIELDS,
    ROSTER_FIELDS,
    TAXONOMY_FIELDS,
)
from .errors import InvalidConfig, MissingFile

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 generator (Steele, Lea, Flood 2014).

    next_u64 advances the state by the golden-gamma constant and scrambles it
    with two xor-multiply rounds. random() keeps the top 53 bits; below(n) is
    next_u64() % n, whose modulo bias is negligible for n far below 2**64.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

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
        n_cats = 1 + rng.below(3)
        cat_idx = rng.distinct(len(_CATEGORY_POOL), n_cats)
        cats = ";".join(_CATEGORY_POOL[c] for c in sorted(cat_idx))
        for year in years:
            impact = round(0.1 + rng.random() * 9.9, 3)
            journal_rows.append(
                [journal_id, f"Synthetic Journal {i + 1:03d}", str(year), f"{impact:.3f}", cats]
            )
    _write_csv(out_dir / "journals.csv", JOURNAL_FIELDS, journal_rows)

    # roster: university and sector per researcher
    researcher_ids = [f"R{i + 1:05d}" for i in range(config.n_researchers)]
    researcher_univ = []
    roster_rows = []
    for i, researcher_id in enumerate(researcher_ids):
        univ = university_ids[rng.below(config.n_universities)]
        sds = sds_ids[rng.below(n_sds)]
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

    below, distinct, random = rng.below, rng.distinct, rng.random
    year_min, n_years, n_journals = config.year_min, len(years), config.n_journals
    industry_rate, n_researchers = config.industry_rate, config.n_researchers
    n_universities, n_public = config.n_universities, len(public_ids)
    author_cap = min(config.max_authors, n_researchers)
    n_domestic, n_foreign = len(domestic_firms), len(foreign_firms)
    firm_cap = min(2, n_domestic)
    with (out_dir / "publications.jsonl").open("w", encoding="utf-8") as fh:
        for p in range(1, config.n_pubs + 1):
            year = year_min + below(n_years)
            journal = journal_json[below(n_journals)]
            industry = random() < industry_rate

            picked = distinct(n_researchers, 1 + below(author_cap))
            bylines = [researcher_bylines[idx] for idx in picked]
            addresses = {researcher_univ[idx] for idx in picked}

            if industry and n_domestic:
                for slot, pos in enumerate(distinct(n_domestic, 1 + below(firm_cap)), 1):
                    firm = domestic_firms[pos]
                    addresses.add(firm)
                    bylines.append(
                        f'{{"raw_name": "Industry Author {p:06d}-{slot}", '
                        f'"researcher_id": null, "org_id": "{firm}"}}'
                    )
            else:
                extra = below(4)
                if extra == 1 and n_public:
                    addresses.add(public_ids[below(n_public)])
                elif extra == 2 and n_foreign:
                    addresses.add(foreign_firms[below(n_foreign)])
                elif extra == 3:
                    addresses.add(university_ids[below(n_universities)])

            orgs = '", "'.join(sorted(addresses))
            fh.write(
                f'{{"pub_id": "PUB{p:06d}", "year": {year}, "journal_id": {journal}, '
                f'"authors": [{", ".join(bylines)}], "address_org_ids": ["{orgs}"]}}\n'
            )
    return out_dir


# -- oracles -------------------------------------------------------------------------
#
# Everything below reads the raw files with csv/json directly and recomputes
# results naively. Intentionally no imports from the analysis modules.

def _read_raw(data_dir: str | Path) -> dict:
    data_dir = Path(data_dir)
    for name in ("organizations.csv", "journals.csv", "roster.csv", "publications.jsonl"):
        if not (data_dir / name).is_file():
            raise MissingFile(str(data_dir / name))

    org_kind = {}
    org_country = {}
    with (data_dir / "organizations.csv").open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            org_kind[row["org_id"]] = row["kind"]
            org_country[row["org_id"]] = row["country"]

    journal_rows = []
    with (data_dir / "journals.csv").open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            journal_rows.append(
                {
                    "journal_id": row["journal_id"],
                    "year": int(row["year"]),
                    "impact_factor": float(row["impact_factor"]),
                    "categories": [c.strip() for c in row["sci_categories"].split(";") if c.strip()],
                }
            )

    roster = {}
    with (data_dir / "roster.csv").open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            roster[row["researcher_id"]] = row["sds_id"]

    pubs = []
    with (data_dir / "publications.jsonl").open(encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                pubs.append(json.loads(line))

    return {
        "org_kind": org_kind,
        "org_country": org_country,
        "journal_rows": journal_rows,
        "roster": roster,
        "pubs": pubs,
    }


def _in_window(pub: dict, window: tuple[int, int]) -> bool:
    return window[0] <= pub["year"] <= window[1]


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
    """Brute-force collaboration totals from the raw files.

    Every (university, domestic firm) pair of every in-window publication is
    enumerated explicitly and tallied.
    """
    raw = _read_raw(data_dir)
    org_kind = raw["org_kind"]
    org_country = raw["org_country"]

    cases = ("one_one", "m_one", "one_n", "m_n")
    articles = {case: 0 for case in cases}
    collaborations = {case: 0 for case in cases}
    for pub in raw["pubs"]:
        if not _in_window(pub, window):
            continue
        universities = []
        firms = []
        for org_id in set(pub["address_org_ids"]):
            if org_kind[org_id] == "university":
                universities.append(org_id)
            elif org_kind[org_id] == "private_firm" and org_country[org_id] == home_country:
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


def oracle_percentiles(values: Sequence[float]) -> list[float]:
    """Quadratic midrank percentiles: count below and equal, pair by pair."""
    n = len(values)
    out = []
    for v in values:
        below = 0
        equal = 0
        for w in values:
            if w < v:
                below += 1
            elif w == v:
                equal += 1
        out.append(100.0 * (below + 0.5 * equal) / n)
    return out


def _oracle_journal_record(raw: dict, journal_id: str, year: int,
                           window: tuple[int, int]) -> dict | None:
    rows = [r for r in raw["journal_rows"] if r["journal_id"] == journal_id]
    in_window = [r for r in rows if window[0] <= r["year"] <= window[1]]
    exact = [r for r in in_window if r["year"] == year]
    if exact:
        return exact[0]
    if not in_window:
        return None
    return min(in_window, key=lambda r: (abs(r["year"] - year), r["year"]))


def oracle_ifpr_by_publication(
    data_dir: str | Path, window: tuple[int, int] = DEFAULT_WINDOW
) -> dict[str, float]:
    """Per-article impact percentile, recomputed naively per year."""
    raw = _read_raw(data_dir)
    pubs = [p for p in raw["pubs"] if _in_window(p, window)]
    journal_ids = sorted({r["journal_id"] for r in raw["journal_rows"]})

    result = {}
    for year in sorted({p["year"] for p in pubs}):
        records = {}
        for journal_id in journal_ids:
            record = _oracle_journal_record(raw, journal_id, year, window)
            if record is not None:
                records[journal_id] = record
        categories = sorted({c for r in records.values() for c in r["categories"]})
        rank: dict[tuple[str, str], float] = {}
        for cat in categories:
            members = sorted(j for j, r in records.items() if cat in r["categories"])
            pcts = oracle_percentiles([records[j]["impact_factor"] for j in members])
            for journal_id, pct in zip(members, pcts):
                rank[(journal_id, cat)] = pct
        for pub in pubs:
            if pub["year"] != year:
                continue
            cats = sorted(records[pub["journal_id"]]["categories"])
            total = 0.0
            for cat in cats:
                total += rank[(pub["journal_id"], cat)]
            result[pub["pub_id"]] = total / len(cats)
    return result


def oracle_researcher_outputs(
    data_dir: str | Path, window: tuple[int, int] = DEFAULT_WINDOW
) -> dict[str, int]:
    """Publication counts per roster researcher, by direct scan."""
    raw = _read_raw(data_dir)
    counts = {rid: 0 for rid in raw["roster"]}
    for pub in raw["pubs"]:
        if not _in_window(pub, window):
            continue
        linked = {a["researcher_id"] for a in pub["authors"] if a["researcher_id"] is not None}
        for rid in linked:
            counts[rid] += 1
    return counts


def oracle_researcher_fss(
    data_dir: str | Path, window: tuple[int, int] = DEFAULT_WINDOW
) -> dict[str, float]:
    """Fractional scientific strength per researcher, by direct scan."""
    raw = _read_raw(data_dir)
    ifpr = oracle_ifpr_by_publication(data_dir, window)
    totals = {rid: 0.0 for rid in raw["roster"]}
    for pub in raw["pubs"]:
        if not _in_window(pub, window):
            continue
        linked = {a["researcher_id"] for a in pub["authors"] if a["researcher_id"] is not None}
        for rid in sorted(linked):
            totals[rid] += (ifpr[pub["pub_id"]] / 100.0) / len(pub["authors"])
    return totals


class ComparisonOracle:
    """Naive sector intensity, multidisciplinarity and comparison samples.

    Reads a data directory once and reduces each in-window publication, in
    pub_id order, to its author sectors and areas, journal categories, impact
    percentile, linked researchers, and two flags: extramural (two or more
    address organizations, one a university) and industry (a university and
    a domestic firm). Every query filters that full list scope by scope.
    """

    def __init__(self, data_dir: str | Path, window: tuple[int, int] = DEFAULT_WINDOW,
                 home_country: str = HOME_COUNTRY):
        self._data_dir, self._window = data_dir, window
        raw = _read_raw(data_dir)
        ifpr = oracle_ifpr_by_publication(data_dir, window)
        with (Path(data_dir) / "taxonomy.csv").open(newline="", encoding="utf-8") as fh:
            self._sds_area = {row["sds_id"]: row["uda_id"] for row in csv.DictReader(fh)}
        self._roster = raw["roster"]
        self._facts = []
        for pub in sorted((p for p in raw["pubs"] if _in_window(p, window)),
                          key=lambda p: p["pub_id"]):
            orgs = set(pub["address_org_ids"])
            kinds = {raw["org_kind"][o] for o in orgs}
            domestic_firm = any(raw["org_kind"][o] == "private_firm"
                                and raw["org_country"][o] == home_country for o in orgs)
            researchers = {a["researcher_id"] for a in pub["authors"]} - {None}
            sectors = {raw["roster"][r] for r in researchers}
            record = _oracle_journal_record(raw, pub["journal_id"], pub["year"], window)
            self._facts.append({
                "sds": sectors,
                "uda": {self._sds_area[s] for s in sectors},
                "categories": set(record["categories"]),
                "ifpr": ifpr[pub["pub_id"]],
                "researchers": researchers,
                "extramural": len(orgs) >= 2 and "university" in kinds,
                "industry": "university" in kinds and domestic_firm,
            })

    def _scopes(self, key: str) -> list[str]:
        return sorted({s for f in self._facts for s in f[key]})

    def sector_intensity(self, level: str = "sds") -> list[tuple]:
        """(sector, industry articles, % of all, % of extramural, per
        researcher) per sector ("sds") or area ("uda"); undefined is None."""
        heads: dict[str, int] = {}
        for sds_id in self._roster.values():
            scope = sds_id if level == "sds" else self._sds_area[sds_id]
            heads[scope] = heads.get(scope, 0) + 1
        rows = []
        for scope in self._scopes(level):
            members = [f for f in self._facts if scope in f[level]]
            n_extramural = sum(1 for f in members if f["extramural"])
            n_industry = sum(1 for f in members if f["industry"])
            rows.append((scope, n_industry, 100.0 * n_industry / len(members),
                         100.0 * n_industry / n_extramural if n_extramural else None,
                         n_industry / heads[scope] if heads.get(scope) else None))
        return rows

    def multidisc_by_scope(self, selector: str) -> list[tuple]:
        """(scope, mean sectors, mean categories, n) over the articles the
        selector keeps: sectors first, then categories, empty scopes left out."""
        flag = {"extramural_collab": "extramural", "industry_coauthored": "industry"}
        chosen = [f for f in self._facts if selector == "all" or f[flag[selector]]]
        rows = []
        for key in ("sds", "categories"):
            for scope in self._scopes(key):
                counts = [len(f[key]) for f in chosen if scope in f[key]]
                if counts:
                    mean = sum(counts) / len(counts)
                    rows.append((scope, mean, None, len(counts)) if key == "sds"
                                else (scope, None, mean, len(counts)))
        return rows

    def paired_samples(self, grouping: str, indicator: str,
                       min_collab_pubs: int = 7) -> tuple[list[float], list[float], int]:
        """Aligned per-scope means of a paired comparison, and its exclusions.

        Scopes are sectors, or categories for ``ii_sci``. Side a is a scope's
        articles (its extramural ones for ``multidisc_collab_vs_industry``),
        side b its industry ones (extramural for ``sds_all_vs_collab``). An
        empty side a skips the scope. ``sds_all_vs_collab`` also skips a
        scope with no extramural article and excludes one with fewer than
        ``min_collab_pubs``; the others exclude an empty side b.
        """
        key = "categories" if indicator == "ii_sci" else "sds"
        xs: list[float] = []
        ys: list[float] = []
        excluded = 0
        for scope in self._scopes(key):
            side_a = [f for f in self._facts if scope in f[key]]
            if grouping == "multidisc_collab_vs_industry":
                side_a = [f for f in side_a if f["extramural"]]
            side_b = [f for f in self._facts if scope in f[key]
                      and f["extramural" if grouping == "sds_all_vs_collab" else "industry"]]
            if not side_a or (grouping == "sds_all_vs_collab" and not side_b):
                continue
            if len(side_b) < (min_collab_pubs if grouping == "sds_all_vs_collab" else 1):
                excluded += 1
                continue
            for side, out in ((side_a, xs), (side_b, ys)):
                values = [f["ifpr"] if indicator == "ifpr" else len(f[key]) for f in side]
                out.append(sum(values) / len(values))
        return xs, ys, excluded

    def researcher_groups(self, indicator: str) -> tuple[list[float], list[float], int]:
        """Within-sector percentile ranks of output ("o") or fss of the
        industry collaborators and of the rest, in researcher id order, and
        the count of researchers whose sector has no article."""
        if indicator == "o":
            values = oracle_researcher_outputs(self._data_dir, self._window)
        else:
            values = oracle_researcher_fss(self._data_dir, self._window)
        active = set(self._scopes("sds"))
        population = sorted(r for r, s in self._roster.items() if s in active)
        ranks = {}
        for sector in active:
            members = [r for r in population if self._roster[r] == sector]
            ranks.update(zip(members, oracle_percentiles([values[r] for r in members])))
        collaborators = {r for f in self._facts if f["industry"] for r in f["researchers"]}
        group_a = [ranks[r] for r in population if r in collaborators]
        group_b = [ranks[r] for r in population if r not in collaborators]
        return group_a, group_b, len(self._roster) - len(population)
