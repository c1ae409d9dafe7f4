"""Naive raw-file oracles for the numbers the engine publishes.

The oracles read the data files with csv and json directly and recompute
every result by brute force. This module imports nothing from ``collabmap``,
not even its defaults, so the oracles share no logic with what they check:
percentiles are computed by quadratic pairwise counting, collaboration pairs
are enumerated one by one, and every scope is rebuilt by filtering the full
publication list. ``collabmap.harness.oracle_collab_counts`` is the one oracle
kept in the package, because the benchmark imports it; the tests count
collaborations with :func:`oracle_collab_summary` instead.
"""

import csv
import json
from pathlib import Path


def oracle_percentiles(values):
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


def oracle_collab_summary(edges):
    """Collaboration totals from (pub, university, firm) triples such as
    ``Oracle.edges``, as a dict with the four ``CollabSummary`` fields.

    An article with m distinct universities and n distinct firms is case
    one_one, m_one (n = 1), one_n (m = 1) or m_n, and each of its triples is
    one collaboration.
    """
    parties = {}
    for pub_id, university, firm in edges:
        universities, firms, triples = parties.setdefault(pub_id, (set(), set(), []))
        universities.add(university)
        firms.add(firm)
        triples.append((university, firm))
    cases = {(False, False): "one_one", (True, False): "m_one",
             (False, True): "one_n", (True, True): "m_n"}
    articles = dict.fromkeys(cases.values(), 0)
    collaborations = dict.fromkeys(cases.values(), 0)
    for universities, firms, triples in parties.values():
        case = cases[len(universities) > 1, len(firms) > 1]
        articles[case] += 1
        collaborations[case] += len(triples)
    return {
        "total_collaborations": len(edges),
        "industry_articles": len(parties),
        "articles_by_case": articles,
        "collaborations_by_case": collaborations,
    }


def _csv_rows(path):
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Oracle:
    """The engine's numbers for one data directory, window and home country.

    Reads each of the five files once and ranks the journals once. Its
    attributes are the per-article impact percentile (``ifpr``, by pub_id),
    each roster researcher's output and fractional scientific strength
    (``outputs`` and ``fss``), and the sorted (pub, university, domestic
    firm) triples (``edges``). For the queries, each in-window publication
    is reduced, in pub_id order, to its author sectors and areas, journal
    categories, impact percentile, linked researchers, and two flags:
    extramural (two or more address organizations, one a university) and
    industry (a university and a domestic firm). Every query filters that
    full list scope by scope.
    """

    def __init__(self, data_dir, window, home_country):
        data_dir = Path(data_dir)
        orgs = {row["org_id"]: (row["kind"], row["country"])
                for row in _csv_rows(data_dir / "organizations.csv")}
        self._journal_rows = [
            {
                "journal_id": row["journal_id"],
                "year": int(row["year"]),
                "impact_factor": float(row["impact_factor"]),
                "categories": [c.strip() for c in row["sci_categories"].split(";") if c.strip()],
            }
            for row in _csv_rows(data_dir / "journals.csv")
        ]
        self._roster = {row["researcher_id"]: row["sds_id"]
                        for row in _csv_rows(data_dir / "roster.csv")}
        self._sds_area = {row["sds_id"]: row["uda_id"]
                          for row in _csv_rows(data_dir / "taxonomy.csv")}
        with (data_dir / "publications.jsonl").open(encoding="utf-8") as fh:
            pubs = [json.loads(line) for line in fh if line.strip()]
        pubs = [p for p in pubs if window[0] <= p["year"] <= window[1]]

        self.ifpr, records = self._rank_journals(pubs, window)

        self.outputs = {rid: 0 for rid in self._roster}
        self.fss = {rid: 0.0 for rid in self._roster}
        for pub in pubs:
            linked = {a["researcher_id"] for a in pub["authors"] if a["researcher_id"] is not None}
            for rid in sorted(linked):
                self.outputs[rid] += 1
                self.fss[rid] += (self.ifpr[pub["pub_id"]] / 100.0) / len(pub["authors"])

        triples = []
        self._facts = []
        for pub in sorted(pubs, key=lambda p: p["pub_id"]):
            addresses = set(pub["address_org_ids"])
            universities = [o for o in addresses if orgs[o][0] == "university"]
            firms = [o for o in addresses if orgs[o] == ("private_firm", home_country)]
            triples += [(pub["pub_id"], u, f) for u in universities for f in firms]
            researchers = {a["researcher_id"] for a in pub["authors"]} - {None}
            sectors = {self._roster[r] for r in researchers}
            self._facts.append({
                "sds": sectors,
                "uda": {self._sds_area[s] for s in sectors},
                "categories": set(records[pub["year"]][pub["journal_id"]]["categories"]),
                "ifpr": self.ifpr[pub["pub_id"]],
                "researchers": researchers,
                "extramural": len(addresses) >= 2 and bool(universities),
                "industry": bool(universities) and bool(firms),
            })
        self.edges = sorted(triples)

    def _journal_record(self, journal_id, year, window):
        """A journal's row for ``year``, else its in-window row nearest to it
        (the earlier on a tie), else None."""
        rows = [r for r in self._journal_rows if r["journal_id"] == journal_id]
        in_window = [r for r in rows if window[0] <= r["year"] <= window[1]]
        exact = [r for r in in_window if r["year"] == year]
        if exact:
            return exact[0]
        if not in_window:
            return None
        return min(in_window, key=lambda r: (abs(r["year"] - year), r["year"]))

    def _rank_journals(self, pubs, window):
        """Per-article impact percentile, recomputed naively year by year,
        and each year's journal records: {year: {journal_id: record}}."""
        journal_ids = sorted({r["journal_id"] for r in self._journal_rows})
        ifpr = {}
        by_year = {}
        for year in sorted({p["year"] for p in pubs}):
            records = {}
            for journal_id in journal_ids:
                record = self._journal_record(journal_id, year, window)
                if record is not None:
                    records[journal_id] = record
            categories = sorted({c for r in records.values() for c in r["categories"]})
            rank = {}
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
                ifpr[pub["pub_id"]] = total / len(cats)
            by_year[year] = records
        return ifpr, by_year

    def _scopes(self, key):
        return sorted({s for f in self._facts for s in f[key]})

    def sector_intensity(self, level):
        """(sector, industry articles, % of all, % of extramural, per
        researcher) per sector ("sds") or area ("uda"); undefined is None."""
        heads = {}
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

    def multidisc_by_scope(self, selector):
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

    def paired_samples(self, grouping, indicator, min_collab_pubs):
        """Aligned per-scope means of a paired comparison, and its exclusions.

        Scopes are sectors, or categories for ``ii_sci``. Side a is a scope's
        articles (its extramural ones for ``multidisc_collab_vs_industry``),
        side b its industry ones (extramural for ``sds_all_vs_collab``). An
        empty side a skips the scope. ``sds_all_vs_collab`` also skips a
        scope with no extramural article and excludes one with fewer than
        ``min_collab_pubs``; the others exclude an empty side b.
        """
        key = "categories" if indicator == "ii_sci" else "sds"
        xs = []
        ys = []
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

    def researcher_groups(self, indicator):
        """Within-sector percentile ranks of output ("o") or fss of the
        industry collaborators and of the rest, in researcher id order, and
        the count of researchers whose sector has no article."""
        values = self.outputs if indicator == "o" else self.fss
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
