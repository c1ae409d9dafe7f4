"""Correctness checks on a run's output tables, made outside the timed region.

Each check returns a list of problems; an empty list means the table passed.
The edge list is checked against ``harness.oracle_collab_counts``, which
re-derives the collaboration totals from the raw files without the analysis
modules. Rank and comparison tables get structural checks here; across runs
they are also held to one digest by ``run.py``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import defaultdict

EDGE_HEADER = ["pub_id", "university_org_id", "firm_org_id"]
RANK_LIMITS = {"rank_uda_count.md": 4}  # render_all's k_uda; k_sds is 10


def _case(m: int, n: int) -> str:
    if m == 1 and n == 1:
        return "one_one"
    if n == 1:
        return "m_one"
    if m == 1:
        return "one_n"
    return "m_n"


def edges_problems(text: str, oracle) -> list[str]:
    """The edge list against the oracle: header, order, rows and per-case totals."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != EDGE_HEADER:
        return [f"header is {rows[:1]!r}, expected {EDGE_HEADER!r}"]
    body = [tuple(row) for row in rows[1:]]
    problems = []
    if any(len(row) != 3 for row in body):
        return ["a row does not have 3 fields"]
    if any(a >= b for a, b in zip(body, body[1:])):
        problems.append("rows are not strictly sorted")
    if len(body) != oracle.total_collaborations:
        problems.append(f"{len(body)} rows, oracle counts {oracle.total_collaborations}")

    pairs: dict[str, tuple[set, set]] = defaultdict(lambda: (set(), set()))
    for pub_id, university, firm in body:
        pairs[pub_id][0].add(university)
        pairs[pub_id][1].add(firm)
    articles: dict[str, int] = defaultdict(int)
    collaborations: dict[str, int] = defaultdict(int)
    for universities, firms in pairs.values():
        case = _case(len(universities), len(firms))
        articles[case] += 1
        collaborations[case] += len(universities) * len(firms)
    for case, expected in oracle.articles_by_case.items():
        if articles[case] != expected:
            problems.append(f"{articles[case]} {case} articles, oracle counts {expected}")
    for case, expected in oracle.collaborations_by_case.items():
        if collaborations[case] != expected:
            problems.append(
                f"{collaborations[case]} {case} collaborations, oracle counts {expected}"
            )
    return problems


def _rank_cells(name: str, text: str) -> tuple[list[str], list[list[str]]]:
    if name.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(text)))
        return rows[0] if rows else [], rows[1:]
    table = [line for line in text.splitlines() if line.startswith("|")]
    cells = [[c.strip() for c in line.strip("|").split("|")] for line in table]
    return (cells[0] if cells else []), cells[2:]  # skip the separator row


def rank_problems(name: str, text: str) -> list[str]:
    """A ranking: expected columns, 1..k rows, values not increasing."""
    header, rows = _rank_cells(name, text)
    if header[:2] != ["sector", "value"] or len(header) != 5:
        return [f"unexpected header {header!r}"]
    k = RANK_LIMITS.get(name, 10)
    if not 1 <= len(rows) <= k:
        return [f"{len(rows)} rows, expected 1 to {k}"]
    try:
        values = [float(row[1]) for row in rows]
    except (ValueError, IndexError):
        return ["a value cell is not a number"]
    if any(a < b for a, b in zip(values, values[1:])):
        return ["values are not in descending order"]
    return []


def compare_problems(name: str, text: str) -> list[str]:
    """A comparison: matching name, enough units, finite t, p-values in [0, 1]."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"invalid JSON: {exc.msg}"]
    problems = []
    if name != f"compare_{doc.get('grouping')}_{doc.get('indicator')}.json":
        problems.append(f"grouping/indicator {doc.get('grouping')}/{doc.get('indicator')}")
    if not isinstance(doc.get("n_units"), int) or doc["n_units"] < 2:
        problems.append(f"n_units is {doc.get('n_units')!r}")
    for side in ("sample_a", "sample_b"):
        n = doc.get(side, {}).get("n")
        if not isinstance(n, int) or n < 2:
            problems.append(f"{side}.n is {n!r}")
    for key in ("t", "df"):
        if not isinstance(doc.get(key), (int, float)) or not math.isfinite(doc[key]):
            problems.append(f"{key} is {doc.get(key)!r}")
    for key in ("p_one", "p_two"):
        p = doc.get(key)
        if not isinstance(p, (int, float)) or not 0.0 <= p <= 1.0:
            problems.append(f"{key} is {p!r}")
    return problems


def table_problems(name: str, text: str, oracle) -> list[str]:
    if name == "edges.csv":
        return edges_problems(text, oracle)
    if name.startswith("rank_"):
        return rank_problems(name, text)
    if name.startswith("compare_"):
        return compare_problems(name, text)
    return [f"no check for table {name!r}"]
