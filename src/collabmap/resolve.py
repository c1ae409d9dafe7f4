"""Jaro-Winkler string similarity.

This is what is left of organization name resolution: the loader takes
resolved organization ids, so nothing in the pipeline calls it. The module
goes once its tests can be retired with it (ROADMAP item 3).
"""

from __future__ import annotations


def jaro_winkler(s1: str, s2: str) -> float:
    """Jaro-Winkler similarity in [0, 1].

    Standard parameters: prefix scale 0.1, prefix length capped at 4, and the
    prefix bonus applied only when the base Jaro similarity exceeds 0.7.
    Equal strings (including two empty strings) score 1.0.
    """
    if s1 == s2:
        return 1.0
    len1, len2 = len(s1), len(s2)
    if len1 == 0 or len2 == 0:
        return 0.0

    window = max(len1, len2) // 2 - 1
    matched1 = [False] * len1
    matched2 = [False] * len2
    matches = 0
    for i, c in enumerate(s1):
        lo = max(0, i - window)
        hi = min(len2, i + window + 1)
        for j in range(lo, hi):
            if not matched2[j] and s2[j] == c:
                matched1[i] = True
                matched2[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0

    seq2 = [c for j, c in enumerate(s2) if matched2[j]]
    transpositions = 0
    k = 0
    for i, c in enumerate(s1):
        if matched1[i]:
            if c != seq2[k]:
                transpositions += 1
            k += 1
    transpositions //= 2

    jaro = (
        matches / len1 + matches / len2 + (matches - transpositions) / matches
    ) / 3.0
    if jaro <= 0.7:
        return jaro
    prefix = 0
    for c1, c2 in zip(s1, s2):
        if c1 != c2 or prefix == 4:
            break
        prefix += 1
    return jaro + prefix * 0.1 * (1.0 - jaro)
