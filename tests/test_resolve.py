import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collabmap.resolve import jaro_winkler

# Scores frozen from two independently written implementations of the same
# matching rule (window max(len)//2 - 1, half transpositions, prefix bonus
# 0.1 per shared leading character up to 4, applied only above 0.7).
JW_CASES = (
    ("pirelli", "pirelli", 1.0),
    ("", "", 1.0),
    ("", "pirelli", 0.0),
    ("a", "b", 0.0),
    ("pirrelli", "pirelli", 0.9708333333333333),
    ("martha", "marhta", 0.9611111111111111),
    ("dwayne", "duane", 0.8400000000000001),
    ("dixon", "dicksonx", 0.8133333333333332),
    ("jellyfish", "smellyfish", 0.8962962962962964),
    ("fiat", "fiat auto", 0.888888888888889),
    ("olivetti", "olivetti spa", 0.9333333333333333),
    ("enel", "enea", 0.8833333333333334),
    ("telecom italia", "telecom italia mobile", 0.9333333333333333),
    ("ansaldo", "ansaldo energia", 0.8933333333333334),
    ("abc", "cba", 0.5555555555555555),
    ("ab", "ba", 0.0),
    ("aaaa", "aaa", 0.9416666666666667),
    ("st", "stmicroelectronics", 0.762962962962963),
    ("barilla", "barila", 0.9714285714285714),
    ("lavagna elettronica", "lavagna eletronica", 0.9894736842105263),
)


def reference_jaro_winkler(s1: str, s2: str) -> float:
    """Index-list formulation, kept deliberately different in shape."""
    if s1 == s2:
        return 1.0
    n1, n2 = len(s1), len(s2)
    if n1 == 0 or n2 == 0:
        return 0.0
    window = max(max(n1, n2) // 2 - 1, 0)
    taken = [False] * n2
    pairs = []
    for i, ch in enumerate(s1):
        for j in range(max(i - window, 0), min(i + window + 1, n2)):
            if not taken[j] and s2[j] == ch:
                taken[j] = True
                pairs.append((i, j))
                break
    m = len(pairs)
    if m == 0:
        return 0.0
    seq1 = [s1[i] for i, _ in pairs]
    seq2 = [s2[j] for _, j in sorted(pairs, key=lambda p: p[1])]
    half_transpositions = sum(1 for a, b in zip(seq1, seq2) if a != b) // 2
    jaro = (m / n1 + m / n2 + (m - half_transpositions) / m) / 3.0
    if jaro > 0.7:
        prefix = 0
        for a, b in zip(s1, s2):
            if a != b or prefix == 4:
                break
            prefix += 1
        jaro += prefix * 0.1 * (1.0 - jaro)
    return jaro


@pytest.mark.parametrize("s1,s2,expected", JW_CASES)
def test_jaro_winkler_frozen_scores(s1, s2, expected):
    assert abs(jaro_winkler(s1, s2) - expected) <= 1e-12
    assert abs(reference_jaro_winkler(s1, s2) - expected) <= 1e-12


@given(st.text(max_size=24), st.text(max_size=24))
@settings(max_examples=300)
def test_jaro_winkler_matches_reference(s1, s2):
    assert abs(jaro_winkler(s1, s2) - reference_jaro_winkler(s1, s2)) <= 1e-12


@given(st.text(max_size=24), st.text(max_size=24))
def test_jaro_winkler_symmetric_and_bounded(s1, s2):
    a, b = jaro_winkler(s1, s2), jaro_winkler(s2, s1)
    assert abs(a - b) <= 1e-12
    assert 0.0 <= a <= 1.0
