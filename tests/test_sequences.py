from bisect import bisect_right
from itertools import combinations

import pytest

from graceful import (ApFreeSet, a_of_n, a_of_n_bruteforce,
                      all_optimal_witnesses, is_ap_free)

# frozen from the full-subset-enumeration oracle (a_of_n_bruteforce)
KNOWN = {1: 1, 2: 2, 3: 4, 4: 5, 5: 9, 6: 11, 7: 13}


def test_is_ap_free_basic():
    assert is_ap_free([1, 2, 4])
    assert not is_ap_free([1, 2, 3])
    assert is_ap_free([1, 2, 4, 5])
    assert not is_ap_free([2, 2, 5])  # duplicates
    assert is_ap_free([])


def test_is_ap_free_matches_triple_enumeration():
    from itertools import combinations

    def oracle(s):
        if len(set(s)) != len(s):
            return False
        return all(abs(i - j) != abs(j - k)
                   for i, j, k in combinations(sorted(s), 3))

    from graceful.graph import SplitMix64
    rng = SplitMix64(3)
    for _ in range(300):
        s = sorted({1 + rng.randint(12) for _ in range(rng.randint(6))})
        assert is_ap_free(s) == oracle(s), s


@pytest.mark.parametrize("n,expected", sorted(KNOWN.items()))
def test_a_of_n_known_values(n, expected):
    value, witness = a_of_n(n)
    assert value == expected
    assert len(witness.elements) == n
    assert witness.span == value
    assert is_ap_free(witness.elements)


def test_a_of_n_matches_bruteforce_oracle():
    for n in range(1, 8):
        assert a_of_n(n)[0] == a_of_n_bruteforce(n)


def test_a_of_n_rejects_bad_input():
    with pytest.raises(ValueError):
        a_of_n(0)
    with pytest.raises(ValueError):
        a_of_n(21)
    with pytest.raises(ValueError):
        a_of_n(99)


def test_all_optimal_witnesses_small():
    assert [w.elements for w in all_optimal_witnesses(2)] == [(1, 2)]
    assert [w.elements for w in all_optimal_witnesses(3)] == [(1, 2, 4), (1, 3, 4)]


def test_witnesses_are_ap_free_with_exact_span():
    for n in range(1, 15):
        value = a_of_n(n)[0]
        wits = all_optimal_witnesses(n)
        assert wits
        # the a(n) witness is the lexicographically first optimal set
        assert a_of_n(n)[1] == wits[0]
        for w in wits:
            assert is_ap_free(w.elements)
            assert w.span == value
            # dropping the maximum leaves an AP-free (n-1)-set
            if n > 1:
                rest = w.elements[:-1]
                assert is_ap_free(rest)
                assert max(rest) >= a_of_n(n - 1)[0]


def test_strictly_increasing_and_sanity_bounds():
    vals = [a_of_n(n)[0] for n in range(1, 9)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    for n, v in enumerate(vals, start=1):
        assert n <= v
        if n > 1:
            assert v <= 2 * vals[n - 2]  # empirical on the computed range


def test_reflection_closure():
    for n in range(2, 7):
        value = a_of_n(n)[0]
        wits = {w.elements for w in all_optimal_witnesses(n)}
        for w in wits:
            mirrored = tuple(sorted(value + 1 - x for x in w))
            assert mirrored in wits


def test_apfreeset_rejects_progressions():
    with pytest.raises(ValueError):
        ApFreeSet((1, 2, 3))


# a(8..13) with the lexicographically first witness and the number of optimal
# witnesses, frozen from the search before it carried a banned-value mask
LARGER = {
    8: (14, (1, 2, 4, 5, 10, 11, 13, 14), 1),
    9: (20, (1, 2, 6, 7, 9, 14, 15, 18, 20), 2),
    10: (24, (1, 2, 5, 7, 11, 16, 18, 19, 23, 24), 2),
    11: (26, (1, 2, 5, 7, 11, 16, 18, 19, 23, 24, 26), 2),
    12: (30, (1, 3, 4, 8, 9, 11, 20, 22, 23, 27, 28, 30), 1),
    13: (32, (1, 2, 4, 8, 9, 11, 19, 22, 23, 26, 28, 31, 32), 2),
}


@pytest.mark.parametrize("n", sorted(LARGER))
def test_a_of_n_larger_values_and_witnesses(n):
    value, witness, count = LARGER[n]
    assert a_of_n(n) == (value, ApFreeSet(witness))
    wits = all_optimal_witnesses(n)
    assert len(wits) == count and wits[0].elements == witness


def test_interval_bound_matches_bruteforce():
    # the search prunes with r(L) = max{t : a(t) <= L}, the size of the
    # largest AP-free subset of an interval of length L
    spans = [a_of_n(t)[0] for t in range(1, 10)]  # a(9) = 20 > 14
    for length in range(15):
        subsets = (s for size in range(length + 1)
                   for s in combinations(range(1, length + 1), size))
        largest = max(len(s) for s in subsets if is_ap_free(s))
        assert bisect_right(spans, length) == largest


# a(15..20) of OEIS A065825 with their lexicographically first witnesses;
# 15 to 18 agree with the search before it had the interval bound
BEYOND = {
    15: (40, (1, 2, 4, 5, 10, 11, 13, 14, 28, 29, 31, 32, 37, 38, 40)),
    16: (41, (1, 2, 4, 5, 10, 11, 13, 14, 28, 29, 31, 32, 37, 38, 40, 41)),
    17: (51, (1, 2, 4, 5, 10, 13, 14, 17, 31, 35, 37, 38, 40, 46, 47, 50, 51)),
    18: (54, (1, 2, 5, 6, 12, 14, 15, 17, 21, 31, 38, 39, 42, 43, 49, 51, 52, 54)),
    19: (58, (1, 2, 5, 6, 12, 14, 15, 17, 21, 31, 38, 39, 42, 43, 49, 51, 52, 54,
              58)),
    20: (63, (1, 2, 5, 7, 11, 16, 18, 19, 24, 26, 38, 39, 42, 44, 48, 53, 55, 56,
              61, 63)),
}


@pytest.mark.parametrize("n", sorted(BEYOND))
def test_a_of_n_up_to_the_limit(n):
    value, witness = BEYOND[n]
    assert a_of_n(n) == (value, ApFreeSet(witness))
