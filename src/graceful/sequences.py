"""Minimum-span progression-free sets.

a(n) is the least k such that {1..k} contains an n-element subset with no
three distinct elements in arithmetic progression (OEIS A065825).
Witnesses are explicit and re-checked.  One depth-first search over
AP-free sets containing 1 answers both a(n) and the list of its optimal
witnesses.  It adds elements in increasing order and carries a bitmask of
banned values: adding c bans 2c - b for every chosen b, the one value that
would complete a progression b, c, 2c - b.  Every progression that a later
candidate could complete has both its smaller elements chosen, so a
candidate is tested with one bit test.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

MAX_N = 14


@dataclass(frozen=True)
class ApFreeSet:
    """A progression-free set of positive integers with its span."""

    elements: tuple[int, ...]

    def __post_init__(self):
        if not is_ap_free(self.elements):
            raise ValueError(f"{self.elements} is not AP-free")
        if list(self.elements) != sorted(set(self.elements)):
            raise ValueError("elements must be strictly increasing")

    @property
    def span(self) -> int:
        return self.elements[-1] if self.elements else 0


def is_ap_free(s) -> bool:
    """True iff s has distinct positive elements and no three distinct
    elements x < y < z with z - y = y - x."""
    xs = sorted(s)
    if len(xs) != len(set(xs)) or (xs and xs[0] < 1):
        return False
    elems = set(xs)
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            x, z = xs[i], xs[j]
            if (x + z) % 2 == 0 and (x + z) // 2 in elems:
                return False
    return True


class _Cache:
    def __init__(self):
        self.lock = threading.Lock()
        self.values: dict[int, tuple[int, tuple[int, ...]]] = {}


_cache = _Cache()


def _ap_free_sets(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Every AP-free n-subset of {1..k} containing 1, in lexicographic
    order.  A minimum-span set shifted down to start at 1 stays AP-free,
    so every optimal witness contains both 1 and a(n)."""
    chosen = [1]

    def dfs(lo: int, banned: int) -> Iterator[tuple[int, ...]]:
        if len(chosen) == n:
            yield tuple(chosen)
            return
        # span pruning: enough room must remain for the missing elements
        for c in range(lo, k + 2 - (n - len(chosen))):
            if banned >> c & 1:
                continue
            ban_c = banned
            for b in chosen:
                ban_c |= 1 << (2 * c - b)  # b, c, 2c - b
            chosen.append(c)
            yield from dfs(c + 1, ban_c)
            chosen.pop()

    return dfs(2, 0)


def a_of_n(n: int) -> tuple[int, ApFreeSet]:
    """Least span a(n) of an n-element AP-free subset of the positive
    integers, with the lexicographically first witness attaining it."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_N:
        raise ValueError(f"n={n} exceeds limit {MAX_N}")
    with _cache.lock:
        hit = _cache.values.get(n)
    if hit:
        return hit[0], ApFreeSet(hit[1])
    # start the scan at the previous value + 1 (a is strictly increasing);
    # this is only a starting hint, correctness comes from the upward scan
    k = n
    if n - 1 in _cache.values:
        k = max(k, _cache.values[n - 1][0] + 1)
    while (wit := next(_ap_free_sets(n, k), None)) is None:
        k += 1
    with _cache.lock:
        _cache.values[n] = (k, wit)
    return k, ApFreeSet(wit)


def all_optimal_witnesses(n: int) -> list[ApFreeSet]:
    """Every AP-free n-subset of {1..a(n)} whose span is exactly a(n),
    in lexicographic order."""
    value, _ = a_of_n(n)
    return [ApFreeSet(w) for w in _ap_free_sets(n, value)]


def a_of_n_bruteforce(n: int) -> int:
    """Independent oracle: enumerate ALL n-subsets of {1..k} for k = n, n+1, ...
    Only feasible for small n; kept deliberately naive."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = n
    while True:
        for sub in combinations(range(1, k + 1), n):
            if is_ap_free(sub):
                return k
        k += 1
