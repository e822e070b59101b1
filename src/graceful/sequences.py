"""Minimum-span progression-free sets.

a(n) is the least k such that {1..k} contains an n-element subset with no
three distinct elements in arithmetic progression (OEIS A065825).
Witnesses are explicit and re-checked.  One depth-first search over
AP-free sets containing 1 answers both a(n) and the list of its optimal
witnesses.  It adds elements in increasing order and carries a bitmask of
banned values: adding c bans 2c - b for every chosen b, the one value that
would complete a progression b, c, 2c - b.  Every progression that a later
candidate could complete has both its smaller elements chosen, so the
candidates are the clear bits of the mask.  The chosen set is also kept
mirrored in a second mask, so the values that c bans are one shift of it.

The search is pruned by an interval bound.  The largest AP-free subset of an
interval of length L has r(L) = max{t : a(t) <= L} elements, so the t
elements still missing before candidate c, which all lie in [c..k], fit only
if a(t) <= k - c + 1.  The bound cuts only subtrees that cannot be completed,
so the lexicographic order of the sets found is kept.  a(n) is computed after
a(1..n-1), which the bound reads.  With it a cold a(17) takes under a second
instead of minutes (Gasarch, Glenn & Kruskal, JCSS 2008, use bounds of this
kind for large 3-free sets).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Iterator

MAX_N = 20


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


def _ap_free_sets(n: int, k: int, spans: list[int]) -> Iterator[tuple[int, ...]]:
    """Every AP-free n-subset of {1..k} containing 1, in lexicographic
    order, given spans[t] = a(t) for t < n and k > a(n - 1).  A minimum-span
    set shifted down to start at 1 stays AP-free, so every optimal witness
    contains both 1 and a(n)."""
    top = k + 1
    chosen = [1]

    def dfs(lo: int, banned: int, mirror: int) -> Iterator[tuple[int, ...]]:
        if len(chosen) == n:
            yield tuple(chosen)
            return
        # interval bound: the missing elements lie in [c..k], which must be at
        # least a(missing) long.  The window ends at or above lo, since a is
        # strictly increasing and k > a(n - 1).
        free = ~banned & ((1 << (k + 2 - spans[n - len(chosen)])) - (1 << lo))
        while free:
            low = free & -free
            free ^= low
            c = low.bit_length() - 1
            chosen.append(c)
            # mirror has bit top - b for every chosen b, so shifted up by
            # 2c - top it has bit 2c - b, which completes b, c, 2c - b
            yield from dfs(c + 1, banned | (mirror << 2 * c) >> top,
                           mirror | 1 << (top - c))
            chosen.pop()

    return dfs(2, 0, 1 << k)


@cache
def _optimum(n: int) -> tuple[int, tuple[int, ...]]:
    """a(n) and its lexicographically first witness, memoised.  The search
    for a(n) is bounded by a(1..n-1), which it reads through this memo."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_N:
        raise ValueError(f"n={n} exceeds limit {MAX_N}")
    spans = [0] + [_optimum(t)[0] for t in range(1, n)]
    k = spans[-1] + 1  # a is strictly increasing
    while (wit := next(_ap_free_sets(n, k, spans), None)) is None:
        k += 1
    return k, wit


def a_of_n(n: int) -> tuple[int, ApFreeSet]:
    """Least span a(n) of an n-element AP-free subset of the positive
    integers, with the lexicographically first witness attaining it."""
    value, wit = _optimum(n)
    return value, ApFreeSet(wit)


def all_optimal_witnesses(n: int) -> list[ApFreeSet]:
    """Every AP-free n-subset of {1..a(n)} whose span is exactly a(n),
    in lexicographic order."""
    k, _ = _optimum(n)
    spans = [0] + [_optimum(t)[0] for t in range(1, n)]
    return [ApFreeSet(w) for w in _ap_free_sets(n, k, spans)]


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
