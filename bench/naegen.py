"""Seeded Positive NAE-3SAT-E4 formulas and their truth-table answer.

The generator is the pairing model: four copies of every variable are
shuffled and dealt into clauses of three, and a dealing in which some clause
repeats a variable is rejected and dealt again.  Every variable therefore
occurs in exactly four clauses, the E4 condition of the paper's reduction.
"""

from __future__ import annotations

from itertools import product

from graceful.graph import SplitMix64
from graceful.reductions import NaeFormula


def random_e4_formula(num_vars: int, seed: int, max_tries: int = 10_000) -> NaeFormula:
    """A Positive NAE-3SAT-E4 formula on num_vars variables (a multiple of 3,
    so that the 4 * num_vars occurrences fill whole clauses), deterministic
    in (num_vars, seed)."""
    if num_vars < 3 or num_vars % 3:
        raise ValueError("num_vars must be a positive multiple of 3")
    rng = SplitMix64(seed)
    for _ in range(max_tries):
        points = [x for x in range(num_vars) for _ in range(4)]
        rng.shuffle(points)
        clauses = [tuple(points[i:i + 3]) for i in range(0, len(points), 3)]
        if all(len(set(cl)) == 3 for cl in clauses):
            return NaeFormula.make(num_vars, clauses)
    raise RuntimeError(f"no E4 dealing without repeated variables in {max_tries} tries")


def nae_holds(clauses, bits) -> bool:
    """Every clause sees both truth values under the assignment bits."""
    return all(len({bits[x] for x in cl}) == 2 for cl in clauses)


def nae_satisfiable(phi: NaeFormula) -> bool:
    """Truth table over all 2^num_vars assignments, independent of the
    library's own brute force."""
    return any(nae_holds(phi.clauses, bits)
               for bits in product((False, True), repeat=phi.num_vars))
