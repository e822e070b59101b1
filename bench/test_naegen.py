"""Checks of the benchmark's NAE-3SAT-E4 generator and truth table.

    python3 -m pytest bench
"""

import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from graceful.reductions import brute_force_nae, smallest_e4_instance  # noqa: E402
from naegen import nae_satisfiable, random_e4_formula  # noqa: E402


@pytest.mark.parametrize("num_vars", [3, 6, 9, 12])
@pytest.mark.parametrize("seed", range(5))
def test_every_variable_occurs_four_times_in_distinct_clauses(num_vars, seed):
    phi = random_e4_formula(num_vars, seed)
    assert len(phi.clauses) == 4 * num_vars // 3
    assert Counter(x for cl in phi.clauses for x in cl) == {x: 4 for x in range(num_vars)}
    assert all(len(set(cl)) == 3 for cl in phi.clauses)


def test_seed_determines_formula():
    assert random_e4_formula(6, 7) == random_e4_formula(6, 7)
    assert len({random_e4_formula(6, s) for s in range(20)}) > 1


def test_rejects_variable_counts_that_do_not_fill_clauses():
    with pytest.raises(ValueError):
        random_e4_formula(4, 0)


def test_truth_table_agrees_with_library_brute_force():
    for phi in [smallest_e4_instance()] + [random_e4_formula(6, s) for s in range(10)]:
        assert nae_satisfiable(phi) == (brute_force_nae(phi) is not None)


def test_truth_table_finds_fano_plane_unsatisfiable():
    fano = ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5))
    assert not nae_satisfiable(SimpleNamespace(num_vars=7, clauses=fano))
