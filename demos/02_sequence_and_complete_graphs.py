"""a(n), progression-free sets, and complete graphs.

Coloring K_n gracefully means picking n colors with all pairwise
differences distinct at every vertex, which is exactly an n-element set
with no 3-term arithmetic progression.  So the graceful chromatic number
of K_n equals a(n), the minimum span of such a set (OEIS A065825).
"""

from graceful import (a_of_n, a_of_n_bruteforce, all_optimal_witnesses,
                      complete_graph, graceful_chromatic_number)

# The search colors the twins of K_n (all its vertices) in increasing
# order, so chi_g(K_9) takes under 10,000 nodes; the brute-force oracle
# for a(n) grows about 80-fold from n = 8 to n = 9, so it stops at n = 8.
print(" n  a(n)  oracle  chi_g(K_n)  nodes  one witness")
for n in range(1, 10):
    value, witness = a_of_n(n)
    oracle = f"{a_of_n_bruteforce(n):6d}" if n <= 8 else "     -"
    res = graceful_chromatic_number(complete_graph(n))
    print(f"{n:2d}  {value:4d}  {oracle}  {res.value:10d}  {res.nodes:5d}  {witness.elements}")

print("\nall optimal witnesses for n = 4:")
for w in all_optimal_witnesses(4):
    print("  ", w.elements)
