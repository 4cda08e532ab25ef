#!/usr/bin/env python3
"""Fiber point-count polynomials over finite fields.

A resolution fiber with an affine paving has exactly sum_i q^(d_i)
points over GF(q), so its point count is a polynomial in q with
nonnegative integer coefficients.  The library assembles that
polynomial exactly in Z[q], by recursing over orbits through a
symbolic transition table, and brute-force flag counts over small
primes agree with it.  Classical flag-variety counts drop out as
special cases.
"""

from enhcone import (
    FiberQuery,
    bipartition,
    closure_pairs,
    count_fiber,
    fiber_cache,
    fiber_polynomial,
)

big = bipartition((), (3,))  # full flag resolution of the nilpotent cone, n = 3

for small, label in [
    (bipartition((), (1, 1, 1)), "zero pair (whole flag variety)"),
    (bipartition((), (2, 1)), "subregular pair"),
    (bipartition((), (3,)), "regular pair (resolution is birational)"),
]:
    poly = fiber_polynomial(big, small)
    counts = {p: count_fiber(FiberQuery.over_orbit(small, big, p)) for p in (2, 3, 5)}
    status = "ok" if all(poly.evaluate(p) == c for p, c in counts.items()) else "MISMATCH"
    print(f"fiber over the {label}:")
    print(f"  polynomial {poly}   brute-force counts {counts} [{status}]")

print()
print("The closure order on orbits, from the Achar-Henderson inequalities (n = 2);")
print("the tests check it against nonempty fibers:")
for b, s in closure_pairs(2):
    if b != s:
        print(f"  closure of {b}  contains  {s}")

print()
print("Counts depend only on the orbit of the pair, so the polynomials are")
print("memoized on orbit types, and the transition rows are shared:")
fiber_cache().clear()
for n in range(5):
    for b, s in closure_pairs(n):
        fiber_polynomial(b, s)
print(f"  cache stats after all 242 pairs with n <= 4: {fiber_cache().stats}")
