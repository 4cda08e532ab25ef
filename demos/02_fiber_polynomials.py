#!/usr/bin/env python3
"""Counting fiber flags over finite fields and extracting q-polynomials.

A resolution fiber with an affine paving has exactly sum_i q^(d_i)
points over GF(q), so exact counts at enough primes interpolate to a
polynomial with nonnegative integer coefficients -- and a held-out
prime validates it.  Classical flag-variety counts drop out as special
cases.
"""

from enhcone import (
    FiberQuery,
    bipartition,
    closure_pairs,
    count_fiber,
    count_fiber_memo,
    fiber_cache,
    fiber_dimension_bound,
    flag_shape,
    held_out_prime,
    interpolate_qpoly,
    prime_schedule,
)

big = bipartition((), (3,))  # full flag resolution of the nilpotent cone, n = 3

for small, label in [
    (bipartition((), (1, 1, 1)), "zero pair (whole flag variety)"),
    (bipartition((), (2, 1)), "subregular pair"),
    (bipartition((), (3,)), "regular pair (resolution is birational)"),
]:
    shape = flag_shape(big)
    bound = fiber_dimension_bound(shape)
    primes = prime_schedule(bound)
    counts = {p: count_fiber(FiberQuery.over_orbit(small, big, p)) for p in primes}
    poly = interpolate_qpoly(counts, bound)
    extra = held_out_prime(primes)
    fresh = count_fiber(FiberQuery.over_orbit(small, big, extra))
    status = "ok" if poly.evaluate(extra) == fresh else "MISMATCH"
    print(f"fiber over the {label}:")
    print(f"  counts {counts}")
    print(f"  polynomial {poly}   held-out p={extra}: predicted {poly.evaluate(extra)}, counted {fresh} [{status}]")

print()
print("The closure order on orbits, from the Achar-Henderson inequalities (n = 2);")
print("the tests check it against nonempty fibers:")
for b, s in closure_pairs(2):
    if b != s:
        print(f"  closure of {b}  contains  {s}")

print()
print("Counts depend only on the orbit of the pair, so the memoized")
print("counter keys its cache on classified orbit types:")
fiber_cache().clear()
for p in (2, 3, 5):
    count_fiber_memo(FiberQuery.over_orbit(bipartition((), (1, 1, 1)), big, p))
print(f"  cache stats after three primes: {fiber_cache().stats}")
