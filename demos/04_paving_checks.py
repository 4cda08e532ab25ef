#!/usr/bin/env python3
"""The full battery of paving verifications at desk scale.

Six named checks tie the computations together: polynomial point counts
checked against the brute-force count over GF(2), the orbit-profile
partition of each fiber into Bialynicki-Birula cells, the
distinguished-pair classification, the product splitting, the
kernel-line recursion, and semismallness.  Everything here is a theorem
over every field, so a single FAIL would falsify the implementation.
"""

import collections

from enhcone.checks import CHECK_NAMES, suite_instances

N = 3

print(f"Running all checks over every bipartition/closure pair with n <= {N}...")
tally = collections.Counter()
worst = []
for desc, thunk in suite_instances(N, CHECK_NAMES, recursion_primes=(2, 3)):
    report = thunk()
    tally[report.verdict] += 1
    if not report.passed:
        worst.append((desc, report.witness))

for verdict, count in sorted(tally.items()):
    print(f"  {verdict}: {count}")
for desc, witness in worst[:5]:
    print(f"  FAILURE {desc}: {witness}")

print()
print("A sample report in full.  The subregular fiber 2q+1 splits into a line")
print("over a fixed point (affine_rank 1: 2 = 2^1 * 1 and 3 = 3^1 * 1 points)")
print("and a fixed projective line (affine_rank 0):")
from enhcone import bipartition
from enhcone.checks import check_alpha_partition
import json

rep = check_alpha_partition(bipartition((), (3,)), bipartition((), (2, 1)))
print(json.dumps(rep.to_json_dict(), indent=2, sort_keys=True))
