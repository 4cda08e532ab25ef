#!/usr/bin/env python3
"""Orbits of the enhanced nilpotent cone and their diagrams.

Pairs (v, x) of a vector and a nilpotent endomorphism of an
n-dimensional space, up to the GL(V)-action, are indexed by
bipartitions (mu; nu) with |mu| + |nu| = n.  Each bipartition has a
back-to-back union diagram whose column counts define the partial flag
shape of a resolution of the orbit closure.
"""

from enhcone import (
    bipartition,
    bipartitions,
    diagram,
    flag_shape,
    is_distinguished,
    normal_pair,
    orbit_dimension,
)


def render(b):
    """ASCII picture of the back-to-back union diagram."""
    d = diagram(b)
    lines = []
    for row in d.rows:
        cells = ["  "] * (row.first_col - 1) + ["[]"] * (row.last_col - row.first_col + 1)
        lines.append("".join(cells))
    return "\n".join(lines)


print("All bipartitions of n = 3, with diagram data:")
for b in bipartitions(3):
    fs = flag_shape(b)
    print(
        f"  {str(b):18} heights={diagram(b).column_heights}  "
        f"flag dims={fs.dims}  j={fs.marker}  dim of orbit={orbit_dimension(b)}"
        f"{'  distinguished' if is_distinguished(b) else ''}"
    )

print()
b = bipartition((3, 1, 1), (3, 2))
print(f"The diagram of {b} (mu right-justified against column 3):")
print(render(b))
fs = flag_shape(b)
print(f"column heights: {diagram(b).column_heights}")
print(f"flag dimensions: {fs.dims}, vector required in step j = {fs.marker}")

print()
print("Each box (i, j) carries the weight mu_i - j; the normal pair's")
print("nilpotent shifts boxes left and the vector sits at the mu-boundary:")
np_ = normal_pair(b, 2)
for (i, j), w in zip(np_.basis_labels, np_.weights):
    marker = "  <- v-support" if np_.v[np_.basis_labels.index((i, j))] else ""
    assert w == b.first.part(i) - j
    print(f"  box ({i},{j}): weight {w:+d}{marker}")
