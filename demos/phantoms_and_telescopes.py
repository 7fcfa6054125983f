"""Phantom cohomology classes: invisible on every finite piece.

A phantom class restricts to zero on each skeleton yet is nonzero on the
whole space; the group of them in degree n is Ext^1 of the torsion-free
quotient of H_{n-1}.  Finitely generated homology forces that group to
vanish, so finite complexes have no phantoms anywhere.  A mapping
telescope of degree-k circle maps is the classical machine that makes
the group enormous: H_1 becomes Z[1/k], and Ext^1(Z[1/k], Z) is an
uncountable divisible group.
"""

from cwbrauer.grammar import format_space
from cwbrauer.spaces import (lens_periodic, moore_3cell, phantom_subgroup,
                             product, space_homology, sphere, telescope_z)

# 1. Finite complexes: every phantom group is zero, in every degree.
finite = product(moore_3cell(4), sphere(2))
print(f"finite space {format_space(finite)}:")
for n in range(1, 7):
    ph = phantom_subgroup(finite, n)
    assert ph.is_trivial
    print(f"  phantoms in H^{n}: {ph}")

# 2. Infinite-dimensional but with finitely generated homology in each
# degree: still no phantoms (the periodic lens-like complex).
lp = lens_periodic(3)
print(f"\nperiodic space {format_space(lp)} (infinite-dimensional):")
for n in (2, 3, 7, 12):
    ph = phantom_subgroup(lp, n)
    assert ph.is_trivial
    print(f"  phantoms in H^{n}: {ph}")

# 3. The telescope of multiplication by 6 on a circle.
tel = telescope_z(6)
h1 = space_homology(tel, 1)
print(f"\ntelescope of x6 maps: H_1 = colimit = {h1.describe()}")

ph2 = phantom_subgroup(tel, 2)
print(f"  phantoms in H^2: {ph2.describe()}")
print(f"  nonzero: {ph2.nonzero},  divisible: {ph2.divisible}")
assert ph2.nonzero and ph2.divisible

# Divisibility is why no finite-stage computation can see these classes:
# restriction to a skeleton factors through a finitely generated group,
# and the only divisible subgroup of one of those is zero.
