"""Inverse limits over eventually periodic towers, and when lim^1 dies.

A tower ... -> A_2 -> A_1 -> A_0 with an eventually periodic tail is
described by finitely many groups and maps.  The derived limit lim^1 is
the obstruction to computing cohomology of an infinite union from its
skeleta, so certifying that it vanishes is what licenses a
skeleton-by-skeleton computation.  Two sufficient conditions are
checked: all groups finite, and the Mittag-Leffler stabilization of
images.  When neither fires, the verdict is honestly INCONCLUSIVE.
"""

from cwbrauer.abgroup import FgAbGroup, GroupHom
from cwbrauer.limits import Tower, lim1_certificate

Z = FgAbGroup.free(1)
z4 = FgAbGroup.cyclic(4)
z8 = FgAbGroup.cyclic(8)

# 1. Finite groups: lim^1 always vanishes, whatever the maps do.
finite = Tower(block=(z4, z8),
               block_links=(GroupHom.scalar(z4, z8, 2),
                            GroupHom.scalar(z8, z4, 1)))
c = lim1_certificate(finite)
print(f"tower of Z/4 and Z/8: {c.verdict} ({c.reason})")
print(f"  {c.witness}")

# 2. Infinite groups with surjective (here: identity) maps satisfy the
# Mittag-Leffler condition: the image chain stabilizes immediately.
constant = Tower(block=(Z,), block_links=(GroupHom.identity(Z),))
c = lim1_certificate(constant)
print(f"\nconstant tower of Z: {c.verdict} ({c.reason})")
print(f"  {c.witness}")

# 3. Multiplication by 2 on Z: images shrink forever (2^k Z).  Nothing
# here proves vanishing -- and indeed lim^1 of this tower is uncountable
# -- but the certificate only reports what it checked.
doubling = Tower(block=(Z,), block_links=(GroupHom.scalar(Z, Z, 2),))
c = lim1_certificate(doubling)
print(f"\ntower Z <-x2- Z <-x2- ...: {c.verdict}")
print(f"  {c.witness}")

# 4. A tower with a finite prefix bolted onto a periodic tail.  The last
# prefix group must equal the last block group -- that is the seam where
# the periodic tail takes over.
z2 = FgAbGroup.cyclic(2)
with_prefix = Tower(
    prefix=(z2, z8),
    prefix_links=(GroupHom.scalar(z8, z2, 1),),    # A_1 = Z/8 -> A_0 = Z/2
    block=(z4, z8),
    block_links=(GroupHom.scalar(z4, z8, 2),
                 GroupHom.scalar(z8, z4, 1)))
print(f"\nstages 0..5 of the prefixed tower: "
      f"{[str(with_prefix.item(i)) for i in range(6)]}")
c = lim1_certificate(with_prefix)
print(f"verdict: {c.verdict} ({c.reason})")
