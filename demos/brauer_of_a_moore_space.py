"""The flagship worked example: the Brauer group of a small 3-complex.

Glue a 3-cell onto a 2-sphere by a degree-n map.  The resulting complex
has H_2 = Z/n and nothing else above degree 0, its integral H^3 is Z/n
(all torsion), and its cohomological Brauer group Br' is exactly that
torsion.  Because the complex is finite, Br = Br' with a certificate,
and in dimension 3 every class of order r is represented by a bundle of
rank r.
"""

from cwbrauer.chaincx import cohomology, homology
from cwbrauer.spaces import (brauer_prime, equality_certificate,
                             min_bundle_rank, moore_3cell, space_homology)

n = 6
x = moore_3cell(n)
print(f"space: one 0-cell, one 2-cell, one 3-cell attached by degree {n}")
print(f"cell counts: {x.chains.ranks}")

print("\nhomology:")
for k in range(4):
    print(f"  H_{k} =", space_homology(x, k))

print("\nintegral cohomology (note the torsion shifted up one degree):")
for k in range(4):
    print(f"  H^{k} =", cohomology(x.chains, k))

bp = brauer_prime(x)
print("\nBr' = torsion of H^3 =", bp)
assert bp == homology(x.chains, 2)   # = H_2 = Z/n for this space

cert = equality_certificate(x)
print(f"Br = Br'? {cert.verdict} by {cert.reason}")
print(f"  witness: {cert.witness}")
print(f"  every applicable rule: {cert.applicable_rules}")

print("\nminimal bundle ranks (dimension 3 <= 4, so rank = class order):")
for r in (1, 2, 3, 6):
    print(f"  a class of order {r} needs rank {min_bundle_rank(x, r)}")

# The same space through the command line:
#   cwbrauer brauer 'moore3(6)'
#   cwbrauer --json --trace homology 'moore3(6)' 2
