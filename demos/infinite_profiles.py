"""Infinite direct sums of cyclic groups, symbolically.

A cyclic profile lists summand orders with multiplicities that may be
the infinite cardinal w, so groups like (Z/2)^w stay exact objects.
The exterior square, the Brauer group of the classifying space, and
the certificate machinery for exhibiting classes outside the image of
Br all run on profiles directly.
"""

from cwbrauer.profiles import (AffineExpr, CyclicProfile, OMEGA,
                               ObstructionDescriptor, Rule, brauer_of_bg,
                               format_profile, lambda_square_profile,
                               non_brauer_certificate)

# A profile: (Z/2)^w + (Z/4)^2.  Orders are canonicalized and merged.
p = CyclicProfile.from_pairs([(2, OMEGA), (4, 2)])
print(f"G = {format_profile(p)}")

lam = lambda_square_profile(p)
print(f"Lambda^2(G) = H_2(G) = {format_profile(lam)}")

# Br' of BG for a finite profile is an exact group; for an infinite
# profile it is a structural description of an uncountable product.
small = CyclicProfile.from_pairs([(2, 1), (4, 1), (8, 1)])
print(f"\nBr'(B({format_profile(small)})) = {brauer_of_bg(small)}")

desc = brauer_of_bg(p)
print(f"\nBr'(B({format_profile(p)})) is infinite; what is known exactly:")
print(f"  restricted sum = {format_profile(desc.restricted_sum)}")
print(f"  exponent of the full product = {desc.exponent}")
for note in desc.notes:
    print(f"  - {note}")

# A basic subgroup is all the computation needs: for G = D + B with D
# divisible torsion, Lambda^2(G) = Lambda^2(B), since D (x) B and
# Lambda^2(D) vanish.  Here B = (Z/3)^w.
basic = CyclicProfile.from_pairs([(3, OMEGA)])
print(f"\nH_2 of G = D + {format_profile(basic)}: "
      f"{format_profile(lambda_square_profile(basic))}")

# Certifying a class outside the image of Br: over the infinite
# p-primary profile, a class whose support intervals J_i = (i, 2i]
# grow without bound cannot come from the honest Brauer group.
g = CyclicProfile.from_pairs([(3, OMEGA)])
growing = ObstructionDescriptor(
    rules=(Rule(lo=1, hi=None, lower=AffineExpr(1, 0),
                upper=AffineExpr(2, 0)),))
report = non_brauer_certificate(g, growing)
print(f"\ngrowing intervals J_i = (i, 2i]: {report.verdict}")
print(f"  witness: {report.witness}")

# Bounded intervals |J_i| <= 3 satisfy neither growth condition, so the
# theorem is silent: the class may or may not lie in the image.
bounded = ObstructionDescriptor(
    rules=(Rule(lo=1, hi=200, lower=AffineExpr(1, 0),
                upper=AffineExpr(1, 3)),))
report = non_brauer_certificate(g, bounded)
print(f"\nbounded intervals J_i = (i, i+3]: {report.verdict}")
for text, holds, reason in report.conditions:
    print(f"  [{'ok' if holds else 'no'}] {text}")
