"""Registry of the standard results the toolkit leans on.

Each entry is a stable identifier plus a one-sentence statement of a
well-known theorem.  Reports cite these identifiers so that every
theorem-backed answer names the mathematics licensing it.
"""

from __future__ import annotations

FACTS: dict[str, str] = {
    "brauer-cw-formula":
        "For a CW-complex X the cohomological Brauer group Br'(X) is the "
        "torsion subgroup of H^3(X; Z), naturally isomorphic to the "
        "torsion of Ext^1(H_2(X), Z).",
    "compact-equality":
        "For a compact space (in particular a finite CW-complex) the "
        "Brauer group equals the cohomological Brauer group.",
    "woodward-dim4":
        "For a CW-complex of dimension at most 4, Br = Br' and every "
        "class of order n is represented by a bundle of rank n.",
    "even-cells":
        "For a finite-dimensional CW-complex with no odd-dimensional "
        "cells in dimensions 5 and above, Br = Br'.",
    "kg2-trivial-brauer":
        "For a finitely generated abelian group G, the Brauer group of "
        "K(G, 2) is trivial: Br embeds in Ext^1 of the torsion-free "
        "quotient of G, which vanishes.",
    "kg2-containment":
        "Br(X) always sits inside Br'(X); for K(G, 2) the cohomological "
        "side is the torsion of Ext^1(G, Z), i.e. the torsion subgroup "
        "of G when G is finitely generated.",
    "phantom-formula":
        "Phantom classes in H^n(X; Z) form the subgroup "
        "Ext^1(H_{n-1}(X)/Torsion, Z); they vanish whenever that "
        "quotient is finitely generated (in particular free).",
    "jensen-finite":
        "An inverse sequence of finite abelian groups has vanishing "
        "lim^1.",
    "mittag-leffler":
        "An inverse sequence whose images stabilize (the Mittag-Leffler "
        "condition) has vanishing lim^1.",
    "h2-exterior-square":
        "For an abelian group G, the second integral homology of the "
        "classifying space BG is the exterior square of G.",
    "bg-brauer-formula":
        "For a torsion abelian group G, Br'(BG) is the torsion of "
        "Ext^1 of the exterior square of G; for direct sums of cyclic "
        "groups this is computed summand by summand from gcds.",
    "bg-strict":
        "For an infinite p-primary torsion group that is a direct sum "
        "of cyclic groups, Br(BG) is strictly smaller than Br'(BG): an "
        "explicit class fails the finite-rank obstruction bound.",
    "bpgl-brauer":
        "Br(BPGL_n) = Br'(BPGL_n) = Z/n, generated by the obstruction "
        "class of the universal projective bundle.",
    "plus-construction":
        "The plus construction induces isomorphisms on both Br and Br'.",
    "compact-realization":
        "Every torsion abelian group is the Brauer group of some "
        "compact Hausdorff space.",
    "ext-divisible":
        "Ext^1(A, Z) is divisible whenever A is torsion-free; for "
        "A = Z[1/p] it is an uncountable divisible group, and for "
        "A = Q it is a rational vector space of continuum dimension.",
    "pext-ulm":
        "The phantom (pure-Ext) part of Ext^1(A, Z) is the first Ulm "
        "subgroup - the maximal divisible part - of Ext^1(A, Z).",
    "bockstein-sequence":
        "The long exact sequence of 0 -> Z -x m-> Z -> Z/m -> 0 yields "
        "the Bockstein homomorphism H^n(X; Z/m) -> H^{n+1}(X; Z).",
    "universal-coefficients":
        "H^n(X; Z) is isomorphic to Ext^1(H_{n-1}(X), Z) + "
        "Hom(H_n(X), Z), naturally split but not naturally so.",
    "kunneth-formula":
        "The homology of a product of CW-complexes is computed by the "
        "tensor product of cellular chain complexes.",
    "vanishing-divisible-free":
        "Ext^1(A, Z) is torsion-free whenever A is divisible; hence a "
        "divisible H_2 forces Br' = 0.",
    "basic-subgroup":
        "Every p-primary abelian group has a basic subgroup: a pure, "
        "dense direct sum of cyclic groups with divisible quotient; "
        "Brauer computations for BG factor through it.",
    "smith-normal-form":
        "Every integer matrix A factors as U A V = S with U, V "
        "unimodular and S diagonal with a divisibility chain; the "
        "diagonal is determined by gcds of minors.",
}

