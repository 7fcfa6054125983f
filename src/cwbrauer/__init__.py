"""cwbrauer: exact Brauer-group computations on CW-complex models.

Layers, bottom up, after errors and facts; a module imports only from
the modules before it:

- intlin: exact integer linear algebra (Smith normal form, kernels,
  integral solving) on arbitrary-precision matrices;
- abgroup: finitely generated abelian groups in invariant-factor form
  (a cokernel is `FgAbGroup.from_presentation`) with Hom, Ext^1, tensor,
  Tor_1, exterior square, and the Brauer groups of second
  Eilenberg-MacLane spaces;
- chaincx: chain complexes of free Z-modules - homology, cohomology with
  Z and Z/m coefficients, universal-coefficient splittings, Bockstein
  maps read off Smith diagonals, tensor products;
- limits: eventually periodic sequences (prefix plus repeating block)
  and towers with lim^1 vanishing certificates;
- profiles: direct sums of cyclic groups with finite or countable
  multiplicities, Br'(BG), basic-subgroup reduction, and non-membership
  certificates for descriptor classes;
- spaces: CW-space descriptions (finite, periodic, telescope, catalog),
  the telescope's symbolic H_1 (Z[1/n]) and its Ext^1, Br', phantom
  subgroups, equality certificates, minimal bundle ranks, and the
  recorded-facts catalog;
- grammar, then cli: shared text grammars and the command-line front end.
"""
