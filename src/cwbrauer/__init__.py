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
  Z and Z/m coefficients, universal-coefficient splittings, cochain-level
  Bockstein maps, tensor products;
- limits: eventually periodic sequences (prefix plus repeating block),
  towers with lim^1 vanishing certificates, symbolic colimits, symbolic
  Ext^1, first Ulm subgroups, telescope phantom groups;
- profiles: direct sums of cyclic groups with finite or countable
  multiplicities, Br'(BG), basic-subgroup reduction, and non-membership
  certificates for descriptor classes;
- spaces: CW-space descriptions (finite, periodic, telescope, catalog),
  Br', phantom subgroups, equality certificates, minimal bundle ranks,
  and the recorded-facts catalog;
- grammar, then cli: shared text grammars and the command-line front end.
"""

from .abgroup import (FgAbGroup, GroupHom, KG2Brauer, Z, brauer_of_k_g_2,
                      exterior_square, ext1, h2_of_abelian_group, hom,
                      tensor, tor1)
from .chaincx import (ChainComplex, SubquotientPresentation,
                      UctDecomposition, bockstein, cohomology, homology,
                      random_complex, tensor_complexes, truncate,
                      uct_decompose)
from .errors import ParseError, SemanticError, UnsupportedComputation
from .facts import FACTS, citation, known_fact_keys
from .grammar import (format_complex, format_descriptor, format_group,
                      format_profile, format_space, format_tower,
                      parse_complex, parse_descriptor, parse_group,
                      parse_profile, parse_space, parse_tower)
from .intlin import (IntMatrix, SmithForm, determinant, kernel_basis,
                     smith_form, smith_invariants, smith_normal_form,
                     solve_integral, unimodular_inverse)
from .limits import (ConstantStrand, DirectedSystem, Lim1Certificate,
                     MultiplicationStrand, PruferStrand, SymbolicGroup,
                     Tower, colimit_symbolic, ext1_symbolic, first_ulm,
                     lim1_certificate, phantom_of_telescope,
                     torsion_free_quotient)
from .profiles import (OMEGA, AffineExpr, BasicReduction, CertificateReport,
                       CyclicProfile, ObstructionDescriptor, Rule,
                       StructuralDescriptor, SymbolicTorsionGroup,
                       brauer_of_bg, lambda_square_profile,
                       non_brauer_certificate, reduce_to_basic)
from .spaces import (CatalogEntry, EqualityCertificate, PeriodicComplex,
                     SpaceDescription, bg_profile, bpgl, brauer_prime,
                     catalog_lookup, equality_certificate, from_complex,
                     k_space, lens_periodic, lens_skeleton, min_bundle_rank,
                     moore_3cell, phantom_subgroup, product, space_homology,
                     sphere, telescope_z, wedge)

__version__ = "0.1.0"

__all__ = [
    "AffineExpr", "BasicReduction", "CatalogEntry", "CertificateReport",
    "ChainComplex", "ConstantStrand", "CyclicProfile", "DirectedSystem",
    "EqualityCertificate", "FACTS", "FgAbGroup", "GroupHom", "IntMatrix",
    "KG2Brauer", "Lim1Certificate", "MultiplicationStrand",
    "ObstructionDescriptor", "OMEGA", "ParseError", "PeriodicComplex",
    "PruferStrand", "Rule", "SemanticError", "SmithForm",
    "SpaceDescription", "StructuralDescriptor", "SubquotientPresentation",
    "SymbolicGroup", "SymbolicTorsionGroup", "Tower", "UctDecomposition",
    "UnsupportedComputation", "Z",
    "bg_profile", "bockstein", "bpgl", "brauer_of_bg", "brauer_of_k_g_2",
    "brauer_prime", "catalog_lookup", "citation", "cohomology",
    "colimit_symbolic", "determinant",
    "equality_certificate", "ext1", "ext1_symbolic", "exterior_square",
    "first_ulm", "format_complex", "format_descriptor", "format_group",
    "format_profile", "format_space", "format_tower", "from_complex",
    "h2_of_abelian_group", "hom", "homology", "k_space", "kernel_basis",
    "known_fact_keys", "lambda_square_profile", "lens_periodic",
    "lens_skeleton", "lim1_certificate", "min_bundle_rank", "moore_3cell",
    "non_brauer_certificate", "parse_complex", "parse_descriptor",
    "parse_group", "parse_profile", "parse_space", "parse_tower",
    "phantom_of_telescope", "phantom_subgroup", "product", "random_complex",
    "reduce_to_basic", "smith_form", "smith_invariants", "smith_normal_form",
    "solve_integral", "space_homology", "sphere", "telescope_z", "tensor",
    "tensor_complexes", "tor1", "torsion_free_quotient", "truncate",
    "uct_decompose", "unimodular_inverse", "wedge",
]
