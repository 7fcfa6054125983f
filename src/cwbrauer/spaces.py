"""CW-space descriptions and the Brauer-type invariants attached to them.

A SpaceDescription is one of four kinds:

  finite    - a bounded chain complex of free Z-modules (cellular chains);
  periodic  - prefix + repeating block of boundary matrices (an infinite
              complex such as the infinite lens space);
  telescope - the mapping telescope of multiplication self-maps of a
              circle, whose degree-1 homology is a symbolic colimit;
  catalog   - a space whose invariants are recorded facts, not computed
              here (classifying spaces, Eilenberg-MacLane spaces).

The label field is a printable expression tree (what the grammar prints
and parses); the payload fields are derived from it by the builders, so
dataclass equality is exactly "same description".

The cohomological Brauer group is computed as the torsion of
Ext^1(H_2(X), Z), and the phantom subgroup of degree-n cohomology as
Ext^1(H_{n-1}(X)/Torsion, Z).
"""

from __future__ import annotations

from dataclasses import dataclass

from .abgroup import FgAbGroup, Z, brauer_of_k_g_2, ext1
from .chaincx import ChainComplex, homology, tensor_complexes
from .errors import SemanticError, UnsupportedComputation
from .intlin import IntMatrix
from .limits import (DirectedSystem, SymbolicGroup, colimit_symbolic,
                     phantom_of_telescope)
from .profiles import (OMEGA, CyclicProfile, StructuralDescriptor,
                       brauer_of_bg, format_profile, lambda_square_profile)

QZ_TOKEN = "Q/Z"


@dataclass(frozen=True)
class PeriodicComplex:
    """Ranks and boundaries given by a prefix and a repeating block.

    rank(n) = prefix_ranks[n] for n < p, else block_ranks[(n-p) % m];
    boundary(n) = prefix_boundaries[n-1] for 1 <= n < p, else
    block_boundaries[(n-p) % m].  When the prefix is nonempty the last
    prefix rank must equal the last block rank so the wrap maps are
    well shaped; validity (shapes and del del = 0 across seams) is
    checked on an unrolled stretch covering three blocks.
    """

    prefix_ranks: tuple[int, ...] = ()
    prefix_boundaries: tuple[IntMatrix, ...] = ()
    block_ranks: tuple[int, ...] = ()
    block_boundaries: tuple[IntMatrix, ...] = ()

    def __post_init__(self):
        if not self.block_ranks:
            raise SemanticError("periodic complex needs a nonempty block")
        if len(self.block_boundaries) != len(self.block_ranks):
            raise SemanticError("one block boundary per block degree")
        p = len(self.prefix_ranks)
        if p and len(self.prefix_boundaries) != p - 1:
            raise SemanticError("prefix needs p-1 boundaries for p degrees")
        if not p and self.prefix_boundaries:
            raise SemanticError("prefix boundaries without prefix ranks")
        if p and self.prefix_ranks[-1] != self.block_ranks[-1]:
            raise SemanticError(
                "seam mismatch: last prefix rank must equal last block rank")
        # shape and del-del validation happens by unrolling
        self.unroll(p + 3 * len(self.block_ranks) + 1)

    @property
    def period(self) -> int:
        return len(self.block_ranks)

    def rank(self, n: int) -> int:
        if n < 0:
            return 0
        p = len(self.prefix_ranks)
        if n < p:
            return self.prefix_ranks[n]
        return self.block_ranks[(n - p) % self.period]

    def boundary(self, n: int) -> IntMatrix:
        if n < 1:
            return IntMatrix.zeros(self.rank(n - 1), self.rank(n))
        p = len(self.prefix_ranks)
        if n < p:
            return self.prefix_boundaries[n - 1]
        return self.block_boundaries[(n - p) % self.period]

    def unroll(self, top: int) -> ChainComplex:
        ranks = [self.rank(n) for n in range(top + 1)]
        bnds = [self.boundary(n) for n in range(1, top + 1)]
        return ChainComplex(ranks, bnds)

    def dimension(self) -> int | None:
        """Largest degree with cells, or None when infinite-dimensional."""
        if any(self.block_ranks):
            return None
        dim = -1
        for n, r in enumerate(self.prefix_ranks):
            if r:
                dim = n
        return dim


@dataclass(frozen=True)
class SpaceDescription:
    kind: str  # "finite" | "periodic" | "telescope" | "catalog"
    label: tuple
    complex: ChainComplex | None = None
    periodic: PeriodicComplex | None = None
    system: DirectedSystem | None = None

    def __post_init__(self):
        if self.kind not in ("finite", "periodic", "telescope", "catalog"):
            raise SemanticError(f"unknown space kind {self.kind!r}")
        if (self.kind == "finite") != (self.complex is not None):
            raise SemanticError("finite kind carries exactly the complex")
        if (self.kind == "periodic") != (self.periodic is not None):
            raise SemanticError("periodic kind carries exactly the periodic data")
        if (self.kind == "telescope") != (self.system is not None):
            raise SemanticError("telescope kind carries exactly the system")

    def dimension(self) -> int | None:
        """CW dimension; None means infinite."""
        if self.kind == "finite":
            return self.complex.dimension()
        if self.kind == "periodic":
            return self.periodic.dimension()
        if self.kind == "telescope":
            return 2  # circles and cylinders
        return None

    def window(self, n: int) -> tuple[ChainComplex, int]:
        """The cells and boundaries around degree n >= 0, as (c, offset).

        Degree k of the space is degree k - offset of c.  Homology and
        cohomology of c agree with the space's in degrees n-1, n and
        n+1, and c carries del_{n+2} (the Bockstein target needs it).
        A finite complex is returned as stored, with offset 0; a
        periodic one is cut to degrees max(0, n-2) .. n+2, so the cost
        does not depend on n.
        """
        if self.kind == "finite":
            return self.complex, 0
        if self.kind == "periodic":
            per = self.periodic
            lo = max(0, n - 2)
            c = ChainComplex([per.rank(k) for k in range(lo, n + 3)],
                             [per.boundary(k) for k in range(lo + 1, n + 3)])
            return c, lo
        raise UnsupportedComputation(
            f"{self.kind} spaces support homology, brauer, phantom and "
            "certify only; cochain-level commands need a finite or "
            "periodic cell structure")

    def cells(self, n: int) -> int | None:
        """Cells in degree n, when the description records them."""
        if self.kind == "finite":
            return self.complex.rank(n)
        if self.kind == "periodic":
            return self.periodic.rank(n)
        return None


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def sphere(n: int) -> SpaceDescription:
    """S^n as one 0-cell and one n-cell (n >= 1)."""
    if n < 1:
        raise SemanticError("sphere dimension must be >= 1")
    ranks = [1] + [0] * (n - 1) + [1]
    bnds = [IntMatrix.zeros(ranks[k - 1], ranks[k]) for k in range(1, n + 1)]
    return SpaceDescription("finite", ("sphere", (n,)),
                            complex=ChainComplex(ranks, bnds))


def moore_3cell(n: int) -> SpaceDescription:
    """Point, 2-cell, 3-cell; the 3-cell attaches with degree n.

    H_2 = Z/n and the only interesting cohomology is H^3 = Z/n.
    """
    if n < 1:
        raise SemanticError("attachment degree must be >= 1")
    c = ChainComplex([1, 0, 1, 1],
                     [IntMatrix.zeros(1, 0), IntMatrix.zeros(0, 1),
                      IntMatrix([[n]])])
    return SpaceDescription("finite", ("moore3", (n,)), complex=c)


def lens_skeleton(n: int, top: int) -> SpaceDescription:
    """The top-skeleton of the infinite lens space: one cell per degree,
    boundaries alternating 0, x n."""
    if n < 1 or top < 1:
        raise SemanticError("lens parameters must be >= 1")
    ranks = [1] * (top + 1)
    bnds = [IntMatrix([[0]]) if k % 2 else IntMatrix([[n]])
            for k in range(1, top + 1)]
    return SpaceDescription("finite", ("lens", (n, top)),
                            complex=ChainComplex(ranks, bnds))


def lens_periodic(n: int) -> SpaceDescription:
    """The infinite lens space: Z <-0- Z <-n- Z <-0- ... for ever."""
    if n < 1:
        raise SemanticError("lens parameter must be >= 1")
    per = PeriodicComplex(
        prefix_ranks=(), prefix_boundaries=(),
        block_ranks=(1, 1),
        block_boundaries=(IntMatrix([[n]]), IntMatrix([[0]])))
    return SpaceDescription("periodic", ("lens_periodic", (n,)), periodic=per)


def from_complex(c: ChainComplex) -> SpaceDescription:
    return SpaceDescription("finite", ("complex", (c,)), complex=c)


def wedge(parts) -> SpaceDescription:
    """Wedge of finite based complexes, each with a single 0-cell."""
    parts = list(parts)
    if len(parts) < 2:
        raise SemanticError("wedge needs at least two summands")
    for x in parts:
        if x.kind != "finite":
            raise SemanticError("wedge summands must be finite complexes")
        if x.complex.rank(0) != 1:
            raise SemanticError("wedge summands must have exactly one 0-cell")
        if not x.complex.boundary(1).is_zero():
            raise SemanticError("wedge summands must have zero del_1")
    top = max(x.complex.top_degree for x in parts)
    ranks = [1] + [sum(x.complex.rank(k) for x in parts)
                   for k in range(1, top + 1)]
    bnds = []
    for k in range(1, top + 1):
        a = [[0] * ranks[k] for _ in range(ranks[k - 1])]
        if k >= 2:
            r0 = c0 = 0
            for x in parts:
                for i, brow in enumerate(x.complex.boundary(k).to_lists()):
                    a[r0 + i][c0:c0 + len(brow)] = brow
                r0 += x.complex.rank(k - 1)
                c0 += x.complex.rank(k)
        bnds.append(IntMatrix(a, cols=ranks[k]))
    label = ("wedge", tuple(x.label for x in parts))
    return SpaceDescription("finite", label,
                            complex=ChainComplex(ranks, bnds))


def product(a: SpaceDescription, b: SpaceDescription) -> SpaceDescription:
    """Product CW structure via the tensor product of cellular chains."""
    if a.kind != "finite" or b.kind != "finite":
        raise SemanticError("product needs finite complexes")
    label = ("product", (a.label, b.label))
    return SpaceDescription("finite", label,
                            complex=tensor_complexes(a.complex, b.complex))


def telescope_z(multiplier: int) -> SpaceDescription:
    """Mapping telescope of the degree-`multiplier` self-maps of a circle.

    Two-dimensional; H_1 is the colimit of (Z -x k-> Z -x k-> ...).
    """
    return SpaceDescription(
        "telescope", ("telescope", (multiplier,)),
        system=DirectedSystem.telescope_z(multiplier))


def bpgl(n: int) -> SpaceDescription:
    if n < 1:
        raise SemanticError("bpgl parameter must be >= 1")
    return SpaceDescription("catalog", ("bpgl", (n,)))


def k_space(g, j: int) -> SpaceDescription:
    """Eilenberg-MacLane space for g (an FgAbGroup, or the token "Q/Z")."""
    if j < 2:
        raise SemanticError("only j >= 2 is catalogued")
    if not (isinstance(g, FgAbGroup) or g == QZ_TOKEN):
        raise SemanticError("group must be finitely generated or Q/Z")
    if g == QZ_TOKEN and j != 2:
        raise SemanticError("Q/Z is catalogued only for j = 2")
    return SpaceDescription("catalog", ("k", (g, j)))


def bg_profile(p: CyclicProfile) -> SpaceDescription:
    """Classifying space of the discrete torsion group described by p."""
    return SpaceDescription("catalog", ("bg", (p,)))


# ---------------------------------------------------------------------------
# homology across kinds
# ---------------------------------------------------------------------------

def space_homology(x: SpaceDescription, n: int):
    """H_n(x): an FgAbGroup where exact, a SymbolicGroup for telescopes.

    Catalog spaces answer only in the degrees their entries record.
    """
    if n < 0:
        return FgAbGroup.trivial()
    if x.kind in ("finite", "periodic"):
        c, offset = x.window(n)
        return homology(c, n - offset)
    if x.kind == "telescope":
        if n == 0:
            return Z
        if n == 1:
            return colimit_symbolic(x.system)
        return FgAbGroup.trivial()
    return _catalog_homology(x, n)


def _catalog_homology(x: SpaceDescription, n: int):
    head, args = x.label
    if head == "bpgl":
        table = {0: Z, 1: FgAbGroup.trivial(),
                 2: FgAbGroup.cyclic(args[0])}
        if n in table:
            return table[n]
        raise UnsupportedComputation(
            f"H_{n} of BPGL_{args[0]} is not recorded in the catalog")
    if head == "k":
        g, j = args
        if n == 0:
            return Z
        if n < j:
            return FgAbGroup.trivial()
        if n == j:
            if g == QZ_TOKEN:
                raise UnsupportedComputation(
                    "H_2 = Q/Z is not finitely generated and has no atom")
            return g
        raise UnsupportedComputation(
            f"H_{n} of an Eilenberg-MacLane space is not recorded above "
            f"degree {j}")
    if head == "bg":
        p = args[0]
        if n == 0:
            return Z
        if n == 1:
            if p.is_finite:
                return p.to_group()
            raise UnsupportedComputation(
                "H_1 of BG has infinitely many summands")
        if n == 2:
            lam = lambda_square_profile(p)
            if lam.is_finite:
                return lam.to_group()
            raise UnsupportedComputation(
                "H_2 of BG has infinitely many summands")
        raise UnsupportedComputation(
            f"H_{n} of BG is not recorded in the catalog")
    raise UnsupportedComputation(f"homology of {head} is not recorded")


# ---------------------------------------------------------------------------
# Brauer group, phantom subgroup
# ---------------------------------------------------------------------------

def brauer_prime(x: SpaceDescription):
    """Br'(x) = torsion of Ext^1(H_2(x), Z).

    Exact (an FgAbGroup) for finite, periodic and telescope kinds; for
    catalog spaces the recorded group, which for infinite BG profiles is
    a StructuralDescriptor rather than a pretend-exact group.
    """
    if x.kind in ("finite", "periodic"):
        h2 = space_homology(x, 2)
        return ext1(h2, Z).torsion_part()
    if x.kind == "telescope":
        # finite stages are circles; H_2 vanishes
        return FgAbGroup.trivial()
    return catalog_lookup(x).br_prime


def phantom_subgroup(x: SpaceDescription, n: int):
    """Phantom classes in H^n(x): Ext^1(H_{n-1}(x)/Torsion, Z).

    Zero for every finitely generated H_{n-1}; the interesting case is a
    telescope, where the answer is symbolic and typically divisible.
    """
    if n < 1:
        raise SemanticError("phantom degree must be >= 1")
    if x.kind == "telescope" and n == 2:
        return phantom_of_telescope(x.system, n)
    h = space_homology(x, n - 1)
    if isinstance(h, FgAbGroup):
        return ext1(h.free_quotient(), Z)
    # symbolic homology: Ext^1 of its torsion-free quotient
    from .limits import ext1_symbolic, torsion_free_quotient
    return ext1_symbolic(torsion_free_quotient(h))


# ---------------------------------------------------------------------------
# equality certificates
# ---------------------------------------------------------------------------

EQUAL = "EQUAL"
STRICT = "STRICT"
UNKNOWN = "UNKNOWN"

RULE_COMPACT = "CompactSerre"
RULE_DIM4 = "WoodwardDimLe4"
RULE_EVEN = "EvenCells"
RULE_CATALOG = "CatalogTheorem"
RULE_NON_BRAUER = "NonBrauerCondition"

_KNOWN_RULES = (RULE_COMPACT, RULE_DIM4, RULE_EVEN, RULE_CATALOG,
                RULE_NON_BRAUER)


@dataclass(frozen=True)
class EqualityCertificate:
    """Verdict on Br(x) = Br'(x) with the licensing rule.

    reason is the first applicable rule in the fixed priority order;
    also_applicable lists any further rules that fire, so a finite
    4-dimensional even complex shows all three EQUAL rules.
    """

    verdict: str
    reason: str | None
    witness: str
    also_applicable: tuple[str, ...] = ()

    def __post_init__(self):
        if self.verdict not in (EQUAL, STRICT, UNKNOWN):
            raise SemanticError(f"bad verdict {self.verdict!r}")
        if (self.verdict == UNKNOWN) != (self.reason is None):
            raise SemanticError("EQUAL/STRICT carry a reason, UNKNOWN does not")
        if self.reason is not None and self.reason not in _KNOWN_RULES:
            raise SemanticError(f"unknown rule {self.reason!r}")

    @property
    def applicable_rules(self) -> tuple[str, ...]:
        return ((self.reason,) if self.reason else ()) + self.also_applicable


def _no_odd_cells_high(x: SpaceDescription) -> bool | None:
    """True/False for finite-dimensional descriptions, None when the
    dimension is infinite (the even-cell rule then never applies)."""
    dim = x.dimension()
    if dim is None:
        return None
    if x.kind == "finite":
        ranks = x.complex.ranks
    elif x.kind == "periodic":
        ranks = x.periodic.prefix_ranks  # block is all zero here
    elif x.kind == "telescope":
        ranks = ()
    else:
        return None
    return not any(r and d >= 5 and d % 2 == 1 for d, r in enumerate(ranks))


def equality_certificate(x: SpaceDescription) -> EqualityCertificate:
    """Fixed-priority rule engine; all EQUAL rules are theorems, so the
    order only decides which one is cited first."""
    fired: list[tuple[str, str, str]] = []  # (rule, verdict, note)
    if x.kind == "finite":
        fired.append((RULE_COMPACT, EQUAL,
                      "finite CW complexes are compact"))
    dim = x.dimension()
    if dim is not None and dim <= 4:
        fired.append((RULE_DIM4, EQUAL,
                      f"dimension {dim} <= 4"))
    even = _no_odd_cells_high(x)
    if even:
        fired.append((RULE_EVEN, EQUAL,
                      "finite-dimensional with no odd cells of "
                      "dimension >= 5"))
    if x.kind == "catalog":
        entry = catalog_lookup(x)
        if entry.verdict in (EQUAL, STRICT):
            fired.append((RULE_CATALOG, entry.verdict, entry.equality_note))
    if not fired:
        return EqualityCertificate(
            UNKNOWN, None,
            "no equality or strictness rule applies to this description")
    rule, verdict, note = fired[0]
    others = tuple(r for r, _, _ in fired[1:])
    witness = note
    if others:
        witness += "; also applicable: " + ", ".join(
            f"{r} ({n})" for r, _, n in fired[1:])
    return EqualityCertificate(verdict, rule, witness, others)


def certificate_from_descriptor(profile: CyclicProfile,
                                report) -> EqualityCertificate:
    """Turn a CERTIFIED_NOT_IN_BR descriptor check into a strictness
    certificate for the corresponding BG."""
    if report.verdict != "CERTIFIED_NOT_IN_BR":
        raise SemanticError("only certified descriptors witness strictness")
    return EqualityCertificate(
        STRICT, RULE_NON_BRAUER,
        "a class of Br'(BG) certified to lie outside the image of Br: "
        + report.witness)


def min_bundle_rank(x: SpaceDescription, alpha_order: int) -> int | None:
    """Smallest rank of a bundle representing a class of the given order.

    Defined when the order is realizable in Br'(x).  Equal to the order
    itself in dimension <= 4; None (unknown) otherwise.
    """
    if alpha_order < 1:
        raise SemanticError("class order must be >= 1")
    bp = brauer_prime(x)
    if isinstance(bp, FgAbGroup):
        exponent = bp.exponent()
    elif isinstance(bp, StructuralDescriptor):
        exponent = bp.exponent
    else:
        raise UnsupportedComputation("Br' exponent is not available")
    if exponent % alpha_order != 0:
        raise SemanticError(
            f"no class of order {alpha_order} in Br' (exponent {exponent})")
    if alpha_order == 1:
        return 1  # the zero class is any line bundle
    dim = x.dimension()
    if dim is not None and dim <= 4:
        return alpha_order
    return None


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    """A recorded fact: groups and verdicts are literature data, flagged
    as such, never computed from a cell structure."""

    name: str
    br_prime: object  # FgAbGroup | StructuralDescriptor | None (fact-only)
    br: object        # FgAbGroup | None when unknown
    verdict: str      # EQUAL | STRICT | UNKNOWN
    equality_note: str
    citations: tuple[str, ...]
    notes: tuple[str, ...] = ()


def catalog_lookup(x) -> CatalogEntry:
    """Catalog record for a catalog-kind space or a named fact string."""
    if isinstance(x, str):
        return _fact_entry(x)
    if not isinstance(x, SpaceDescription) or x.kind != "catalog":
        raise SemanticError("catalog_lookup needs a catalog space or a name")
    head, args = x.label
    if head == "bpgl":
        n = args[0]
        g = FgAbGroup.cyclic(n) if n > 1 else FgAbGroup.trivial()
        return CatalogEntry(
            name=f"bpgl({n})",
            br_prime=g, br=g, verdict=EQUAL,
            equality_note=("the obstruction class of the universal "
                           "projective bundle generates Br' and is the "
                           "image of a Brauer class"),
            citations=("bpgl-brauer",),
            notes=("recorded fact; not computed from a cell structure",))
    if head == "k":
        g, j = args
        if j >= 3:
            return CatalogEntry(
                name=f"k({g if isinstance(g, str) else g}, {j})",
                br_prime=FgAbGroup.trivial(), br=FgAbGroup.trivial(),
                verdict=EQUAL,
                equality_note="H_2 vanishes, so Br' = 0 and Br = Br' trivially",
                citations=("brauer-cw-formula",),
                notes=("recorded fact; not computed from a cell structure",))
        if g == QZ_TOKEN:
            return CatalogEntry(
                name="k(Q/Z, 2)",
                br_prime=FgAbGroup.trivial(), br=FgAbGroup.trivial(),
                verdict=EQUAL,
                equality_note=("H_2 = Q/Z is divisible, so Ext^1(H_2, Z) "
                               "is torsion-free and Br' = 0"),
                citations=("vanishing-divisible-free",),
                notes=("recorded fact; not computed from a cell structure",))
        data = brauer_of_k_g_2(g)
        if data.strict:
            verdict, note = STRICT, (
                "Br of a second Eilenberg-MacLane space with torsion "
                "vanishes while Br' is its torsion subgroup")
        else:
            verdict, note = EQUAL, "both Br and Br' vanish for torsion-free g"
        return CatalogEntry(
            name=f"k({g}, 2)",
            br_prime=data.br_prime, br=data.br, verdict=verdict,
            equality_note=note,
            citations=("kg2-trivial-brauer", "kg2-containment"),
            notes=(data.note,
                   "recorded fact; not computed from a cell structure"))
    if head == "bg":
        p = args[0]
        bp = brauer_of_bg(p)
        prime = p.primary_prime()
        infinite = p.total_multiplicity() is OMEGA
        if prime is not None and infinite:
            return CatalogEntry(
                name=f"bg({format_profile(p)})",
                br_prime=bp, br=None, verdict=STRICT,
                equality_note=("p-primary with an infinite basic subgroup: "
                               "a witness class lies in Br' but not in the "
                               "image of Br"),
                citations=("bg-brauer-formula", "bg-strict"),
                notes=("recorded fact; not computed from a cell structure",))
        return CatalogEntry(
            name=f"bg({format_profile(p)})",
            br_prime=bp, br=None, verdict=UNKNOWN,
            equality_note=("no recorded theorem decides Br = Br' for this "
                           "profile"),
            citations=("bg-brauer-formula",),
            notes=("recorded fact; not computed from a cell structure",))
    raise SemanticError(f"no catalog entry for {head!r}")


_FACTS_ONLY = {
    "plus_construction": CatalogEntry(
        name="plus_construction",
        br_prime=None, br=None, verdict=UNKNOWN,
        equality_note="not an equality statement",
        citations=("plus-construction",),
        notes=("the plus construction changes neither Br nor Br': both "
               "restriction maps are bijective",)),
    "compact_realization": CatalogEntry(
        name="compact_realization",
        br_prime=None, br=None, verdict=UNKNOWN,
        equality_note="not an equality statement",
        citations=("compact-realization",),
        notes=("every torsion abelian group occurs as the Brauer group "
               "of some compact Hausdorff space",)),
}


def _fact_entry(name: str) -> CatalogEntry:
    try:
        return _FACTS_ONLY[name]
    except KeyError:
        raise SemanticError(f"no catalog entry named {name!r}") from None
