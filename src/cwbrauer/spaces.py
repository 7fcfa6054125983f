"""CW-space descriptions and the Brauer-type invariants attached to them.

A SpaceDescription is a label plus at most one cell structure, and its
kind is read off what it holds:

  finite    - cells is a ChainComplex, a bounded chain complex of free
              Z-modules (cellular chains);
  periodic  - cells is a PeriodicComplex, prefix + repeating block of
              boundary matrices (an infinite complex such as the
              infinite lens space);
  telescope - no cells, and the label ("telescope", (k,)) names the
              degree k of the self-maps of a circle whose mapping
              telescope this is (read as `multiplier`); its H_1 and the
              phantom part of its H^2 are SymbolicGroups in closed form
              in k;
  catalog   - no cells: a space whose invariants are recorded facts, not
              computed here (classifying spaces, Eilenberg-MacLane spaces).

The label is a printable expression tree (what the grammar prints and
parses); cells are derived from it by the builders, so dataclass
equality is exactly "same description".

Every builder that makes chains (`sphere`, `moore_3cell`,
`lens_skeleton`, `lens_periodic`, `wedge`, `product`, `from_complex`,
`literal`) returns a space from one LRU with one key per space,
bounded in cells: the spaces it keeps weigh at most `MAX_BUILT_CELLS`
together, each 1 plus the cells of its chains and of the literals its
label names, and one space over the budget is kept alone.  A space is
kept under its label, save a `complex{...}` literal the grammar reads
whole, which is kept under its exact text: `literal` finds it there
before the grammar scans or converts any of it, and reads it only on a
miss, so a literal repeated in a session is read once.  A second
spelling of the same chains is a second key and an equal space.  A key
determines its space and a space is never changed, so every request on
the same space text shares one object: its boundary matrices and the
Smith diagonals they keep.  A builder that refuses its arguments keeps nothing.  A finite
complex is labelled by the value of its chains, ("complex", (ranks,
boundaries)).  The cache lives as long as the process.
A catalog space is built per request and keeps its `catalog_entry`,
looked up on the first read, so a request reads the catalog once.

Chain-level code reads a finite or periodic space through its `chains`:
the stored ChainComplex or PeriodicComplex itself, which answers
rank(n) and boundary(n) at every degree n.  Nothing is copied into a
window, so every degree is the space's own.

The cohomological Brauer group is computed as the torsion of
Ext^1(H_2(X), Z), and the phantom subgroup of degree-n cohomology as
Ext^1(H_{n-1}(X)/Torsion, Z).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

from .abgroup import FgAbGroup, Z, _prime_factors, brauer_of_k_g_2, ext1
from .chaincx import ChainComplex, homology, tensor_complexes
from .errors import SemanticError, UnsupportedComputation
from .intlin import IntMatrix
from .limits import EventuallyPeriodic
from .profiles import (OMEGA, CyclicProfile, StructuralDescriptor,
                       brauer_of_bg, lambda_square_profile)

QZ_TOKEN = "Q/Z"


class PeriodicComplex(EventuallyPeriodic):
    """Chains given by a prefix and a repeating block: item(n) is the
    rank of C_n and link(n) the boundary C_n -> C_{n-1}.

    Past the counts, validity (shapes, del del = 0) is checked on the
    unrolled stretch 0 .. p + m + 1, which holds every boundary and every
    consecutive pair at least once: those inside the prefix, the
    prefix-to-block seam and the block wrap.  The first block boundary
    leaves both the last prefix rank and the last block rank, so a seam
    whose two ranks differ has a wrong shape there.
    """

    def __post_init__(self):
        super().__post_init__()
        self.unroll(len(self.prefix) + self.period + 1)

    def rank(self, n: int) -> int:
        return self.item(n) if n >= 0 else 0

    def boundary(self, n: int) -> IntMatrix:
        if n < 1:
            return IntMatrix.zeros(self.rank(n - 1), self.rank(n))
        return self.link(n)

    def unroll(self, top: int) -> ChainComplex:
        ranks = [self.rank(n) for n in range(top + 1)]
        bnds = [self.boundary(n) for n in range(1, top + 1)]
        return ChainComplex(ranks, bnds)

    def dimension(self) -> int | None:
        """Largest degree with cells, or None when infinite-dimensional."""
        if any(self.block):
            return None
        dim = -1
        for n, r in enumerate(self.prefix):
            if r:
                dim = n
        return dim


@dataclass(frozen=True)
class SpaceDescription:
    label: tuple
    cells: ChainComplex | PeriodicComplex | None = None

    @property
    def kind(self) -> str:
        """finite, periodic, telescope or catalog: read off the cells,
        or without them off the label's head."""
        if self.cells is not None:
            return ("finite" if isinstance(self.cells, ChainComplex)
                    else "periodic")
        return "telescope" if self.label[0] == "telescope" else "catalog"

    @property
    def multiplier(self) -> int:
        """A telescope's k, the first argument of its label."""
        return self.label[1][0]

    def dimension(self) -> int | None:
        """CW dimension; None means infinite."""
        if self.cells is not None:
            return self.cells.dimension()
        return 2 if self.kind == "telescope" else None  # circles, cylinders

    @property
    def chains(self) -> ChainComplex | PeriodicComplex:
        """The cellular chains, read through rank(n) and boundary(n) at
        any degree n: the stored complex itself, never a copy.  A
        periodic space answers at degree 10^9 as cheaply as at 10."""
        if self.cells is None:
            raise UnsupportedComputation(
                f"{self.kind} spaces support homology, brauer, phantom and "
                "certify only; cochain-level commands need a finite or "
                "periodic cell structure")
        return self.cells

    @cached_property
    def catalog_entry(self) -> "CatalogEntry":
        """A catalog space's recorded facts, looked up on the first read."""
        return _catalog_entry(self)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

# Cells that _built keeps, counted by _weight: twice the grammar's
# MAX_COMPLEX_CELLS, so a product of two literals under that cap is kept
# with both of them, and a repeat of the request builds nothing.
MAX_BUILT_CELLS = 1024


class _KeptSpaces(OrderedDict):
    """Built spaces by key, least recently used first, and the sum of
    their weights.  clear() empties both."""

    def __init__(self):
        super().__init__()
        self.weight = 0

    def clear(self):
        super().clear()
        self.weight = 0


_built_spaces = _KeptSpaces()


def _literal_cells(label: tuple) -> int:
    """Cells of the complex{...} literals a label names: a literal's
    label holds its matrices, and a product's or wedge's the labels of
    its parts."""
    head, args = label
    if head == "complex":
        return sum(args[0])
    if head in ("product", "wedge"):
        return sum(map(_literal_cells, args))
    return 0


def _weight(x: SpaceDescription) -> int:
    """1 plus the cells x keeps alive: those of its chains, and those of
    the literals its label names besides them (a product with a 0-cell
    factor has no cells, but its label keeps the other's matrices)."""
    c = x.cells
    own = (sum(c.ranks) if isinstance(c, ChainComplex)
           else sum(c.prefix) + sum(c.block))
    return 1 + own + (0 if x.label[0] == "complex"
                      else _literal_cells(x.label))


def _built(label: tuple, chains, key=None) -> SpaceDescription:
    """The space kept under key (by default its label): the kept one,
    or on a miss a new one whose chains are chains(), a ChainComplex or
    a PeriodicComplex.  A miss evicts the least recently used spaces
    until the kept weight fits MAX_BUILT_CELLS, but never the space it
    built."""
    kept = _built_spaces
    key = label if key is None else key
    x = kept.get(key)
    if x is not None:
        kept.move_to_end(key)
        return x
    x = SpaceDescription(label, chains())
    kept[key] = x
    kept.weight += _weight(x)
    while kept.weight > MAX_BUILT_CELLS and len(kept) > 1:
        kept.weight -= _weight(kept.popitem(last=False)[1])
    return x


def sphere(n: int) -> SpaceDescription:
    """S^n as one 0-cell and one n-cell (n >= 1)."""
    if n < 1:
        raise SemanticError("sphere dimension must be >= 1")
    return _built(("sphere", (n,)), lambda: ChainComplex.from_entries(
        [1] + [0] * (n - 1) + [1], ()))


def moore_3cell(n: int) -> SpaceDescription:
    """Point, 2-cell, 3-cell; the 3-cell attaches with degree n.

    H_2 = Z/n and the only interesting cohomology is H^3 = Z/n.
    """
    if n < 1:
        raise SemanticError("attachment degree must be >= 1")
    return _built(("moore3", (n,)), lambda: ChainComplex.from_entries(
        [1, 0, 1, 1], [(3, 0, 0, n)]))


def lens_skeleton(n: int, top: int) -> SpaceDescription:
    """The top-skeleton of the infinite lens space: one cell per degree,
    boundaries alternating 0, x n."""
    if n < 1 or top < 1:
        raise SemanticError("lens parameters must be >= 1")
    return _built(("lens", (n, top)), lambda: ChainComplex.from_entries(
        [1] * (top + 1), [(k, 0, 0, n) for k in range(2, top + 1, 2)]))


def lens_periodic(n: int) -> SpaceDescription:
    """The infinite lens space: Z <-0- Z <-n- Z <-0- ... for ever."""
    if n < 1:
        raise SemanticError("lens parameter must be >= 1")
    return _built(("lens_periodic", (n,)), lambda: PeriodicComplex(
        block=(1, 1), block_links=(IntMatrix([[n]]), IntMatrix([[0]]))))


def from_complex(c: ChainComplex) -> SpaceDescription:
    return _built(("complex", (c.ranks, c.boundaries)), lambda: c)


def literal(text: str, read) -> SpaceDescription:
    """The space of the complex{...} literal spelled exactly text: the
    one kept under text, now the most recently used, or on a miss the
    complex of the (ranks, boundaries) that read() returns, built, and
    checked for del del = 0, and kept under text."""
    x = _built_spaces.get(text)
    if x is None:
        ranks, boundaries = read()
        return _built(("complex", (ranks, boundaries)),
                      lambda: ChainComplex(ranks, boundaries), text)
    _built_spaces.move_to_end(text)
    return x


def wedge(parts) -> SpaceDescription:
    """Wedge of finite based complexes, each with a single 0-cell."""
    parts = list(parts)
    if len(parts) < 2:
        raise SemanticError("wedge needs at least two summands")
    for x in parts:
        if x.kind != "finite":
            raise SemanticError("wedge summands must be finite complexes")
        if x.cells.rank(0) != 1:
            raise SemanticError("wedge summands must have exactly one 0-cell")
        if not x.cells.boundary(1).is_zero():
            raise SemanticError("wedge summands must have zero del_1")

    def chains():
        top = max(x.cells.top_degree for x in parts)
        shift, entries = [0] * (top + 1), []  # cells of earlier summands
        for x in parts:
            entries += [(k, shift[k - 1] + i, shift[k] + j, v)
                        for k, b in enumerate(x.cells.boundaries[1:], start=2)
                        for i, j, v in b.nonzeros()]
            for k, r in enumerate(x.cells.ranks):
                shift[k] += r
        return ChainComplex.from_entries([1] + shift[1:], entries)
    return _built(("wedge", tuple(x.label for x in parts)), chains)


def product(a: SpaceDescription, b: SpaceDescription) -> SpaceDescription:
    """Product CW structure via the tensor product of cellular chains."""
    if a.kind != "finite" or b.kind != "finite":
        raise SemanticError("product needs finite complexes")
    return _built(("product", (a.label, b.label)),
                  lambda: tensor_complexes(a.cells, b.cells))


def telescope_z(multiplier: int) -> SpaceDescription:
    """Mapping telescope of the degree-`multiplier` self-maps of a circle.

    Two-dimensional; H_1 is the colimit of (Z -x k-> Z -x k-> ...).
    """
    return SpaceDescription(("telescope", (multiplier,)))


def bpgl(n: int) -> SpaceDescription:
    if n < 1:
        raise SemanticError("bpgl parameter must be >= 1")
    return SpaceDescription(("bpgl", (n,)))


def k_space(g, j: int) -> SpaceDescription:
    """Eilenberg-MacLane space for g (an FgAbGroup, or the token "Q/Z")."""
    if j < 2:
        raise SemanticError("only j >= 2 is catalogued")
    if not (isinstance(g, FgAbGroup) or g == QZ_TOKEN):
        raise SemanticError("group must be finitely generated or Q/Z")
    if g == QZ_TOKEN and j != 2:
        raise SemanticError("Q/Z is catalogued only for j = 2")
    return SpaceDescription(("k", (g, j)))


def bg_profile(p: CyclicProfile) -> SpaceDescription:
    """Classifying space of the discrete torsion group described by p."""
    return SpaceDescription(("bg", (p,)))


# ---------------------------------------------------------------------------
# homology across kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolicGroup:
    """A telescope's group that no FgAbGroup holds: its description and
    four property flags.  The default is the zero group "0", whose flags
    hold vacuously: divisible, torsion and torsion-free, not nonzero."""

    description: str = "0"
    divisible: bool = True
    torsion: bool = True
    torsion_free: bool = True
    nonzero: bool = False

    @property
    def is_zero(self) -> bool:
        return not self.nonzero

    def describe(self) -> str:
        return self.description


def _telescope_h1(k: int) -> SymbolicGroup:
    """H_1 of telescope_z(k), the colimit of Z -x k-> Z -x k-> ...: 0 for
    k = 0, Z for k = +-1, and otherwise Z with the primes of k inverted.
    A k that cannot be factored is refused (UnsupportedComputation)."""
    if k == 0:
        return SymbolicGroup()
    if abs(k) == 1:
        name = "Z"
    else:
        name = f"Z[{','.join(f'1/{p}' for p in _prime_factors(k))}]"
    return SymbolicGroup(name, divisible=False, torsion=False,
                         torsion_free=True, nonzero=True)


def space_homology(x: SpaceDescription, n: int):
    """H_n(x): an FgAbGroup where exact, a SymbolicGroup for telescopes.

    Catalog spaces answer only in the degrees their entries record.
    """
    if n < 0:
        return FgAbGroup.trivial()
    if x.cells is not None:
        return homology(x.cells, n)
    if x.kind == "telescope":
        if n == 0:
            return Z
        if n == 1:
            return _telescope_h1(x.multiplier)
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
                    "H_2 = Q/Z is not finitely generated")
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
    if x.kind != "catalog":
        # a telescope's H_2 is trivial: its finite stages are circles
        return ext1(space_homology(x, 2), Z).torsion_part()
    return catalog_lookup(x).br_prime


def phantom_subgroup(x: SpaceDescription, n: int):
    """Phantom classes in H^n(x): Ext^1(H_{n-1}(x)/Torsion, Z).

    Zero for every finitely generated H_{n-1}; the interesting case is a
    telescope, where the answer is symbolic and typically divisible.
    """
    if n < 1:
        raise SemanticError("phantom degree must be >= 1")
    h = space_homology(x, n - 1)
    if isinstance(h, FgAbGroup):
        return ext1(h.free_quotient(), Z)
    # a telescope's H_1, torsion-free: Ext^1 of 0 and of Z vanishes, and
    # that of Z[1/p,...] is divisible and nonzero
    if abs(x.multiplier) <= 1:
        return SymbolicGroup()
    return SymbolicGroup(f"Ext^1({h.describe()}, Z)", divisible=True,
                         torsion=False, torsion_free=False, nonzero=True)


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

_KNOWN_RULES = (RULE_COMPACT, RULE_DIM4, RULE_EVEN, RULE_CATALOG)


@dataclass(frozen=True)
class EqualityCertificate:
    """Verdict on Br(x) = Br'(x) with the licensing rule.

    reason is the first applicable rule in the fixed priority order;
    also_applicable lists any further rules that fire, so a finite
    4-dimensional even complex shows all three EQUAL rules.  citations
    are the fact keys of every rule that fired, so a caller cites them
    without knowing the rules.
    """

    verdict: str
    reason: str | None
    witness: str
    also_applicable: tuple[str, ...] = ()
    citations: tuple[str, ...] = ()

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


def equality_certificate(x: SpaceDescription) -> EqualityCertificate:
    """Fixed-priority rule engine; all EQUAL rules are theorems, so the
    order only decides which one is cited first."""
    # (rule, verdict, note, fact keys) of each rule that fires
    fired: list[tuple[str, str, str, tuple[str, ...]]] = []
    if x.kind == "finite":
        fired.append((RULE_COMPACT, EQUAL,
                      "finite CW complexes are compact",
                      ("compact-equality",)))
    dim = x.dimension()
    if dim is not None and dim <= 4:
        fired.append((RULE_DIM4, EQUAL,
                      f"dimension {dim} <= 4", ("woodward-dim4",)))
    # a telescope has dimension 2, so its chains are never asked for
    if dim is not None and not any(x.chains.rank(d)
                                   for d in range(5, dim + 1, 2)):
        fired.append((RULE_EVEN, EQUAL,
                      "finite-dimensional with no odd cells of "
                      "dimension >= 5", ("even-cells",)))
    if x.kind == "catalog":
        entry = catalog_lookup(x)
        if entry.verdict in (EQUAL, STRICT):
            fired.append((RULE_CATALOG, entry.verdict, entry.equality_note,
                          entry.citations))
    if not fired:
        return EqualityCertificate(
            UNKNOWN, None,
            "no equality or strictness rule applies to this description")
    rule, verdict, note, _ = fired[0]
    others = tuple(r for r, _, _, _ in fired[1:])
    witness = note
    if others:
        witness += "; also applicable: " + ", ".join(
            f"{r} ({n})" for r, _, n, _ in fired[1:])
    return EqualityCertificate(verdict, rule, witness, others,
                               tuple(c for *_, keys in fired for c in keys))


def brauer_group(x: SpaceDescription, br_prime,
                 cert: EqualityCertificate):
    """Br(x) where it is known: a catalog space's recorded group, else
    br_prime (Br'(x)) when cert certifies Br = Br', else None."""
    if x.kind == "catalog":
        return catalog_lookup(x).br
    return br_prime if cert.verdict == EQUAL else None


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

    br_prime: object  # FgAbGroup | StructuralDescriptor | None (fact-only)
    br: object        # FgAbGroup | None when unknown
    verdict: str      # EQUAL | STRICT | UNKNOWN
    equality_note: str
    citations: tuple[str, ...]
    notes: tuple[str, ...] = ()


def catalog_lookup(x) -> CatalogEntry:
    """Catalog record for a catalog-kind space or a named fact string."""
    if isinstance(x, str):
        try:
            return _FACTS_ONLY[x]
        except KeyError:
            raise SemanticError(f"no catalog entry named {x!r}") from None
    if x.kind != "catalog":
        raise SemanticError(
            "catalog takes a catalog space (bpgl/k/bg) or a fact name")
    return x.catalog_entry


_RECORDED = "recorded fact; not computed from a cell structure"


def _catalog_entry(x: SpaceDescription) -> CatalogEntry:
    head, args = x.label
    if head == "bpgl":
        g = FgAbGroup.cyclic(args[0])
        return CatalogEntry(
            br_prime=g, br=g, verdict=EQUAL,
            equality_note=("the obstruction class of the universal "
                           "projective bundle generates Br' and is the "
                           "image of a Brauer class"),
            citations=("bpgl-brauer",), notes=(_RECORDED,))
    if head == "k":
        g, j = args
        if j >= 3:
            return CatalogEntry(
                br_prime=FgAbGroup.trivial(), br=FgAbGroup.trivial(),
                verdict=EQUAL,
                equality_note="H_2 vanishes, so Br' = 0 and Br = Br' trivially",
                citations=("brauer-cw-formula",), notes=(_RECORDED,))
        if g == QZ_TOKEN:
            return CatalogEntry(
                br_prime=FgAbGroup.trivial(), br=FgAbGroup.trivial(),
                verdict=EQUAL,
                equality_note=("H_2 = Q/Z is divisible, so Ext^1(H_2, Z) "
                               "is torsion-free and Br' = 0"),
                citations=("vanishing-divisible-free",), notes=(_RECORDED,))
        data = brauer_of_k_g_2(g)
        if data.strict:
            verdict, note = STRICT, (
                "Br of a second Eilenberg-MacLane space with torsion "
                "vanishes while Br' is its torsion subgroup")
        else:
            verdict, note = EQUAL, "both Br and Br' vanish for torsion-free g"
        return CatalogEntry(
            br_prime=data.br_prime, br=data.br, verdict=verdict,
            equality_note=note,
            citations=("kg2-trivial-brauer", "kg2-containment"),
            notes=(data.note, _RECORDED))
    if head == "bg":
        p = args[0]
        bp = brauer_of_bg(p)
        prime = p.primary_prime()
        infinite = p.total_multiplicity() is OMEGA
        if prime is not None and infinite:
            return CatalogEntry(
                br_prime=bp, br=None, verdict=STRICT,
                equality_note=("p-primary with an infinite basic subgroup: "
                               "a witness class lies in Br' but not in the "
                               "image of Br"),
                citations=("bg-brauer-formula", "bg-strict"),
                notes=(_RECORDED,))
        return CatalogEntry(
            br_prime=bp, br=None, verdict=UNKNOWN,
            equality_note=("no recorded theorem decides Br = Br' for this "
                           "profile"),
            citations=("bg-brauer-formula",), notes=(_RECORDED,))
    raise SemanticError(f"no catalog entry for {head!r}")


_FACTS_ONLY = {
    "plus_construction": CatalogEntry(
        br_prime=None, br=None, verdict=UNKNOWN,
        equality_note="not an equality statement",
        citations=("plus-construction",),
        notes=("the plus construction changes neither Br nor Br': both "
               "restriction maps are bijective",)),
    "compact_realization": CatalogEntry(
        br_prime=None, br=None, verdict=UNKNOWN,
        equality_note="not an equality statement",
        citations=("compact-realization",),
        notes=("every torsion abelian group occurs as the Brauer group "
               "of some compact Hausdorff space",)),
}
