"""Towers, directed systems, lim^1 certificates, and symbolic groups.

Towers (inverse systems indexed by the naturals) are finite data:
a prefix and a repeating block of (group, map to predecessor) pairs.
lim^1 is never computed; we only certify that it vanishes, either
because every group in the tower is finite or because the images
provably stabilize (Mittag-Leffler), and say INCONCLUSIVE otherwise.

Colimit-side systems are finite sums of strands whose shapes we can
take colimits of symbolically: a Z-strand with periodic multiplication
maps, the growing chain Z/p -> Z/p^2 -> ... with the standard
injections, and constant finite strands.  Their colimits, and Ext^1 of
the resulting symbolic groups, live in a small atom algebra with
property flags instead of pretend-exact answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd


from .abgroup import FgAbGroup, GroupHom
from .errors import SemanticError, UnsupportedComputation
from .intlin import IntMatrix, solve_integral


# ---------------------------------------------------------------------------
# symbolic groups
# ---------------------------------------------------------------------------

_FLAG_TABLE = {
    # kind: (divisible, torsion, torsion_free, nonzero)
    "free": (False, False, True, True),
    "cyclic": (False, True, False, True),
    "localized": (False, False, True, True),
    "prufer": (True, True, False, True),
    "rationals": (True, False, True, True),
    "padic": (False, False, True, True),
    "continuum_q_vector": (True, False, True, True),
}


@dataclass(frozen=True)
class Atom:
    """One indecomposable (or opaque) symbolic summand."""

    kind: str
    params: tuple = ()
    flags: tuple[bool, bool, bool, bool] = field(default=None)  # type: ignore

    def __post_init__(self):
        if self.kind == "opaque_ext":
            if self.flags is None:
                raise SemanticError("opaque atoms need explicit flags")
        else:
            expected = _FLAG_TABLE.get(self.kind)
            if expected is None:
                raise SemanticError(f"unknown atom kind {self.kind!r}")
            if self.flags is None:
                object.__setattr__(self, "flags", expected)
            elif tuple(self.flags) != expected:
                raise SemanticError(f"flags for {self.kind} atom are fixed")

    @property
    def divisible(self) -> bool:
        return self.flags[0]

    @property
    def torsion(self) -> bool:
        return self.flags[1]

    @property
    def torsion_free(self) -> bool:
        return self.flags[2]

    @property
    def nonzero(self) -> bool:
        return self.flags[3]

    def describe(self) -> str:
        if self.kind == "free":
            r = self.params[0]
            return "Z" if r == 1 else f"Z^{r}"
        if self.kind == "cyclic":
            return f"Z/{self.params[0]}"
        if self.kind == "localized":
            inside = ",".join(f"1/{p}" for p in self.params)
            return f"Z[{inside}]"
        if self.kind == "prufer":
            return f"Z({self.params[0]}^oo)"
        if self.kind == "rationals":
            return "Q"
        if self.kind == "padic":
            return f"Zhat_{self.params[0]}"
        if self.kind == "continuum_q_vector":
            return "Q-vector space of continuum dimension"
        return self.params[0]  # opaque: params[0] is the expression text


def free_atom(rank: int) -> Atom:
    return Atom("free", (int(rank),))


def cyclic_atom(n: int) -> Atom:
    return Atom("cyclic", (int(n),))


def localized_atom(primes) -> Atom:
    return Atom("localized", tuple(sorted(set(int(p) for p in primes))))


def prufer_atom(p: int) -> Atom:
    return Atom("prufer", (int(p),))


def rationals_atom() -> Atom:
    return Atom("rationals")


def padic_atom(p: int) -> Atom:
    return Atom("padic", (int(p),))


def continuum_q_vector_atom() -> Atom:
    return Atom("continuum_q_vector")


def opaque_ext_atom(expression: str, *, divisible: bool, torsion: bool,
                    torsion_free: bool, nonzero: bool) -> Atom:
    return Atom("opaque_ext", (expression,),
                (divisible, torsion, torsion_free, nonzero))


@dataclass(frozen=True)
class SymbolicGroup:
    """A finite formal direct sum of atoms, with aggregate property flags."""

    atoms: tuple[Atom, ...] = ()

    @classmethod
    def zero(cls) -> "SymbolicGroup":
        return cls(())

    @classmethod
    def from_fg(cls, g: FgAbGroup) -> "SymbolicGroup":
        atoms = []
        if g.free_rank:
            atoms.append(free_atom(g.free_rank))
        atoms.extend(cyclic_atom(d) for d in g.invariant_factors)
        return cls(tuple(atoms))

    @property
    def is_zero(self) -> bool:
        return not self.atoms

    @property
    def divisible(self) -> bool:
        return all(a.divisible for a in self.atoms)

    @property
    def torsion(self) -> bool:
        return all(a.torsion for a in self.atoms)

    @property
    def torsion_free(self) -> bool:
        return all(a.torsion_free for a in self.atoms)

    @property
    def nonzero(self) -> bool:
        return any(a.nonzero for a in self.atoms)

    def plus(self, other: "SymbolicGroup") -> "SymbolicGroup":
        return SymbolicGroup(self.atoms + other.atoms)

    def describe(self) -> str:
        if not self.atoms:
            return "0"
        return " + ".join(a.describe() for a in self.atoms)


def torsion_free_quotient(g: SymbolicGroup) -> SymbolicGroup:
    """g / Torsion(g), atom by atom."""
    kept = []
    for a in g.atoms:
        if a.torsion:
            continue
        if not a.torsion_free:
            raise UnsupportedComputation(
                f"mixed atom {a.describe()} has no tabulated torsion-free quotient")
        kept.append(a)
    return SymbolicGroup(tuple(kept))


def ext1_symbolic(g: SymbolicGroup | FgAbGroup) -> SymbolicGroup:
    """Ext^1(g, Z) by the atom table.

    Z^r -> 0, Z/n -> Z/n, Q -> a continuum-dimensional Q-vector space,
    Z(p^oo) -> the p-adic integers, Z[1/S] -> an opaque divisible nonzero
    group.  Atoms outside the table raise UnsupportedComputation.
    """
    if isinstance(g, FgAbGroup):
        g = SymbolicGroup.from_fg(g)
    out = []
    for a in g.atoms:
        if a.kind == "free":
            continue
        if a.kind == "cyclic":
            out.append(cyclic_atom(a.params[0]))
        elif a.kind == "rationals":
            out.append(continuum_q_vector_atom())
        elif a.kind == "prufer":
            out.append(padic_atom(a.params[0]))
        elif a.kind == "localized":
            inside = ",".join(f"1/{p}" for p in a.params)
            out.append(opaque_ext_atom(
                f"Ext^1(Z[{inside}], Z)",
                divisible=True, torsion=False, torsion_free=False,
                nonzero=True))
        else:
            raise UnsupportedComputation(
                f"Ext^1 of atom {a.describe()} is outside the table")
    return SymbolicGroup(tuple(out))


def first_ulm(g: SymbolicGroup | FgAbGroup) -> SymbolicGroup:
    """First Ulm subgroup (the intersection of the mE): the divisible part.

    Finitely generated groups are reduced, so their first Ulm subgroup is
    zero; for symbolic groups the divisible atoms survive.
    """
    if isinstance(g, FgAbGroup):
        return SymbolicGroup.zero()
    return SymbolicGroup(tuple(a for a in g.atoms if a.divisible))


# ---------------------------------------------------------------------------
# towers (inverse systems)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Tower:
    """A_0 <- A_1 <- A_2 <- ... given by a prefix plus a repeating block.

    prefix_maps[i] : prefix_groups[i+1] -> prefix_groups[i].
    block_maps[i]  : block_groups[i] -> block_groups[i-1 mod m]; in
    particular block_maps[0] is the wrap map into the last block group,
    which also serves as the seam into the prefix, so when both parts are
    nonempty the last prefix group must equal the last block group.
    """

    prefix_groups: tuple[FgAbGroup, ...] = ()
    prefix_maps: tuple[GroupHom, ...] = ()
    block_groups: tuple[FgAbGroup, ...] = ()
    block_maps: tuple[GroupHom, ...] = ()

    def __post_init__(self):
        if not self.block_groups:
            raise SemanticError("a tower needs a nonempty repeating block")
        if len(self.block_maps) != len(self.block_groups):
            raise SemanticError("one block map per block group")
        if self.prefix_groups:
            if len(self.prefix_maps) != len(self.prefix_groups) - 1:
                raise SemanticError("prefix needs n-1 maps for n groups")
        elif self.prefix_maps:
            raise SemanticError("prefix maps without prefix groups")
        for i, f in enumerate(self.prefix_maps):
            if f.domain != self.prefix_groups[i + 1] or \
                    f.codomain != self.prefix_groups[i]:
                raise SemanticError(f"prefix map {i} does not chain")
        m = len(self.block_groups)
        for i, f in enumerate(self.block_maps):
            if f.domain != self.block_groups[i] or \
                    f.codomain != self.block_groups[(i - 1) % m]:
                raise SemanticError(f"block map {i} does not chain")
        if self.prefix_groups and \
                self.prefix_groups[-1] != self.block_groups[-1]:
            raise SemanticError(
                "seam mismatch: last prefix group must equal last block group")

    @property
    def block_length(self) -> int:
        return len(self.block_groups)

    def group(self, i: int) -> FgAbGroup:
        p = len(self.prefix_groups)
        if i < p:
            return self.prefix_groups[i]
        return self.block_groups[(i - p) % self.block_length]

    def map(self, i: int) -> GroupHom:
        """The bonding map A_i -> A_{i-1} (i >= 1)."""
        if i < 1:
            raise SemanticError("maps start at stage 1")
        p = len(self.prefix_groups)
        if i < p:
            return self.prefix_maps[i - 1]
        return self.block_maps[(i - p) % self.block_length]

    def composite(self, j: int, i: int) -> GroupHom:
        """A_j -> A_i for j >= i, composing the bonding maps."""
        if j < i:
            raise SemanticError("composite needs j >= i")
        f = GroupHom.identity(self.group(i))
        for k in range(i + 1, j + 1):
            f = f.compose(self.map(k))
        return f


def _relation_matrix(g: FgAbGroup) -> IntMatrix:
    """Columns spanning the relations of g inside Z^(number of generators)."""
    orders = g.cyclic_orders()
    return IntMatrix.diagonal(orders).submatrix(
        range(len(orders)), [i for i, d in enumerate(orders) if d])


def _image_contains(g: FgAbGroup, big: IntMatrix, small: IntMatrix) -> bool:
    """Does span(big) contain span(small), as subgroups of g?"""
    wide = big.hstack(_relation_matrix(g))
    for j in range(small.cols):
        if solve_integral(wide, small.col_tuple(j)) is None:
            return False
    return True


def _images_equal(g: FgAbGroup, a: IntMatrix, b: IntMatrix) -> bool:
    return _image_contains(g, a, b) and _image_contains(g, b, a)


@dataclass(frozen=True)
class Lim1Certificate:
    verdict: str                 # "VANISHES" | "INCONCLUSIVE"
    reason: str | None           # "JensenFinite" | "MittagLeffler" | None
    witness: str

    def __post_init__(self):
        if self.verdict not in ("VANISHES", "INCONCLUSIVE"):
            raise SemanticError(f"bad verdict {self.verdict!r}")
        if (self.verdict == "VANISHES") != (self.reason is not None):
            raise SemanticError("VANISHES and only VANISHES carries a reason")


def lim1_certificate(t: Tower) -> Lim1Certificate:
    """Certify lim^1 = 0 when we can, otherwise stay inconclusive.

    Rule order: all groups finite (lim^1 of a tower of finite groups
    always vanishes); then the Mittag-Leffler check, where for each stage
    j in one block period the image of A_{j+k} -> A_j is compared at
    k = m and k = 2m.  Since the tail is m-periodic, equality there forces
    the descending image chain to be constant from k = m on, which is the
    Mittag-Leffler condition; stages before the block inherit it.  If the
    images still shrink after two periods we refuse to conclude.
    """
    groups = t.prefix_groups + t.block_groups
    if all(g.is_finite for g in groups):
        return Lim1Certificate(
            "VANISHES", "JensenFinite",
            "every group in the tower is finite")
    p = len(t.prefix_groups)
    m = t.block_length
    stable = True
    for j in range(p, p + m):
        g = t.group(j)
        im_one = t.composite(j + m, j).matrix
        im_two = t.composite(j + 2 * m, j).matrix
        if not _images_equal(g, im_one, im_two):
            stable = False
            break
    if stable:
        return Lim1Certificate(
            "VANISHES", "MittagLeffler",
            f"images of A_(j+k) -> A_j agree at k = {m} and k = {2 * m} "
            f"for every stage j in one block period")
    return Lim1Certificate(
        "INCONCLUSIVE", None,
        "images keep shrinking within two block periods; this tool does "
        "not assert nonvanishing of lim^1")


# ---------------------------------------------------------------------------
# directed systems (colimit side)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiplicationStrand:
    """Z -> Z -> ... with one period of multiplication maps."""

    multipliers: tuple[int, ...]

    def __post_init__(self):
        if not self.multipliers:
            raise SemanticError("empty multiplier period")
        object.__setattr__(self, "multipliers",
                           tuple(int(x) for x in self.multipliers))


@dataclass(frozen=True)
class PruferStrand:
    """Z/p -> Z/p^2 -> ... with the standard injections 1 -> p."""

    prime: int

    def __post_init__(self):
        if self.prime < 2:
            raise SemanticError("prime must be >= 2")


@dataclass(frozen=True)
class ConstantStrand:
    """A fixed finite group with identity maps."""

    group: FgAbGroup

    def __post_init__(self):
        if not self.group.is_finite:
            raise SemanticError("constant strands must be finite")


Strand = MultiplicationStrand | PruferStrand | ConstantStrand


@dataclass(frozen=True)
class DirectedSystem:
    """A finite direct sum of strands, the maps acting diagonally."""

    strands: tuple[Strand, ...]

    @classmethod
    def telescope_z(cls, multiplier: int) -> "DirectedSystem":
        return cls((MultiplicationStrand((multiplier,)),))

    @classmethod
    def prufer(cls, p: int) -> "DirectedSystem":
        return cls((PruferStrand(p),))

    @classmethod
    def constant(cls, g: FgAbGroup) -> "DirectedSystem":
        return cls((ConstantStrand(g),))


def _prime_factors(n: int) -> tuple[int, ...]:
    n = abs(int(n))
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


def colimit_symbolic(d: DirectedSystem) -> SymbolicGroup:
    """Colimit of the system, strand by strand.

    (Z, xc per period): composite 0 gives 0, composite +-1 gives Z,
    otherwise Z with the primes of the composite inverted.  The Prufer
    chain gives Z(p^oo); a constant finite strand is its own colimit.
    """
    atoms: list[Atom] = []
    for s in d.strands:
        if isinstance(s, MultiplicationStrand):
            c = 1
            for x in s.multipliers:
                c *= x
            if c == 0:
                continue
            if abs(c) == 1:
                atoms.append(free_atom(1))
            else:
                atoms.append(localized_atom(_prime_factors(c)))
        elif isinstance(s, PruferStrand):
            atoms.append(prufer_atom(s.prime))
        elif isinstance(s, ConstantStrand):
            atoms.extend(SymbolicGroup.from_fg(s.group).atoms)
        else:
            raise UnsupportedComputation(f"strand {s!r} outside the tables")
    return SymbolicGroup(tuple(atoms))


def phantom_of_telescope(d: DirectedSystem, degree: int) -> SymbolicGroup:
    """Phantom subgroup of H^degree of a telescope whose H_(degree-1) is
    the colimit of d: Ext^1 of the torsion-free quotient of the colimit."""
    if degree < 1:
        raise SemanticError("phantom degree must be >= 1")
    colim = colimit_symbolic(d)
    return ext1_symbolic(torsion_free_quotient(colim))
