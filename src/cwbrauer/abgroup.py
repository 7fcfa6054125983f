"""Finitely generated abelian groups in invariant-factor form.

A group is Z^free_rank + Z/d1 + ... + Z/dk with 2 <= d1 | d2 | ... | dk.
That normal form makes equality of isomorphism classes literal equality
of dataclasses.  Hom, Ext^1, tensor and Tor_1 are computed by the
standard tables on cyclic pieces, extended additively; resolutions only
appear in the test oracles.

Generator convention used by GroupHom and by the homology code: the
canonical generators of a group are its free generators first, then the
torsion generators in increasing invariant-factor order.  cyclic_orders()
lists them as 0 for each Z and d for each Z/d.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .errors import SemanticError
from .intlin import IntMatrix, divisibility_chain


@dataclass(frozen=True)
class FgAbGroup:
    free_rank: int = 0
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise SemanticError("negative free rank")
        object.__setattr__(self, "invariant_factors",
                           tuple(int(d) for d in self.invariant_factors))
        prev = None
        for d in self.invariant_factors:
            if d < 2:
                raise SemanticError(f"invariant factor {d} < 2")
            if prev is not None and d % prev != 0:
                raise SemanticError(
                    f"invariant factors {prev}, {d} break the divisibility chain")
            prev = d

    # -- constructors ---------------------------------------------------------

    @classmethod
    def trivial(cls) -> "FgAbGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FgAbGroup":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, n: int) -> "FgAbGroup":
        """Z/n for n >= 2, Z for n = 0, trivial for n = 1."""
        n = int(n)
        if n < 0:
            n = -n
        if n == 0:
            return cls(1, ())
        if n == 1:
            return cls(0, ())
        return cls(0, (n,))

    @classmethod
    def from_cyclic_orders(cls, orders) -> "FgAbGroup":
        """Canonical form of + Z/n_i (n_i = 0 meaning Z), any order, any n_i >= 0.

        The torsion orders are put into a divisibility chain by
        `intlin.divisibility_chain` (gcd/lcm pair swaps, no prime
        factorization).
        """
        orders = [int(n) for n in orders]
        if any(n < 0 for n in orders):
            raise SemanticError("cyclic order must be >= 0")
        free = sum(1 for n in orders if n == 0)
        torsion = divisibility_chain(n for n in orders if n >= 2)
        return cls(free, tuple(d for d in torsion if d >= 2))

    @classmethod
    def from_presentation(cls, relations: IntMatrix) -> "FgAbGroup":
        """Z^rows / column-span(relations)."""
        from .intlin import cokernel_structure
        return cokernel_structure(relations)

    # -- structure ------------------------------------------------------------

    def cyclic_orders(self) -> tuple[int, ...]:
        """Orders of the canonical generators: free first (0), then torsion."""
        return (0,) * self.free_rank + self.invariant_factors

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int | None:
        """Number of elements, or None when infinite."""
        if self.free_rank:
            return None
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def exponent(self) -> int:
        """Smallest n >= 1 with n * torsion = 0 (1 for torsion-free)."""
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def torsion_part(self) -> "FgAbGroup":
        return FgAbGroup(0, self.invariant_factors)

    def free_quotient(self) -> "FgAbGroup":
        """G / Torsion(G)."""
        return FgAbGroup(self.free_rank, ())

    def direct_sum(self, other: "FgAbGroup") -> "FgAbGroup":
        return FgAbGroup.from_cyclic_orders(
            self.cyclic_orders() + other.cyclic_orders())

    def __str__(self):
        if self.is_trivial:
            return "0"
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " + ".join(parts)


Z = FgAbGroup.free(1)


def _prime_factors(n: int):
    """The distinct primes dividing n, ascending, by trial division.  A
    generator: a caller that needs only the least prime stops there."""
    n = abs(int(n))
    d = 2
    while d * d <= n:
        if n % d == 0:
            yield d
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        yield n


# -- the four bilinear functors -----------------------------------------------
#
# On cyclic pieces (d, e >= 2):
#   Hom(Z, Z) = Z      Hom(Z, Z/e) = Z/e    Hom(Z/d, Z) = 0   Hom(Z/d, Z/e) = Z/(d,e)
#   Ext(Z, -) = 0      Ext(Z/d, Z) = Z/d    Ext(Z/d, Z/e) = Z/(d,e)
#   Z x Z = Z          Z x Z/e = Z/e        Z/d x Z = Z/d     Z/d x Z/e = Z/(d,e)
#   Tor(Z, -) = Tor(-, Z) = 0               Tor(Z/d, Z/e) = Z/(d,e)

def _hom_cyclic(a: int, b: int) -> int:
    if a == 0:
        return b if b else 0
    if b == 0:
        return 1
    return gcd(a, b)


def _ext_cyclic(a: int, b: int) -> int:
    if a == 0:
        return 1
    if b == 0:
        return a
    return gcd(a, b)


def _tensor_cyclic(a: int, b: int) -> int:
    if a == 0:
        return b
    if b == 0:
        return a
    return gcd(a, b)


def _tor_cyclic(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 1
    return gcd(a, b)


def _bilinear(table, a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    orders = [table(x, y) for x in a.cyclic_orders() for y in b.cyclic_orders()]
    return FgAbGroup.from_cyclic_orders(orders)


def hom(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    """Hom(a, b) up to isomorphism."""
    return _bilinear(_hom_cyclic, a, b)


def ext1(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    """Ext^1(a, b) up to isomorphism."""
    return _bilinear(_ext_cyclic, a, b)


def tensor(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    """a tensor b up to isomorphism."""
    return _bilinear(_tensor_cyclic, a, b)


def tor1(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    """Tor_1(a, b) up to isomorphism."""
    return _bilinear(_tor_cyclic, a, b)


def exterior_square(g: FgAbGroup) -> FgAbGroup:
    """Lambda^2(g): the sum of pairwise tensor products of the cyclic pieces.

    Lambda^2 of a single cyclic group vanishes, so only the mixed pairs
    i < j survive, each contributing C_i tensor C_j.
    """
    orders = g.cyclic_orders()
    out = []
    for i in range(len(orders)):
        for j in range(i + 1, len(orders)):
            out.append(_tensor_cyclic(orders[i], orders[j]))
    return FgAbGroup.from_cyclic_orders(out)


def h2_of_abelian_group(g: FgAbGroup) -> FgAbGroup:
    """Integral H_2 of the group g (as a discrete group): Lambda^2(g)."""
    return exterior_square(g)


@dataclass(frozen=True)
class KG2Brauer:
    """Brauer data of the second Eilenberg-MacLane space of g.

    br_prime is the torsion of Ext^1(g, Z).  For finitely generated g the
    honest Brauer group sits inside Ext^1(g/Torsion, Z) = 0, so br is the
    trivial group and strict records whether the inclusion Br < Br' is
    proper.  Whether Br always equals Ext^1(G/Torsion, Z) for arbitrary G
    is open; that is surfaced in `note` and never asserted.
    """

    group: FgAbGroup
    br_prime: FgAbGroup
    br: FgAbGroup
    strict: bool
    note: str = field(compare=False, default="")


def brauer_of_k_g_2(g: FgAbGroup) -> KG2Brauer:
    br_prime = ext1(g, Z).torsion_part()
    br = FgAbGroup.trivial()
    note = ("Br is contained in Ext^1(G/Torsion, Z), which vanishes for "
            "finitely generated G; whether the containment is an equality "
            "for arbitrary G is an open question and is not asserted here.")
    return KG2Brauer(group=g, br_prime=br_prime, br=br,
                     strict=not br_prime.is_trivial, note=note)


class GroupHom:
    """Homomorphism between groups in canonical form.

    The matrix has one column per domain generator and one row per
    codomain generator (free rows first, then torsion rows), and sends
    domain coordinates to codomain coordinates.  Constructing a GroupHom
    checks that each domain relation d_j * g_j = 0 is respected; torsion
    rows are stored reduced mod their order.
    """

    __slots__ = ("domain", "codomain", "matrix")

    def __init__(self, domain: FgAbGroup, codomain: FgAbGroup, matrix):
        if not isinstance(matrix, IntMatrix):
            matrix = IntMatrix(matrix)
        dom_orders = domain.cyclic_orders()
        cod_orders = codomain.cyclic_orders()
        if matrix.shape != (len(cod_orders), len(dom_orders)):
            raise SemanticError(
                f"hom matrix shape {matrix.shape} does not match "
                f"{len(cod_orders)} x {len(dom_orders)}")
        m = matrix.to_lists()
        for i, e in enumerate(cod_orders):
            if e:
                m[i] = [x % e for x in m[i]]
        for j, d in enumerate(dom_orders):
            if d == 0:
                continue
            for i, e in enumerate(cod_orders):
                v = d * m[i][j]
                if (e == 0 and v != 0) or (e != 0 and v % e != 0):
                    raise SemanticError(
                        f"matrix column {j} ignores the relation "
                        f"{d} * g_{j} = 0")
        self.domain = domain
        self.codomain = codomain
        self.matrix = IntMatrix(m, cols=len(dom_orders))

    @classmethod
    def identity(cls, g: FgAbGroup) -> "GroupHom":
        return cls(g, g, IntMatrix.identity(len(g.cyclic_orders())))

    @classmethod
    def zero(cls, domain: FgAbGroup, codomain: FgAbGroup) -> "GroupHom":
        return cls(domain, codomain,
                   IntMatrix.zeros(len(codomain.cyclic_orders()),
                                   len(domain.cyclic_orders())))

    @classmethod
    def scalar(cls, domain: FgAbGroup, codomain: FgAbGroup, k: int) -> "GroupHom":
        """Multiplication by k, generator i -> k * generator i."""
        n = len(domain.cyclic_orders())
        if len(codomain.cyclic_orders()) != n:
            raise SemanticError(
                "scalar map needs equally many generators on both sides")
        return cls(domain, codomain, IntMatrix.diagonal([k] * n))

    def apply(self, coords) -> tuple[int, ...]:
        """Image of an element given by domain coordinates."""
        out = list(self.matrix @ list(coords))
        for i, e in enumerate(self.codomain.cyclic_orders()):
            if e:
                out[i] %= e
        return tuple(out)

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """self o inner."""
        if inner.codomain != self.domain:
            raise SemanticError("composition domain/codomain mismatch")
        return GroupHom(inner.domain, self.codomain, self.matrix @ inner.matrix)

    def is_zero(self) -> bool:
        # torsion rows are stored reduced, so a zero map has a zero matrix
        return self.matrix.is_zero()

    def __eq__(self, other):
        if not isinstance(other, GroupHom):
            return NotImplemented
        return (self.domain == other.domain
                and self.codomain == other.codomain
                and self.matrix == other.matrix)

    def __hash__(self):
        return hash((self.domain, self.codomain, self.matrix))

    def __repr__(self):
        return (f"GroupHom({self.domain} -> {self.codomain}, "
                f"{self.matrix.to_lists()!r})")
