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
from math import gcd, isqrt, log2

from .errors import SemanticError, UnsupportedComputation
from .intlin import IntMatrix, divisibility_chain, smith_invariants


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
        `intlin.divisibility_chain` (a coprime base found by gcds, no
        prime factorization).
        """
        orders = [int(n) for n in orders]
        if any(n < 0 for n in orders):
            raise SemanticError("cyclic order must be >= 0")
        free = sum(1 for n in orders if n == 0)
        torsion = divisibility_chain(n for n in orders if n >= 2)
        return cls(free, tuple(d for d in torsion if d >= 2))

    @classmethod
    def from_presentation(cls, relations: IntMatrix) -> "FgAbGroup":
        """Z^rows / column-span(relations), read off the Smith diagonal."""
        diag = smith_invariants(relations)
        return cls(relations.rows - sum(1 for d in diag if d),
                   tuple(d for d in diag if d >= 2))

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


# Trial division stops here; a cofactor left over has no prime factor up
# to this bound and is settled by _prime_power_root.
TRIAL_DIVISION_LIMIT = 10 ** 5

# The first 13 primes as Miller-Rabin bases decide primality exactly
# below this bound (Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BELOW = 3317044064679887385961981


def _trial_division(n: int) -> tuple[list[int], int]:
    """The distinct primes up to TRIAL_DIVISION_LIMIT dividing n,
    ascending, and the cofactor left: 1, or a number without prime
    factors up to min(its square root, the limit)."""
    n = abs(int(n))
    primes = []
    d = 2
    while d * d <= n and d <= TRIAL_DIVISION_LIMIT:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    return primes, n


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending.  A cofactor that is not
    provably a prime power is refused (UnsupportedComputation), never
    guessed."""
    primes, rest = _trial_division(n)
    if rest > 1:
        p = _prime_power_root(rest)
        if p is None:
            raise UnsupportedComputation(
                f"cannot factor {_quoted(rest)}: it is composite with no "
                f"prime factor up to {TRIAL_DIVISION_LIMIT}")
        primes.append(p)
    return primes


def _prime_power_base(n: int) -> int | None:
    """The prime p when n is a power of p, else None.  Unlike
    _prime_factors it answers None for a cofactor proved composite, and
    it never settles a cofactor left beside a smaller prime."""
    primes, rest = _trial_division(n)
    if primes:
        return primes[0] if len(primes) == 1 and rest == 1 else None
    return _prime_power_root(rest) if rest > 1 else None


def _prime_power_root(m: int) -> int | None:
    """For m > 1 without prime factors up to min(isqrt(m),
    TRIAL_DIVISION_LIMIT): the prime p with m = p^k, or None when m is
    provably not a prime power.  Every prime factor of m exceeds the
    limit, so an exponent k needs limit^k < m.  What is left once no
    root is exact is settled by Miller-Rabin where that is a proof, and
    refused above that range."""
    if isqrt(m) <= TRIAL_DIVISION_LIMIT:
        return m
    k = 2
    while TRIAL_DIVISION_LIMIT ** k < m:
        r = _iroot(m, k)
        if r ** k == m:
            return _prime_power_root(r)
        k += 1
    if m >= _MR_PROVEN_BELOW:
        raise UnsupportedComputation(
            f"cannot factor {_quoted(m)} or prove it prime: it has no prime "
            f"factor up to {TRIAL_DIVISION_LIMIT} and exceeds the range where "
            "Miller-Rabin with fixed bases is a proof")
    return m if _is_prime(m) else None  # None: composite, no perfect power


def _quoted(n: int) -> str:
    """n in full up to 40 digits, else its digit count, so that a
    refusal stays one short line for a literal of thousands of digits."""
    if n < 10 ** 40:
        return str(n)
    # 0.30102999566 is just under log10(2), so this is d or d - 1
    digits = (n.bit_length() - 1) * 30102999566 // 10 ** 11 + 1
    return f"a {digits + (n >= 10 ** digits)}-digit number"


def _iroot(m: int, k: int) -> int:
    """floor(m ** (1/k)) for m >= 1, by Newton's method from above,
    started just over a floating-point estimate."""
    e = log2(m) / k
    x = (int(2 ** (e % 1) * 2 ** 52) << int(e)) >> 52
    x += (x >> 30) + 2
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _is_prime(m: int) -> bool:
    """Miller-Rabin with the bases _MR_BASES: exact for odd m with
    41 < m < _MR_PROVEN_BELOW."""
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


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
    return KG2Brauer(br_prime=br_prime, br=br,
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
