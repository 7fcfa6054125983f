"""Symbolic profiles of direct sums of cyclic groups and BG formulas.

A CyclicProfile is a finite list of (order, multiplicity) pairs where a
multiplicity is a positive integer or the symbol omega (countably
infinite).  Profiles describe torsion abelian groups that are direct
sums of cyclics, e.g. basic subgroups; the interesting formulas are

  Lambda^2( + (Z/n_i) ) = + over i < j of Z/(n_i, n_j)

bookkept with multiplicities, and the cohomological Brauer group of the
classifying space BG, the torsion of the full direct product of those
gcd factors: an honest FgAbGroup when the index set is finite, a
StructuralDescriptor (never a pretend-exact group) when it is not.

`non_brauer_certificate` implements the decidable hypothesis check of
the witness theorem for p-primary G with infinite basic subgroups: a
class alpha given by affine interval rules J_i lies outside the image
of Br when all but finitely many J_i are finite (automatic with affine
endpoints) and sup |J_i| is unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .abgroup import FgAbGroup, _prime_power_base
from .errors import SemanticError


class _Omega:
    """The countable-infinity multiplicity symbol; OMEGA is its one
    instance, made at import."""

    def __repr__(self):
        return "w"


OMEGA = _Omega()

Mult = int | _Omega


def _mult_add(a: Mult, b: Mult) -> Mult:
    if a is OMEGA or b is OMEGA:
        return OMEGA
    return a + b


def _mult_mul(a: Mult, b: Mult) -> Mult:
    if a == 0 or b == 0:
        return 0
    if a is OMEGA or b is OMEGA:
        return OMEGA
    return a * b


def _mult_choose2(k: Mult) -> Mult:
    """C(k, 2); C(omega, 2) = omega."""
    if k is OMEGA:
        return OMEGA
    return k * (k - 1) // 2


@dataclass(frozen=True)
class CyclicProfile:
    """Multiset of cyclic summands: ((order, multiplicity), ...).

    Canonical form: orders >= 2, strictly increasing, multiplicities
    positive ints or OMEGA.  The empty profile is the zero group.
    """

    summands: tuple[tuple[int, Mult], ...] = ()

    def __post_init__(self):
        prev = 0
        for order, mult in self.summands:
            if order < 2:
                raise SemanticError(f"cyclic order {order} < 2 in profile")
            if order <= prev:
                raise SemanticError("profile orders must be strictly increasing")
            if mult is not OMEGA and (not isinstance(mult, int) or mult < 1):
                raise SemanticError(f"bad multiplicity {mult!r}")
            prev = order

    @classmethod
    def from_pairs(cls, pairs) -> "CyclicProfile":
        """Canonicalize any (order, multiplicity) list: merge, sort."""
        acc: dict[int, Mult] = {}
        for order, mult in pairs:
            order = int(order)
            if mult == 0:
                continue
            acc[order] = _mult_add(acc.get(order, 0), mult)
        return cls(tuple(sorted(acc.items())))

    @property
    def is_zero(self) -> bool:
        return not self.summands

    @property
    def is_finite(self) -> bool:
        return all(m is not OMEGA for _, m in self.summands)

    def total_multiplicity(self) -> Mult:
        t: Mult = 0
        for _, m in self.summands:
            t = _mult_add(t, m)
        return t

    def primary_prime(self) -> int | None:
        """The prime p when every order is a power of p, else None."""
        prime = None
        for order, _ in self.summands:
            # a second prime ends the search before any larger order is
            # looked at
            p = _prime_power_base(order)
            if p is None or (prime is not None and p != prime):
                return None
            prime = p
        return prime

    def exponent(self) -> int:
        """lcm of the orders (they need not divide one another)."""
        e = 1
        for order, _ in self.summands:
            e = e * order // gcd(e, order)
        return e

    def to_group(self) -> FgAbGroup:
        """The direct sum itself, only for finite profiles."""
        if not self.is_finite:
            raise SemanticError("profile with infinite multiplicity "
                                "is not a finitely generated group")
        orders = []
        for order, mult in self.summands:
            orders.extend([order] * mult)
        return FgAbGroup.from_cyclic_orders(orders)


def lambda_square_profile(p: CyclicProfile) -> CyclicProfile:
    """Lambda^2 of the direct sum described by p, as a profile.

    Same-order pairs inside a summand contribute C(k, 2) copies of
    Z/order; distinct summands contribute k_i * k_j copies of the gcd.
    """
    pairs: list[tuple[int, Mult]] = []
    s = p.summands
    for i, (order, mult) in enumerate(s):
        internal = _mult_choose2(mult)
        if internal != 0:
            pairs.append((order, internal))
        for j in range(i + 1, len(s)):
            other_order, other_mult = s[j]
            g = gcd(order, other_order)
            if g >= 2:
                pairs.append((g, _mult_mul(mult, other_mult)))
    return CyclicProfile.from_pairs(pairs)


@dataclass(frozen=True)
class StructuralDescriptor:
    """What we can say about the torsion of an infinite product.

    expression: human-readable formula for the group;
    restricted_sum: the profile of the direct-sum (restricted product)
    subgroup, which is Lambda^2 of the input; exponent: the exponent of
    the full product (finite because profiles list finitely many orders);
    notes: structural facts that hold without computing the product.
    """

    expression: str
    restricted_sum: CyclicProfile
    exponent: int
    notes: tuple[str, ...] = ()


def brauer_of_bg(p: CyclicProfile) -> FgAbGroup | StructuralDescriptor:
    """Br' of the classifying space of the discrete group described by p.

    Br'(BG) is the torsion of the product over i < j of Z/(n_i, n_j).
    Finite profile: the product is the finite direct sum, an exact
    FgAbGroup.  Infinite profile: a StructuralDescriptor carrying the
    restricted-sum profile and the exponent.
    """
    lam = lambda_square_profile(p)
    if p.is_finite:
        return lam.to_group()
    expo = lam.exponent()
    expr = ("torsion part of the product over pairs i < j of "
            "Z/gcd(n_i, n_j) for the profile " + format_profile(p))
    notes = (
        "the restricted sum (direct sum over pairs) embeds as a subgroup",
        f"the full product has exponent {expo}, so it is all torsion",
        "the product is uncountable whenever infinitely many factors are "
        "nontrivial; no exact group object is returned",
    )
    return StructuralDescriptor(expression=expr, restricted_sum=lam,
                                exponent=expo, notes=notes)


def format_profile(p: CyclicProfile) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for order, mult in p.summands:
        m = "w" if mult is OMEGA else str(mult)
        parts.append(f"(Z/{order})^{m}")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# basic-subgroup reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasicReduction:
    """Result of reduce_to_basic: the basic subgroup's profile plus the
    verified conditions (text, holds, reason)."""

    basic: CyclicProfile
    conditions: tuple[tuple[str, bool, str], ...]
    h2_profile: CyclicProfile = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "h2_profile", lambda_square_profile(self.basic))


def reduce_to_basic(b: CyclicProfile) -> BasicReduction:
    """Identify the profile b as a basic subgroup B of G = D + B, for
    any divisible part D (the trivial one included).

    The three defining conditions are verified symbolically for this
    shape: B is a direct sum of cyclics by construction, G/B is the
    divisible part D, and purity nB = nG intersect B holds because the
    sum is direct and nD = D.  H_2(G) = Lambda^2(G) = Lambda^2(B) then
    reduces the Brauer computation to the basic subgroup.
    """
    conditions = (
        ("B is a direct sum of cyclic groups", True,
         "B is given by a cyclic profile"),
        ("G/B is divisible", True,
         "G/B is the divisible part D, a sum of Prufer groups"),
        ("B is pure: nB = nG intersect B for all n", True,
         "with G = D + B direct and nD = D, an element of nG in B has "
         "zero D-component, so it lies in nB"),
    )
    return BasicReduction(basic=b, conditions=conditions)


# ---------------------------------------------------------------------------
# non-Brauer certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineExpr:
    """a*i + b with integer a, b."""

    a: int
    b: int

    def __call__(self, i: int) -> int:
        return self.a * i + self.b

    def __sub__(self, other: "AffineExpr") -> "AffineExpr":
        return AffineExpr(self.a - other.a, self.b - other.b)

    def __str__(self):
        if self.a == 0:
            return str(self.b)
        head = "i" if self.a == 1 else f"{self.a}i"
        if self.b == 0:
            return head
        return f"{head}{self.b:+d}"


@dataclass(frozen=True)
class Rule:
    """For i in [lo, hi] (hi None = unbounded): J_i = (lower(i), upper(i)]."""

    lo: int
    hi: int | None
    lower: AffineExpr
    upper: AffineExpr

    def __post_init__(self):
        if self.lo < 0:
            raise SemanticError("rule range must start at a natural number")
        if self.hi is not None and self.hi < self.lo:
            raise SemanticError("empty rule range")

    def __str__(self):
        rng = f"i>={self.lo}" if self.hi is None else f"{self.lo}<=i<={self.hi}"
        return f"rule {rng}: J=({self.lower}, {self.upper}]"


@dataclass(frozen=True)
class ObstructionDescriptor:
    """alpha in the product: alpha_(i,j) nonzero exactly for j in J_i.

    Rules must have pairwise disjoint index ranges, and every J_i must sit
    inside {j : j > i} so the (i, j) really are upper-triangular pairs.
    """

    rules: tuple[Rule, ...] = ()

    def __post_init__(self):
        spans = []
        for r in self.rules:
            if not _interval_nonneg(r.lower, AffineExpr(1, 0), r.lo, r.hi):
                raise SemanticError(
                    f"{r}: J must satisfy j > i on the whole range")
            spans.append((r.lo, r.hi))
        spans.sort(key=lambda s: s[0])
        for (lo1, hi1), (lo2, _) in zip(spans, spans[1:]):
            if hi1 is None or hi1 >= lo2:
                raise SemanticError("rule ranges overlap")

    @property
    def is_zero(self) -> bool:
        return not self.rules


def _interval_nonneg(f: AffineExpr, g: AffineExpr, lo: int, hi: int | None) -> bool:
    """Is f(i) >= g(i) for every integer i in [lo, hi]?  (affine, so it is
    enough to look at the endpoints, or at lo and the slope when unbounded)"""
    diff = f - g
    if hi is None:
        return diff.a >= 0 and diff(lo) >= 0
    return diff(lo) >= 0 and diff(hi) >= 0


@dataclass(frozen=True)
class CertificateReport:
    verdict: str  # CERTIFIED_NOT_IN_BR | CONDITION_FAILS | NOT_APPLICABLE
    conditions: tuple[tuple[str, bool, str], ...]
    witness: str


def non_brauer_certificate(p: CyclicProfile,
                           alpha: ObstructionDescriptor) -> CertificateReport:
    """Decide the witness theorem's hypotheses for alpha over profile p.

    Applicable only when p is p-primary with infinitely many summands
    (so B is an infinite basic subgroup and the index model is N).
    Condition (a): all but finitely many J_i finite; affine endpoints
    make every J_i finite, so it holds structurally.  Condition (b):
    sup |J_i| unbounded, which with affine rules happens exactly when
    some unbounded-range rule has positive slope difference.  Both
    together certify that alpha is not in the image of Br.
    """
    prime = p.primary_prime()
    infinite = p.total_multiplicity() is OMEGA
    if prime is None or not infinite:
        why = []
        if prime is None and not p.is_zero:   # 0 has no orders to mix
            why.append("profile is not primary (orders mix primes)")
        if not infinite:
            why.append("profile has only finitely many summands")
        return CertificateReport(
            verdict="NOT_APPLICABLE",
            conditions=(),
            witness="; ".join(why))

    cond_a = True  # every affine interval (f(i), g(i)] is a finite set
    a_reason = ("all interval endpoints are affine in i, so every J_i is "
                "finite; the exceptional set is empty")

    unbounded_growth = next((r for r in alpha.rules
                             if r.hi is None and (r.upper - r.lower).a > 0),
                            None)
    cond_b = unbounded_growth is not None
    if cond_b:
        size = unbounded_growth.upper - unbounded_growth.lower
        b_reason = (f"{unbounded_growth} has |J_i| = {size} "
                    f"on an unbounded range, so sup |J_i| = infinity")
    elif alpha.is_zero:
        b_reason = ("alpha has no rules: it is the zero class, which lies "
                    "in Br trivially")
    else:
        b_reason = ("every rule has bounded range or nonpositive slope "
                    "difference, so sup |J_i| is finite")

    conditions = (
        ("(a) all but finitely many J_i are finite", cond_a, a_reason),
        ("(b) sup |J_i| over the finite-J indices is unbounded",
         cond_b, b_reason),
    )
    if cond_a and cond_b:
        return CertificateReport(
            verdict="CERTIFIED_NOT_IN_BR",
            conditions=conditions,
            witness=(f"p = {prime}, basic subgroup infinite; conditions (a) "
                     f"and (b) hold, so the class is not in the image of Br"))
    return CertificateReport(
        verdict="CONDITION_FAILS",
        conditions=conditions,
        witness="hypotheses of the witness theorem are not met: " + b_reason)
