"""Tests for finitely generated abelian groups and the four functors.

The heavy artillery is in _census.py: censuses of honestly enumerated
finite groups.  Everything the library computes for finite groups is
checked against element counting; the free-rank behaviour is pinned by
hand-derived identities.
"""

import random
import time
from math import gcd, isqrt, prod

import numpy as np
import pytest

from cwbrauer.abgroup import (
    TRIAL_DIVISION_LIMIT, FgAbGroup, GroupHom, Z, _prime_factors,
    _prime_power_base, _quoted, brauer_of_k_g_2, exterior_square, ext1,
    h2_of_abelian_group, hom, tensor, tor1,
)
from cwbrauer.errors import SemanticError, UnsupportedComputation
from cwbrauer.intlin import IntMatrix

from _census import (
    BruteTable, N, all_multisets, brute_census, census_from_invariants,
    check_functor_pair, order_multiset,
)

FUNCS = {"hom": hom, "ext": ext1, "tensor": tensor, "tor": tor1}

MULTISETS = all_multisets(max_factors=3, max_order=12)


def distinct_classes():
    """The distinct isomorphism classes hit by MULTISETS, as factor tuples."""
    return sorted({FgAbGroup.from_cyclic_orders(m).invariant_factors
                   for m in MULTISETS})


# -- canonical form ------------------------------------------------------------


def test_canonical_form_shape():
    for ms in MULTISETS:
        g = FgAbGroup.from_cyclic_orders(ms)
        assert g.free_rank == 0
        for d in g.invariant_factors:
            assert d >= 2
        for a, b in zip(g.invariant_factors, g.invariant_factors[1:]):
            assert b % a == 0, (ms, g)


def test_canonical_form_census():
    # The canonical form of + Z/n_i must contain exactly the same number
    # of elements killed by each d as the group itself, elementwise.
    for ms in MULTISETS:
        g = FgAbGroup.from_cyclic_orders(ms)
        assert np.array_equal(
            brute_census(ms),
            census_from_invariants(g.invariant_factors)), ms


def test_canonical_form_order_multisets():
    # Stronger spot check: the multiset of element orders is preserved.
    rng = random.Random(20260814)
    for ms in rng.sample(MULTISETS, 40):
        g = FgAbGroup.from_cyclic_orders(ms)
        assert order_multiset(ms) == order_multiset(g.cyclic_orders()), ms


def test_from_cyclic_orders_frozen_examples():
    cases = {
        (): (0, ()),
        (0, 0): (2, ()),
        (1, 1, 5): (0, (5,)),
        (2, 3): (0, (6,)),
        (4, 6): (0, (2, 12)),
        (2, 3, 5): (0, (30,)),
        (6, 10, 15): (0, (30, 30)),
        (4, 8, 12): (0, (4, 4, 24)),
        (0, 8, 2, 0, 1): (2, (2, 8)),
    }
    for orders, (free, factors) in cases.items():
        assert FgAbGroup.from_cyclic_orders(orders) == FgAbGroup(free, factors)


def test_from_cyclic_orders_rejects_negative():
    with pytest.raises(SemanticError):
        FgAbGroup.from_cyclic_orders((2, -3))


def test_constructor_rejects_bad_invariants():
    with pytest.raises(SemanticError):
        FgAbGroup(0, (3, 4))      # 3 does not divide 4
    with pytest.raises(SemanticError):
        FgAbGroup(0, (1, 2))      # trivial factor listed
    with pytest.raises(SemanticError):
        FgAbGroup(-1, ())


def test_basic_accessors():
    g = FgAbGroup.from_cyclic_orders((0, 4, 6))
    assert str(g) == "Z + Z/2 + Z/12"
    assert g.cyclic_orders() == (0, 2, 12)
    assert g.order() is None
    assert g.torsion_part() == FgAbGroup(0, (2, 12))
    assert g.free_quotient() == FgAbGroup(1, ())
    assert g.torsion_part().order() == 24
    assert g.exponent() == 12
    assert FgAbGroup.trivial().order() == 1
    assert FgAbGroup.trivial().exponent() == 1
    assert str(FgAbGroup.trivial()) == "0"
    assert FgAbGroup.cyclic(0) == Z
    assert FgAbGroup.cyclic(1) == FgAbGroup.trivial()
    assert FgAbGroup.cyclic(7) == FgAbGroup(0, (7,))


def test_from_presentation():
    # Z^2 / <(2, 0), (0, 3)> = Z/2 + Z/3 = Z/6
    rel = IntMatrix([[2, 0], [0, 3]])
    assert FgAbGroup.from_presentation(rel) == FgAbGroup(0, (6,))
    # Z^2 / <(2, 4)> = Z + Z/2
    rel = IntMatrix([[2], [4]])
    assert FgAbGroup.from_presentation(rel) == FgAbGroup(1, (2,))


# -- the four functors against element counting --------------------------------


def test_functors_on_all_small_pairs():
    """Hom/Ext^1/tensor/Tor_1 match element-level computation for every
    pair of groups with at most 3 cyclic factors of order <= 12.

    Functor values only depend on the isomorphism class, and
    test_canonical_form_census pins the multiset -> class step, so
    checking each pair of *distinct* classes once covers all pairs.
    """
    classes = distinct_classes()
    for factors in classes:
        for d in factors:
            assert N % d == 0  # guard for the census machinery
    failures = []
    for b_factors in classes:
        table = BruteTable(b_factors)
        for a_factors in classes:
            failures.extend(check_functor_pair(FUNCS, a_factors, table))
    assert not failures, failures[:10]


def test_functor_free_rank_identities():
    rng = random.Random(99)
    for _ in range(120):
        free = rng.randint(0, 3)
        k = rng.randint(0, 3)
        t = FgAbGroup.from_cyclic_orders(
            [rng.randint(2, 30) for _ in range(k)])
        a = FgAbGroup(free, t.invariant_factors)
        b_free = rng.randint(0, 3)
        b = FgAbGroup.from_cyclic_orders(
            [0] * b_free + [rng.randint(2, 30) for _ in range(rng.randint(0, 3))])

        # Hom(Z^r + T, B) = B^r + Hom(T, B); Hom(T, Z^s) = 0 for finite T.
        assert hom(Z, b) == b
        assert hom(a, Z) == FgAbGroup.free(a.free_rank)
        # Ext^1(Z, B) = 0 and Ext^1 ignores the free part of the source.
        assert ext1(FgAbGroup.free(free), b).is_trivial
        assert ext1(a, b) == ext1(a.torsion_part(), b)
        # Z (x) B = B; Tor_1 vanishes when either side is free.
        assert tensor(Z, b) == b
        assert tor1(FgAbGroup.free(free), b).is_trivial
        assert tor1(a, FgAbGroup.free(b_free)).is_trivial


def test_functor_symmetries():
    # Tensor and Tor_1 are symmetric; Hom is symmetric on finite groups.
    rng = random.Random(7)
    for _ in range(200):
        a = FgAbGroup.from_cyclic_orders(
            [rng.randint(2, 24) for _ in range(rng.randint(0, 3))])
        b = FgAbGroup.from_cyclic_orders(
            [rng.randint(2, 24) for _ in range(rng.randint(0, 3))])
        assert tensor(a, b) == tensor(b, a)
        assert tor1(a, b) == tor1(b, a)
        assert hom(a, b) == hom(b, a)


def test_ext_into_z_is_torsion():
    """Ext^1(A, Z) = torsion(A) for 200 random finitely generated A."""
    rng = random.Random(20260814)
    for _ in range(200):
        free = rng.randint(0, 3)
        torsion = [rng.randint(2, 40) for _ in range(rng.randint(0, 4))]
        a = FgAbGroup.from_cyclic_orders([0] * free + torsion)
        assert ext1(a, Z) == a.torsion_part()
        # and the finite piece is honest: Ext^1(Z/n, Z) = Z/n elementwise
        assert tor1(a, Z).is_trivial


# -- exterior square ------------------------------------------------------------


def _exterior_square_presentation(g: FgAbGroup) -> FgAbGroup:
    """Independent presentation oracle for Lambda^2(g).

    For g = + C_i with generators e_i, Lambda^2 is generated by the
    wedges e_i ^ e_j (i < j); the relation d*e_i = 0 wedges to
    d*(e_i ^ e_j) = 0 on every pair containing i, and e_i ^ e_i = 0
    kills nothing further for cyclic pieces.  So the presentation has
    one generator per pair and, for each pair (i, j), one relation
    column for each finite order among d_i, d_j.
    """
    orders = g.cyclic_orders()
    pairs = [(i, j) for i in range(len(orders))
             for j in range(i + 1, len(orders))]
    cols = []
    for p, (i, j) in enumerate(pairs):
        for d in (orders[i], orders[j]):
            if d:
                col = [0] * len(pairs)
                col[p] = d
                cols.append(col)
    if not cols:
        return FgAbGroup.free(len(pairs))
    mat = IntMatrix([[col[r] for col in cols] for r in range(len(pairs))])
    return FgAbGroup.from_presentation(mat)


def test_exterior_square_against_presentation():
    rng = random.Random(5)
    seen = [FgAbGroup.trivial(), Z, FgAbGroup.free(3),
            FgAbGroup.from_cyclic_orders((0, 0, 2, 6))]
    for _ in range(150):
        orders = [rng.choice([0, 0, 2, 3, 4, 5, 8, 9, 12, 16])
                  for _ in range(rng.randint(0, 4))]
        seen.append(FgAbGroup.from_cyclic_orders(orders))
    for g in seen:
        assert exterior_square(g) == _exterior_square_presentation(g), g


def test_exterior_square_frozen_examples():
    assert exterior_square(FgAbGroup.free(2)) == Z
    assert exterior_square(FgAbGroup.free(4)) == FgAbGroup.free(6)
    assert exterior_square(FgAbGroup.cyclic(12)).is_trivial
    assert (exterior_square(FgAbGroup.from_cyclic_orders((4, 6)))
            == FgAbGroup.cyclic(2))
    assert (exterior_square(FgAbGroup.from_cyclic_orders((2, 4, 8)))
            == FgAbGroup.from_cyclic_orders((2, 2, 4)))
    assert h2_of_abelian_group(FgAbGroup.from_cyclic_orders((2, 4, 8))) \
        == FgAbGroup.from_cyclic_orders((2, 2, 4))


# -- second Eilenberg-MacLane spaces -------------------------------------------


def test_brauer_of_k_g_2():
    for n in range(2, 13):
        data = brauer_of_k_g_2(FgAbGroup.cyclic(n))
        assert data.br_prime == FgAbGroup.cyclic(n)
        assert data.br.is_trivial
        assert data.strict
    free_case = brauer_of_k_g_2(FgAbGroup.free(3))
    assert free_case.br_prime.is_trivial
    assert not free_case.strict
    mixed = brauer_of_k_g_2(FgAbGroup.from_cyclic_orders((0, 4, 6)))
    assert mixed.br_prime == FgAbGroup.from_cyclic_orders((4, 6))
    assert mixed.strict


# -- explicit homomorphisms ------------------------------------------------------


def image(h: GroupHom, coords) -> tuple:
    """Image under h of the element with the given domain coordinates,
    read off h.matrix and reduced mod the codomain's orders."""
    out = [sum(a * c for a, c in zip(row, coords))
           for row in h.matrix.to_lists()]
    return tuple(x % e if e else x
                 for x, e in zip(out, h.codomain.cyclic_orders()))


def test_group_hom_validation():
    z4, z8 = FgAbGroup.cyclic(4), FgAbGroup.cyclic(8)
    # x -> 2x is a homomorphism Z/4 -> Z/8 (4*2 = 8 = 0 mod 8) ...
    h = GroupHom.scalar(z4, z8, 2)
    assert image(h, (1,)) == (2,)
    assert image(h, (3,)) == (6,)
    # ... but x -> x is not (4*1 != 0 mod 8).
    with pytest.raises(SemanticError):
        GroupHom.scalar(z4, z8, 1)
    with pytest.raises(SemanticError):
        GroupHom(z4, z8, [[1]])
    # Shape mismatches are rejected.
    with pytest.raises(SemanticError):
        GroupHom(z4, z8, [[1, 0]])


def test_group_hom_compose_and_reduce():
    z4, z8 = FgAbGroup.cyclic(4), FgAbGroup.cyclic(8)
    down = GroupHom.scalar(z8, z4, 1)    # reduction mod 4
    up = GroupHom.scalar(z4, z8, 2)
    round_trip = down.compose(up)        # Z/4 -> Z/4, x -> 2x
    assert image(round_trip, (1,)) == (2,)
    assert image(round_trip, (2,)) == (0,)
    assert image(GroupHom.identity(z8), (5,)) == (5,)
    assert GroupHom.zero(z8, z4).is_zero()
    # Matrix entries are stored reduced mod the codomain orders.
    assert GroupHom.scalar(z8, z4, 5) == GroupHom.scalar(z8, z4, 1)


def test_group_hom_is_zero_matches_images_of_generators():
    """is_zero reads the stored matrix; the definition it replaces sends
    every domain generator to its image, reduced mod the codomain's
    orders, and compares with zero."""
    def zero_by_generators(h):
        n = len(h.domain.cyclic_orders())
        zero = (0,) * len(h.codomain.cyclic_orders())
        return all(image(h, [int(i == j) for i in range(n)]) == zero
                   for j in range(n))

    rng = random.Random(20261018)
    orders = (0, 0, 2, 3, 4, 6, 8, 9, 12)

    def group():
        return FgAbGroup.from_cyclic_orders(
            [rng.choice(orders) for _ in range(rng.randint(0, 3))])

    def entry(d, e):
        # an entry that respects d * g = 0 in the domain; a torsion row
        # also gets multiples of its order, which reduce to zero
        if e == 0:
            return 0 if d else rng.randint(-3, 3)
        step = e // gcd(d, e) if d else 1
        return step * rng.randint(-2, 2) + e * rng.randint(-2, 2)

    seen = {True: 0, False: 0}
    for _ in range(3000):
        dom, cod = group(), group()
        m = [[entry(d, e) if rng.random() < 0.5 else e * rng.randint(-1, 1)
              for d in dom.cyclic_orders()] for e in cod.cyclic_orders()]
        h = GroupHom(dom, cod, IntMatrix(m, cols=len(dom.cyclic_orders())))
        assert h.is_zero() == zero_by_generators(h), h
        seen[h.is_zero()] += 1
    assert min(seen.values()) > 300, seen


def test_group_hom_on_mixed_group():
    g = FgAbGroup.from_cyclic_orders((0, 2))   # Z + Z/2
    h = GroupHom.identity(g)
    assert image(h, (7, 1)) == (7, 1)
    # A map Z -> Z/2 is unconstrained; Z/2 -> Z must be zero.
    GroupHom(g, g, [[3, 0], [1, 0]])
    with pytest.raises(SemanticError):
        GroupHom(g, g, [[0, 1], [0, 1]])


# -- prime factors ------------------------------------------------------------------

# Primes checked independently of the code under test; the two composites
# are strong pseudoprimes to the first 11 and the first 12 prime bases
# (the smallest such numbers), so only the thirteenth base unmasks them.
KNOWN_PRIMES = (2, 3, 5, 7, 97, 65537, 998244353, 10 ** 9 + 7, 10 ** 9 + 9,
                2 ** 31 - 1, 10 ** 12 + 39, 10 ** 16 + 61, 10 ** 18 + 3,
                2 ** 61 - 1, 2 ** 64 - 59)
PSEUDOPRIMES = ((3825123056546413051, (149491, 747451, 34233211)),
                (318665857834031151167461, (399165290221, 798330580441)))


def test_prime_factors_match_a_sieve_up_to_10_5():
    """Every n <= 10^5 against the distinct primes read off a table of
    least prime factors built by marking multiples."""
    top = 10 ** 5
    least = list(range(top + 1))
    for p in range(2, isqrt(top) + 1):
        if least[p] == p:
            for k in range(p * p, top + 1, p):
                least[k] = min(least[k], p)
    for n in range(2, top + 1):
        want, m = [], n
        while m > 1:
            want.append(least[m])
            while m % want[-1] == 0:
                m //= want[-1]
        assert list(_prime_factors(n)) == want, n
        assert _prime_power_base(n) == (want[0] if len(want) == 1
                                        else None), n


def test_prime_factors_of_products_of_known_primes():
    """Seeded products of known primes: the answer is exact, or a refusal
    where two distinct primes above the trial-division limit are left.
    A wrong prime is never returned."""
    rng = random.Random(8)
    big = {p for p in KNOWN_PRIMES if p > TRIAL_DIVISION_LIMIT}
    refused = 0
    for _ in range(200):
        primes = sorted(set(rng.sample(KNOWN_PRIMES, rng.randint(1, 3))))
        n = 1
        for p in primes:
            n *= p ** rng.randint(1, 4)
        may_refuse = len(big.intersection(primes)) >= 2
        try:
            assert list(_prime_factors(n)) == primes, n
        except UnsupportedComputation:
            assert may_refuse, n
            refused += 1
        try:
            assert _prime_power_base(n) == (
                primes[0] if len(primes) == 1 else None), n
        except UnsupportedComputation:
            assert may_refuse, n
    assert 0 < refused < 100, refused


def test_prime_factors_never_pass_a_pseudoprime_or_guess():
    for n, factors in PSEUDOPRIMES:
        assert prod(factors) == n
        assert _prime_power_base(n) is None
        with pytest.raises(UnsupportedComputation):
            list(_prime_factors(n))
    # (10^9 + 7)(10^9 + 9) is proved composite but not split
    with pytest.raises(UnsupportedComputation, match="cannot factor"):
        list(_prime_factors(1000000016000000063))
    assert _prime_power_base(1000000016000000063) is None
    # prime powers above the Miller-Rabin range are settled by their roots
    assert list(_prime_factors((10 ** 9 + 7) ** 40 * 6)) == [2, 3, 10 ** 9 + 7]
    assert _prime_power_base((2 ** 61 - 1) ** 3) == 2 ** 61 - 1
    # a cofactor beyond that range that is no perfect power is refused:
    # 2^89 - 1 is prime, but the fixed bases cannot prove it
    for n in (2 ** 89 - 1, 3317044064679887385961981):
        with pytest.raises(UnsupportedComputation):
            list(_prime_factors(n))
        with pytest.raises(UnsupportedComputation):
            _prime_power_base(n)
    # the longest literal the grammar reads: 3 divides it, the cofactor
    # is not settled, and both answers come at once
    t0 = time.perf_counter()
    repunit = int("1" * 4299)
    with pytest.raises(UnsupportedComputation):
        list(_prime_factors(repunit))
    assert _prime_power_base(repunit) is None
    assert time.perf_counter() - t0 < 1.0


def test_refused_numbers_are_quoted_in_full_up_to_40_digits():
    """A number of up to 40 digits is quoted as is, a longer one by its
    digit count; checked on both sides of every power of ten."""
    for d in range(1, 4300, 7):
        for n in (10 ** d - 1, 10 ** d, 10 ** d + 1):
            s = str(n)
            assert _quoted(n) == (s if len(s) <= 40
                                  else f"a {len(s)}-digit number"), len(s)
    with pytest.raises(UnsupportedComputation,
                       match=r"^cannot factor 1000000016000000063: "):
        list(_prime_factors(1000000016000000063))
    with pytest.raises(UnsupportedComputation,
                       match=r"^cannot factor a 41-digit number or prove"):
        list(_prime_factors(10 ** 40 + 19))  # no prime factor below 10^5
