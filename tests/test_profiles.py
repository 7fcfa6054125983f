"""Tests for symbolic cyclic profiles: the omega multiplicity, exterior
squares of profiles, Brauer groups of classifying spaces, basic-subgroup
reduction, and non-Brauer certificates."""

import math
import random
import time

import pytest

from cwbrauer.abgroup import FgAbGroup, exterior_square
from cwbrauer.errors import SemanticError
from cwbrauer.grammar import parse_profile
from cwbrauer.profiles import (
    OMEGA, AffineExpr, BasicReduction, CertificateReport, CyclicProfile,
    ObstructionDescriptor, Rule, StructuralDescriptor, brauer_of_bg,
    format_profile, lambda_square_profile, non_brauer_certificate,
    reduce_to_basic,
)


# -- omega -------------------------------------------------------------------------


def test_omega_is_a_singleton():
    """OMEGA is made once, at import: the w that the grammar reads, and
    every infinite multiplicity that the profile formulas make, is that
    one object, so `is OMEGA` tells them apart from the integers."""
    assert repr(OMEGA) == "w"
    p = parse_profile("(Z/3)^w + (Z/9)^2")
    assert p.summands[0][1] is OMEGA
    assert p.total_multiplicity() is OMEGA
    assert lambda_square_profile(p).summands[0][1] is OMEGA


# -- profiles ----------------------------------------------------------------------


def test_profile_canonicalization():
    p = CyclicProfile.from_pairs([(4, 2), (2, 1), (4, 1), (9, 0)])
    assert p.summands == ((2, 1), (4, 3))
    assert CyclicProfile.from_pairs([]).is_zero
    assert CyclicProfile.from_pairs([(3, OMEGA), (3, 5)]).summands \
        == ((3, OMEGA),)


def test_profile_validation():
    with pytest.raises(SemanticError):
        CyclicProfile(((1, 2),))
    with pytest.raises(SemanticError):
        CyclicProfile(((4, 1), (2, 1)))     # not increasing
    with pytest.raises(SemanticError):
        CyclicProfile(((2, 1), (2, 1)))     # duplicate order
    with pytest.raises(SemanticError):
        CyclicProfile(((2, 0),))            # zero multiplicity
    with pytest.raises(SemanticError):
        CyclicProfile(((2, -3),))


def test_profile_accessors():
    p = CyclicProfile.from_pairs([(2, 2), (12, 1)])
    assert p.is_finite and not p.is_zero
    assert p.total_multiplicity() == 3
    assert p.exponent() == 12
    assert p.primary_prime() is None        # 12 is not a prime power
    assert p.to_group() == FgAbGroup.from_cyclic_orders((2, 2, 12))

    q = CyclicProfile.from_pairs([(2, 1), (8, OMEGA)])
    assert not q.is_finite
    assert q.total_multiplicity() is OMEGA
    assert q.primary_prime() == 2
    assert q.exponent() == 8
    with pytest.raises(SemanticError):
        q.to_group()

    assert CyclicProfile().primary_prime() is None
    assert CyclicProfile().exponent() == 1


def test_primary_prime_matches_brute_force():
    """primary_prime against the primes below 10^4 that divide the orders,
    each prime found by testing every candidate divisor: orders 2..2999
    alone, then seeded profiles of up to four orders."""
    primes = [p for p in range(2, 10 ** 4)
              if all(p % q for q in range(2, math.isqrt(p) + 1))]

    def brute(orders):
        found = {p for p in primes for n in orders if n % p == 0}
        return found.pop() if len(found) == 1 else None

    for n in range(2, 3000):
        assert CyclicProfile(((n, 1),)).primary_prime() == brute([n]), n
    rng = random.Random(20261018)
    powers = [b ** e for b in (2, 3, 5, 6, 7, 10, 12, 49, 97)
              for e in (1, 2, 3) if b ** e < 10 ** 4]
    for _ in range(500):
        orders = {rng.choice(powers) for _ in range(rng.randint(1, 4))}
        p = CyclicProfile.from_pairs(
            (o, rng.choice((1, 2, OMEGA))) for o in orders)
        assert p.primary_prime() == brute(orders), orders


def test_primary_prime_searches_only_the_least_prime():
    """An order 2q with q a 17-digit prime is refused at once: trial
    division would need about 5 * 10^7 steps to find q, and primary_prime
    never looks for it.  Nor does it divide a large prime order that
    follows two orders with different primes."""
    q = 10 ** 16 + 61  # prime
    big = 10 ** 18 + 3  # prime: about 5 * 10^8 trial divisions
    t0 = time.perf_counter()
    assert CyclicProfile(((2 * q, OMEGA),)).primary_prime() is None
    assert CyclicProfile(((2 * q, 1), (2 ** 60, 1))).primary_prime() is None
    assert CyclicProfile(((3 ** 30, OMEGA),)).primary_prime() == 3
    assert CyclicProfile.from_pairs(
        [(2, 1), (3, 1), (big, OMEGA)]).primary_prime() is None
    assert time.perf_counter() - t0 < 1.0


def test_format_profile():
    assert format_profile(CyclicProfile()) == "0"
    assert format_profile(CyclicProfile.from_pairs([(3, OMEGA)])) == "(Z/3)^w"
    assert format_profile(CyclicProfile.from_pairs([(2, 1), (4, 2)])) \
        == "(Z/2)^1 + (Z/4)^2"


# -- exterior square of a profile ---------------------------------------------------


def test_lambda_square_against_group_computation():
    """For finite profiles the profile-level exterior square must agree
    with the invariant-factor computation on the underlying group."""
    rng = random.Random(20260814)
    orders_pool = [2, 3, 4, 5, 8, 9, 12, 16]
    for _ in range(200):
        kinds = rng.sample(orders_pool, rng.randint(0, 4))
        pairs = [(o, rng.randint(1, 3)) for o in kinds]
        p = CyclicProfile.from_pairs(pairs)
        assert lambda_square_profile(p).to_group() \
            == exterior_square(p.to_group()), pairs


def test_lambda_square_frozen_examples():
    p = CyclicProfile.from_pairs([(2, 1), (4, 1), (8, 1)])
    assert lambda_square_profile(p).summands == ((2, 2), (4, 1))

    single = CyclicProfile.from_pairs([(6, 1)])
    assert lambda_square_profile(single).is_zero

    square = CyclicProfile.from_pairs([(5, 2)])
    assert lambda_square_profile(square).summands == ((5, 1),)

    coprime = CyclicProfile.from_pairs([(4, 1), (9, 1)])
    assert lambda_square_profile(coprime).is_zero  # gcd 1 contributes nothing


def test_lambda_square_with_omega():
    p = CyclicProfile.from_pairs([(2, OMEGA)])
    assert lambda_square_profile(p).summands == ((2, OMEGA),)

    q = CyclicProfile.from_pairs([(2, OMEGA), (4, 1)])
    assert lambda_square_profile(q).summands == ((2, OMEGA),)

    r = CyclicProfile.from_pairs([(3, 2), (9, OMEGA)])
    # internal 3-pairs: 1 copy; internal 9-pairs: omega; cross: gcd 3 x omega
    assert lambda_square_profile(r).summands == ((3, OMEGA), (9, OMEGA))


# -- Brauer group of BG -------------------------------------------------------------


def test_brauer_of_bg_exact():
    p = CyclicProfile.from_pairs([(2, 1), (4, 1), (8, 1)])
    assert brauer_of_bg(p) == FgAbGroup.from_cyclic_orders((2, 2, 4))
    assert brauer_of_bg(CyclicProfile()) == FgAbGroup.trivial()
    assert brauer_of_bg(CyclicProfile.from_pairs([(7, 1)])) \
        == FgAbGroup.trivial()
    rng = random.Random(3)
    for _ in range(50):
        pairs = [(o, rng.randint(1, 2))
                 for o in rng.sample([2, 3, 4, 6, 8, 9], rng.randint(0, 3))]
        p = CyclicProfile.from_pairs(pairs)
        assert brauer_of_bg(p) == exterior_square(p.to_group())


def test_brauer_of_bg_structural():
    p = CyclicProfile.from_pairs([(2, OMEGA), (4, 1)])
    d = brauer_of_bg(p)
    assert isinstance(d, StructuralDescriptor)
    assert d.restricted_sum == lambda_square_profile(p)
    assert d.exponent == 2
    assert "(Z/2)^w" in d.expression
    assert any("restricted sum" in note for note in d.notes)

    deep = brauer_of_bg(CyclicProfile.from_pairs([(9, OMEGA), (27, 1)]))
    assert deep.exponent == 9  # no internal 27-pair, so gcds cap the exponent


# -- basic subgroup reduction --------------------------------------------------------


def test_reduce_to_basic_bare_profile():
    p = CyclicProfile.from_pairs([(2, OMEGA)])
    red = reduce_to_basic(p)
    assert isinstance(red, BasicReduction)
    assert red.basic == p
    assert all(holds for _, holds, _ in red.conditions)
    assert len(red.conditions) == 3
    assert red.h2_profile == lambda_square_profile(p)


# -- affine expressions and rules ----------------------------------------------------


def test_affine_expr():
    assert AffineExpr(2, 3)(5) == 13
    assert AffineExpr(2, 3) - AffineExpr(1, 5) == AffineExpr(1, -2)
    assert str(AffineExpr(2, 3)) == "2i+3"
    assert str(AffineExpr(1, 0)) == "i"
    assert str(AffineExpr(1, -2)) == "i-2"
    assert str(AffineExpr(0, 5)) == "5"


def test_rule_validation_and_size():
    # |J_i| = upper(i) - lower(i), the difference non_brauer_certificate
    # reads for growth
    r = Rule(lo=1, hi=None, lower=AffineExpr(1, 0), upper=AffineExpr(2, 0))
    assert (r.upper - r.lower)(4) == 4
    assert str(r) == "rule i>=1: J=(i, 2i]"
    bounded = Rule(lo=2, hi=9, lower=AffineExpr(1, 0), upper=AffineExpr(1, 3))
    assert str(bounded) == "rule 2<=i<=9: J=(i, i+3]"
    assert (bounded.upper - bounded.lower)(7) == 3
    with pytest.raises(SemanticError):
        Rule(lo=-1, hi=None, lower=AffineExpr(1, 0), upper=AffineExpr(2, 0))
    with pytest.raises(SemanticError):
        Rule(lo=5, hi=4, lower=AffineExpr(1, 0), upper=AffineExpr(2, 0))


def test_descriptor_validation():
    mk = lambda lo, hi: Rule(lo=lo, hi=hi, lower=AffineExpr(1, 0),
                             upper=AffineExpr(2, 0))
    ObstructionDescriptor(rules=(mk(1, 5), mk(6, None)))  # disjoint: fine
    with pytest.raises(SemanticError):
        ObstructionDescriptor(rules=(mk(1, 6), mk(6, None)))
    with pytest.raises(SemanticError):
        ObstructionDescriptor(rules=(mk(1, None), mk(7, 9)))
    with pytest.raises(SemanticError):
        # J must sit strictly above the diagonal: lower(i) >= i fails
        ObstructionDescriptor(rules=(
            Rule(lo=1, hi=None, lower=AffineExpr(0, 0),
                 upper=AffineExpr(2, 0)),))
    assert ObstructionDescriptor().is_zero


# -- non-Brauer certificates ---------------------------------------------------------


def growth_rule(lo=1, hi=None):
    return Rule(lo=lo, hi=hi, lower=AffineExpr(1, 0), upper=AffineExpr(2, 0))


def test_certificate_certified():
    p = CyclicProfile.from_pairs([(3, OMEGA)])
    report = non_brauer_certificate(p, ObstructionDescriptor((growth_rule(),)))
    assert isinstance(report, CertificateReport)
    assert report.verdict == "CERTIFIED_NOT_IN_BR"
    assert all(holds for _, holds, _ in report.conditions)
    assert "p = 3" in report.witness


def test_certificate_condition_fails():
    p = CyclicProfile.from_pairs([(3, OMEGA)])
    for hi in (9, 100):
        bounded = ObstructionDescriptor((growth_rule(hi=hi),))
        report = non_brauer_certificate(p, bounded)
        assert report.verdict == "CONDITION_FAILS"
        held = {name: holds for name, holds, _ in report.conditions}
        assert held["(a) all but finitely many J_i are finite"]
        assert not held["(b) sup |J_i| over the finite-J indices is "
                        "unbounded"]

    flat = ObstructionDescriptor((
        Rule(lo=1, hi=None, lower=AffineExpr(1, 0), upper=AffineExpr(1, 7)),))
    assert non_brauer_certificate(p, flat).verdict == "CONDITION_FAILS"

    zero = ObstructionDescriptor()
    report = non_brauer_certificate(p, zero)
    assert report.verdict == "CONDITION_FAILS"
    assert "zero class" in report.conditions[1][2]


def test_certificate_not_applicable():
    mixed = CyclicProfile.from_pairs([(6, OMEGA)])       # 6 not a prime power
    report = non_brauer_certificate(mixed, ObstructionDescriptor((growth_rule(),)))
    assert report.verdict == "NOT_APPLICABLE"
    assert "not primary" in report.witness

    finite = CyclicProfile.from_pairs([(3, 100)])
    report = non_brauer_certificate(finite, ObstructionDescriptor((growth_rule(),)))
    assert report.verdict == "NOT_APPLICABLE"
    assert "finitely many summands" in report.witness

    # the zero profile has no orders, so none of them mix primes
    zero = CyclicProfile.from_pairs([])
    report = non_brauer_certificate(zero, ObstructionDescriptor((growth_rule(),)))
    assert report.verdict == "NOT_APPLICABLE"
    assert report.witness == "profile has only finitely many summands"

    both = CyclicProfile.from_pairs([(2, 1), (3, 1)])
    report = non_brauer_certificate(both, ObstructionDescriptor((growth_rule(),)))
    assert report.witness == ("profile is not primary (orders mix primes); "
                              "profile has only finitely many summands")


def test_certificate_monotone_under_extra_rules():
    """Adding disjoint extra rules to a certified descriptor never
    destroys the certificate: condition (b) only needs one witness rule."""
    p = CyclicProfile.from_pairs([(2, OMEGA)])
    rng = random.Random(77)
    for _ in range(40):
        base_lo = rng.randint(2, 10)
        certified = growth_rule(lo=base_lo)
        lo2 = rng.randint(0, base_lo - 1)
        hi2 = rng.randint(lo2, base_lo - 1)
        extra = Rule(lo=lo2, hi=hi2,
                     lower=AffineExpr(1, rng.randint(0, 3)),
                     upper=AffineExpr(1, rng.randint(4, 9)))
        with_extra = ObstructionDescriptor(tuple(
            sorted((certified, extra), key=lambda r: r.lo)))
        assert non_brauer_certificate(p, with_extra).verdict \
            == "CERTIFIED_NOT_IN_BR"
