"""Tests for space descriptions: builders, homology dispatch, the
Brauer-group formula, phantom subgroups, equality certificates,
minimal bundle ranks, and the catalog."""

import random
from math import gcd

import pytest

from cwbrauer.abgroup import FgAbGroup, Z, brauer_of_k_g_2, exterior_square
from cwbrauer.chaincx import (ChainComplex, bockstein, cohomology, homology,
                              uct_decompose)
from cwbrauer.errors import SemanticError, UnsupportedComputation
from cwbrauer.intlin import IntMatrix
from cwbrauer.cli import execute, parse_request
from cwbrauer.grammar import format_group, parse_group, parse_space
from cwbrauer.profiles import OMEGA, CyclicProfile, StructuralDescriptor
from _oracles import bar_model_k_zn_2, draw_eventually_periodic, random_complex
from cwbrauer.spaces import (
    EQUAL, STRICT, UNKNOWN, EqualityCertificate, PeriodicComplex,
    QZ_TOKEN, SpaceDescription, SymbolicGroup, bg_profile, bpgl,
    brauer_prime, catalog_lookup,
    equality_certificate, from_complex, k_space, lens_periodic,
    lens_skeleton, min_bundle_rank, moore_3cell, phantom_subgroup, product,
    space_homology, sphere, telescope_z, wedge,
)


# -- builders and periodic complexes ----------------------------------------------


def test_sphere_and_moore_builders():
    s = sphere(4)
    assert s.kind == "finite"
    assert s.dimension() == 4
    assert [s.chains.rank(k) for k in range(6)] == [1, 0, 0, 0, 1, 0]
    m = moore_3cell(5)
    assert m.dimension() == 3
    assert space_homology(m, 2) == FgAbGroup.cyclic(5)
    with pytest.raises(SemanticError):
        sphere(0)
    with pytest.raises(SemanticError):
        moore_3cell(0)
    with pytest.raises(SemanticError):
        lens_skeleton(3, 0)


def test_lens_periodic_homology_in_low_degrees():
    for n in (2, 5, 9):
        x = lens_periodic(n)
        assert x.kind == "periodic"
        assert x.dimension() is None
        assert space_homology(x, 0) == Z
        for k in (1, 3, 5, 7):
            assert space_homology(x, k) == FgAbGroup.cyclic(n)
        for k in (2, 4, 6):
            assert space_homology(x, k).is_trivial


def _prefix_demo():
    # A Moore complex glued below an eventually 2-periodic tail: prefix
    # carries degrees 0..3, the block then repeats (Z -0-> Z -4-> Z).
    return PeriodicComplex(
        prefix=(1, 0, 1, 1),
        prefix_links=(IntMatrix.zeros(1, 0), IntMatrix.zeros(0, 1),
                      IntMatrix([[6]])),
        block=(1, 1),
        block_links=(IntMatrix([[0]]), IntMatrix([[4]])))


def test_periodic_with_prefix():
    per = _prefix_demo()
    x = SpaceDescription(("complex", ("periodic-demo",)), per)
    assert per.rank(2) == 1 and per.rank(5) == 1
    assert space_homology(x, 2) == FgAbGroup.cyclic(6)
    # degrees inside the tail: ... <-0- Z <-4- Z <-0- ...
    assert space_homology(x, 4) == FgAbGroup.cyclic(4)
    assert space_homology(x, 5).is_trivial


@pytest.mark.parametrize("x", [
    SpaceDescription(("complex", ("periodic-demo",)), _prefix_demo()),
    lens_periodic(6)], ids=["prefix-demo", "lens_periodic"])
def test_periodic_chains_agree_with_unrolled_complex_across_the_seam(x):
    """Every chain-level function reads the PeriodicComplex itself and
    agrees with the bounded ChainComplex unrolled past the degrees read."""
    per = x.cells
    assert x.chains is per
    full = per.unroll(14)
    for n in range(12):
        assert homology(per, n) == homology(full, n), n
        assert cohomology(per, n) == cohomology(full, n), n
        for m in (2, 3, 4):
            assert cohomology(per, n, m) == cohomology(full, n, m), (n, m)
            assert bockstein(per, n, m) == bockstein(full, n, m), (n, m)
        assert uct_decompose(per, n) == uct_decompose(full, n), n
    # the space hands out the very matrices it stores, so a Smith
    # diagonal kept on one is seen through the other
    for d in range(1, 15):
        assert x.chains.boundary(d) is per.boundary(d), d
        assert x.chains.boundary(d) == full.boundary(d), d


def test_lens_periodic_cohomology_in_closed_form():
    """H^k(L; Z) is Z/n in even degrees k >= 2 and 0 in odd ones, and
    H^k(L; Z/m) is Z/gcd(n, m) for k >= 1, read far beyond any unrolled
    stretch."""
    for n in (2, 4, 6):
        x = lens_periodic(n)
        for k in (1, 2, 11, 10 ** 6, 10 ** 9 + 1):
            want = FgAbGroup.cyclic(n) if k % 2 == 0 else FgAbGroup.trivial()
            assert cohomology(x.chains, k) == want, (n, k)
            for m in (2, 3, 4):
                assert cohomology(x.chains, k, m) == FgAbGroup.cyclic(
                    gcd(n, m)), (n, k, m)


def test_chains_of_finite_space_is_the_stored_complex():
    x = moore_3cell(6)
    assert x.chains is x.cells
    for d in range(1, x.cells.top_degree + 1):
        assert x.chains.boundary(d) is x.cells.boundary(d)
    # above the top degree the ranks are 0: the trivial group, as the
    # bounded complex has no cells there
    for n in (4, 9):
        assert homology(x.chains, n).is_trivial
        assert cohomology(x.chains, n, 3).is_trivial
    for y in (telescope_z(5), bpgl(3), k_space(FgAbGroup.cyclic(3), 2),
              bg_profile(CyclicProfile.from_pairs([(3, OMEGA)]))):
        with pytest.raises(UnsupportedComputation) as e:
            y.chains
        assert str(e.value) == (
            f"{y.kind} spaces support homology, brauer, phantom and "
            "certify only; cochain-level commands need a finite or "
            "periodic cell structure")


def test_periodic_validation():
    with pytest.raises(SemanticError):
        PeriodicComplex(prefix=(), prefix_links=(),
                        block=(), block_links=())
    with pytest.raises(SemanticError):
        # block boundary shapes must chain up around the wrap
        PeriodicComplex(prefix=(), prefix_links=(),
                        block=(1, 2),
                        block_links=(IntMatrix([[1]]), IntMatrix([[1]])))


# 2 x 2 boundaries with E @ N != 0 but N @ E = N @ N = 0
_E = IntMatrix([[1, 0], [0, 0]])
_N = IntMatrix([[0, 1], [0, 0]])
_O = IntMatrix.zeros(2, 2)


@pytest.mark.parametrize("prefix", [0, 1])
@pytest.mark.parametrize("period,bad", [(1, 0), (2, 0), (2, 1), (3, 0),
                                        (3, 1), (3, 2)])
def test_periodic_validation_sees_every_block_pair(period, bad, prefix):
    """del del != 0 only for the block pair (block[bad], block[bad + 1]),
    the wrap (block[m - 1], block[0]) included; with no prefix the pair
    (block[0], block[1]) first meets in degree m, the top of the
    validated stretch."""
    blocks = [_O] * period
    blocks[bad] = _E
    if period > 1:
        blocks[(bad + 1) % period] = _N
    kwargs = dict(prefix=(2,) * prefix, block=(2,) * period)
    with pytest.raises(SemanticError, match="!= 0"):
        PeriodicComplex(block_links=tuple(blocks), **kwargs)
    blocks[bad] = _O
    PeriodicComplex(block_links=tuple(blocks), **kwargs)


@pytest.mark.parametrize("period", [1, 2, 3])
def test_periodic_validation_sees_the_prefix_seam(period):
    """del del != 0 only for (last prefix boundary, block[0])."""
    blocks = (_N,) + (_O,) * (period - 1)
    with pytest.raises(SemanticError, match="del_1 del_2 != 0"):
        PeriodicComplex(prefix=(2, 2), prefix_links=(_E,),
                        block=(2,) * period, block_links=blocks)
    PeriodicComplex(prefix=(2, 2), prefix_links=(_O,),
                    block=(2,) * period, block_links=blocks)


def _periodic_rules_before_the_shared_base(prefix, prefix_links, block,
                                           block_links) -> bool:
    """The checks PeriodicComplex made on its own fields, each written out
    on plain lists: counts, the seam (last prefix rank = last block rank),
    then on degrees 0 .. p + m + 1 every boundary's shape and
    del_n del_(n+1) = 0."""
    p, m = len(prefix), len(block)
    if not m or len(block_links) != m:
        return False
    if len(prefix_links) != (p - 1 if p else 0):
        return False
    if p and prefix[-1] != block[-1]:
        return False

    def rank(n):
        return 0 if n < 0 else prefix[n] if n < p else block[(n - p) % m]

    def rows(n):
        if n < 1:
            return [[0] * rank(n) for _ in range(rank(n - 1))]
        a = prefix_links[n - 1] if n < p else block_links[(n - p) % m]
        return a.to_lists() if a.shape == (rank(n - 1), rank(n)) else None

    top = p + m + 1
    mats = [rows(n) for n in range(top + 1)]
    if any(a is None for a in mats):
        return False
    for n in range(1, top):
        a, b = mats[n], mats[n + 1]
        if any(sum(a[i][k] * b[k][j] for k in range(rank(n)))
               for i in range(rank(n - 1)) for j in range(rank(n + 1))):
            return False
    return True


def test_periodic_complex_accepts_exactly_what_its_written_out_rules_accept():
    rng = random.Random(20)

    def boundary(rng, x, y):
        a = [[0] * x for _ in range(y)]
        if x and y and rng.random() < 0.4:
            a[rng.randrange(y)][rng.randrange(x)] = rng.choice((-2, 1, 3))
        return IntMatrix(a, cols=x)

    seen = {}
    for _ in range(600):
        kind, *data = draw_eventually_periodic(
            rng, lambda rng: rng.choice((0, 1, 2)), boundary)
        try:
            PeriodicComplex(*data)
            accepted = True
        except SemanticError:
            accepted = False
        assert accepted == _periodic_rules_before_the_shared_base(*data), data
        if kind != "valid":
            assert not accepted, (kind, data)
        seen[kind, accepted] = seen.get((kind, accepted), 0) + 1
    assert min(seen[k, False] for k in ("count", "link", "seam")) > 100, seen
    assert min(seen["valid", ok] for ok in (False, True)) > 20, seen


def test_unroll_agrees_with_ranks():
    per = lens_periodic(3).chains
    c = per.unroll(6)
    assert c.ranks == (1,) * 7
    assert c.boundary(2).to_lists() == [[3]]
    assert c.boundary(3).to_lists() == [[0]]


def test_wedge_homology_is_sum():
    rng = random.Random(20260814)
    pool = [lambda: moore_3cell(rng.randint(2, 9)),
            lambda: sphere(rng.randint(1, 5)),
            lambda: lens_skeleton(rng.randint(2, 6), rng.randint(1, 4))]
    for _ in range(25):
        parts = [rng.choice(pool)() for _ in range(rng.randint(2, 4))]
        w = wedge(parts)
        top = max(p.chains.top_degree for p in parts)
        assert space_homology(w, 0) == Z
        for n in range(1, top + 2):
            expect = FgAbGroup.trivial()
            for p in parts:
                expect = expect.direct_sum(space_homology(p, n))
            assert space_homology(w, n) == expect, n


def test_wedge_validation():
    with pytest.raises(SemanticError):
        wedge([sphere(2)])
    with pytest.raises(SemanticError):
        wedge([sphere(2), lens_periodic(2)])
    two_points = from_complex(ChainComplex([2], []))
    with pytest.raises(SemanticError):
        wedge([sphere(2), two_points])
    # nonzero del_1 (an interval collapsing the two 0-cells) is rejected
    interval = from_complex(ChainComplex([1, 1], [[[0]]]))
    assert wedge([sphere(2), interval])  # zero del_1 accepted
    circleish = ChainComplex([1, 2], [[[0, 0]]])
    assert wedge([sphere(2), from_complex(circleish)])


def test_product_homology_kunneth():
    for m, n in [(2, 4), (3, 5), (6, 9)]:
        x = product(lens_skeleton(m, 3), lens_skeleton(n, 3))
        assert space_homology(x, 2) == FgAbGroup.cyclic(gcd(m, n))
    with pytest.raises(SemanticError):
        product(sphere(2), lens_periodic(2))


def test_kind_is_read_off_the_payload():
    """Every builder's space reports the kind its payload implies, and
    a space without cells refuses chains with the same message."""
    kinds = {
        "finite": [sphere(3), moore_3cell(4), lens_skeleton(3, 4),
                   wedge([sphere(2), moore_3cell(3)]),
                   product(sphere(1), lens_skeleton(2, 2)),
                   parse_space("complex{cells 0: 1; cells 1: 1; cells 2: 1; "
                               "boundary 2: [[3]]}")],
        "periodic": [lens_periodic(4)],
        "telescope": [telescope_z(6)],
        "catalog": [bpgl(3), k_space(FgAbGroup.cyclic(4), 2),
                    bg_profile(CyclicProfile.from_pairs([(2, OMEGA)]))],
    }
    for kind, spaces in kinds.items():
        for x in spaces:
            assert x.kind == kind, x.label
            if kind in ("finite", "periodic"):
                assert x.chains is x.cells
                assert isinstance(x.cells, ChainComplex) == (kind == "finite")
                continue
            with pytest.raises(UnsupportedComputation) as e:
                x.chains
            assert str(e.value) == (
                f"{kind} spaces support homology, brauer, phantom and "
                "certify only; cochain-level commands need a finite or "
                "periodic cell structure")


def test_k_space_validation():
    assert k_space(FgAbGroup.cyclic(4), 2).kind == "catalog"
    assert k_space(QZ_TOKEN, 2).label == ("k", (QZ_TOKEN, 2))
    with pytest.raises(SemanticError):
        k_space(FgAbGroup.cyclic(4), 1)
    with pytest.raises(SemanticError):
        k_space(QZ_TOKEN, 3)
    with pytest.raises(SemanticError):
        k_space("Z/4", 2)  # must be a group object, not a string


# -- homology of catalog spaces ----------------------------------------------------


def test_catalog_homology():
    x = bpgl(6)
    assert space_homology(x, 0) == Z
    assert space_homology(x, 1).is_trivial
    assert space_homology(x, 2) == FgAbGroup.cyclic(6)
    with pytest.raises(UnsupportedComputation):
        space_homology(x, 3)

    k = k_space(FgAbGroup.cyclic(9), 4)
    assert space_homology(k, 0) == Z
    for n in (1, 2, 3):
        assert space_homology(k, n).is_trivial
    assert space_homology(k, 4) == FgAbGroup.cyclic(9)
    with pytest.raises(UnsupportedComputation):
        space_homology(k, 5)
    with pytest.raises(UnsupportedComputation,
                       match="^H_2 = Q/Z is not finitely generated$"):
        space_homology(k_space(QZ_TOKEN, 2), 2)

    p = CyclicProfile.from_pairs([(2, 1), (4, 2)])  # Z/2 + (Z/4)^2
    b = bg_profile(p)
    assert space_homology(b, 1) == FgAbGroup.from_cyclic_orders((2, 4, 4))
    assert space_homology(b, 2) == exterior_square(
        FgAbGroup.from_cyclic_orders((2, 4, 4)))
    infinite = bg_profile(CyclicProfile.from_pairs([(3, OMEGA)]))
    with pytest.raises(UnsupportedComputation):
        space_homology(infinite, 1)


def test_telescope_homology():
    t = telescope_z(6)
    assert t.dimension() == 2
    assert space_homology(t, 0) == Z
    h1 = space_homology(t, 1)
    assert isinstance(h1, SymbolicGroup)
    assert h1.describe() == "Z[1/2,1/3]"
    assert space_homology(t, 2).is_trivial


# -- K(Z/n, 2) from cells: the bar model of tests/_oracles.py ----------------------


# H_2 .. H_8 of K(Z/n, 2), n = 2 .. 6, as the model first gave them; the
# tests below check values of its rows by independent routes
_KZN2_HOMOLOGY = {
    2: "Z/2, 0, Z/4, Z/2, Z/2, Z/2, Z/2 + Z/8",
    3: "Z/3, 0, Z/3, 0, Z/9, Z/3, Z/3",
    4: "Z/4, 0, Z/8, Z/2, Z/4, Z/2, Z/2 + Z/16",
    5: "Z/5, 0, Z/5, 0, Z/5, 0, Z/5",
    6: "Z/6, 0, Z/12, Z/2, Z/18, Z/6, Z/2 + Z/24",
}


def test_bar_model_has_fibonacci_ranks_and_the_recorded_homology():
    fib = [1, 0]                    # F_{-1}, F_0, F_1, ...
    while len(fib) < 10:
        fib.append(fib[-1] + fib[-2])
    for n, row in _KZN2_HOMOLOGY.items():
        c = bar_model_k_zn_2(n, 9)
        assert list(c.ranks) == fib, n
        assert [homology(c, q) for q in range(2, 9)] == [
            parse_group(g) for g in row.split(", ")], n


def test_bar_model_h3_vanishes_and_h4_is_whiteheads_gamma():
    """H_3(K(Z/n, 2)) = 0 and H_4 = Γ(Z/n), which is Z/2n for even n and
    Z/n for odd n (Whitehead 1950)."""
    for n in range(2, 13):
        c = bar_model_k_zn_2(n, 5)
        assert homology(c, 3).is_trivial, n
        assert homology(c, 4) == FgAbGroup.cyclic(n * (2 - n % 2)), n


def test_bar_model_mod_p_dimensions_follow_serre_and_cartan():
    """dim H^q(K(Z/2, 2); Z/2) for q = 0 .. 8 is Serre's series, the
    product of 1/(1 - t^d) over d = 2, 3, 5, 9; dim H^q(K(Z/3, 2); Z/3)
    for q = 2 .. 8 is Cartan's algebra, polynomial on degrees 2 and 8
    and exterior on 3 and 7."""
    def dims(p, degrees):
        c = bar_model_k_zn_2(p, max(degrees) + 1)
        return [len(cohomology(c, q, p).invariant_factors) for q in degrees]
    assert dims(2, range(9)) == [1, 0, 1, 1, 1, 2, 2, 2, 3]
    assert dims(3, range(2, 9)) == [1, 1, 1, 1, 1, 2, 2]


def test_bar_model_h3_torsion_is_the_catalog_brauer_prime():
    """Br' = the torsion of H^3 of the bar model equals the catalog's
    brauer_of_k_g_2 and the Br' that `brauer k(Z/n, 2)` prints.  BPU_n
    -> K(Z/n, 2) is 4-connected, so it also equals the catalog's Br' of
    bpgl(n), and H_2 = Z/n equals `homology bpgl(n) 2`."""
    for n in range(2, 13):
        c = bar_model_k_zn_2(n, 4)
        torsion = FgAbGroup(0, cohomology(c, 3).invariant_factors)
        assert torsion == FgAbGroup.cyclic(n)
        assert torsion == brauer_of_k_g_2(FgAbGroup.cyclic(n)).br_prime
        assert torsion == catalog_lookup(bpgl(n)).br_prime
        brauer = execute(parse_request(f"brauer k(Z/{n}, 2)"))["result"]
        assert brauer["br_prime"]["group"] == format_group(torsion)
        h2 = execute(parse_request(f"homology bpgl({n}) 2"))["result"]
        assert h2["group"] == format_group(homology(c, 2)) == f"Z/{n}"


# -- Brauer groups -----------------------------------------------------------------


def test_brauer_prime_is_torsion_of_h2():
    """Br' = torsion Ext^1(H_2, Z) = torsion(H_2) for honest complexes."""
    rng = random.Random(31)
    for _ in range(60):
        c = random_complex(rng, max_top=4, max_rank=4)
        x = from_complex(c)
        assert brauer_prime(x) == homology(c, 2).torsion_part()


def test_brauer_prime_families():
    for n in range(2, 13):
        assert brauer_prime(moore_3cell(n)) == FgAbGroup.cyclic(n)
        assert brauer_prime(bpgl(n)) == FgAbGroup.cyclic(n)
        assert brauer_prime(k_space(FgAbGroup.cyclic(n), 2)) \
            == FgAbGroup.cyclic(n)
        assert brauer_prime(k_space(FgAbGroup.cyclic(n), 3)).is_trivial
    assert brauer_prime(sphere(2)).is_trivial   # H_2 = Z is torsion-free
    assert brauer_prime(lens_periodic(4)).is_trivial
    assert brauer_prime(telescope_z(5)).is_trivial
    assert brauer_prime(k_space(QZ_TOKEN, 2)).is_trivial
    assert brauer_prime(k_space(FgAbGroup.free(2), 2)).is_trivial
    finite_bg = bg_profile(CyclicProfile.from_pairs([(2, 1), (4, 1), (8, 1)]))
    assert brauer_prime(finite_bg) == FgAbGroup.from_cyclic_orders((2, 2, 4))
    infinite_bg = bg_profile(CyclicProfile.from_pairs([(2, OMEGA)]))
    assert isinstance(brauer_prime(infinite_bg), StructuralDescriptor)


# -- phantom subgroups -------------------------------------------------------------


def run_phantom_suite():
    """Phantom classes vanish on finitely generated homology and appear
    on the telescope; shared with the acceptance gate."""
    rng = random.Random(20260814)
    corpus = [moore_3cell(n) for n in range(2, 8)]
    corpus += [sphere(n) for n in range(1, 6)]
    corpus += [lens_skeleton(n, 4) for n in range(2, 6)]
    corpus += [from_complex(random_complex(rng, max_top=4, max_rank=4))
               for _ in range(20)]
    checked = 0
    for x in corpus:
        for n in range(1, (x.dimension() or 0) + 2):
            ph = phantom_subgroup(x, n)
            assert ph.is_trivial if isinstance(ph, FgAbGroup) else ph.is_zero
            checked += 1
    # infinite-dimensional but finitely generated in every degree
    for n in range(1, 7):
        ph = phantom_subgroup(lens_periodic(3), n)
        assert ph.is_trivial
        checked += 1
    # the telescope in its interesting degree
    for k in (2, 3, 6, 10):
        ph = phantom_subgroup(telescope_z(k), 2)
        assert isinstance(ph, SymbolicGroup)
        assert ph.nonzero and ph.divisible
        checked += 1
    return checked


def test_phantom_suite():
    assert run_phantom_suite() > 100


TELESCOPE_MULTIPLIERS = (0, 1, -1, 2, 5, 6, -12, 30, 1000003,
                         2 * 1000003 ** 2)


def _distinct_primes(k: int) -> list[int]:
    """The distinct primes of k != 0, ascending, by trial division."""
    primes, n, p = [], abs(k), 2
    while n > 1:
        if p * p > n:
            p = n
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes


def _telescope_h1_closed_form(k: int) -> SymbolicGroup:
    """H_1 of the mapping telescope of Z -(k)-> Z -(k)-> ...: zero for
    k = 0, Z for k = +-1, else the torsion-free nonzero Z[1/p,...] over
    the distinct primes p of k."""
    if k == 0:
        return SymbolicGroup()
    inside = ",".join(f"1/{p}" for p in _distinct_primes(k))
    return SymbolicGroup(f"Z[{inside}]" if inside else "Z", divisible=False,
                         torsion=False, torsion_free=True, nonzero=True)


def _telescope_phantom_closed_form(k: int) -> SymbolicGroup:
    """Phantom H^2 of the same telescope: zero for k in {0, 1, -1}, else
    the divisible nonzero Ext^1(Z[1/p,...], Z) over the distinct primes
    p of k."""
    if abs(k) <= 1:
        return SymbolicGroup()
    inside = ",".join(f"1/{p}" for p in _distinct_primes(k))
    return SymbolicGroup(f"Ext^1(Z[{inside}], Z)", divisible=True,
                         torsion=False, torsion_free=False, nonzero=True)


def test_telescope_h1_matches_its_closed_form():
    for k in TELESCOPE_MULTIPLIERS:
        assert space_homology(telescope_z(k), 1) \
            == _telescope_h1_closed_form(k), k


def test_telescope_phantom_matches_its_closed_form():
    for k in TELESCOPE_MULTIPLIERS:
        x = telescope_z(k)
        expected = _telescope_phantom_closed_form(k)
        assert phantom_subgroup(x, 2) == expected, k
        assert phantom_subgroup(x, 1).is_trivial, k
        assert phantom_subgroup(x, 3).is_trivial, k


def test_phantom_validation_and_edges():
    with pytest.raises(SemanticError):
        phantom_subgroup(moore_3cell(2), 0)
    # telescope away from degree 2: everything is finitely generated
    assert phantom_subgroup(telescope_z(5), 1).is_trivial
    assert phantom_subgroup(telescope_z(5), 3).is_trivial
    # catalog homology gives out above the recorded range
    with pytest.raises(UnsupportedComputation):
        phantom_subgroup(k_space(FgAbGroup.cyclic(2), 2), 4)


def test_phantom_of_k_g_2_low_degrees():
    x = k_space(FgAbGroup.cyclic(8), 2)
    assert phantom_subgroup(x, 1).is_trivial
    assert phantom_subgroup(x, 2).is_trivial
    assert phantom_subgroup(x, 3).is_trivial  # Ext^1 of H_2/Torsion = 0


# -- equality certificates ---------------------------------------------------------


def test_certificate_every_finite_complex_is_compact():
    rng = random.Random(41)
    for _ in range(40):
        x = from_complex(random_complex(rng, max_top=6, max_rank=3))
        cert = equality_certificate(x)
        assert cert.verdict == EQUAL
        assert cert.reason == "CompactSerre"
        dim = x.dimension()
        if dim <= 4:
            assert "WoodwardDimLe4" in cert.applicable_rules
        else:
            assert "WoodwardDimLe4" not in cert.applicable_rules


def test_certificate_rule_order_and_witness():
    cert = equality_certificate(moore_3cell(7))
    assert cert.verdict == EQUAL
    assert cert.reason == "CompactSerre"
    assert set(cert.also_applicable) == {"WoodwardDimLe4", "EvenCells"}
    assert "also applicable" in cert.witness
    # each fired rule brings its own fact key
    assert set(cert.citations) == {"compact-equality", "woodward-dim4",
                                   "even-cells"}

    even6 = wedge([sphere(2), sphere(4), sphere(6)])
    cert = equality_certificate(even6)
    assert cert.verdict == EQUAL
    assert cert.reason == "CompactSerre"
    assert cert.also_applicable == ("EvenCells",)

    odd7 = wedge([sphere(2), sphere(7)])
    cert = equality_certificate(odd7)
    assert cert.applicable_rules == ("CompactSerre",)


def test_even_cell_rule_on_finite_dimensional_periodic_spaces():
    """A periodic description whose block has no cells is finite
    dimensional; its prefix decides the even-cell rule."""
    def prefix_only(top):
        ranks = tuple(1 if d in (0, top) else 0 for d in range(top + 2))
        return SpaceDescription(
            ("complex", ("prefix-only", top)),
            PeriodicComplex(
                prefix=ranks,
                prefix_links=tuple(
                    IntMatrix.zeros(ranks[d - 1], ranks[d])
                    for d in range(1, len(ranks))),
                block=(0,), block_links=(IntMatrix.zeros(0, 0),)))

    for top in range(2, 10):
        x = prefix_only(top)
        assert x.dimension() == top
        even = "EvenCells" in equality_certificate(x).applicable_rules
        assert even == (top < 5 or top % 2 == 0), top


def test_certificate_telescope():
    cert = equality_certificate(telescope_z(5))
    assert cert.verdict == EQUAL
    assert cert.reason == "WoodwardDimLe4"          # dimension 2
    assert cert.also_applicable == ("EvenCells",)   # no odd cells >= 5 at all


def test_certificate_catalog_cases():
    k52 = k_space(FgAbGroup.cyclic(5), 2)
    strict = equality_certificate(k52)
    assert strict.verdict == STRICT
    assert strict.applicable_rules == ("CatalogTheorem",)
    # the catalog rule cites the entry's own facts
    assert strict.citations == catalog_lookup(k52).citations
    assert set(strict.citations) == {"kg2-trivial-brauer", "kg2-containment"}

    equal = equality_certificate(k_space(FgAbGroup.free(2), 2))
    assert equal.verdict == EQUAL
    assert equal.reason == "CatalogTheorem"

    assert equality_certificate(k_space(QZ_TOKEN, 2)).verdict == EQUAL
    assert equality_certificate(bpgl(7)).verdict == EQUAL

    strict_bg = equality_certificate(
        bg_profile(CyclicProfile.from_pairs([(2, OMEGA)])))
    assert strict_bg.verdict == STRICT
    assert strict_bg.reason == "CatalogTheorem"

    unknown_bg = equality_certificate(
        bg_profile(CyclicProfile.from_pairs([(6, 2)])))
    assert unknown_bg.verdict == UNKNOWN
    assert unknown_bg.reason is None
    assert unknown_bg.citations == ()


def test_certificate_unknown_for_periodic():
    for n in (3, 4):
        cert = equality_certificate(lens_periodic(n))
        assert cert.verdict == UNKNOWN
        assert cert.reason is None
        assert cert.applicable_rules == ()
        assert cert.citations == ()


def test_certificate_verdicts_are_exclusive():
    """One verdict per description, and EQUAL rules never co-fire with a
    STRICT catalog verdict."""
    candidates = [moore_3cell(4), sphere(3), lens_periodic(2),
                  telescope_z(3), bpgl(4),
                  k_space(FgAbGroup.cyclic(6), 2),
                  k_space(FgAbGroup.cyclic(6), 5),
                  bg_profile(CyclicProfile.from_pairs([(3, OMEGA)])),
                  wedge([sphere(2), sphere(6)])]
    for x in candidates:
        cert = equality_certificate(x)
        assert cert.verdict in (EQUAL, STRICT, UNKNOWN)
        if cert.verdict == STRICT:
            assert set(cert.applicable_rules) <= {"CatalogTheorem"}
        if cert.verdict == UNKNOWN:
            assert cert.applicable_rules == ()


def test_certificate_constructor_invariants():
    with pytest.raises(SemanticError):
        EqualityCertificate("MAYBE", None, "")
    with pytest.raises(SemanticError):
        EqualityCertificate(UNKNOWN, "CompactSerre", "")
    with pytest.raises(SemanticError):
        EqualityCertificate(EQUAL, None, "")
    with pytest.raises(SemanticError):
        EqualityCertificate(EQUAL, "BogusRule", "")


# -- minimal bundle rank -----------------------------------------------------------


def test_min_bundle_rank_low_dimensions():
    for n in (2, 5, 7, 12):
        x = moore_3cell(n)     # dimension 3
        assert min_bundle_rank(x, n) == n
        assert min_bundle_rank(x, 1) == 1
        for d in range(2, n):
            if n % d == 0:
                assert min_bundle_rank(x, d) == d
    y = wedge([moore_3cell(6), sphere(4)])    # dimension 4, Br' = Z/6
    assert brauer_prime(y) == FgAbGroup.cyclic(6)
    assert min_bundle_rank(y, 6) == 6
    assert min_bundle_rank(y, 3) == 3


def test_min_bundle_rank_errors_and_unknowns():
    x = moore_3cell(7)
    with pytest.raises(SemanticError):
        min_bundle_rank(x, 2)      # no class of order 2 in Z/7
    with pytest.raises(SemanticError):
        min_bundle_rank(x, 0)
    # above dimension 4 the minimal rank is not decided
    even6 = wedge([sphere(2), sphere(4), sphere(6)])
    assert min_bundle_rank(even6, 1) == 1
    assert min_bundle_rank(k_space(FgAbGroup.cyclic(6), 2), 6) is None
    assert min_bundle_rank(bpgl(5), 5) is None
    # a Br' that is a StructuralDescriptor gives its exponent
    assert min_bundle_rank(
        bg_profile(CyclicProfile.from_pairs([(2, OMEGA)])), 2) is None
    # 5-dimensional complex with torsion H_2: order divides but dim > 4
    tall = wedge([moore_3cell(4), sphere(5)])
    assert min_bundle_rank(tall, 4) is None


# -- catalog -----------------------------------------------------------------------


def test_catalog_entries():
    e = catalog_lookup(bpgl(6))
    assert e.br_prime == FgAbGroup.cyclic(6)
    assert e.br == FgAbGroup.cyclic(6)
    assert e.verdict == EQUAL
    assert "bpgl-brauer" in e.citations
    assert catalog_lookup(bpgl(1)).br_prime == FgAbGroup.trivial()

    e = catalog_lookup(k_space(FgAbGroup.cyclic(8), 2))
    assert e.br_prime == FgAbGroup.cyclic(8)
    assert e.br == FgAbGroup.trivial()
    assert e.verdict == STRICT

    e = catalog_lookup(k_space(FgAbGroup.cyclic(8), 9))
    assert e.br_prime.is_trivial and e.verdict == EQUAL

    e = catalog_lookup(k_space(QZ_TOKEN, 2))
    assert e.br_prime.is_trivial and e.verdict == EQUAL

    e = catalog_lookup(bg_profile(CyclicProfile.from_pairs([(2, OMEGA)])))
    assert e.verdict == STRICT
    assert isinstance(e.br_prime, StructuralDescriptor)
    assert e.br is None

    e = catalog_lookup(bg_profile(CyclicProfile.from_pairs([(6, 1)])))
    assert e.verdict == UNKNOWN


def test_catalog_named_facts():
    plus = catalog_lookup("plus_construction")
    assert plus.verdict == UNKNOWN and plus.br_prime is None
    compact = catalog_lookup("compact_realization")
    assert "torsion abelian" in compact.notes[0]
    with pytest.raises(SemanticError):
        catalog_lookup("no_such_fact")
    with pytest.raises(SemanticError, match="^catalog takes a catalog space"):
        catalog_lookup(moore_3cell(2))
