"""Tests for exact integer matrix routines.

The oracles here are implemented from scratch in this file with plain
Python integers: a subset-DP determinant (Laplace expansion with
memoisation), a column-style Hermite reduction for lattice membership,
rank and cokernel order, and literal coset enumeration for small
cokernels.  None of them call back into the package.
"""

import itertools
import random
import time
from math import gcd

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cwbrauer.errors import SemanticError
from _oracles import (
    cokernel_order_oracle, det_oracle, determinantal_divisor_oracle,
    hermite_columns, lattice_membership, random_complex, rank_oracle,
    smith_diag_oracle,
)
from _snf_reference import reference_smith_normal_form, reference_solve
from cwbrauer import intlin
from cwbrauer.abgroup import FgAbGroup
from cwbrauer.grammar import parse_space
from cwbrauer.intlin import (
    IntMatrix, determinant, kernel_basis, product_is_zero, rank,
    smith_invariants, smith_normal_form, solve_integral, unimodular_inverse,
)


# -- shared oracles live in _oracles.py ------------------------------------------


def random_matrix(rng, max_n=8, bound=9):
    rows = rng.randint(1, max_n)
    cols = rng.randint(1, max_n)
    return [[rng.randint(-bound, bound) for _ in range(cols)]
            for _ in range(rows)]


# -- Smith normal form -----------------------------------------------------------


def test_smith_frozen_examples():
    cases = [
        ([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], (2, 2, 156)),
        ([[1, 0], [0, 1]], (1, 1)),
        ([[0, 0], [0, 0]], (0, 0)),
        ([[6]], (6,)),
        ([[2, 0], [0, 3]], (1, 6)),
        ([[4, 0], [0, 6]], (2, 12)),
        ([[1, 2, 3]], (1,)),
        ([[3], [6], [9]], (3,)),
    ]
    for rows, diag in cases:
        sf = smith_normal_form(IntMatrix(rows))
        assert sf.diagonal == diag, rows


def run_smith_property_suite(count=1000, seed=20260814):
    """U @ A @ V = S with unimodular U, V and a divisibility chain,
    plus cokernel orders against the Hermite oracle.  Shared with the
    acceptance gate; returns the number of matrices checked."""
    rng = random.Random(seed)
    small_coker = 0
    for _ in range(count):
        rows = random_matrix(rng)
        a = IntMatrix(rows)
        sf = smith_normal_form(a)
        assert sf.u @ a @ sf.v == sf.s
        assert abs(det_oracle(sf.u.to_lists())) == 1
        assert abs(det_oracle(sf.v.to_lists())) == 1
        diag = sf.diagonal
        assert len(diag) == min(a.rows, a.cols)
        assert all(d >= 0 for d in diag)
        nonzero = [d for d in diag if d]
        assert list(diag[:len(nonzero)]) == nonzero  # zeros trail
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0
        # off-diagonal of S vanishes
        s = sf.s.to_lists()
        assert all(s[i][j] == 0
                   for i in range(a.rows) for j in range(a.cols) if i != j)
        # the whole diagonal against the independent reduction oracle
        assert nonzero == smith_diag_oracle(rows)
        # rank and cokernel order against the independent Hermite oracle
        assert sf.rank == rank_oracle(rows)
        want = cokernel_order_oracle(rows)
        got = FgAbGroup.from_presentation(a).order()
        assert got == want, rows
        if want is not None and want <= 2000:
            small_coker += 1
    assert small_coker >= 200  # the suite genuinely exercises small cokernels
    return count


def test_smith_property_suite():
    run_smith_property_suite()


def test_smith_against_minor_gcds():
    """Cross-check the diagonal against gcds of k x k minors, a wholly
    different route to the elementary divisors (small matrices only)."""
    rng = random.Random(17)
    for _ in range(120):
        rows = random_matrix(rng, max_n=5, bound=9)
        diag = [d for d in smith_normal_form(IntMatrix(rows)).diagonal if d]
        assert diag == determinantal_divisor_oracle(rows), rows


def test_smith_transpose_invariance():
    rng = random.Random(3)
    for _ in range(100):
        a = IntMatrix(random_matrix(rng, max_n=6))
        d1 = [d for d in smith_normal_form(a).diagonal if d]
        d2 = [d for d in smith_normal_form(a.transpose()).diagonal if d]
        assert d1 == d2


def test_smith_first_invariant_is_gcd_of_entries():
    rng = random.Random(4)
    for _ in range(200):
        rows = random_matrix(rng, max_n=5)
        g = 0
        for r in rows:
            for x in r:
                g = gcd(g, x)
        diag = smith_normal_form(IntMatrix(rows)).diagonal
        assert diag[0] == g  # g = 0 exactly for the zero matrix


def _chain_heavy_shaped(rng):
    """Boundaries as the benchmark's chain_heavy workload meets them: dense
    kernel-built complexes of ranks up to 12 and sparse boundaries of
    products of lens and Moore spaces."""
    for _ in range(120):
        c = random_complex(rng, max_top=4, max_rank=12)
        yield from c.boundaries
    for text in ("product(lens(4, 3), lens(6, 3))",
                 "product(lens(5, 4), moore3(6))",
                 "product(lens(3, 3), product(moore3(4), lens(2, 2)))"):
        yield from parse_space(text).chains.boundaries


def test_transform_snf_matches_its_frozen_reference():
    """Skipping no-op column operations and swaps keeps U, S and V, not just
    the diagonal.  Compared with `_snf_reference`, a copy of the routine
    from before the skips, on seeded dense and sparse matrices,
    chain_heavy boundaries, their transposes (the cochain maps), the
    [d | mI] matrices of mod-m cocycles and diagonal matrices of cyclic
    orders, as a Bockstein's domain gives.  With transforms `smith_form`
    returns the reference's U, S and V; without, the same S and
    diagonal, and None for U and V.  The Bockstein matrix is printed in
    the generators that U^-1 picks, and `bockstein` reads U^-1 as
    D V S^-1: on the diagonal matrices D of orders, that is the
    reference's inverse of U, entry by entry an exact quotient."""
    rng = random.Random(20261018)
    dense = [IntMatrix(random_matrix(rng)) for _ in range(1000)]
    sparse = [IntMatrix([[x if rng.random() < 0.3 else 0 for x in row]
                         for row in random_matrix(rng)])
              for _ in range(1000)]
    shaped = [IntMatrix([], cols=3), IntMatrix([[]] * 2, cols=0)]
    cocycles = []
    for b in _chain_heavy_shaped(rng):
        d = b.transpose()
        shaped += [b, d]
        cocycles += [d.hstack(IntMatrix.diagonal([m] * d.rows))
                     for m in (2, 3, 4, 6)]
    orders = [IntMatrix.diagonal(rng.choices((2, 3, 4, 6, 8, 12),
                                             k=rng.randint(1, 8)))
              for _ in range(200)]
    for a in dense + sparse + shaped + cocycles + orders:
        sf = intlin.smith_form(a, transforms=True)
        u, s, v, diag = reference_smith_normal_form(a.to_lists(), a.cols)
        assert (sf.u.to_lists(), sf.s.to_lists(), sf.v.to_lists()) == (
            u, s, v), a
        assert list(sf.diagonal) == diag, a
        assert smith_normal_form(a) == sf, a
        bare = intlin.smith_form(a)
        assert (bare.u, bare.s, bare.v, bare.diagonal) == (
            None, sf.s, None, sf.diagonal), a
    for a in orders:
        n = a.rows
        u, _, v, diag = reference_smith_normal_form(a.to_lists(), n)
        assert all(a[i, i] * v[i][j] % diag[j] == 0
                   for i in range(n) for j in range(n)), a
        dvs = [[a[i, i] * v[i][j] // diag[j] for j in range(n)]
               for i in range(n)]
        assert dvs == _reference_inverse(u), a
        assert smith_normal_form(a).u @ IntMatrix(dvs) == (
            IntMatrix.identity(n)), a


def _reference_inverse(m):
    """The inverse of a unimodular m from the frozen reference alone: its
    SNF U' m V' = I gives m^-1 = V' U'."""
    n = len(m)
    u, _, v, diag = reference_smith_normal_form(m, n)
    assert diag == [1] * n
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*u)]
            for row in v]


_inv_entries = st.one_of(st.integers(-1, 1), st.integers(-9, 9),
                         st.integers(-2 ** 80, 2 ** 80))


@seed(20261019)
@settings(max_examples=400, deadline=None, database=None)
@given(st.data())
def test_smith_invariants_match_transform_snf_and_oracle(data):
    """The transform-free diagonal equals the diagonal of the transform
    SNF and the test-side reduction oracle padded with zeros, on shapes
    0..8 (0 x k and k x 0 included), unit-rich and low-rank matrices and
    entries up to 2^80."""
    r, c = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 8))
    kind = data.draw(st.sampled_from(("dense", "units", "low_rank")))
    if kind == "low_rank" and r and c:
        k = data.draw(st.integers(1, 3))
        left = IntMatrix(_lists(data.draw, r, k), cols=k)
        right = IntMatrix(_lists(data.draw, k, c), cols=c)
        rows = (left @ right).to_lists()
    else:
        entries = st.integers(-1, 1) if kind == "units" else _inv_entries
        rows = data.draw(st.lists(
            st.lists(entries, min_size=c, max_size=c),
            min_size=r, max_size=r))
    a = IntMatrix(rows, cols=c)
    diag = smith_invariants(a)
    assert diag == smith_normal_form(a).diagonal
    want = smith_diag_oracle(rows) if r and c else []
    assert list(diag) == want + [0] * (min(r, c) - len(want))
    assert smith_invariants(rows if r else IntMatrix([], cols=c)) == diag


@pytest.mark.parametrize("a", [
    IntMatrix([[0, -6, 4]]), IntMatrix([[-4], [6], [0]]), IntMatrix([[0, 0]]),
    IntMatrix([[-7]]), IntMatrix([], cols=3), IntMatrix([[], []], cols=0),
], ids=["1x3", "3x1", "zero_row", "1x1", "0x3", "2x0"])
def test_a_shape_that_decides_the_diagonal_gives_the_eliminated_one(a):
    """No rows or no columns give the empty diagonal, one row or one
    column the gcd of the entries; the transform SNF, which takes no
    such shortcut, and the oracle agree."""
    r, c = a.shape
    rows = a.to_lists()
    want = smith_diag_oracle(rows) if r and c else []
    assert list(smith_invariants(a)) == want + [0] * (min(r, c) - len(want))
    assert smith_invariants(a) == smith_normal_form(a).diagonal


def test_from_presentation_makes_no_transform_snf(monkeypatch):
    def refuse(a, **asked):
        raise AssertionError("transform SNF called")

    monkeypatch.setattr(intlin, "smith_normal_form", refuse)
    monkeypatch.setattr(intlin, "smith_form", refuse)
    a = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert FgAbGroup.from_presentation(a).invariant_factors == (2, 2, 156)
    assert FgAbGroup.from_presentation(IntMatrix([[6], [0]])).free_rank == 1


def test_smith_invariants_eliminates_each_matrix_object_once(monkeypatch):
    """The diagonal is kept on the matrix object that was eliminated.  An
    equal matrix built on its own is eliminated again: nothing is cached
    by value, and matrices made by operations start without a diagonal."""
    eliminated = []
    real = intlin._smith_diagonal

    def record(a):
        eliminated.append(a)
        return real(a)

    monkeypatch.setattr(intlin, "_smith_diagonal", record)
    rows = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    a = IntMatrix(rows)
    assert smith_invariants(a) == smith_invariants(a) == (2, 2, 156)
    assert FgAbGroup.from_presentation(a).invariant_factors == (2, 2, 156)
    assert len(eliminated) == 1 and eliminated[0] is a
    b = IntMatrix(rows)
    assert smith_invariants(b) == (2, 2, 156)
    assert len(eliminated) == 2 and eliminated[1] is b
    for m in (a.transpose(), a @ IntMatrix.identity(3), a.submatrix(
            range(3), range(3))):
        assert smith_invariants(m) == (2, 2, 156)
    assert len(eliminated) == 5
    assert smith_invariants(rows) == (2, 2, 156) and len(eliminated) == 6
    # a diagonal that the shape decides is kept all the same
    row = IntMatrix([[0, -6, 4]])
    assert smith_invariants(row) == smith_invariants(row) == (2,)
    assert len(eliminated) == 7 and eliminated[6] is row


# -- rank and the packed zero test -----------------------------------------------


def _rank_cases(rng):
    """Seeded matrices of shapes 0..12 in both orientations: dense, 80%
    zeros, rank at most half the smaller side (a product through a thin
    middle), entries up to 2^80, and zero matrices."""
    for _ in range(300):
        r, c = rng.randint(0, 12), rng.randint(0, 12)
        bound = rng.choice((1, 9, 2 ** 80))
        kind = rng.choice(("dense", "sparse", "deficient", "zero"))
        if kind == "deficient":
            k = min(r, c) // 2
            left = IntMatrix([[rng.randint(-bound, bound) for _ in range(k)]
                              for _ in range(r)], cols=k)
            right = IntMatrix([[rng.randint(-bound, bound) for _ in range(c)]
                               for _ in range(k)], cols=c)
            a = left @ right
        else:
            a = IntMatrix([[0 if kind == "zero" or (
                kind == "sparse" and rng.random() < 0.8)
                else rng.randint(-bound, bound) for _ in range(c)]
                for _ in range(r)], cols=c)
        yield a
        yield a.transpose()


def test_rank_matches_the_hermite_oracle():
    rng = random.Random(20261021)
    low = 0
    for a in _rank_cases(rng):
        want = rank_oracle(a.to_lists())
        assert rank(a) == want, a
        low += 0 < 2 * want <= min(a.shape)
    assert low > 50   # rank-deficient cases did occur
    for r, c in ((0, 4), (4, 0), (0, 0), (3, 5), (5, 3)):
        assert rank(IntMatrix.zeros(r, c)) == 0


def test_rank_equals_the_smith_form_rank_on_chain_heavy_shapes():
    rng = random.Random(20261021)
    for b in _chain_heavy_shaped(rng):
        want = intlin.smith_form(b).rank
        assert rank(b) == rank(b.transpose()) == want, b


def test_rank_of_a_large_sparse_boundary_is_cheap():
    """The 200 x 100 boundary del_6 of the product of two 10-fold wedges
    of moore3(2), and its transpose: the rank equals the Smith form's,
    and takes far less time than that elimination."""
    wedge = "wedge(" + ", ".join(["moore3(2)"] * 10) + ")"
    b = parse_space(f"product({wedge}, {wedge})").chains.boundary(6)
    assert b.shape == (200, 100)

    def best(f, runs=3):
        times = []
        for _ in range(runs):
            t0 = time.perf_counter()
            out = f()
            times.append(time.perf_counter() - t0)
        return out, min(times)

    d = b.transpose()
    want, smith_s = best(lambda: intlin.smith_form(d).rank)
    for m in (b, d):
        got, rank_s = best(lambda: rank(m))
        assert got == want == 100
        assert rank_s * 5 < smith_s, (rank_s, smith_s)


def _product_pairs(rng):
    """Seeded pairs (a, b) with a.cols == b.rows, shapes 0..6 each:
    consecutive boundaries of random complexes (a zero product), the
    same with one entry of b changed, and random pairs."""
    for _ in range(300):
        c = random_complex(rng, max_top=4, max_rank=6)
        for a, b in zip(c.boundaries, c.boundaries[1:]):
            yield a, b
            if b.rows and b.cols:
                rows = b.to_lists()
                rows[rng.randrange(b.rows)][rng.randrange(b.cols)] += (
                    rng.choice((1, -1, 2 ** 80)))
                yield a, IntMatrix(rows)
        r, k, m = (rng.randint(0, 6) for _ in range(3))
        bound = rng.choice((1, 3, 2 ** 80))
        yield (IntMatrix([[rng.randint(-bound, bound) for _ in range(k)]
                          for _ in range(r)], cols=k),
               IntMatrix([[rng.randint(-bound, bound) for _ in range(m)]
                          for _ in range(k)], cols=m))


def test_product_is_zero_agrees_with_the_product():
    rng = random.Random(20261021)
    counts = {True: 0, False: 0}
    for a, b in _product_pairs(rng):
        want = (a @ b).is_zero()
        assert product_is_zero(a, b) is want, (a, b)
        counts[want] += 1
    assert min(counts.values()) > 100
    for r, k, m in itertools.product((0, 2), repeat=3):
        assert product_is_zero(IntMatrix.zeros(r, k), IntMatrix.zeros(k, m))
    with pytest.raises(SemanticError, match="shape mismatch"):
        product_is_zero(IntMatrix.zeros(2, 3), IntMatrix.zeros(2, 3))


def test_product_is_zero_sees_a_digit_at_the_edge_of_its_slot():
    """Two families whose product has a digit of exactly the bound:
    [[1]] [[2^k, -1]] = [[2^k, -1]] and [[1, 1]] [[2^k, 0], [2^k, -1]] =
    [[2^(k+1), -1]].  A slot one bit narrower, or a bound without the
    row-sum factor of a, packs the digit -1 onto the one below it and
    reads the product as zero."""
    for k in range(101):
        assert not product_is_zero(IntMatrix([[1]]),
                                   IntMatrix([[2 ** k, -1]])), k
        assert not product_is_zero(IntMatrix([[1, 1]]),
                                   IntMatrix([[2 ** k, 0], [2 ** k, -1]])), k


def chain_from_prime_powers(orders) -> list[int]:
    """Invariant factors of + Z/a_i from the elementary divisors: factor
    each order, and let the k-th largest power of every prime go into
    the k-th largest factor."""
    powers = {}
    for a in orders:
        p = 2
        while a > 1:
            e = 1
            while a % p == 0:
                a //= p
                e *= p
            if e > 1:
                powers.setdefault(p, []).append(e)
            p += 1
    chain = [1] * len(orders)
    for es in powers.values():
        for k, e in enumerate(sorted(es, reverse=True)):
            chain[-1 - k] *= e
    return chain


def test_divisibility_chain_matches_prime_power_oracle():
    # fewer than two orders are their own chain
    for orders in ([], [1], [12]):
        assert intlin.divisibility_chain(orders) == orders == \
            chain_from_prime_powers(orders)
    rng = random.Random(20261018)
    for _ in range(3000):
        orders = [rng.randint(1, 360) for _ in range(rng.randint(0, 7))]
        assert intlin.divisibility_chain(orders) == \
            chain_from_prime_powers(orders), orders


def test_divisibility_chain_of_dividing_orders_matches_prime_power_oracle():
    """Orders that already divide in sorted order, such as a p-primary
    profile, and the same orders shuffled or with one entry changed."""
    rng = random.Random(15)
    for _ in range(2000):
        orders = [rng.choice((2, 3, 5))]
        for _ in range(rng.randint(0, 8)):
            orders.append(orders[-1] * rng.choice((1, 1, 2, 3)))
        if rng.random() < 0.3:
            orders[rng.randrange(len(orders))] = rng.randint(1, 40)
        rng.shuffle(orders)
        assert intlin.divisibility_chain(orders) == \
            chain_from_prime_powers(orders), orders


# 10^9 + 7, 10^12 + 39 and 2^61 - 1 are prime and out of trial division's reach
KNOWN_PRIMES = (2, 3, 5, 7, 11, 13, 10**9 + 7, 10**12 + 39, 2**61 - 1)


def test_divisibility_chain_matches_known_factorizations():
    """Orders built as products of known prime powers, 1s among them, up
    to 3000 of them.  The oracle puts the k-th largest power of each
    prime into the k-th largest factor, so it factors nothing.  The
    Smith diagonal of diag(orders) must agree, unit pivots included."""
    rng = random.Random(20261019)
    sizes = [0, 1, 3000, 1200] + [rng.randint(1, 40) for _ in range(300)]
    for size in sizes:
        primes = rng.sample(KNOWN_PRIMES, rng.randint(1, len(KNOWN_PRIMES)))
        exponents = {p: [] for p in primes}
        orders = []
        for _ in range(size):
            one = rng.random() < 0.2
            n = 1
            for p in primes:
                e = 0 if one else rng.choice((0, 0, 1, 2, 3))
                exponents[p].append(e)
                n *= p ** e
            orders.append(n)
        chain = [1] * size
        for p, es in exponents.items():
            for k, e in enumerate(sorted(es, reverse=True)):
                chain[-1 - k] *= p ** e
        assert intlin.divisibility_chain(orders) == chain, orders
        if size <= 40:
            assert smith_invariants(IntMatrix.diagonal(orders)) == \
                tuple(chain), orders


def coset_count(rows) -> int:
    """Literal coset enumeration for a finite cokernel: walk every point
    of the Hermite box, reduce it to a canonical representative by the
    staircase, and count the distinct representatives.  Requires full
    row rank (finite cokernel); shared with the acceptance gate."""
    h, pivots = hermite_columns(rows)
    assert len(pivots) == len(rows), "cokernel must be finite"
    box = [h[r][c] for r, c in pivots]
    reps = set()
    for point in itertools.product(*(range(b) for b in box)):
        v = list(point)
        for (r, c) in pivots:
            q = v[r] // h[r][c]
            for i in range(len(v)):
                v[i] -= q * h[i][c]
        reps.add(tuple(v))
    return len(reps)


def test_cokernel_small_groups_by_coset_enumeration():
    """For cokernels of order <= 200, literally enumerate the cosets of
    the column span inside a Hermite box and compare the count."""
    rng = random.Random(11)
    checked = 0
    while checked < 60:
        rows = random_matrix(rng, max_n=3, bound=6)
        order = cokernel_order_oracle(rows)
        if order is None or order > 200:
            continue
        assert coset_count(rows) == order
        assert FgAbGroup.from_presentation(IntMatrix(rows)).order() == order
        checked += 1


# -- kernels ---------------------------------------------------------------------


def test_kernel_basis_properties():
    rng = random.Random(8)
    for _ in range(300):
        rows = random_matrix(rng, max_n=6)
        a = IntMatrix(rows)
        k = kernel_basis(a)
        assert k.rows == a.cols
        assert (a @ k).is_zero()
        # dimension: nullity = cols - rank
        assert k.cols == a.cols - rank_oracle(rows)
        if k.cols:
            kl = k.to_lists()
            # full column rank ...
            assert rank_oracle(kl) == k.cols
            # ... and saturated: all elementary divisors of the basis
            # matrix are 1, so every integer vector in the rational
            # span is an integer combination of the basis columns.
            assert smith_diag_oracle(kl) == [1] * k.cols


def test_kernel_of_injective_map_is_zero():
    assert kernel_basis(IntMatrix([[2, 0], [0, 3], [1, 1]])).cols == 0


# -- integral solving ------------------------------------------------------------


def test_solve_integral_roundtrip_and_membership():
    rng = random.Random(21)
    for _ in range(300):
        rows = random_matrix(rng, max_n=6, bound=5)
        a = IntMatrix(rows)
        x = [rng.randint(-4, 4) for _ in range(a.cols)]
        b = list(a @ x)
        got = solve_integral(a, b)
        assert got is not None
        assert list(a @ list(got)) == b
        # random right-hand sides agree with the Hermite membership test
        b2 = [rng.randint(-6, 6) for _ in range(a.rows)]
        sol = solve_integral(a, b2)
        if lattice_membership(rows, b2):
            assert sol is not None and list(a @ list(sol)) == b2
        else:
            assert sol is None


def test_solve_integral_frozen_cases():
    a = IntMatrix([[2]])
    assert solve_integral(a, [3]) is None
    assert solve_integral(a, [4]) == (2,)
    a = IntMatrix([[2, 3]])
    x = solve_integral(a, [1])
    assert x is not None and 2 * x[0] + 3 * x[1] == 1
    with pytest.raises(SemanticError):
        solve_integral(a, [1, 2])
    # inconsistent over Q, not just over Z
    a = IntMatrix([[1], [1]])
    assert solve_integral(a, [0, 1]) is None


def _solve_columns_cases(rng):
    """(rows, cols, right-hand side columns): seeded dense and sparse a,
    a of low rank (dependent columns), 0 x k and k x 0, and B with 0
    columns.  Most B are a @ X plus, half the time, one random column."""
    shapes = []
    for _ in range(150):
        rows = random_matrix(rng, max_n=6, bound=5)
        shapes.append(rows)
        shapes.append([[x if rng.random() < 0.3 else 0 for x in row]
                       for row in random_matrix(rng, max_n=6, bound=5)])
        r, k, c = rng.randint(1, 6), rng.randint(1, 2), rng.randint(3, 6)
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(r)]
        right = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(k)]
        shapes.append((IntMatrix(left) @ IntMatrix(right)).to_lists())
    shapes.append([[2, 0, 0, 2], [0, 1, 0, 1], [0, 0, 3, 0]])
    for rows in shapes:
        cols = len(rows[0])
        a = IntMatrix(rows)
        b = [list(a @ [rng.randint(-4, 4) for _ in range(cols)])
             for _ in range(rng.randint(0, 5))]
        if rng.random() < 0.5:
            b.insert(rng.randint(0, len(b)),
                     [rng.randint(-6, 6) for _ in range(len(rows))])
        yield rows, cols, b
    for k in (1, 3):
        yield [], k, [[]] * k
        yield [[]] * k, 0, [[0] * k, [0] * k]
        yield [[]] * k, 0, [[0] * k, [1] + [0] * (k - 1)]
        yield [[1] * k], k, []


def test_solve_columns_against_membership_and_the_reference_snf():
    """All right-hand sides in one product give a @ X = B exactly, None
    exactly when some column is outside the column lattice (the Hermite
    oracle), and each column of X is the one-column solve through the
    frozen reference U and V."""
    rng = random.Random(20261022)
    for rows, cols, b in _solve_columns_cases(rng):
        a = IntMatrix(rows, cols=cols)
        bm = IntMatrix([[col[i] for col in b] for i in range(len(rows))],
                       cols=len(b))
        x = smith_normal_form(a).solve_columns(bm)
        want = [reference_solve(rows, cols, col) for col in b]
        member = [lattice_membership(rows, col) for col in b]
        assert [w is not None for w in want] == member, rows
        if not all(member):
            assert x is None, (rows, b)
            continue
        assert x is not None and x.shape == (cols, len(b)), (rows, b)
        assert a @ x == bm, (rows, b)
        for j, col in enumerate(b):
            assert list(x.col_tuple(j)) == want[j], (rows, col)
            assert solve_integral(a, col) == x.col_tuple(j), (rows, col)


def test_solve_columns_rejects_a_wrong_row_count():
    sf = smith_normal_form(IntMatrix([[2, 3]]))
    with pytest.raises(SemanticError, match="2 entries for 1 equations"):
        sf.solve_columns(IntMatrix([[1], [2]]))


# -- determinants and inverses ----------------------------------------------------


def test_determinant_against_expansion():
    rng = random.Random(31)
    for _ in range(400):
        n = rng.randint(1, 7)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert determinant(IntMatrix(rows)) == det_oracle(rows)
    assert determinant(IntMatrix.identity(0)) == 1


def test_determinant_rejects_non_square():
    with pytest.raises(SemanticError):
        determinant(IntMatrix([[1, 2]]))


def test_unimodular_inverse():
    rng = random.Random(41)
    found = 0
    while found < 50:
        n = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if abs(det_oracle(rows)) != 1:
            continue
        m = IntMatrix(rows)
        inv = unimodular_inverse(m)
        assert m @ inv == IntMatrix.identity(n)
        assert inv @ m == IntMatrix.identity(n)
        found += 1
    with pytest.raises(SemanticError):
        unimodular_inverse(IntMatrix([[2]]))


def test_unimodular_inverse_edge_cases():
    with pytest.raises(SemanticError, match="singular"):
        unimodular_inverse(IntMatrix([[1, 2], [2, 4]]))
    with pytest.raises(SemanticError, match="not unimodular"):
        unimodular_inverse(IntMatrix([[2, 1], [0, 3]]))
    with pytest.raises(SemanticError, match="non-square"):
        unimodular_inverse(IntMatrix([[1, 0]]))
    empty = unimodular_inverse(IntMatrix.zeros(0, 0))
    assert empty.shape == (0, 0)
    assert empty == IntMatrix.identity(0)


# -- IntMatrix basics --------------------------------------------------------------


def test_intmatrix_construction_and_ops():
    a = IntMatrix([[1, 2], [3, 4]])
    assert a.shape == (2, 2)
    assert a[0, 1] == 2
    assert a.row_tuple(1) == (3, 4)
    assert a.col_tuple(0) == (1, 3)
    assert a.transpose().to_lists() == [[1, 3], [2, 4]]
    assert (a @ [1, 1]) == (3, 7)
    assert (a @ IntMatrix.identity(2)) == a
    assert IntMatrix.zeros(2, 3).is_zero()
    assert IntMatrix.diagonal([2, 3]).to_lists() == [[2, 0], [0, 3]]
    assert a.hstack(IntMatrix([[9], [9]])).to_lists() == [[1, 2, 9], [3, 4, 9]]
    assert a.submatrix([1], [0, 1]).to_lists() == [[3, 4]]


def test_intmatrix_big_integers_stay_exact():
    big = 10 ** 40
    a = IntMatrix([[big, 1], [0, 1]])
    assert determinant(a) == big
    sf = smith_normal_form(a)
    assert sf.u @ a @ sf.v == sf.s
    assert sf.diagonal == (1, big)


def test_intmatrix_rejects_ragged_input():
    with pytest.raises(SemanticError):
        IntMatrix([[1, 2], [3]])


def test_intmatrix_zero_shapes():
    """Shapes with no rows or no columns keep their other dimension
    through every operation."""
    z = IntMatrix.zeros(0, 3)
    assert z.shape == (0, 3)
    assert z.transpose().shape == (3, 0)
    assert z.transpose().transpose() == z
    assert z != IntMatrix.zeros(0, 2)
    assert IntMatrix([], cols=3) == z
    assert hash(IntMatrix([], cols=3)) == hash(z)
    assert IntMatrix([[], []]).shape == (2, 0)
    p = IntMatrix.zeros(3, 0) @ IntMatrix.zeros(0, 4)
    assert p.shape == (3, 4) and p == IntMatrix.zeros(3, 4) and p.is_zero()
    assert IntMatrix.zeros(3, 0) @ [] == (0, 0, 0)
    assert z @ [1, 2, 3] == ()
    assert (z @ IntMatrix.zeros(3, 2)).shape == (0, 2)
    assert IntMatrix.zeros(3, 0).hstack(IntMatrix.zeros(3, 0)).shape == (3, 0)
    assert z.hstack(IntMatrix.zeros(0, 2)).shape == (0, 5)
    a = IntMatrix([[1, 2], [3, 4]])
    assert a.hstack(IntMatrix.zeros(2, 0)) == a
    assert a.submatrix([0, 1], []).shape == (2, 0)
    assert a.submatrix([], [1]).shape == (0, 1)
    assert a.submatrix([], []).shape == (0, 0)
    with pytest.raises(SemanticError):
        IntMatrix([[1, 2]], cols=3)
    with pytest.raises(SemanticError):
        z.hstack(IntMatrix.zeros(1, 2))


# -- IntMatrix against a plain nested-list reference -------------------------------

def ref_matmul(a, b, b_cols):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b)))
             for j in range(b_cols)] for i in range(len(a))]


def ref_transpose(a, cols):
    return [[a[i][j] for i in range(len(a))] for j in range(cols)]


_entries = st.one_of(st.integers(-3, 3), st.integers(-2 ** 80, 2 ** 80))


def _lists(draw, rows, cols):
    return draw(st.lists(st.lists(_entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@seed(20261018)
@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_intmatrix_ops_match_nested_list_reference(data):
    r, k, c, c2 = (data.draw(st.integers(0, 5)) for _ in range(4))
    a_l, b_l = _lists(data.draw, r, k), _lists(data.draw, k, c)
    d_l = _lists(data.draw, r, c2)
    a, b, d = (IntMatrix(a_l, cols=k), IntMatrix(b_l, cols=c),
               IntMatrix(d_l, cols=c2))
    assert a.shape == (r, k) and a.to_lists() == a_l
    assert all(type(x) is int for row in a.to_lists() for x in row)

    p = a @ b
    assert p.shape == (r, c) and p.to_lists() == ref_matmul(a_l, b_l, c)
    vec = data.draw(st.lists(_entries, min_size=k, max_size=k))
    assert a @ vec == tuple(row[0] for row in
                            ref_matmul(a_l, [[x] for x in vec], 1))

    t = a.transpose()
    assert t.shape == (k, r) and t.to_lists() == ref_transpose(a_l, k)

    h = a.hstack(d)
    assert h.shape == (r, k + c2)
    assert h.to_lists() == [x + y for x, y in zip(a_l, d_l)]

    ri = data.draw(st.lists(st.integers(0, r - 1), max_size=4)) if r else []
    cj = data.draw(st.lists(st.integers(0, k - 1), max_size=4)) if k else []
    s = a.submatrix(ri, cj)
    assert s.shape == (len(ri), len(cj))
    assert s.to_lists() == [[a_l[i][j] for j in cj] for i in ri]

    twin = IntMatrix([list(row) for row in a_l], cols=k)
    assert a == twin and hash(a) == hash(twin)
    assert a.is_zero() == all(x == 0 for row in a_l for x in row)
    if r and k:
        i, j = data.draw(st.integers(0, r - 1)), data.draw(st.integers(0, k - 1))
        changed = [list(row) for row in a_l]
        changed[i][j] += 1
        assert a != IntMatrix(changed)
    else:
        assert (a == IntMatrix.zeros(r + 1, k)) is False
        assert (a == IntMatrix.zeros(r, k + 1)) is False
