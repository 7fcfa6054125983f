"""Tests for exact integer matrix routines.

The oracles here are implemented from scratch in this file with plain
Python integers: a subset-DP determinant (Laplace expansion with
memoisation), a column-style Hermite reduction for lattice membership,
rank and cokernel order, and literal coset enumeration for small
cokernels.  None of them call back into the package.
"""

import itertools
import random
from math import gcd

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cwbrauer.errors import SemanticError
from _oracles import (
    cokernel_order_oracle, det_oracle, determinantal_divisor_oracle,
    hermite_columns, lattice_membership, rank_oracle, smith_diag_oracle,
)
from cwbrauer.intlin import (
    IntMatrix, determinant, kernel_basis, cokernel_structure,
    smith_normal_form, solve_integral, unimodular_inverse,
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
        got = cokernel_structure(a).order()
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
        assert cokernel_structure(IntMatrix(rows)).order() == order
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
    assert IntMatrix.column([5, 6]).shape == (2, 1)
    assert a.hstack(IntMatrix.column([9, 9])).to_lists() == [[1, 2, 9], [3, 4, 9]]
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
