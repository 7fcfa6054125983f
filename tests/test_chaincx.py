"""Tests for chain complexes: homology, cohomology, universal
coefficients, Bockstein maps, and tensor products.

Independent checks come from three directions: the first-principles
homology oracle in _oracles.py (ranks and elementary divisors via the
test-side reductions), dimension counting over prime fields with a
test-side Gaussian elimination, and hand-derived frozen families
(spheres, three-cell Moore complexes, lens skeletons).
"""

import dataclasses
import random
from math import gcd

import numpy as np
import pytest

from cwbrauer.abgroup import FgAbGroup, GroupHom, Z, ext1, hom, tensor, tor1
from cwbrauer import chaincx, intlin
from cwbrauer.chaincx import (
    ChainComplex, SubquotientPresentation, bockstein, cohomology, homology, random_complex,
    tensor_complexes, truncate, uct_decompose,
)
from cwbrauer.errors import SemanticError
from cwbrauer.intlin import IntMatrix
from cwbrauer.spaces import (from_complex, lens_periodic, lens_skeleton,
                             moore_3cell, product, sphere, wedge)

from _oracles import homology_oracle, rank_mod_p
from _snf_reference import reference_smith_normal_form, reference_solve


def moore_complex(n: int) -> ChainComplex:
    """One 0-cell, one 2-cell, one 3-cell glued by degree n."""
    return ChainComplex([1, 0, 1, 1],
                        [IntMatrix.zeros(1, 0), IntMatrix.zeros(0, 1), [[n]]])


def sphere_complex(n: int) -> ChainComplex:
    ranks = [1] + [0] * (n - 1) + [1]
    bounds = [IntMatrix.zeros(ranks[k - 1], ranks[k])
              for k in range(1, n + 1)]
    return ChainComplex(ranks, bounds)


def lens_complex(n: int, top: int) -> ChainComplex:
    """Skeleton of the infinite-dimensional lens space mod n: one cell
    per degree, boundaries alternating 0, n, 0, n, ..."""
    bounds = [[[0]] if k % 2 else [[n]] for k in range(1, top + 1)]
    return ChainComplex([1] * (top + 1), bounds)


def coordinates(pres, vec) -> tuple:
    """Class of one ambient vector: one column of column_coordinates."""
    return pres.column_coordinates(IntMatrix.column(vec)).col_tuple(0)


def library_equals_oracle(c: ChainComplex, n: int) -> bool:
    free, torsion = homology_oracle(
        list(c.ranks), [b.to_lists() for b in c.boundaries], n)
    return homology(c, n) == FgAbGroup(free, tuple(torsion))


# -- homology --------------------------------------------------------------------


def test_sphere_homology():
    for n in range(2, 7):
        c = sphere_complex(n)
        for k in range(n + 1):
            want = Z if k in (0, n) else FgAbGroup.trivial()
            assert homology(c, k) == want
            assert cohomology(c, k) == want


def test_moore_complex_homology():
    for n in range(2, 13):
        c = moore_complex(n)
        assert homology(c, 0) == Z
        assert homology(c, 1).is_trivial
        assert homology(c, 2) == FgAbGroup.cyclic(n)
        assert homology(c, 3).is_trivial
        assert cohomology(c, 2).is_trivial
        assert cohomology(c, 3) == FgAbGroup.cyclic(n)


def test_lens_complex_homology():
    for n in range(2, 9):
        c = lens_complex(n, 7)
        assert homology(c, 0) == Z
        for k in (1, 3, 5):
            assert homology(c, k) == FgAbGroup.cyclic(n)
        for k in (2, 4, 6):
            assert homology(c, k).is_trivial
        assert homology(c, 7) == Z  # top kernel survives


def test_homology_against_first_principles_oracle():
    rng = random.Random(20260814)
    for _ in range(150):
        c = random_complex(rng, max_top=4, max_rank=4)
        for n in range(c.top_degree + 1):
            assert library_equals_oracle(c, n), (c.ranks, n)


def test_homology_out_of_range_is_trivial():
    c = moore_complex(3)
    assert homology(c, -1).is_trivial
    assert homology(c, 99).is_trivial
    assert cohomology(c, -2).is_trivial
    assert cohomology(c, 99).is_trivial


# -- complex construction ----------------------------------------------------------


def test_complex_validation():
    with pytest.raises(SemanticError):
        ChainComplex([], [])
    with pytest.raises(SemanticError):
        ChainComplex([1, -1], [IntMatrix.zeros(1, 0)])
    with pytest.raises(SemanticError):
        ChainComplex([1, 1], [])                      # missing boundary
    with pytest.raises(SemanticError):
        ChainComplex([1, 1], [[[0], [0]]])            # wrong shape
    with pytest.raises(SemanticError):
        # del del != 0: del_1 = (1), del_2 = (1)
        ChainComplex([1, 1, 1], [[[1]], [[1]]])


def test_del_del_refusal_names_the_first_bad_degree():
    """Seeded boundaries, a third of them zero, checked against numpy
    products: a complex is refused exactly when some del_n del_{n+1} is
    nonzero, and the message names the first such n.  The same chains
    given by their nonzero entries build an equal complex."""
    rng = random.Random(24)
    refused = 0
    for _ in range(300):
        ranks = [rng.randint(0, 3) for _ in range(rng.randint(1, 6))]
        dense = [[[0 if rng.random() < 0.5 else rng.randint(-2, 2)
                   for _ in range(c)] for _ in range(r)]
                 if rng.random() > 1 / 3 else [[0] * c for _ in range(r)]
                 for r, c in zip(ranks, ranks[1:])]
        bad = [n for n in range(1, len(ranks) - 1)
               if np.any(np.array(dense[n - 1], dtype=int).reshape(
                   ranks[n - 1], ranks[n])
                   @ np.array(dense[n], dtype=int).reshape(
                       ranks[n], ranks[n + 1]))]
        mats = [IntMatrix(a, cols=c) for a, c in zip(dense, ranks[1:])]
        entries = [(n, i, j, x) for n, a in enumerate(dense, start=1)
                   for i, row in enumerate(a) for j, x in enumerate(row) if x]
        for build in (lambda: ChainComplex(ranks, mats),
                      lambda: ChainComplex.from_entries(ranks, entries)):
            if bad:
                with pytest.raises(SemanticError) as e:
                    build()
                assert str(e.value) == f"del_{bad[0]} del_{bad[0] + 1} != 0"
            else:
                c = build()
                assert c == ChainComplex(ranks, mats)
                assert hash(c) == hash(ChainComplex(ranks, mats))
        refused += bool(bad)
    assert 30 < refused < 270


def test_complex_accessors():
    c = lens_complex(3, 4)
    assert c.top_degree == 4
    assert c.rank(2) == 1 and c.rank(9) == 0
    assert c.boundary(2).to_lists() == [[3]]
    assert c.boundary(7).shape == (0, 0)
    assert c.dimension() == 4
    assert c.euler_characteristic() == 1
    assert truncate(c, 2) == lens_complex(3, 2)
    assert truncate(c, 99) == c
    with pytest.raises(SemanticError):
        truncate(c, -1)


def test_truncation_preserves_low_homology():
    rng = random.Random(5)
    for _ in range(50):
        c = random_complex(rng, max_top=4, max_rank=4)
        if c.top_degree < 2:
            continue
        t = truncate(c, c.top_degree - 1)
        for n in range(c.top_degree - 1):
            assert homology(t, n) == homology(c, n)


def test_random_complex_is_valid_and_varied():
    rng = random.Random(20260814)
    tops = set()
    for _ in range(100):
        c = random_complex(rng)
        tops.add(c.top_degree)
        for n in range(1, c.top_degree):
            assert (c.boundary(n) @ c.boundary(n + 1)).is_zero()
    assert len(tops) >= 4


# -- cohomology -------------------------------------------------------------------


def test_mod_m_cohomology_of_lens():
    # With Z/m coefficients every degree of the mod-m lens skeleton
    # carries one copy of Z/m.
    for m in (2, 3, 4, 6):
        c = lens_complex(m, 5)
        for k in range(6):
            assert cohomology(c, k, m) == FgAbGroup.cyclic(m), (m, k)


def test_mod_p_cohomology_dimension_count():
    """Over a prime field the cohomology dimension is a rank count:
    dim H^n(C; Z/p) = rank C_n - rank_p del_n - rank_p del_{n+1}."""
    rng = random.Random(9)
    for _ in range(60):
        c = random_complex(rng, max_top=4, max_rank=4)
        for p in (2, 3, 5):
            for n in range(c.top_degree + 1):
                got = cohomology(c, n, p)
                dim = (c.rank(n)
                       - rank_mod_p(c.boundary(n).to_lists(), p)
                       - rank_mod_p(c.boundary(n + 1).to_lists(), p))
                assert got == FgAbGroup.from_cyclic_orders([p] * dim), (n, p)


def test_mod_m_cohomology_against_coefficient_splitting():
    """H^n(C; Z/m) = Hom(H_n, Z/m) + Ext^1(H_{n-1}, Z/m) for every
    complex (the coefficient sequence splits for cyclic coefficients)."""
    rng = random.Random(10)
    for _ in range(60):
        c = random_complex(rng, max_top=4, max_rank=4)
        for m in (2, 4, 6, 9):
            zm = FgAbGroup.cyclic(m)
            for n in range(c.top_degree + 2):
                want = hom(homology(c, n), zm).direct_sum(
                    ext1(homology(c, n - 1), zm))
                assert cohomology(c, n, m) == want, (c.ranks, n, m)


def test_cohomology_equals_the_cochain_presentation():
    """The group read off the Smith diagonals of del_n and del_{n+1}
    equals the group of the cochain presentation (kernels, solves and a
    transform SNF; no Smith diagonal), with Z and Z/m coefficients, from
    degree 0 to one above the top."""
    rng = random.Random(20261021)
    for _ in range(300):
        c = random_complex(rng)
        for n in range(c.top_degree + 2):
            for m in (None, 2, 3, 4, 6, 12):
                want = chaincx._cochain_presentation(c, n, m).group
                assert cohomology(c, n, m) == want, (c.ranks, n, m)


def test_cohomology_rejects_bad_modulus():
    c = moore_complex(2)
    with pytest.raises(SemanticError):
        cohomology(c, 2, 1)
    with pytest.raises(SemanticError):
        cohomology(c, 2, 0)


# -- universal coefficients --------------------------------------------------------


def run_uct_suite(count=500, seed=20260814):
    """UCT split and Euler identity on `count` random complexes; shared
    with the acceptance gate.  Returns the number of complexes checked."""
    rng = random.Random(seed)
    for _ in range(count):
        c = random_complex(rng, max_top=4, max_rank=4)
        chi = 0
        for n in range(c.top_degree + 2):
            u = uct_decompose(c, n)
            assert u.total == u.ext_part.direct_sum(u.hom_part)
            assert u.hom_part == hom(homology(c, n), Z)
            assert u.ext_part == ext1(homology(c, n - 1), Z)
            assert u.total == cohomology(c, n)
            if n <= c.top_degree:
                chi += (-1) ** n * homology(c, n).free_rank
        # Euler characteristic from cell ranks equals the alternating
        # sum of homology ranks
        assert chi == c.euler_characteristic(), c.ranks
    return count


def test_uct_suite():
    run_uct_suite()


def test_uct_parts_match_homology_on_seeded_complexes():
    """The split read off two Smith diagonals equals Ext/Hom of the
    homology groups, also below degree 0's neighbour and above the top."""
    rng = random.Random(20261018)
    for _ in range(3000):
        c = random_complex(rng, max_top=4, max_rank=4)
        for n in range(c.top_degree + 3):
            u = uct_decompose(c, n)
            assert u.ext_part == ext1(homology(c, n - 1), Z), (c.ranks, n)
            assert u.hom_part == hom(homology(c, n), Z), (c.ranks, n)


def test_uct_reads_each_boundary_once(monkeypatch):
    seen = []
    real = chaincx.smith_invariants

    def counting(a):
        seen.append(a)
        return real(a)

    monkeypatch.setattr(chaincx, "smith_invariants", counting)
    monkeypatch.setattr(intlin, "smith_invariants", counting)
    c = tensor_complexes(lens_complex(4, 3), lens_complex(6, 3))
    for n in range(c.top_degree + 2):
        seen.clear()
        uct_decompose(c, n)
        assert seen == [c.boundary(n), c.boundary(n + 1)], n


def test_uct_frozen_moore():
    u = uct_decompose(moore_complex(6), 3)
    assert u.ext_part == FgAbGroup.cyclic(6)
    assert u.hom_part.is_trivial
    assert u.total == FgAbGroup.cyclic(6)


def test_uct_check_is_not_circular(monkeypatch):
    """The Ext/Hom side reads Smith diagonals (`smith_invariants`) and the
    total the diagonals of `smith_form` on the transposed boundaries:
    losing one torsion factor on the first route makes the check fail
    instead of agreeing with itself.  It fails on a warm state too,
    where a Bockstein into H^3 has built and kept the integral
    presentation of H^3.  The Bockstein reads the Smith diagonal of
    del_3 to decide that its image is nonzero, but every diagonal a
    boundary holds afterwards comes from the diagonal elimination
    (`intlin._smith_diagonal`), never from the presentation's transform
    eliminations, and the check then looks up no presentation and
    builds none, so the free rank is not read from one elimination
    twice."""
    real = chaincx.smith_invariants

    def drop_one_torsion_factor(a):
        diag = list(real(a))
        for i, d in enumerate(diag):
            if d >= 2:
                diag[i] = 1
                break
        return tuple(sorted(diag, key=lambda d: (d == 0, d)))

    monkeypatch.setattr(chaincx, "smith_invariants", drop_one_torsion_factor)
    with pytest.raises(SemanticError, match="universal coefficients mismatch"):
        uct_decompose(moore_complex(6), 3)
    prod_cx = tensor_complexes(lens_complex(4, 3), lens_complex(6, 3))
    with pytest.raises(SemanticError, match="universal coefficients mismatch"):
        uct_decompose(prod_cx, 3)
    monkeypatch.setattr(chaincx, "smith_invariants", real)
    warm_cx = tensor_complexes(lens_complex(4, 3), lens_complex(6, 3))
    chaincx._presented.cache_clear()
    eliminated = []
    real_diagonal = intlin._smith_diagonal

    def record(a):  # keeps a alive, so no two records share an id
        eliminated.append(a)
        return real_diagonal(a)

    monkeypatch.setattr(intlin, "_smith_diagonal", record)
    assert not bockstein(warm_cx, 2, 2).is_zero()
    held = [b for b in warm_cx.boundaries if hasattr(b, "_diagonal")]
    assert held and {id(b) for b in held} <= {id(a) for a in eliminated}
    kept = chaincx._presented.cache_info()
    assert kept.currsize == 2   # H^2(; Z/2) and H^3(; Z)
    presented = []
    real_init = SubquotientPresentation.__init__

    def count(self, *args, **kwargs):
        presented.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(SubquotientPresentation, "__init__", count)
    monkeypatch.setattr(chaincx, "smith_invariants", drop_one_torsion_factor)
    with pytest.raises(SemanticError, match="universal coefficients mismatch"):
        uct_decompose(warm_cx, 3)
    assert chaincx._presented.cache_info() == kept and presented == []


def test_uct_check_fails_when_its_total_loses_a_factor(monkeypatch):
    """The mirror of the mutation above: the total's route loses one
    torsion factor of a `smith_form` diagonal, and the split, read off
    `smith_invariants`, no longer agrees with it."""
    real = chaincx.smith_form

    def drop_one_torsion_factor(a, **asked):
        sf = real(a, **asked)
        diag = list(sf.diagonal)
        for i, d in enumerate(diag):
            if d >= 2:
                diag[i] = 1
                break
        return dataclasses.replace(sf, diagonal=tuple(diag))

    monkeypatch.setattr(chaincx, "smith_form", drop_one_torsion_factor)
    for c, n in ((moore_complex(6), 3),
                 (tensor_complexes(lens_complex(4, 3), lens_complex(6, 3)), 3),
                 (lens_periodic(6).chains, 10**6)):
        with pytest.raises(SemanticError,
                           match="universal coefficients mismatch"):
            uct_decompose(c, n)


def _seeded_inputs():
    """Seeded (complex, n): random complexes from degree 0 to one above
    the top, lens skeleta, three-cell Moore complexes, and lens_periodic
    at degrees 10^6 and 10^6 + 1."""
    rng = random.Random(20261025)
    cases = []
    for _ in range(200):
        c = random_complex(rng)
        cases += [(c, n) for n in range(c.top_degree + 2)]
    for k in (2, 3, 4, 6, 9, 12):
        cases += [(lens_complex(k, 5), n) for n in range(7)]
        cases += [(moore_complex(k), n) for n in range(5)]
        cases += [(lens_periodic(k).chains, n) for n in (10**6, 10**6 + 1)]
    return cases


def test_uct_total_equals_the_cochain_presentation():
    """On the seeded inputs and three products of lens skeleta, the total,
    read off the dual complex's diagonals, equals the group of the
    integral cochain presentation, which stays as its oracle."""
    cases = _seeded_inputs()
    for a, b in ((2, 2), (4, 6), (3, 9)):
        prod_cx = tensor_complexes(lens_complex(a, 3), lens_complex(b, 3))
        cases += [(prod_cx, n) for n in range(prod_cx.top_degree + 2)]
    for c, n in cases:
        want = chaincx._cochain_presentation(c, n, None).group
        assert uct_decompose(c, n).total == want, (c, n)


# -- Bockstein ---------------------------------------------------------------------


def run_bockstein_moore_suite(moduli=range(2, 11)):
    """On the degree-m Moore complex the Bockstein is an isomorphism
    H^2(; Z/m) -> torsion of H^3(; Z); shared with the acceptance gate."""
    for m in moduli:
        c = moore_complex(m)
        beta = bockstein(c, 2, m)
        assert beta.domain == FgAbGroup.cyclic(m)
        assert beta.codomain == FgAbGroup.cyclic(m)
        entry = beta.matrix[0, 0]
        # an endomorphism of Z/m given by a unit is an isomorphism
        assert gcd(entry, m) == 1, (m, entry)
        # m * beta = 0
        assert all(
            (m * beta.matrix[i, j]) % m == 0
            for i in range(1) for j in range(1))
    return len(list(moduli))


def test_bockstein_moore_isomorphism():
    run_bockstein_moore_suite()


def test_bockstein_lands_in_m_torsion():
    """m * beta = 0: on every random complex the image of the Bockstein
    is killed by m."""
    rng = random.Random(13)
    for _ in range(40):
        c = random_complex(rng, max_top=4, max_rank=3)
        for m in (2, 3, 4):
            for n in range(c.top_degree + 1):
                beta = bockstein(c, n, m)
                cod_orders = beta.codomain.cyclic_orders()
                mat = beta.matrix
                for j in range(mat.cols):
                    for i, e in enumerate(cod_orders):
                        v = m * mat[i, j]
                        assert v == 0 if e == 0 else v % e == 0, (n, m)


def test_bockstein_vanishes_without_torsion():
    # On a sphere the integral cohomology is free, so every Bockstein
    # out of every degree is zero.
    c = sphere_complex(3)
    for m in (2, 3, 5):
        for n in range(4):
            assert bockstein(c, n, m).is_zero()


def test_bockstein_modulus_validation():
    with pytest.raises(SemanticError):
        bockstein(moore_complex(2), 2, 1)


def _bockstein_from_presentations(c, n: int, m: int) -> GroupHom:
    """The Bockstein computed at the cochain level whatever its image:
    both cochain presentations, each generator of H^n(; Z/m) lifted to an
    integer cochain x, and the coordinates of d x / m in H^{n+1}."""
    dom = chaincx._cochain_presentation(c, n, m)
    cod = chaincx._cochain_presentation(c, n + 1, None)
    gens = dom.generator_matrix()
    dx = (c.boundary(n + 1).transpose() @ gens).to_lists()
    assert not any(x % m for row in dx for x in row), (n, m)
    lifted = IntMatrix([[x // m for x in row] for row in dx], cols=gens.cols)
    return GroupHom(dom.group, cod.group, cod.column_coordinates(lifted))


def test_bockstein_equals_the_cochain_level_route():
    """The Bockstein equals the one built on both cochain presentations
    (domain, codomain and matrix), and it is zero exactly when no
    invariant factor of H^{n+1}(; Z) shares a prime with m: its image
    is the m-torsion of H^{n+1}(; Z).  A zero Bockstein looks up no
    presentation, and a nonzero one looks up two."""
    inputs = [(c, n, m) for c, n in _seeded_inputs() for m in range(2, 13)]
    zero = 0
    for c, n, m in inputs:
        before = chaincx._presented.cache_info()
        beta = bockstein(c, n, m)
        after = chaincx._presented.cache_info()
        lookups = (after.hits + after.misses) - (before.hits + before.misses)
        want = _bockstein_from_presentations(c, n, m)
        assert (beta.domain, beta.codomain) == (want.domain, want.codomain)
        assert beta.matrix == want.matrix, (c, n, m)
        coprime = all(gcd(d, m) == 1
                      for d in cohomology(c, n + 1).invariant_factors)
        assert beta.is_zero() == coprime, (c, n, m)
        assert lookups == (0 if beta.is_zero() else 2), (c, n, m)
        zero += beta.is_zero()
    assert 0 < zero < len(inputs)


# -- presentations -----------------------------------------------------------------


def _count_eliminations(monkeypatch):
    """Record every transform elimination, which all go through
    `intlin.smith_form`: the matrix and the transforms asked for."""
    calls = []
    real = intlin.smith_form

    def counting(a, **asked):
        calls.append((a, sorted(k for k, on in asked.items() if on)))
        return real(a, **asked)

    monkeypatch.setattr(intlin, "smith_form", counting)
    monkeypatch.setattr(chaincx, "smith_form", counting)
    return calls


def test_presentation_factors_each_matrix_once(monkeypatch):
    """gens is eliminated once, with U and V, for its kernel, for all sub
    columns in one solve and for coordinates(); the relations matrix once
    more, with U and U^-1 only.  Coordinates of a whole matrix of vectors
    make no further elimination, and no generator matrix inverts U."""
    calls = _count_eliminations(monkeypatch)
    # span(gens) = 2Z + Z + 3Z (the fourth column is the sum of the
    # first two), span(sub) = 4Z + 2Z + 6Z: the quotient is (Z/2)^3
    gens = IntMatrix([[2, 0, 0, 2], [0, 1, 0, 1], [0, 0, 3, 0]])
    sub = IntMatrix([[4, 0, 0, 4], [0, 2, 0, 2], [0, 0, 6, 0]])
    pres = SubquotientPresentation(gens, sub)
    assert pres.group == FgAbGroup(0, (2, 2, 2))
    assert calls == [(gens, ["u", "v"]), (pres.relations, ["u", "u_inv"])]
    for j in range(sub.cols):
        assert coordinates(pres, sub.col_tuple(j)) == (0, 0, 0)
    assert coordinates(pres, (2, 1, 3)) != (0, 0, 0)
    vecs = gens.hstack(sub).hstack(IntMatrix.column((2, 1, 3)))
    coords = pres.column_coordinates(vecs)
    assert coords.shape == (3, 9)
    assert coords.col_tuple(8) == coordinates(pres, (2, 1, 3))
    assert all(coords.col_tuple(j) == (0, 0, 0) for j in range(4, 8))
    assert len(calls) == 2
    # with Z coefficients the cocycles are ker d^n, which is saturated:
    # d^n is eliminated once, with V and V^-1, the relations once, and
    # the cocycle basis not at all
    def refuse(m):
        raise AssertionError("unimodular_inverse called")

    monkeypatch.setattr(intlin, "unimodular_inverse", refuse)
    c = tensor_complexes(lens_complex(4, 3), lens_complex(6, 3))
    calls.clear()
    pres = chaincx._cochain_presentation(c, 3, None)
    assert pres.group == cohomology(c, 3)
    assert calls == [(c.boundary(4).transpose(), ["v", "v_inv"]),
                     (pres.relations, ["u", "u_inv"])]
    assert all(a != pres.gens for a, _ in calls)
    # a Bockstein into it reads generators from the tracked U^-1 of its
    # mod-2 domain: kernel (V), gens (U, V), relations (U, U^-1)
    calls.clear()
    beta = bockstein(c, 2, 2)
    assert beta.codomain == pres.group and not beta.is_zero()
    assert [asked for _, asked in calls] == [
        ["v"], ["u", "v"], ["u", "u_inv"]]


def _ref_matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _ref_kernel(rows, cols):
    """The trailing columns of the reference V, as a list of columns."""
    _, _, v, diag = reference_smith_normal_form(rows, cols)
    rank = sum(1 for d in diag if d)
    return [[r[j] for r in v] for j in range(rank, cols)]


class _ReferencePresentation:
    """span(gens) / span(sub) column by column on the frozen reference
    SNF: every sub column and every vector is solved alone."""

    def __init__(self, gens, sub, ambient):
        self.gens, self.ambient = gens, ambient      # lists of columns
        self.gens_rows = [[col[i] for col in gens] for i in range(ambient)]
        g = len(gens)
        ycols = [reference_solve(self.gens_rows, g, col) for col in sub]
        assert None not in ycols
        rel_cols = _ref_kernel(self.gens_rows, g) + ycols
        self.relations = [[col[i] for col in rel_cols] for i in range(g)]
        self.u, _, _, diag = reference_smith_normal_form(
            self.relations, len(rel_cols))
        self.diag = diag + [0] * (g - len(diag))
        rank = sum(1 for d in diag if d)
        self.index = (list(range(rank, g))
                      + [i for i in range(rank) if self.diag[i] >= 2])

    def coordinates(self, vec):
        y = reference_solve(self.gens_rows, len(self.gens), vec)
        if y is None:
            return None
        w = [sum(p * q for p, q in zip(row, y)) for row in self.u]
        return [w[i] % self.diag[i] if self.diag[i] else w[i]
                for i in self.index]

    def generators(self):
        """gens @ U^-1 at the generator columns; U^-1 = V' U' from the
        reference SNF U' U V' = I of the unimodular U."""
        n = len(self.u)
        u2, _, v2, _ = reference_smith_normal_form(self.u, n)
        uinv = _ref_matmul(v2, u2)
        return [[sum(col[r] * uinv[k][i] for k, col in enumerate(self.gens))
                 for r in range(self.ambient)] for i in self.index]


def _reference_presented(c, n, m):
    """gens and sub of H^n as `_presented` forms them, on reference
    kernels: cocycles (mod m) and coboundaries (and m times cochains)."""
    rn = c.rank(n)
    d_in = c.boundary(n).to_lists()            # rows are coboundaries
    d_out = c.boundary(n + 1).transpose().to_lists()
    if m is None:
        gens = _ref_kernel(d_out, rn)
        sub = d_in
    else:
        if d_out:
            wide = [row + [m * (i == j) for j in range(len(d_out))]
                    for i, row in enumerate(d_out)]
            gens = [col[:rn] for col in _ref_kernel(wide, rn + len(d_out))]
        else:
            gens = [[int(i == j) for i in range(rn)] for j in range(rn)]
        sub = d_in + [[m * (i == j) for i in range(rn)] for j in range(rn)]
    return _ReferencePresentation(gens, sub, rn)


def _unimodular_pair(rng, n):
    """A random unimodular n x n matrix and its inverse."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    q = [row[:] for row in p]
    for _ in range(6 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        p[j] = [x + k * y for x, y in zip(p[j], p[i])]
        for row in q:
            row[i] -= k * row[j]
    return p, q


def _dense_literal(rng, lo, hi):
    """A dense top-degree-4 complex built as chain_heavy's literals are: a
    split complex (boundary n sends the last b_n cells of degree n to
    t times the first b_n cells of degree n - 1, t in 1..6) seen in
    random unimodular bases."""
    ranks = [rng.randint(lo, hi) for _ in range(5)]
    b = [0] * 5
    bases = [_unimodular_pair(rng, r) for r in ranks]
    bnds = []
    for n in range(1, 5):
        b[n] = min(ranks[n - 1] - b[n - 1], ranks[n]) // 2
        d = [[0] * ranks[n] for _ in range(ranks[n - 1])]
        for i in range(b[n]):
            d[i][ranks[n] - b[n] + i] = rng.choice((1, 1, 1, 2, 3, 4, 6))
        bnds.append(_ref_matmul(_ref_matmul(bases[n - 1][0], d),
                                bases[n][1]))
    return ChainComplex(ranks, bnds)


def _check_against_reference(c, n, m, rng):
    """relations, coordinates and the Bockstein matrix of (c, n, m) equal
    the column-by-column reference; a vector outside the lattice is
    refused exactly when the reference finds no solution for it."""
    pres = chaincx._cochain_presentation(c, n, m)
    ref = _reference_presented(c, n, m)
    assert pres.relations.to_lists() == ref.relations, (c.ranks, n, m)
    rn = c.rank(n)
    vecs = list(ref.gens)
    for _ in range(3):
        coeffs = [rng.randint(-3, 3) for _ in ref.gens]
        vecs.append([sum(k * col[i] for k, col in zip(coeffs, ref.gens))
                     for i in range(rn)])
    mat = IntMatrix([[v[i] for v in vecs] for i in range(rn)],
                    cols=len(vecs))
    got = pres.column_coordinates(mat)
    for j, vec in enumerate(vecs):
        want = ref.coordinates(vec)
        assert list(got.col_tuple(j)) == want, (c.ranks, n, m)
        assert list(coordinates(pres, vec)) == want, (c.ranks, n, m)
    stray = [rng.randint(-5, 5) for _ in range(rn)]
    if ref.coordinates(stray) is None:
        with pytest.raises(SemanticError, match="not in the presented"):
            pres.column_coordinates(mat.hstack(IntMatrix.column(stray)))
    else:
        assert list(coordinates(pres, stray)) == ref.coordinates(stray)
    if m is None:
        return
    cod = _reference_presented(c, n + 1, None)
    d_out = c.boundary(n + 1).transpose().to_lists()
    cols = []
    for x in ref.generators():
        lifted = [sum(p * q for p, q in zip(row, x)) for row in d_out]
        assert all(e % m == 0 for e in lifted)
        cols.append(cod.coordinates([e // m for e in lifted]))
    want = [[col[i] for col in cols] for i in range(len(cod.index))]
    assert bockstein(c, n, m).matrix.to_lists() == want, (c.ranks, n, m)


def test_presentations_equal_the_column_by_column_reference():
    """Solving all sub columns, all vectors and all Bockstein lifts of a
    presentation in one product gives what solving them one at a time on
    the frozen reference SNF gives: the relations matrix, the coordinates
    and the Bockstein matrix, on seeded random complexes and on dense
    literals shaped like the benchmark's, for m = 2, 3, 4, 6, 12."""
    rng = random.Random(20261022)
    complexes = [random_complex(rng, max_top=4, max_rank=5)
                 for _ in range(40)]
    complexes += [_dense_literal(rng, 5, 7) for _ in range(3)]
    complexes.append(_dense_literal(rng, 11, 12))
    for c in complexes:
        for n in range(c.top_degree + 1):
            for m in (None, 2, 3, 4, 6, 12):
                _check_against_reference(c, n, m, rng)


# -- tensor products ---------------------------------------------------------------


def kunneth_prediction(c: ChainComplex, d: ChainComplex, n: int) -> FgAbGroup:
    out = FgAbGroup.trivial()
    for p in range(n + 1):
        out = out.direct_sum(tensor(homology(c, p), homology(d, n - p)))
    for p in range(n):
        out = out.direct_sum(tor1(homology(c, p), homology(d, n - 1 - p)))
    return out


def run_kunneth_lens_suite(lo=2, hi=8):
    """H_2 of the product of two mod-m/mod-n lens skeletons is
    Z/gcd(m, n); shared with the acceptance gate."""
    pairs = 0
    for m in range(lo, hi + 1):
        for n in range(lo, hi + 1):
            prod_cx = tensor_complexes(lens_complex(m, 3), lens_complex(n, 3))
            assert homology(prod_cx, 2) == FgAbGroup.cyclic(gcd(m, n)), (m, n)
            pairs += 1
    return pairs


def test_kunneth_lens_products():
    assert run_kunneth_lens_suite() == 49


def test_kunneth_formula_on_random_complexes():
    rng = random.Random(20)
    for _ in range(40):
        c = random_complex(rng, max_top=3, max_rank=3)
        d = random_complex(rng, max_top=3, max_rank=3)
        t = tensor_complexes(c, d)
        for n in range(t.top_degree + 1):
            assert homology(t, n) == kunneth_prediction(c, d, n), (n,)


def test_tensor_euler_multiplicativity_and_validity():
    rng = random.Random(22)
    for _ in range(40):
        c = random_complex(rng, max_top=3, max_rank=3)
        d = random_complex(rng, max_top=3, max_rank=3)
        t = tensor_complexes(c, d)  # constructor re-checks del del = 0
        assert t.euler_characteristic() == (
            c.euler_characteristic() * d.euler_characteristic())


def test_tensor_with_point_is_identity():
    point = ChainComplex([1], [])
    c = lens_complex(4, 3)
    assert tensor_complexes(point, c) == c
    assert tensor_complexes(c, point) == c


def test_tensor_of_spheres():
    # S^2 x S^3 has one cell in degrees 0, 2, 3, 5
    t = tensor_complexes(sphere_complex(2), sphere_complex(3))
    for n, want in [(0, Z), (1, FgAbGroup.trivial()), (2, Z), (3, Z),
                    (4, FgAbGroup.trivial()), (5, Z)]:
        assert homology(t, n) == want


# -- product and wedge boundaries against dense numpy assemblies -----------------


def _dense(m: IntMatrix) -> np.ndarray:
    return np.array(m.to_lists(), dtype=object).reshape(m.shape)


def kron_product_boundary(c: ChainComplex, d: ChainComplex, n: int) -> np.ndarray:
    """del_n of c (x) d from numpy.kron blocks: in each degree the blocks
    C_p (x) D_{k-p} by ascending p, row-major inside, and
    del = kron(del_p, I) + (-1)^p kron(I, del_q)."""
    def at(k, p):  # where block p of degree k starts
        return sum(c.rank(s) * d.rank(k - s) for s in range(p))
    out = np.zeros((at(n - 1, n), at(n, n + 1)), dtype=object)
    for p in range(n + 1):
        q = n - p
        cols = slice(at(n, p), at(n, p + 1))
        if p >= 1:
            out[at(n - 1, p - 1):at(n - 1, p), cols] = np.kron(
                _dense(c.boundary(p)), np.eye(d.rank(q), dtype=object))
        if q >= 1:
            out[at(n - 1, p):at(n - 1, p + 1), cols] = (-1) ** p * np.kron(
                np.eye(c.rank(p), dtype=object), _dense(d.boundary(q)))
    return out


def test_product_boundaries_equal_a_numpy_kron_assembly():
    rng = random.Random(7)
    pool = [random_complex(rng, max_top=3, max_rank=3, entry_bound=9)
            for _ in range(60)]
    assert any(0 in c.ranks[1:] for c in pool)  # zero-rank degrees occur
    point, empty = ChainComplex([1], []), ChainComplex([0], [])
    pairs = list(zip(pool[::2], pool[1::2]))
    pairs += [(point, c) for c in pool[:5]] + [(c, point) for c in pool[:5]]
    pairs += [(point, point), (empty, pool[0]), (pool[0], empty)]
    for c, d in pairs:
        t = tensor_complexes(c, d)
        assert t.top_degree == c.top_degree + d.top_degree
        for n in range(t.top_degree + 1):
            assert t.rank(n) == sum(c.rank(p) * d.rank(n - p)
                                    for p in range(n + 1))
        for n in range(1, t.top_degree + 1):
            want = kron_product_boundary(c, d, n)
            assert t.boundary(n).shape == want.shape
            assert t.boundary(n).to_lists() == want.tolist(), (c, d, n)


def test_wedge_boundaries_equal_a_block_diagonal_assembly():
    rng = random.Random(7)

    def based(c):  # c one degree up, over a single 0-cell, so del_1 = 0
        return from_complex(ChainComplex(
            (1,) + c.ranks, [IntMatrix.zeros(1, c.ranks[0]), *c.boundaries]))
    fixed = [sphere(1), sphere(4), moore_3cell(6), lens_skeleton(4, 5),
             from_complex(ChainComplex([1], []))]
    for _ in range(30):
        parts = [based(random_complex(rng, max_top=3, max_rank=3,
                                      entry_bound=9))
                 for _ in range(rng.randint(1, 3))]
        parts.insert(rng.randint(0, len(parts)), rng.choice(fixed))
        cells = [x.chains for x in parts]
        w = wedge(parts).chains
        top = max(c.top_degree for c in cells)
        assert w.ranks == (1,) + tuple(sum(c.rank(n) for c in cells)
                                       for n in range(1, top + 1))
        for n in range(1, top + 1):
            want = np.zeros((w.rank(n - 1), w.rank(n)), dtype=object)
            if n >= 2:
                r0 = c0 = 0
                for c in cells:
                    b = c.boundary(n)
                    want[r0:r0 + b.rows, c0:c0 + b.cols] = _dense(b)
                    r0, c0 = r0 + b.rows, c0 + b.cols
            assert w.boundary(n).shape == want.shape
            assert w.boundary(n).to_lists() == want.tolist(), n


def test_building_a_product_reads_no_rank_or_top_degree(monkeypatch):
    rng = random.Random(5)
    pairs = [(random_complex(rng), random_complex(rng)) for _ in range(10)]
    a, b = lens_skeleton(3, 4), moore_3cell(6)

    def refuse(*args):
        raise AssertionError("a product read rank() or top_degree")
    monkeypatch.setattr(ChainComplex, "rank", refuse)
    monkeypatch.setattr(ChainComplex, "top_degree", property(refuse))
    for c, d in pairs:
        tensor_complexes(c, d)
    assert len(product(a, b).chains.ranks) == 5 + 4 - 1
