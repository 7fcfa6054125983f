"""Tests for towers and lim^1 certificates, and for the symbolic groups
a telescope's colimit H_1 and its Ext^1 give."""

import io
import json
import random

import pytest

from cwbrauer.abgroup import FgAbGroup, GroupHom
from cwbrauer.errors import SemanticError, UnsupportedComputation
from cwbrauer import limits
from cwbrauer.cli import run_line
from cwbrauer.grammar import parse_tower
from _oracles import draw_eventually_periodic
from cwbrauer.intlin import IntMatrix, solve_integral
from cwbrauer.limits import (Lim1Certificate, Tower, _images_equal,
                             lim1_certificate)
from cwbrauer.spaces import (SymbolicGroup, phantom_subgroup, space_homology,
                             telescope_z)

Z = FgAbGroup.cyclic(0)


def zmod(n):
    return FgAbGroup.cyclic(n)


def run_line_json(line):
    out = io.StringIO()
    code = run_line(line, True, False, out=out)
    return code, json.loads(out.getvalue())


# -- symbolic groups -----------------------------------------------------------------


def test_telescope_group_descriptions():
    assert space_homology(telescope_z(1), 1).describe() == "Z"
    assert space_homology(telescope_z(-1), 1).describe() == "Z"
    assert space_homology(telescope_z(12), 1).describe() == "Z[1/2,1/3]"
    assert space_homology(telescope_z(-12), 1).describe() == "Z[1/2,1/3]"
    assert phantom_subgroup(telescope_z(2), 2).describe() == "Ext^1(Z[1/2], Z)"


def test_telescope_group_flags_and_refusals():
    for k in (1, 5):
        h1 = space_homology(telescope_z(k), 1)
        assert h1.torsion_free and not h1.divisible
        assert not h1.torsion and h1.nonzero
    with pytest.raises(UnsupportedComputation, match="cannot factor"):
        space_homology(telescope_z(1000000016000000063), 1)  # 10^9+7 times 10^9+9
    with pytest.raises(SemanticError):
        phantom_subgroup(telescope_z(2), 0)


def test_symbolic_group_flags_and_describe():
    """The zero group, the telescope's H_1 (Z and Z[1/2,1/3]) and the
    opaque Ext group of its phantom H^2, each with its four flags."""
    zero = SymbolicGroup()
    assert zero.is_zero and zero.describe() == "0"
    assert not zero.nonzero
    assert zero.torsion and zero.divisible and zero.torsion_free  # vacuous
    assert space_homology(telescope_z(0), 1) == zero
    for k, name in ((1, "Z"), (6, "Z[1/2,1/3]")):
        h1 = space_homology(telescope_z(k), 1)
        assert h1.describe() == name
        assert h1.torsion_free and h1.nonzero and not h1.is_zero
        assert not h1.torsion and not h1.divisible
    ext = phantom_subgroup(telescope_z(6), 2)
    assert ext.describe() == "Ext^1(Z[1/2,1/3], Z)"
    assert ext.divisible and ext.nonzero and not ext.is_zero
    assert not ext.torsion and not ext.torsion_free


def test_ext1_symbolic_table():
    """Ext^1(H_1, Z) of a telescope: 0 for H_1 = 0 or Z, and one opaque
    divisible group for Z[1/p,...]."""
    for k in (0, 1, -1):
        assert phantom_subgroup(telescope_z(k), 2).is_zero
    loc = phantom_subgroup(telescope_z(6), 2)
    assert loc.describe() == "Ext^1(Z[1/2,1/3], Z)"
    assert loc.divisible and loc.nonzero and not loc.torsion_free
    assert not loc.torsion


# -- towers --------------------------------------------------------------------------


def finite_tower():
    z4, z8 = zmod(4), zmod(8)
    return Tower(block=(z4, z8),
                 block_links=(GroupHom.scalar(z4, z8, 2),
                              GroupHom.scalar(z8, z4, 1)))


def test_tower_indexing():
    z2, z4, z8 = zmod(2), zmod(4), zmod(8)
    t = Tower(prefix=(z2, z8),
              prefix_links=(GroupHom.scalar(z8, z2, 1),),
              block=(z4, z8),
              block_links=(GroupHom.scalar(z4, z8, 2),
                           GroupHom.scalar(z8, z4, 1)))
    assert [t.item(i) for i in range(6)] == [z2, z8, z4, z8, z4, z8]
    assert t.link(1).codomain == z2
    assert t.link(2).domain == z4 and t.link(2).codomain == z8
    comp = t.composite(4, 1)
    assert comp.domain == z4 and comp.codomain == z8
    assert t.composite(3, 3).matrix == GroupHom.identity(z8).matrix


def test_tower_validation():
    z4, z8 = zmod(4), zmod(8)
    with pytest.raises(SemanticError):
        Tower(block=(), block_links=())
    with pytest.raises(SemanticError):
        Tower(block=(z4,), block_links=())
    with pytest.raises(SemanticError):
        Tower(prefix_links=(GroupHom.scalar(z4, z4, 1),),
              block=(z4,),
              block_links=(GroupHom.scalar(z4, z4, 1),))
    with pytest.raises(SemanticError):   # block map 0 must land in the LAST group
        Tower(block=(z4, z8),
              block_links=(GroupHom.scalar(z4, z4, 1),
                           GroupHom.scalar(z8, z4, 1)))
    with pytest.raises(SemanticError):   # seam: last prefix != last block group
        Tower(prefix=(z4,), prefix_links=(),
              block=(z4, z8),
              block_links=(GroupHom.scalar(z4, z8, 2),
                           GroupHom.scalar(z8, z4, 1)))


def test_lim1_jensen_finite():
    cert = lim1_certificate(finite_tower())
    assert cert.verdict == "VANISHES"
    assert cert.reason == "JensenFinite"
    assert "finite" in cert.witness
    assert cert.citations == ("jensen-finite",)


def test_lim1_mittag_leffler():
    t = Tower(block=(Z,), block_links=(GroupHom.identity(Z),))
    cert = lim1_certificate(t)
    assert (cert.verdict, cert.reason) == ("VANISHES", "MittagLeffler")
    assert cert.citations == ("mittag-leffler",)

    # projection/inclusion period: composites are the identity on Z
    z2 = FgAbGroup.from_cyclic_orders((0, 0))
    incl = GroupHom(Z, z2, [[1], [0]])
    proj = GroupHom(z2, Z, [[1, 0]])
    t = Tower(block=(Z, z2), block_links=(incl, proj))
    assert lim1_certificate(t).reason == "MittagLeffler"


def test_lim1_inconclusive_for_p_adic_style_tower():
    t = Tower(block=(Z,), block_links=(GroupHom.scalar(Z, Z, 2),))
    cert = lim1_certificate(t)
    assert cert.verdict == "INCONCLUSIVE"
    assert cert.reason is None
    assert "not assert nonvanishing" in cert.witness
    # both rules were tried, so both facts are cited
    assert set(cert.citations) == {"mittag-leffler", "jensen-finite"}


def test_milnor_sequence_agrees_with_the_phantom_formula_on_telescopes():
    """H^2 of telescope(Z, xk) has its phantoms from the lim^1 of the
    tower Z <-(xk)- Z <-(xk)- ... of H^1 of its finite stages (Milnor).
    The phantom formula reads |k| <= 1 in closed form, lim^1 compares
    Smith images: the subgroup is zero exactly when lim^1 VANISHES, and
    it is nonzero and divisible when lim^1 is INCONCLUSIVE."""
    for k in range(-12, 13):
        hom = f"x{k}" if k >= 0 else f"x {k}"  # as format_tower writes it
        cert = lim1_certificate(parse_tower(f"tower block [Z -({hom})-> Z]"))
        phantom = phantom_subgroup(telescope_z(k), 2)
        assert phantom.is_zero == (cert.verdict == "VANISHES"), k
        assert phantom.is_zero == (abs(k) <= 1), k
        assert phantom.is_zero or phantom.divisible, k


def test_lim1_certificate_invariants():
    with pytest.raises(SemanticError):
        Lim1Certificate("MAYBE", None, "x")
    with pytest.raises(SemanticError):
        Lim1Certificate("VANISHES", None, "x")
    with pytest.raises(SemanticError):
        Lim1Certificate("INCONCLUSIVE", "JensenFinite", "x")


def rel_matrix(orders):
    cols = [i for i, d in enumerate(orders) if d]
    return IntMatrix([[orders[i] if i == j else 0 for j in cols]
                      for i in range(len(orders))], cols=len(cols))


def contains(rel, big, small):
    """span(small) inside span(big) + span(rel), decided column by column
    with integral solves."""
    wide = big.hstack(rel)
    return all(solve_integral(wide, small.col_tuple(j)) is not None
               for j in range(small.cols))


def test_images_equal_matches_a_solve_based_reference():
    """_images_equal (rank and index from Smith diagonals) against mutual
    containment decided column by column with integral solves, on seeded
    groups and generator matrices.  Every b is [a | relations] times an
    integer matrix, as _images_equal requires: half of them unimodular
    rebasings of a, half random combinations."""
    rng = random.Random(88)

    def rand(rows, cols):
        return IntMatrix([[rng.randint(-4, 4) for _ in range(cols)]
                          for _ in range(rows)], cols=cols)

    seen = {True: 0, False: 0}
    for _ in range(400):
        orders = [rng.choice((0, 0, 2, 3, 4, 6)) for _ in range(rng.randint(1, 3))]
        g = FgAbGroup.from_cyclic_orders(orders)
        orders = g.cyclic_orders()
        rows, rel = len(orders), rel_matrix(orders)
        a = rand(rows, rng.randint(0, 3))
        if rng.random() < 0.5:
            # the same span: [a | relations] times a unit upper triangular
            # matrix stacked on a random one
            k = a.cols
            mix = [[int(i == j) if i >= j else rng.randint(-2, 2)
                    for j in range(k)] for i in range(k)]
            mix += rand(rel.cols, k).to_lists()
            b = a.hstack(rel) @ IntMatrix(mix, cols=k)
        else:
            # a subgroup of span(a): [a | relations] times a random matrix
            b = a.hstack(rel) @ rand(a.cols + rel.cols, rng.randint(0, 2))
        assert contains(rel, a, b)
        want = contains(rel, a, b) and contains(rel, b, a)
        assert _images_equal(g, a, b) == want, (orders, a, b)
        seen[want] += 1
    assert min(seen.values()) > 100, seen


def _random_tower(rng):
    """A seeded tower: groups of one or two cyclic summands (some free),
    an optional prefix, a block of 1 to 3 links, random map matrices."""
    def group():
        return FgAbGroup.from_cyclic_orders(
            [rng.choice((0, 0, 0, 2, 3, 4, 6)) for _ in range(rng.randint(1, 2))])

    def hom(dom, cod):
        rows = len(cod.cyclic_orders())
        cols = len(dom.cyclic_orders())
        while True:  # a random matrix that respects dom's relations
            try:
                return GroupHom(dom, cod, [[rng.randint(-3, 3) for _ in range(cols)]
                                           for _ in range(rows)])
            except SemanticError:
                pass

    block = [group() for _ in range(rng.randint(1, 3))]
    maps = tuple(hom(g, block[i - 1]) for i, g in enumerate(block))
    prefix = []
    if rng.random() < 0.5:
        prefix = [group() for _ in range(rng.randint(0, 2))] + [block[-1]]
    return Tower(prefix=tuple(prefix),
                 prefix_links=tuple(hom(prefix[i + 1], prefix[i])
                                    for i in range(len(prefix) - 1)),
                 block=tuple(block), block_links=maps)


def test_lim1_verdicts_match_a_two_period_solve_reference():
    """lim1_certificate (one period composed with itself, two Smith
    diagonals) against the images of A_(j+m) -> A_j and A_(j+2m) -> A_j
    compared by mutual containment with integral solves."""
    rng = random.Random(15)
    seen = {"JensenFinite": 0, "MittagLeffler": 0, None: 0}
    for _ in range(300):
        t = _random_tower(rng)
        p, m = len(t.prefix), t.period
        if all(g.is_finite for g in t.prefix + t.block):
            want = "JensenFinite"
        else:
            stable = True
            for j in range(p, p + m):
                rel = rel_matrix(t.item(j).cyclic_orders())
                one = t.composite(j + m, j).matrix
                two = t.composite(j + 2 * m, j).matrix
                stable &= contains(rel, one, two) and contains(rel, two, one)
            want = "MittagLeffler" if stable else None
        assert lim1_certificate(t).reason == want, t
        seen[want] += 1
    assert min(seen.values()) > 40, seen


def test_lim1_reads_two_smith_diagonals_per_block_stage(monkeypatch):
    """One diagonal of [f | relations] and one of [f o f | relations] for
    each stage of the block; a Mittag-Leffler tower visits every stage."""
    calls = []
    real = limits.smith_invariants

    def counting(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(limits, "smith_invariants", counting)
    z2 = FgAbGroup.from_cyclic_orders((0, 0))
    swap = GroupHom(z2, z2, [[0, 1], [1, 0]])
    for m in (1, 2, 3):
        calls.clear()
        t = Tower(prefix=(Z, z2), prefix_links=(GroupHom(z2, Z, [[1, 0]]),),
                  block=(z2,) * m, block_links=(swap,) * m)
        assert lim1_certificate(t).reason == "MittagLeffler"
        assert len(calls) == 2 * m


def test_tower_names_a_block_link_with_the_wrong_target():
    """Tower itself checks the links, with the message the CLI prints for
    a tower literal."""
    z4 = zmod(4)
    with pytest.raises(SemanticError) as direct:
        Tower(block=(Z,), block_links=(GroupHom.scalar(Z, z4, 2),))
    want = "block link 0 must map to Z (the previous stage), not Z/4"
    assert str(direct.value) == want
    code, out = run_line_json("lim1 tower block [Z -(x2)-> Z/4]")
    assert (code, out["error"]["message"]) == (3, want)
    with pytest.raises(SemanticError, match="block map 0 does not chain"):
        Tower(block=(Z,), block_links=(GroupHom.scalar(z4, Z, 0),))


def test_tower_seam_refusal_names_the_last_prefix_group():
    """A first block link that misses the last prefix group is refused
    as that link, with the message every block link has."""
    code, out = run_line_json("lim1 tower prefix [Z/2] block [Z/4 -(x1)-> Z/4]")
    assert (code, out["error"]["message"]) == (
        3, "block link 0 must map to Z/2 (the previous stage), not Z/4")


def _tower_rules_before_the_shared_base(prefix, prefix_links, block,
                                        block_links) -> bool:
    """The checks Tower made on its own fields, each written out: counts,
    the prefix chain, every block link against B_(i-1 mod m), and the
    seam (last prefix group = last block group)."""
    p, m = len(prefix), len(block)
    if not m or len(block_links) != m:
        return False
    if len(prefix_links) != (p - 1 if p else 0):
        return False
    for i, f in enumerate(prefix_links):
        if f.domain != prefix[i + 1] or f.codomain != prefix[i]:
            return False
    for i, f in enumerate(block_links):
        if f.domain != block[i] or f.codomain != block[(i - 1) % m]:
            return False
    return not p or prefix[-1] == block[-1]


def test_tower_accepts_exactly_what_its_written_out_rules_accept():
    rng = random.Random(20)
    pool = [FgAbGroup.from_cyclic_orders(o)
            for o in ((0,), (2,), (4,), (0, 0), (0, 2))]

    def zero_hom(rng, x, y):
        return GroupHom(x, y, IntMatrix.zeros(len(y.cyclic_orders()),
                                              len(x.cyclic_orders())))

    seen = {}
    for _ in range(600):
        kind, *data = draw_eventually_periodic(
            rng, lambda rng: rng.choice(pool), zero_hom)
        try:
            Tower(*data)
            accepted = True
        except SemanticError:
            accepted = False
        assert accepted == _tower_rules_before_the_shared_base(*data), data
        assert accepted == (kind == "valid"), (kind, data)
        seen[kind] = seen.get(kind, 0) + 1
    assert min(seen.values()) > 100, seen
