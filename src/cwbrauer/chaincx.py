"""Bounded chain complexes of finitely generated free Z-modules.

A complex stores one rank per degree 0..top and the boundary matrices
del_n : C_n -> C_{n-1}; del del = 0 is enforced at construction.
`ChainComplex.from_entries` builds one from the nonzero entries
(n, i, j, x) of its boundaries; `tensor_complexes` and every finite cell
structure of spaces.py are built through it.
Homology and cohomology, with Z or Z/m coefficients, read only the
Smith diagonals of two boundaries (`smith_invariants`, no transforms);
cohomology by universal coefficients.

`uct_decompose` checks the universal-coefficient split against the
homology of the dual complex, read off the diagonals of `smith_form`
on the transposed boundaries.

A cochain presentation (`SubquotientPresentation`, built on transform
SNFs) is built only where its generators are needed: for a `bockstein`
whose image is nonzero (a zero one is decided from the Smith diagonal
of one boundary and answered from the diagonals alone).  Each
transform elimination builds only the transforms its reader uses
(`intlin.smith_form`): V for a kernel, U and U^-1 for the relations,
whose U^-1 gives the generators.  With Z
coefficients the cocycles ker d^n are eliminated once, with V and V^-1:
they are saturated, so their Smith form is read off V^-1 and they are
not eliminated a second time.  With Z/m coefficients it is computed
directly on the mod-m cochain complex: the mod-m cocycle lattice
L = {x : d x = 0 mod m} is the projection of the integer kernel of
[d | mI], and H^n = L / (im d + m Z^{r_n}).  Keeping the computation at
the cochain level is what lets `bockstein` return an explicit map on
canonical generators.  Every right-hand side of a presentation is
solved in matrix form: all sub columns in one `SmithForm.solve_columns`,
and `bockstein` lifts all generators of its domain with one product and
asks its codomain for all their coordinates in one call.

`homology`, `cohomology`, `uct_decompose` and `bockstein` read a complex
only through rank(n) and boundary(n), so they take a ChainComplex or a
spaces.PeriodicComplex alike: an infinite complex is read at degree n
without being cut or unrolled.  Above the top degree of a bounded
complex the ranks are 0 and the boundaries zero-shaped, which gives the
trivial group with no special case.

Cochain presentations are memoized in one LRU of
`MAX_CACHED_PRESENTATIONS` entries, keyed by the values a presentation
depends on: del_n, del_{n+1} and the modulus.  Matrices compare by
value, so the same degree of a re-parsed literal, or degrees n and
n + period of a periodic complex, share one entry.  A presentation is
never changed after it is built, and an error is never cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from random import Random

from .abgroup import FgAbGroup, GroupHom
from .errors import SemanticError
from .intlin import (IntMatrix, SmithForm, kernel_basis, smith_form,
                     smith_invariants, smith_normal_form)


class ChainComplex:
    """ranks[n] = rank of C_n; boundaries[n-1] = del_n for n = 1..top."""

    __slots__ = ("ranks", "boundaries")

    def __init__(self, ranks, boundaries):
        ranks = tuple(int(r) for r in ranks)
        if not ranks:
            raise SemanticError("a complex needs at least degree 0")
        if any(r < 0 for r in ranks):
            raise SemanticError("negative rank")
        boundaries = tuple(b if isinstance(b, IntMatrix) else IntMatrix(b)
                           for b in boundaries)
        if len(boundaries) != len(ranks) - 1:
            raise SemanticError(
                f"{len(ranks)} degrees need {len(ranks) - 1} boundary "
                f"matrices, got {len(boundaries)}")
        for n, b in enumerate(boundaries, start=1):
            if b.shape != (ranks[n - 1], ranks[n]):
                raise SemanticError(
                    f"boundary {n} has shape {b.shape}, expected "
                    f"{(ranks[n - 1], ranks[n])}")
        zero = [b.is_zero() for b in boundaries]
        for n in range(1, len(ranks) - 1):
            if zero[n - 1] or zero[n]:
                continue
            if not (boundaries[n - 1] @ boundaries[n]).is_zero():
                raise SemanticError(f"del_{n} del_{n + 1} != 0")
        self.ranks = ranks
        self.boundaries = boundaries

    @classmethod
    def from_entries(cls, ranks, entries) -> "ChainComplex":
        """The complex with these ranks whose del_n holds x at (i, j) for
        each (n, i, j, x) in entries, and 0 elsewhere."""
        mats = [[[0] * c for _ in range(r)] for r, c in zip(ranks, ranks[1:])]
        for n, i, j, x in entries:
            mats[n - 1][i][j] = x
        return cls(ranks, [IntMatrix._of(tuple(map(tuple, a)), c)
                           for a, c in zip(mats, ranks[1:])])

    @property
    def top_degree(self) -> int:
        return len(self.ranks) - 1

    def rank(self, n: int) -> int:
        return self.ranks[n] if 0 <= n <= self.top_degree else 0

    def boundary(self, n: int) -> IntMatrix:
        """del_n : C_n -> C_{n-1}; a zero-shaped matrix outside 1..top."""
        if 1 <= n <= self.top_degree:
            return self.boundaries[n - 1]
        return IntMatrix.zeros(self.rank(n - 1), self.rank(n))

    def dimension(self) -> int:
        """Largest degree carrying cells (-1 for the empty complex)."""
        for n in range(self.top_degree, -1, -1):
            if self.ranks[n]:
                return n
        return -1

    def euler_characteristic(self) -> int:
        return sum((-1) ** n * r for n, r in enumerate(self.ranks))

    def __eq__(self, other):
        if not isinstance(other, ChainComplex):
            return NotImplemented
        return self.ranks == other.ranks and self.boundaries == other.boundaries

    def __hash__(self):
        return hash((self.ranks, self.boundaries))

    def __repr__(self):
        return f"ChainComplex(ranks={self.ranks})"


def truncate(c: ChainComplex, k: int) -> ChainComplex:
    """The k-skeleton: degrees above k are dropped."""
    if k < 0:
        raise SemanticError("truncation degree must be >= 0")
    k = min(k, c.top_degree)
    return ChainComplex(c.ranks[:k + 1], c.boundaries[:k])


class SubquotientPresentation:
    """span(gens) / span(sub) inside Z^ambient, with canonical coordinates.

    gens columns generate a sublattice L, sub columns must lie in L.  The
    quotient is presented as Z^g / (relations among gens + sub expressed in
    gens), put in Smith form, and the canonical generators are tracked back
    to actual ambient vectors so that explicit cocycle representatives and
    coordinates of arbitrary lattice vectors are available.  The sub
    columns are expressed in gens by one solve for all of them.

    gens_form is a Smith form of gens with U and V, when the caller has
    one; otherwise gens is eliminated here.  The relations are
    eliminated with U and U^-1 only: coordinates read U, generators
    U^-1.
    """

    def __init__(self, gens: IntMatrix, sub: IntMatrix,
                 gens_form: SmithForm | None = None):
        if gens.rows != sub.rows:
            raise SemanticError("ambient dimension mismatch")
        self.gens = gens
        self._gens_sf = gens_form or smith_normal_form(gens)
        g = gens.cols
        y = self._gens_sf.solve_columns(sub)
        if y is None:
            raise SemanticError("subgroup generator outside the lattice")
        self.relations = self._gens_sf.kernel().hstack(y)
        sf = smith_form(self.relations, u=True, u_inv=True)
        self._u = sf.u
        self._u_inv = sf.u_inv
        self._diag = sf.diagonal + (0,) * (g - len(sf.diagonal))
        r = sf.rank
        free_idx = list(range(r, g))
        torsion_idx = [i for i in range(r) if self._diag[i] >= 2]
        self._gen_index = free_idx + torsion_idx
        self.group = FgAbGroup(
            free_rank=len(free_idx),
            invariant_factors=tuple(self._diag[i] for i in torsion_idx))

    def generator_matrix(self) -> IntMatrix:
        """Ambient representatives of the canonical generators, as the
        columns of a gens.rows x (number of generators) matrix."""
        return self.gens @ self._u_inv.submatrix(range(self._u_inv.rows),
                                                 self._gen_index)

    def column_coordinates(self, vecs: IntMatrix) -> IntMatrix:
        """Classes of the columns of vecs (each must lie in span(gens)),
        as the columns of a (number of generators) x vecs.cols matrix:
        one solve for all columns, then one product with the rows of U
        that belong to generators, each reduced mod its order."""
        y = self._gens_sf.solve_columns(vecs)
        if y is None:
            raise SemanticError("vector is not in the presented lattice")
        w = self._u.submatrix(self._gen_index, range(self._u.cols)) @ y
        coords = []
        for k, i in enumerate(self._gen_index):
            d = self._diag[i]
            row = w.row_tuple(k)
            coords.append([x % d for x in row] if d else row)
        return IntMatrix(coords, cols=vecs.cols)


def homology(c, n: int) -> FgAbGroup:
    """H_n(c) = ker del_n / im del_{n+1} in canonical form.

    ker del_n is saturated in C_n, so H_n is free of rank
    r_n - rank del_n - rank del_{n+1} plus the torsion of
    C_n / im del_{n+1}: the invariant factors >= 2 of del_{n+1}.
    """
    if n < 0:
        return FgAbGroup.trivial()
    _, d_out, free = _diagonals(c, n)
    return FgAbGroup(free, tuple(d for d in d_out if d >= 2))


def _diagonals(c, n: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The Smith diagonals of del_n and del_{n+1}, and the rank of H_n."""
    d_in = smith_invariants(c.boundary(n))
    d_out = smith_invariants(c.boundary(n + 1))
    free = c.rank(n) - sum(1 for d in d_in if d) - sum(1 for d in d_out if d)
    return d_in, d_out, free


# Entries of the _presented LRU, which only a bockstein with nonzero
# image reads.  On sessions of bockstein requests around one degree of
# one space (perfbench's chain_heavy), the share of lookups that hit
# stops rising at two.
MAX_CACHED_PRESENTATIONS = 2


def _cochain_presentation(c, n: int, modulus: int | None
                          ) -> SubquotientPresentation:
    """Presentation of H^n with Z or Z/modulus coefficients."""
    return _presented(c.boundary(n), c.boundary(n + 1), modulus)


@lru_cache(maxsize=MAX_CACHED_PRESENTATIONS)
def _presented(bnd_n: IntMatrix, bnd_next: IntMatrix, modulus: int | None
               ) -> SubquotientPresentation:
    """The presentation of H^n from del_n and del_{n+1} alone."""
    rn = bnd_n.cols
    d_in = bnd_n.transpose()        # d^{n-1}: C^{n-1} -> C^n
    d_out = bnd_next.transpose()    # d^n: C^n -> C^{n+1}
    if modulus is None:
        # the cocycles are saturated: one elimination of d^n gives them
        # and, through V^-1, their own Smith form
        sf = smith_form(d_out, v=True, v_inv=True)
        return SubquotientPresentation(sf.kernel(), d_in, sf.kernel_form())
    m = modulus
    # mod-m cocycles: x-projections of ker [d^n | mI]
    ker = kernel_basis(d_out.hstack(IntMatrix.diagonal([m] * d_out.rows)))
    gens = ker.submatrix(range(rn), range(ker.cols))
    sub = d_in.hstack(IntMatrix.diagonal([m] * rn))
    return SubquotientPresentation(gens, sub)


def cohomology(c, n: int, modulus: int | None = None) -> FgAbGroup:
    """H^n(c; Z) or H^n(c; Z/modulus) from the Smith diagonals a of del_n
    and b of del_{n+1}, by universal coefficients.

    With f the rank of H_n, H^n(c; Z) = Z^f + (the factors >= 2 of a),
    and H^n(c; Z/m) = Hom(H_n, Z/m) + Ext^1(H_{n-1}, Z/m) =
    (Z/m)^f + Z/gcd(b_i, m) + Z/gcd(a_i, m) over the factors >= 2.
    """
    if modulus is not None and modulus < 2:
        raise SemanticError("coefficient modulus must be >= 2")
    if n < 0:
        return FgAbGroup.trivial()
    d_in, d_out, free = _diagonals(c, n)
    if modulus is None:
        return FgAbGroup(free, tuple(d for d in d_in if d >= 2))
    return FgAbGroup.from_cyclic_orders(
        [modulus] * free + [gcd(d, modulus) for d in d_out + d_in if d >= 2])


@dataclass(frozen=True)
class UctDecomposition:
    """H^n = Ext^1(H_{n-1}, Z) + Hom(H_n, Z), the split exact sequence."""

    degree: int
    ext_part: FgAbGroup
    hom_part: FgAbGroup
    total: FgAbGroup

    def __post_init__(self):
        if self.ext_part.direct_sum(self.hom_part) != self.total:
            raise SemanticError(
                f"universal coefficients mismatch in degree {self.degree}: "
                f"{self.ext_part} + {self.hom_part} != {self.total}")


def uct_decompose(c, n: int) -> UctDecomposition:
    """Split H^n(c; Z) via universal coefficients and check it against
    H^n computed on the cochain complex.

    Ext^1(H_{n-1}, Z) is the torsion of H_{n-1}, which is the torsion of
    coker del_n: the invariant factors >= 2 of del_n.  Hom(H_n, Z) is free
    of the rank of H_n.  So the split reads the Smith diagonals of del_n
    and del_{n+1}, once each (`smith_invariants`).

    The total is the homology ker d^n / im d^{n-1} of the dual complex,
    with d^{n-1} = del_n^T and d^n = del_{n+1}^T.  C^n / ker d^n is
    isomorphic to im d^n, a subgroup of the free C^{n+1}, so it is free
    and ker d^n is a direct summand of C^n.  So the torsion of
    ker d^n / im d^{n-1} is the torsion of C^n / im d^{n-1}, the factors
    >= 2 of d^{n-1}, and its rank is r_n - rank d^{n-1} - rank d^n.
    Those diagonals come from `smith_form`'s elimination of the
    transposes, another routine on other matrices, and `smith_form`
    stores no diagonal on its input: the check compares two
    independent routes.
    """
    d_in, _, free = _diagonals(c, n)
    ext_part = FgAbGroup(0, tuple(d for d in d_in if d >= 2))
    hom_part = FgAbGroup(free)
    return UctDecomposition(degree=n, ext_part=ext_part,
                            hom_part=hom_part, total=_dual_cohomology(c, n))


def _dual_cohomology(c, n: int) -> FgAbGroup:
    """H^n(c; Z) from the `smith_form` diagonals of d^{n-1} = del_n^T and
    d^n = del_{n+1}^T, with no transform; see `uct_decompose`."""
    a = smith_form(c.boundary(n).transpose()).diagonal
    b = smith_form(c.boundary(n + 1).transpose()).diagonal
    free = c.rank(n) - sum(1 for d in a + b if d)
    return FgAbGroup(free, tuple(d for d in a if d >= 2))


def bockstein(c, n: int, m: int) -> GroupHom:
    """The integral Bockstein beta : H^n(c; Z/m) -> H^{n+1}(c; Z).

    Whether beta is zero is decided first, from the Smith diagonal of
    del_{n+1} alone.  The coefficient sequence 0 -> Z -(x m)-> Z -> Z/m
    -> 0 gives the exact sequence H^n(; Z/m) -(beta)-> H^{n+1}(; Z)
    -(x m)-> H^{n+1}(; Z), so im beta = ker(x m) is the m-torsion of
    H^{n+1}(; Z).  That torsion is Ext^1(H_n, Z), whose invariant
    factors are those >= 2 of del_{n+1}: a factor d contributes
    Z/gcd(d, m) to the m-torsion.  So beta = 0 exactly when every such d
    is prime to m, and then it is the zero map between the canonical
    groups, with no cochain presentation built.

    Otherwise it is computed at the cochain level: lift a mod-m cocycle
    to an integer cochain x, then beta[x] = [d x / m].  All generators
    of the domain are lifted together (one product d X, one
    divisibility check) and their coordinates in H^{n+1} are read in one
    call.  The returned GroupHom acts on the canonical generators of
    both groups.
    """
    if m < 2:
        raise SemanticError("Bockstein modulus must be >= 2")
    if all(gcd(d, m) == 1 for d in smith_invariants(c.boundary(n + 1))
           if d >= 2):
        return GroupHom.zero(cohomology(c, n, m), cohomology(c, n + 1))
    dom = _cochain_presentation(c, n, m)
    cod = _cochain_presentation(c, n + 1, None)
    d_out = c.boundary(n + 1).transpose()
    gens = dom.generator_matrix()
    u = (d_out @ gens).to_lists()
    if any(x % m for row in u for x in row):
        raise SemanticError("generator is not a mod-m cocycle")
    lifted = IntMatrix([[x // m for x in row] for row in u], cols=gens.cols)
    return GroupHom(dom.group, cod.group, cod.column_coordinates(lifted))


def tensor_complexes(c: ChainComplex, d: ChainComplex) -> ChainComplex:
    """Tensor product complex with the Koszul sign.

    (c tensor d)_n = sum over p+q=n of C_p tensor D_q, and
    del(x tensor y) = del x tensor y + (-1)^p x tensor del y.
    Basis order in degree n: blocks by ascending p, row-major inside.
    """
    rc, rd = c.ranks, d.ranks
    ranks = [0] * (len(rc) + len(rd) - 1)
    start = {}  # where the block C_p (x) D_q starts in degree p + q
    for p, a in enumerate(rc):      # p outer: blocks in ascending p
        for q, b in enumerate(rd):
            start[p, q] = ranks[p + q]
            ranks[p + q] += a * b
    del_c = [m.nonzeros() for m in c.boundaries]
    del_d = [m.nonzeros() for m in d.boundaries]

    def entries():  # those of kron(del_p, I) and (-1)^p kron(I, del_q)
        for (p, q), c0 in start.items():
            a, b = rc[p], rd[q]
            if p:  # del x (x) y
                r0 = start[p - 1, q]
                for i, j, x in del_c[p - 1]:
                    for k in range(b):
                        yield p + q, r0 + i * b + k, c0 + j * b + k, x
            if q:  # (-1)^p x (x) del y
                r0, rq, sign = start[p, q - 1], rd[q - 1], (-1) ** p
                for i, j, x in del_d[q - 1]:
                    for k in range(a):
                        yield p + q, r0 + k * rq + i, c0 + k * b + j, sign * x
    return ChainComplex.from_entries(ranks, entries())


def random_complex(rng: Random, max_top: int = 5, max_rank: int = 5,
                   entry_bound: int = 3) -> ChainComplex:
    """A random valid complex: del_{n+1} = (kernel basis of del_n) @ C with
    random C, so del del = 0 holds by construction (and is re-checked)."""
    top = rng.randint(0, max_top)
    ranks = [rng.randint(0, max_rank) for _ in range(top + 1)]
    if ranks[0] == 0:
        ranks[0] = 1
    boundaries = []
    prev = IntMatrix.zeros(0, ranks[0])  # del_0
    for n in range(1, top + 1):
        k = kernel_basis(prev)
        a = [[rng.randint(-entry_bound, entry_bound) for _ in range(ranks[n])]
             for _ in range(k.cols)]
        nxt = k @ IntMatrix(a) if k.cols else IntMatrix.zeros(ranks[n - 1], ranks[n])
        boundaries.append(nxt)
        prev = nxt
    return ChainComplex(ranks, boundaries)
