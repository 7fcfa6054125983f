"""Bounded chain complexes of finitely generated free Z-modules.

A complex stores one rank per degree 0..top and the boundary matrices
del_n : C_n -> C_{n-1}; del del = 0 is enforced at construction, by
`product_is_zero`.
`ChainComplex.from_entries` builds one from the nonzero entries
(n, i, j, x) of its boundaries; `tensor_complexes` and every finite cell
structure of spaces.py are built through it.
Homology and cohomology, with Z or Z/m coefficients, read only the
Smith diagonals of two boundaries (`smith_invariants`, no transforms);
cohomology by universal coefficients.

`uct_decompose` checks the universal-coefficient split against the
homology of the dual complex: its torsion and the rank of d^{n-1} are
read off the diagonal of `smith_form` on del_n^T, and the rank of d^n
is `rank` of del_{n+1}^T.  The split, the total's diagonal and its rank
come from three routines that share no code: `smith_invariants`,
`smith_form` and `rank`.

`bockstein` reads the Smith diagonals of three boundaries, del_n,
del_{n+1} and del_{n+2}; a nonzero Bockstein also puts the diagonal
matrix of its domain's cyclic orders in Smith form with transforms
(`smith_normal_form`) and reads the canonical generators off V.  No
request makes a transform elimination of a boundary or builds a
`SubquotientPresentation`, the lattice subquotient (on transform SNFs)
of the tests' cochain oracle.

`homology`, `cohomology`, `uct_decompose` and `bockstein` read a complex
only through rank(n) and boundary(n), so they take a ChainComplex or a
spaces.PeriodicComplex alike: an infinite complex is read at degree n
without being cut or unrolled.  Below degree 0, and above the top
degree of a bounded complex, the ranks are 0 and the boundaries
zero-shaped, which gives the trivial group with no special case.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .abgroup import FgAbGroup, GroupHom
from .errors import SemanticError
from .intlin import (IntMatrix, product_is_zero, rank, smith_form,
                     smith_invariants, smith_normal_form, unimodular_inverse)


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
            if not product_is_zero(boundaries[n - 1], boundaries[n]):
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


class SubquotientPresentation:
    """span(gens) / span(sub) inside Z^ambient, with canonical coordinates.

    gens columns generate a sublattice L, sub columns must lie in L.  The
    quotient is presented as Z^g / (relations among gens + sub expressed in
    gens), put in Smith form, and the canonical generators are tracked back
    to actual ambient vectors so that explicit cocycle representatives and
    coordinates of arbitrary lattice vectors are available.  The sub
    columns are expressed in gens by one solve for all of them.  gens
    and the relations are each eliminated once, with transforms, and
    `generator_matrix` inverts U by `unimodular_inverse`.
    """

    def __init__(self, gens: IntMatrix, sub: IntMatrix):
        if gens.rows != sub.rows:
            raise SemanticError("ambient dimension mismatch")
        self.gens = gens
        self._gens_sf = smith_normal_form(gens)
        g = gens.cols
        y = self._gens_sf.solve_columns(sub)
        if y is None:
            raise SemanticError("subgroup generator outside the lattice")
        self.relations = self._gens_sf.kernel().hstack(y)
        sf = smith_normal_form(self.relations)
        self._u = sf.u
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
        u_inv = unimodular_inverse(self._u)
        return self.gens @ u_inv.submatrix(range(u_inv.rows), self._gen_index)

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
    _, d_out, free = _diagonals(c, n)
    return FgAbGroup(free, tuple(d for d in d_out if d >= 2))


def _diagonals(c, n: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The Smith diagonals of del_n and del_{n+1}, and the rank of H_n."""
    d_in = smith_invariants(c.boundary(n))
    d_out = smith_invariants(c.boundary(n + 1))
    free = c.rank(n) - sum(1 for d in d_in if d) - sum(1 for d in d_out if d)
    return d_in, d_out, free


def cohomology(c, n: int, modulus: int | None = None) -> FgAbGroup:
    """H^n(c; Z) or H^n(c; Z/modulus) from the Smith diagonals a of del_n
    and b of del_{n+1}, by universal coefficients.

    With f the rank of H_n, H^n(c; Z) = Z^f + (the factors >= 2 of a),
    and H^n(c; Z/m) = Hom(H_n, Z/m) + Ext^1(H_{n-1}, Z/m) =
    (Z/m)^f + Z/gcd(b_i, m) + Z/gcd(a_i, m) over the factors >= 2.
    """
    if modulus is not None and modulus < 2:
        raise SemanticError("coefficient modulus must be >= 2")
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
    The diagonal of d^{n-1} comes from `smith_form`'s elimination of
    del_n^T, and the rank of d^n, the only thing the total reads of it,
    from `rank`'s fraction-free elimination of del_{n+1}^T: other
    routines on other matrices, neither of which stores a diagonal on
    its input, so the check compares independent routes.
    """
    d_in, _, free = _diagonals(c, n)
    ext_part = FgAbGroup(0, tuple(d for d in d_in if d >= 2))
    hom_part = FgAbGroup(free)
    return UctDecomposition(degree=n, ext_part=ext_part,
                            hom_part=hom_part, total=_dual_cohomology(c, n))


def _dual_cohomology(c, n: int) -> FgAbGroup:
    """H^n(c; Z) from the `smith_form` diagonal of d^{n-1} = del_n^T,
    with no transform, and the `rank` of d^n = del_{n+1}^T; see
    `uct_decompose`."""
    a = smith_form(c.boundary(n).transpose()).diagonal
    free = (c.rank(n) - sum(1 for d in a if d)
            - rank(c.boundary(n + 1).transpose()))
    return FgAbGroup(free, tuple(d for d in a if d >= 2))


def bockstein(c, n: int, m: int) -> GroupHom:
    """The integral Bockstein beta : H^n(c; Z/m) -> H^{n+1}(c; Z), read
    off the Smith diagonals a of del_n, b of del_{n+1} and e of
    del_{n+2}.

    Whether beta is zero is decided from b.  The coefficient sequence
    0 -> Z -(x m)-> Z -> Z/m -> 0 gives the exact sequence
    H^n(; Z/m) -(beta)-> H^{n+1}(; Z) -(x m)-> H^{n+1}(; Z), so
    im beta = ker(x m) is the m-torsion of H^{n+1}(; Z).  That torsion
    is Ext^1(H_n, Z), whose invariant factors are those >= 2 of b: a
    factor d contributes Z/gcd(d, m) to the m-torsion.  So beta = 0
    exactly when every such d is prime to m, and then it is the zero
    map between the canonical groups.

    Otherwise beta is read off the diagonals.  A bounded complex of
    finitely generated free abelian groups is isomorphic to a direct
    sum of elementary complexes: one Z in degree k for each free
    generator of H_k, and one Z -(d)-> Z in degrees k+1 -> k for each
    nonzero Smith diagonal entry d of del_{k+1}.  Proof, degree by
    degree: the cycles Z_k = ker del_k are a direct summand of C_k,
    because C_k / Z_k embeds in the free C_{k-1}.  So the boundaries
    B_k = im del_{k+1} have the same elementary divisors in Z_k as in
    C_k, the nonzero d_i of del_{k+1}'s diagonal, and Z_k has a basis
    y_j with B_k spanned by the d_i y_i; the y_j past them carry H_k's
    free generators.  B_k is free, so x_i with del x_i = d_i y_i span a
    complement of Z_{k+1} in C_{k+1}, and C_k = Z_k + span(x_i of
    degree k) is the sum of the pieces.  An isomorphism of complexes
    commutes with beta, so beta is the direct sum of the elementary
    Bocksteins:
    - a Z in degree n gives Z/m to the domain, sent to 0, and a Z in
      degree n+1 gives Z to the codomain;
    - Z -(b_i)-> Z in degrees n+1 -> n gives Z/g, g = gcd(b_i, m), to
      the domain, generated by the cochain x = m/g, and Z/b_i to the
      codomain; beta[x] = [b_i x / m] = (b_i / g) times its generator;
    - Z -(a_i)-> Z in degrees n -> n-1 gives Z/gcd(a_i, m) to the
      domain, and nothing in degree n+1, so beta is 0 on it;
    - Z -(e_i)-> Z in degrees n+2 -> n+1 gives nothing to either side:
      its degree-(n+1) cochain is not a cocycle.
    So the codomain is Z^f' + Z/b_i (b_i >= 2), with f' = r_{n+1} -
    rank b - rank e, already in canonical form.  The domain's pieces,
    in the order above and those of order 1 included, give the diagonal
    matrix D of their orders, and U @ D @ V = S moves them to canonical
    generators: a class with piece coordinates x has canonical
    coordinates U x, so the canonical generator of each S_jj >= 2 is
    column j of U^-1, and its image is the piece images times that
    column.  U^-1 needs no second elimination: every order is >= 1, so
    D and S = U D V are nonsingular diagonals, and U D V = S gives
    U^-1 = D V S^-1, whose entry (i, j) is orders[i] * V[i, j] / S_jj,
    an exact quotient since U^-1 is an integer matrix.
    """
    if m < 2:
        raise SemanticError("Bockstein modulus must be >= 2")
    a, b, free = _diagonals(c, n)
    codomain = cohomology(c, n + 1)
    torsion = [d for d in b if d >= 2]
    orders = [m] * free + [gcd(d, m)
                           for d in torsion + [d for d in a if d >= 2]]
    if all(gcd(d, m) == 1 for d in torsion):
        return GroupHom.zero(FgAbGroup.from_cyclic_orders(orders), codomain)
    sf = smith_normal_form(IntMatrix.diagonal(orders))
    s = sf.diagonal
    gens = [j for j, d in enumerate(s) if d >= 2]
    # piece i = free + k, Z/gcd(b_k, m), goes to b_k / gcd(b_k, m) times
    # the generator of Z/b_k, and every other piece to 0; U^-1[i, j] is
    # orders[i] * V[i, j] // S_jj
    images = [[d // orders[i] * (orders[i] * sf.v[i, j] // s[j])
               for j in gens] for i, d in enumerate(torsion, start=free)]
    return GroupHom(FgAbGroup(0, tuple(s[j] for j in gens)),
                    codomain, [[0] * len(gens)] * codomain.free_rank + images)


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

