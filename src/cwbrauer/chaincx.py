"""Bounded chain complexes of finitely generated free Z-modules.

A complex stores one rank per degree 0..top and the boundary matrices
del_n : C_n -> C_{n-1}; del del = 0 is enforced at construction.  All
homology and cohomology is computed exactly through Smith normal form.

Cohomology with Z/m coefficients is computed directly on the mod-m
cochain complex (not through universal coefficients): the mod-m cocycle
lattice L = {x : d x = 0 mod m} is the projection of the integer kernel
of [d | mI], and H^n = L / (im d + m Z^{r_n}).  Keeping the computation
at the cochain level is what lets `bockstein` return an explicit map on
canonical generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from random import Random

from .abgroup import FgAbGroup, GroupHom, ext1, hom
from .errors import SemanticError
from .intlin import (IntMatrix, kernel_basis, smith_normal_form,
                     solve_integral, unimodular_inverse)


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
        for n in range(1, len(ranks) - 1):
            prod = boundaries[n - 1] @ boundaries[n]
            if not prod.is_zero():
                raise SemanticError(f"del_{n} del_{n + 1} != 0")
        self.ranks = ranks
        self.boundaries = boundaries

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
    coordinates of arbitrary lattice vectors are available.
    """

    def __init__(self, gens: IntMatrix, sub: IntMatrix):
        if gens.rows != sub.rows:
            raise SemanticError("ambient dimension mismatch")
        self.ambient_dim = gens.rows
        self.gens = gens
        g = gens.cols
        rel = kernel_basis(gens)
        ycols = []
        for j in range(sub.cols):
            y = solve_integral(gens, sub.col_tuple(j))
            if y is None:
                raise SemanticError("subgroup generator outside the lattice")
            ycols.append(y)
        self.relations = IntMatrix(
            [rel.row_tuple(i) + tuple(y[i] for y in ycols) for i in range(g)],
            cols=rel.cols + len(ycols))
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

    def generator_vectors(self) -> list[tuple[int, ...]]:
        """Ambient representatives of the canonical generators."""
        uinv = unimodular_inverse(self._u)
        return [self.gens @ uinv.col_tuple(i) for i in self._gen_index]

    def coordinates(self, vec) -> tuple[int, ...]:
        """Class of an ambient vector (must lie in span(gens))."""
        y = solve_integral(self.gens, vec)
        if y is None:
            raise SemanticError("vector is not in the presented lattice")
        w = self._u @ list(y)
        coords = []
        for i in self._gen_index:
            d = self._diag[i]
            coords.append(w[i] % d if d else w[i])
        return tuple(coords)


def homology(c: ChainComplex, n: int) -> FgAbGroup:
    """H_n(c) = ker del_n / im del_{n+1} in canonical form."""
    if n < 0 or n > c.top_degree:
        return FgAbGroup.trivial()
    pres = SubquotientPresentation(kernel_basis(c.boundary(n)),
                                   c.boundary(n + 1))
    return pres.group


def _cochain_presentation(c: ChainComplex, n: int,
                          modulus: int | None) -> SubquotientPresentation:
    """Presentation of H^n with Z or Z/modulus coefficients."""
    rn = c.rank(n)
    d_in = c.boundary(n).transpose()        # d^{n-1}: C^{n-1} -> C^n
    d_out = c.boundary(n + 1).transpose()   # d^n: C^n -> C^{n+1}
    if modulus is None:
        return SubquotientPresentation(kernel_basis(d_out), d_in)
    m = modulus
    if d_out.rows:
        # mod-m cocycles: x-projections of ker [d^n | mI]
        ker = kernel_basis(d_out.hstack(IntMatrix.diagonal([m] * d_out.rows)))
        gens = ker.submatrix(range(rn), range(ker.cols))
    else:
        gens = IntMatrix.identity(rn)
    sub = d_in.hstack(IntMatrix.diagonal([m] * rn))
    return SubquotientPresentation(gens, sub)


def cohomology(c: ChainComplex, n: int, modulus: int | None = None) -> FgAbGroup:
    """H^n(c; Z) or H^n(c; Z/modulus), computed on the dual complex."""
    if modulus is not None and modulus < 2:
        raise SemanticError("coefficient modulus must be >= 2")
    if n < 0 or n > c.top_degree:
        return FgAbGroup.trivial()
    return _cochain_presentation(c, n, modulus).group


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


def uct_decompose(c: ChainComplex, n: int) -> UctDecomposition:
    """Split H^n(c; Z) via universal coefficients and check it against the
    directly computed cohomology."""
    from .abgroup import Z
    ext_part = ext1(homology(c, n - 1), Z)
    hom_part = hom(homology(c, n), Z)
    total = cohomology(c, n)
    return UctDecomposition(degree=n, ext_part=ext_part,
                            hom_part=hom_part, total=total)


def bockstein(c: ChainComplex, n: int, m: int) -> GroupHom:
    """The integral Bockstein beta : H^n(c; Z/m) -> H^{n+1}(c; Z).

    Computed at the cochain level: lift a mod-m cocycle to an integer
    cochain x, then beta[x] = [d x / m].  The returned GroupHom acts on
    the canonical generators of both groups.
    """
    if m < 2:
        raise SemanticError("Bockstein modulus must be >= 2")
    dom = _cochain_presentation(c, n, m)
    cod = _cochain_presentation(c, n + 1, None)
    d_out = c.boundary(n + 1).transpose()
    cols = []
    for x in dom.generator_vectors():
        u = d_out @ list(x)
        lifted = []
        for entry in u:
            if entry % m != 0:
                raise SemanticError("generator is not a mod-m cocycle")
            lifted.append(entry // m)
        cols.append(cod.coordinates(lifted))
    rows = len(cod.group.cyclic_orders())
    a = [[col[i] for col in cols] for i in range(rows)]
    return GroupHom(dom.group, cod.group, IntMatrix(a, cols=len(cols)))


def tensor_complexes(c: ChainComplex, d: ChainComplex) -> ChainComplex:
    """Tensor product complex with the Koszul sign.

    (c tensor d)_n = sum over p+q=n of C_p tensor D_q, and
    del(x tensor y) = del x tensor y + (-1)^p x tensor del y.
    Basis order in degree n: blocks by ascending p, row-major inside.
    """
    top = c.top_degree + d.top_degree
    ranks = [sum(c.rank(p) * d.rank(n - p) for p in range(n + 1))
             for n in range(top + 1)]

    def offsets(n):  # where the block C_p (x) D_{n-p} starts, for each p
        return list(accumulate(
            (c.rank(p) * d.rank(n - p) for p in range(n + 1)), initial=0))

    boundaries = []
    for n in range(1, top + 1):
        a = [[0] * ranks[n] for _ in range(ranks[n - 1])]
        src = offsets(n)
        dst = offsets(n - 1)
        for p in range(n + 1):
            q = n - p
            rc, rd = c.rank(p), d.rank(q)
            if rc == 0 or rd == 0:
                continue
            col0 = src[p]
            if p >= 1 and c.rank(p - 1):
                # del x (x) y: the block kron(del_p, I_rd)
                r0 = dst[p - 1]
                for i, brow in enumerate(c.boundary(p).to_lists()):
                    for j, x in enumerate(brow):
                        if x:
                            for k in range(rd):
                                a[r0 + i * rd + k][col0 + j * rd + k] = x
            if q >= 1 and d.rank(q - 1):
                # (-1)^p x (x) del y: the block sign * kron(I_rc, del_q)
                sign = -1 if p % 2 else 1
                dq = [[sign * x for x in brow]
                      for brow in d.boundary(q).to_lists()]
                rq = len(dq)
                for i in range(rc):
                    r0 = dst[p] + i * rq
                    c0 = col0 + i * rd
                    for k, brow in enumerate(dq):
                        a[r0 + k][c0:c0 + rd] = brow
        boundaries.append(IntMatrix(a, cols=ranks[n]))
    return ChainComplex(ranks, boundaries)


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
