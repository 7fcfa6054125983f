"""Integer-matrix oracles implemented from scratch for the tests.

Plain Python integers and lists throughout; no oracle calls into the
package, so these can sit on the other side of an equality from the
library's answers.  Three exceptions build package values:
`random_complex`, a generator of test inputs; the cochain-level route
(`cochain_presentation`, `cochain_bockstein`), which runs on the
package's transform eliminations and never reads a Smith diagonal, so
it stays a second route to cohomology and the Bockstein, which the
package reads off Smith diagonals; and `bar_model_k_zn_2`, cells of
K(Z/n, 2) written out here and handed to `ChainComplex`, which checks
del del = 0, as a second route to the catalog's Eilenberg-MacLane facts.
`product_diagonals` reads its factors' Smith diagonals with the
package's `smith_invariants` and `divisibility_chain`, and assembles no
matrix of the product, so it is a second route to the Smith diagonals
of `tensor_complexes`.
"""

from __future__ import annotations

import itertools
from math import comb, gcd, prod
from random import Random

from cwbrauer.abgroup import GroupHom
from cwbrauer.chaincx import ChainComplex, SubquotientPresentation
from cwbrauer.intlin import (IntMatrix, divisibility_chain, kernel_basis,
                             smith_invariants)


def det_oracle(rows: list[list[int]]) -> int:
    """Determinant by Laplace expansion over column subsets (exact)."""
    n = len(rows)
    if n == 0:
        return 1
    memo = {0: 1}  # bitmask of used columns -> minor over the first popcount rows

    def minor(used: int) -> int:
        if used in memo:
            return memo[used]
        r = bin(used).count("1") - 1
        total = 0
        sign = -1 if r % 2 else 1  # expanding along row r of the submatrix
        for c in range(n):
            if used >> c & 1:
                if rows[r][c]:
                    total += sign * rows[r][c] * minor(used & ~(1 << c))
                sign = -sign
        memo[used] = total
        return total

    return minor((1 << n) - 1)


def hermite_columns(rows: list[list[int]]):
    """Column Hermite reduction by integer column operations.

    Returns (h, pivots) where h is column-equivalent to the input and
    pivots lists (row, col) positions of the staircase: each pivot
    column has a positive leading entry in its pivot row and all later
    columns vanish there.  Only gcd steps on columns are used, so the
    column span (the lattice generated by the columns) is unchanged.
    """
    h = [list(r) for r in rows]
    n_rows = len(h)
    n_cols = len(h[0]) if n_rows else 0
    pivots = []
    t = 0
    for r in range(n_rows):
        if t >= n_cols:
            break
        while True:
            live = [j for j in range(t, n_cols) if h[r][j]]
            if not live:
                break
            j0 = min(live, key=lambda j: abs(h[r][j]))
            if j0 != t:
                for i in range(n_rows):
                    h[i][t], h[i][j0] = h[i][j0], h[i][t]
            done = True
            for j in range(t + 1, n_cols):
                q = h[r][j] // h[r][t]
                if q:
                    for i in range(n_rows):
                        h[i][j] -= q * h[i][t]
                if h[r][j]:
                    done = False
            if done:
                break
        if h[r][t]:
            if h[r][t] < 0:
                for i in range(n_rows):
                    h[i][t] = -h[i][t]
            pivots.append((r, t))
            t += 1
    return h, pivots


def lattice_membership(rows, vec) -> bool:
    """Is vec in the integer column span of the matrix?  Decided by
    forward substitution along the Hermite staircase."""
    h, pivots = hermite_columns(rows)
    v = list(vec)
    for r, c in pivots:
        if v[r] % h[r][c]:
            return False
        q = v[r] // h[r][c]
        if q:
            for i in range(len(v)):
                v[i] -= q * h[i][c]
    return all(x == 0 for x in v)


def cokernel_order_oracle(rows) -> int | None:
    """|Z^rows / column span|: product of Hermite pivots when every row
    has a pivot, infinite (None) otherwise."""
    h, pivots = hermite_columns(rows)
    if len(pivots) < len(rows):
        return None
    return prod(h[r][c] for r, c in pivots)


def rank_oracle(rows) -> int:
    return len(hermite_columns(rows)[1])


def rank_mod_p(rows, p: int) -> int:
    """Rank over the field with p elements by Gaussian elimination."""
    m = [[x % p for x in r] for r in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    rank = 0
    for c in range(n_cols):
        pivot = next((i for i in range(rank, n_rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], -1, p)
        m[rank] = [(x * inv) % p for x in m[rank]]
        for i in range(n_rows):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def smith_diag_oracle(rows) -> list[int]:
    """Nonzero elementary divisors, in chain order, by gcd-style row and
    column reduction.  Diagonal only -- no transform bookkeeping, so it
    shares nothing with the package's implementation."""
    m = [list(r) for r in rows]
    out = []
    while m and m[0]:
        live = [(i, j) for i, r in enumerate(m) for j, x in enumerate(r) if x]
        if not live:
            break
        # move a minimal nonzero entry to (0, 0); re-picked every sweep
        # so remainders immediately become the next pivot and the
        # intermediate entries stay small
        i0, j0 = min(live, key=lambda ij: abs(m[ij[0]][ij[1]]))
        m[0], m[i0] = m[i0], m[0]
        for r in m:
            r[0], r[j0] = r[j0], r[0]
        p = m[0][0]
        dirty = False
        for i in range(1, len(m)):
            if m[i][0]:
                q = m[i][0] // p
                m[i] = [x - q * y for x, y in zip(m[i], m[0])]
                dirty |= m[i][0] != 0
        for j in range(1, len(m[0])):
            if m[0][j]:
                q = m[0][j] // p
                for r in m:
                    r[j] -= q * r[0]
                dirty |= m[0][j] != 0
        if dirty:  # some remainder survived; it is smaller, so re-pivot
            continue
        # the pivot must divide every remaining entry; if some entry
        # resists, fold its row into row 0 and keep reducing
        d = abs(p)
        offender = next((i for i in range(1, len(m))
                         for j in range(1, len(m[0])) if m[i][j] % d), None)
        if offender is None:
            # each later pivot is a multiple of d, so `out` is a chain
            out.append(d)
            m = [r[1:] for r in m[1:]]
        else:
            m[0] = [x + y for x, y in zip(m[0], m[offender])]
    return out


def determinantal_divisor_oracle(rows) -> list[int]:
    """Nonzero elementary divisors via gcds of k x k minors:
    d_1 * ... * d_k equals the gcd of all k x k minors.  Exponential in
    the matrix size, so callers keep the inputs small."""
    n_rows, n_cols = len(rows), len(rows[0]) if rows else 0
    out = []
    prev = 1
    for k in range(1, min(n_rows, n_cols) + 1):
        g = 0
        for rset in itertools.combinations(range(n_rows), k):
            for cset in itertools.combinations(range(n_cols), k):
                g = gcd(g, det_oracle([[rows[i][c] for c in cset]
                                       for i in rset]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def homology_oracle(ranks, boundary_lists, n: int) -> tuple[int, list[int]]:
    """(free rank, torsion factors > 1) of H_n from first principles:

    the kernel of del_n is a saturated sublattice of C_n, so H_n has free
    rank  rank C_n - rank del_n - rank del_{n+1}  and its torsion equals
    the torsion of C_n / im del_{n+1}, i.e. the elementary divisors of
    del_{n+1} that exceed 1.  Ranks and divisors come from the oracles
    above, not from the package.
    """
    top = len(ranks) - 1
    if n < 0 or n > top:
        return 0, []

    def boundary(k):
        if 1 <= k <= top:
            return boundary_lists[k - 1]
        rows = ranks[k - 1] if k - 1 <= top and k >= 1 else 0
        cols = ranks[k] if 0 <= k <= top else 0
        return [[0] * cols for _ in range(rows)]

    r_in = rank_oracle(boundary(n)) if n >= 1 else 0
    d_out = boundary(n + 1)
    r_out = rank_oracle(d_out) if n + 1 <= top else 0
    free = ranks[n] - r_in - r_out
    torsion = [d for d in smith_diag_oracle(d_out) if d > 1] if n + 1 <= top else []
    return free, sorted(torsion)


def draw_eventually_periodic(rng, item, link):
    """Seeded data for a prefix of p items and a block of m items, with
    links x_i -> x_{i-1}, and what was done to it: "valid" data, or one
    count, one link or the seam corrupted.

    item(rng) draws an item and link(rng, x, y) a link from x to y.
    Valid data lets block link i go from block[i] to block[i - 1 mod m],
    prefix link i from prefix[i + 1] to prefix[i], and ends a nonempty
    prefix on the last block item.  Returns (kind, prefix, prefix_links,
    block, block_links) as tuples.
    """
    def other(x):
        while (y := item(rng)) == x:
            pass
        return y

    m = rng.randint(1, 3)
    block = [item(rng) for _ in range(m)]
    prefix = []
    if rng.random() < 0.6:
        prefix = [item(rng) for _ in range(rng.randint(0, 2))] + [block[-1]]
    kind = rng.choice(("valid", "count", "link", "seam"))
    if kind == "seam":
        prefix = (prefix or [block[-1]])[:-1] + [other(block[-1])]
    # (source, target) of each link
    ends = {"prefix": [(prefix[i + 1], prefix[i])
                       for i in range(len(prefix) - 1)],
            "block": [(block[i], block[i - 1]) for i in range(m)]}
    if kind == "link":
        part = rng.choice([k for k, v in ends.items() if v])
        i = rng.randrange(len(ends[part]))
        src, dst = ends[part][i]
        ends[part][i] = ((other(src), dst) if rng.random() < 0.5
                         else (src, other(dst)))
    links = {k: [link(rng, x, y) for x, y in v] for k, v in ends.items()}
    if kind == "count":
        part = rng.choice(("empty block", "block", "prefix"))
        if part == "empty block":
            block, links["block"] = [], []
        elif links[part] and rng.random() < 0.5:
            links[part].pop()
        else:
            links[part].append(links["block"][0])
    return (kind, tuple(prefix), tuple(links["prefix"]), tuple(block),
            tuple(links["block"]))


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


def cochain_presentation(c, n: int, modulus: int | None
                         ) -> SubquotientPresentation:
    """H^n(c) with Z or Z/modulus coefficients as a subquotient of the
    cochains C^n: cocycles over coboundaries.  With Z/m the cocycles are
    the x-projections of ker [d^n | mI], and the coboundaries include
    m C^n."""
    d_in = c.boundary(n).transpose()        # d^{n-1}: C^{n-1} -> C^n
    d_out = c.boundary(n + 1).transpose()   # d^n: C^n -> C^{n+1}
    if modulus is None:
        return SubquotientPresentation(kernel_basis(d_out), d_in)
    m, rn = modulus, c.rank(n)
    ker = kernel_basis(d_out.hstack(IntMatrix.diagonal([m] * d_out.rows)))
    gens = ker.submatrix(range(rn), range(ker.cols))
    return SubquotientPresentation(
        gens, d_in.hstack(IntMatrix.diagonal([m] * rn)))


def cochain_bockstein(c, n: int, m: int) -> GroupHom:
    """beta : H^n(c; Z/m) -> H^{n+1}(c; Z) at the cochain level: each
    canonical generator of the domain, a mod-m cocycle, is lifted to an
    integer cochain x, and beta[x] = [d x / m] is read in the
    coordinates of H^{n+1}."""
    dom = cochain_presentation(c, n, m)
    cod = cochain_presentation(c, n + 1, None)
    gens = dom.generator_matrix()
    dx = (c.boundary(n + 1).transpose() @ gens).to_lists()
    assert not any(x % m for row in dx for x in row), (n, m)
    lifted = IntMatrix([[x // m for x in row] for row in dx], cols=gens.cols)
    return GroupHom(dom.group, cod.group, cod.column_coordinates(lifted))


def bar_model_k_zn_2(n: int, top: int) -> ChainComplex:
    """Degrees 0..top of the bar construction B(A) of the divided-power
    algebra A = Λ(x) ⊗ Γ(y), |x| = 1, |y| = 2, with d γ_k = n·xγ_{k-1}
    and d(xγ_k) = 0.

    A has basis γ_k in degree 2k and xγ_k in degree 2k + 1, products
    γ_iγ_j = C(i+j, i)·γ_{i+j} and x² = 0, and H(A) = H_*(K(Z/n, 1)): it
    is the divided-power model of the chains on K(Z/n, 1) (Cartan,
    Séminaire H. Cartan 7, 1954-55).  So B(A) has homology
    Tor^A(Z, Z) = H_*(K(Z/n, 2)) (Eilenberg-Mac Lane, "On the groups
    H(Π, n), I", 1953).  The tests are the evidence for both claims.

    A cell of degree q is a word [a_1|...|a_k] of basis letters of
    positive degree with Σ(|a_i| + 1) = q, one per composition of q into
    parts >= 2, so degree q has F_{q-1} cells (a Fibonacci number).  A
    letter is stored as its degree p: γ_{p/2} for even p, xγ_{(p-1)/2}
    for odd p.  The differential applies d to one letter, with sign
    -(-1)^{ε_{i-1}}, or multiplies two neighbours, with sign (-1)^{ε_i},
    where ε_i = Σ_{j<=i}(|a_j| + 1); `ChainComplex` checks del del = 0,
    which tests the signs.
    """
    words = [[()]] + [[] for _ in range(top)]
    for q in range(2, top + 1):
        words[q] = [(s - 1, *rest) for s in range(2, q + 1)
                    for rest in words[q - s]]
    index = [{w: i for i, w in enumerate(ws)} for ws in words]
    entries = {}

    def add(q, w, j, x):
        key = (q, index[q - 1][w], j)
        entries[key] = entries.get(key, 0) + x

    for q in range(2, top + 1):
        for j, w in enumerate(words[q]):
            eps = 0
            for i, p in enumerate(w):
                if p % 2 == 0:              # d γ_k = n xγ_{k-1}
                    add(q, (*w[:i], p - 1, *w[i + 1:]), j, -(-1) ** eps * n)
                eps += p + 1
                if i + 1 < len(w) and not (p % 2 and w[i + 1] % 2):
                    r = w[i + 1]            # x² = 0 leaves odd pairs out
                    add(q, (*w[:i], p + r, *w[i + 2:]), j,
                        (-1) ** eps * comb(p // 2 + r // 2, p // 2))
    return ChainComplex.from_entries(
        [len(ws) for ws in words],
        [(q, i, j, x) for (q, i, j), x in entries.items() if x])


def _pieces(c) -> tuple[list[int], list[list[int]]]:
    """free[k] and arrows[k] for k = 0..top: the rank of H_k, and the
    nonzero entries, units included, of the Smith diagonal of del_{k+1}."""
    top = len(c.ranks) - 1
    diag = [[x for x in smith_invariants(c.boundary(n)) if x]
            for n in range(top + 2)]
    free = [c.rank(k) - len(diag[k]) - len(diag[k + 1])
            for k in range(top + 1)]
    return free, diag[1:]


def product_diagonals(c, d) -> list[tuple[int, ...]]:
    """The Smith diagonals of del_1 .. del_top of `tensor_complexes(c, d)`,
    read off the factors' pieces with no elimination of the product.

    A bounded complex of finitely generated free abelian groups is a
    direct sum of pieces: Z in degree k for each free generator of H_k,
    and Z -d-> Z in degrees k+1 -> k, written (Z -d-> Z)[k], for each
    nonzero entry d of the Smith diagonal of del_{k+1}.  The tensor
    product of two pieces is again a sum of pieces:
      Z[p] (x) Z[q] = Z[p+q];
      Z[p] (x) (Z -e-> Z)[q] = (Z -e-> Z)[p+q], and symmetrically;
      (Z -d-> Z)[p] (x) (Z -e-> Z)[q] is Z -> Z^2 -> Z with boundaries
      (d, +-e)^T and (+-e, -+d), each of Smith diagonal (g), g = gcd(d, e),
      with no free part in the middle: (Z -g-> Z)[p+q+1] + (Z -g-> Z)[p+q].
    So del_n of the product has as Smith diagonal the divisibility chain
    of the entries of its pieces (Z -x-> Z)[n-1], padded with zeros to
    min(rows, cols).
    """
    fc, ac = _pieces(c)
    fd, ad = _pieces(d)
    ranks = [0] * (len(c.ranks) + len(d.ranks) - 1)
    for p, a in enumerate(c.ranks):
        for q, b in enumerate(d.ranks):
            ranks[p + q] += a * b
    arrows = [[] for _ in ranks]
    for p, (free_p, xs) in enumerate(zip(fc, ac)):
        for q, (free_q, es) in enumerate(zip(fd, ad)):
            arrows[p + q] += es * free_p + xs * free_q
            for x in xs:
                for e in es:
                    g = gcd(x, e)
                    arrows[p + q].append(g)
                    arrows[p + q + 1].append(g)
    return [tuple(divisibility_chain(arrows[n - 1]))
            + (0,) * (min(ranks[n - 1], ranks[n]) - len(arrows[n - 1]))
            for n in range(1, len(ranks))]
