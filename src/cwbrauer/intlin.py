"""Exact linear algebra over the integers.

Everything here works with arbitrary-precision Python ints; nothing is
ever converted to floats.  An `IntMatrix` stores its entries as a tuple
of row tuples of ints together with its column count, and this module
is the only one that relies on that layout.

There are two Smith eliminations, and transforms are built only on
demand.  `smith_invariants` returns the diagonal of the Smith normal
form alone, a divisibility chain d1 | d2 | ... | dk followed by zeros;
homology, cohomology, cokernels and traced diagonals read nothing else,
and a matrix keeps that diagonal, so a later reader such as a `--trace`
line does not eliminate it again.  When the shape decides the diagonal, it
is read off with no elimination: it is empty when there are no rows or
no columns, and the gcd of the entries when there is one row or one
column.  `smith_form` takes no such shortcut, so it stays an
independent route to the same diagonal.  It has two modes.  Without
transforms it eliminates A alone and returns the diagonal and S, as
the uct check's independent route reads them.  With transforms it
finds U @ A @ V = S, U and V unimodular, by eliminating one working
matrix, A extended by the identity on the right and below, so U and V
are read off as blocks of the result; `smith_normal_form` is that mode.
`SmithForm.solve_columns` solves for all right-hand sides of a system at
once, as the columns of one matrix B, with one product U @ B and one
product V @ Y; `solve_integral` is its one-column case.

Two fraction-free routines share no code with the Smith eliminations:
`rank` eliminates primitive rows, Bareiss style, for the rank over Q
that the uct check reads, and Bareiss `determinant` is an independent
reference.  `product_is_zero` decides a @ b = 0, the check of
del del = 0, from one product of a with a vector of packed ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd
from operator import add, mul

from .errors import SemanticError


class IntMatrix:
    """Immutable integer matrix.

    The entries are a tuple of row tuples of Python ints; the column
    count is stored beside them, so shapes with zero rows (0 x k) or
    zero columns are legal and behave like the corresponding empty
    maps.  Supports @, ==, hashing, transpose, and row/column access.

    `entries` is a sequence of rows; each entry is passed through int().
    `cols` gives the column count, which a list with no rows cannot
    carry; when it is omitted it is read from the first row.
    """

    # _diagonal stays unset until smith_invariants computes it
    __slots__ = ("_rows", "_cols", "_diagonal")

    def __init__(self, entries, cols: int | None = None):
        rows = tuple(tuple(map(int, r)) for r in entries)
        if cols is None:
            cols = len(rows[0]) if rows else 0
        if any(len(r) != cols for r in rows):
            raise SemanticError("ragged matrix literal")
        self._rows = rows
        self._cols = cols

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _of(cls, rows: tuple, cols: int) -> "IntMatrix":
        """Wrap row tuples of ints, each of length cols, unchecked."""
        m = cls.__new__(cls)
        m._rows = rows
        m._cols = cols
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls._of(((0,) * cols,) * rows, cols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.diagonal([1] * n)

    @classmethod
    def diagonal(cls, entries) -> "IntMatrix":
        entries = [int(x) for x in entries]
        n = len(entries)
        return cls._of(tuple(tuple(x if i == j else 0 for j in range(n))
                             for i, x in enumerate(entries)), n)

    # -- basic accessors ------------------------------------------------------

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def shape(self) -> tuple[int, int]:
        return len(self._rows), self._cols

    def __getitem__(self, ij):
        i, j = ij
        return self._rows[i][j]

    def row_tuple(self, i: int) -> tuple[int, ...]:
        return self._rows[i]

    def col_tuple(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self._rows)

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self._rows]

    def nonzeros(self) -> list[tuple[int, int, int]]:
        """(i, j, x) for each nonzero entry x at (i, j), row by row."""
        return [(i, j, x) for i, r in enumerate(self._rows)
                for j, x in enumerate(r) if x]

    # -- algebra ---------------------------------------------------------------

    def __matmul__(self, other):
        if isinstance(other, IntMatrix):
            if self._cols != len(other._rows):
                raise SemanticError(
                    f"shape mismatch in product: {self.shape} @ {other.shape}")
            # row i of the product combines the rows of `other` picked
            # out by the nonzero entries of row i: boundaries are sparse
            zero = (0,) * other._cols
            out = []
            for r in self._rows:
                terms = [map(a.__mul__, b) for a, b in zip(r, other._rows) if a]
                out.append(tuple(map(sum, zip(*terms))) if terms else zero)
            return IntMatrix._of(tuple(out), other._cols)
        # vector (sequence of ints) -> tuple
        vec = [int(x) for x in other]
        if self._cols != len(vec):
            raise SemanticError("shape mismatch in matrix-vector product")
        return tuple(sum(map(mul, r, vec)) for r in self._rows)

    def transpose(self) -> "IntMatrix":
        cols = tuple(zip(*self._rows)) if self._rows else ((),) * self._cols
        return IntMatrix._of(cols, len(self._rows))

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if len(self._rows) != len(other._rows):
            raise SemanticError("hstack row mismatch")
        return IntMatrix._of(tuple(map(add, self._rows, other._rows)),
                             self._cols + other._cols)

    def submatrix(self, row_idx, col_idx) -> "IntMatrix":
        col_idx = list(col_idx)
        return IntMatrix._of(
            tuple(tuple(self._rows[i][j] for j in col_idx) for i in row_idx),
            len(col_idx))

    def is_zero(self) -> bool:
        return not any(map(any, self._rows))

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self._cols == other._cols and self._rows == other._rows

    def __hash__(self):
        return hash((self._cols, self._rows))

    def __repr__(self):
        return f"IntMatrix({self.to_lists()!r})"


@dataclass(frozen=True)
class SmithForm:
    """Result of `smith_form`: u @ a @ v = s.

    diagonal holds min(rows, cols) nonnegative integers with the nonzero
    entries first, each dividing the next, then zeros.  rank is the count
    of nonzero diagonal entries.  u and v are None unless `smith_form`
    was asked for transforms; `kernel` and `solve_columns` need them.
    """

    u: IntMatrix | None
    s: IntMatrix
    v: IntMatrix | None
    diagonal: tuple[int, ...]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)

    def kernel(self) -> IntMatrix:
        """Basis of {x : a @ x = 0} as the columns of a cols x nullity
        matrix: the trailing columns of V.  The kernel is saturated, so
        every integer kernel vector is an integer combination of them."""
        cols = self.v.rows
        return self.v.submatrix(range(cols), range(self.rank, cols))

    def solve_columns(self, b: IntMatrix) -> IntMatrix | None:
        """Some integer X with a @ X = b, or None when a column of b has
        no integer solution.

        a = U^-1 S V^-1, so a @ X = b is S Y = C with C = U @ b and
        X = V @ Y: one product each way.  Row i of C must be divisible by
        the i-th diagonal entry (zero where that entry is zero), and row i
        of Y is row i of C divided by it; the rows of Y past the rank are
        zero, so only the first rank columns of V enter X.
        """
        rows, cols = self.u.rows, self.v.rows
        if b.rows != rows:
            raise SemanticError(
                f"solve_integral: got {b.rows} entries for {rows} equations")
        c = (self.u @ b)._rows
        y = []
        for i, row in enumerate(c):
            d = self.diagonal[i] if i < len(self.diagonal) else 0
            if not d:
                if any(row):
                    return None
            elif d == 1:
                y.append(row)
            elif any(x % d for x in row):
                return None
            else:
                y.append(tuple(x // d for x in row))
        v = self.v if len(y) == cols else self.v.submatrix(range(cols),
                                                            range(len(y)))
        return v @ IntMatrix._of(tuple(y), b.cols)


_INF = float("inf")   # above every int, so the first nonzero entry wins


def _pivot(S, t, rows, cols):
    """Position of a nonzero entry of minimal absolute value in S[t:, t:]:
    the first in row-major order, so the scan stops at the first unit."""
    best = _INF
    best_pos = None
    for i in range(t, rows):
        r = S[i]
        for j in range(t, cols):
            x = r[j]
            if x and abs(x) < best:
                best = abs(x)
                best_pos = (i, j)
                if best == 1:
                    return best_pos
    return best_pos


def smith_normal_form(a: IntMatrix | list) -> SmithForm:
    """Smith normal form with both transforms U and V: `smith_form`
    asked for transforms."""
    return smith_form(a, transforms=True)


def smith_form(a: IntMatrix | list, *, transforms: bool = False
               ) -> SmithForm:
    """Smith normal form u @ a @ v = s.  Without transforms, u and v are
    None and only a is eliminated; with them, both are built.  The
    diagonal is never stored on a, so `smith_invariants` stays a
    separate elimination.

    Strategy: repeatedly move a nonzero entry of minimal absolute value
    to the working diagonal slot, then clear its row and column by
    division-with-remainder; when a remainder survives it becomes the
    new (smaller) pivot, so the loop terminates.  Once row and column
    are clear, any entry of the remaining submatrix not divisible by the
    pivot gets its row added to the pivot row and the clearing restarts;
    that enforces the divisibility chain.

    With transforms one matrix S is eliminated: [a | I] (I rows x rows)
    with the rows of I (cols x cols) below.  Pivots and searches read
    the a block alone, so row operations carry U, column operations
    carry V, and both modes make the same operations on a.
    """
    if not isinstance(a, IntMatrix):
        a = IntMatrix(a)
    rows, cols = a.rows, a.cols
    S = a.to_lists()
    if transforms:
        for i, r in enumerate(S):   # [a | I] ...
            r += [0] * rows
            r[cols + i] = 1
        for j in range(cols):       # ... over I
            S.append([0] * cols)
            S[-1][j] = 1

    def row_op(i, k, q):  # row i -= q * row k
        S[i] = [x - q * y for x, y in zip(S[i], S[k])]

    # both swaps skip a swap of a line with itself
    def swap_rows(i, k):
        if i != k:
            S[i], S[k] = S[k], S[i]

    def swap_cols(j, k):
        if j != k:
            for r in S:
                r[j], r[k] = r[k], r[j]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        pos = _pivot(S, t, rows, cols)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            # clear column t below and row t to the right, smallest-first
            dirty = False
            for i in range(t + 1, rows):
                if S[i][t] != 0:
                    q = S[i][t] // S[t][t]
                    if q:
                        row_op(i, t, q)
                    if S[i][t] != 0:
                        dirty = True
            # "col j -= q * col t" changes no entry of column t, so the
            # rows of S that meet it, V's among them, are collected once
            # per sweep; a zero q changes nothing and is skipped
            p = S[t]
            hits = [r for r in S if r[t]]
            for j in range(t + 1, cols):
                if p[j] != 0:
                    q = p[j] // p[t]
                    if q:
                        for r in hits:
                            r[j] -= q * r[t]
                    if p[j] != 0:
                        dirty = True
            if dirty:
                pos = _pivot(S, t, rows, cols)
                swap_rows(t, pos[0])
                swap_cols(t, pos[1])
                continue
            # row and column are clear; enforce divisibility into the rest
            # (which a unit pivot divides already)
            d = S[t][t]
            if d in (1, -1):
                break
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if S[i][j] % d != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, -1)  # add offending row to pivot row
        t += 1

    # normalize signs
    for i in range(limit):
        if S[i][i] < 0:
            S[i] = [-x for x in S[i]]

    # the blocks of S: a's rows hold s, then u; the rows below hold v
    top = S[:rows]
    s = IntMatrix._of(tuple(tuple(r[:cols]) for r in top), cols)
    diagonal = tuple(S[i][i] for i in range(limit))
    if not transforms:
        return SmithForm(None, s, None, diagonal)
    return SmithForm(IntMatrix._of(tuple(tuple(r[cols:]) for r in top), rows),
                     s, IntMatrix._of(tuple(map(tuple, S[rows:])), cols),
                     diagonal)


def smith_invariants(a: IntMatrix | list) -> tuple[int, ...]:
    """The diagonal of `smith_normal_form(a)`, computed without U or V.

    min(rows, cols) entries: the nonzero invariant factors as a
    divisibility chain, then zeros.  Elimination pivots on an entry of
    least absolute value and clears its column by row operations; once
    the column is clear, column operations only change the pivot row,
    so they reduce it modulo the pivot.  When both are clear the pivot
    row and column are dropped, as is every row that becomes zero.  The
    pivots then diagonalize a, and `divisibility_chain` turns them into
    the chain.  No elimination runs when the shape decides the diagonal:
    () when a has no rows or no columns, (gcd of its entries,) when it
    has one row or one column.  The result is kept on a, and later calls
    return it.
    """
    if not isinstance(a, IntMatrix):
        a = IntMatrix(a)
    try:
        return a._diagonal
    except AttributeError:
        a._diagonal = _smith_diagonal(a)
    return a._diagonal


def _smith_diagonal(a: IntMatrix) -> tuple[int, ...]:
    """The elimination behind `smith_invariants`, skipped when the shape
    decides the diagonal."""
    rows = a._rows
    limit = min(len(rows), a._cols)
    if limit == 0:
        return ()
    if limit == 1:  # one row or one column: the gcd of its entries
        return (gcd(*rows[0]) if len(rows) == 1 else
                gcd(*[r[0] for r in rows]),)
    live = [list(r) for r in rows if any(r)]
    pivots = []
    while live:
        # an entry of least absolute value, stopping at the first unit
        best = None
        for i, r in enumerate(live):
            m = min(map(abs, filter(None, r)))
            if best is None or m < best:
                best, pi = m, i
                if m == 1:
                    break
        p = live[pi]
        pj = next(j for j, u in enumerate(p) if abs(u) == best)
        while True:
            x = p[pj]
            # clear column pj below and above the pivot by row operations
            small = None
            for i, r in enumerate(live):
                if i != pi and r[pj]:
                    q = r[pj] // x
                    r = live[i] = [u - q * v for u, v in zip(r, p)]
                    if r[pj] and (small is None or abs(r[pj]) < small[0]):
                        small = (abs(r[pj]), i)
            if small is not None:  # a remainder survived: it pivots next
                pi = small[1]
                p = live[pi]
                continue
            # the column is clear, so column operations touch row pi only
            for j, u in enumerate(p):
                if u and j != pj:
                    p[j] = u % x
            rest = [(abs(u), j) for j, u in enumerate(p) if u and j != pj]
            if not rest:
                break
            pj = min(rest)[1]  # the least remainder pivots next
        pivots.append(abs(x))
        del live[pi]
        kept = []
        for r in live:
            del r[pj]
            if any(r):
                kept.append(r)
        live = kept
    # diag(pivots) has the invariant factors of a; order them as a chain
    return tuple(divisibility_chain(pivots)) + (0,) * (limit - len(pivots))


def divisibility_chain(orders) -> list[int]:
    """Z/a_1 + ... + Z/a_k (every a_i >= 1) as its invariant factors
    d_1 | d_2 | ... | d_k, the same number of them.

    Gcds alone split the distinct orders > 1 into a coprime base:
    pairwise coprime b > 1 such that every order is a product of powers
    of the b.  A pending x that meets a base entry b with g = gcd(x, b)
    > 1 gives way, with b, to x/g, g and b/g: that keeps every order a
    product of powers and lowers the product of all entries, so it ends.
    Then d_i is the product over b of b^(i-th smallest exponent of b in
    the orders).  Proof: each prime p of an order divides exactly one b,
    and v_p(b^e) = e * v_p(b), so sorting the exponents of b sorts v_p
    for every p | b at once, and d_i = prod_p p^(i-th smallest v_p).
    """
    orders = list(orders)
    if len(orders) < 2:
        return orders
    base, todo = [], [n for n in set(orders) if n > 1]
    while todo:
        x = todo.pop()
        for i, b in enumerate(base):
            g = gcd(x, b)
            if g > 1:
                del base[i]
                todo += [y for y in (x // g, g, b // g) if y > 1]
                break
        else:
            base.append(x)
    chain = [1] * len(orders)
    for b in base:
        exponents = []
        for n in orders:
            e = 0
            while n % b == 0:
                n //= b
                e += 1
            exponents.append(e)
        for i, e in enumerate(sorted(exponents)):
            chain[i] *= b ** e
    return chain


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Basis of ker(a) as columns, read off V of `smith_normal_form`
    (transforms on); see `SmithForm.kernel`."""
    return smith_normal_form(a).kernel()


def solve_integral(a: IntMatrix, b) -> tuple[int, ...] | None:
    """Some integer solution x of a @ x = b, or None when none exists:
    the one-column case of `SmithForm.solve_columns`."""
    x = smith_normal_form(a).solve_columns(
        IntMatrix._of(tuple((int(e),) for e in b), 1))
    return None if x is None else x.col_tuple(0)


def rank(a: IntMatrix) -> int:
    """The rank of a over Q, by fraction-free elimination on primitive
    rows; no diagonal is read or kept.

    Every row is first divided by the gcd of its entries, and zero rows
    are dropped.  Each step takes a pivot row p off the list, with k its
    first nonzero column; every other row r with r[k] != 0 becomes
    p[k] r - r[k] p divided by the gcd of its entries, and is dropped if
    it is zero.  The rows left vanish in column k, so p is not in their
    span, and with p they span what the rows before the step spanned:
    the rank is the number of steps.

    The entries stay small.  After pivots p_1..p_t, in columns
    k_1..k_t, take a stored row r descended from row r0 of a, and the
    Bareiss row of r0: its entry j is the minor of a on the rows of
    p_1..p_t and r0 and the columns k_1..k_t, j.  Both lie in the
    Q-span W of those rows of a and vanish in columns k_1..k_t.  The
    stored pivots span the same space as their rows of a, and p_i
    vanishes in k_1..k_(i-1) but not in k_i, so the t x t minor on
    k_1..k_t is not zero.  The vectors of W that vanish in k_1..k_t
    therefore form a line, or just 0 when r0 lies in the pivots' span,
    and then both rows are zero.  A stored row is primitive, so it is
    +- the primitive part of the Bareiss row, and each entry is at most
    a (t+1)-minor of a in absolute value: under Hadamard's bound.
    """
    live = []
    for r in a._rows:
        g = gcd(*r)
        if g:
            live.append(r if g == 1 else [x // g for x in r])
    steps = 0
    while live:
        p = live.pop()
        steps += 1
        k = next(j for j, x in enumerate(p) if x)
        x = p[k]
        kept = []
        for r in live:
            y = r[k]
            if y:
                r = [x * u - y * v for u, v in zip(r, p)]
                g = gcd(*r)
                if not g:
                    continue
                if g != 1:
                    r = [u // g for u in r]
            kept.append(r)
        live = kept
    return steps


def product_is_zero(a: IntMatrix, b: IntMatrix) -> bool:
    """Whether a @ b is the zero matrix, from the product of a with one
    vector of packed ints.

    Let c = a @ b, bound = max |b[j][k]| times the largest sum of the
    |a[i][j]| along a row of a, and s = bound.bit_length(), so that
    2^s > bound.  Row j of b is packed as P_j = sum_k b[j][k] 2^(s k);
    then (a @ P)_i = sum_k c[i][k] 2^(s k), and every digit has
    |c[i][k]| <= bound < 2^s.  If that sum is 0, its lowest digit
    c[i][0] is 0 mod 2^s, hence 0; dividing by 2^s and repeating shows
    that every digit is 0.  So row i of c is zero exactly when
    (a @ P)_i is.  A product with no entries, or a zero bound, means
    a @ b = 0.
    """
    if a._cols != len(b._rows):
        raise SemanticError(
            f"shape mismatch in product: {a.shape} @ {b.shape}")
    if not (a._rows and a._cols and b._cols):
        return True
    bound = (max(map(abs, chain.from_iterable(b._rows)))
             * max([sum(map(abs, r)) for r in a._rows]))
    if not bound:
        return True
    s = bound.bit_length()
    packed = []
    for r in b._rows:
        p = 0
        for x in reversed(r):
            p = (p << s) + x
        packed.append(p)
    return not any(sum(map(mul, r, packed)) for r in a._rows)


def determinant(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise SemanticError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    M = a.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Inverse of a matrix with determinant +-1: U @ m @ V = I, so it is
    V @ U."""
    if m.rows != m.cols:
        raise SemanticError("inverse of a non-square matrix")
    sf = smith_normal_form(m)
    if sf.diagonal != (1,) * m.rows:
        raise SemanticError("matrix is singular" if sf.rank < m.rows
                            else "matrix is not unimodular over Z")
    return sf.v @ sf.u
