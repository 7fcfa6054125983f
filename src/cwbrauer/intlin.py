"""Exact linear algebra over the integers.

Everything here works with arbitrary-precision Python ints; nothing is
ever converted to floats.  An `IntMatrix` stores its entries as a tuple
of row tuples of ints together with its column count, and this module
is the only one that relies on that layout.  The central routine is
`smith_normal_form`, which returns the full transform pair (U, V) so
that U @ A @ V = S with U, V unimodular and the diagonal of S a
divisibility chain d1 | d2 | ... | dk followed by zeros.  Kernels,
integral solving, and cokernel presentations are all derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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

    __slots__ = ("_rows", "_cols")

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
        """Wrap row tuples of ints built in this module, unchecked."""
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
    def column(cls, entries) -> "IntMatrix":
        return cls([[int(x)] for x in entries])

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
    """Result of `smith_normal_form`: u @ a @ v = s.

    diagonal holds min(rows, cols) nonnegative integers with the nonzero
    entries first, each dividing the next, then zeros.  rank is the count
    of nonzero diagonal entries.
    """

    u: IntMatrix
    s: IntMatrix
    v: IntMatrix
    diagonal: tuple[int, ...]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def _pivot(S, t, rows, cols):
    """Position of a nonzero entry of minimal absolute value in S[t:, t:]."""
    best = None
    best_pos = None
    for i in range(t, rows):
        for j in range(t, cols):
            x = S[i][j]
            if x != 0 and (best is None or abs(x) < best):
                best = abs(x)
                best_pos = (i, j)
                if best == 1:
                    return best_pos
    return best_pos


def smith_normal_form(a: IntMatrix | list) -> SmithForm:
    """Smith normal form with unimodular transforms.

    Strategy: repeatedly move a nonzero entry of minimal absolute value
    to the working diagonal slot, then clear its row and column by
    division-with-remainder; when a remainder survives it becomes the
    new (smaller) pivot, so the loop terminates.  Once row and column
    are clear, any entry of the remaining submatrix not divisible by the
    pivot gets its row added to the pivot row and the clearing restarts;
    that enforces the divisibility chain.
    """
    if not isinstance(a, IntMatrix):
        a = IntMatrix(a)
    rows, cols = a.rows, a.cols
    S = a.to_lists()
    U = IntMatrix.identity(rows).to_lists()
    V = IntMatrix.identity(cols).to_lists()

    def row_op(i, k, q):  # row i -= q * row k   (on S and U)
        S[i] = [x - q * y for x, y in zip(S[i], S[k])]
        U[i] = [x - q * y for x, y in zip(U[i], U[k])]

    def col_op(j, k, q):  # col j -= q * col k   (on S and V)
        for r in range(rows):
            S[r][j] -= q * S[r][k]
        for r in range(cols):
            V[r][j] -= q * V[r][k]

    def swap_rows(i, k):
        S[i], S[k] = S[k], S[i]
        U[i], U[k] = U[k], U[i]

    def swap_cols(j, k):
        for r in range(rows):
            S[r][j], S[r][k] = S[r][k], S[r][j]
        for r in range(cols):
            V[r][j], V[r][k] = V[r][k], V[r][j]

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
                    row_op(i, t, q)
                    if S[i][t] != 0:
                        dirty = True
            for j in range(t + 1, cols):
                if S[t][j] != 0:
                    q = S[t][j] // S[t][t]
                    col_op(j, t, q)
                    if S[t][j] != 0:
                        dirty = True
            if dirty:
                pos = _pivot(S, t, rows, cols)
                swap_rows(t, pos[0])
                swap_cols(t, pos[1])
                continue
            # row and column are clear; enforce divisibility into the rest
            d = S[t][t]
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
    for i in range(min(rows, cols)):
        if S[i][i] < 0:
            S[i] = [-x for x in S[i]]
            U[i] = [-x for x in U[i]]

    return SmithForm(u=IntMatrix._of(tuple(map(tuple, U)), rows),
                     s=IntMatrix._of(tuple(map(tuple, S)), cols),
                     v=IntMatrix._of(tuple(map(tuple, V)), cols),
                     diagonal=tuple(S[i][i] for i in range(limit)))


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Basis of {x : a @ x = 0} as the columns of a cols x nullity matrix.

    The kernel of an integer matrix is a saturated sublattice, and the
    trailing columns of the Smith V matrix form a basis of it, so every
    integer kernel vector is an integer combination of the returned
    columns.
    """
    sf = smith_normal_form(a)
    r = sf.rank
    return sf.v.submatrix(range(a.cols), range(r, a.cols))


def cokernel_structure(a: IntMatrix):
    """Z^rows / column-span(a) in invariant-factor form (an FgAbGroup)."""
    from .abgroup import FgAbGroup  # local import: abgroup builds on intlin

    sf = smith_normal_form(a)
    invariant = tuple(d for d in sf.diagonal if d >= 2)
    free = a.rows - sf.rank
    return FgAbGroup(free_rank=free, invariant_factors=invariant)


def solve_integral(a: IntMatrix, b) -> tuple[int, ...] | None:
    """Some integer solution x of a @ x = b, or None when none exists."""
    b = [int(x) for x in b]
    if len(b) != a.rows:
        raise SemanticError(
            f"solve_integral: got {len(b)} entries for {a.rows} equations")
    sf = smith_normal_form(a)
    c = sf.u @ b
    y = [0] * a.cols
    k = len(sf.diagonal)
    for i in range(a.rows):
        d = sf.diagonal[i] if i < k else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            if i < a.cols:
                y[i] = c[i] // d
    return sf.v @ y


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
    """Inverse of a matrix with determinant +-1 (exact, via Fractions)."""
    if m.rows != m.cols:
        raise SemanticError("inverse of a non-square matrix")
    n = m.rows
    work = [[Fraction(m[i, j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
            for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col] != 0), None)
        if piv is None:
            raise SemanticError("matrix is singular")
        work[col], work[piv] = work[piv], work[col]
        p = work[col][col]
        work[col] = [x / p for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    inv = [[work[i][n + j] for j in range(n)] for i in range(n)]
    for row in inv:
        for x in row:
            if x.denominator != 1:
                raise SemanticError("matrix is not unimodular over Z")
    return IntMatrix._of(tuple(tuple(int(x) for x in row) for row in inv), n)
