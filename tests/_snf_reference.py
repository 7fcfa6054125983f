"""A frozen copy of the transform Smith normal form as it stood before its
column operations and swaps skipped exact no-ops.

It is kept so that a test can check that the faster routine makes the
same pivots and the same row and column operations: the `bockstein`
matrix is printed in the generators that U picks, so U, S and V must
stay identical, not just the diagonal.  `reference_solve` solves one
right-hand side on that reference, column by column, so that solving
many right-hand sides in one product can be checked against it.  Plain
lists of ints in and out; nothing here calls into the package.  Do not
edit the arithmetic.
"""

from __future__ import annotations


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


def reference_smith_normal_form(a: list[list[int]], cols: int):
    """(U, S, V, diagonal) with U a V = S, as lists of rows."""
    rows = len(a)
    S = [list(r) for r in a]
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

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
            row_op(t, offender, -1)
        t += 1

    for i in range(min(rows, cols)):
        if S[i][i] < 0:
            S[i] = [-x for x in S[i]]
            U[i] = [-x for x in U[i]]

    return U, S, V, [S[i][i] for i in range(limit)]


def reference_solve(a: list[list[int]], cols: int, b: list[int]):
    """Some integer x with a x = b, or None: one right-hand side through
    the reference U and V, as the vector solve did before right-hand
    sides were solved together.  c = U b must be divisible by the
    diagonal (zero past the rank); y = c / diagonal, padded with zeros,
    and x = V y."""
    u, _, v, diag = reference_smith_normal_form(a, cols)
    c = [sum(p * q for p, q in zip(row, b)) for row in u]
    diag = diag + [0] * (len(a) - len(diag))
    if any(x % d if d else x for x, d in zip(c, diag)):
        return None
    y = [x // d for x, d in zip(c, diag) if d]
    y += [0] * (cols - len(y))
    return [sum(p * q for p, q in zip(row, y)) for row in v]
