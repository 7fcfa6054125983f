"""A tour of exact integer linear algebra: Smith normal form and friends.

Everything downstream (group functors, homology, the universal
coefficient splittings) reduces to one primitive: diagonalize an integer
matrix by unimodular row and column operations.  This script
diagonalizes a small matrix, checks the certificate by hand, and reads
off the kernel, cokernel, and exact solutions of the map it presents.
"""

from cwbrauer.abgroup import FgAbGroup
from cwbrauer.intlin import (IntMatrix, determinant, kernel_basis,
                             smith_normal_form, solve_integral)

a = IntMatrix([[2, 4, 6],
               [-6, 6, 0],
               [10, 4, 14]])
print("A =")
print(a)

sf = smith_normal_form(a)
print("\nSmith form S = U @ A @ V with U, V unimodular:")
print(sf.s)
print(f"\ndiagonal  = {sf.diagonal}")
print(f"det U     = {determinant(sf.u)}   det V = {determinant(sf.v)}")

# The certificate is checkable by plain matrix arithmetic.
assert sf.u @ a @ sf.v == sf.s
assert abs(determinant(sf.u)) == 1 and abs(determinant(sf.v)) == 1
d = [e for e in sf.diagonal if e]
assert all(d[i + 1] % d[i] == 0 for i in range(len(d) - 1)), "divisor chain"
print("certificate verified: U@A@V = S, |det| = 1, divisibility chain holds")

# Reading the diagonal: the cokernel of A as a map Z^3 -> Z^3.
coker = FgAbGroup.from_presentation(a)
print(f"\ncoker(A) = {coker}  (infinite: free rank {coker.free_rank})")
print(f"rank of A = {sf.rank},  nullity = {a.cols - sf.rank}")
print(f"kernel basis columns: {kernel_basis(a).to_lists()}")

# Solving A x = b exactly, or proving there is no integral solution.
b = list(a @ [1, 0, 2])
x = solve_integral(a, b)
print(f"\nsolve A x = {b}:  x = {x}")
assert list(a @ list(x)) == b

print(f"solve A x = [1, 0, 0]:  {solve_integral(a, [1, 0, 0])}"
      "  (no integer solution)")
