"""Recomputing graded dimensions from ideal generators alone.

The quotient of C[y_1, y_2, ...] by the ideal generated by the ordered-sum
polynomials r_w (charge k+1) and a power y_1^e has a bigraded Hilbert
table computable by exact integer linear algebra: in each bidegree, drop
the monomials divisible by y_1^e, rank the products of monomials with the
r_w over the monomials that remain, and subtract that rank from their
number. No recursion system, no multisum. The table still reproduces the
same series, which is the whole point of using it as an oracle.

Most products are redundant: differentiating Y(z)^(k+1), with
Y(z) = sum_j y_j z^j, gives sum_j (n - (k+2) j) * y_j * r_(n-j) = 0. So for
e >= 2 a product mu * r_w whose multiplier mu holds y_1, with w != k+1, is a
combination of products with heavier multipliers, and hilbert_table leaves it
out.
"""

from collections import Counter

from qgordon import (
    andrews_gordon_multisum,
    hilbert_table,
    integer_matrix_rank,
    partitions_exact,
    r_polynomial,
    solve,
)

k, e = 1, 2
print(f"Generators for level k={k}: r_w for w >= {k + 1}, plus y_1^{e}.")
for w in range(2, 6):
    terms = " + ".join(
        (f"{mult}*" if mult > 1 else "") + "y" + "*y".join(f"_{j}" for j in mono)
        for mono, mult in r_polynomial(k, w)
    )
    print(f"  r_{w} = {terms}")
print()


def derivative_identity(k, n):
    """sum_j (n - (k+2) j) * y_j * r_(n-j) as {index tuple: coefficient}."""
    total = Counter()
    for j in range(1, n - k):
        for lam, mult in r_polynomial(k, n - j):
            total[tuple(sorted(lam + (j,), reverse=True))] += (n - (k + 2) * j) * mult
    return total


print("The derivative identity sum_j (n - 3j) * y_j * r_(n-j) = 0 for k=1, n <= 8:",
      all(not any(derivative_identity(k, n).values()) for n in range(k + 2, 9)))
print()

mm, wm = 4, 10
table = hilbert_table(k, e, mm, wm)
basis = partitions_exact(4, 2)
r4 = dict(r_polynomial(k, 4))
r4_row = {j: r4[lam] for j, lam in enumerate(basis) if lam in r4}
print("One bidegree worked out, charge m=2 and weight w=4:")
print("  monomial basis: y_3*y_1, y_2*y_2 (partitions of 4 into 2 parts)")
print("  ideal piece spanned by r_4 = 2*y_3*y_1 + y_2*y_2, rank",
      integer_matrix_rank([r4_row]))
print("  quotient dimension:", table.dim(2, 4),
      "(the surviving class corresponds to the difference-2 partition [3,1])")
print()

print(f"Full table for k={k}, e={e} on m<={mm}, w<={wm}:")
for m in range(mm + 1):
    print(f"  m={m}:", list(table.entries[m]))
print()

series = table.to_biseries()
print("Against the other two routes:")
print("  equals the multisum:", series == andrews_gordon_multisum(k, e - 1, mm, wm))
print("  equals the solved recursion member:",
      series == solve(k, mm, wm).members[e - 1])
