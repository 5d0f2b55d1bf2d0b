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
out. The Koszul relation r_a * r_b = r_b * r_a does the same for mu * r_b when
mu holds the most balanced partition of some a < b into k+1 parts, which
happens exactly when mu breaks Gordon's difference condition.
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


def koszul_floor(mu):
    """The least a >= k+1 whose most balanced partition into k+1 parts,
    (q+1)^r q^(k+1-r) with a = (k+1)q + r, lies inside mu, or None."""
    have = Counter(mu)
    for a in range(k + 1, sum(mu) + 1):
        q, r = divmod(a, k + 1)
        if have[q + 1] >= r and have[q] >= k + 1 - r:
            return a
    return None


def cell_rows(m, w, skip):
    """The nonzero products mu * r_(w_gen) of the cell (m, w) that skip does
    not name, as sparse rows over the monomials with fewer than e ones."""
    basis = [lam for lam in partitions_exact(w, m) if lam.count(1) < e]
    column = {lam: j for j, lam in enumerate(basis)}
    rows = []
    for w_gen in range(k + 1, w + 1):
        for mu in partitions_exact(w - w_gen, m - k - 1):
            if mu.count(1) >= e or skip(mu, w_gen):
                continue
            row = {}
            for lam, mult in r_polynomial(k, w_gen):
                j = column.get(tuple(sorted(mu + lam, reverse=True)))
                if j is not None:
                    row[j] = mult
            if row:
                rows.append(row)
    return len(basis), rows


def derivative_rule(mu, w_gen):
    """The derivative identity's skip at e >= 2, where s = 1."""
    return 1 in mu and w_gen != k + 1


def both_rules(mu, w_gen):
    floor = koszul_floor(mu)
    return derivative_rule(mu, w_gen) or floor is not None and floor < w_gen


cm, cw = 2 * (k + 1), 20
print(f"Rows ranked for the cell m={cm}, w={cw} (k={k}, e={e}):")
dims = []
for name, skip in [("every product", lambda mu, w_gen: False),
                   ("derivative rule", derivative_rule),
                   ("derivative and Koszul rules", both_rules)]:
    size, rows = cell_rows(cm, cw, skip)
    dims.append(size - integer_matrix_rank(rows))
    print(f"  {name}: {len(rows)} rows, dimension {dims[-1]}")
print("  the three dimensions are equal:", len(set(dims)) == 1)
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
print("  quotient dimension:", table.entries[2][4],
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
