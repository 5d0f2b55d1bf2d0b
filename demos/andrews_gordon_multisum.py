"""The Andrews-Gordon multisum as a bivariate refinement.

The multisum for level k and index i is a series in x and q whose
coefficient of x^m q^n counts partitions of n into exactly m parts
meeting the (l, t) = (k+1, i+1) difference condition. Summing over m
(setting x = 1) recovers the product side of the identities. The same
table comes from ``gordon_partition_table``, which counts the partitions
by number of parts with the transfer behind ``count_gordon_partitions``
and no generating function.
"""

from qgordon import (
    GordonCondition,
    andrews_gordon_multisum,
    gordon_partition_table,
    gordon_product,
    specialize_x,
)

k, i = 2, 1          # level 2, middle member: (l, t) = (3, 2), modulus 7
R, N = 6, 16
cond = GordonCondition(k + 1, i + 1)

series = andrews_gordon_multisum(k, i, R, N)
print(f"Multisum for level {k}, index {i}, window x<={R}, q<={N}.")
print()
print("Coefficient table (rows m = number of parts, columns n = weight):")
for m in range(5):
    print(f"  m={m}:", list(series.row(m)))
print()

print("Each cell counts the refined partitions directly:")
ok = series == gordon_partition_table(cond, R, N)
print("  multisum coefficients == refined counts:", ok)
print()

x1, _ = specialize_x(series, "x=1")
product = gordon_product(cond, N)
print("x=1 column sums against the congruence product (mod 7):")
print("  multisum at x=1:", list(x1.row(0)))
print("  product side:   ", list(product.row(0)))
print("  equal:", list(x1.row(0)) == list(product.row(0)))
