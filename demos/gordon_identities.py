"""Gordon's identities by exact counting, moduli 5, 7, and 9.

For each l and each 1 <= t <= l, the number of partitions of n with
difference at least 2 at distance l-1 and at most t-1 ones equals the
number of partitions of n into parts not congruent to 0, +-t mod 2l+1.
The Gordon side is counted by a transfer over part sizes in frequency
form (f_1 <= t-1 and f_j + f_(j+1) <= l-1), the congruence side by a table
over (weight left, smallest admissible part); neither uses a generating
function. The last lines split one entry by number of parts with
``gordon_partition_table``, the same transfer run with one row per number
of parts.
"""

from qgordon import (
    GordonCondition,
    count_congruence_partitions,
    count_gordon_partitions,
    gordon_partition_table,
)

N_MAX = 24

for l in (2, 3, 4):
    for t in range(1, l + 1):
        cond = GordonCondition(l, t)
        gordon = [count_gordon_partitions(cond, n) for n in range(N_MAX + 1)]
        congruence = [count_congruence_partitions(cond, n) for n in range(N_MAX + 1)]
        status = "match" if gordon == congruence else "MISMATCH"
        print(f"l={l} t={t} (mod {cond.modulus}, excluded residues "
              f"{sorted(cond.excluded_residues)}): {status}")
        print("   counts:", gordon)

print()
print("One entry by number of parts: n=9, l=2, t=2 (difference >= 2, at most one 1):")
cond, n = GordonCondition(2, 2), 9
table = gordon_partition_table(cond, n, n)
by_parts = [table.coeff(m, n) for m in range(n + 1)]
for m, count in enumerate(by_parts):
    if count:
        print(f"    m={m}: {count}")
total = sum(by_parts)
print(f"    sum {total} equals count_gordon_partitions: {total == count_gordon_partitions(cond, n)}")
