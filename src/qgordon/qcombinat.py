"""Gordon partition counting, the congruence product, and the Andrews-Gordon multisum.

The classical Rogers-Ramanujan-Gordon circle of identities relates three
different objects, all computed here with exact integer arithmetic:

* the product side: partitions into parts in admissible residue classes
  mod 2l+1 (``gordon_product``, ``count_congruence_partitions``);
* the combinatorial side: partitions obeying the "difference two at
  distance l-1" condition with a bounded number of ones
  (``count_gordon_partitions``, and ``gordon_partition_table`` by number
  of parts);
* the analytic side: the Andrews-Gordon multisum with quadratic exponent
  (``andrews_gordon_multisum``), a bivariate series whose x-power tracks
  the number of parts.

The counts use no generating function and no series arithmetic, so they
stay an independent check on the product and the multisum. The Gordon
count is a transfer over part sizes in frequency form, the congruence count
a table over (weight left, smallest admissible part); both take polynomial
time and neither recurses. Each fills every weight up to its size at once,
so the counters keep that whole row, built once per power-of-two size, and
answer each n from it. One Gordon transfer, ``_gordon_rows``, gives both
shapes: run with a single row it is the weight row, and run with one row
per number of parts it is the table by number of parts. It lists nothing.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate
from operator import add

from .series import BiSeries, div_one_minus_q_power


@dataclass(frozen=True)
class GordonCondition:
    """Parameter pair (l, t) with l >= 2 and 1 <= t <= l.

    Picks out partitions with b_j - b_(j+l-1) >= 2 and at most t-1 parts
    equal to 1, or dually partitions into parts not congruent to
    0, +-t mod 2l+1. The corresponding recursion-system indices are
    level k = l - 1 and member i = t - 1.
    """

    l: int
    t: int

    def __post_init__(self):
        if self.l < 2:
            raise ValueError("need l >= 2")
        if not 1 <= self.t <= self.l:
            raise ValueError("need 1 <= t <= l")

    @property
    def level(self) -> int:
        return self.l - 1

    @property
    def modulus(self) -> int:
        return 2 * self.l + 1

    @property
    def excluded_residues(self) -> frozenset[int]:
        return frozenset({0, self.t, self.modulus - self.t})

    def allows_part(self, p: int) -> bool:
        return p % self.modulus not in self.excluded_residues


# -- product side ---------------------------------------------------------------


def gordon_product(cond: GordonCondition, q_order: int) -> BiSeries:
    """Product of 1/(1-q^i) over i <= q_order in the admissible residue classes.

    Factors whose smallest exponent exceeds the window are identically 1
    there and are skipped. One row is divided in place by each factor's
    1 - q^i, so the whole product costs O(q_order) per factor.
    """
    if q_order < 0:
        raise ValueError("need q_order >= 0")
    row = [1] + [0] * q_order
    for i in range(1, q_order + 1):
        if cond.allows_part(i):
            div_one_minus_q_power(row, i)
    return BiSeries._of([tuple(row)])


# -- Andrews-Gordon multisum ----------------------------------------------------


def andrews_gordon_multisum(k: int, i: int, x_order: int, q_order: int) -> BiSeries:
    """Sum over weakly decreasing tuples N_1 >= ... >= N_k >= 0 of

        x^(N_1+...+N_k) q^(N_1^2+...+N_k^2+N_(i+1)+...+N_k)
        / ((q)_(N_1-N_2) ... (q)_(N_(k-1)-N_k) (q)_(N_k))

    truncated to the window. One recursion picks N_k, then N_(k-1), ...,
    N_1, and carries the partial denominator down the tree, so tuples that
    share a suffix N_j, ..., N_k share its division: each step of an entry
    above its floor divides the carried row once more by one factor of the
    corresponding (q)_d. Branches whose x-power or least q-exponent already
    leaves the window are pruned.
    """
    if k < 1:
        raise ValueError("need level k >= 1")
    if not 0 <= i <= k:
        raise ValueError("need 0 <= i <= k")
    if x_order < 0 or q_order < 0:
        raise ValueError("need x_order >= 0 and q_order >= 0")
    R, N = x_order, q_order
    # a tuple in the window has at most min(R, N) nonzero entries, all in
    # front; its zero tail adds nothing to the exponent and (q)_0 = 1 to the
    # denominator, so only that many levels need enumerating
    k = max(1, min(k, R, N))
    i = min(i, k)
    rows = [[0] * (N + 1) for _ in range(R + 1)]

    # choose N_pos for pos = k, k-1, ..., 1 with N_pos >= low = N_(pos+1),
    # carrying den = 1/((q)_(N_(pos+1)-N_(pos+2)) ... (q)_(N_k)) down the tree:
    # each step of N_pos above low divides it once more by 1 - q^(N_pos - low)
    def rec(pos: int, low: int, m: int, energy: int, den: list[int]) -> None:
        if pos == 0:
            # one pass over the slice is exact because len(den) == N - energy + 1
            # at a leaf: the last step cut den to N - least + 1 entries, and at
            # pos = 1 least is this leaf's energy
            rows[m][energy:] = map(add, rows[m][energy:], den)
            return
        row = den[:]
        v = low
        # the pos entries still to choose are each at least v
        while m + pos * v <= R:
            least = energy + pos * v * v + max(pos - i, 0) * v
            if least > N:
                break
            del row[N - least + 1 :]
            if v > low:
                div_one_minus_q_power(row, v - low)
            rec(pos - 1, v, m + v, energy + v * v + (v if pos > i else 0), row)
            v += 1

    rec(k, 0, 0, 0, [1] + [0] * N)
    return BiSeries._of(map(tuple, rows))


# -- partition counting ---------------------------------------------------------


def count_gordon_partitions(cond: GordonCondition, n: int) -> int:
    """Number of partitions of n meeting the Gordon difference/ones condition.

    A lookup into the weight row of _gordon_weights at the least power of
    two >= n. A sweep over n = 0..q builds that row only at sizes 1, 2, 4,
    ..., so it costs about twice one transfer at q, O(q^2 log q) in all.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    return _gordon_weights(cond, _table_size(n))[n]


def _table_size(n: int) -> int:
    """The least power of two >= n: the size at which the counters build
    the weight row that answers n."""
    return 1 << max(n - 1, 0).bit_length()


@lru_cache(maxsize=64)
def _gordon_weights(cond: GordonCondition, size: int) -> tuple[int, ...]:
    """Numbers of Gordon partitions of each weight 0..size: _gordon_rows
    with a single row, into which every number of parts folds."""
    return tuple(_gordon_rows(cond, size, 1)[0])


def gordon_partition_table(cond: GordonCondition, x_order: int, q_order: int) -> BiSeries:
    """Gordon partitions by number of parts: the coefficient of x^m q^n is
    the number of partitions of n into exactly m parts meeting the Gordon
    condition, for every m <= x_order and n <= q_order.

    Rows 0..M of _gordon_rows, with M = min(x_order, q_order): every part
    weighs at least 1, so no partition in the window has more than q_order
    parts, and the rows past M are zero.
    """
    if x_order < 0 or q_order < 0:
        raise ValueError("need x_order >= 0 and q_order >= 0")
    M = min(x_order, q_order)
    rows = _gordon_rows(cond, q_order, M + 2)[: M + 1]
    return BiSeries._of([*map(tuple, rows)] + [(0,) * (q_order + 1)] * (x_order - M))


def _gordon_rows(cond: GordonCondition, size: int, parts: int) -> list[list[int]]:
    """Numbers of Gordon partitions of each weight 0..size by number of
    parts: row c < parts - 1 counts those with exactly c parts, and the last
    row those with parts - 1 or more.

    In frequency form (f_j parts equal to j) the condition reads f_1 <= t-1
    and f_j + f_(j+1) <= cond.level: l consecutive parts differ by at most 1
    exactly when they all lie in some {j, j+1}. A transfer over part sizes
    j = 1..size keeps, for each value of f_j, a table of the choices
    f_1..f_j by parts and weight so far; the next part size may take any
    f_(j+1) <= cond.level - f_j, so one prefix sum over f_j serves every
    f_(j+1). f copies of j move a count f rows down and f*j weights up, and a
    count pushed past the last row folds into it. Since f_j <= size // j, a
    level far beyond size costs nothing extra; one row costs O(size^2 log size).
    """
    last = parts - 1
    zero = [0] * (size + 1)
    # tables[f][c][w]: choices of f_1..f_j with f_j = f, c parts (the last
    # row: at least that many) and weight w; before j = 1 only the empty choice
    tables = [[[1] + zero[1:]] + [zero] * last]
    for j in range(1, size + 1):
        # at_most[g]: the same choices with f_(j-1) <= g
        at_most = list(accumulate(tables, _add_tables))
        top = len(at_most) - 1
        tables = []
        for f in range(min(cond.t - 1 if j == 1 else cond.level, size // j) + 1):
            src = at_most[min(cond.level - f, top)]
            cut = max(last - f, 0)
            rows = src[:cut] + [reduce(_add_rows, src[cut:])]
            rows = [[0] * (f * j) + row[: size + 1 - f * j] for row in rows]
            tables.append([zero] * (last - cut) + rows)
        del at_most  # not held while the next prefix sums are built
    return reduce(_add_tables, tables)


def _add_rows(a: list[int], b: list[int]) -> list[int]:
    return list(map(add, a, b))


def _add_tables(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return list(map(_add_rows, a, b))


def count_congruence_partitions(cond: GordonCondition, n: int) -> int:
    """Number of partitions of n into parts not congruent to 0, +-t mod 2l+1.

    A lookup into the weight row of _congruence_weights at the least power
    of two >= n, so a sweep over n = 0..q costs about twice one table at q,
    O(q^2) in all.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    return _congruence_weights(cond, _table_size(n))[n]


@lru_cache(maxsize=64)
def _congruence_weights(cond: GordonCondition, size: int) -> tuple[int, ...]:
    """Numbers of partitions into admissible parts of each weight 0..size.

    A table over (weight left, smallest admissible part allowed), filled
    by increasing weight: a partition of r into admissible parts that are
    all at least parts[s] either has no part equal to parts[s], or has one
    and the rest is such a partition of r - parts[s]. Each entry costs one
    addition, so the work is O(size^2) and no generating function is involved.
    """
    parts = [p for p in range(1, size + 1) if cond.allows_part(p)]
    # at_least[r][s]: partitions of r into admissible parts >= parts[s];
    # the last column, past every part, counts only the empty partition
    at_least = [[1] * (len(parts) + 1)]
    for r in range(1, size + 1):
        # entries for parts above r stay 0
        row = [0] * (len(parts) + 1)
        for s in reversed(range(bisect_right(parts, r))):
            row[s] = row[s + 1] + at_least[r - parts[s]][s]
        at_least.append(row)
    return tuple(row[0] for row in at_least)


def min_gordon_weight(level: int, m: int) -> int:
    """Least possible weight of an m-part partition with difference >= 2 at
    distance `level`, ignoring any restriction on ones.

    Attained by level copies each of 1, 3, 5, ...; with m = u*level + v the
    minimum is level*u^2 + v*(2u+1). Restricting ones only raises the
    minimum, so this is a valid lower bound for every (l, t).
    """
    if level < 1:
        raise ValueError("need level >= 1")
    if m < 0:
        raise ValueError("need m >= 0")
    u, v = divmod(m, level)
    return level * u * u + v * (2 * u + 1)
