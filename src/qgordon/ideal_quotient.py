"""Bigraded dimensions of quotients of C[y_1, y_2, ...] by explicit ideals.

This is the package's independent ground truth. The polynomial algebra in
variables y_j (j >= 1) is bigraded by charge (number of variables in a
monomial) and weight (sum of their indices), so each bidegree (m, w) has
the finite monomial basis of partitions of w into exactly m parts. The
ideal attached to level k and y-power exponent e is generated by

* r_w, for each weight w >= k+1: the sum over ordered (k+1)-tuples of
  positive integers with total w of the corresponding monomial, i.e. each
  degree-(k+1) monomial weighted by its multinomial number of orderings;
* y_1^e, with 1 <= e <= k+1.

``hilbert_table`` fills a whole (charge, weight) window in one pass. The
multiples of y_1^e are the monomials with at least e indices equal to 1,
so they are left out of the basis (and as multipliers) instead of ranked.
A monomial is an integer key, the sum over its parts j of 2^(width * j)
with width the bit length of the window's largest charge: no part occurs
2^width times in the window, so the key of a product is the sum of the
keys. One recursion, ``keyed_partitions``, lists partitions as (key,
multiplicity) pairs, fewest ones first: cut at e ones they are each cell's
basis, and with k+1 parts they are the generators r_w. The products of the
remaining monomials with the r_w are sparse {column: coefficient} rows over
that basis, and each quotient dimension is |basis| - rank, with the rank
taken exactly by ``integer_matrix_rank``.

Most of those products are redundant, and one identity finds them before the
rank does. With Y(z) = sum_j y_j z^j, so that Y^(k+1) = sum_w r_w z^w,
differentiating gives Y * (Y^(k+1))' = (k+1) * Y^(k+1) * Y', whose
coefficient of z^(n-1) reads

    sum_j (n - (k+2) j) * y_j * r_(n-j) = 0    for every n.

Dropping the monomials with e or more ones keeps it true. Let s = 1 when
e >= 2, and s = 2 when e = 1: then y_1 is in the ideal, so the j = 1 term
vanishes. For w != (k+1)s the term j = s has a nonzero coefficient, so for a
multiplier mu = y_s * nu the product mu * r_w is a combination of the
products (nu * y_j) * r_(w+s-j), j > s, whose multipliers weigh more. By
induction from the heaviest multiplier down, the products whose multiplier
holds no part s, together with those at w = (k+1)s, span every product of the
cell. At s = 1 those kept at w = k+1 are y_1^(k+1) * mu, outside every basis.

A second relation, r_a * r_b = r_b * r_a, finds more, at every e alike. Order
a cell's multipliers by (weight, key). For a >= k+1 the least-key partition
of a into k+1 parts is lambda0(a) = (q+1)^r q^(k+1-r), with a = (k+1)q + r.
With k+1 <= a < b, the relation nu * (r_a * r_b - r_b * r_a) = 0 gives the
product (nu * y_lambda0(a)) * r_b a nonzero multinomial coefficient and
writes it through products whose multipliers are heavier (nu * y_lambda,
lambda a partition of b) or as heavy with a larger key (nu * y_lambda,
lambda != lambda0(a) a partition of a). Both relations replace a product only
by products with greater multipliers, so by induction from the greatest
multiplier down the products that neither replaces span every product of
the cell, and only they are ranked. The least a with lambda0(a) dividing mu
is mu's Koszul floor: it is (k+1)q + max(0, k+1 - f_q) at the least part q
with f_q >= 1 and f_q + f_(q+1) >= k+1 (f_j the multiplicity of the part j),
so a monomial that meets Gordon's difference condition f_q + f_(q+1) <= k
has none, and mu * r_b is skipped when b is above mu's floor.

Nothing here touches the recursion system or the multisum: quotient
dimensions come out of monomial counts and integer row reduction alone,
which is what makes the resulting tables usable as an oracle against the
other two computation routes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

from .series import BiSeries


def partitions_exact(w: int, m: int) -> list[tuple[int, ...]]:
    """Partitions of w into exactly m parts, in decreasing lexicographic order."""
    if m < 0 or w < m:
        return []
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, slots: int, cap: int, acc: list[int]) -> None:
        if slots == 0:
            if remaining == 0:
                out.append(tuple(acc))
            return
        # each of the remaining slots needs at least 1
        hi = min(cap, remaining - (slots - 1))
        for p in range(hi, 0, -1):
            if p * slots < remaining:
                break
            acc.append(p)
            rec(remaining - p, slots - 1, p, acc)
            acc.pop()

    rec(w, m, w, [])
    del rec  # a closure that calls itself is a reference cycle: free it on return
    return out


def r_polynomial(k: int, w: int) -> list[tuple[tuple[int, ...], int]]:
    """The charge-(k+1), weight-w generator as (monomial, multiplicity) pairs,
    each monomial y_(j1) ... y_(j(k+1)) given by its index tuple j1 >= j2 >= ...

    The multiplicity of the monomial with index multiset lam is the number
    of ordered (k+1)-tuples realizing lam: (k+1)! divided by the factorials
    of the index multiplicities.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if w < k + 1:
        raise ValueError(f"no generator of weight {w} < k+1 = {k + 1}")
    out = []
    for lam in partitions_exact(w, k + 1):
        mult = math.factorial(k + 1)
        for v in set(lam):
            mult //= math.factorial(lam.count(v))
        out.append((lam, mult))
    return out


def keyed_partitions(width: int) -> Callable[[int, int], list[tuple[int, int]]]:
    """keyed(n, p), memoized: the partitions of n into exactly p parts as
    (key, multiplicity) pairs, fewest ones first. Removing the j ones and
    lowering the other parts by 1 leaves a partition mu of n - p into p - j
    parts, so the key is (key(mu) + j) << width and the multiplicity (the
    number of ordered p-tuples) is C(p, j) * mult(mu)."""

    @functools.cache
    def keyed(n: int, p: int) -> list[tuple[int, int]]:
        if p < 1 or n < p:
            return [(0, 1)] if n == p == 0 else []
        return [((key + j) << width, math.comb(p, j) * mult)
                for j in range(p + 1) for key, mult in keyed(n - p, p - j)]

    return keyed


def koszul_floor(mu: int, k: int, width: int) -> int | None:
    """The least a >= k+1 whose least-key partition into k+1 parts,
    (q+1)^r q^(k+1-r) with a = (k+1)q + r, divides the monomial with key mu,
    or None if there is none, as for every monomial that meets Gordon's
    difference condition f_q + f_(q+1) <= k.

    Its least part q is the floor's: the least q with f_q >= 1 and
    f_q + f_(q+1) >= k+1, where the floor is (k+1)q + max(0, k+1 - f_q).
    """
    mask = (1 << width) - 1
    digits = mu >> width
    q, f_q = 1, digits & mask
    while digits:
        digits >>= width
        f_next = digits & mask
        if f_q and f_q + f_next > k:
            return (k + 1) * q + max(0, k + 1 - f_q)
        q, f_q = q + 1, f_next
    return None


def integer_matrix_rank(rows: list[dict[int, int]]) -> int:
    """Rank of an integer matrix given as sparse rows {column: coefficient}:
    the pivots of a sparse echelon basis.

    Each row is copied once, zero coefficients dropped, and then becomes the
    pivot of its leading column (divided by its content, leading coefficient
    positive, kept as that coefficient and the items of the rest) or is
    cross-multiplied against that pivot, with the gcd divided out, until it
    does or vanishes; rows itself is left unchanged.
    """
    pivots: dict[int, tuple[int, tuple[tuple[int, int], ...]]] = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                g = math.gcd(*row.values())
                beta = row.pop(lead)
                if beta < 0:
                    g = -g
                pivots[lead] = (beta // g, tuple((c, v // g) for c, v in row.items()))
                break
            alpha, tail = pivot
            beta = row.pop(lead)
            if alpha != 1:
                g = math.gcd(alpha, beta)
                alpha, beta = alpha // g, beta // g
                if alpha != 1:
                    row = {c: alpha * v for c, v in row.items()}
            get = row.get
            for c, v in tail:
                v = get(c, 0) - beta * v
                if v:
                    row[c] = v
                else:
                    del row[c]
    return len(pivots)


@dataclass(frozen=True)
class DimensionTable:
    """Exact quotient dimensions on a rectangular (charge, weight) window."""

    entries: tuple[tuple[int, ...], ...]  # entries[m][w]

    def to_biseries(self) -> BiSeries:
        """The table as a series with entries[m][w] at x^m q^w."""
        return BiSeries(len(self.entries) - 1, len(self.entries[0]) - 1, self.entries)


def hilbert_table(k: int, e: int, m_max: int, w_max: int) -> DimensionTable:
    """Fill the whole window of quotient dimensions for level k and exponent e.

    e is the exponent of the y_1 power generator (for the top member e = k+1
    it is redundant: the weight-(k+1) r-generator is exactly y_1^(k+1)).
    Each cell's basis is the partitions with fewer than e ones, fewest ones
    first, and its dimension is the size of that basis less the exact rank
    of the products mu * r_w over generators r_w and monomials mu of
    complementary bidegree, written as sparse rows in that basis.

    Only the products that the derivative and Koszul relations of the module
    docstring leave are built, and they are ranked in the order they are
    made, generator weight ascending and then mu in basis order.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if e not in range(1, k + 2):
        raise ValueError("need 1 <= e <= k+1")
    if m_max < 0 or w_max < 0:
        raise ValueError("window bounds must be nonnegative")
    # no part count reaches 2^width in a cell, so the key of mu * mono is the
    # key of mu plus the key of mono. Built weight by weight, ascending, each
    # list finds the lighter ones it needs memoized, so recursion stays shallow
    width = max(m_max, 1).bit_length()
    keyed = keyed_partitions(width)
    bases = [[[(key + j) << width for j in range(min(e, m + 1)) for key, _ in keyed(w - m, m - j)]
              for w in range(w_max + 1)] for m in range(m_max + 1)]
    # the part s of the derivative identity: a multiplier holding it, times
    # r_w with w != (k+1)s, gives a row in the span of heavier multipliers' rows
    s = 1 if e > 1 else 2
    shift, mask = width * s, (1 << width) - 1
    # a multiplier's Koszul floor, w_max + 1 where it has none, found when it
    # is first paired: mu * r_w with w above it is in the span of greater
    # multipliers' rows. The lambda does not refer to itself, so its memo is
    # freed on return
    floor = functools.cache(lambda mu: koszul_floor(mu, k, width) or w_max + 1)
    entries = []
    for m in range(m_max + 1):
        row_m = []
        for w in range(w_max + 1):
            basis = bases[m][w]
            column = dict(zip(basis, range(len(basis)))).get
            rows: list[dict[int, int]] = []
            # below charge k+1 no generator fits, and bases[m - k - 1] would
            # wrap around; a mu with e or more ones has no product in a basis.
            # The products of one mu with distinct monomials are distinct, so
            # each column of a row is set once
            for w_gen in range(k + 1, w + 1) if m > k else ():
                r_poly = keyed(w_gen, k + 1)
                prune = w_gen != (k + 1) * s
                for mu in bases[m - k - 1][w - w_gen]:
                    if prune and (mu >> shift) & mask or floor(mu) < w_gen:
                        continue
                    row: dict[int, int] = {}
                    for mono, mult in r_poly:
                        j = column(mu + mono)
                        if j is not None:
                            row[j] = mult
                    if row:
                        rows.append(row)
            row_m.append(len(basis) - integer_matrix_rank(rows))
        entries.append(tuple(row_m))
    keyed.cache_clear()  # the recursive closure is a reference cycle: free its memo now
    return DimensionTable(tuple(entries))
