"""Pochhammer symbols, Gordon products, multisums, and partition counting."""

import random
from collections import Counter
from itertools import combinations_with_replacement
from math import ceil, log2
from typing import Iterator

import pytest

from qgordon import (
    BiSeries,
    GordonCondition,
    andrews_gordon_multisum,
    count_congruence_partitions,
    count_gordon_partitions,
    from_terms,
    gordon_partition_table,
    gordon_product,
    min_gordon_weight,
    monomial,
    one,
)
from qgordon import cli, qcombinat
from qgordon.series import div_one_minus_q_power


def brute_partitions(n):
    """All partitions of n, as weakly decreasing tuples."""
    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for p in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - p, p):
                yield (p,) + rest
    yield from rec(n, n)


def enumerated_congruence_count(cond, n):
    """Partitions of n into admissible parts, counted by recursive
    enumeration over the parts in decreasing order: the slow reference
    for the memoized count."""
    allowed = [p for p in range(n, 0, -1) if cond.allows_part(p)]

    def rec(remaining, start):
        if remaining == 0:
            return 1
        total = 0
        for j in range(start, len(allowed)):
            p = allowed[j]
            if p <= remaining:
                total += rec(remaining - p, j)
        return total

    return rec(n, 0)


def iter_gordon_partitions(cond: GordonCondition, n: int) -> Iterator[tuple[int, ...]]:
    """Enumerate partitions of n with difference >= 2 at distance l-1 and
    at most t-1 ones, as weakly decreasing tuples of positive parts, in
    decreasing lexicographic order.

    Parts are chosen largest-first; the distance condition only ever
    constrains the new part against the (l-1)-th most recent choice, so a
    sliding window of the last l-1 parts suffices.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    k = cond.l - 1
    max_ones = cond.t - 1

    def rec(remaining: int, cap: int, window: tuple[int, ...], ones: int, acc: list[int]):
        if remaining == 0:
            yield tuple(acc)
            return
        hi = min(remaining, cap)
        if len(window) == k:
            hi = min(hi, window[0] - 2)
        for p in range(hi, 0, -1):
            if p == 1 and ones >= max_ones:
                break
            acc.append(p)
            yield from rec(
                remaining - p, p, (window + (p,))[-k:], ones + (p == 1), acc
            )
            acc.pop()

    yield from rec(n, n, (), 0, [])


def test_gordon_condition_validation():
    cond = GordonCondition(3, 2)
    assert cond.level == 2 and cond.modulus == 7
    assert cond.excluded_residues == frozenset({0, 2, 5})
    with pytest.raises(ValueError):
        GordonCondition(1, 1)
    with pytest.raises(ValueError):
        GordonCondition(2, 3)


def q_pochhammer(n, R, N):
    """(q)_n = (1-q)(1-q^2)...(1-q^n) on the window (R, N), multiplied out
    factor by factor with BiSeries.__mul__: no row kernel is involved."""
    out = one(R, N)
    for i in range(1, n + 1):
        out = out * from_terms(R, N, {(0, 0): 1, (0, i): -1} if i <= N else {(0, 0): 1})
    return out


def reciprocal_q_pochhammer(n, R, N):
    """1/(q)_n as the product of the geometric series 1 + q^i + q^2i + ...
    for i = 1..n, each written out with from_terms and multiplied with
    BiSeries.__mul__: the kernel-free reference for 1/(q)_n."""
    out = one(R, N)
    for i in range(1, n + 1):
        out = out * from_terms(R, N, {(0, b): 1 for b in range(0, N + 1, i)})
    return out


def kernel_reciprocal(n, N):
    """1/(q)_n as a row of length N + 1, divided by 1 - q^i for i = 1..n in
    the row kernel."""
    row = [1] + [0] * N
    for i in range(1, n + 1):
        div_one_minus_q_power(row, i)
    return row


def test_pochhammer():
    assert list(q_pochhammer(0, 0, 5).row(0)) == [1, 0, 0, 0, 0, 0]
    assert list(q_pochhammer(1, 0, 5).row(0)) == [1, -1, 0, 0, 0, 0]
    assert list(q_pochhammer(3, 0, 6).row(0)) == [1, -1, -1, 0, 1, 1, -1]
    # the kernel's divisions undo the factors, back to 1
    row = list(q_pochhammer(3, 0, 6).row(0))
    for i in range(1, 4):
        div_one_minus_q_power(row, i)
    assert row == [1, 0, 0, 0, 0, 0, 0]


def test_inverse_pochhammer():
    assert kernel_reciprocal(0, 4) == [1, 0, 0, 0, 0]
    # partitions into parts <= 2, against a direct enumeration
    expected = [
        sum(1 for p in brute_partitions(w) if all(x <= 2 for x in p)) for w in range(7)
    ]
    assert expected == [1, 1, 2, 2, 3, 3, 4]
    assert kernel_reciprocal(2, 6) == expected
    assert list(reciprocal_q_pochhammer(2, 0, 6).row(0)) == expected


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
def test_pochhammer_inverse_property(n):
    N = 12
    inverse = BiSeries(0, N, [kernel_reciprocal(n, N)])
    assert q_pochhammer(n, 0, N) * inverse == one(0, N)
    assert inverse == reciprocal_q_pochhammer(n, 0, N)


def test_gordon_product_frozen():
    # parts congruent to +-1 mod 5
    got = gordon_product(GordonCondition(2, 2), 10)
    assert list(got.row(0)) == [1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6]
    # parts congruent to +-2 mod 5
    got = gordon_product(GordonCondition(2, 1), 8)
    assert list(got.row(0)) == [1, 0, 1, 1, 1, 1, 2, 2, 3]


def test_gordon_product_empty_window():
    for l, t in [(2, 1), (3, 3), (4, 2)]:
        assert gordon_product(GordonCondition(l, t), 0) == one(0, 0)


@pytest.mark.parametrize("l,t", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_gordon_product_matches_congruence_counts(l, t):
    cond = GordonCondition(l, t)
    N = 16
    prod = gordon_product(cond, N)
    for n in range(N + 1):
        assert prod.coeff(0, n) == count_congruence_partitions(cond, n)


def test_multisum_trivial_window():
    for k, i in [(1, 0), (2, 2), (3, 1)]:
        assert andrews_gordon_multisum(k, i, 0, 6) == one(0, 6)


def test_multisum_level_one_closed_form():
    # sum over n of x^n q^(n^2) / (q)_n, assembled directly from series ops
    R, N = 5, 20
    expected = one(R, N)
    for n in range(1, R + 1):
        if n * n > N:
            break
        expected = expected + reciprocal_q_pochhammer(n, R, N) * monomial(n, n * n, R, N)
    assert expected == andrews_gordon_multisum(1, 1, R, N)


def literal_multisum(k, i, R, N):
    """The Andrews-Gordon sum term by term: one x^m q^E / prod (q)_d for
    every tuple N_1 >= ... >= N_k >= 0, built from from_terms, + and *
    only, so it shares no code with the row kernel the multisum runs.
    Entries above R put the x-power outside the window, so the tuples with
    entries <= R are all of them."""
    total = from_terms(R, N, {})
    for tup in combinations_with_replacement(range(R, -1, -1), k):
        m = sum(tup)
        energy = sum(v * v for v in tup) + sum(tup[i:])
        if m > R or energy > N:
            continue
        term = reciprocal_q_pochhammer(tup[-1], R, N) * monomial(m, energy, R, N)
        for j in range(k - 1):
            term = term * reciprocal_q_pochhammer(tup[j] - tup[j + 1], R, N)
        total = total + term
    return total


@pytest.mark.parametrize("k", [1, 2, 3])
def test_multisum_against_the_literal_sum(k):
    for i in range(k + 1):
        for R, N in [(0, 0), (0, 7), (5, 0), (6, 20)]:
            assert andrews_gordon_multisum(k, i, R, N) == literal_multisum(k, i, R, N)


def test_multisum_k2_single_tuple_row():
    # coefficient of x^1 comes from the tuple (1, 0) alone: q/(1-q)
    s = andrews_gordon_multisum(2, 2, 3, 10)
    assert list(s.row(1)) == [0] + [1] * 10


def test_multisum_validation():
    with pytest.raises(ValueError):
        andrews_gordon_multisum(0, 0, 2, 2)
    with pytest.raises(ValueError):
        andrews_gordon_multisum(2, 3, 2, 2)
    with pytest.raises(ValueError):
        andrews_gordon_multisum(2, 1, -1, 5)
    with pytest.raises(ValueError):
        andrews_gordon_multisum(2, 1, 3, -1)


def test_multisum_nonnegative():
    for k, i in [(1, 0), (2, 1), (3, 3)]:
        s = andrews_gordon_multisum(k, i, 6, 15)
        assert all(c >= 0 for _, _, c in s.terms())


def test_count_gordon_examples():
    cond = GordonCondition(2, 2)
    assert count_gordon_partitions(cond, 0) == 1
    assert count_gordon_partitions(cond, 4) == 2
    assert list(iter_gordon_partitions(cond, 4)) == [(4,), (3, 1)]
    assert count_gordon_partitions(GordonCondition(3, 1), 3) == 1


def test_count_gordon_refined():
    cond = GordonCondition(2, 2)
    table = gordon_partition_table(cond, 13, 11)
    assert (table.x_order, table.q_order) == (13, 11)
    assert table.coeff(0, 0) == 1
    assert table.coeff(0, 5) == 0
    assert table.coeff(2, 4) == 1
    for n in range(12):
        total = sum(table.coeff(m, n) for m in range(14))
        assert total == count_gordon_partitions(cond, n)
    # every part weighs at least 1, so more parts than weight counts nothing
    for n in range(12):
        assert all(table.coeff(m, n) == 0 for m in range(n + 1, 14))
    # a smaller window, in parts or in weight, is the same table cut down
    for R, N in [(0, 0), (0, 11), (3, 11), (13, 4), (5, 0)]:
        assert gordon_partition_table(cond, R, N) == table.restrict(R, N)
    for R, N in [(-1, 0), (-1, 3), (3, -1), (0, -1)]:
        with pytest.raises(ValueError):
            gordon_partition_table(cond, R, N)


def test_count_congruence_examples():
    assert count_congruence_partitions(GordonCondition(3, 2), 0) == 1
    assert count_congruence_partitions(GordonCondition(2, 2), 4) == 2
    assert count_congruence_partitions(GordonCondition(2, 1), 4) == 1


def test_counts_against_unfiltered_brute_force():
    # same counts out of a completely independent enumeration of all partitions
    for l, t in [(2, 2), (3, 1), (3, 3), (4, 2)]:
        cond = GordonCondition(l, t)
        k = l - 1
        table = gordon_partition_table(cond, 16, 14)
        for n in range(15):
            expected_gordon = []
            expected_cong = 0
            for parts in brute_partitions(n):
                if all(
                    parts[j] - parts[j + k] >= 2 for j in range(len(parts) - k)
                ) and sum(1 for p in parts if p == 1) <= t - 1:
                    expected_gordon.append(parts)
                if all(cond.allows_part(p) for p in parts):
                    expected_cong += 1
            # same partitions, as weakly decreasing tuples, in the same order
            assert list(iter_gordon_partitions(cond, n)) == expected_gordon
            assert count_gordon_partitions(cond, n) == len(expected_gordon)
            by_parts = Counter(map(len, expected_gordon))
            for m in range(n + 2):
                assert table.coeff(m, n) == by_parts[m]
            assert count_congruence_partitions(cond, n) == expected_cong


@pytest.mark.parametrize("l,t,n_max", [
    *[(l, t, 30) for l in (2, 3, 4, 6) for t in range(1, l + 1)],
    *[(3, t, 40) for t in (1, 2, 3)],
])
def test_counts_against_the_enumerators(l, t, n_max):
    cond = GordonCondition(l, t)
    table = gordon_partition_table(cond, 21, 20)
    for n in range(n_max + 1):
        partitions = list(iter_gordon_partitions(cond, n))
        assert count_gordon_partitions(cond, n) == len(partitions)
        assert count_congruence_partitions(cond, n) == enumerated_congruence_count(cond, n)
        if n <= 20:
            by_parts = Counter(map(len, partitions))
            for m in range(n + 2):
                assert table.coeff(m, n) == by_parts[m]


@pytest.mark.parametrize("l,t", [(l, t) for l in (2, 3, 6) for t in range(1, l + 1)])
def test_gordon_rows_fold_the_parts_past_the_last_row(l, t):
    # the one transfer behind both the weight row and the table by parts:
    # row c < parts - 1 counts exactly c parts, the last row the rest
    cond = GordonCondition(l, t)
    by_weight = [Counter(map(len, iter_gordon_partitions(cond, w))) for w in range(17)]
    for n in range(17):
        for parts in sorted({1, 2, 3, n + 1, n + 3}):
            rows = qcombinat._gordon_rows(cond, n, parts)
            assert len(rows) == parts
            for w in range(n + 1):
                expected = [by_weight[w][c] for c in range(parts - 1)]
                expected.append(sum(v for c, v in by_weight[w].items() if c >= parts - 1))
                assert [row[w] for row in rows] == expected, (n, parts, w)
            assert tuple(map(sum, zip(*rows))) == qcombinat._gordon_weights(cond, n)


@pytest.mark.parametrize("l,t,n_max", [(3, 1, 200), (3, 2, 200), (3, 3, 200), (60, 60, 60)])
def test_counts_against_the_product(l, t, n_max):
    # at l = t = 60 and n <= 60 only the partition of 60 into ones breaks
    # the frequency conditions: the transfer's rows are cut by f_j <= n // j,
    # not by l
    cond = GordonCondition(l, t)
    product = list(gordon_product(cond, n_max).row(0))
    assert [count_gordon_partitions(cond, n) for n in range(n_max + 1)] == product
    assert [count_congruence_partitions(cond, n) for n in range(n_max + 1)] == product


# The counters answer each n from a weight row built once per power-of-two
# size, so each weight is checked on both sides of the sizes 64 and 128.
# Past 65 the Gordon enumerator takes seconds per weight even at l=2, t=1,
# so there both counts are checked against the congruence enumeration,
# which Gordon's identity makes equal to the Gordon count.
ORDER_CONDITIONS = [(2, 1), (2, 2), (3, 1)]
ORDER_WEIGHTS = [0, 1, 2, 3, 4, 5, 31, 32, 33, 63, 64, 65]
ORDER_TALL_WEIGHTS = [127, 128, 129]


@pytest.fixture(scope="module")
def enumerated_counts():
    """(l, t, n) -> (Gordon count, congruence count), both enumerated."""
    counts = {}
    for l, t in ORDER_CONDITIONS:
        cond = GordonCondition(l, t)
        for n in ORDER_WEIGHTS:
            gordon = sum(1 for _ in iter_gordon_partitions(cond, n))
            counts[l, t, n] = gordon, enumerated_congruence_count(cond, n)
    congruence = {n: enumerated_congruence_count(GordonCondition(2, 1), n)
                  for n in ORDER_TALL_WEIGHTS}
    counts.update({(2, 1, n): (c, c) for n, c in congruence.items()})
    return counts


def _calls(order, rng):
    """(l, t, n) in the named order, over every enumerated weight."""
    cases = [(l, t, n) for l, t in ORDER_CONDITIONS for n in ORDER_WEIGHTS]
    cases = sorted(cases + [(2, 1, n) for n in ORDER_TALL_WEIGHTS])
    if order == "ascending":
        return cases
    if order == "descending":
        return sorted(cases, key=lambda c: (c[:2], -c[2]))
    if order == "shuffled":
        rng.shuffle(cases)
        return cases
    if order == "repeated":
        return [c for c in cases for _ in range(3)]
    # interleaved: the conditions take turns, each in a shuffled order of
    # its own weights
    by_condition = [[c for c in cases if c[:2] == lt] for lt in ORDER_CONDITIONS]
    for calls in by_condition:
        rng.shuffle(calls)
    out = []
    while any(by_condition):
        for calls in by_condition:
            if calls:
                out.append(calls.pop())
    return out


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled", "repeated",
                                   "interleaved"])
def test_counts_do_not_depend_on_call_order(order, enumerated_counts):
    qcombinat._gordon_weights.cache_clear()
    qcombinat._congruence_weights.cache_clear()
    calls = _calls(order, random.Random(order))
    assert sorted(set(calls)) == sorted(enumerated_counts)
    for l, t, n in calls:
        cond = GordonCondition(l, t)
        got = count_gordon_partitions(cond, n), count_congruence_partitions(cond, n)
        assert got == enumerated_counts[l, t, n], (l, t, n)


def test_verify_gordon_builds_few_tables(capsys):
    # q = 0..200 needs the sizes 1, 2, 4, ..., 256 and nothing else
    qcombinat._gordon_weights.cache_clear()
    qcombinat._congruence_weights.cache_clear()
    assert cli.main(["verify-gordon", "--l", "6", "--t", "3", "--qmax", "200"]) == 0
    assert capsys.readouterr().out.count("\tmatch\n") == 3
    for helper in (qcombinat._gordon_weights, qcombinat._congruence_weights):
        assert 0 < helper.cache_info().misses <= ceil(log2(200)) + 2


def test_count_edge_cases():
    for l, t in [(2, 1), (3, 2), (5, 5)]:
        cond = GordonCondition(l, t)
        assert count_gordon_partitions(cond, 0) == 1
        assert count_congruence_partitions(cond, 0) == 1
        with pytest.raises(ValueError):
            count_gordon_partitions(cond, -1)
        with pytest.raises(ValueError):
            count_congruence_partitions(cond, -1)
    # t = 1 allows no part equal to 1: nothing weighs 1, and of 2 only (2,)
    for l in (2, 4, 60):
        cond = GordonCondition(l, 1)
        assert count_gordon_partitions(cond, 1) == 0
        assert count_congruence_partitions(cond, 1) == 0
        assert count_gordon_partitions(cond, 2) == 1
        assert count_congruence_partitions(cond, 2) == 1


def test_gordon_identity_small_range():
    # both sides of the identity agree for every parameter choice, including t = l
    for l in (2, 3, 4):
        for t in range(1, l + 1):
            cond = GordonCondition(l, t)
            for n in range(31):
                assert count_gordon_partitions(cond, n) == count_congruence_partitions(
                    cond, n
                )


@pytest.mark.parametrize("l,t,R,N", [
    *[pytest.param(l, t, 5, 12, id=f"{l}-{t}") for l, t in [(2, 1), (2, 2), (3, 2), (4, 4)]],
    *[pytest.param(l, t, R, N, id=f"{l}-{t}-{R}-{N}") for l, t, R, N in [
        (3, 2, 8, 40), (4, 4, 8, 40), (5, 1, 8, 40),
        (3, 3, 0, 0), (2, 2, 0, 9), (4, 1, 7, 0), (6, 3, 31, 200),
    ]],
])
def test_multisum_matches_refined_counts(l, t, R, N):
    cond = GordonCondition(l, t)
    assert andrews_gordon_multisum(l - 1, t - 1, R, N) == gordon_partition_table(cond, R, N)


@pytest.mark.parametrize("t", [1, 4, 8])
def test_multisum_with_more_levels_than_the_window_holds(t):
    # level 7 at x <= 3: a tuple has at most 3 nonzero entries, so the
    # multisum enumerates 3 levels and must still count every partition
    cond = GordonCondition(8, t)
    R, N = 3, 12
    assert andrews_gordon_multisum(7, t - 1, R, N) == gordon_partition_table(cond, R, N)


def test_inverse_pochhammer_monotone_in_n():
    N = 10
    prev = kernel_reciprocal(0, N)
    for n in range(1, 7):
        cur = kernel_reciprocal(n, N)
        assert all(c >= p for c, p in zip(cur, prev))
        prev = cur


def test_min_gordon_weight():
    assert min_gordon_weight(1, 0) == 0
    assert min_gordon_weight(1, 13) == 169
    assert min_gordon_weight(2, 13) == 85
    assert min_gordon_weight(3, 13) == 57
    assert min_gordon_weight(4, 13) == 43
    # attained for the most permissive ones-count (t = l)
    for l in (2, 3):
        table = gordon_partition_table(GordonCondition(l, l), 4, 59)
        for m in range(1, 5):
            attained = next(n for n in range(0, 60) if table.coeff(m, n) > 0)
            assert attained == min_gordon_weight(l - 1, m)
    # and a valid lower bound for stricter t
    for l in (2, 3):
        for t in range(1, l + 1):
            table = gordon_partition_table(GordonCondition(l, t), 4, 59)
            for m in range(1, 5):
                for n in range(min_gordon_weight(l - 1, m)):
                    assert table.coeff(m, n) == 0
