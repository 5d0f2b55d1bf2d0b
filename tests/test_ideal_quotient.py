"""The ideal-quotient route: generators, exact rank, and dimension tables."""

import gc
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from qgordon import (
    andrews_gordon_multisum,
    hilbert_table,
    integer_matrix_rank,
    partitions_exact,
    r_polynomial,
    solve,
)
from qgordon import ideal_quotient
from qgordon.ideal_quotient import keyed_partitions, koszul_floor

# multisum at window (4, 10) for level 1, vacuum member; computed once by an
# independent brute-force tuple enumeration and frozen here
LEVEL1_E2_TABLE = {
    (0, 0): 1,
    (1, 1): 1, (1, 2): 1, (1, 3): 1, (1, 4): 1, (1, 5): 1,
    (1, 6): 1, (1, 7): 1, (1, 8): 1, (1, 9): 1, (1, 10): 1,
    (2, 4): 1, (2, 5): 1, (2, 6): 2, (2, 7): 2, (2, 8): 3,
    (2, 9): 3, (2, 10): 4,
    (3, 9): 1, (3, 10): 1,
}


def rational_rank(rows):
    """Plain Gaussian elimination over Fraction, as an independent rank oracle."""
    m = [[Fraction(c) for c in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [c * inv for c in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col]
                m[r] = [c - factor * p for c, p in zip(m[r], m[rank])]
        rank += 1
    return rank


def key_of(lam, width):
    """The oracle's integer key of the monomial y_lam."""
    return sum(1 << (width * j) for j in lam)


def basis_by_ones(w, m, e):
    """Partitions of w into exactly m parts with fewer than e ones, fewest
    ones first: the reference for the oracle's column order.

    Those with j ones are the partitions of w - m into m - j parts, each part
    raised by 1, followed by j ones; j runs 0, 1, ..., e - 1, so for every
    e' <= e the partitions with fewer than e' ones are a prefix of the list.
    """
    return [tuple(p + 1 for p in lam) + (1,) * j
            for j in range(min(e, m + 1))
            for lam in partitions_exact(w - m, m - j)]


def sparse(rows):
    """Dense integer rows as the {column: coefficient} rows the rank takes."""
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def test_partitions_exact():
    assert partitions_exact(4, 2) == [(3, 1), (2, 2)]
    assert partitions_exact(0, 0) == [()]
    assert partitions_exact(3, 0) == []
    assert partitions_exact(2, 3) == []
    assert partitions_exact(6, 3) == [(4, 1, 1), (3, 2, 1), (2, 2, 2)]


def test_partitions_exact_leaves_no_cyclic_garbage():
    # the recursive closure is deleted after the walk, so it and its list are
    # freed on return, not at the collector's next pass
    gc.collect()
    was = gc.isenabled()
    gc.disable()
    try:
        partitions_exact(10, 3)
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


def test_r_polynomial_small():
    assert r_polynomial(1, 2) == [((1, 1), 1)]
    assert r_polynomial(1, 3) == [((2, 1), 2)]
    assert r_polynomial(1, 4) == [((3, 1), 2), ((2, 2), 1)]
    with pytest.raises(ValueError):
        r_polynomial(1, 1)


def test_r_polynomial_multiplicities_count_orderings():
    # multiplicities must total the number of ordered tuples, i.e. the number
    # of compositions of w into k+1 positive parts
    for k in (1, 2, 3):
        for w in range(k + 1, k + 7):
            total = sum(mult for _, mult in r_polynomial(k, w))
            compositions = 0
            def count(rem, slots):
                nonlocal compositions
                if slots == 0:
                    compositions += rem == 0
                    return
                for p in range(1, rem - slots + 2):
                    count(rem - p, slots - 1)
            count(w, k + 1)
            assert total == compositions


def test_top_weight_generator_is_pure_power():
    # the smallest r generator coincides with y_1^(k+1)
    for k in (1, 2, 3, 4):
        assert r_polynomial(k, k + 1) == [((1,) * (k + 1), 1)]


def test_integer_matrix_rank_frozen():
    assert integer_matrix_rank([]) == 0
    for dense, rank in [
        ([[0, 0], [0, 0]], 0),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3),
        ([[2, 4], [1, 2]], 1),
        ([[2, 3], [3, 5]], 2),
        ([[0, 2, 1], [0, 4, 2], [1, 0, 7]], 2),
    ]:
        assert integer_matrix_rank(sparse(dense)) == rank == rational_rank(dense)


def test_integer_matrix_rank_pivot_cases():
    cases = [
        # negative leading coefficients, in the pivot and in the reduced row
        [{0: -2, 1: 3}, {0: 4, 1: -6}],
        [{0: -3, 2: 1}, {0: -1, 1: 5}, {1: -2, 2: 7}],
        # a pivot with lead 1 reused, the row reduced without scaling
        [{0: 1, 1: 2}, {0: 3, 1: 6}],
        [{0: 1, 1: 2}, {0: 3, 1: 5}, {0: -7, 1: 1, 2: 4}],
        # a primitive pivot with lead != 1 reused
        [{0: 2, 1: 3}, {0: 4, 1: 6}, {0: 6, 1: 1}],
        [{1: 6, 2: 4, 3: 10}, {1: 9, 2: 6, 3: 15}, {1: 4, 3: 1}],
        # empty rows and explicit zero coefficients
        [{}],
        [{}, {1: 5}, {}],
        [{0: 0, 1: 3}, {1: -6}],
    ]
    for rows in cases:
        cols = 1 + max((c for row in rows for c in row), default=-1)
        dense = [[row.get(c, 0) for c in range(cols)] for row in rows]
        before = [dict(row) for row in rows]
        assert integer_matrix_rank(rows) == rational_rank(dense), rows
        assert rows == before


def _sparse_row(rng, cols):
    return [rng.randrange(-5, 6) if rng.random() < 0.2 else 0 for _ in range(cols)]


def _combinations(rng, base, n_rows):
    """n_rows integer combinations of the base rows, so the rank is at most len(base)."""
    out = []
    for _ in range(n_rows):
        coeffs = [rng.randrange(-3, 4) for _ in base]
        out.append([sum(c * row[j] for c, row in zip(coeffs, base))
                    for j in range(len(base[0]))])
    return out


def _random_matrices(rng):
    for _ in range(200):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
        yield [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
    # sparse and rank-deficient, up to 40 x 25
    for _ in range(40):
        cols = rng.randrange(1, 26)
        base = [_sparse_row(rng, cols) for _ in range(rng.randrange(1, cols + 1))]
        yield _combinations(rng, base, rng.randrange(1, 41))
    # entries of about +-10^6, full rank and rank-deficient
    for _ in range(40):
        rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
        m = [[rng.randrange(-10**6, 10**6 + 1) for _ in range(cols)] for _ in range(rows)]
        yield m if rng.random() < 0.5 else _combinations(rng, m[:2], rows)
    # zero rows and repeated rows mixed into small matrices
    for _ in range(40):
        cols = rng.randrange(1, 7)
        m = [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rng.randrange(1, 5))]
        m += [[0] * cols] * rng.randrange(0, 3) + [list(rng.choice(m))] * rng.randrange(0, 3)
        rng.shuffle(m)
        yield m
    yield [[]]
    yield [[0] * 5] * 4


def test_integer_matrix_rank_randomized():
    rng = random.Random(1729)
    for m in _random_matrices(rng):
        rows = sparse(m)
        before = [dict(row) for row in rows]
        assert integer_matrix_rank(rows) == rational_rank(m), m
        assert rows == before


def test_basis_by_ones():
    # the partitions with fewer than e ones, each once, and the count of ones
    # never decreasing along the list, so every smaller exponent's basis is
    # a prefix
    for m in range(9):
        for w in range(21):
            for e in range(1, 6):
                basis = basis_by_ones(w, m, e)
                want = [lam for lam in partitions_exact(w, m) if lam.count(1) < e]
                assert sorted(basis) == sorted(want), (w, m, e)
                ones = [lam.count(1) for lam in basis]
                assert ones == sorted(ones), (w, m, e)


def test_cell_bases_are_basis_by_ones_as_keys():
    # a cell's basis is keyed(w, m) cut at e ones: the cut is a prefix of the
    # list, and its keys are those of basis_by_ones' partitions, each once
    m_max, w_max = 8, 20
    width = max(m_max, 1).bit_length()
    keyed = keyed_partitions(width)
    for e in range(1, 6):
        for m in range(m_max + 1):
            for w in range(w_max + 1):
                keys = [key for key, _ in keyed(w, m)]
                basis = [key for key in keys if (key >> width) & ((1 << width) - 1) < e]
                assert basis == keys[:len(basis)], (e, m, w)
                want = [key_of(lam, width) for lam in basis_by_ones(w, m, e)]
                assert sorted(basis) == sorted(want), (e, m, w)
                assert len(set(want)) == len(want), (e, m, w)


def test_keyed_partitions_lists_each_partition_once_fewest_ones_first():
    # keyed(n, p) is the partitions of n into exactly p parts, each once and
    # with its count of ones never decreasing along the list, so cutting it
    # at e ones leaves a prefix; with p = k+1 parts its multiplicities are
    # those of the generator r_polynomial(k, n)
    width = 4
    keyed = keyed_partitions(width)
    for n in range(21):
        for p in range(9):
            got = keyed(n, p)
            keys = [key for key, _ in got]
            assert len(set(keys)) == len(keys), (n, p)
            assert set(keys) == {key_of(lam, width) for lam in partitions_exact(n, p)}, (n, p)
            ones = [(key >> width) & ((1 << width) - 1) for key in keys]
            assert ones == sorted(ones), (n, p)
            if p >= 2 and n >= p:
                want = {key_of(lam, width): mult for lam, mult in r_polynomial(p - 1, n)}
                assert dict(got) == want, (n, p)


def test_ideal_span_examples():
    # the ideal's piece of bidegree (m, w) has dimension |partitions| - dim
    table = hilbert_table(1, 2, 2, 8)
    assert len(partitions_exact(2, 2)) - table.entries[2][2] == 1
    assert len(partitions_exact(4, 2)) - table.entries[2][4] == 1
    assert len(partitions_exact(0, 0)) - table.entries[0][0] == 0


def full_span_dimension(k, e, m, w):
    """Rank over Fraction of every product mu * g in bidegree (m, w), with
    one row for each generator g, the y_1^e monomial included."""
    basis = partitions_exact(w, m)
    index = {lam: j for j, lam in enumerate(basis)}
    gens = [(r_polynomial(k, wg), k + 1, wg) for wg in range(k + 1, w + 1)]
    if e is not None:
        gens.append(([((1,) * e, 1)], e, e))
    rows = []
    for terms, charge, weight in gens:
        for mu in partitions_exact(w - weight, m - charge):
            row = [0] * len(basis)
            for mono, mult in terms:
                row[index[tuple(sorted(mu + mono, reverse=True))]] += mult
            rows.append(row)
    return rational_rank(rows)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_ideal_span_matches_full_span_rank(k):
    # the full span without the y_1 power generator (e=None) must still
    # give the table of the top exponent k+1
    for e in [*range(1, k + 2), None]:
        table = hilbert_table(k, e or k + 1, 5, 12)
        for m in range(6):
            for w in range(13):
                want = len(partitions_exact(w, m)) - full_span_dimension(k, e, m, w)
                assert table.entries[m][w] == want, (e, m, w)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_hilbert_table_at_key_width_edges(k):
    # windows at and around each step of m_max's bit length (the key width),
    # and with m_max <= k, where no generator row exists (at k=3, m_max=3 the
    # width is 2 and the key of y_1^4 would carry). Only the top charge
    # m_max holds a part m_max times; it is checked against the full span
    # rank, and every cell against a window whose key is wider than any of
    # them needs
    for e in range(1, k + 2):
        wide = hilbert_table(k, e, 16, 18)
        for m_max in (0, 1, 2, 3, 4, 7, 8):
            w_max = 2 * m_max + 2
            table = hilbert_table(k, e, m_max, w_max)
            assert table.entries == tuple(row[:w_max + 1] for row in wide.entries[:m_max + 1])
            for w in range(w_max + 1):
                want = len(partitions_exact(w, m_max)) - full_span_dimension(k, e, m_max, w)
                assert table.entries[m_max][w] == want, (m_max, e, w)


def test_hilbert_table_at_weights_past_the_recursion_limit():
    # the keyed lists are built by weight ascending, so each finds the
    # lighter lists it needs memoized and no call recurses deeply
    w_max = sys.getrecursionlimit() + 100
    assert hilbert_table(1, 2, 2, w_max).to_biseries() == solve(1, 2, w_max).members[1]


def derivative_identity(k, n, weight=None):
    """sum_j (weight - j) * y_j * r_(n-j) over j >= 1, with weight(j) =
    n - (k+2) j by default, as {index tuple: coefficient} from r_polynomial,
    together with the same sum modulo y_1: the j = 1 term and every monomial
    holding y_1 left out."""
    weight = weight or (lambda j: n - (k + 2) * j)
    total, mod_y1 = Counter(), Counter()
    for j in range(1, n - k):
        for lam, mult in r_polynomial(k, n - j):
            mono = tuple(sorted(lam + (j,), reverse=True))
            total[mono] += weight(j) * mult
            if 1 not in mono:
                mod_y1[mono] += weight(j) * mult
    return total, mod_y1


def test_derivative_identity_of_the_generators():
    # Y * (Y^(k+1))' = (k+1) * Y^(k+1) * Y' at z^(n-1): the identity that
    # lets hilbert_table skip rows; it holds modulo y_1 as well, where the
    # j = 1 term is gone. With (k+1) in place of (k+2) it fails
    for k in range(1, 5):
        for n in range(k + 2, 15):
            total, mod_y1 = derivative_identity(k, n)
            assert total and not any(total.values()), (k, n)
            assert not any(mod_y1.values()), (k, n)
            if n > k + 2:
                wrong, _ = derivative_identity(k, n, lambda j: n - (k + 1) * j)
                assert any(wrong.values()), (k, n)


def unpruned_cells(k, e, m_max, w_max, skip=lambda mu, w_gen, width: False):
    """Each cell of the window as (m, w, basis, rows): its basis keys and, as
    sparse rows over them, every product mu * r_w except those
    skip(mu, w_gen, width) names. This is the row loop as it was before the
    derivative identity pruned it, kept as the reference."""
    width = max(m_max, 1).bit_length()
    keyed = keyed_partitions(width)
    bases = [[[(key + j) << width for j in range(min(e, m + 1)) for key, _ in keyed(w - m, m - j)]
              for w in range(w_max + 1)] for m in range(m_max + 1)]
    for m in range(m_max + 1):
        for w in range(w_max + 1):
            basis = bases[m][w]
            column = dict(zip(basis, range(len(basis)))).get
            rows = []
            for w_gen in range(k + 1, w + 1) if m > k else ():
                for mu in bases[m - k - 1][w - w_gen]:
                    if skip(mu, w_gen, width):
                        continue
                    row = {}
                    for mono, mult in keyed(w_gen, k + 1):
                        j = column(mu + mono)
                        if j is not None:
                            row[j] = mult
                    if row:
                        rows.append(row)
            yield m, w, basis, rows


def unpruned_table(k, e, m_max, w_max, skip=lambda mu, w_gen, width: False):
    """hilbert_table's entries with the rows of unpruned_cells ranked."""
    entries = [[] for _ in range(m_max + 1)]
    for m, _, basis, rows in unpruned_cells(k, e, m_max, w_max, skip):
        entries[m].append(len(basis) - integer_matrix_rank(rows))
    return tuple(map(tuple, entries))


@pytest.mark.parametrize("k", range(1, 7))
def test_pruned_rows_span_every_product(k):
    for m_max, w_max in [(6, 14), (8, 20), (10, 22)]:
        for e in range(1, k + 2):
            got = hilbert_table(k, e, m_max, w_max).entries
            assert got == unpruned_table(k, e, m_max, w_max), (e, m_max, w_max)


def derivative_rule(k, e):
    """The skip of unpruned_table that drops exactly the rows of the
    derivative rule: a multiplier holding the part s, with w_gen != (k+1)s."""
    s = 1 if e > 1 else 2

    def holds_s(mu, w_gen, width):
        return w_gen != (k + 1) * s and (mu >> width * s) & ((1 << width) - 1)

    return holds_s


def test_koszul_floor():
    # the part scan against a search for the least a >= k+1 whose least-key
    # partition into k+1 parts divides mu, on every multiplier of the window
    # (10, 22); a monomial has a floor exactly when it breaks Gordon's
    # difference condition f_q + f_(q+1) <= k
    m_max, w_max = 10, 22
    width = max(m_max, 1).bit_length()
    mask = (1 << width) - 1
    keyed = keyed_partitions(width)

    def divides(lam, mu):
        return all((lam >> width * j) & mask <= (mu >> width * j) & mask
                   for j in range(w_max + 1))

    for k in range(1, 5):
        for m in range(m_max + 1):
            for w in range(w_max + 1):
                for lam in partitions_exact(w, m):
                    mu = key_of(lam, width)
                    want = next((a for a in range(k + 1, w + 1)
                                 if divides(min(key for key, _ in keyed(a, k + 1)), mu)), None)
                    assert koszul_floor(mu, k, width) == want, (k, lam)
                    gordon = all(lam.count(q) + lam.count(q + 1) <= k for q in set(lam))
                    assert (want is None) == gordon, (k, lam)


def meets_gordon(key, level, width):
    """Whether f_j + f_(j+1) <= level for every part j of the monomial with
    this key, f_j the multiplicity of j: the digit of j in base 2^width."""
    mask = (1 << width) - 1
    f = [(key >> width * j) & mask for j in range(key.bit_length() // width + 2)]
    return all(a + b <= level for a, b in zip(f, f[1:]))


def gordon_basis_failures(k, e, m_max, w_max, level):
    """The cells (m, w) where the basis monomials that meet the difference
    condition at this level are not a basis of the quotient: their unit rows,
    after every product mu * r_w, must add one pivot each, and their number
    must be the dimension hilbert_table gives the cell."""
    width = max(m_max, 1).bit_length()
    table = hilbert_table(k, e, m_max, w_max).entries
    failed = []
    for m, w, basis, rows in unpruned_cells(k, e, m_max, w_max):
        units = [{j: 1} for j, key in enumerate(basis) if meets_gordon(key, level, width)]
        if len(units) != table[m][w] or integer_matrix_rank(rows + units) != len(basis):
            failed.append((m, w))
    return failed


@pytest.mark.parametrize("k", range(1, 5))
def test_gordon_monomials_are_a_basis_of_the_quotient(k):
    # Feigin-Stoyanovsky: at level k and exponent e, the monomials with fewer
    # than e ones and f_j + f_(j+1) <= k span the quotient independently. The
    # check is not vacuous: with level k+1 in the condition at e = k+1 it fails
    for e in range(1, k + 2):
        assert gordon_basis_failures(k, e, 8, 20, k) == [], e
    assert gordon_basis_failures(k, k + 1, 8, 20, k + 1)


def exact_sequence_failures(k, m_max, w_max, shift=0, members=None):
    """The cells where phi: A/I_(k-i+1) -> A/I_(i+1), phi(f) = y_1^i tau(f)
    with tau(y_j) = y_(j+1), is not well defined, not injective, or has an
    image other than the kernel of the projection A/I_(i+1) -> A/I_i, as
    three lists of (i, m, w) over the target cells, for each of the members
    i (by default 1..k) whose source exponent k - i + 1 + shift lies in
    1..k+1. This is the map of the paper's exact sequence
    0 -> A/I_(k-i+1) -> A/I_(i+1) -> A/I_i -> 0; at i = 0 it is tau from
    A/I_(k+1) to A/I_1.

    On keys, tau shifts a key left by width and y_1^i adds i ones, so phi
    sends the key K of charge m - i and weight w - m to (K + i) << width, a
    monomial with exactly i ones: one column of the target basis. After the
    target's relation rows, the images of the source ideal (its relation rows
    and its monomials with e or more ones) must add no pivot, then the images
    of the source basis must add as many pivots as the source cell's
    dimension, and the pivots not reached must be as many as the dimension of
    A/I_i in the target cell."""
    width = max(m_max, 1).bit_length()
    keyed = keyed_partitions(width)
    ill_defined, not_injective, not_exact = [], [], []
    for i in range(1, k + 1) if members is None else members:
        e = k - i + 1 + shift
        if not 1 <= e <= k + 1:
            continue
        dims = hilbert_table(k, e, m_max, w_max).entries
        # A/I_i, the cokernel of phi; A/I_0 is zero because I_0 holds 1
        quotient = (hilbert_table(k, i, m_max, w_max).entries if i
                    else [[0] * (w_max + 1)] * (m_max + 1))
        source = {(m, w): (basis, rows)
                  for m, w, basis, rows in unpruned_cells(k, e, m_max, w_max)}
        for m, w, target, relations in unpruned_cells(k, i + 1, m_max, w_max):
            if m < i or w < m:
                continue
            column = dict(zip(target, range(len(target))))
            m_src, w_src = m - i, w - m
            basis, rows = source[m_src, w_src]
            image = [column[(key + i) << width] for key in basis]
            in_ideal = [(key + j) << width for j in range(e, m_src + 1)
                        for key, _ in keyed(w_src - m_src, m_src - j)]
            ideal_rows = [{image[c]: v for c, v in row.items()} for row in rows]
            ideal_rows += [{column[(key + i) << width]: 1} for key in in_ideal]
            units = [{c: 1} for c in image]
            before = integer_matrix_rank(relations)
            defined = integer_matrix_rank(relations + ideal_rows)
            if defined != before:
                ill_defined.append((i, m, w))
            spanned = integer_matrix_rank(relations + ideal_rows + units)
            if spanned - defined != dims[m_src][w_src]:
                not_injective.append((i, m, w))
            if len(target) - spanned != quotient[m][w]:
                not_exact.append((i, m, w))
    return ill_defined, not_injective, not_exact


@pytest.mark.parametrize("k, m_max, w_max", [
    *((k, m_max, w_max) for m_max, w_max in [(6, 14), (10, 24)] for k in range(1, 6)),
    (2, 8, 20), (3, 8, 20),
])
def test_exact_sequences_of_the_members(k, m_max, w_max):
    # phi is well defined and injective for every member, and its image is
    # the kernel of the projection; at i = 0 that makes tau: A/I_(k+1) ->
    # A/I_1 an isomorphism cell by cell, which is F_0 = F_k(xq, q). It uses
    # the ideal's generators alone, never solve or the multisum
    assert exact_sequence_failures(k, m_max, w_max, members=range(k + 1)) == ([], [], [])


def test_exact_sequences_fail_at_a_wrong_source_exponent():
    # one too large: the source ideal is smaller, so phi stays well defined
    # but is not injective, in 53 cells at k=2 and 75 at k=3. One too small:
    # the source ideal holds more, first y_1 at k=2, i=1, whose image y_1 y_2
    # lies outside I_2. Likewise tau from A/I_k: y_1^k maps to y_2^k, which
    # meets the difference condition and so lies outside I_1, in 26 cells at
    # k=2 and 22 at k=3
    for k, cells in [(2, 53), (3, 75)]:
        ill_defined, not_injective, _ = exact_sequence_failures(k, 8, 20, shift=1)
        assert ill_defined == [] and len(not_injective) == cells, k
    ill_defined, _, _ = exact_sequence_failures(2, 8, 20, shift=-1)
    assert ill_defined[0] == (1, 2, 3)
    for k, cells in [(2, 26), (3, 22)]:
        ill_defined, _, _ = exact_sequence_failures(k, 8, 20, shift=-1, members=[0])
        assert len(ill_defined) == cells, k


def test_pruning_is_not_vacuous(monkeypatch):
    # hilbert_table ranks fewer rows than the reference, and fewer than the
    # derivative rule alone. The rows at r_((k+1)s) are what the derivative
    # identity cannot replace: skipping every multiplier that holds the part
    # s as well loses rank. That shows at e = 1 (s = 2); at e >= 2 (s = 1)
    # those rows are y_1^(k+1) * mu, with k+2 or more ones, and empty in
    # every basis. Likewise the Koszul relation r_a * r_b = r_b * r_a
    # replaces mu * r_b only for b above mu's floor a: skipping b = a as
    # well, through the trivial relation at a = b, loses rank
    m_max, w_max = 8, 20
    ranked = []
    rank = ideal_quotient.integer_matrix_rank

    def counting(rows):
        ranked[-1] += len(rows)
        return rank(rows)

    def rows_ranked(table, *args):
        ranked.append(0)
        table(*args)
        return ranked.pop()

    monkeypatch.setattr(ideal_quotient, "integer_matrix_rank", counting)
    monkeypatch.setitem(globals(), "integer_matrix_rank", counting)
    for k, e in [(2, 1), (2, 2), (3, 3)]:
        pruned = rows_ranked(hilbert_table, k, e, m_max, w_max)
        assert pruned < rows_ranked(unpruned_table, k, e, m_max, w_max), (k, e)
    for k, e in [(1, 1), (2, 2), (2, 3)]:
        pruned = rows_ranked(hilbert_table, k, e, m_max, w_max)
        derivative_only = rows_ranked(unpruned_table, k, e, m_max, w_max, derivative_rule(k, e))
        assert pruned < derivative_only, (k, e)
    monkeypatch.undo()

    k = 2
    for e, s, differs in [(1, 2, True), (2, 1, False)]:
        def holds_s(mu, w_gen, width, s=s):
            return (mu >> width * s) & ((1 << width) - 1)

        over_pruned = unpruned_table(k, e, m_max, w_max, holds_s)
        assert (over_pruned != hilbert_table(k, e, m_max, w_max).entries) == differs, e

    for k in range(1, 4):
        m_max = 2 * (k + 1) + 2
        for e in range(1, k + 2):
            def at_or_above_floor(mu, w_gen, width, derivative=derivative_rule(k, e)):
                floor = koszul_floor(mu, k, width)
                return derivative(mu, w_gen, width) or floor is not None and floor <= w_gen

            over_pruned = unpruned_table(k, e, m_max, w_max, at_or_above_floor)
            assert over_pruned != hilbert_table(k, e, m_max, w_max).entries, (k, e)


def test_hilbert_table_ranks_each_cell_once_through_the_module_global(monkeypatch):
    # the benchmark's tracer wraps ideal_quotient.integer_matrix_rank and
    # reads its rows: one call per cell, with a list of dict rows
    want = hilbert_table(2, 2, 4, 9)
    calls = []
    rank = ideal_quotient.integer_matrix_rank

    def counting(rows):
        calls.append(rows)
        return rank(rows)

    monkeypatch.setattr(ideal_quotient, "integer_matrix_rank", counting)
    assert hilbert_table(2, 2, 4, 9) == want
    assert len(calls) == 5 * 10
    for rows in calls:
        assert type(rows) is list
        assert all(type(row) is dict for row in rows)


def test_quotient_examples():
    table = hilbert_table(1, 2, 2, 8)
    for w in range(1, 9):
        assert table.entries[1][w] == 1
    assert table.entries[2][4] == 1
    assert hilbert_table(1, 1, 1, 4).entries[1][1] == 0


def test_hilbert_table_validation():
    with pytest.raises(ValueError):
        hilbert_table(1, 3, 2, 6)
    with pytest.raises(ValueError):
        hilbert_table(0, 1, 2, 6)
    with pytest.raises(ValueError):
        hilbert_table(1, 0, 2, 6)
    with pytest.raises(ValueError):
        hilbert_table(1, 1, -1, 6)
    with pytest.raises(ValueError):
        hilbert_table(1, None, 2, 6)


def test_hilbert_table_level_one_frozen():
    table = hilbert_table(1, 2, 4, 10)
    got = {(m, w): d for m, w, d in table.to_biseries().terms()}
    assert got == LEVEL1_E2_TABLE
    assert table.entries[0] == (1,) + (0,) * 10


def test_hilbert_table_matches_multisum_and_solver():
    for k, e_range, (mm, wm) in [(1, (1, 2), (4, 10)), (2, (1, 2, 3), (3, 8))]:
        fam = solve(k, mm, wm)
        for e in e_range:
            i = e - 1
            series = hilbert_table(k, e, mm, wm).to_biseries()
            assert series == andrews_gordon_multisum(k, i, mm, wm)
            assert series == fam.members[i]


def test_y_power_redundant_at_top_exponent():
    # omitting y_1^(k+1) changes nothing: it already appears among the r's
    for k in (1, 2):
        with_power = hilbert_table(k, k + 1, 3, 8)
        for m in range(4):
            for w in range(9):
                without = len(partitions_exact(w, m)) - full_span_dimension(k, None, m, w)
                assert with_power.entries[m][w] == without, (m, w)


def test_quotient_monotone_in_exponent():
    k, mm, wm = 2, 3, 8
    tables = [hilbert_table(k, e, mm, wm) for e in (1, 2, 3)]
    for lo, hi in zip(tables, tables[1:]):
        for m in range(mm + 1):
            for w in range(wm + 1):
                assert lo.entries[m][w] <= hi.entries[m][w]


def test_rank_bounds():
    table = hilbert_table(2, 2, 4, 9)
    for m in range(5):
        for w in range(10):
            assert 0 <= table.entries[m][w] <= len(partitions_exact(w, m))
