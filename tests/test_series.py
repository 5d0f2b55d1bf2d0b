"""Core ring operations on truncated bivariate series."""

import copy
import json
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from qgordon import (
    BiSeries,
    GordonCondition,
    andrews_gordon_multisum,
    from_terms,
    gordon_partition_table,
    gordon_product,
    hilbert_table,
    monomial,
    one,
    solve,
    specialize_x,
    zero,
)
from qgordon.series import MAX_CELLS, div_one_minus_q_power


def brute_poly_mul(u, v, N):
    """Dict-based truncated polynomial product, independent of BiSeries.mul."""
    out = {}
    for a, ca in u.items():
        for b, cb in v.items():
            if a + b <= N:
                out[a + b] = out.get(a + b, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def count_difference_two_partitions(n):
    """Partitions of n whose successive parts differ by at least 2."""
    def rec(remaining, cap):
        if remaining == 0:
            return 1
        return sum(rec(remaining - p, p - 2) for p in range(1, min(remaining, cap) + 1))
    return rec(n, n)


def test_zero_and_one():
    z = zero(2, 2)
    assert all(z.coeff(a, b) == 0 for a in range(3) for b in range(3))
    u = one(0, 0)
    assert u.coeff(0, 0) == 1
    assert one(3, 5).coeff(1, 1) == 0
    assert one(3, 5).coeff(0, 0) == 1


def test_mul_identity():
    s = from_terms(2, 3, {(0, 0): 1, (1, 1): 4, (2, 3): -7})
    assert one(2, 3) * s == s
    assert s * one(2, 3) == s


def test_mul_telescoping():
    N = 7
    geometric = from_terms(0, N, {(0, j): 1 for j in range(N + 1)})
    one_minus_q = from_terms(0, N, {(0, 0): 1, (0, 1): -1})
    assert one_minus_q * geometric == one(0, N)


def test_mul_chain_against_brute_force():
    # (1-q)(1-q^2)(1-q^3) expanded by an independent dict-based oracle
    expected = {0: 1}
    for i in (1, 2, 3):
        expected = brute_poly_mul(expected, {0: 1, i: -1}, 6)
    assert expected == {0: 1, 1: -1, 2: -1, 4: 1, 5: 1, 6: -1}
    s = one(0, 6)
    for i in (1, 2, 3):
        s = s * from_terms(0, 6, {(0, 0): 1, (0, i): -1})
    assert list(s.row(0)) == [1, -1, -1, 0, 1, 1, -1]


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        one(2, 3) + one(2, 4)
    with pytest.raises(ValueError):
        one(2, 3) * one(3, 3)


def test_qshift_examples():
    s = from_terms(3, 8, {(0, 0): 2, (1, 1): 5, (2, 2): -1})
    assert s.qshift(0) == s

    xq = monomial(1, 1, 2, 4)
    assert xq.qshift(1) == monomial(1, 2, 2, 4)

    s = from_terms(2, 8, {(0, 0): 1, (1, 1): 1, (2, 4): 1})
    assert s.qshift(2) == from_terms(2, 8, {(0, 0): 1, (1, 3): 1, (2, 8): 1})
    # same shift with a tighter q-window drops the top term
    t = from_terms(2, 6, {(0, 0): 1, (1, 1): 1, (2, 4): 1})
    assert t.qshift(2) == from_terms(2, 6, {(0, 0): 1, (1, 3): 1})


def test_qshift_negative_rejected():
    with pytest.raises(ValueError):
        one(1, 1).qshift(-1)


def test_mul_monomial():
    s = from_terms(2, 3, {(0, 0): 3, (1, 2): 1})
    assert s.mul_monomial(0, 0) == s
    assert one(1, 2).mul_monomial(1, 1) == monomial(1, 1, 1, 2)
    t = from_terms(2, 3, {(0, 0): 1, (1, 1): 1})
    assert t.mul_monomial(1, 1) == from_terms(2, 3, {(1, 1): 1, (2, 2): 1})
    # agrees with multiplication by the monomial series
    assert s.mul_monomial(1, 1) == s * monomial(1, 1, 2, 3)
    # a0 beyond the window leaves the zero series of the same window
    assert s.mul_monomial(3, 0) == zero(2, 3)
    assert s.mul_monomial(7, 1) == zero(2, 3)


def test_invert_one_minus_q_power():
    # the row kernel's division, undone by the factor through BiSeries.__mul__
    unit = [1, 0, 0, 0, 0]
    div_one_minus_q_power(unit, 1)
    assert unit == [1, 1, 1, 1, 1]
    unit = [1, 0, 0, 0, 0, 0, 0, 0]
    div_one_minus_q_power(unit, 3)
    assert unit == [1, 0, 0, 1, 0, 0, 1, 0]
    original = [3, -1, 0, 7, 2, 0, -5, 1, 0, 4]
    N = len(original) - 1
    for i in (1, 2, 5, N, N + 1, N + 7):
        row = original[:]
        div_one_minus_q_power(row, i)
        # past the row's length, 1 - q^i is 1 in the window
        factor = from_terms(0, N, {(0, 0): 1, (0, i): -1} if i <= N else {(0, 0): 1})
        assert factor * BiSeries(0, N, [row]) == BiSeries(0, N, [original])
    for i in (0, -1):
        with pytest.raises(ValueError):
            div_one_minus_q_power([1, 2, 3], i)


def test_specialize_monomial():
    xq = monomial(1, 1, 2, 4)
    s1, dropped1 = specialize_x(xq, "x=1")
    assert s1 == monomial(0, 1, 0, 4) and dropped1 == 0
    sq, dropped2 = specialize_x(xq, "x=q")
    assert sq == monomial(0, 2, 0, 4) and dropped2 == 0


def test_specialize_x1_of_solved_series():
    # the x=1 specialization counts partitions with difference >= 2,
    # verified against a direct brute-force partition count
    fam = solve(1, 9, 9)
    spec, dropped = specialize_x(fam.members[1], "x=1")
    assert dropped == 0
    expected = [count_difference_two_partitions(n) for n in range(10)]
    assert expected == [1, 1, 1, 1, 2, 2, 3, 3, 4, 5]
    assert list(spec.row(0)) == expected


def test_specialize_xq_drop_count():
    s = from_terms(3, 3, {(0, 0): 1, (3, 3): 7, (2, 3): 5})
    sq, dropped = specialize_x(s, "x=q")
    assert dropped == 2  # both high terms land past q^3
    assert sq == one(0, 3)


def per_term_specialization(series, mode):
    """specialize_x's q-coefficients and drop count, term by term through
    coeff(): x=1 keeps q^b, x=q moves x^a q^b to q^(a+b)."""
    N = series.q_order
    out = [0] * (N + 1)
    dropped = 0
    for a in range(series.x_order + 1):
        for b in range(N + 1):
            c = series.coeff(a, b)
            target = b if mode == "x=1" else a + b
            if target <= N:
                out[target] += c
            elif c:
                dropped += 1
    return out, dropped


@st.composite
def series_with_signs(draw):
    N = draw(st.integers(0, 6))
    R = draw(st.integers(0, 7))
    cells = st.lists(st.integers(-9, 9), min_size=N + 1, max_size=N + 1)
    return BiSeries(R, N, draw(st.lists(cells, min_size=R + 1, max_size=R + 1)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(series_with_signs(), st.sampled_from(["x=1", "x=q"]))
@example(BiSeries(0, 0, [[-3]]), "x=1")
@example(BiSeries(0, 0, [[-3]]), "x=q")
@example(BiSeries(2, 2, [[1, -2, 3], [-4, 5, -6], [7, -8, 9]]), "x=1")
@example(BiSeries(2, 2, [[1, -2, 3], [-4, 5, -6], [7, -8, 9]]), "x=q")
def test_specialize_x_matches_the_per_term_sum(series, mode):
    if mode == "x=q" and series.x_order > series.q_order:
        with pytest.raises(ValueError):
            specialize_x(series, mode)
        return
    spec, dropped = specialize_x(series, mode)
    out, expected_dropped = per_term_specialization(series, mode)
    assert spec == BiSeries(0, series.q_order, [out])
    assert dropped == expected_dropped


def test_specialize_xq_requires_wide_q_window():
    with pytest.raises(ValueError):
        specialize_x(one(4, 2), "x=q")
    with pytest.raises(ValueError):
        specialize_x(one(1, 1), "x=2")


def test_restrict():
    s = from_terms(3, 4, {(0, 0): 1, (1, 1): 2, (3, 4): 9})
    r = s.restrict(1, 2)
    assert r == from_terms(1, 2, {(0, 0): 1, (1, 1): 2})
    assert s.restrict(0, 0) == one(0, 0)
    with pytest.raises(ValueError):
        s.restrict(4, 4)


# every builder that takes its window from the caller, and restrict
WINDOW_BUILDERS = {
    "zero": lambda R, N: zero(R, N),
    "one": lambda R, N: one(R, N),
    "monomial": lambda R, N: monomial(0, 0, R, N),
    "from_terms": lambda R, N: from_terms(R, N, {}),
    "andrews_gordon_multisum": lambda R, N: andrews_gordon_multisum(2, 1, R, N),
    "solve": lambda R, N: solve(2, R, N),
    "gordon_product": lambda R, N: gordon_product(GordonCondition(3, 2), N),
    "gordon_partition_table": lambda R, N: gordon_partition_table(GordonCondition(3, 2), R, N),
    "restrict": lambda R, N: one(2, 2).restrict(R, N),
}
Q_ONLY_BUILDERS = {"gordon_product"}
NEGATIVE_WINDOWS = [(0, -1), (-1, 0), (2, -1), (-1, 2), (-2, -2)]


@pytest.mark.parametrize(
    "name, window",
    [
        pytest.param(name, (R, N), id=f"{name}-{R},{N}")
        for name in sorted(WINDOW_BUILDERS)
        for R, N in NEGATIVE_WINDOWS
        if N < 0 or name not in Q_ONLY_BUILDERS
    ],
)
def test_builders_reject_negative_orders(name, window):
    with pytest.raises(ValueError):
        WINDOW_BUILDERS[name](*window)


def test_public_constructor_rejects_non_int_coefficients():
    with pytest.raises(TypeError):
        BiSeries(0, 1, [[1, 0.5]])
    with pytest.raises(TypeError):
        from_terms(0, 2, {(0, 0): 1.5})
    # bool is an int subclass, but True would serialise as "True"
    with pytest.raises(TypeError):
        BiSeries(0, 1, [[True, 0]])
    with pytest.raises(TypeError):
        from_terms(0, 2, {(0, 1): False})


def test_equality_and_hash():
    a = from_terms(1, 1, {(0, 0): 1})
    b = one(1, 1)
    assert a == b and hash(a) == hash(b)
    assert a != one(1, 2)
    assert a != zero(1, 1)


def test_immutability():
    s = one(1, 1)
    with pytest.raises(AttributeError):
        s.x_order = 5
    with pytest.raises(AttributeError):
        s._rows = ((0, 0), (0, 0))
    with pytest.raises(AttributeError):
        del s.x_order
    assert s == one(1, 1)


@pytest.mark.parametrize(
    "duplicate",
    [
        pytest.param(copy.copy, id="copy"),
        pytest.param(copy.deepcopy, id="deepcopy"),
        pytest.param(lambda v: pickle.loads(pickle.dumps(v, 2)), id="pickle-2"),
        pytest.param(lambda v: pickle.loads(pickle.dumps(v, pickle.HIGHEST_PROTOCOL)),
                     id="pickle-highest"),
    ],
)
@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: one(1, 2), id="one"),
        pytest.param(lambda: solve(2, 3, 5).members[1], id="solved-member"),
        pytest.param(lambda: solve(2, 3, 5), id="solved-family"),
    ],
)
def test_copies_and_pickles_are_equal_values(duplicate, make):
    value = make()
    twin = duplicate(value)
    assert twin == value and hash(twin) == hash(value)


def test_json_round_trip():
    s = from_terms(2, 3, {(0, 0): 1, (1, 2): -12345678901234567890, (2, 3): 4})
    obj = s.to_json_dict()
    assert obj["terms"] == [[0, 0, "1"], [1, 2, "-12345678901234567890"], [2, 3, "4"]]
    assert BiSeries.from_json_dict(json.loads(json.dumps(obj))) == s


@pytest.mark.parametrize(
    "series",
    [
        pytest.param(zero(0, 0), id="zero-0-0"),
        pytest.param(zero(2, 3), id="zero-2-3"),
        pytest.param(one(3, 4), id="one"),
        pytest.param(from_terms(2, 5, {(0, 0): -1, (1, 3): -42, (2, 5): 7}), id="negative"),
        pytest.param(from_terms(1, 2, {(1, 1): 2**200 + 1, (0, 2): -(3**130)}), id="huge"),
        pytest.param(hilbert_table(2, 2, 6, 14).to_biseries(), id="oracle-table"),
        pytest.param(from_terms(3, 4, {(0, 1): 5, (2, 0): -1, (2, 4): 3}), id="zero-row-between"),
        pytest.param(from_terms(2, 6, {(2, 6): -9}), id="lone-last-cell"),
    ],
)
def test_json_text_is_the_dumps_of_the_dict(series):
    assert series.to_json_text() == json.dumps(series.to_json_dict())


def test_json_validation():
    with pytest.raises(ValueError):
        BiSeries.from_json_dict({"x_order": 1, "terms": []})
    with pytest.raises(ValueError):
        BiSeries.from_json_dict({"x_order": 1, "q_order": 1, "terms": [[2, 0, "1"]]})
    with pytest.raises(ValueError):
        BiSeries.from_json_dict({"x_order": 1, "q_order": 1, "terms": [[0, 0, "x"]]})
    with pytest.raises(ValueError):
        BiSeries.from_json_dict({"x_order": 1, "q_order": 1, "terms": 7})
    with pytest.raises(ValueError):
        BiSeries.from_json_dict(["not", "a", "dict"])


# check-recursions reports these messages on its error line, so their text
# is pinned, including the (a, b) that an out-of-order term does not follow
@pytest.mark.parametrize(
    "terms, orders, message",
    [
        pytest.param([[0, 0, "1"], [0, 0, "2"]], (1, 1),
                     "term (0,0) does not follow (0,0): terms must be distinct and sorted",
                     id="duplicate-term"),
        pytest.param([[1.9, 0, "1"]], (1, 1),
                     "malformed term [1.9, 0, '1']: indices must be integers",
                     id="float-index"),
        pytest.param([[True, 0, "1"]], (1, 1),
                     "malformed term [True, 0, '1']: indices must be integers",
                     id="bool-index"),
        pytest.param([[0, 1, "1"], [0, 0, "1"]], (1, 1),
                     "term (0,0) does not follow (0,1): terms must be distinct and sorted",
                     id="unsorted-terms"),
        pytest.param([[1, 0, "1"], [0, 1, "1"]], (1, 1),
                     "term (0,1) does not follow (1,0): terms must be distinct and sorted",
                     id="unsorted-in-a"),
        # across a row boundary: flat indices 5 then 4, one apart
        pytest.param([[1, 0, "1"], [0, 4, "1"]], (1, 4),
                     "term (0,4) does not follow (1,0): terms must be distinct and sorted",
                     id="unsorted-across-rows"),
        pytest.param([[0, 1, "1"], [1, 0, "1"], [1, 0, "1"]], (1, 1),
                     "term (1,0) does not follow (1,0): terms must be distinct and sorted",
                     id="duplicate-after-a-row"),
        pytest.param([[0, 0, "0"]], (1, 1), "term (0,0) has coefficient zero",
                     id="zero-coefficient"),
        pytest.param([[0, 0, "1", 9]], (1, 1),
                     "malformed term [0, 0, '1', 9]: "
                     'need [a, b, "c"], c a canonical decimal string',
                     id="extra-field"),
        pytest.param([[0, 0, "1"]], (1.0, 1),
                     "malformed series object: orders must be integers >= 0", id="float-order"),
        pytest.param([[0, 0, "1"]], (1, True),
                     "malformed series object: orders must be integers >= 0", id="bool-order"),
        pytest.param([[0, 0, "1"]], ("1", 1),
                     "malformed series object: orders must be integers >= 0", id="string-order"),
        pytest.param([], (-1, 1),
                     "malformed series object: orders must be integers >= 0",
                     id="negative-order"),
        pytest.param([], (0, 10**30),
                     "window (0,1000000000000000000000000000000) has more than "
                     "MAX_CELLS=10000000 cells",
                     id="window-over-cap"),
        pytest.param([], (0, MAX_CELLS),
                     "window (0,10000000) has more than MAX_CELLS=10000000 cells",
                     id="window-just-over-cap"),
        pytest.param([], (1, MAX_CELLS // 2),
                     "window (1,5000000) has more than MAX_CELLS=10000000 cells",
                     id="rows-over-cap"),
    ],
)
def test_json_rejects_non_canonical_terms(terms, orders, message):
    obj = {"x_order": orders[0], "q_order": orders[1], "terms": terms}
    with pytest.raises(ValueError) as info:
        BiSeries.from_json_dict(obj)
    assert str(info.value) == message


def test_json_accepts_terms_at_the_ends_of_adjacent_rows():
    # the last cell of row 0 and the first of row 1 are adjacent flat indices
    obj = {"x_order": 2, "q_order": 4, "terms": [[0, 4, "3"], [1, 0, "-2"], [2, 4, "1"]]}
    assert BiSeries.from_json_dict(obj) == from_terms(2, 4, {(0, 4): 3, (1, 0): -2, (2, 4): 1})
