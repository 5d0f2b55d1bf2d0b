"""Property-based checks of the algebraic invariants."""

from hypothesis import given, settings, strategies as st

from qgordon import (
    BiSeries,
    andrews_gordon_multisum,
    from_terms,
    monomial,
    one,
    solve,
    zero,
)
from qgordon.series import div_one_minus_q_power

ORDERS = st.tuples(st.integers(0, 4), st.integers(0, 5))


def series_at(x_order, q_order):
    return st.lists(
        st.lists(st.integers(-9, 9), min_size=q_order + 1, max_size=q_order + 1),
        min_size=x_order + 1,
        max_size=x_order + 1,
    ).map(lambda rows: from_terms(
        x_order, q_order,
        {(a, b): c for a, row in enumerate(rows) for b, c in enumerate(row)},
    ))


@st.composite
def series_triples(draw):
    R, N = draw(ORDERS)
    s = draw(series_at(R, N))
    t = draw(series_at(R, N))
    u = draw(series_at(R, N))
    return s, t, u


@settings(max_examples=150, deadline=None)
@given(series_triples())
def test_ring_axioms(triple):
    s, t, u = triple
    assert s + t == t + s
    assert s * t == t * s
    assert (s * t) * u == s * (t * u)
    assert s * (t + u) == s * t + s * u
    assert (s - t) + t == s


@settings(max_examples=150, deadline=None)
@given(series_triples(), st.integers(0, 3), st.integers(0, 3))
def test_qshift_composes_additively(triple, m1, m2):
    s, _, _ = triple
    assert s.qshift(m1).qshift(m2) == s.qshift(m1 + m2)


@settings(max_examples=150, deadline=None)
@given(series_triples(), st.integers(0, 6), st.integers(0, 7))
def test_mul_monomial_is_multiplication(triple, a0, b0):
    s, _, _ = triple
    if a0 <= s.x_order and b0 <= s.q_order:
        expected = s * monomial(a0, b0, s.x_order, s.q_order)
    else:
        expected = zero(s.x_order, s.q_order)  # monomial falls off the window
    assert s.mul_monomial(a0, b0) == expected


@settings(max_examples=150, deadline=None)
@given(series_triples(), st.integers(0, 4), st.integers(0, 5), st.integers(0, 3))
def test_truncation_coherence(triple, dr, dn, shift):
    s, t, _ = triple
    R, N = s.x_order, s.q_order
    big_r, big_n = R + dr, N + dn
    # re-embed on the larger window
    s_big = from_terms(big_r, big_n, {(a, b): c for a, b, c in s.terms()})
    t_big = from_terms(big_r, big_n, {(a, b): c for a, b, c in t.terms()})
    assert (s_big + t_big).restrict(R, N) == s + t
    assert (s_big * t_big).restrict(R, N) == s * t
    assert s_big.qshift(shift).restrict(R, N) == s.qshift(shift)


def one_minus_q_power(i, q_order):
    """1 - q^i as a one-row series; past the window it is 1."""
    return from_terms(0, q_order, {(0, 0): 1, (0, i): -1} if i <= q_order else {(0, 0): 1})


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 20), st.lists(st.integers(-9, 9), min_size=1, max_size=15))
def test_geometric_inverse(i, original):
    # the kernel's division by 1 - q^i, multiplied back through BiSeries.__mul__
    N = len(original) - 1
    row = original[:]
    div_one_minus_q_power(row, i)
    assert one_minus_q_power(i, N) * BiSeries(0, N, [row]) == BiSeries(0, N, [original])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 7), st.integers(0, 16))
def test_pochhammer_inverse(n, q_order):
    # 1/(q)_n from the kernel's divisions, times (q)_n multiplied out factor by factor
    row = [1] + [0] * q_order
    product = one(0, q_order)
    for i in range(1, n + 1):
        div_one_minus_q_power(row, i)
        product = product * one_minus_q_power(i, q_order)
    assert product * BiSeries(0, q_order, [row]) == one(0, q_order)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 5), st.integers(0, 10),
       st.integers(0, 3), st.integers(0, 4))
def test_solver_window_extension(k, R, N, dr, dn):
    small = solve(k, R, N)
    large = solve(k, R + dr, N + dn)
    for f_small, f_large in zip(small.members, large.members):
        assert f_large.restrict(R, N) == f_small


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 5), st.integers(0, 10))
def test_solver_nonnegative_and_monotone(k, R, N):
    fam = solve(k, R, N)
    for f in fam.members:
        assert all(c >= 0 for _, _, c in f.terms())
    for lo, hi in zip(fam.members, fam.members[1:]):
        assert all(c >= 0 for _, _, c in (hi - lo).terms())


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.data())
def test_multisum_equals_solver(k, data):
    i = data.draw(st.integers(0, k))
    R = data.draw(st.integers(0, 4))
    N = data.draw(st.integers(0, 10))
    assert andrews_gordon_multisum(k, i, R, N) == solve(k, R, N).members[i]
