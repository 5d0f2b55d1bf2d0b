"""The recursion system: solver, residual checks, and normalization data."""

import dataclasses
import io
import json
import tracemalloc
from fractions import Fraction

import pytest

from qgordon import (
    BiSeries,
    RecursionFamily,
    andrews_gordon_multisum,
    check_recursions,
    check_rr_recursion,
    from_terms,
    member_decoder,
    monomial,
    one,
    solve,
    weight_data,
    zero,
)
from qgordon import selberg


def test_solve_validation():
    with pytest.raises(ValueError):
        solve(0, 2, 2)


def test_initial_condition():
    for k in (1, 2, 3, 4):
        fam = solve(k, 5, 12)
        for f in fam.members:
            assert f.coeff(0, 0) == 1
            # nothing else on the x^0 row or the q^0 column
            assert all(c == 0 for c in f.row(0)[1:])
            assert all(f.coeff(a, 0) == 0 for a in range(1, 6))


def test_level_one_first_rows():
    fam = solve(1, 4, 10)
    # x^1 of F_1 is q/(1-q), x^1 of F_0 is q^2/(1-q)
    assert list(fam.members[1].row(1)) == [0] + [1] * 10
    assert list(fam.members[0].row(1)) == [0, 0] + [1] * 9


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_residuals_vanish(k):
    fam = solve(k, 6, 16)
    residuals = list(check_recursions(fam))
    assert len(residuals) == k + 1
    assert all(r.is_zero() for r in residuals)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_residuals_are_yielded_one_at_a_time(k):
    residuals = check_recursions(solve(k, 4, 8))
    assert iter(residuals) is residuals
    assert list(residuals) == [zero(4, 8)] * (k + 1)


def test_checker_soundness():
    fam = solve(2, 5, 10)
    bumped = from_terms(5, 10, {(2, 3): 1}) + fam.members[1]
    broken = RecursionFamily(
        k=2,
        x_order=5,
        q_order=10,
        members=(fam.members[0], bumped, fam.members[2]),
    )
    assert any(not r.is_zero() for r in check_recursions(broken))


def _residuals_from_scratch(fam):
    """The residuals built with the ring operations, several series per
    equation: the reference for check_recursions' row-wise pass."""
    F, k = fam.members, fam.k
    for i in range(1, k + 1):
        yield F[i] - F[k - i].qshift(1).mul_monomial(i, i) - F[i - 1]
    yield F[0] - F[k].qshift(1)


def _bumped(fam, i, a, b):
    """fam with 1 added to the x^a q^b coefficient of member i alone."""
    members = list(fam.members)
    members[i] = members[i] + monomial(a, b, fam.x_order, fam.q_order)
    return dataclasses.replace(fam, members=tuple(members))


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: _bumped(solve(3, 6, 16), 1, 2, 3), id="bumped-low-member"),
        pytest.param(lambda: _bumped(solve(3, 6, 16), 3, 6, 16), id="bumped-last-cell"),
        pytest.param(lambda: _bumped(solve(2, 0, 5), 0, 0, 4), id="bumped-x-degree-0"),
        pytest.param(lambda: _bumped(solve(9, 3, 12), 6, 1, 1), id="bumped-above-the-window"),
    ],
)
def test_residuals_equal_the_ring_operations(make):
    fam = make()
    assert list(check_recursions(fam)) == list(_residuals_from_scratch(fam))


@pytest.mark.parametrize("x_order, q_order", [(0, 0), (2, 6)])
def test_tall_family_residuals_are_shared(x_order, q_order):
    # past the x-window F_i - F_(i-1) is the whole residual, so where both
    # members are the objects of the equation before, as solve and the
    # decoder share them, the residual is the one before
    solved = solve(2000, x_order, q_order)
    decoded = json.loads(_family_text(2000, x_order, q_order), object_hook=member_decoder())
    for fam in (solved, RecursionFamily.from_json_dict(decoded)):
        residuals = list(check_recursions(fam))
        assert residuals == list(_residuals_from_scratch(fam))
        assert len({id(r) for r in residuals}) == x_order + 2
    # a member off the shared object breaks the run of shared residuals
    broken = _bumped(solved, 1000, x_order, q_order)
    residuals = list(check_recursions(broken))
    assert residuals == list(_residuals_from_scratch(broken))
    assert [i for i, r in enumerate(residuals, 1) if not r.is_zero()] == [1000, 1001]


def test_rr_recursion_on_solved_series():
    fam = solve(1, 6, 18)
    assert check_rr_recursion(fam.members[1]).is_zero()


def test_rr_recursion_on_constant_series():
    res = check_rr_recursion(one(3, 5))
    assert res == zero(3, 5) - monomial(1, 1, 3, 5)
    assert res.coeff(1, 1) == -1


def test_rr_recursion_on_multisum():
    assert check_rr_recursion(andrews_gordon_multisum(1, 1, 6, 18)).is_zero()


def test_k2_example():
    fam = solve(2, 6, 15)
    residuals = list(check_recursions(fam))
    assert len(residuals) == 3
    assert all(r.is_zero() for r in residuals)


def test_k2_example_soundness():
    fam = solve(2, 5, 10)
    swapped = RecursionFamily(
        k=2,
        x_order=5,
        q_order=10,
        members=(fam.members[0], fam.members[1], fam.members[1]),
    )
    # F_2 - (xq)^2 F_0(xq,q) - F_1 with F_1 in place of F_2
    residuals = list(check_recursions(swapped))
    assert not residuals[1].is_zero()


def test_k2_example_trivial_x_window():
    fam = solve(2, 0, 12)
    assert all(r.is_zero() for r in check_recursions(fam))


def test_weight_data_values():
    wd = weight_data(1, 0)
    assert (wd.h, wd.charge_offset) == (Fraction(0), Fraction(0))
    wd = weight_data(0, 1)
    assert (wd.h, wd.charge_offset) == (Fraction(1, 4), Fraction(1, 2))
    wd = weight_data(0, 2)
    assert (wd.h, wd.charge_offset) == (Fraction(1, 2), Fraction(1))
    with pytest.raises(ValueError):
        weight_data(0, 0)


def test_unnormalize_prefactors():
    # member i carries the weight i*L0 + (k-i)*L1, whose prefactor
    # x^charge_offset q^h turns the member series into the full character
    def prefactor(fam, i):
        wd = fam.member_weight_data(i)
        return wd.charge_offset, wd.h

    fam = solve(1, 3, 6)
    assert prefactor(fam, 0) == (Fraction(1, 2), Fraction(1, 4))
    assert prefactor(fam, 1) == (Fraction(0), Fraction(0))

    fam2 = solve(2, 3, 6)
    assert prefactor(fam2, 0) == (Fraction(1), Fraction(1, 2))


def test_window_extension_consistency():
    for k in (1, 2, 3):
        small = solve(k, 4, 9)
        large = solve(k, 7, 14)
        for f_small, f_large in zip(small.members, large.members):
            assert f_large.restrict(4, 9) == f_small


@pytest.mark.parametrize(
    "k, R, N",
    [(1, 0, 0), (1, 6, 9), (2, 1, 6), (3, 5, 9), (4, 2, 9), (6, 0, 5), (12, 4, 10)],
)
def test_members_past_the_x_window_are_member_R(k, R, N):
    # a_(i,m) = a_(i-1,m) below x-degree i, so on an x-window R every member
    # R < i <= k equals F_R; solve hands back F_R's object for those and
    # builds every other member itself (none is shared when k <= R)
    fam = solve(k, R, N)
    shared = [i for i in range(k + 1) if R < i <= k]
    assert all(fam.members[i] is fam.members[R] for i in shared)
    assert len({id(f) for f in fam.members}) == k + 1 - len(shared)
    assert all(res.is_zero() for res in check_recursions(fam))


@pytest.mark.parametrize(
    "k, R, N", [(3, 4, 14), (4, 4, 14), (5, 4, 14), (6, 4, 14), (1, 0, 14), (2, 0, 14)]
)
def test_top_member_at_the_x_window_edge(k, R, N):
    # F_k's rows sit in solve's row table from x-degree k on: at k <= R it is
    # built from them as its own object, at k > R it is F_R's object
    fam = solve(k, R, N)
    for i, member in enumerate(fam.members):
        assert member == andrews_gordon_multisum(k, i, R, N)
    others = fam.members[:k]
    assert all(fam.members[k] is not f for f in others) == (k <= R)


def test_monotone_and_nonnegative():
    for k in (1, 2, 3, 4):
        fam = solve(k, 6, 14)
        for f in fam.members:
            assert all(c >= 0 for _, _, c in f.terms())
        for lo, hi in zip(fam.members, fam.members[1:]):
            diff = hi - lo
            assert all(c >= 0 for _, _, c in diff.terms())


@pytest.mark.parametrize("k", [1, 2, 3])
def test_solver_equals_multisum(k):
    fam = solve(k, 7, 18)
    for i in range(k + 1):
        assert fam.members[i] == andrews_gordon_multisum(k, i, 7, 18)


def test_specializations_of_level_one():
    # x=1 and x=q turn the solved series into the two congruence products
    from qgordon import GordonCondition, gordon_product, specialize_x

    R, N = 5, 16
    fam = solve(1, R, N)
    f1 = fam.members[1]
    x1, _ = specialize_x(f1, "x=1")
    xq, _ = specialize_x(f1, "x=q")
    prod_t2 = gordon_product(GordonCondition(2, 2), N)
    prod_t1 = gordon_product(GordonCondition(2, 1), N)
    upto = N - R  # lossless window for the x=q comparison
    assert list(x1.row(0))[: upto + 1] == list(prod_t2.row(0))[: upto + 1]
    assert list(xq.row(0))[: upto + 1] == list(prod_t1.row(0))[: upto + 1]


def test_family_json_round_trip():
    fam = solve(2, 4, 8)
    obj = json.loads(json.dumps(fam.to_json_dict()), object_hook=member_decoder())
    assert RecursionFamily.from_json_dict(obj) == fam


@pytest.mark.parametrize("k, x_order, q_order", [(1, 0, 0), (3, 0, 5), (2, 6, 40)])
def test_family_write_json_is_the_dumps_of_the_dict(k, x_order, q_order):
    fam = solve(k, x_order, q_order)
    out = io.StringIO()
    fam.write_json(out)
    assert out.getvalue() == json.dumps(fam.to_json_dict()) + "\n"


def test_family_validation():
    fam = solve(2, 4, 8)
    with pytest.raises(ValueError):
        RecursionFamily(k=2, x_order=4, q_order=8, members=fam.members[:2])
    with pytest.raises(ValueError):
        RecursionFamily(k=2, x_order=5, q_order=8, members=fam.members)
    with pytest.raises(ValueError):
        RecursionFamily.from_json_dict({"k": 2, "x_order": 1})


def _family_text(k, x_order, q_order):
    out = io.StringIO()
    solve(k, x_order, q_order).write_json(out)
    return out.getvalue()


@pytest.mark.parametrize(
    "k, x_order, q_order",
    [(1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0), (1, 5, 12), (2, 4, 8), (3, 0, 6),
     (3, 6, 0), (4, 3, 11), (4, 7, 20)],
)
def test_member_decoder_loads_the_family_the_plain_path_loads(k, x_order, q_order):
    # write_json's text, decoded, is the family solve built
    decoded = json.loads(_family_text(k, x_order, q_order), object_hook=member_decoder())
    assert all(isinstance(f, BiSeries) for f in decoded["F"])
    assert RecursionFamily.from_json_dict(decoded) == solve(k, x_order, q_order)


@pytest.mark.parametrize("x_order, q_order", [(0, 0), (2, 6)])
def test_member_decoder_shares_equal_members(x_order, q_order):
    # past the x-window every member of a tall family equals F_R, and the
    # decoder returns a series equal to the one before it as that object, so
    # the loaded family holds one object per distinct member, not k+1
    decoded = json.loads(_family_text(20000, x_order, q_order), object_hook=member_decoder())
    fam = RecursionFamily.from_json_dict(decoded)
    assert fam == solve(20000, x_order, q_order)
    assert len({id(f) for f in fam.members}) == len(set(fam.members)) <= x_order + 1


def test_decoded_members_are_checked_against_the_family_window():
    obj = {"k": 1, "x_order": 0, "q_order": 0, "F": [one(0, 0), one(0, 1)]}
    with pytest.raises(ValueError, match="malformed family object"):
        RecursionFamily.from_json_dict(obj)


def _decoded(edit):
    obj = solve(2, 3, 6).to_json_dict()
    edit(obj)
    return json.loads(json.dumps(obj), object_hook=member_decoder())


@pytest.mark.parametrize(
    "load",
    [
        # members that member_decoder did not build
        pytest.param(lambda: solve(2, 3, 6).to_json_dict(), id="undecoded"),
        pytest.param(lambda: _decoded(lambda obj: obj.update(k=0)), id="k-0"),
        pytest.param(lambda: _decoded(lambda obj: obj.update(k=-1)), id="k-minus-1"),
        pytest.param(lambda: _decoded(lambda obj: obj["F"].pop()), id="member-dropped"),
        pytest.param(lambda: _decoded(lambda obj: obj["F"][1].update(q_order=5)),
                     id="member-off-window"),
    ],
)
def test_family_loader_refuses_malformed_documents(load):
    with pytest.raises(ValueError, match="malformed family object"):
        RecursionFamily.from_json_dict(load())


def test_member_decoder_charges_one_budget_for_the_whole_document(monkeypatch):
    # three series of half the cap each: the third is refused before its
    # table is allocated, and the error names the family as malformed
    monkeypatch.setattr(selberg, "MAX_CELLS", 100)
    half = {"x_order": 4, "q_order": 9, "terms": [[0, 0, "1"]]}
    with pytest.raises(ValueError, match="malformed family object: .*MAX_CELLS=100"):
        json.loads(json.dumps([half, half, half]), object_hook=member_decoder())
    # each call of the factory starts a fresh budget
    assert len(json.loads(json.dumps([half, half]), object_hook=member_decoder())) == 2


def test_member_decoder_peaks_below_a_bare_parse():
    # a member's term lists are freed as soon as it is built, so the dense
    # family costs less at its peak than the parse tree of the same text
    text = _family_text(4, 20, 300)
    tracemalloc.start()
    try:
        json.loads(text)
        _, bare = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        RecursionFamily.from_json_dict(json.loads(text, object_hook=member_decoder()))
        _, decoded = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert decoded < bare
