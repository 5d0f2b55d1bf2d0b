"""Acceptance gate: every contract criterion at its stated (exact) tolerance.

Each test prints one PASS/FAIL line; run with `pytest tests/test_acceptance.py -v -s`
to see them. All identities here are equalities between integers, so the
tolerance is zero everywhere.
"""

import random

from qgordon import (
    GordonCondition,
    andrews_gordon_multisum,
    check_recursions,
    check_rr_recursion,
    count_congruence_partitions,
    count_gordon_partitions,
    from_terms,
    gordon_product,
    hilbert_table,
    min_gordon_weight,
    solve,
    specialize_x,
    weight_data,
)
from fractions import Fraction


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")


def test_criterion_1_gordon_identities():
    failures = []
    for l in (2, 3, 4):
        for t in range(1, l + 1):
            cond = GordonCondition(l, t)
            for n in range(41):
                if count_gordon_partitions(cond, n) != count_congruence_partitions(
                    cond, n
                ):
                    failures.append((l, t, n))
    _report(1, not failures,
            "difference-condition counts equal congruence counts, "
            "l in 2..4, all t, n <= 40")
    assert not failures, failures[:5]


def test_criterion_2_product_equals_multisum():
    failures = []
    qmax, xmax = 40, 12
    for l in (2, 3, 4):
        for t in range(1, l + 1):
            cond = GordonCondition(l, t)
            k, i = l - 1, t - 1
            lossless = min(qmax, min_gordon_weight(k, xmax + 1) - 1)
            assert lossless == qmax, "window must be lossless for the whole range"
            product = gordon_product(cond, qmax)
            specialized, dropped = specialize_x(
                andrews_gordon_multisum(k, i, xmax, qmax), "x=1"
            )
            assert dropped == 0
            if list(product.row(0)) != list(specialized.row(0)):
                failures.append((l, t))
    _report(2, not failures,
            "product side equals x=1 multisum up to q^40, multisum at x-order 12")
    assert not failures, failures


def test_criterion_3_recursion_system():
    failures = []
    for k in (1, 2, 3, 4):
        fam = solve(k, 12, 40)
        if not all(r.is_zero() for r in check_recursions(fam)):
            failures.append((k, "residual"))
        for i in range(k + 1):
            if fam.members[i] != andrews_gordon_multisum(k, i, 12, 40):
                failures.append((k, i, "multisum"))
    _report(3, not failures,
            "system residuals vanish and members equal multisums, "
            "k in 1..4 at window (12, 40)")
    assert not failures, failures


def test_criterion_4_rogers_ramanujan_recursion():
    solved = solve(1, 12, 40).members[1]
    closed_form = andrews_gordon_multisum(1, 1, 12, 40)
    ok = check_rr_recursion(solved).is_zero() and check_rr_recursion(
        closed_form
    ).is_zero()
    _report(4, ok, "classical recursion residual vanishes for both routes at (12, 40)")
    assert ok


def test_criterion_5_level_two_worked_example():
    residuals = list(check_recursions(solve(2, 10, 30)))
    ok = len(residuals) == 3 and all(r.is_zero() for r in residuals)
    _report(5, ok, "the three level-2 difference equations hold at (10, 30)")
    assert ok


def test_criterion_6_ideal_quotient_oracle():
    failures = []
    for k, window in ((1, (6, 14)), (2, (4, 10))):
        mm, wm = window
        fam = solve(k, mm, wm)
        for e in range(1, k + 2):
            i = e - 1
            table = hilbert_table(k, e, mm, wm).to_biseries()
            if table != andrews_gordon_multisum(k, i, mm, wm):
                failures.append((k, e, "multisum"))
            if table != fam.members[i]:
                failures.append((k, e, "solver"))
    _report(6, not failures,
            "ideal-quotient tables equal multisum and solver, "
            "k=1 (m<=6, w<=14) and k=2 (m<=4, w<=10)")
    assert not failures, failures


def test_criterion_7_normalization_data():
    vacuum = weight_data(1, 0)
    charged = weight_data(0, 1)
    ok = (
        vacuum.h == Fraction(0)
        and vacuum.charge_offset == Fraction(0)
        and charged.h == Fraction(1, 4)
        and charged.charge_offset == Fraction(1, 2)
    )
    _report(7, ok, "level-1 prefactors are (0, 0) and (1/2, 1/4) exactly")
    assert ok


def _random_series(rng, x_order, q_order):
    return from_terms(
        x_order,
        q_order,
        {
            (a, b): rng.randrange(-9, 10)
            for a in range(x_order + 1)
            for b in range(q_order + 1)
        },
    )


def test_criterion_8_property_suites():
    rng = random.Random(20260809)
    cases = 100
    failures = []

    for _ in range(cases):  # ring axioms
        R, N = rng.randrange(0, 5), rng.randrange(0, 6)
        s, t, u = (_random_series(rng, R, N) for _ in range(3))
        if not (
            s + t == t + s
            and s * t == t * s
            and (s * t) * u == s * (t * u)
            and s * (t + u) == s * t + s * u
        ):
            failures.append("ring-axioms")

    for _ in range(cases):  # q-shift composition
        R, N = rng.randrange(0, 5), rng.randrange(0, 8)
        s = _random_series(rng, R, N)
        m1, m2 = rng.randrange(0, 4), rng.randrange(0, 4)
        if s.qshift(m1).qshift(m2) != s.qshift(m1 + m2):
            failures.append("qshift-composition")

    for _ in range(cases):  # truncation coherence
        R, N = rng.randrange(0, 4), rng.randrange(0, 6)
        dr, dn = rng.randrange(0, 4), rng.randrange(0, 5)
        shift = rng.randrange(0, 3)
        s, t = _random_series(rng, R, N), _random_series(rng, R, N)
        s_big = from_terms(R + dr, N + dn, {(a, b): c for a, b, c in s.terms()})
        t_big = from_terms(R + dr, N + dn, {(a, b): c for a, b, c in t.terms()})
        if (
            (s_big * t_big).restrict(R, N) != s * t
            or (s_big + t_big).restrict(R, N) != s + t
            or s_big.qshift(shift).restrict(R, N) != s.qshift(shift)
        ):
            failures.append("truncation-coherence")

    for _ in range(cases):  # solver consistency under window extension
        k = rng.randrange(1, 5)
        R, N = rng.randrange(0, 6), rng.randrange(0, 12)
        dr, dn = rng.randrange(0, 4), rng.randrange(0, 5)
        small, large = solve(k, R, N), solve(k, R + dr, N + dn)
        if any(
            big.restrict(R, N) != little
            for little, big in zip(small.members, large.members)
        ):
            failures.append("window-extension")

    for _ in range(cases):  # nonnegativity and monotonicity of solved members
        k = rng.randrange(1, 5)
        R, N = rng.randrange(0, 6), rng.randrange(0, 12)
        fam = solve(k, R, N)
        if not all(c >= 0 for f in fam.members for _, _, c in f.terms()):
            failures.append("nonnegativity")
        if not all(
            c >= 0
            for lo, hi in zip(fam.members, fam.members[1:])
            for _, _, c in (hi - lo).terms()
        ):
            failures.append("monotonicity")

    _report(8, not failures,
            f"six property suites x {cases} randomized cases, zero failures")
    assert not failures, sorted(set(failures))
