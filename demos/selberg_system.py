"""The level-2 Rogers-Selberg system, equation by equation.

Three series F_0, F_1, F_2 are coupled by two difference equations and a
shift relation. The solver constructs the unique solution with constant
term 1; the checker then re-evaluates each equation's residual from
scratch on the truncation window.
"""

from qgordon import check_recursions, solve

R, N = 10, 30

fam = solve(2, R, N)
print(f"Level 2 family solved on the window x<={R}, q<={N}.")
print()

names = [
    "F_1(x,q) - xq F_1(xq,q) - F_0(x,q)",
    "F_2(x,q) - (xq)^2 F_0(xq,q) - F_1(x,q)",
    "F_0(x,q) - F_2(xq,q)",
]
for name, residual in zip(names, check_recursions(fam)):
    print(f"  {name} = {'0' if residual.is_zero() else f'NONZERO {residual}'}")
print()

print("Coefficientwise monotonicity F_0 <= F_1 <= F_2:")
for i in (1, 2):
    diff = fam.members[i] - fam.members[i - 1]
    print(f"  F_{i} - F_{i - 1} has only nonnegative coefficients:",
          all(c >= 0 for _, _, c in diff.terms()))
print()

print("Normalization prefactors (charge offset, conformal weight):")
for i in range(3):
    wd = fam.member_weight_data(i)
    print(f"  member {i}: x^{wd.charge_offset} q^{wd.h}")
