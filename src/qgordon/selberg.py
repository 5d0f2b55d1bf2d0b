"""The Rogers-Selberg system of q-difference equations and its unique solution.

For a level k >= 1 the system couples k+1 series F_0, ..., F_k in x and q:

    F_i(x, q) - (xq)^i F_(k-i)(xq, q) = F_(i-1)(x, q)     for i = 1..k
    F_0(x, q) = F_k(xq, q)

subject to F_i in 1 + xq[[x, q]]. Under that initial condition the solution
is unique, and ``solve`` constructs it degree by degree in x: writing
F_i = sum_m a_(i,m)(q) x^m, telescoping the first equation over i and
substituting the second gives

    a_(k,m) (1 - q^m) = q^m (a_(k-1,m-1) + a_(k-2,m-2) + ... )

whose right side involves only x-degrees below m, so a_(k,m) follows by
dividing by 1 - q^m in place; then
a_(0,m) = q^m a_(k,m) and a_(i,m) = a_(i-1,m) + q^m a_(k-i,m-i) fill in the
rest. Every step is exact in the truncated ring. For m < i the last term has
no x-degree m-i, so a_(i,m) = a_(i-1,m): on a window of x-degree R every
member R < i <= k equals F_R. ``solve`` keeps each x^m row once, F_k's rows
in the same table as the others, and hands back F_R's object for those members.

``check_recursions`` yields the k+1 residuals one at a time, each evaluated
from the members' rows, so a solved family is always audited against the
system itself rather than against the solver's own schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import Callable, Iterator, TextIO

from .series import MAX_CELLS, BiSeries, div_one_minus_q_power, shift_row, short_repr


@dataclass(frozen=True)
class WeightData:
    """Normalization data of the dominant weight k0*L0 + k1*L1.

    h is the conformal weight k1(k1+2)/(4(k+2)) and charge_offset = k1/2;
    a full character equals x^charge_offset q^h times the member series.
    """

    k0: int
    k1: int
    h: Fraction
    charge_offset: Fraction


def weight_data(k0: int, k1: int) -> WeightData:
    if k0 < 0 or k1 < 0 or k0 + k1 < 1:
        raise ValueError("need k0, k1 >= 0 with k0 + k1 >= 1")
    k = k0 + k1
    return WeightData(
        k0=k0,
        k1=k1,
        h=Fraction(k1 * (k1 + 2), 4 * (k + 2)),
        charge_offset=Fraction(k1, 2),
    )


@dataclass(frozen=True)
class RecursionFamily:
    """The solved members F_0 ... F_k at a common truncation window."""

    k: int
    x_order: int
    q_order: int
    members: tuple[BiSeries, ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("need k >= 1")
        if len(self.members) != self.k + 1:
            raise ValueError(f"expected {self.k + 1} members, got {len(self.members)}")
        for f in self.members:
            if f.x_order != self.x_order or f.q_order != self.q_order:
                raise ValueError("member orders do not match the family window")

    def member_weight_data(self, i: int) -> WeightData:
        """Weight data of member i, whose dominant weight is i*L0 + (k-i)*L1."""
        return weight_data(i, self.k - i)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "x_order": self.x_order,
            "q_order": self.q_order,
            "F": [f.to_json_dict() for f in self.members],
        }

    def write_json(self, out: TextIO) -> None:
        """Write json.dumps(self.to_json_dict()) and a newline to out, one
        member at a time from BiSeries.to_json_text, so at most one member's
        text is held at once."""
        out.write(
            f'{{"k": {self.k}, "x_order": {self.x_order}, '
            f'"q_order": {self.q_order}, "F": ['
        )
        for i, f in enumerate(self.members):
            if i:
                out.write(", ")
            out.write(f.to_json_text())
        out.write("]}\n")

    @classmethod
    def from_json_dict(cls, obj: dict) -> RecursionFamily:
        """Build a family from a document that json.load parsed with
        object_hook=member_decoder(), so that its members are already
        BiSeries: k+1 of them, each at the window (x_order, q_order).
        Any other document raises ValueError("malformed family object: ...")."""
        if not isinstance(obj, dict):
            raise ValueError("malformed family object: the document must be "
                             "a JSON object with k, x_order, q_order and F")
        try:
            k, R, N, F = obj["k"], obj["x_order"], obj["q_order"], obj["F"]
            if type(k) is not int or type(R) is not int or type(N) is not int:
                raise ValueError("k and the orders must be integers")
            if k < 1 or R < 0 or N < 0:
                raise ValueError("need k >= 1 and orders >= 0")
            if (k + 1) * (R + 1) * (N + 1) > MAX_CELLS:
                raise ValueError(
                    f"{short_repr(k + 1)} members at ({short_repr(R)},{short_repr(N)}) "
                    f"exceed MAX_CELLS={MAX_CELLS} cells"
                )
            if not isinstance(F, list) or not all(isinstance(f, BiSeries) for f in F):
                raise ValueError("F must be a list of series")
            return cls(k=k, x_order=R, q_order=N, members=tuple(F))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed family object: {exc}") from None


def member_decoder() -> Callable[[dict], object]:
    """An object_hook for json.load that turns each series object, one
    with "terms", into a BiSeries as soon as it is parsed, so a family
    file's term lists are freed member by member; other objects pass
    through. The series of one document share a budget of MAX_CELLS
    cells, and each declared window is charged before its table is
    allocated. A series equal to the one decoded before it is returned as
    that object, so the equal members of a tall family share one BiSeries
    (it is immutable). RecursionFamily.from_json_dict takes the document it
    returns."""
    budget = MAX_CELLS
    last = None

    def hook(obj: dict) -> object:
        nonlocal budget, last
        if "terms" not in obj:
            return obj
        R, N = obj.get("x_order"), obj.get("q_order")
        try:
            if type(R) is int and type(N) is int and R >= 0 and N >= 0:
                budget -= (R + 1) * (N + 1)
                if budget < 0:
                    raise ValueError(
                        f"its series declare more than MAX_CELLS={MAX_CELLS} cells in all"
                    )
            series = BiSeries.from_json_dict(obj)
        except ValueError as exc:
            raise ValueError(f"malformed family object: {exc}") from None
        if series != last:
            last = series
        return last

    return hook


# -- solver ---------------------------------------------------------------------


def solve(k: int, x_order: int, q_order: int) -> RecursionFamily:
    """Solve the level-k system on the window (x_order, q_order)."""
    if k < 1:
        raise ValueError("need k >= 1")
    if x_order < 0 or q_order < 0:
        raise ValueError("orders must be nonnegative")
    R, N = x_order, q_order
    # rows[m]: the x^m rows of F_0 ... F_min(m, k), of which member i reads
    # rows[m][min(i, m)]; F_k's row is the division row once m >= k
    rows = [[(1,) + (0,) * N]]
    for m in range(1, R + 1):
        bumps = [shift_row(rows[m - i][min(k - i, m - i)], m) for i in range(1, min(k, m) + 1)]
        # a list even for a single bump: the division works in place
        top = list(bumps[0])
        for bump in bumps[1:]:
            top = list(map(add, top, bump))
        div_one_minus_q_power(top, m)
        top = tuple(top)
        row = [shift_row(top, m)]
        for bump in bumps[: k - 1]:
            row.append(tuple(map(add, row[-1], bump)))
        if m >= k:
            row.append(top)
        rows.append(row)
    members = [BiSeries._of(rows[m][min(i, m)] for m in range(R + 1))
               for i in range(min(k, R) + 1)]
    members += members[-1:] * (k - R)
    return RecursionFamily(k=k, x_order=R, q_order=N, members=tuple(members))


# -- residual checks --------------------------------------------------------------


def check_recursions(fam: RecursionFamily) -> Iterator[BiSeries]:
    """Residuals of the full system, yielded one at a time: the i-th is the
    i-th difference equation F_i - (xq)^i F_(k-i)(xq,q) - F_(i-1), and the
    last the shift relation F_0 - F_k(xq,q). All must vanish identically.

    Each residual row is built in one pass from the members' rows: the x^a
    row of (xq)^i F_(k-i)(xq,q) is F_(k-i)'s x^(a-i) row times q^a. Past the
    x-window (i > x_order) that term is zero, so when F_i and F_(i-1) are
    the objects F_(i-1) and F_(i-2) were, as in a tall family, residual i is
    residual i-1's object.
    """
    F = fam.members
    k, R = fam.k, fam.x_order
    residual = None
    for i in range(1, k + 1):
        if not (i > R + 1 and F[i] is F[i - 1] is F[i - 2]):
            fi, term, before = F[i]._rows, F[k - i]._rows, F[i - 1]._rows
            residual = BiSeries._of(
                tuple(map(sub, map(sub, fi[a], shift_row(term[a - i], a)), before[a]))
                if a >= i
                else tuple(map(sub, fi[a], before[a]))
                for a in range(R + 1)
            )
        yield residual
    f0, fk = F[0]._rows, F[k]._rows
    yield BiSeries._of(tuple(map(sub, f0[a], shift_row(fk[a], a))) for a in range(R + 1))


def check_rr_recursion(series: BiSeries) -> BiSeries:
    """Residual of the Rogers-Ramanujan recursion
    F(x,q) - F(xq,q) - xq F(xq^2,q); zero iff the series satisfies it."""
    return series - series.qshift(1) - series.qshift(2).mul_monomial(1, 1)

