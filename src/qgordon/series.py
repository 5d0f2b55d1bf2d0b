"""Truncated bivariate formal power series with exact integer coefficients.

A :class:`BiSeries` is a series in two formal variables, x (tracking charge)
and q (tracking weight), truncated to the rectangular window
0 <= a <= x_order, 0 <= b <= q_order. Coefficients are plain Python ints,
so every operation is exact: there is no floating point and no overflow
anywhere in this package. A product term falling outside the window is
discarded; every retained coefficient is the true one.

A BiSeries is a frozen dataclass: equal by value, hashable, and safe to
share, copy and pickle.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from itertools import compress, islice
from operator import add, concat, sub
from typing import Iterable, Iterator, Sequence

# The largest window, in coefficients, that the JSON loaders and the solve
# command accept: (x_order+1)(q_order+1) for a series, k+1 times that for a
# family. 10**7 is about 20 times the k=4 (80, 1200) family. Dense tables are
# allocated from the declared orders, so each series' orders are checked
# against this before its table is allocated; a family file's series share
# one budget of this many cells, which each draws on before it is built.
MAX_CELLS = 10**7


def short_repr(value: object) -> str:
    """repr(value) for an error message about input read from a file, which
    may be arbitrarily long: reprlib elides long strings, numbers and lists,
    and the result is cut to at most 60 characters."""
    text = reprlib.repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


# -- truncated rows -------------------------------------------------------------
#
# A row is the coefficient list [c_0, ..., c_N] of a univariate q-series
# truncated at q^N. These two functions are the only truncated univariate
# arithmetic of the solver, the multisum and the product; the partition
# counts and the ideal-quotient oracle stay outside them, so they remain
# an independent check on them.


def shift_row(row: Sequence[int], m: int) -> tuple[int, ...]:
    """row * q^m as a tuple, truncated at the length of row."""
    size = len(row)
    if m >= size:
        return (0,) * size
    return (0,) * m + tuple(row[: size - m])


def div_one_minus_q_power(row: list[int], i: int) -> None:
    """Divide row in place by (1 - q^i), i.e. multiply by 1 + q^i + q^2i + ..."""
    if i < 1:
        raise ValueError("need i >= 1: 1 - q^0 = 0 has no inverse")
    for b in range(i, len(row)):
        row[b] += row[b - i]


@dataclass(frozen=True, slots=True, init=False, repr=False)
class BiSeries:
    """Dense truncated series sum_{a<=R, b<=N} c[a][b] * x^a * q^b."""

    x_order: int
    q_order: int
    _rows: tuple[tuple[int, ...], ...]

    def __init__(self, x_order: int, q_order: int, rows: Iterable[Iterable[int]]):
        if x_order < 0 or q_order < 0:
            raise ValueError("orders must be nonnegative")
        frozen = tuple(tuple(row) for row in rows)
        if len(frozen) != x_order + 1 or any(len(r) != q_order + 1 for r in frozen):
            raise ValueError(
                f"coefficient table must be {x_order + 1} x {q_order + 1}"
            )
        for row in frozen:
            for c in row:
                if not isinstance(c, int) or isinstance(c, bool):
                    raise TypeError(f"coefficients must be int, got {type(c).__name__}")
        object.__setattr__(self, "x_order", x_order)
        object.__setattr__(self, "q_order", q_order)
        object.__setattr__(self, "_rows", frozen)

    @classmethod
    def _of(cls, rows: Iterable[tuple[int, ...]]) -> BiSeries:
        """Wrap a nonempty rectangular table of int tuples that this package
        built itself; the rows are kept as they are, the orders are read off
        their shape and nothing is checked. Caller-supplied data goes through
        the constructor instead."""
        self = object.__new__(cls)
        frozen = tuple(rows)
        object.__setattr__(self, "x_order", len(frozen) - 1)
        object.__setattr__(self, "q_order", len(frozen[0]) - 1)
        object.__setattr__(self, "_rows", frozen)
        return self

    # -- access ------------------------------------------------------------

    def coeff(self, a: int, b: int) -> int:
        """Coefficient of x^a q^b; zero for indices outside the window."""
        if 0 <= a <= self.x_order and 0 <= b <= self.q_order:
            return self._rows[a][b]
        return 0

    def row(self, a: int) -> tuple[int, ...]:
        """All q-coefficients at x-degree a."""
        return self._rows[a]

    def terms(self) -> Iterator[tuple[int, int, int]]:
        """Nonzero terms as (a, b, coeff), lexicographic in (a, b)."""
        for a, row in enumerate(self._rows):
            for b, c in enumerate(row):
                if c:
                    yield (a, b, c)

    def is_zero(self) -> bool:
        return not any(map(any, self._rows))

    def __repr__(self) -> str:
        n = sum(1 for _ in self.terms())
        return f"BiSeries(x_order={self.x_order}, q_order={self.q_order}, {n} nonzero terms)"

    def __str__(self) -> str:
        parts = []
        for a, b, c in self.terms():
            mono = "".join(
                (
                    f"x^{a}" if a > 1 else "x" if a == 1 else "",
                    f"q^{b}" if b > 1 else "q" if b == 1 else "",
                )
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}{mono}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    # -- ring operations ----------------------------------------------------

    def _require_same_orders(self, other: BiSeries) -> None:
        if self.x_order != other.x_order or self.q_order != other.q_order:
            raise ValueError(
                f"order mismatch: ({self.x_order},{self.q_order}) vs "
                f"({other.x_order},{other.q_order})"
            )

    def __add__(self, other: BiSeries) -> BiSeries:
        self._require_same_orders(other)
        return BiSeries._of(tuple(map(add, r1, r2)) for r1, r2 in zip(self._rows, other._rows))

    def __sub__(self, other: BiSeries) -> BiSeries:
        self._require_same_orders(other)
        return BiSeries._of(tuple(map(sub, r1, r2)) for r1, r2 in zip(self._rows, other._rows))

    def __mul__(self, other: BiSeries) -> BiSeries:
        self._require_same_orders(other)
        R, N = self.x_order, self.q_order
        rows = [[0] * (N + 1) for _ in range(R + 1)]
        for a1, row1 in enumerate(self._rows):
            for b1, c1 in enumerate(row1):
                if not c1:
                    continue
                for a2 in range(R - a1 + 1):
                    row2 = other._rows[a2]
                    target = rows[a1 + a2]
                    for b2 in range(N - b1 + 1):
                        c2 = row2[b2]
                        if c2:
                            target[b1 + b2] += c1 * c2
        return BiSeries._of(map(tuple, rows))

    def qshift(self, m: int) -> BiSeries:
        """Substitute x -> x q^m: the term x^a q^b moves to x^a q^(b + m a).

        Terms pushed past q_order are discarded. Negative m is rejected;
        only forward shifts keep the rectangular truncation faithful.
        """
        if m < 0:
            raise ValueError("negative q-shift is not supported")
        return BiSeries._of(shift_row(row, m * a) for a, row in enumerate(self._rows))

    def mul_monomial(self, a0: int, b0: int) -> BiSeries:
        """Multiply by x^a0 q^b0, discarding terms leaving the window."""
        if a0 < 0 or b0 < 0:
            raise ValueError("monomial exponents must be nonnegative")
        a0 = min(a0, self.x_order + 1)
        kept = self._rows[: self.x_order + 1 - a0]
        blank = (0,) * (self.q_order + 1)
        return BiSeries._of([blank] * a0 + [shift_row(row, b0) for row in kept])

    def restrict(self, x_order: int, q_order: int) -> BiSeries:
        """Truncate to a smaller window."""
        if x_order < 0 or q_order < 0:
            raise ValueError("orders must be nonnegative")
        if x_order > self.x_order or q_order > self.q_order:
            raise ValueError("restrict cannot enlarge the window")
        return BiSeries._of(row[: q_order + 1] for row in self._rows[: x_order + 1])

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON form: nonzero terms only, coefficients as decimal strings."""
        return {
            "x_order": self.x_order,
            "q_order": self.q_order,
            "terms": [[a, b, str(c)] for a, b, c in self.terms()],
        }

    def to_json_text(self) -> str:
        """The text json.dumps(self.to_json_dict()) writes, built straight
        from the rows without the term lists in between: one string per
        nonzero row, joined from its terms' column texts and coefficients."""
        mids = [f', {b}, "' for b in range(self.q_order + 1)]
        terms = ", ".join([
            f"[{a}"
            + f'"], [{a}'.join(map(concat, compress(mids, row), map(str, compress(row, row))))
            + '"]'
            for a, row in enumerate(self._rows)
            if any(row)
        ])
        return f'{{"x_order": {self.x_order}, "q_order": {self.q_order}, "terms": [{terms}]}}'

    @classmethod
    def from_json_dict(cls, obj: dict) -> BiSeries:
        """Inverse of to_json_dict. Orders and indices must be JSON integers,
        coefficients strings equal to str() of their int, and terms nonzero,
        in the window, and strictly increasing in (a, b). One loop checks
        each term in that order and stores it in a flat table at
        a*(q_order+1) + b, which inside the window orders the terms as
        (a, b) does."""
        try:
            R, N, raw_terms = obj["x_order"], obj["q_order"], obj["terms"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed series object: {exc}") from None
        if type(R) is not int or type(N) is not int or R < 0 or N < 0:
            raise ValueError("malformed series object: orders must be integers >= 0")
        if (R + 1) * (N + 1) > MAX_CELLS:
            raise ValueError(
                f"window ({short_repr(R)},{short_repr(N)}) has more than "
                f"MAX_CELLS={MAX_CELLS} cells"
            )
        if not isinstance(raw_terms, list):
            raise ValueError("malformed series object: terms must be a list")
        width = N + 1
        cells = [0] * ((R + 1) * width)
        last = -1  # the flat index a*(N+1) + b of the previous term
        for entry in raw_terms:
            try:
                a, b, text = entry
                c = int(text, 10)  # a TypeError unless text is a string
                if str(c) != text:
                    raise ValueError
            except (TypeError, ValueError):
                raise ValueError(f"malformed term {short_repr(entry)}: "
                                 'need [a, b, "c"], c a canonical decimal string') from None
            if type(a) is not int or type(b) is not int:
                raise ValueError(f"malformed term {short_repr(entry)}: indices must be integers")
            if not (0 <= a <= R and 0 <= b <= N):
                raise ValueError(
                    f"term ({short_repr(a)},{short_repr(b)}) outside declared window ({R},{N})"
                )
            at = a * width + b
            if at <= last:
                la, lb = divmod(last, width)
                raise ValueError(
                    f"term ({a},{b}) does not follow ({la},{lb}): "
                    "terms must be distinct and sorted"
                )
            if c == 0:
                raise ValueError(f"term ({a},{b}) has coefficient zero")
            cells[at] = c
            last = at
        # rows are read off one iterator, so no slice copies a row first
        flat = iter(cells)
        return cls._of(tuple(islice(flat, width)) for _ in range(R + 1))


# -- constructors -------------------------------------------------------------


def zero(x_order: int, q_order: int) -> BiSeries:
    return BiSeries(x_order, q_order, [[0] * (q_order + 1) for _ in range(x_order + 1)])


def one(x_order: int, q_order: int) -> BiSeries:
    return monomial(0, 0, x_order, q_order)


def from_terms(
    x_order: int, q_order: int, terms: dict[tuple[int, int], int]
) -> BiSeries:
    """Build a series from a {(a, b): coeff} mapping; out-of-window keys rejected."""
    rows = [[0] * (q_order + 1) for _ in range(x_order + 1)]
    for (a, b), c in terms.items():
        if not (0 <= a <= x_order and 0 <= b <= q_order):
            raise ValueError(f"term ({a},{b}) outside window ({x_order},{q_order})")
        rows[a][b] = c
    return BiSeries(x_order, q_order, rows)


def monomial(a: int, b: int, x_order: int, q_order: int) -> BiSeries:
    return from_terms(x_order, q_order, {(a, b): 1})


def specialize_x(series: BiSeries, mode: str) -> tuple[BiSeries, int]:
    """Specialize the x variable, producing a univariate q-series.

    mode "x=1" sums coefficients over the x-degree at each fixed q-power;
    nothing can be dropped. mode "x=q" sends x^a q^b to q^(a+b); terms with
    a + b beyond q_order fall off the window. Returns (series, dropped)
    where dropped counts the nonzero terms lost at the truncation boundary.
    The caller decides whether a nonzero drop count matters.
    """
    if mode == "x=1":
        return BiSeries._of([tuple(map(sum, zip(*series._rows)))]), 0
    if mode != "x=q":
        raise ValueError(f"unknown specialization mode {mode!r}; use 'x=1' or 'x=q'")
    N = series.q_order
    if series.x_order > N:
        raise ValueError("x=q specialization requires x_order <= q_order")
    out = [0] * (N + 1)
    dropped = 0
    for a, b, c in series.terms():
        if a + b <= N:
            out[a + b] += c
        else:
            dropped += 1
    return BiSeries._of([tuple(out)]), dropped
