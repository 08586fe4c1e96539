"""Exact linear-algebra kernel shared by deduction, the hull and the LP.

Reduced row echelon form with its null-space basis, the primitive integer
form of a rational vector, and gcd normalization of an integer row.
Entries may be ints or Fractions, and a float counts as its exact binary
value; elimination runs on integer rows, and nothing here rounds.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence


def rational(x):
    """An int or Fraction as it is; anything else (a float) as its exact Fraction."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def rref(rows: Sequence[Sequence], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Nonzero rows of the reduced row echelon form and their pivot columns.

    The pivot columns of a matrix whose columns are vectors v_1..v_m select
    the first maximal independent subset of v_1..v_m, in order.

    Each row is scaled to a primitive integer row, and each elimination step
    is row_i <- p*row_i - f*row_r followed by a row gcd, so no Fraction is
    built until every pivot row is divided by its pivot at the end.
    """
    ints: list[list[int]] = []
    for given in rows:
        row = [rational(x) for x in given]
        ints.append(row if all(type(x) is int for x in row) else list(primitive(row)))
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(ints)) if ints[i][c]), None)
        if pivot_row is None:
            continue
        ints[r], ints[pivot_row] = ints[pivot_row], ints[r]
        piv_row = ints[r]
        p = piv_row[c]
        for i in range(len(ints)):
            f = ints[i][c]
            if i != r and f:
                row = [p * x - f * y for x, y in zip(ints[i], piv_row)]
                normalize_row(row)
                ints[i] = row
        pivots.append(c)
        r += 1
    reduced = [
        [Fraction(x, ints[i][c]) for x in ints[i]] for i, c in enumerate(pivots)
    ]
    return reduced, pivots


def null_space(rows: Sequence[Sequence], ncols: int) -> tuple[list[int], list[list[Fraction]]]:
    """Pivot columns of `rows` and a basis of the vectors orthogonal to every row.

    The basis has one vector per free column, ncols minus the rank in all: it
    is 1 at its free column, 0 at the other free columns, and minus that free
    column of the reduced rows at the pivots.
    """
    reduced, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, c in zip(reduced, pivots):
            vec[c] = -row[f]
        basis.append(vec)
    return pivots, basis


def primitive(v: Sequence) -> tuple[int, ...]:
    """`v` scaled by a positive rational to coprime integers (zero stays zero)."""
    denom = 1
    for x in v:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [x.numerator * (denom // x.denominator) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        return tuple(x // g for x in ints)
    return tuple(ints)


def normalize_row(row: list[int], denom: int = 0) -> int:
    """Divide an integer row, and with it its denominator, by their common gcd.

    Divides `row` in place and returns the divisor, which the caller applies
    to `denom`; returns 1 when nothing divides (an all-zero row with no
    denominator included).
    """
    g = denom
    for x in row:
        if x:
            g = gcd(g, x if x > 0 else -x)
            if g == 1:
                return 1
    if g > 1:
        for j in range(len(row)):
            row[j] //= g
        return g
    return 1
