"""Exact linear-algebra kernel shared by deduction, the hull and the LP.

One integer row step, `combine` (p*a - f*b divided by its gcd), and
`pivot`, which applies it to zero a column outside one row; the row
reduction, the simplex and the hull's new facet normals are all built on
them. Around that: the dot product, reduced row echelon form with its
null-space basis, and the primitive integer form of a rational vector.
Entries may be ints or Fractions, and a float counts as its exact binary
value; elimination runs on integer rows, and nothing here rounds.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from collections.abc import MutableSequence, Sequence


def dot(a: Sequence, b: Sequence):
    return sum(map(mul, a, b))


def rational(x):
    """An int or Fraction as it is; anything else (a float) as its exact Fraction."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def combine(a: Sequence[int], b: Sequence[int], p: int, f: int) -> list[int]:
    """The integer row p*a - f*b divided by the gcd of its entries.

    A positive p keeps the orientation of a; a zero result stays zero.
    """
    row = [p * x - f * y for x, y in zip(a, b)]
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def pivot(rows: MutableSequence[Sequence[int]], r: int, c: int) -> None:
    """Zero column c outside row r, in place.

    Every other row with a nonzero f in column c becomes
    combine(row, rows[r], rows[r][c], f); row r itself is left as it is.
    """
    piv_row = rows[r]
    p = piv_row[c]
    for i, row in enumerate(rows):
        f = row[c]
        if f and i != r:
            rows[i] = combine(row, piv_row, p, f)


def rref(rows: Sequence[Sequence], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Nonzero rows of the reduced row echelon form and their pivot columns.

    The pivot columns of a matrix whose columns are vectors v_1..v_m select
    the first maximal independent subset of v_1..v_m, in order.

    Each row is scaled to a primitive integer row and eliminated by `pivot`,
    so no Fraction is built until every pivot row is divided by its pivot
    at the end.
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
        pivot(ints, r, c)
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
    denom = lcm(*(x.denominator for x in v))
    ints = [x.numerator * (denom // x.denominator) for x in v]
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)
