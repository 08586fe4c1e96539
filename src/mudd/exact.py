"""Exact linear-algebra kernel shared by deduction, the hull and the LP.

Every layer takes a caller's vectors through `vectors` or `check_length`,
which refuse one of the wrong length with one MuddError naming both
lengths, and so do `rref`, which reads its width from its first row, and
`null_space`, so no step below zips two vectors of different lengths.

One integer row step, `combine` (p*a - f*b divided by its gcd), and
`pivot`, which applies it to zero a column outside one row; the row
reduction, the simplex and the hull's new facet normals are all built on
them. Around that: the dot product, reduced row echelon form with its
null-space basis, and the primitive integer form of a rational vector.
`rref` and `null_space` take integer rows, converted by `vectors`, so a
float, even `2.0`, or a Fraction raises TypeError there; `primitive` and
`dot` also take Fractions. Rows are reduced as integer rows and come back
as integer rows, so nothing here rounds.
"""
from __future__ import annotations

from math import gcd, lcm
from operator import index, mul
from collections.abc import Iterable, MutableSequence, Sequence

from .errors import MuddError


def check_length(v: Sequence, n: int, what: str) -> None:
    """Raise MuddError unless `v`, named `what` in the message, has n entries."""
    if len(v) != n:
        raise MuddError(f"{what} has {len(v)} entries, expected {n}")


def vectors(rows: Iterable, n: int | None = None,
            what: str = "signature") -> list[tuple[int, ...]]:
    """Each row as an int tuple by `operator.index` (a float, even `2.0`, raises
    TypeError), all with n entries, or as many as the first when n is None."""
    out = [tuple(map(index, row)) for row in rows]
    if n is None and out:
        n = len(out[0])
    for v in out:
        check_length(v, n, what)
    return out


def dot(a: Sequence, b: Sequence):
    """The dot product; it trusts its callers to pass vectors of one length."""
    return sum(map(mul, a, b))


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


def rref(rows: Sequence[Sequence]) -> tuple[list[list[int]], list[int]]:
    """Nonzero rows of the reduced row echelon form and their pivot columns.

    Each row is converted by `vectors`: an entry that is not an integer
    raises TypeError, and a row not as long as the first raises MuddError.

    The pivot columns of a matrix whose columns are vectors v_1..v_m select
    the first maximal independent subset of v_1..v_m, in order.

    Rows are eliminated by `pivot`. A returned row is primitive with a
    positive pivot entry: divided by that entry it is the row of the
    rational reduced form.
    """
    ints = vectors(rows, what="row")
    ncols = len(ints[0]) if ints else 0
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
    # combine with f = 0 is the row over its gcd, times p = -1 for a negative pivot
    reduced = [combine(row, row, -1 if row[c] < 0 else 1, 0) for row, c in zip(ints, pivots)]
    return reduced, pivots


def null_space(rows: Sequence[Sequence], ncols: int) -> tuple[list[int], list[tuple[int, ...]]]:
    """Pivot columns of `rows` and a basis of the vectors orthogonal to every row.

    The basis has one primitive integer vector per free column, ncols minus
    the rank in all: it is positive at its free column, 0 at the other free
    columns, and at each pivot the multiple that cancels that free column of
    its reduced row. A row of other than ncols entries raises MuddError, and
    an entry that is not an integer TypeError, as in `rref`.
    """
    if rows:
        check_length(rows[0], ncols, "row")  # `rref` checks the rest against it
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        # each reduced row reads row[c] * vec[c] + row[f] * vec[f] = 0
        scale = lcm(*(row[c] for row, c in zip(reduced, pivots) if row[f]))
        vec = [0] * ncols
        vec[f] = scale
        for row, c in zip(reduced, pivots):
            vec[c] = -row[f] * (scale // row[c])
        basis.append(primitive(vec))
    return pivots, basis


def primitive(v: Sequence) -> tuple[int, ...]:
    """`v`, ints and Fractions, scaled by a positive rational to coprime
    integers (zero stays zero). Any other entry raises TypeError."""
    for x in v:
        if not isinstance(x, int):
            from fractions import Fraction  # imported only for an entry that is no int

            if not isinstance(x, Fraction):
                raise TypeError(f"entries must be ints or Fractions, got {x!r}")
    denom = lcm(*(x.denominator for x in v))
    ints = [x.numerator * (denom // x.denominator) for x in v]
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)
