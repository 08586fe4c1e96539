"""Exact linear-program feasibility via phase-one simplex.

Pure feasibility (no objective): minimize the sum of artificial variables
with Bland's rule on both the entering and leaving choice, which precludes
cycling, so termination is unconditional. The tableau is integer rows with
the phase-one cost row last, and each step is one `exact.pivot` on a
positive entry, which keeps every row's orientation. A row may carry any
positive scale: the ratio test compares within one row at a time, the
entering choice reads only signs of the cost row, and the solution is read
as rhs / basic entry, so no denominators are kept. Coefficients must be
ints or Fractions; a float raises TypeError rather than being converted.

When phase one ends with a positive artificial sum, the final cost row is
lambda*(c - y.A') for one lambda > 0, c the artificials' costs and A' the
initial tableau, so its entries at `feasible_point`'s slack columns are a
Farkas vector w, in the caller's row units: each slack column carries its
row's sign flip and primitive scale. `check_farkas` certifies it exactly
(Applegate, Cook, Dash and Espinoza, Oper. Res. Lett. 2007).
"""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from operator import mul

from .exact import pivot, primitive


def solve_equality_form(
    A: Sequence[Sequence],
    b: Sequence,
    num_vars: int,
) -> list[Fraction] | None:
    """Find x >= 0 with A x = b, or None if none exists; every row starts
    with an artificial variable in the basis.

    Entries must be ints or Fractions; any other entry, a float among them,
    raises TypeError.
    """
    return _solution(*_phase_one(A, b, num_vars, None), num_vars)


def _phase_one(
    A: Sequence[Sequence],
    b: Sequence,
    num_vars: int,
    unit_columns: Sequence[int] | None,
) -> tuple[list[list[int]], list[int]]:
    """The final phase-one tableau, cost row last, and the basic column of
    each constraint row.

    unit_columns[i], where given, names a column that may start as the
    basic variable of row i (a unit column such as its slack); a row whose
    column is not a unit column with a positive entry there gets an
    artificial variable."""
    m = len(A)
    if m != len(b):
        raise ValueError("A and b row counts differ")
    for row in A:
        if len(row) != num_vars:
            raise ValueError("row length does not match num_vars")

    rows: list[list[int]] = []
    for i in range(m):
        # primitive integer row with the rhs appended last, rhs made >= 0
        row = list(primitive([*A[i], b[i]]))
        if row[-1] < 0:
            row = [-x for x in row]
        rows.append(row)

    # choose initial basis: the given unit columns where valid, else artificials
    basis: list[int] = [-1] * m
    art_rows: list[int] = []
    for i in range(m):
        col = unit_columns[i] if unit_columns is not None else None
        if col is not None and rows[i][col] > 0:
            ok = all(rows[k][col] == 0 for k in range(m) if k != i)
            if ok:
                basis[i] = col
                continue
        art_rows.append(i)

    n_art = len(art_rows)
    total = num_vars + n_art
    for row in rows:
        rhs = row.pop()
        row.extend([0] * n_art)
        row.append(rhs)
    for k, i in enumerate(art_rows):
        rows[i][num_vars + k] = 1
        basis[i] = num_vars + k

    # reduced costs for min(sum of artificials), kept as tableau row m;
    # artificial rows have unit basic entries, so the row is integral
    cost = [0] * (total + 1)
    for k in range(n_art):
        cost[num_vars + k] = 1
    for i in art_rows:
        for j, x in enumerate(rows[i]):
            if x:
                cost[j] -= x
    rows.append(cost)

    rhs_col = total
    while True:
        cost = rows[m]
        entering = -1
        for j in range(total):
            if cost[j] < 0:
                entering = j
                break
        if entering < 0:
            break
        leaving = -1
        best_num = best_den = 0  # best ratio = best_num / best_den, best_den > 0
        for i in range(m):
            a = rows[i][entering]
            if a > 0:
                r = rows[i][rhs_col]
                if leaving < 0:
                    better = True
                else:
                    lhs = r * best_den
                    rhs = best_num * a
                    better = lhs < rhs or (lhs == rhs and basis[i] < basis[leaving])
                if better:
                    best_num, best_den = r, a
                    leaving = i
        if leaving < 0:
            raise ArithmeticError("phase-one simplex became unbounded")
        pivot(rows, leaving, entering)
        basis[leaving] = entering
    return rows, basis


def _solution(rows: list[list[int]], basis: list[int], num_vars: int) -> list[Fraction] | None:
    """The basic solution of a final tableau, or None when an artificial stays positive."""
    if rows[-1][-1] != 0:
        return None
    x = [Fraction(0)] * num_vars
    for row, col in zip(rows, basis):
        if col < num_vars:
            x[col] = Fraction(row[-1], row[col])
    return x


def feasible_point(
    num_vars: int, A_ub: Sequence[Sequence], b_ub: Sequence
) -> tuple[list[Fraction], None] | tuple[None, tuple[int, ...]]:
    """Find x >= 0 with A_ub x <= b_ub (slacks added here).

    Returns (x, None), x the structural variables, when the system is
    feasible, and (None, w) when it is not: w >= 0 with w.A_ub >= 0 and
    w.b_ub < 0, one entry per row, read from the final cost row at the slack
    columns and passed through `check_farkas`. Slack columns of rows with
    non-negative bounds seed the initial basis, so artificials are only
    created where needed.
    """
    n_slack = len(A_ub)
    rows: list[list] = []
    for k, row in enumerate(A_ub):
        slack = [0] * n_slack
        slack[k] = 1
        rows.append(list(row) + slack)
    slacks = range(num_vars, num_vars + n_slack)
    tableau, basis = _phase_one(rows, b_ub, num_vars + n_slack, slacks)
    solution = _solution(tableau, basis, num_vars)
    if solution is not None:
        return solution, None
    w = tuple(tableau[-1][num_vars:num_vars + n_slack])
    check_farkas(w, A_ub, b_ub)
    return None, w


def check_farkas(w: Sequence, A_ub: Sequence[Sequence], b_ub: Sequence) -> None:
    """Raise ArithmeticError unless w proves that no x >= 0 has A_ub x <= b_ub.

    The proof is w >= 0, w.A_ub >= 0 and w.b_ub < 0: any such x would give
    0 <= (w.A_ub) x <= w.b_ub < 0.
    """
    if len(w) != len(A_ub) or any(x < 0 for x in w):
        raise ArithmeticError("Farkas vector has a negative entry or the wrong length")
    if any(sum(map(mul, w, column)) < 0 for column in zip(*A_ub)):
        raise ArithmeticError("Farkas vector gives a negative column combination")
    if sum(map(mul, w, b_ub)) >= 0:
        raise ArithmeticError("Farkas vector does not bound the right-hand side below zero")
