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
"""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .exact import pivot, primitive


def solve_equality_form(
    A: Sequence[Sequence],
    b: Sequence,
    num_vars: int,
    basis_hint: Sequence[int | None] | None = None,
) -> list[Fraction] | None:
    """Find x >= 0 with A x = b, or None if none exists.

    basis_hint[i] may name a column usable as the initial basic variable of
    row i (a unit column such as a slack); rows without a usable hint get an
    artificial variable.

    Entries must be ints or Fractions; any other entry, a float among them,
    raises TypeError.
    """
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

    # choose initial basis: hinted unit columns where valid, else artificials
    basis: list[int] = [-1] * m
    art_rows: list[int] = []
    for i in range(m):
        hint = basis_hint[i] if basis_hint is not None else None
        if hint is not None and rows[i][hint] > 0:
            ok = all(rows[k][hint] == 0 for k in range(m) if k != i)
            if ok:
                basis[i] = hint
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

    if rows[m][rhs_col] != 0:
        return None
    x = [Fraction(0)] * num_vars
    for i in range(m):
        col = basis[i]
        if col < num_vars:
            x[col] = Fraction(rows[i][rhs_col], rows[i][col])
    return x


def feasible_point(
    num_vars: int, A_ub: Sequence[Sequence], b_ub: Sequence
) -> list[Fraction] | None:
    """Find x >= 0 with A_ub x <= b_ub (slacks added here).

    Returns the structural variables only, or None if the system is
    infeasible. Slack columns of rows with non-negative bounds seed the
    initial basis, so artificials are only created where needed.
    """
    n_slack = len(A_ub)
    rows: list[list] = []
    hints: list[int | None] = []
    for k, row in enumerate(A_ub):
        slack = [0] * n_slack
        slack[k] = 1
        rows.append(list(row) + slack)
        hints.append(num_vars + k)
    solution = solve_equality_form(rows, b_ub, num_vars + n_slack, basis_hint=hints)
    if solution is None:
        return None
    return solution[:num_vars]
