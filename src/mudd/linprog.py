"""Exact linear-program feasibility via phase-one simplex.

Pure feasibility (no objective): minimize the sum of artificial variables
with Bland's rule on both the entering and leaving choice, which precludes
cycling, so termination is unconditional. Rows are kept as integer vectors
with one positive denominator each; pivoting uses cross-multiplication and
one row-level gcd, so verdicts are exact without per-entry rational
normalization overhead.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .exact import normalize_row, primitive, rational


def solve_equality_form(
    A: Sequence[Sequence],
    b: Sequence,
    num_vars: int,
    basis_hint: Optional[Sequence[Optional[int]]] = None,
) -> Optional[list[Fraction]]:
    """Find x >= 0 with A x = b, or None if none exists.

    basis_hint[i] may name a column usable as the initial basic variable of
    row i (a unit column such as a slack); rows without a usable hint get an
    artificial variable.

    Entries may be ints, Fractions or floats; a float counts as its exact
    binary value.
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
        row = list(primitive([rational(x) for x in A[i]] + [rational(b[i])]))
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
    denoms: list[int] = []
    for i in range(m):
        rhs = rows[i].pop()
        rows[i].extend([0] * n_art)
        rows[i].append(rhs)
        denoms.append(1)
    for k, i in enumerate(art_rows):
        rows[i][num_vars + k] = 1
        basis[i] = num_vars + k

    # reduced costs for min(sum of artificials); artificial rows have unit
    # basic entries so the initial cost row is integral with denominator 1
    cost = [0] * (total + 1)
    for k in range(n_art):
        cost[num_vars + k] = 1
    for i in art_rows:
        row = rows[i]
        for j in range(total + 1):
            if row[j]:
                cost[j] -= row[j]
    cost_denom = 1

    rhs_col = total
    while True:
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

        piv_row = rows[leaving]
        piv = piv_row[entering]
        for i in range(m):
            if i == leaving:
                continue
            f = rows[i][entering]
            if f:
                row = [x * piv - f * y for x, y in zip(rows[i], piv_row)]
                rows[i] = row
                denoms[i] *= piv
                denoms[i] //= normalize_row(row, denoms[i])
        f = cost[entering]
        if f:
            cost = [x * piv - f * y for x, y in zip(cost, piv_row)]
            cost_denom *= piv
            cost_denom //= normalize_row(cost, cost_denom)
        denoms[leaving] = piv
        denoms[leaving] //= normalize_row(piv_row, piv)
        basis[leaving] = entering

    if cost[rhs_col] != 0:
        return None
    x = [Fraction(0)] * num_vars
    for i in range(m):
        col = basis[i]
        if col < num_vars:
            x[col] = Fraction(rows[i][rhs_col], rows[i][col])
    return x


def feasible_point(
    num_vars: int,
    A_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
    A_ub: Sequence[Sequence] = (),
    b_ub: Sequence = (),
) -> Optional[list[Fraction]]:
    """Find x >= 0 with A_eq x = b_eq and A_ub x <= b_ub (slacks added here).

    Returns the structural variables only, or None if the system is
    infeasible. Slack columns of inequality rows with non-negative bounds
    seed the initial basis, so artificials are only created where needed.
    """
    n_slack = len(A_ub)
    rows: list[list] = []
    rhs: list = []
    hints: list[Optional[int]] = []
    for row, r in zip(A_eq, b_eq):
        rows.append(list(row) + [0] * n_slack)
        rhs.append(r)
        hints.append(None)
    for k, (row, r) in enumerate(zip(A_ub, b_ub)):
        slack = [0] * n_slack
        slack[k] = 1
        rows.append(list(row) + slack)
        rhs.append(r)
        hints.append(num_vars + k)
    solution = solve_equality_form(rows, rhs, num_vars + n_slack, basis_hint=hints)
    if solution is None:
        return None
    return solution[:num_vars]
