from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mudd.linprog import feasible_point, solve_equality_form


def test_simple_equality_system():
    # x1 + x2 = 2, x1 - x2 = 0 -> x = (1, 1)
    x = solve_equality_form([[1, 1], [1, -1]], [2, 0], 2)
    assert x == [Fraction(1), Fraction(1)]


def test_infeasible_equality_system():
    # x1 + x2 = -1 has no non-negative solution
    assert solve_equality_form([[1, 1]], [-1], 2) is None


def test_underdetermined_picks_some_solution():
    x = solve_equality_form([[1, 1, 1]], [3], 3)
    assert x is not None
    assert sum(x) == 3
    assert all(v >= 0 for v in x)


def test_redundant_rows_ok():
    x = solve_equality_form([[1, 1], [2, 2]], [2, 4], 2)
    assert x is not None
    assert x[0] + x[1] == 2


def test_inconsistent_redundant_rows():
    assert solve_equality_form([[1, 1], [1, 1]], [2, 3], 2) is None


def test_rational_coefficients():
    x = solve_equality_form([[Fraction(1, 3), Fraction(1, 2)]], [Fraction(5, 6)], 2)
    assert x is not None
    assert Fraction(1, 3) * x[0] + Fraction(1, 2) * x[1] == Fraction(5, 6)


def test_feasible_point_with_inequalities():
    # x <= 2, -x <= -1 (x >= 1)
    x = feasible_point(1, A_ub=[[1], [-1]], b_ub=[2, -1])
    assert x is not None
    assert 1 <= x[0] <= 2


def test_feasible_point_infeasible_box():
    assert feasible_point(1, A_ub=[[1], [-1]], b_ub=[1, -2]) is None


def test_mixed_system():
    # x + y = 4 with x <= 1 forces y >= 3
    x = feasible_point(2, A_eq=[[1, 1]], b_eq=[4], A_ub=[[1, 0]], b_ub=[1])
    assert x is not None
    assert x[0] + x[1] == 4
    assert x[0] <= 1


def test_degenerate_ties_terminate():
    # highly degenerate rows exercise Bland's rule tie-breaking
    rows = [
        [1, 1, 0, 0],
        [0, 1, 1, 0],
        [1, 0, 1, 0],
        [1, 1, 1, 1],
    ]
    x = solve_equality_form(rows, [0, 0, 0, 0], 4)
    assert x == [Fraction(0)] * 4


def test_float_bounds_are_exact_rationals():
    # 0.1 as a float is not 1/10; the solver must honor the exact binary value
    x = feasible_point(1, A_ub=[[1], [-1]], b_ub=[0.1, -0.1])
    assert x is not None
    assert x[0] == Fraction(0.1)


def test_int_fraction_and_dyadic_float_entries_agree():
    # ints and Fractions pass through, floats count as their exact binary
    # value: the same system in each form (and scaled by 1/4, which is
    # dyadic) has the same solution
    A = [[2, 1, 0, 3], [1, 0, 1, -1], [0, 1, 1, 1]]
    b = [6, 1, 3]
    forms = [(A, b)]
    for conv in (Fraction, float):
        for scale in (1, Fraction(1, 4)):
            forms.append(([[conv(x * scale) for x in row] for row in A],
                          [conv(x * scale) for x in b]))
    forms.append(([[A[0][0], Fraction(A[0][1]), float(A[0][2]), A[0][3]]] + A[1:], b))
    solutions = [solve_equality_form(a, rhs, 4) for a, rhs in forms]
    assert solutions[0] is not None
    assert all(x == solutions[0] for x in solutions)
    assert all(type(v) is Fraction for v in solutions[0])
    points = [feasible_point(4, A_eq=a[:2], b_eq=rhs[:2], A_ub=a[2:], b_ub=rhs[2:])
              for a, rhs in forms]
    assert points[0] is not None
    assert all(x == points[0] for x in points)


def test_shape_errors():
    with pytest.raises(ValueError):
        solve_equality_form([[1, 2]], [1, 2], 2)
    with pytest.raises(ValueError):
        solve_equality_form([[1, 2, 3]], [1], 2)


# ---------------------------------------------------------------------------
# differential test against scipy's HiGHS, a test-only oracle


def _matrix(rows, cols):
    return st.lists(st.lists(st.integers(-4, 4), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def _rhs(rows):
    return st.lists(st.integers(-6, 6), min_size=rows, max_size=rows)


@st.composite
def _systems(draw, min_eq=0, max_ub=4):
    """Small integer systems: n, A_eq, b_eq, A_ub, b_ub."""
    n = draw(st.integers(1, 5))
    m_eq = draw(st.integers(min_eq, 3))
    m_ub = draw(st.integers(0, max_ub))
    return (n, draw(_matrix(m_eq, n)), draw(_rhs(m_eq)),
            draw(_matrix(m_ub, n)), draw(_rhs(m_ub)))


def _highs_feasible(n, A_eq, b_eq, A_ub, b_ub) -> bool:
    from scipy.optimize import linprog

    result = linprog([0] * n, A_ub=A_ub or None, b_ub=b_ub or None,
                     A_eq=A_eq or None, b_eq=b_eq or None, bounds=(0, None),
                     method="highs")
    assert result.status in (0, 2), result.message  # solved, or proved infeasible
    return result.status == 0


@settings(max_examples=300, deadline=None)
@given(_systems())
def test_feasible_point_agrees_with_highs(system):
    n, A_eq, b_eq, A_ub, b_ub = system
    x = feasible_point(n, A_eq, b_eq, A_ub, b_ub)
    assert (x is not None) == _highs_feasible(n, A_eq, b_eq, A_ub, b_ub)
    if x is not None:
        assert len(x) == n and all(v >= 0 for v in x)
        assert all(sum(a * v for a, v in zip(row, x)) == r for row, r in zip(A_eq, b_eq))
        assert all(sum(a * v for a, v in zip(row, x)) <= r for row, r in zip(A_ub, b_ub))


@settings(max_examples=300, deadline=None)
@given(_systems(min_eq=1, max_ub=0))
def test_solve_equality_form_agrees_with_highs(system):
    n, A, b, _, _ = system
    x = solve_equality_form(A, b, n)
    assert (x is not None) == _highs_feasible(n, A, b, [], [])
    if x is not None:
        assert len(x) == n and all(v >= 0 for v in x)
        assert all(sum(a * v for a, v in zip(row, x)) == r for row, r in zip(A, b))
