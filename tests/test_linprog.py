from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mudd.errors import MuddError
from mudd.linprog import _check_farkas, feasible_point, solve_equality_form


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
    x, w = feasible_point(1, A_ub=[[1], [-1]], b_ub=[2, -1])
    assert x is not None and w is None
    assert 1 <= x[0] <= 2


def _assert_farkas(w, A_ub, b_ub):
    """w >= 0, w.A_ub >= 0 and w.b_ub < 0, checked here without _check_farkas."""
    assert len(w) == len(A_ub) and all(x >= 0 for x in w)
    assert all(sum(x * row[j] for x, row in zip(w, A_ub)) >= 0 for j in range(len(A_ub[0])))
    assert sum(x * b for x, b in zip(w, b_ub)) < 0


def test_feasible_point_infeasible_box():
    x, w = feasible_point(1, A_ub=[[1], [-1]], b_ub=[1, -2])
    assert x is None
    _assert_farkas(w, [[1], [-1]], [1, -2])


def test_farkas_vector_of_an_infeasible_system():
    # x + y <= 1, -x <= -1, -2y <= -1 (y >= 1/2): rows rescaled and
    # sign-flipped in the tableau, yet w is in these rows' units
    A_ub, b_ub = [[1, 1], [-1, 0], [0, -2], [3, 0]], [1, -1, -1, 7]
    x, w = feasible_point(2, A_ub, b_ub)
    assert x is None
    _assert_farkas(w, A_ub, b_ub)
    assert all(type(v) is int for v in w)


@pytest.mark.parametrize("k", range(3))
def test_corrupted_farkas_vector_is_refused(k):
    A_ub, b_ub = [[1, 1], [-1, 0], [0, -2]], [1, -1, -1]
    _, w = feasible_point(2, A_ub, b_ub)
    _check_farkas(w, A_ub, b_ub)
    for bad in (w[k] - 1, w[k] + 3, -1):
        corrupted = list(w)
        corrupted[k] = bad
        with pytest.raises(ArithmeticError, match="Farkas"):
            _check_farkas(corrupted, A_ub, b_ub)


def _with_equalities(A_eq, b_eq, A_ub, b_ub):
    """Inequality rows for A_eq x = b_eq and A_ub x <= b_ub: each equality
    row as the pair a.x <= b and -a.x <= -b."""
    rows = list(A_ub) + [r for a in A_eq for r in (list(a), [-x for x in a])]
    rhs = list(b_ub) + [r for b in b_eq for r in (b, -b)]
    return rows, rhs


def test_mixed_system():
    # x + y = 4 with x <= 1 forces y >= 3
    x, _ = feasible_point(2, *_with_equalities([[1, 1]], [4], [[1, 0]], [1]))
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


def test_int_and_fraction_entries_agree():
    # ints and Fractions pass through: the same system in each form (and
    # scaled by 1/4) has the same solution
    A = [[2, 1, 0, 3], [1, 0, 1, -1], [0, 1, 1, 1]]
    b = [6, 1, 3]
    forms = [(A, b)]
    for scale in (1, Fraction(1, 4)):
        forms.append(([[Fraction(x * scale) for x in row] for row in A],
                      [Fraction(x * scale) for x in b]))
    forms.append(([[A[0][0], Fraction(A[0][1]), A[0][2], A[0][3]]] + A[1:], b))
    solutions = [solve_equality_form(a, rhs, 4) for a, rhs in forms]
    assert solutions[0] is not None
    assert all(x == solutions[0] for x in solutions)
    assert all(type(v) is Fraction for v in solutions[0])
    points = [feasible_point(4, *_with_equalities(a[:2], rhs[:2], a[2:], rhs[2:]))[0]
              for a, rhs in forms]
    assert points[0] is not None
    assert all(x == points[0] for x in points)


@pytest.mark.parametrize("A, b", [
    ([[1, 0.5]], [1]),  # a float coefficient
    ([[1, 1]], [0.1]),  # a float right-hand side, which is not 1/10
])
def test_float_entry_is_refused(A, b):
    with pytest.raises(TypeError, match="ints or Fractions"):
        solve_equality_form(A, b, 2)
    with pytest.raises(TypeError, match="ints or Fractions"):
        feasible_point(2, A, b)


def test_shape_errors():
    with pytest.raises(MuddError, match="^b has 2 entries, expected 1$"):
        solve_equality_form([[1, 2]], [1, 2], 2)
    with pytest.raises(MuddError, match="^row of A has 3 entries, expected 2$"):
        solve_equality_form([[1, 2, 3]], [1], 2)
    with pytest.raises(MuddError, match="^b has 2 entries, expected 1$"):
        feasible_point(2, [[1, 2]], [1, 2])
    # the caller's row is measured, not the row with its slack appended
    with pytest.raises(MuddError, match="^row of A has 3 entries, expected 2$"):
        feasible_point(2, [[1, 2, 3]], [1])


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
    rows, rhs = _with_equalities(A_eq, b_eq, A_ub, b_ub)
    x, w = feasible_point(n, rows, rhs)
    assert (x is not None) == _highs_feasible(n, A_eq, b_eq, A_ub, b_ub)
    assert (x is None) == (w is not None)
    if w is not None:
        _assert_farkas(w, rows, rhs)
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
