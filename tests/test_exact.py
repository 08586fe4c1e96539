import re
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mudd import exact

from conftest import rank_of


def _matrices():
    small = st.integers(min_value=-4, max_value=4)
    return st.integers(min_value=1, max_value=6).flatmap(
        lambda ncols: st.tuples(
            st.just(ncols),
            st.lists(st.lists(small, min_size=ncols, max_size=ncols), max_size=6),
        )
    )


class TestNullSpace:
    @settings(max_examples=200, deadline=None)
    @given(matrix=_matrices())
    def test_basis_is_orthogonal_and_complementary(self, matrix):
        ncols, rows = matrix
        pivots, basis = exact.null_space(rows, ncols)
        rank = rank_of(rows)
        assert len(pivots) == rank
        assert len(basis) == ncols - rank
        for vec in basis:
            for row in rows:
                assert sum(Fraction(a) * b for a, b in zip(row, vec)) == 0
        # the basis vectors are independent: each is nonzero at its own free column only
        if basis:
            assert rank_of(basis) == len(basis)
        # primitive integer vectors, positive at their own free column
        free = [c for c in range(ncols) if c not in pivots]
        for vec, f in zip(basis, free):
            assert all(type(x) is int for x in vec)
            assert _row_gcd(vec) == 1
            assert vec[f] > 0

    def test_basis_of_fraction_rows_is_integer(self):
        # x + y/2 - z/3 = 0: the reduced row is (6, 3, -2), so the free
        # columns y and z give (-1, 2, 0) and (1, 0, 3)
        pivots, basis = exact.null_space([[1, Fraction(1, 2), Fraction(-1, 3)]], 3)
        assert pivots == [0]
        assert basis == [(-1, 2, 0), (1, 0, 3)]

    def test_pivots_pick_first_independent_columns(self):
        # columns (1,0), (2,0), (0,1): the second is a multiple of the first
        _, pivots = exact.rref([[1, 2, 0], [0, 0, 1]], 3)
        assert pivots == [0, 2]


def _reference_rref(rows, ncols):
    """Gauss-Jordan on Fractions, the reference the integer kernel must match."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        lead = Fraction(rows[r][c])
        rows[r] = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


@st.composite
def _awkward_matrices(draw):
    """Int and Fraction matrices with zero, duplicate and dependent rows, and
    entries near 2**64."""
    ncols = draw(st.integers(min_value=1, max_value=6))
    entry = st.one_of(
        st.integers(min_value=-4, max_value=4),
        st.fractions(min_value=-4, max_value=4, max_denominator=12),
        st.integers(min_value=2**64 - 4, max_value=2**64 + 4),
        st.integers(min_value=-(2**64) - 4, max_value=-(2**64) + 4),
    )
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=5))
    for kind in draw(st.lists(st.sampled_from(["zero", "duplicate", "combination"]),
                              max_size=3)):
        if kind == "zero" or not rows:
            rows.append([0] * ncols)
        elif kind == "duplicate":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            k = draw(st.integers(min_value=-3, max_value=3))
            rows.append([x + k * y for x, y in zip(a, b)])
    return ncols, draw(st.permutations(rows))


class TestRref:
    @settings(max_examples=300, deadline=None)
    @given(matrix=_awkward_matrices())
    def test_matches_fraction_gauss_jordan(self, matrix):
        ncols, rows = matrix
        reduced, pivots = exact.rref(rows, ncols)
        expected_rows, expected_pivots = _reference_rref(rows, ncols)
        assert pivots == expected_pivots
        assert len(reduced) == len(expected_rows)
        for row, c, expected in zip(reduced, pivots, expected_rows):
            # a primitive integer row with a positive pivot entry, which
            # divides it into the row of the rational reduced form
            assert all(type(x) is int for x in row)
            assert _row_gcd(row) == 1
            assert row[c] > 0
            assert [Fraction(x, row[c]) for x in row] == expected

    def test_float_entry_is_refused(self):
        with pytest.raises(TypeError, match="ints or Fractions, got 0.5"):
            exact.rref([[1, 0.5]], 2)


class TestPrimitive:
    def test_rational_vector(self):
        assert exact.primitive([Fraction(1, 2), Fraction(-3, 4), 0]) == (2, -3, 0)

    def test_sign_is_kept_and_zero_stays_zero(self):
        assert exact.primitive([-4, -6]) == (-2, -3)
        assert exact.primitive([0, 0]) == (0, 0)

    def test_bools_and_fractions_are_accepted(self):
        assert exact.primitive([True, 2]) == (1, 2)
        assert exact.primitive([Fraction(2, 3), 2]) == (1, 3)

    @pytest.mark.parametrize("x", [1.0, Decimal(1)], ids=["float", "decimal"])
    def test_other_numbers_are_refused(self, x):
        with pytest.raises(TypeError, match=re.escape(f"ints or Fractions, got {x!r}")):
            exact.primitive([1, x])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.fractions(max_denominator=50), min_size=1, max_size=6))
    def test_positive_multiple_with_coprime_entries(self, v):
        p = exact.primitive(v)
        nonzero = [(x, y) for x, y in zip(v, p) if x]
        assert all(y == 0 for x, y in zip(v, p) if not x)
        if nonzero:
            ratio = Fraction(nonzero[0][1]) / nonzero[0][0]
            assert ratio > 0
            assert all(y == ratio * x for x, y in nonzero)
            g = 0
            for y in p:
                g = gcd(g, y)
            assert g == 1


def _row_gcd(row):
    g = 0
    for x in row:
        g = gcd(g, x)
    return g


_rows = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
        min_size=2,
        max_size=5,
    )
)


class TestCombine:
    @settings(max_examples=300, deadline=None)
    @given(rows=_rows, p=st.integers(-6, 6), f=st.integers(-6, 6))
    def test_primitive_multiple_of_p_a_minus_f_b(self, rows, p, f):
        a, b = rows[0], rows[1]
        out = exact.combine(a, b, p, f)
        raw = [p * x - f * y for x, y in zip(a, b)]
        if not any(raw):
            assert out == raw  # a zero result stays zero
            return
        assert _row_gcd(out) == 1
        g = _row_gcd(raw)
        # a positive divisor: the orientation of p*a - f*b is kept
        assert [x * g for x in out] == raw

    def test_positive_p_keeps_orientation_of_a(self):
        assert exact.combine([3, 6], [1, 0], 2, 0) == [1, 2]
        assert exact.combine([3, 6], [1, 0], -2, 0) == [-1, -2]

    def test_zero_result_stays_zero(self):
        assert exact.combine([2, 4], [1, 2], 1, 2) == [0, 0]

    def test_hull_step_vanishes_on_the_new_ray(self):
        # (n_h.p) n_v - (n_v.p) n_h, with n_h.p > 0 > n_v.p
        n_v, n_h, p = (1, -1), (0, 1), (1, 2)
        s_v, s_h = exact.dot(n_v, p), exact.dot(n_h, p)
        normal = exact.combine(n_v, n_h, s_h, s_v)
        assert exact.dot(normal, p) == 0
        assert normal == [2, -1]


class TestPivot:
    @settings(max_examples=300, deadline=None)
    @given(rows=_rows, data=st.data())
    def test_column_is_zeroed_outside_the_pivot_row(self, rows, data):
        ncols = len(rows[0])
        candidates = [(r, c) for r in range(len(rows)) for c in range(ncols) if rows[r][c]]
        if not candidates:
            return
        r, c = data.draw(st.sampled_from(candidates))
        before = [list(row) for row in rows]
        exact.pivot(rows, r, c)
        assert rows[r] == before[r]  # the pivot row is left as it is
        for i, row in enumerate(rows):
            if i == r:
                continue
            assert row[c] == 0
            if before[i][c] == 0:
                assert row == before[i]  # rows already zero there are untouched
            else:
                assert _row_gcd(row) in (0, 1)
                assert row == exact.combine(before[i], before[r], before[r][c], before[i][c])
        # the pivot keeps the row space
        assert exact.rref(rows, ncols) == exact.rref(before, ncols)


def test_dot():
    assert exact.dot([1, -2, 0], [3, 4, 5]) == -5
    assert exact.dot([], []) == 0
    assert exact.dot([Fraction(1, 2), 2], [4, Fraction(1, 4)]) == Fraction(5, 2)


def test_only_the_kernel_takes_row_gcds():
    # the integer row step lives in `exact.combine`; a gcd anywhere else in
    # the package is a second copy of it
    import ast
    from pathlib import Path

    package = Path(exact.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "exact.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and any(a.name == "gcd" for a in node.names):
                offenders.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Attribute) and node.attr == "gcd":
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
