from fractions import Fraction
from math import gcd

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
        # the basis vectors are independent: each has a 1 at its own free column
        if basis:
            assert rank_of(basis) == len(basis)

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
        assert reduced == expected_rows
        assert all(type(x) is Fraction for row in reduced for x in row)

    def test_float_entry_is_its_exact_value(self):
        reduced, pivots = exact.rref([[3, 0.1]], 2)
        assert pivots == [0]
        assert reduced == [[Fraction(1), Fraction(0.1) / 3]]
        assert all(type(x) is Fraction for x in reduced[0])
        assert reduced[0][1] != Fraction(1, 30)


class TestPrimitive:
    def test_rational_vector(self):
        assert exact.primitive([Fraction(1, 2), Fraction(-3, 4), 0]) == (2, -3, 0)

    def test_sign_is_kept_and_zero_stays_zero(self):
        assert exact.primitive([-4, -6]) == (-2, -3)
        assert exact.primitive([0, 0]) == (0, 0)

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


class TestNormalizeRow:
    def test_divides_row_and_reports_divisor(self):
        row = [4, -6, 0, 10]
        assert exact.normalize_row(row) == 2
        assert row == [2, -3, 0, 5]

    def test_denominator_takes_part(self):
        row = [4, 8]
        assert exact.normalize_row(row, 6) == 2
        assert row == [2, 4]
        row = [4, 8]
        assert exact.normalize_row(row, 3) == 1
        assert row == [4, 8]

    def test_zero_row(self):
        row = [0, 0]
        assert exact.normalize_row(row) == 1
        assert row == [0, 0]
