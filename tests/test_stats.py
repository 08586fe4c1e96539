import io
import math

import numpy as np
import pytest

from mudd.errors import (
    MalformedCsv,
    MissingCounter,
    NegativeCell,
    NonFiniteStatistics,
    NonNumericCell,
    NotSymmetric,
    TooFewSamples,
)
from mudd.model import CounterNamespace
from mudd.stats import (
    ObservationSet,
    build_confidence_region,
    chi_square_quantile,
    eigendecompose,
    load_observations,
    mean_and_covariance,
    point_region,
    write_observations,
)

NS2 = CounterNamespace(["a", "b"])


def obs_from(rows, ns=NS2, run_id="test"):
    return ObservationSet(run_id=run_id, sample_matrix=np.array(rows, float), namespace=ns)


class TestLoader:
    def test_basic_csv(self):
        src = io.StringIO("t,a,b\n0,1,2\n1,3,4\n2,5,6\n")
        obs = load_observations(src, NS2)
        assert np.shape(obs.sample_matrix) == (3, 2)
        assert list(obs.sample_matrix[0]) == [1.0, 2.0]

    def test_columns_reordered_to_namespace(self):
        src = io.StringIO("b,a\n2,1\n4,3\n")
        obs = load_observations(src, NS2)
        assert list(obs.sample_matrix[0]) == [1.0, 2.0]

    def test_missing_counter_raises(self):
        src = io.StringIO("a\n1\n2\n")
        with pytest.raises(MissingCounter):
            load_observations(src, NS2)

    def test_projection_restricts_namespace(self):
        src = io.StringIO("a\n1\n2\n")
        obs = load_observations(src, NS2, project=True)
        assert obs.namespace.names == ("a",)
        assert any("projected-out:b" in p for p in obs.provenance)

    def test_extra_columns_warn_and_ignored(self):
        src = io.StringIO("a,b,unmodeled\n1,2,9\n3,4,9\n")
        with pytest.warns(UserWarning, match="unmodeled"):
            obs = load_observations(src, NS2)
        assert np.shape(obs.sample_matrix) == (2, 2)

    def test_non_numeric_cell(self):
        for cell in ("x", "nan", "inf", "-inf"):
            src = io.StringIO(f"a,b\n1,2\n{cell},4\n")
            with pytest.raises(NonNumericCell, match=f"run 'r' line 3 column 'a': '{cell}'"):
                load_observations(src, NS2, run_id="r")

    def test_negative_cell(self):
        src = io.StringIO("t,a,b\n0,1,2\n1,3,4\n2,5,-0.5\n")
        with pytest.raises(NegativeCell, match="run 'r' line 4 column 'b': '-0.5'"):
            load_observations(src, NS2, run_id="r")
        # a negative zero is zero
        obs = load_observations(io.StringIO("a,b\n-0.0,1\n2,3\n"), NS2)
        assert obs.sample_matrix[0][0] == 0

    def test_header_naming_a_column_twice(self):
        # the later copy used to win silently
        src = io.StringIO("t,a,b,a\n0,1,2,9\n1,3,4,9\n")
        with pytest.raises(MalformedCsv, match="^run 'r' line 1 column 'a': named twice"):
            load_observations(src, NS2, run_id="r")

    def test_ragged_rows(self):
        src = io.StringIO("a,b\n1,2\n3,4,5\n")
        with pytest.raises(MalformedCsv, match="^run 'r' line 3: row has too many columns"):
            load_observations(src, NS2, run_id="r")
        # too few, even when only an unmodeled column is short
        src = io.StringIO("a,b,c\n1,2,0\n3,4\n")
        with pytest.warns(UserWarning, match="unmodeled"):
            with pytest.raises(MalformedCsv, match="^run 'r' line 3: row has too few columns"):
                load_observations(src, NS2, run_id="r")

    def test_too_few_samples(self):
        src = io.StringIO("a,b\n1,2\n")
        with pytest.raises(TooFewSamples):
            load_observations(src, NS2)

    def test_round_trip_with_writer(self, tmp_path):
        obs = obs_from([[1.5, 2.25], [3.0, 4.125]])
        dest = tmp_path / "run.csv"
        write_observations(obs, dest)
        back = load_observations(dest, NS2)
        assert np.array_equal(back.sample_matrix, obs.sample_matrix)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            obs_from([[1, -2], [3, 4]])

    def test_matrix_kept_as_given(self):
        rows = [[1.0, 2.0], [3.0, 4.0]]
        assert ObservationSet("r", rows, NS2).sample_matrix is rows
        array = np.array(rows)
        assert ObservationSet("r", array, NS2).sample_matrix is array

    def test_matrix_shape_validated(self):
        for bad in ([1.0, 2.0], np.zeros((2, 2, 2)), [["a", "b"], ["c", "d"]]):
            with pytest.raises(ValueError, match="two-dimensional"):
                ObservationSet("r", bad, NS2)
        with pytest.raises(TooFewSamples):
            ObservationSet("r", [[1.0, 2.0]], NS2)
        with pytest.raises(ValueError, match="3 columns for 2 counters"):
            ObservationSet("r", [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]], NS2)


class TestMoments:
    def test_identical_rows_zero_covariance(self):
        mean, cov, mean_cov = mean_and_covariance(obs_from([[3, 4], [3, 4], [3, 4]]))
        assert list(mean) == [3, 4]
        assert np.allclose(cov, 0)
        assert np.allclose(mean_cov, 0)

    def test_hand_computed_two_samples(self):
        mean, cov, mean_cov = mean_and_covariance(obs_from([[0, 0], [2, 2]]))
        assert list(mean) == [1, 1]
        assert np.asarray(cov).tolist() == [[2, 2], [2, 2]]
        assert np.asarray(mean_cov).tolist() == [[1, 1], [1, 1]]

    def test_anticorrelated_pair(self):
        _, cov, _ = mean_and_covariance(obs_from([[0, 2], [2, 0]]))
        assert cov[0][1] == pytest.approx(-2)

    def test_overflow_names_the_run(self, recwarn):
        huge = obs_from([[1e300, 0], [3e300, 1], [2e300, 2]], run_id="huge")
        with pytest.raises(NonFiniteStatistics, match="'huge'"):
            mean_and_covariance(huge)
        # the column sum itself overflows
        huger = obs_from([[1e308, 0], [1.7e308, 1]], run_id="huger")
        with pytest.raises(NonFiniteStatistics, match="'huger'"):
            mean_and_covariance(huger)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_constant_column_is_exact(self):
        # fsum(0.1, 0.1, 0.1) / 3 is not 0.1; a constant column keeps its value
        mean, cov, _ = mean_and_covariance(obs_from([[0.1, 1], [0.1, 2], [0.1, 4]]))
        assert mean[0] == 0.1
        assert cov[0] == (0.0, 0.0) and cov[1][0] == 0.0
        assert cov[1][1] == pytest.approx(7 / 3, rel=1e-15)

    def test_covariance_exactly_symmetric(self):
        rng = np.random.default_rng(12)
        ns = CounterNamespace([f"c{i}" for i in range(6)])
        _, cov, mean_cov = mean_and_covariance(obs_from(rng.uniform(0, 1e4, (30, 6)), ns))
        for m in (cov, mean_cov):
            assert all(m[i][j] == m[j][i] for i in range(6) for j in range(6))


class TestChiSquare:
    def test_two_dof_closed_form(self):
        # P(chi2_2 <= q) = 1 - exp(-q/2), so the p quantile is -2 ln(1-p)
        assert chi_square_quantile(2, 0.99) == pytest.approx(9.21034, abs=1e-4)
        for p in (0.1, 0.5, 0.9, 0.999):
            assert chi_square_quantile(2, p) == pytest.approx(-2 * math.log(1 - p), abs=1e-8)

    def test_one_dof_closed_form(self):
        # quantile is the squared standard normal quantile at (1+p)/2
        from scipy.special import erfinv

        for p in (0.2, 0.8, 0.99):
            z = math.sqrt(2) * erfinv(p)
            assert chi_square_quantile(1, p) == pytest.approx(z * z, abs=1e-7)

    def test_small_p_limit(self):
        assert chi_square_quantile(1, 1e-12) < 1e-6

    def test_monotone_in_p(self):
        qs = [chi_square_quantile(3, p) for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert qs == sorted(qs)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            chi_square_quantile(0, 0.5)
        with pytest.raises(ValueError):
            chi_square_quantile(2, 1.0)

    def test_levels_match_scipy_bisection_bit_for_bit(self):
        # the levels check uses give the regions scipy's gammainc gave
        for dof in range(1, 65):
            for p in (0.5, 0.9, 0.95, 0.99, 0.995, 0.999, 0.9999):
                assert chi_square_quantile(dof, p) == scipy_bisection_quantile(dof, p), (dof, p)

    @pytest.mark.parametrize("dofs", [range(1, 201), (500, 1000, 4096)],
                             ids=["dof1-200", "large-dof"])
    def test_matches_scipy_bisection_across_tails(self, dofs):
        ps = (1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.3, 0.5, 0.7, 0.99, 1 - 1e-6, 1 - 1e-9)
        for dof in dofs:
            for p in ps:
                q = chi_square_quantile(dof, p)
                ref = scipy_bisection_quantile(dof, p)
                assert math.isfinite(q) and q > 0, (dof, p)
                assert abs(q - ref) <= 1e-10 * ref, (dof, p, q, ref)


def scipy_bisection_quantile(dof, p):
    """The quantile as computed before: the same bisection over scipy's gammainc."""
    from scipy.special import gammainc

    hi = float(max(dof, 1))
    while gammainc(dof / 2.0, hi / 2.0) < p:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        if hi - lo <= 1e-12 * max(hi, 1e-300):
            break
        mid = (lo + hi) / 2.0
        if gammainc(dof / 2.0, mid / 2.0) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


class TestEigendecompose:
    def test_identity(self):
        values, axes = eigendecompose(np.eye(3))
        axes = np.asarray(axes)
        assert np.allclose(values, 1)
        assert np.allclose(axes @ axes.T, np.eye(3))

    def test_diagonal_sorted_descending(self):
        values, axes = eigendecompose(np.diag([1.0, 4.0]))
        assert list(values) == [4.0, 1.0]
        assert abs(np.asarray(axes[0]) @ [0, 1]) == pytest.approx(1)

    def test_hand_computed_2x2(self):
        values, axes = eigendecompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert list(values) == pytest.approx([3.0, 1.0])
        assert abs(np.asarray(axes[0]) @ [1 / math.sqrt(2), 1 / math.sqrt(2)]) == pytest.approx(1)

    def test_reconstruction(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(5, 5))
        sym = m @ m.T
        values, axes = eigendecompose(sym)
        axes = np.asarray(axes)
        recon = axes.T @ np.diag(values) @ axes
        assert np.abs(recon - sym).max() <= 1e-9 * (1 + np.abs(sym).max())

    def test_negative_clamped(self):
        values, _ = eigendecompose(np.array([[1e-18, 0.0], [0.0, -1e-18]]))
        assert (np.asarray(values) >= 0).all()

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            eigendecompose(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_non_finite_entries_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="non-finite"):
                eigendecompose([[bad, 0.0], [0.0, 1.0]])

    def test_not_square(self):
        for bad in ([[1.0, 2.0]], [1.0, 2.0], [[1.0], [2.0, 3.0]]):
            with pytest.raises(NotSymmetric, match="not square"):
                eigendecompose(bad)

    def test_zero_row_is_its_own_eigenpair(self):
        values, axes = eigendecompose([[2.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 2.0]])
        assert values[2] == 0.0 and axes[2] == (0.0, 1.0, 0.0)
        assert list(values[:2]) == pytest.approx([3.0, 1.0], rel=1e-15)
        assert all(row[1] == 0.0 for row in axes[:2])

    def test_returns_tuples_of_floats(self):
        values, axes = eigendecompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert type(values) is tuple and type(axes) is tuple
        assert all(type(x) is float for x in values)
        assert all(type(row) is tuple and all(type(x) is float for x in row)
                   for row in axes)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_matches_numpy_eigh(self, n):
        # eigenvalues within 1e-12 of the largest, orthonormal rows within
        # 1e-12, and the reconstruction bound, on positive semidefinite
        # matrices of every kind a covariance takes
        for sigma in psd_matrices(n, np.random.default_rng(1000 + n)):
            values, axes = eigendecompose(sigma)
            axes = np.asarray(axes)
            ref = np.clip(np.linalg.eigvalsh(sigma)[::-1], 0.0, None)
            largest = float(np.abs(np.linalg.eigvalsh(sigma)).max())
            assert list(values) == sorted(values, reverse=True)
            assert min(values) >= 0.0
            assert np.abs(np.asarray(values) - ref).max() <= 1e-12 * largest
            assert np.abs(axes @ axes.T - np.eye(n)).max() <= 1e-12
            recon = axes.T @ np.diag(values) @ axes
            assert np.abs(recon - sigma).max() <= 1e-9 * (1.0 + np.abs(sigma).max())
            _, vectors = np.linalg.eigh(sigma)
            simple = np.abs(np.diff(ref)) > 1e-6 * max(largest, 1e-300)
            for i in range(n):  # a simple eigenvalue fixes its axis up to sign
                if (i == 0 or simple[i - 1]) and (i == n - 1 or simple[i]) and ref[i] > 0:
                    assert abs(abs(axes[i] @ vectors[:, n - 1 - i]) - 1.0) <= 1e-8


def psd_matrices(n, rng):
    """Positive semidefinite test matrices of size n: full rank, rank
    deficient, with repeated eigenvalues, with all-zero rows, and diagonal."""
    scale = 10.0 ** rng.uniform(-6, 6)
    m = rng.normal(size=(n, n + 3)) * scale
    yield m @ m.T
    r = int(rng.integers(0, n))
    m = rng.normal(size=(n, r)) * scale
    yield m @ m.T
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    spectrum = np.repeat([4.0, 1.0, 0.0], [n // 3, n // 3, n - 2 * (n // 3)]) * scale
    yield (q * spectrum) @ q.T
    m = rng.normal(size=(n, n + 1)) * scale
    full = m @ m.T
    zero = rng.random(n) < 0.3
    full[zero, :] = 0.0
    full[:, zero] = 0.0
    yield full
    diagonal = rng.choice([0.0, 1.0, 2.5], size=n) * scale
    yield np.diag(diagonal)
    yield np.zeros((n, n))


class TestConfidenceRegion:
    def test_zero_covariance_is_a_point(self):
        region = build_confidence_region(obs_from([[3, 4], [3, 4]]))
        assert np.allclose(region.half_lengths, 0)
        assert region.contains([3, 4])
        assert not region.contains([3, 4.001])

    def test_identity_mean_covariance_half_lengths(self):
        # craft samples whose mean covariance is the identity: sample
        # covariance m * identity with m samples
        m = 4
        base = np.array(
            [[10.0, 10.0], [10.0, 10.0], [10.0 + math.sqrt(2 * m), 10.0], [10.0, 10.0 + math.sqrt(2 * m)]]
        )
        obs = obs_from(base)
        _, _, mean_cov = mean_and_covariance(obs)
        region = build_confidence_region(obs, alpha=0.01)
        expected = np.sqrt(np.linalg.eigvalsh(mean_cov)[::-1] * 9.21034)
        assert np.allclose(region.half_lengths, expected, atol=1e-4)

    def test_correlated_box_smaller_than_independent(self):
        rng = np.random.default_rng(8)
        t = rng.normal(100, 10, size=400)
        rows = np.stack([t + rng.normal(0, 0.5, 400), t + rng.normal(0, 0.5, 400)], axis=1)
        rows = np.clip(rows, 0, None)
        obs = obs_from(rows)
        corr = build_confidence_region(obs)
        indep = build_confidence_region(obs, independent=True)
        vol_corr = np.prod(corr.half_lengths)
        vol_indep = np.prod(indep.half_lengths)
        assert vol_corr < vol_indep

    def test_shrinkage_with_sample_count(self):
        # quadrupling the sample count halves each half-length (10% tolerance)
        rng = np.random.default_rng(17)
        big = rng.normal(50, 5, size=(8000, 3))
        big = np.clip(big, 0, None)
        ns = CounterNamespace(["a", "b", "c"])
        small_region = build_confidence_region(obs_from(big[:2000], ns))
        big_region = build_confidence_region(obs_from(big, ns))
        ratio = np.asarray(big_region.half_lengths) / np.asarray(small_region.half_lengths)
        assert np.all(np.abs(ratio - 0.5) < 0.05)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(21)
        rows = rng.normal(100, 3, size=(500, 2)) * [1.0, 2.0]
        rows = np.clip(rows, 0, None)
        theta = 0.3
        q = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        shifted = rows @ q.T + 500  # keep samples non-negative after rotation
        r1 = build_confidence_region(obs_from(rows))
        r2 = build_confidence_region(obs_from(shifted))
        assert np.allclose(np.sort(r1.half_lengths), np.sort(r2.half_lengths), rtol=1e-8)
        assert np.allclose(q @ r1.center + 500, r2.center, rtol=1e-9)

    def test_point_region_helper(self):
        region = point_region([1.0, 2.0])
        assert region.contains([1, 2])
        assert not region.contains([1, 2.0001])

    def test_fields_are_tuples_of_floats(self):
        region = build_confidence_region(obs_from([[1, 2], [3, 5], [2, 2]]))
        for field in (region.center, region.half_lengths, region.eigenvalues, *region.axes):
            assert type(field) is tuple and all(type(x) is float for x in field)
        assert region.dimension == 2
        with pytest.raises(ValueError, match="dimension"):
            region.contains([1.0, 2.0, 3.0])

    def test_json_fields(self):
        blob = build_confidence_region(obs_from([[1, 2], [3, 4]])).to_json()
        assert {"center", "eigenvalues", "half_lengths", "alpha", "samples"} <= set(blob)
