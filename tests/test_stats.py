import copy
import math
import pickle
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import mudd
from mudd.errors import MuddError
from mudd.model import CounterNamespace
from mudd.stats import (
    ConfidenceRegion,
    ObservationSet,
    _chi_square_quantile,
    _eigendecompose,
    _mean_and_covariance,
    build_confidence_region,
    load_observations,
    write_observations,
)

from conftest import point_box

NS2 = CounterNamespace(["a", "b"])


def csv_file(tmp_path, text):
    """`text` written to the CSV file `sample.csv` under `tmp_path`."""
    path = tmp_path / "sample.csv"
    path.write_text(text, encoding="utf-8")
    return path


def obs_from(rows, ns=NS2, run_id="test"):
    return ObservationSet(run_id=run_id, sample_matrix=np.array(rows, float), namespace=ns)


class TestLoader:
    def test_basic_csv(self, tmp_path):
        src = csv_file(tmp_path, "t,a,b\n0,1,2\n1,3,4\n2,5,6\n")
        obs = load_observations(src, NS2)
        assert np.shape(obs.sample_matrix) == (3, 2)
        assert list(obs.sample_matrix[0]) == [1.0, 2.0]

    def test_empty_file(self, tmp_path):
        with pytest.raises(MuddError, match="^run 'r': empty file$"):
            load_observations(csv_file(tmp_path, ""), NS2, run_id="r")

    def test_blank_lines_between_rows_are_skipped(self, tmp_path):
        obs = load_observations(csv_file(tmp_path, "a,b\n1,2\n\n , \n3,4\n\n"), NS2)
        assert [list(row) for row in obs.sample_matrix] == [[1.0, 2.0], [3.0, 4.0]]
        # an error after them still names its physical line
        src = csv_file(tmp_path, "a,b\n1,2\n\n3,x\n")
        with pytest.raises(MuddError, match="^run 'r' line 4 column 'b': 'x' "
                                            "is not a finite number$"):
            load_observations(src, NS2, run_id="r")

    def test_file_byte_order_mark_is_ignored(self, tmp_path):
        src = tmp_path / "sample.csv"
        src.write_bytes(b"\xef\xbb\xbfb,a\n2,1\n4,3\n")
        obs = load_observations(src, NS2)
        assert list(obs.sample_matrix[0]) == [1.0, 2.0]

    def test_columns_reordered_to_namespace(self, tmp_path):
        src = csv_file(tmp_path, "b,a\n2,1\n4,3\n")
        obs = load_observations(src, NS2)
        assert list(obs.sample_matrix[0]) == [1.0, 2.0]

    def test_missing_counter_raises(self, tmp_path):
        src = csv_file(tmp_path, "a\n1\n2\n")
        with pytest.raises(MuddError, match=r"^run 'sample' lacks counters: b \(use projection"):
            load_observations(src, NS2)

    def test_projection_restricts_namespace(self, tmp_path):
        src = csv_file(tmp_path, "a\n1\n2\n")
        obs = load_observations(src, NS2, project=True)
        assert obs.namespace.names == ("a",)
        assert [list(row) for row in obs.sample_matrix] == [[1.0], [2.0]]

    def test_leading_t_is_a_counter_when_the_model_has_one(self, tmp_path):
        ns = CounterNamespace(["t", "u"])
        obs = load_observations(csv_file(tmp_path, "t,u\n1,2\n3,4\n"), ns)
        assert [list(row) for row in obs.sample_matrix] == [[1.0, 2.0], [3.0, 4.0]]
        # without a counter `t` the same column is the sample index
        obs = load_observations(csv_file(tmp_path, "t,u\n1,2\n3,4\n"), CounterNamespace(["u"]))
        assert [list(row) for row in obs.sample_matrix] == [[2.0], [4.0]]

    def test_extra_columns_warn_and_ignored(self, tmp_path):
        src = csv_file(tmp_path, "a,b,unmodeled\n1,2,9\n3,4,9\n")
        with pytest.warns(UserWarning, match="unmodeled"):
            obs = load_observations(src, NS2)
        assert np.shape(obs.sample_matrix) == (2, 2)

    def test_non_numeric_cell(self, tmp_path):
        for cell in ("x", "nan", "inf", "-inf"):
            src = csv_file(tmp_path, f"a,b\n1,2\n{cell},4\n")
            with pytest.raises(MuddError, match=f"^run 'r' line 3 column 'a': '{cell}' "
                                                "is not a finite number$"):
                load_observations(src, NS2, run_id="r")

    def test_negative_cell(self, tmp_path):
        src = csv_file(tmp_path, "t,a,b\n0,1,2\n1,3,4\n2,5,-0.5\n")
        with pytest.raises(MuddError, match="^run 'r' line 4 column 'b': '-0.5' "
                                            "is a negative counter value$"):
            load_observations(src, NS2, run_id="r")
        # a negative zero is zero
        obs = load_observations(csv_file(tmp_path, "a,b\n-0.0,1\n2,3\n"), NS2)
        assert obs.sample_matrix[0][0] == 0

    @pytest.mark.parametrize("last, message", [
        ("5,x", "^run 'r' line 5 column 'b': 'x' is not a finite number$"),
        ("5,6,7", "^run 'r' line 5: row has too many columns"),
    ], ids=["non-numeric", "ragged"])
    def test_errors_name_the_physical_line(self, tmp_path, last, message):
        # the quoted cell of line 2 runs on to line 3, so the fourth record
        # is on line 5
        src = csv_file(tmp_path, f'a,b\n"1\n",2\n3,4\n{last}\n')
        with pytest.raises(MuddError, match=message):
            load_observations(src, NS2, run_id="r")

    def test_model_without_counters(self, tmp_path):
        with pytest.warns(UserWarning, match="unmodeled"):
            with pytest.raises(MuddError, match="^run 'r' shares no counter with the model$"):
                load_observations(csv_file(tmp_path, "x\n1\n2\n"), CounterNamespace([]), run_id="r")

    def test_header_naming_a_column_twice(self, tmp_path):
        # the later copy used to win silently
        src = csv_file(tmp_path, "t,a,b,a\n0,1,2,9\n1,3,4,9\n")
        with pytest.raises(MuddError, match="^run 'r' line 1 column 'a': named twice"):
            load_observations(src, NS2, run_id="r")

    def test_ragged_rows(self, tmp_path):
        src = csv_file(tmp_path, "a,b\n1,2\n3,4,5\n")
        with pytest.raises(MuddError, match="^run 'r' line 3: row has too many columns"):
            load_observations(src, NS2, run_id="r")
        # too few, even when only an unmodeled column is short
        src = csv_file(tmp_path, "a,b,c\n1,2,0\n3,4\n")
        with pytest.warns(UserWarning, match="unmodeled"):
            with pytest.raises(MuddError, match="^run 'r' line 3: row has too few columns"):
                load_observations(src, NS2, run_id="r")

    def test_too_few_samples(self, tmp_path):
        src = csv_file(tmp_path, "a,b\n1,2\n")
        with pytest.raises(MuddError, match="^run 'sample' has 1 samples; need at least 2$"):
            load_observations(src, NS2)

    def test_round_trip_with_writer(self, tmp_path):
        obs = obs_from([[1.5, 2.25], [3.0, 4.125]])
        dest = tmp_path / "run.csv"
        write_observations(obs, dest)
        back = load_observations(dest, NS2)
        assert np.array_equal(back.sample_matrix, obs.sample_matrix)

    def test_loaded_run_is_a_value(self, tmp_path):
        obs = load_observations(csv_file(tmp_path, "a,b\n1,2\n3,4\n"), NS2)
        assert obs.sample_matrix == ((1.0, 2.0), (3.0, 4.0))
        for twin in (copy.deepcopy(obs), pickle.loads(pickle.dumps(obs))):
            assert twin == obs
            assert hash(twin) == hash(obs)

    def test_negative_values_rejected(self):
        with pytest.raises(MuddError, match="^run 'test' contains negative counter values$"):
            obs_from([[1, -2], [3, 4]])

    @pytest.mark.parametrize("cell", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, cell):
        # a CSV cannot carry one, but synth and library callers build runs directly
        for rows in ([[1.0, cell], [2.0, 3.0], [1.5, 2.0]], np.array([[1.0, 2.0], [cell, 3.0]])):
            with pytest.raises(MuddError, match="^run 'r' contains non-finite counter values$"):
                ObservationSet("r", rows, NS2)

    def test_matrix_kept_as_given(self):
        rows = [[1.0, 2.0], [3.0, 4.0]]
        assert ObservationSet("r", rows, NS2).sample_matrix is rows
        array = np.array(rows)
        assert ObservationSet("r", array, NS2).sample_matrix is array

    def test_matrix_shape_validated(self):
        for bad in ([1.0, 2.0], np.zeros((2, 2, 2)), [["a", "b"], ["c", "d"]]):
            with pytest.raises(MuddError, match="^sample matrix must be two-dimensional$"):
                ObservationSet("r", bad, NS2)
        with pytest.raises(MuddError, match="^run 'r' has 1 samples; need at least 2$"):
            ObservationSet("r", [[1.0, 2.0]], NS2)
        with pytest.raises(MuddError, match="^run 'r' sample has 3 entries, expected 2$"):
            ObservationSet("r", [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]], NS2)


class TestMoments:
    def test_identical_rows_zero_covariance(self):
        mean, mean_cov = _mean_and_covariance(obs_from([[3, 4], [3, 4], [3, 4]]))
        assert list(mean) == [3, 4]
        assert np.allclose(mean_cov, 0)

    def test_hand_computed_two_samples(self):
        # sample covariance [[2, 2], [2, 2]] over 2 samples
        mean, mean_cov = _mean_and_covariance(obs_from([[0, 0], [2, 2]]))
        assert list(mean) == [1, 1]
        assert np.asarray(mean_cov).tolist() == [[1, 1], [1, 1]]

    def test_anticorrelated_pair(self):
        _, mean_cov = _mean_and_covariance(obs_from([[0, 2], [2, 0]]))
        assert mean_cov[0][1] == pytest.approx(-1)

    def test_returns_mean_and_mean_covariance_only(self):
        # each entry is the unbiased sample covariance, then over the sample count
        rows = np.random.default_rng(5).uniform(0, 1e3, (7, 2))
        result = _mean_and_covariance(obs_from(rows))
        assert len(result) == 2
        mean, mean_cov = result
        d = rows - np.asarray(mean)
        assert all(mean_cov[j][k] == math.fsum(d[:, j] * d[:, k]) / 6 / 7
                   for j in range(2) for k in range(2))

    def test_overflow_names_the_run(self, recwarn):
        huge = obs_from([[1e300, 0], [3e300, 1], [2e300, 2]], run_id="huge")
        with pytest.raises(MuddError, match="^run 'huge': sample mean or covariance overflows; "
                                            "counter values are too large$"):
            _mean_and_covariance(huge)
        # the column sum itself overflows
        huger = obs_from([[1e308, 0], [1.7e308, 1]], run_id="huger")
        with pytest.raises(MuddError, match="^run 'huger': sample mean or covariance overflows; "
                                            "counter values are too large$"):
            _mean_and_covariance(huger)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_constant_column_is_exact(self):
        # fsum(0.1, 0.1, 0.1) / 3 is not 0.1; a constant column keeps its value
        mean, mean_cov = _mean_and_covariance(obs_from([[0.1, 1], [0.1, 2], [0.1, 4]]))
        assert mean[0] == 0.1
        assert mean_cov[0] == (0.0, 0.0) and mean_cov[1][0] == 0.0
        assert mean_cov[1][1] == pytest.approx(7 / 9, rel=1e-15)

    def test_covariance_exactly_symmetric(self):
        rng = np.random.default_rng(12)
        ns = CounterNamespace([f"c{i}" for i in range(6)])
        _, mean_cov = _mean_and_covariance(obs_from(rng.uniform(0, 1e4, (30, 6)), ns))
        assert all(mean_cov[i][j] == mean_cov[j][i] for i in range(6) for j in range(6))


class TestChiSquare:
    def test_two_dof_closed_form(self):
        # P(chi2_2 <= q) = 1 - exp(-q/2), so the p quantile is -2 ln(1-p)
        assert _chi_square_quantile(2, 0.99) == pytest.approx(9.21034, abs=1e-4)
        for p in (0.1, 0.5, 0.9, 0.999):
            assert _chi_square_quantile(2, p) == pytest.approx(-2 * math.log(1 - p), abs=1e-8)

    def test_one_dof_closed_form(self):
        # quantile is the squared standard normal quantile at (1+p)/2
        from scipy.special import erfinv

        for p in (0.2, 0.8, 0.99):
            z = math.sqrt(2) * erfinv(p)
            assert _chi_square_quantile(1, p) == pytest.approx(z * z, abs=1e-7)

    def test_small_p_limit(self):
        assert _chi_square_quantile(1, 1e-12) < 1e-6

    def test_monotone_in_p(self):
        qs = [_chi_square_quantile(3, p) for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert qs == sorted(qs)

    def test_levels_match_scipy_bisection_bit_for_bit(self):
        # the levels check uses give the regions scipy's gammainc gave
        for dof in range(1, 65):
            for p in (0.5, 0.9, 0.95, 0.99, 0.995, 0.999, 0.9999):
                assert _chi_square_quantile(dof, p) == scipy_bisection_quantile(dof, p), (dof, p)

    @pytest.mark.parametrize("dofs", [range(1, 201), (500, 1000, 4096)],
                             ids=["dof1-200", "large-dof"])
    def test_matches_scipy_bisection_across_tails(self, dofs):
        ps = (1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.3, 0.5, 0.7, 0.99, 1 - 1e-6, 1 - 1e-9)
        for dof in dofs:
            for p in ps:
                q = _chi_square_quantile(dof, p)
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
        values, axes = _eigendecompose(np.eye(3))
        axes = np.asarray(axes)
        assert np.allclose(values, 1)
        assert np.allclose(axes @ axes.T, np.eye(3))

    def test_diagonal_sorted_descending(self):
        values, axes = _eigendecompose(np.diag([1.0, 4.0]))
        assert list(values) == [4.0, 1.0]
        assert abs(np.asarray(axes[0]) @ [0, 1]) == pytest.approx(1)

    def test_hand_computed_2x2(self):
        values, axes = _eigendecompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert list(values) == pytest.approx([3.0, 1.0])
        assert abs(np.asarray(axes[0]) @ [1 / math.sqrt(2), 1 / math.sqrt(2)]) == pytest.approx(1)

    def test_reconstruction(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(5, 5))
        sym = m @ m.T
        values, axes = _eigendecompose(sym)
        axes = np.asarray(axes)
        recon = axes.T @ np.diag(values) @ axes
        assert np.abs(recon - sym).max() <= 1e-9 * (1 + np.abs(sym).max())

    def test_negative_clamped(self):
        values, _ = _eigendecompose(np.array([[1e-18, 0.0], [0.0, -1e-18]]))
        assert (np.asarray(values) >= 0).all()

    def test_bits_do_not_depend_on_the_python_version(self):
        # sums of four terms and more run left to right: summed as `sum`
        # compensates them from Python 3.12 on, or as by math.fsum, 3 of the
        # 4 eigenvalues and 13 of the 16 axis entries differ in their last bits
        sigma = [[4.0, 0.1, 0.1, 0.1], [0.1, 5.0, 0.1, 0.2],
                 [0.1, 0.1, 6.0, 0.3], [0.1, 0.2, 0.3, 7.0]]
        values, axes = _eigendecompose(sigma)
        assert [x.hex() for x in values] == [
            "0x1.c725bcf0779b4p+2", "0x1.7afb6790d26cep+2",
            "0x1.3edc2b3542e85p+2", "0x1.fe056092e61efp+1"]
        assert [[x.hex() for x in row] for row in axes] == [
            ["0x1.5ec7701d0ee6cp-5", "0x1.afb25d5cbdcecp-4",
             "0x1.15c42fbfdb050p-2", "0x1.e959771edab56p-1"],
            ["-0x1.35ee83bc34fadp-5", "-0x1.85a25de4e51e0p-5",
             "-0x1.eab138db3d697p-1", "0x1.1da2905955f5bp-2"],
            ["-0x1.55fbecfea19f7p-4", "-0x1.fa80d0696ef2ap-1",
             "0x1.4277cb66e2d14p-4", "0x1.72a1773c803edp-4"],
            ["-0x1.fd5f75460509ep-1", "0x1.6e0be79bca439p-4",
             "0x1.54150dd813f74p-5", "0x1.77c402cd1d4eap-6"]]

    def test_indefinite_is_refused(self):
        # eigenvalues 3 and -1: named as such, not as a failed reconstruction
        with pytest.raises(MuddError, match="^matrix is not positive semidefinite$"):
            _eigendecompose([[1.0, 2.0], [2.0, 1.0]])

    def test_zero_row_is_its_own_eigenpair(self):
        values, axes = _eigendecompose([[2.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 2.0]])
        assert values[2] == 0.0 and axes[2] == (0.0, 1.0, 0.0)
        assert list(values[:2]) == pytest.approx([3.0, 1.0], rel=1e-15)
        assert all(row[1] == 0.0 for row in axes[:2])

    def test_returns_tuples_of_floats(self):
        values, axes = _eigendecompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
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
            values, axes = _eigendecompose(sigma)
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
    """Exactly symmetric positive semidefinite test matrices of size n: full
    rank, rank deficient, with repeated eigenvalues, with all-zero rows, and
    diagonal."""
    scale = 10.0 ** rng.uniform(-6, 6)
    m = rng.normal(size=(n, n + 3)) * scale
    yield m @ m.T
    r = int(rng.integers(0, n))
    m = rng.normal(size=(n, r)) * scale
    yield m @ m.T
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    spectrum = np.repeat([4.0, 1.0, 0.0], [n // 3, n // 3, n - 2 * (n // 3)]) * scale
    s = (q * spectrum) @ q.T  # symmetric only up to rounding
    yield (s + s.T) / 2
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
    @pytest.mark.parametrize("alpha, message", [
        (0.0, "alpha must lie in (0, 1)"),
        (1.0, "alpha must lie in (0, 1)"),
        (1e-17, "alpha 1e-17 is too small: 1 - alpha rounds to 1"),
    ])
    def test_unusable_alpha_rejected(self, alpha, message):
        with pytest.raises(MuddError) as exc:
            build_confidence_region(obs_from([[3, 4], [5, 6]]), alpha)
        assert str(exc.value) == message

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
        _, mean_cov = _mean_and_covariance(obs)
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

    def test_run_without_counters_is_an_input_error(self):
        obs = ObservationSet("zc", [[], []], CounterNamespace([]))
        with pytest.raises(MuddError, match="^run 'zc' shares no counter with the model$"):
            build_confidence_region(obs)

    def test_zero_length_box_holds_only_its_centre(self):
        region = point_box([1.0, 2.0])
        assert region.contains([1, 2])
        assert not region.contains([1, 2.0001])
        assert not region.contains([1.0001, 2])

    def test_point_on_a_face_is_inside_and_one_beyond_is_outside(self):
        region = ConfidenceRegion((1.0, 2.0), ((1.0, 0.0), (0.0, 1.0)), (0.5, 0.25))
        assert region.contains([1.5, 2.25])
        assert region.contains([Fraction(1, 2), Fraction(7, 4)])
        beyond = Fraction(3, 2) + Fraction(1, 2**60)
        assert not region.contains([beyond, 2.0])
        assert not region.contains([1.0, Fraction(7, 4) - Fraction(1, 2**60)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate_is_outside(self, bad):
        region = ConfidenceRegion((0.0, 0.0), ((1.0, 0.0), (0.0, 1.0)), (1e300, 1e300))
        assert not region.contains([bad, 0.0])
        assert not region.contains([0.0, bad], tol=1.0)

    @pytest.mark.parametrize("center, axes, half", [
        ((0.0, 0.0), ((1.0, 0.0), (0.0, 1.0)), (1.0,)),
        ((0.0, 0.0), ((1.0, 0.0), (0.0,)), (1.0, 1.0)),
        ((0.0, 0.0), ((1.0, 0.0),), (1.0, 1.0)),
        ((0.0, math.nan), ((1.0, 0.0), (0.0, 1.0)), (1.0, 1.0)),
        ((0.0, 0.0), ((1.0, 0.0), (0.0, math.inf)), (1.0, 1.0)),
        ((0.0, 0.0), ((1.0, 0.0), (0.0, 1.0)), (1.0, math.inf)),
    ])
    def test_ragged_or_non_finite_region_is_rejected(self, center, axes, half):
        # test_geometry.py's REFUSALS pins each message
        with pytest.raises(MuddError, match="^(axes|axis|half-lengths) has 1 entries, expected 2$"
                                            "|^region has non-finite entries$"):
            ConfidenceRegion(center, axes, half)

    def test_negative_half_length_is_rejected(self):
        # the box would be empty, and the box LP's certificate would add an
        # axis's two rows up to the empty reason 0 <= 0
        with pytest.raises(MuddError, match="^region has a negative half-length$"):
            ConfidenceRegion((1.0, 1.0), ((1.0, 0.0), (0.0, 1.0)), (-0.5, 0.5))
        with pytest.raises(MuddError, match="^region has a negative half-length$"):
            ConfidenceRegion((0.0,), ((1.0,),), (-5e-324,))

    def test_only_this_module_reads_the_region_integers(self):
        # the region's encoding lives in one module: every other module asks
        # it through `contains`, `misses`, `corrected_centre` and `box_lp`,
        # and only the region builds the box LP's rows
        src = Path(mudd.__file__).parent
        modules = sorted(src.glob("*.py"))
        assert len(modules) > 10
        texts = {m.name: m.read_text(encoding="utf-8") for m in modules}

        def readers(pattern):
            return [name for name, text in texts.items() if re.search(pattern, text)]

        assert readers(r"\b_(scale|center|axes|half|skew)\b") == ["stats.py"]
        assert readers(r"\bfeasible_point\b") == ["linprog.py", "stats.py"]
        assert readers(r"halfspaces|_box_lp") == []

    def test_numpy_point_with_a_tolerance(self):
        region = point_box([1.0, 2.0])
        assert region.contains(np.array([1.0, 2.0 + 5e-10]), tol=1e-9)
        assert not region.contains(np.array([1.0, 2.0 + 2e-9]), tol=1e-9)
        assert not region.contains(np.array([1.0, 2.0 + 5e-10]))

    def test_fields_are_tuples_of_floats(self):
        region = build_confidence_region(obs_from([[1, 2], [3, 5], [2, 2]]))
        for field in (region.center, region.half_lengths, *region.axes):
            assert type(field) is tuple and all(type(x) is float for x in field)
        assert region.dimension == 2
        with pytest.raises(MuddError, match="^point has 3 entries, expected 2$"):
            region.contains([1.0, 2.0, 3.0])
