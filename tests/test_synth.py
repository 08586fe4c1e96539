import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from mudd import dsl
from mudd.errors import MuddError
from mudd.feasibility import check_feasibility
from mudd.model import enumerate_mupaths
from mudd.stats import build_confidence_region
from mudd.synth import SynthSpec, exact_counters, generate


@pytest.fixture
def two_path_model(bundled):
    return dsl.parse_file(bundled("walk_init_first.mudd"))


class TestExactCounters:
    def test_zero_flows(self, two_path_model):
        spec = SynthSpec(model=two_path_model, flows=(0.0, 0.0), samples=2)
        assert exact_counters(spec) == (Fraction(0), Fraction(0))

    def test_sum_of_signatures(self, two_path_model):
        # paths: (Hit) -> (1, 0) and (Miss) -> (1, 1)
        spec = SynthSpec(model=two_path_model, flows=(1.0, 1.0), samples=2)
        assert exact_counters(spec) == (Fraction(2), Fraction(1))

    def test_linearity(self, two_path_model):
        base = SynthSpec(model=two_path_model, flows=(2.0, 5.0), samples=2)
        tripled = SynthSpec(model=two_path_model, flows=(6.0, 15.0), samples=2)
        assert exact_counters(tripled) == tuple(3 * x for x in exact_counters(base))

    def test_one_flow_is_that_flow_on_every_path(self, two_path_model):
        one = SynthSpec(model=two_path_model, flows=3.0, samples=5, noise=1.0, seed=2)
        each = SynthSpec(model=two_path_model, flows=(3.0, 3.0), samples=5, noise=1.0, seed=2)
        assert one.flows == (3.0, 3.0)
        assert one == each and hash(one) == hash(each)
        assert exact_counters(one) == exact_counters(each) == (Fraction(6), Fraction(3))
        assert np.array_equal(generate(one).sample_matrix, generate(each).sample_matrix)

    def test_flow_count_mismatch(self, two_path_model):
        spec = SynthSpec(model=two_path_model, flows=(1.0,), samples=2)
        with pytest.raises(MuddError, match="^1 flows for 2 paths$"):
            exact_counters(spec)

    def test_negative_flow_rejected(self, two_path_model):
        with pytest.raises(MuddError, match="^flows must be non-negative$"):
            SynthSpec(model=two_path_model, flows=(-1.0, 0.0), samples=2)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf])
    def test_non_finite_flow_or_noise_rejected(self, two_path_model, bad):
        with pytest.raises(MuddError, match="^flows must be finite$"):
            SynthSpec(model=two_path_model, flows=(1.0, bad), samples=2)
        for noise in (bad, [1.0, bad], [[1.0, 0.0], [0.0, bad]]):
            with pytest.raises(MuddError, match="^noise must be finite$"):
                SynthSpec(model=two_path_model, flows=(1.0, 1.0), samples=2, noise=noise)

    @pytest.mark.parametrize("noise", [-1.0, -1, [1.0, -2.0]])
    def test_negative_sigma_rejected(self, two_path_model, noise):
        with pytest.raises(MuddError, match="^noise must be non-negative$"):
            SynthSpec(model=two_path_model, flows=(1.0, 1.0), samples=2, noise=noise)

    def test_negative_seed_rejected(self, two_path_model):
        with pytest.raises(MuddError, match="^seed must be non-negative$"):
            SynthSpec(model=two_path_model, flows=(1.0, 1.0), samples=2, seed=-1)

    def test_covariance_may_have_negative_entries(self, two_path_model):
        cov = [[1.0, -0.5], [-0.5, 1.0]]
        SynthSpec(model=two_path_model, flows=(1.0, 1.0), samples=2, noise=cov)


class TestRecord:
    @pytest.mark.parametrize("noise, stored", [
        (2.0, (2.0, 2.0)),
        ([1.0, 2.0], (1.0, 2.0)),
        ((1.0, 2.0), (1.0, 2.0)),
        (np.array([1.0, 2.0]), (1.0, 2.0)),
        ([[1.0, 0.5], [0.5, 1.0]], ((1.0, 0.5), (0.5, 1.0))),
        (np.array([[1.0, 0.5], [0.5, 1.0]]), ((1.0, 0.5), (0.5, 1.0))),
    ], ids=["scalar", "list", "tuple", "ndarray", "covariance-list", "covariance-ndarray"])
    def test_hash_and_eq_whatever_the_noise_form(self, two_path_model, noise, stored):
        spec = SynthSpec(model=two_path_model, flows=(1.0, 2.0), samples=4, noise=noise)
        same = SynthSpec(model=two_path_model, flows=[1.0, 2.0], samples=4, noise=stored)
        assert spec.noise == stored and type(spec.noise) is tuple
        assert (spec == same) is True
        assert hash(spec) == hash(same)
        assert (spec == SynthSpec(model=two_path_model, flows=(1.0, 2.0), samples=4)) is False
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestGenerate:
    def test_zero_noise_constant_rows(self, two_path_model):
        spec = SynthSpec(model=two_path_model, flows=(3.0, 2.0), samples=4, noise=0.0)
        obs = generate(spec)
        expected = [5.0 / 4, 2.0 / 4]
        assert np.allclose(obs.sample_matrix, expected)
        region = build_confidence_region(obs)
        assert np.allclose(region.half_lengths, 0)

    def test_same_seed_identical(self, two_path_model):
        spec = SynthSpec(model=two_path_model, flows=(3.0, 2.0), samples=10, noise=1.0, seed=5)
        assert np.array_equal(generate(spec).sample_matrix, generate(spec).sample_matrix)

    def test_different_seed_differs(self, two_path_model):
        a = SynthSpec(model=two_path_model, flows=(3.0, 2.0), samples=10, noise=1.0, seed=5)
        b = SynthSpec(model=two_path_model, flows=(3.0, 2.0), samples=10, noise=1.0, seed=6)
        assert not np.array_equal(generate(a).sample_matrix, generate(b).sample_matrix)

    def test_mean_close_to_truth(self, two_path_model):
        # flows large enough that the zero-clamp never fires
        m = 10_000
        spec = SynthSpec(
            model=two_path_model, flows=(3e5, 2e5), samples=m, noise=0.5, seed=42
        )
        obs = generate(spec)
        assert obs.clamped == 0
        truth = np.array([5e5 / m, 2e5 / m])
        bound = 5 * 0.5 / math.sqrt(m)
        assert np.all(np.abs(obs.sample_matrix.mean(axis=0) - truth) <= bound + 1e-12)

    def test_clamping_recorded(self, two_path_model):
        spec = SynthSpec(model=two_path_model, flows=(0.0, 0.0), samples=50, noise=1.0, seed=1)
        obs = generate(spec)
        assert obs.clamped > 0
        assert (obs.sample_matrix >= 0).all()

    @pytest.mark.parametrize("sigma", [0, 0.0, 0.5, 3.0])
    def test_scalar_sigma_is_the_per_counter_vector(self, two_path_model, sigma):
        # byte for byte, clipped cells and signed zeros included
        def draw(noise):
            spec = SynthSpec(model=two_path_model, flows=(3.0, 2.0), samples=20,
                             noise=noise, seed=8)
            obs = generate(spec)
            return np.asarray(obs.sample_matrix).tobytes(), obs.clamped

        assert draw(sigma) == draw(np.full(2, float(sigma)))

    def test_per_counter_sigma(self, two_path_model):
        spec = SynthSpec(
            model=two_path_model, flows=(4000.0, 2000.0), samples=200, noise=[0.0, 2.0], seed=3
        )
        obs = generate(spec)
        stds = obs.sample_matrix.std(axis=0)
        assert stds[0] == 0
        assert 1.5 < stds[1] < 2.5

    def test_full_covariance_noise(self, two_path_model):
        cov = np.array([[1.0, 0.9], [0.9, 1.0]])
        spec = SynthSpec(model=two_path_model, flows=(500.0, 100.0), samples=500, noise=cov, seed=4)
        obs = generate(spec)
        corr = np.corrcoef(obs.sample_matrix.T)[0, 1]
        assert corr > 0.8

    def test_bad_covariance_rejected(self, two_path_model):
        # refused when the spec is built, before any draw
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(MuddError, match="^noise covariance must be positive semidefinite$"):
            SynthSpec(model=two_path_model, flows=(1.0, 1.0), samples=10, noise=bad)

    @pytest.mark.parametrize("noise, message", [
        ([1.0, 1.0, 1.0], "per-counter sigma length does not match"),
        (np.eye(3), "covariance shape does not match"),
        (np.zeros((2, 2, 2)), "noise must be a scalar, vector, or matrix"),
    ], ids=["sigma-length", "covariance-shape", "3-d"])
    def test_noise_of_the_wrong_shape_rejected(self, two_path_model, noise, message):
        # refused when the spec is built; the CLI refuses a sigma count of
        # its own before any of these
        with pytest.raises(MuddError, match=f"^{message}$"):
            SynthSpec(model=two_path_model, flows=(1.0, 1.0), samples=10, noise=noise)


class TestGroundTruthFeasibility:
    def test_noise_free_always_feasible(self, two_path_model):
        sigs = [p.counts for p in enumerate_mupaths(two_path_model)]
        for seed in range(10):
            flows = (float(seed), float(2 * seed + 1))
            obs = generate(SynthSpec(model=two_path_model, flows=flows, samples=4, seed=seed))
            region = build_confidence_region(obs)
            assert check_feasibility(sigs, region).feasible

    def test_moderate_noise_mostly_feasible(self, two_path_model):
        # coverage of the region construction carries over to feasibility
        sigs = [p.counts for p in enumerate_mupaths(two_path_model)]
        feasible = 0
        trials = 200
        for seed in range(trials):
            obs = generate(
                SynthSpec(
                    model=two_path_model,
                    flows=(4000.0, 1000.0),
                    samples=60,
                    noise=1.0,
                    seed=seed,
                )
            )
            region = build_confidence_region(obs, 0.01)
            if check_feasibility(sigs, region).feasible:
                feasible += 1
        assert feasible / trials >= 0.99
