import math
from fractions import Fraction

import numpy as np
import pytest

from mudd import dsl
from mudd.errors import DimensionMismatch
from mudd.feasibility import check_feasibility
from mudd.model import signatures_of_model
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

    def test_flow_count_mismatch(self, two_path_model):
        spec = SynthSpec(model=two_path_model, flows=(1.0,), samples=2)
        with pytest.raises(DimensionMismatch):
            exact_counters(spec)

    def test_negative_flow_rejected(self, two_path_model):
        with pytest.raises(ValueError):
            SynthSpec(model=two_path_model, flows=(-1.0, 0.0), samples=2)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf])
    def test_non_finite_flow_or_noise_rejected(self, two_path_model, bad):
        with pytest.raises(ValueError, match="^flows must be finite$"):
            SynthSpec(model=two_path_model, flows=(1.0, bad), samples=2)
        for noise in (bad, [1.0, bad], [[1.0, 0.0], [0.0, bad]]):
            with pytest.raises(ValueError, match="^noise must be finite$"):
                SynthSpec(model=two_path_model, flows=(1.0, 1.0), samples=2, noise=noise)


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
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        spec = SynthSpec(model=two_path_model, flows=(1.0, 1.0), samples=10, noise=bad)
        with pytest.raises(ValueError):
            generate(spec)


class TestGroundTruthFeasibility:
    def test_noise_free_always_feasible(self, two_path_model):
        sigs = signatures_of_model(two_path_model)
        for seed in range(10):
            flows = (float(seed), float(2 * seed + 1))
            obs = generate(SynthSpec(model=two_path_model, flows=flows, samples=4, seed=seed))
            region = build_confidence_region(obs)
            assert check_feasibility(sigs, region).feasible

    def test_moderate_noise_mostly_feasible(self, two_path_model):
        # coverage of the region construction carries over to feasibility
        sigs = signatures_of_model(two_path_model)
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
