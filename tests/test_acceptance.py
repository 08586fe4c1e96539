"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the PASS lines
on success). Every tolerance is pinned here; nothing is deferred.
"""
import random
import time
from fractions import Fraction

import numpy as np

from mudd import bundled_path, dsl
from mudd.cli import main
from mudd.feasibility import attribute_violations, check_feasibility, refinement_candidates
from mudd.geometry import (
    Constraint,
    cone_membership,
    constraints_from_signatures,
    deduce_constraints,
    normalize_signatures,
    remove_interior_generators,
)
from mudd.model import (
    CounterNamespace,
    enumerate_mupaths,
)
from mudd.stats import ObservationSet, build_confidence_region
from mudd.synth import SynthSpec, generate

from conftest import brute_force_facets, point_box

PDE_BOUND = "load.pde$_miss ≤ load.causes_walk"


def _report(name):
    print(f"[PASS] {name}")


def test_refinement_golden(capsys):
    """Initial model implies the walk bound, the refined model drops it, and
    the aborting path is the unique refinement witness with signature (0, 1)."""
    t0 = time.perf_counter()
    assert main(["constraints", str(bundled_path("walk_init_first.mudd"))]) == 0
    out_before = capsys.readouterr().out
    assert PDE_BOUND in out_before.splitlines()

    assert main(["constraints", str(bundled_path("pde_lookup_first.mudd"))]) == 0
    out_after = capsys.readouterr().out
    assert PDE_BOUND not in out_after.splitlines()

    ns = CounterNamespace(["load.causes_walk", "load.pde$_miss"])
    refined = dsl.parse_file(bundled_path("pde_lookup_first.mudd"), ns)
    violated = Constraint(kind="inequality", coefficients=(1, -1))
    candidates = refinement_candidates(violated, refined)
    assert len(candidates) == 1
    path = candidates[0]
    assert dict(path.property_assignment) == {"PdeStatus": "Miss", "Abort": "Yes"}
    assert path.counts == (0, 1)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(f"refinement golden test ({elapsed:.3f}s)")


def test_three_counter_walk_facets():
    """The retired/completed/started walk model yields exactly the facet set
    computed by the brute-force hull oracle, and every pairwise bound the
    model is meant to imply holds over the whole cone. The chained bound
    (retired <= started) is implied by the two facets rather than being a
    facet itself, so the deduced set is the two facets plus non-negativity."""
    t0 = time.perf_counter()
    model = dsl.parse_file(bundled_path("walk_outcome.mudd"))
    ns = model.namespace
    assert set(ns.names) == {"load.ret_stlb_miss", "load.walk_done", "load.causes_walk"}

    gens = list(normalize_signatures(p.counts for p in enumerate_mupaths(model)))
    oracle = brute_force_facets(gens, 3)
    deduced = deduce_constraints(model)
    assert deduced.equalities == ()
    assert {c.coefficients for c in deduced.inequalities} == oracle

    displays = [c.display(ns) for c in deduced.inequalities]
    assert "load.ret_stlb_miss ≤ load.walk_done" in displays
    assert "load.walk_done ≤ load.causes_walk" in displays
    assert "0 ≤ load.ret_stlb_miss" in displays
    assert len(displays) == 3

    # all three pairwise bounds are valid over the cone (each generator
    # satisfies them), including the implied retired <= started
    implied = [
        ("load.walk_done", "load.ret_stlb_miss"),
        ("load.causes_walk", "load.ret_stlb_miss"),
        ("load.causes_walk", "load.walk_done"),
    ]
    for upper, lower in implied:
        coeffs = [0, 0, 0]
        coeffs[ns.position(upper)] = 1
        coeffs[ns.position(lower)] = -1
        assert all(sum(c * g for c, g in zip(coeffs, gen)) >= 0 for gen in gens)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(f"three-counter walk facets ({elapsed:.3f}s)")


def test_duality_randomized():
    """1,000 random cones (dim <= 4, <= 6 generators, entries <= 5), 10 probe
    points each: LP membership and facet satisfaction agree exactly."""
    t0 = time.perf_counter()
    rng = random.Random(20240 + 1)
    ns_cache = {d: CounterNamespace([f"c{i}" for i in range(d)]) for d in (1, 2, 3, 4)}
    checked = 0
    for _ in range(1000):
        dim = rng.randint(1, 4)
        gens = [
            tuple(rng.randint(0, 5) for _ in range(dim))
            for _ in range(rng.randint(1, 6))
        ]
        constraints = constraints_from_signatures(gens, ns_cache[dim])
        nonzero = [g for g in gens if any(g)]
        for _ in range(10):
            if rng.random() < 0.5 and nonzero:
                weights = [
                    Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in nonzero
                ]
                point = tuple(
                    sum((w * g[i] for w, g in zip(weights, nonzero)), Fraction(0))
                    for i in range(dim)
                )
            else:
                point = tuple(
                    Fraction(rng.randint(-4, 7), rng.randint(1, 4)) for _ in range(dim)
                )
            assert cone_membership(gens, point) == constraints.satisfied_by(point), (
                gens,
                point,
            )
            checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 10_000
    assert elapsed < 60.0
    _report(f"duality on 1,000 random cones ({elapsed:.1f}s)")


def test_coverage_monte_carlo():
    """5,000 trials of M=100 correlated 3-counter gaussian samples: the built
    region contains the true mean at least 99% of the time minus a 3-sigma
    binomial margin (the box over-covers its ellipsoid, so one-sided)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(90125)
    mu = np.array([400.0, 250.0, 300.0])
    a = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.5], [0.0, 1.5, 2.0]])
    cov = a @ a.T  # fixed correlated covariance
    chol = np.linalg.cholesky(cov)
    trials = 5000
    m = 100
    hits = 0
    for _ in range(trials):
        samples = mu + rng.standard_normal((m, 3)) @ chol.T
        obs = ObservationSet(run_id="mc", sample_matrix=samples, namespace=_NS3)
        region = build_confidence_region(obs, alpha=0.01)
        if region.contains(mu):
            hits += 1
    rate = hits / trials
    margin = 3 * np.sqrt(0.01 * 0.99 / trials)  # ~0.4%
    elapsed = time.perf_counter() - t0
    assert rate >= 0.99 - margin, rate
    assert elapsed < 120.0
    _report(f"coverage monte carlo: {rate:.4f} over {trials} trials ({elapsed:.1f}s)")


_NS3 = CounterNamespace(["a", "b", "c"])


def test_correlated_vs_independent_discrimination():
    """Strongly correlated two-counter data with the truth just outside the
    cone: the correlated region proves infeasibility while the independence
    ablation cannot."""
    ns = CounterNamespace(["load.causes_walk", "load.pde$_miss"])
    model = dsl.parse_file(bundled_path("walk_init_first.mudd"), ns)
    sigs = [p.counts for p in enumerate_mupaths(model)]

    rng = np.random.default_rng(7321)
    m = 100
    t = rng.normal(1000.0, 50.0, size=m)
    walks = t + rng.normal(0.0, 0.1, size=m)
    misses = t + 5.0 + rng.normal(0.0, 0.1, size=m)  # always 5 more misses
    samples = np.stack([walks, misses], axis=1)
    assert (samples > 0).all()
    obs = ObservationSet(run_id="corr", sample_matrix=samples, namespace=ns)

    corr_coef = np.corrcoef(samples.T)[0, 1]
    assert corr_coef >= 0.95

    truth = np.array([1000.0, 1005.0])
    assert truth[1] > truth[0]  # outside the cone: misses exceed walks
    indep_region = build_confidence_region(obs, 0.01, independent=True)
    assert indep_region.contains(truth)  # inside the per-counter box

    corr_region = build_confidence_region(obs, 0.01)
    constraints = constraints_from_signatures(sigs, ns)

    corr_verdict = check_feasibility(sigs, corr_region, constraints=constraints)
    indep_verdict = check_feasibility(sigs, indep_region, constraints=constraints)
    assert not corr_verdict.feasible
    assert indep_verdict.feasible
    violated = attribute_violations(constraints, corr_region)
    assert any(c.coefficients == (1, -1) for c in violated)
    _report(
        f"correlated region refutes (corr={corr_coef:.4f}), independent region cannot"
    )


def _random_model_source(rng):
    counters = [f"hec{i}" for i in range(rng.randint(2, 4))]
    serial = iter(range(10_000))  # decision properties must be unique

    def block(depth):
        stmts = []
        for i in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.45 or depth >= 2:
                stmts.append(f"counter {rng.choice(counters)};")
            elif roll < 0.6:
                stmts.append(f"action step{depth}_{i};")
            else:
                cases = []
                for c in range(rng.randint(2, 3)):
                    cases.append(f"case v{c}: " + " ".join(block(depth + 1)))
                stmts.append(f"switch (D{next(serial)}) {{ {' '.join(cases)} }}")
        return stmts

    return "\n".join(block(0)), CounterNamespace(counters)


def _primitive(v):
    from math import gcd

    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def test_end_to_end_soundness():
    """Noise-free observations from 50 random models are feasible against
    their source; removing one extreme generator makes an observation along
    that direction infeasible. Zero failures allowed."""
    t0 = time.perf_counter()
    rng = random.Random(1203)
    models_checked = 0
    while models_checked < 50:
        src, ns = _random_model_source(rng)
        model = dsl.parse(src, ns)
        sigs = [p.counts for p in enumerate_mupaths(model)]
        gens = normalize_signatures(sigs)
        if not gens:
            continue
        models_checked += 1

        # power-of-two sample count: integer flows divide exactly in floats,
        # so the emitted samples are the true per-interval values
        flows = tuple(float(rng.randint(0, 20)) for _ in sigs)
        obs = generate(
            SynthSpec(model=model, flows=flows, samples=4, noise=0.0, seed=1),
            run_id="exact",
        )
        region = build_confidence_region(obs, 0.01)
        assert check_feasibility(sigs, region).feasible

        extreme = remove_interior_generators(gens)
        removed = extreme[rng.randrange(len(extreme))]
        kept = [s for s in sigs if _primitive(s) != removed]
        along = point_box([float(x) for x in removed])
        assert not check_feasibility(kept, along).feasible
    elapsed = time.perf_counter() - t0
    _report(f"end-to-end soundness on 50 random models ({elapsed:.1f}s)")


def test_performance_at_scale(haswell_namespace):
    """26-counter model with over 200 paths: one observation check within
    2 s (signature-compressed flows) and full constraint deduction within
    100 s. Order-of-magnitude bounds, not exact reproduction."""
    ns = haswell_namespace
    assert len(ns) == 26
    model = dsl.parse_file(bundled_path("haswell_mmu.mudd"), ns)
    paths = enumerate_mupaths(model)
    assert len(paths) >= 200

    sigs = [p.counts for p in paths]
    rng = np.random.default_rng(42)
    flows = tuple(float(x) for x in rng.uniform(0.0, 50.0, len(paths)))
    obs = generate(
        SynthSpec(model=model, flows=flows, samples=50, noise=3.0, seed=42),
        run_id="scale",
    )
    region = build_confidence_region(obs, 0.01)

    t0 = time.perf_counter()
    verdict = check_feasibility(sigs, region, compress=True)
    check_time = time.perf_counter() - t0
    assert verdict.feasible
    assert check_time <= 2.0

    t0 = time.perf_counter()
    constraints = deduce_constraints(model)
    deduce_time = time.perf_counter() - t0
    assert deduce_time <= 100.0
    assert len(constraints.inequalities) > 0
    # the size-sum decompositions fall out of the elimination step
    eq_displays = [c.display(ns) for c in constraints.equalities]
    assert "load.stlb_hit_4k + load.stlb_hit_2m = load.stlb_hit" in eq_displays
    assert "load.walk_done_4k + load.walk_done_2m + load.walk_done_1g = load.walk_done" in eq_displays
    # spot-check the deduced system against the generating cone
    gens = normalize_signatures(sigs)
    for g in gens[:5]:
        assert constraints.satisfied_by(g)
    _report(
        f"scale: {len(paths)} paths, check {check_time:.2f}s, "
        f"deduction {deduce_time:.2f}s"
    )


def test_haswell_deduction_speed(haswell_namespace):
    """Deduction on the 26-counter model stays exact-integer fast: the hull
    builds each new facet normal from its two neighbours, so the whole
    deduction takes tens of milliseconds; the bound leaves ample headroom."""
    model = dsl.parse_file(bundled_path("haswell_mmu.mudd"), haswell_namespace)
    t0 = time.perf_counter()
    constraints = deduce_constraints(model)
    elapsed = time.perf_counter() - t0
    assert len(constraints.equalities) == 12
    assert len(constraints.inequalities) == 25
    assert elapsed < 0.5, f"deduction took {elapsed:.3f}s"
    _report(f"haswell deduction {elapsed:.3f}s")


def test_catalog_search_report(capsys):
    """The bundled search catalog classifies m4 and m8 as feasible and
    reports every feature except the root-level cache as required."""
    assert main(["explore", str(bundled_path("catalog", "search_catalog.json"))]) == 0
    out = capsys.readouterr().out
    assert "feasible: m4, m8" in out
    assert "required features: EarlyPsc, Merging, TlbPf, WalkBypass" in out
    assert "Pml4e" in out  # the feature exists in the table, just not required
    from mudd.exploration import classify, load_catalog, required_features

    catalog = load_catalog(bundled_path("catalog", "search_catalog.json"))
    feasible, _ = classify(catalog)
    assert feasible == {"m4", "m8"}
    req = required_features(catalog, feasible)
    assert req == set(catalog.feature_order) - {"Pml4e"}
    _report("catalog search report matches the fixture")
