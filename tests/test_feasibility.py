import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mudd import bundled_path, dsl, linprog
from mudd.errors import MuddError
from mudd.feasibility import (
    FeasibilityVerdict,
    attribute_violations,
    batch_check,
    check_feasibility,
    refinement_candidates,
)
from mudd.geometry import (
    Constraint,
    ConstraintSet,
    cone_membership,
    constraints_from_signatures,
    deduce_constraints,
)
from mudd.model import CounterNamespace, enumerate_mupaths, signatures_of_model
from mudd.stats import ConfidenceRegion, ObservationSet, build_confidence_region
from mudd.synth import SynthSpec, generate
from mudd.synth import exact_counters as synth_exact

from conftest import point_box


def box_region(center, axes, half_lengths):
    return ConfidenceRegion(
        center=np.asarray(center, float),
        axes=np.asarray(axes, float),
        half_lengths=np.asarray(half_lengths, float),
    )


class TestCheckFeasibility:
    def test_origin_point_always_feasible(self):
        verdict = check_feasibility([(1, 0), (1, 1)], point_box([0.0, 0.0]))
        assert verdict.feasible
        assert all(f == 0 for f in verdict.witness_flow)

    def test_point_outside_cone(self):
        sigs = [(1, 0), (1, 1)]
        cs = constraints_from_signatures(sigs, CounterNamespace(["walks", "misses"]))
        verdict = check_feasibility(sigs, point_box([1.0, 2.0]), constraints=cs)
        assert not verdict.feasible
        assert any(c.coefficients == (1, -1) for c in verdict.violated_constraints)

    def test_box_reaching_the_cone(self):
        # center (1,2) is outside but the box stretches to the diagonal
        sigs = [(1, 0), (1, 1)]
        region = box_region([1, 2], np.eye(2), [0.6, 0.6])
        assert check_feasibility(sigs, region).feasible

    def test_witness_is_exact(self):
        sigs = [(1, 0), (1, 1)]
        verdict = check_feasibility(sigs, point_box([2.0, 1.0]))
        assert verdict.feasible
        v = verdict.witness_point
        f = verdict.witness_flow
        assert v == (Fraction(2), Fraction(1))
        assert f[0] * 1 + f[1] * 1 == v[0]
        assert f[1] * 1 == v[1]

    def test_signature_duplication_and_order_invariance(self):
        # equal signatures share one flow variable, so neither repeating nor
        # reordering paths may change the verdict; the witness flow stays
        # aligned with the paths as given and reproduces the witness point
        rng = random.Random(7)
        base = [(1, 0), (1, 1), (2, 0), (3, 1)]
        cases = {(3.0, 1.0): True, (2.0, 2.0): True, (4.0, 0.0): True,
                 (0.5, 1.0): False, (2.0, -1.0): False}
        for point, expected in cases.items():
            assert check_feasibility(base, point_box(point)).feasible == expected
            for _ in range(5):
                sigs = base + [rng.choice(base) for _ in range(rng.randint(1, 4))]
                rng.shuffle(sigs)
                verdict = check_feasibility(sigs, point_box(point))
                assert verdict.feasible == expected
                if not verdict.feasible:
                    continue
                assert len(verdict.witness_flow) == len(sigs)
                assert all(f >= 0 for f in verdict.witness_flow)
                rebuilt = tuple(
                    sum((f * s[i] for s, f in zip(sigs, verdict.witness_flow)), Fraction(0))
                    for i in range(2)
                )
                assert rebuilt == verdict.witness_point
                assert rebuilt == tuple(Fraction(x) for x in point)

    def test_dimension_mismatch(self):
        with pytest.raises(MuddError, match="^signature dimension 3 does not match "
                                            "region dimension 2$"):
            check_feasibility([(1, 0, 0)], point_box([1.0, 2.0]))

    @pytest.mark.parametrize("bad", [(1.5, 1), (-0.5, 1)])
    def test_non_integer_signature_entry_is_refused(self, bad):
        # neither truncated to (1, 1) nor rounded to a non-negative (0, 1)
        with pytest.raises(ValueError, match="must be integers"):
            check_feasibility([bad, (0, 1)], point_box([1.0, 1.0]))

    def test_integral_signature_forms_agree(self):
        # signatures may arrive as int tuples, numpy int64 rows or integral
        # floats; each form deduces the same constraints and verdicts. The
        # cone lies in the plane a - 2b + c = 0, with (1, 1, 1) interior.
        ints = [(2, 1, 0), (1, 1, 1), (0, 1, 2), (1, 1, 1)]
        forms = [ints, np.array(ints, dtype=np.int64),
                 [tuple(float(x) for x in s) for s in ints]]
        ns = CounterNamespace(["a", "b", "c"])
        regions = [
            point_box([1.0, 1.0, 1.0]),  # feasible, the centre is the witness
            point_box([1.0, 1.0, 2.0]),  # off the equality
            box_region([4, 1, -2], np.eye(3), [0.3, 0.3, 0.3]),  # past a facet
            box_region([3, 1, -1], np.eye(3), [0.6, 0.6, 0.6]),  # the box LP refutes it
            box_region([0.5, 1, 2], np.eye(3), [0.6, 0.1, 0.2]),  # the box LP finds flows
        ]
        constraints = [constraints_from_signatures(sigs, ns) for sigs in forms]
        assert all(cs == constraints[0] for cs in constraints)
        assert all(cs.pivot_columns == constraints[0].pivot_columns for cs in constraints)
        verdicts = [[check_feasibility(sigs, region) for region in regions] for sigs in forms]
        assert [v.feasible for v in verdicts[0]] == [True, False, False, False, True]
        assert [len(v.violated_constraints) for v in verdicts[0]] == [0, 1, 1, 1, 0]
        assert all(v == verdicts[0] for v in verdicts)

    def test_infeasible_verdict_names_a_reason(self):
        with pytest.raises(ValueError, match="must name a violated constraint"):
            FeasibilityVerdict(False)
        with pytest.raises(ValueError, match="must name a violated constraint"):
            FeasibilityVerdict(feasible=False, violated_constraints=())

    def test_infeasible_verdict_refuses_an_all_zero_reason(self):
        # 0 >= 0 holds everywhere, so it refutes nothing
        for kind in ("inequality", "equality"):
            with pytest.raises(ValueError, match="nonzero coefficient"):
                FeasibilityVerdict(False, violated_constraints=(
                    Constraint("inequality", (1, -1)), Constraint(kind, (0, 0), "farkas")))

    def test_point_region_agrees_with_membership_oracle(self):
        rng = random.Random(99)
        ns_cache = {}
        for _ in range(1000):
            dim = rng.randint(1, 3)
            ns_cache.setdefault(dim, CounterNamespace([f"c{i}" for i in range(dim)]))
            gens = [
                tuple(rng.randint(0, 4) for _ in range(dim))
                for _ in range(rng.randint(1, 4))
            ]
            point = [float(rng.randint(0, 6)) for _ in range(dim)]
            verdict = check_feasibility(gens, point_box(point))
            assert verdict.feasible == cone_membership(gens, [Fraction(x) for x in point])

    def test_monotone_in_half_lengths(self):
        rng = random.Random(13)
        for _ in range(60):
            dim = 2
            gens = [
                tuple(rng.randint(0, 3) for _ in range(dim))
                for _ in range(rng.randint(1, 3))
            ]
            center = [rng.uniform(0, 4) for _ in range(dim)]
            half = [rng.uniform(0, 1) for _ in range(dim)]
            small = box_region(center, np.eye(dim), half)
            grown = box_region(center, np.eye(dim), [h * 2.5 for h in half])
            if check_feasibility(gens, small).feasible:
                assert check_feasibility(gens, grown).feasible


class TestAttribution:
    NS = CounterNamespace(["walks", "misses"])

    def cs(self):
        return constraints_from_signatures([(1, 0), (1, 1)], self.NS)

    def test_region_in_cone_reports_nothing(self):
        region = box_region([2, 1], np.eye(2), [0.1, 0.1])
        assert attribute_violations(self.cs(), region) == ()

    def test_whole_region_past_one_facet(self):
        region = box_region([1, 2], np.eye(2), [0.2, 0.2])
        violated = attribute_violations(self.cs(), region)
        assert [c.coefficients for c in violated] == [(1, -1)]

    def test_degenerate_equality_violation(self):
        ns = CounterNamespace(["a", "b"])
        cs = constraints_from_signatures([(1, 1)], ns)  # cone is the diagonal ray
        region = point_box([1.0, 3.0])
        violated = attribute_violations(cs, region)
        assert any(c.kind == "equality" for c in violated)

    def test_retired_exceeding_completed_walks_is_named(self, bundled):
        # box entirely in the region where more misses retired than walks
        # completed: exactly that bound is reported
        from mudd.geometry import deduce_constraints

        model = dsl.parse_file(bundled("walk_outcome.mudd"))
        ns = model.namespace
        cs = deduce_constraints(model)
        center = [0.0] * 3
        center[ns.position("load.ret_stlb_miss")] = 5.0
        center[ns.position("load.walk_done")] = 2.0
        center[ns.position("load.causes_walk")] = 6.0
        region = box_region(center, np.eye(3), [0.5, 0.5, 0.5])
        violated = attribute_violations(cs, region)
        assert [c.display(ns) for c in violated] == [
            "load.ret_stlb_miss ≤ load.walk_done"
        ]

    def test_feasible_implies_empty_and_nonempty_implies_infeasible(self):
        rng = random.Random(7)
        ns = CounterNamespace(["x", "y"])
        for _ in range(150):
            gens = [
                tuple(rng.randint(0, 3) for _ in range(2))
                for _ in range(rng.randint(1, 3))
            ]
            cs = constraints_from_signatures(gens, ns)
            region = box_region(
                [rng.uniform(-1, 4), rng.uniform(-1, 4)],
                np.eye(2),
                [rng.uniform(0, 1.5), rng.uniform(0, 1.5)],
            )
            verdict = check_feasibility(gens, region, constraints=cs)
            violated = attribute_violations(cs, region)
            if verdict.feasible:
                assert violated == ()
            if violated:
                assert not verdict.feasible

    def test_point_region_equivalence_is_exact(self):
        rng = random.Random(41)
        ns = CounterNamespace(["x", "y"])
        for _ in range(300):
            gens = [
                tuple(rng.randint(0, 3) for _ in range(2))
                for _ in range(rng.randint(1, 3))
            ]
            cs = constraints_from_signatures(gens, ns)
            point = [float(rng.randint(0, 4)), float(rng.randint(0, 4))]
            verdict = check_feasibility(gens, point_box(point), constraints=cs)
            violated = attribute_violations(cs, point_box(point))
            assert verdict.feasible == (not violated)

    def test_skewed_axes_are_decided_on_their_box(self):
        # axes 0.6 from orthogonal: the parallelotope they span misses
        # 0 <= misses, but the box itself holds the cone point (0.9, 0.1)
        gens = [(1, 0), (1, 1)]
        region = box_region([1.0, -0.3], [[1.0, 0.0], [0.6, 0.8]], [0.1, 0.3])
        assert region.contains((0.9, 0.1))
        assert attribute_violations(self.cs(), region) == ()
        verdict = check_feasibility(gens, region)
        assert verdict.feasible
        assert in_box_exactly(verdict.witness_point, region)
        assert verdict.witness_point == (1 - Fraction(0.1), 0)  # the box's corner

    def test_margin_is_zero_for_orthonormal_integer_axes(self):
        # signed, permuted unit axes are exactly orthonormal: D = 0, and the
        # parallelotope's verdict stands as it is
        region = box_region([1, 2], [[0, -1], [1, 0]], [0.2, 0.2])
        assert region._skew is None
        assert [c.coefficients for c in attribute_violations(self.cs(), region)] == [(1, -1)]
        assert region._skew == 0

    def test_margin_is_computed_only_for_a_claim(self):
        region = box_region([2, 1], [[0.6, 0.8], [-0.8, 0.6]], [0.1, 0.1])
        assert check_feasibility([(1, 0), (1, 1)], region).feasible
        assert region._skew is None

    def test_singular_axes_claim_nothing(self):
        # two equal axes bound only the walks: the box is a strip that meets
        # the cone however far the centre is from it in misses
        region = box_region([1, 5], [[1, 0], [1, 0]], [0.1, 0.1])
        assert attribute_violations(self.cs(), region) == ()
        assert check_feasibility([(1, 0), (1, 1)], region).feasible

    def test_corner_straddle_can_attribute_nothing(self, monkeypatch):
        # A box can miss the cone without any single facet cutting all of it;
        # the per-facet test is sound but not complete for boxes, so the
        # exact box LP decides.
        calls = []
        real = linprog.feasible_point

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(linprog, "feasible_point", counted)
        gens = [(1, 0), (1, 1)]
        cs = constraints_from_signatures(gens, self.NS)
        axes = np.array([[1, 0], [0, 1]], float)
        region = box_region([-0.75, -0.4495], axes, [0.25, 0.55])
        verdict = check_feasibility(gens, region, constraints=cs)
        assert not verdict.feasible
        assert len(calls) == 1
        assert attribute_violations(cs, region) == ()
        # the box LP's Farkas vector names both facets of the corner
        (reason,) = verdict.violated_constraints
        assert reason.coefficients == (1, 0) and reason.provenance == "farkas"
        assert [(w, c.coefficients) for w, c in reason.terms] == [(1, (0, 1)), (1, (1, -1))]
        assert reason.display(self.NS) == "(0 ≤ misses) + (misses ≤ walks)"
        names = CounterNamespace(["v0", "v1"])
        assert [c.display(names) for _, c in reason.terms] == ["0 ≤ v1", "v1 ≤ v0"]


def box_lp_oracle(sigs, region):
    """The exact box LP alone: flows f >= 0 with |e_i.(S f - c)| <= h_i."""
    n = region.dimension
    center = [Fraction(float(x)) for x in region.center]
    a_ub, b_ub = [], []
    for e, h in zip(region.axes.tolist(), region.half_lengths.tolist()):
        e = [Fraction(x) for x in e]
        proj = sum(x * c for x, c in zip(e, center))
        row = [sum(e[j] * s[j] for j in range(n)) for s in sigs]
        a_ub += [row, [-x for x in row]]
        b_ub += [proj + Fraction(h), Fraction(h) - proj]
    return linprog.feasible_point(len(sigs), a_ub, b_ub)[0]


def assert_witness_on_every_coordinate(sigs, region, cs, verdict):
    """S f equals the witness point on every coordinate, and the point is
    the one the membership LP gives over every coordinate, not only over
    the pivot columns of `cs`."""
    f, v = verdict.witness_flow, verdict.witness_point
    assert v == tuple(sum(x * s[i] for x, s in zip(f, sigs)) for i in range(len(v)))
    assert cs.pivot_columns is not None
    every_row = ConstraintSet(cs.equalities, cs.inequalities, cs.namespace)
    assert every_row.pivot_columns == tuple(range(len(cs.namespace)))
    assert check_feasibility(sigs, region, constraints=every_row).witness_point == v


def in_box_exactly(point, region):
    center = [Fraction(float(x)) for x in region.center]
    return all(
        abs(sum(Fraction(x) * (p - c) for x, p, c in zip(e, point, center))) <= Fraction(h)
        for e, h in zip(region.axes.tolist(), region.half_lengths.tolist())
    )


@st.composite
def cones_and_boxes(draw):
    """Pointed integer cones in 2-5 dimensions and rotated boxes around them:
    boxes about a point of the cone, point regions (on or off the cone),
    boxes just outside the origin corner, some straddling it, and skewed
    boxes about a point near the cone, whose dyadic axes are not
    orthonormal and may be singular (a repeated or a zero axis)."""
    dim = draw(st.integers(2, 5))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 3)] * dim), min_size=1, max_size=6))
    kind = draw(st.sampled_from(["near", "point", "corner", "skewed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.integers(0, 4, size=len(gens))
    inside = np.array(gens, float).T @ weights / 2.0
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    axes = q.T if draw(st.booleans()) else np.eye(dim)
    if kind == "skewed":
        axes = rng.integers(-4, 5, size=(dim, dim)) / 4.0
        singular = draw(st.sampled_from(["none", "repeated", "zero"]))
        if singular == "repeated":
            axes[0] = axes[-1]
        elif singular == "zero":
            axes[0] = 0.0
        center = inside + rng.normal(scale=1.0, size=dim)
        half = rng.uniform(0.0, 1.5, size=dim)
    elif kind == "point":
        center = inside + (rng.integers(-2, 3, size=dim) / 4.0 if draw(st.booleans()) else 0)
        half = np.zeros(dim)
    elif kind == "near":
        center = inside + rng.normal(scale=1.0, size=dim)
        half = rng.uniform(0.0, 1.5, size=dim)
    else:
        center = -rng.uniform(0.1, 1.0, size=dim)
        half = rng.uniform(0.0, 1.2, size=dim) * float(np.abs(center).max())
    half[rng.random(dim) < 0.3] = 0.0
    return gens, box_region(center, axes, half)


class TestDecisionPath:
    """The attribution, centre-witness and box-LP steps against the box LP alone."""

    @settings(max_examples=300, deadline=None)
    @given(cones_and_boxes())
    def test_matches_box_lp_alone(self, case):
        gens, region = case
        verdict = check_feasibility(gens, region)
        assert verdict.feasible == (box_lp_oracle(gens, region) is not None)
        if verdict.feasible:
            f, v = verdict.witness_flow, verdict.witness_point
            assert len(f) == len(gens) and all(x >= 0 for x in f)
            assert in_box_exactly(v, region)
            names = CounterNamespace(f"v{i}" for i in range(len(v)))
            cs = constraints_from_signatures(gens, names)
            assert_witness_on_every_coordinate(gens, region, cs, verdict)
        else:
            assert verdict.witness_flow is None
            assert verdict.violated_constraints
        for c in verdict.violated_constraints:
            assert all(c.satisfied_by(g) for g in gens)
            if c.terms:  # a positive multiple of the weighted sum of its terms
                total = [sum(w * t.coefficients[i] for w, t in c.terms)
                         for i in range(len(c.coefficients))]
                ratios = {Fraction(x, y) for x, y in zip(total, c.coefficients) if y}
                assert len(ratios) == 1 and min(ratios) > 0
                assert all(x == 0 for x, y in zip(total, c.coefficients) if not y)

    def test_synth_cells_take_no_box_lp(self, haswell_namespace, monkeypatch):
        # a feasible Haswell run and one shifted off an equality are decided
        # by the witness and by attribution; the box LP must not run
        model = dsl.parse_file(bundled_path("haswell_mmu.mudd"), haswell_namespace)
        sigs = [s.counts for s in signatures_of_model(model)]
        cs = deduce_constraints(model)
        flows = tuple(float(100 + 30 * (i % 7)) for i in range(len(sigs)))
        spec = SynthSpec(model=model, flows=flows, samples=50, seed=11)
        mean = np.array([float(x) for x in synth_exact(spec)]) / spec.samples
        spec = SynthSpec(model=model, flows=flows, samples=50, seed=11,
                         noise=np.where(mean > 0, 3.0, 0.0))
        feasible = generate(spec, run_id="feasible")
        shifted = generate(spec, run_id="shifted")
        equality = next(c for c in cs.equalities if sum(1 for a in c.coefficients if a) >= 2)
        col = next(i for i, a in enumerate(equality.coefficients) if a)
        shifted.sample_matrix[:, col] += 200.0

        def no_box_lp(*args, **kwargs):
            raise AssertionError("the box LP ran")

        monkeypatch.setattr(linprog, "feasible_point", no_box_lp)
        verdict = check_feasibility(sigs, build_confidence_region(feasible), constraints=cs)
        assert verdict.feasible
        verdict = check_feasibility(sigs, build_confidence_region(shifted), constraints=cs)
        assert not verdict.feasible
        assert equality in verdict.violated_constraints


    @pytest.mark.parametrize("seed", range(8))
    def test_rows_on_the_equalities_stay_feasible(self, haswell_namespace, seed):
        # every sample is a non-negative integer flow combination of the
        # Haswell signatures, so it satisfies each deduced equality exactly
        # and the covariance has exact null directions; their rounding-level
        # eigenvalues (clamped to 0, or about 1e-16 of the largest) must not
        # make the run infeasible
        model = dsl.parse_file(bundled_path("haswell_mmu.mudd"), haswell_namespace)
        sigs = np.array([s.counts for s in signatures_of_model(model)])
        rng = np.random.default_rng(seed)
        low, high = [(0, 3), (0, 40), (100, 400), (0, 2)][seed % 4]
        rows = (rng.integers(low, high, size=(50, len(sigs))) @ sigs).tolist()
        obs = ObservationSet(f"exact{seed}", rows, haswell_namespace)
        # as `--project` gives it for a CSV without the `store.*` columns
        kept = [i for i, n in enumerate(haswell_namespace.names) if not n.startswith("store.")]
        projected = ObservationSet(f"projected{seed}", [[r[i] for i in kept] for r in rows],
                                   CounterNamespace(haswell_namespace.names[i] for i in kept))
        for independent in (False, True):
            cells = batch_check([("haswell", model)], [obs, projected],
                                independent=independent)
            for cell, o in zip(cells, (obs, projected)):
                assert cell.error is None and cell.verdict.feasible
                positions = [haswell_namespace.position(n) for n in o.namespace.names]
                cell_sigs = [tuple(s[i] for i in positions) for s in sigs.tolist()]
                cs = constraints_from_signatures(cell_sigs, o.namespace)
                assert len(cs.pivot_columns) < len(o.namespace)
                region = build_confidence_region(o, independent=independent)
                assert_witness_on_every_coordinate(cell_sigs, region, cs, cell.verdict)

    # 0 <= b <= a: the box LP's witness often lies exactly on a box face
    TWO_PATHS = "counter a; switch (p) { case x: counter b; case y: done; }\n"

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_witness_is_in_the_region_it_was_found_in(self, seed):
        model = dsl.parse(self.TWO_PATHS)
        rng = random.Random(seed)
        rows = []
        for _ in range(6):
            a = 10 + rng.gauss(0, 1)
            rows.append([a, max(0.0, a + 0.3 + rng.gauss(0, 1))])
        region = build_confidence_region(ObservationSet("r", rows, model.namespace))
        verdict = check_feasibility([s.counts for s in signatures_of_model(model)], region)
        if verdict.feasible:
            assert region.contains(verdict.witness_point)


class TestRefinement:
    def test_refined_model_breaks_the_constraint(self, bundled):
        refined = dsl.parse_file(
            bundled("pde_lookup_first.mudd"),
            CounterNamespace(["load.causes_walk", "load.pde$_miss"]),
        )
        violated = Constraint(kind="inequality", coefficients=(1, -1))
        candidates = refinement_candidates(violated, refined)
        assert len(candidates) == 1
        path = candidates[0]
        assert dict(path.property_assignment) == {"PdeStatus": "Miss", "Abort": "Yes"}
        assert path.counts == (0, 1)

    def test_original_model_has_no_candidates(self, bundled):
        original = dsl.parse_file(
            bundled("walk_init_first.mudd"),
            CounterNamespace(["load.causes_walk", "load.pde$_miss"]),
        )
        violated = Constraint(kind="inequality", coefficients=(1, -1))
        assert refinement_candidates(violated, original) == ()

    def test_nonnegativity_never_has_candidates(self, bundled):
        model = dsl.parse_file(bundled("pde_lookup_first.mudd"))
        never = Constraint(kind="inequality", coefficients=(1, 0))
        assert refinement_candidates(never, model) == ()

    def test_soundness_on_random_models(self):
        # nonempty candidates for constraint c implies c is not deduced
        rng = random.Random(3)
        ns = CounterNamespace(["x", "y"])
        from mudd.geometry import deduce_constraints

        for _ in range(40):
            n_cases = rng.randint(2, 3)
            cases = []
            for i in range(n_cases):
                body = " ".join(
                    f"counter {rng.choice(['x', 'y'])};" for _ in range(rng.randint(0, 2))
                )
                cases.append(f"case v{i}: {body}")
            model = dsl.parse("switch (P) { %s }" % " ".join(cases), ns)
            constraint = Constraint(
                kind="inequality", coefficients=(rng.randint(-2, 2), rng.randint(-2, 2))
            )
            if constraint.coefficients == (0, 0):
                continue
            candidates = refinement_candidates(constraint, model)
            deduced = {c.coefficients for c in deduce_constraints(model).inequalities}
            if candidates:
                assert constraint.coefficients not in deduced

    def test_equality_rejected(self, bundled):
        model = dsl.parse_file(bundled("walk_init_first.mudd"))
        with pytest.raises(ValueError):
            refinement_candidates(
                Constraint(kind="equality", coefficients=(1, -1)), model
            )


class TestBatch:
    def test_cross_product_shape_and_order(self, bundled):
        model_a = dsl.parse_file(bundled("walk_init_first.mudd"))
        obs = [
            generate(SynthSpec(model=model_a, flows=(2.0, 1.0), samples=10, seed=s), run_id=f"run{s}")
            for s in (3, 1, 2)
        ]
        cells = batch_check([("m", model_a)], obs)
        assert [c.run_id for c in cells] == ["run1", "run2", "run3"]
        assert all(c.verdict.feasible for c in cells)

    def test_infeasible_cell_lists_constraints(self, bundled):
        model = dsl.parse_file(bundled("walk_init_first.mudd"))
        bad = generate(
            SynthSpec(model=model, flows=(0.0, 0.0), samples=5, seed=0), run_id="bad"
        )
        bad.sample_matrix[:, 1] = 7.0  # misses without walks
        cells = batch_check([("m", model)], [bad])
        assert not cells[0].verdict.feasible
        assert cells[0].verdict.violated_constraints

    def test_per_cell_errors_recorded(self, bundled):
        model = dsl.parse_file(bundled("walk_init_first.mudd"))
        good = generate(SynthSpec(model=model, flows=(1.0, 1.0), samples=5, seed=1), run_id="ok")
        wrong_ns = generate(
            SynthSpec(
                model=dsl.parse("counter only.one;"),
                flows=(1.0,),
                samples=5,
                seed=1,
            ),
            run_id="misfit",
        )
        cells = batch_check([("m", model)], [good, wrong_ns])
        by_run = {c.run_id: c for c in cells}
        assert by_run["ok"].verdict.feasible
        assert by_run["misfit"].error is not None

    def test_unexpected_exception_becomes_error_cell(self, bundled, monkeypatch):
        import mudd.feasibility

        def broken(obs, alpha, independent=False):
            if obs.run_id == "bad":
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real(obs, alpha, independent=independent)

        real = mudd.feasibility.build_confidence_region
        monkeypatch.setattr(mudd.feasibility, "build_confidence_region", broken)
        model = dsl.parse_file(bundled("walk_init_first.mudd"))
        obs = [
            generate(SynthSpec(model=model, flows=(1.0, 1.0), samples=5, seed=1), run_id=r)
            for r in ("bad", "ok")
        ]
        bad, ok = batch_check([("m", model)], obs)
        assert bad.error == "LinAlgError: Eigenvalues did not converge"
        assert ok.verdict.feasible

    def test_unnamed_refutation_becomes_error_cell(self, bundled, monkeypatch):
        # the box LP refutes this cell; with a decomposition that finds no
        # weights it is an error, never a verdict
        from pathlib import Path

        from mudd.stats import load_observations

        model = dsl.parse_file(bundled("catalog", "m7.mudd"))
        csv = Path(__file__).resolve().parent / "data" / "csv" / "m8_sparse.csv"
        obs = load_observations(csv, model.namespace)
        (cell,) = batch_check([("m7", model)], [obs])
        assert cell.verdict.violated_constraints[0].provenance == "farkas"
        monkeypatch.setattr(linprog, "solve_equality_form", lambda *args, **kwargs: None)
        (cell,) = batch_check([("m7", model)], [obs])
        assert cell.verdict is None
        assert cell.error == ("ArithmeticError: the box LP's certificate is no "
                              "combination of the constraints")

    def test_signatures_validated_once_and_box_built_once_per_cell(self, bundled,
                                                                   monkeypatch):
        import mudd.feasibility as feasibility

        # a region converts its box to integers in its constructor
        counts = {"_as_vector": 0, "region": 0}
        real_vector, real_init = feasibility._as_vector, ConfidenceRegion.__init__

        def as_vector(sig):
            counts["_as_vector"] += 1
            return real_vector(sig)

        def region_init(self, *args, **kwargs):
            counts["region"] += 1
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(feasibility, "_as_vector", as_vector)
        monkeypatch.setattr(ConfidenceRegion, "__init__", region_init)
        model = dsl.parse_file(bundled("walk_init_first.mudd"))
        obs = [
            generate(SynthSpec(model=model, flows=(2.0, 1.0), samples=8, noise=0.1, seed=s),
                     run_id=f"r{s}")
            for s in range(4)
        ]
        cells = batch_check([("m", model)], obs)
        assert all(c.verdict.feasible for c in cells)
        paths = len(enumerate_mupaths(model))
        assert counts == {"_as_vector": paths, "region": 4}

    def test_unusable_alpha_raises_once_before_any_cell(self, bundled, monkeypatch):
        import mudd.feasibility

        started = []
        monkeypatch.setattr(mudd.feasibility, "_check_cell", started.append)
        model = dsl.parse_file(bundled("walk_init_first.mudd"))
        obs = [
            generate(SynthSpec(model=model, flows=(1.0, 1.0), samples=5, seed=1), run_id=r)
            for r in ("a", "b")
        ]
        with pytest.raises(MuddError) as exc:
            batch_check([("m", model)], obs, 1e-17)
        assert str(exc.value) == "alpha 1e-17 is too small: 1 - alpha rounds to 1"
        assert started == []

    def test_empty_observation_list(self, bundled):
        model = dsl.parse_file(bundled("walk_init_first.mudd"))
        assert batch_check([("m", model)], []) == ()

    def test_parallel_matches_serial(self, bundled, monkeypatch):
        # a real forked pool, started by the cut-off of one cell per worker,
        # returns the serial cells: witnesses and violated constraints too
        import concurrent.futures

        import mudd.feasibility

        started = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(mudd.feasibility, "_CELLS_PER_WORKER", 1)
        monkeypatch.setattr(mudd.feasibility, "_usable_cpus", lambda: 2)
        model = dsl.parse_file(bundled("walk_init_first.mudd"))
        obs = [
            generate(SynthSpec(model=model, flows=(2.0, 1.0), samples=8, noise=0.1, seed=s), run_id=f"r{s}")
            for s in range(4)
        ]
        bad = generate(SynthSpec(model=model, flows=(0.0, 0.0), samples=5, seed=0), run_id="bad")
        bad.sample_matrix[:, 1] = 7.0  # misses without walks
        obs.append(bad)
        serial = batch_check([("m", model)], obs, jobs=1)
        assert started == []
        parallel = batch_check([("m", model)], obs, jobs=2)
        assert started == [2]
        assert parallel == serial
        assert [c.verdict.feasible for c in serial] == [False, True, True, True, True]
        assert serial[0].verdict.violated_constraints
        assert all(c.verdict.witness_point is not None for c in serial[1:])

    def test_pool_starts_no_more_workers_than_cells(self, bundled, monkeypatch):
        import concurrent.futures

        import mudd.feasibility

        started, counted = [], []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        # also where a module-level import would have bound it: no real pool
        monkeypatch.setattr(mudd.feasibility, "ProcessPoolExecutor", RecordingPool,
                            raising=False)
        model = dsl.parse_file(bundled("walk_init_first.mudd"))
        obs = [
            generate(SynthSpec(model=model, flows=(2.0, 1.0), samples=5, seed=s), run_id=f"r{s}")
            for s in range(3)
        ]
        k = mudd.feasibility._CELLS_PER_WORKER
        table = [  # cells, jobs, usable CPUs -> workers (None: no pool)
            (1, 16, 2, None),
            (8, 2, 2, None),
            (2 * k - 1, 2, 2, None),  # one worker short of K cells
            (2 * k, 2, 2, 2),
            (2 * k, 16, 2, 2),        # no more workers than usable CPUs
            (3 * k, 16, 4, 3),        # no more workers than K-cell shares
            (3 * k, 2, 4, 2),         # --jobs is the ceiling
            (4 * k, 1, 4, None),      # one job: the CPUs are never counted
            (4 * k, 16, 1, None),     # one usable CPU
            (2 * k, None, 2, 2),      # no --jobs: as many workers as CPUs allow
            (3 * k, None, 4, 3),
            (2 * k - 1, None, 4, None),  # under two K-cell shares: CPUs never counted
        ]
        for cells, jobs, cpus, workers in table:
            started.clear()
            counted.clear()
            monkeypatch.setattr(mudd.feasibility, "_usable_cpus",
                                lambda cpus=cpus: counted.append(cpus) or cpus)
            result = batch_check([("m", model)], [obs[i % 3] for i in range(cells)], jobs=jobs)
            case = (cells, jobs, cpus)
            assert len(result) == cells and all(c.verdict.feasible for c in result), case
            assert started == ([] if workers is None else [workers]), case
            asked = jobs != 1 and cells // k >= 2
            assert counted == ([cpus] if asked else []), case

    def test_renderings(self, bundled, tmp_path, capsys):
        # `mudd check` prints a verdict row per cell, as text or JSON
        import json

        from mudd.cli import main
        from mudd.stats import write_observations

        model = dsl.parse_file(bundled("walk_init_first.mudd"))
        good = generate(SynthSpec(model=model, flows=(1.0, 1.0), samples=5, seed=1), run_id="ok")
        write_observations(good, tmp_path / "ok.csv")
        argv = ["check", str(bundled("walk_init_first.mudd")), str(tmp_path / "ok.csv")]
        assert main(argv) == 0
        assert capsys.readouterr().out == "walk_init_first x ok: feasible\n"
        assert main(argv + ["--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [(r["model"], r["run"], r["feasible"]) for r in rows] == [
            ("walk_init_first", "ok", True)]

    def test_search_table_style_counts(self, bundled):
        # observations generated from the richer model: the baseline rejects
        # some runs while their source accepts every one
        from mudd.exploration import load_catalog

        catalog = load_catalog(bundled("catalog", "search_catalog.json"))
        base = catalog.entries["m0"].model
        rich = catalog.entries["m4"].model
        paths = len(enumerate_mupaths(rich))
        observations = []
        rng = __import__("random").Random(6)
        for run in range(6):
            # emphasize the feature paths half the time
            flows = [float(rng.randint(0, 8)) for _ in range(paths)]
            obs = generate(
                SynthSpec(model=rich, flows=tuple(flows), samples=4, noise=0.0, seed=run),
                run_id=f"run{run}",
            )
            observations.append(obs)
        cells = batch_check([("m0", base), ("m4", rich)], observations)
        infeasible = {"m0": 0, "m4": 0}
        for cell in cells:
            assert cell.error is None
            if not cell.verdict.feasible:
                infeasible[cell.model_name] += 1
        assert infeasible["m4"] == 0
        assert infeasible["m0"] > 0


class TestKnownTruth:
    """Runs drawn from catalog m4 and m3, checked against all 12 catalog models."""

    EQUAL_CONES = [("m2", "m3"), ("m4", "m8"), ("m5", "m9"), ("m7", "m11")]

    def test_every_refutation_is_named_and_equal_cones_agree(self, bundled, monkeypatch):
        from mudd.exploration import load_catalog

        refuted = []
        real = linprog.feasible_point

        def counted(*args, **kwargs):
            x, w = real(*args, **kwargs)
            if w is not None:
                refuted.append(w)
            return x, w

        monkeypatch.setattr(linprog, "feasible_point", counted)
        catalog = load_catalog(bundled("catalog", "search_catalog.json"))
        models = [(name, e.model) for name, e in catalog.entries.items()]
        runs = []
        for truth in ("m4", "m3"):
            model = catalog.entries[truth].model
            paths = len(enumerate_mupaths(model))
            for seed in range(40, 44):
                rng = random.Random(seed)
                flows = tuple(float(rng.randint(50, 2000)) if rng.random() < 0.25 else 0.0
                              for _ in range(paths))
                spec = SynthSpec(model=model, flows=flows, samples=40,
                                 noise=rng.choice([2.0, 5.0, 10.0]), seed=seed)
                runs.append(generate(spec, run_id=f"{truth}-{seed}"))
        cells = batch_check(models, runs, jobs=1)
        assert len(cells) == 12 * len(runs)
        verdicts = {}
        for cell in cells:
            assert cell.error is None, cell.error
            if not cell.verdict.feasible:
                assert cell.verdict.violated_constraints
            verdicts[cell.model_name, cell.run_id] = cell.verdict
        for a, b in self.EQUAL_CONES:
            for run in runs:
                assert verdicts[a, run.run_id].feasible == verdicts[b, run.run_id].feasible
        # the box LP refutes some cells: their reasons come from its tableau
        assert refuted
        assert any(c.provenance == "farkas" for v in verdicts.values()
                   for c in v.violated_constraints)

    def test_zero_noise_is_never_refuted_by_a_containing_cone(self, bundled):
        # integer flows over a power-of-two sample count make every sample
        # exact in floats, so the region is the truth's point; containment
        # is decided on the signatures themselves, not on deduced constraints
        from mudd.exploration import load_catalog

        catalog = load_catalog(bundled("catalog", "search_catalog.json"))
        models = [(name, e.model) for name, e in catalog.entries.items()]
        sigs = {name: [p.counts for p in enumerate_mupaths(m)] for name, m in models}
        runs = []
        for truth, model in models:
            for seed in range(3):
                rng = random.Random(seed)
                flows = tuple(float(rng.randint(0, 20)) for _ in sigs[truth])
                spec = SynthSpec(model=model, flows=flows, samples=4, seed=seed)
                runs.append(generate(spec, run_id=f"{truth}-{seed}"))
        contains = {(a, b): all(cone_membership(sigs[a], s) for s in sigs[b])
                    for a in sigs for b in sigs}
        cells = batch_check(models, runs, jobs=1)
        assert len(cells) == 12 * len(runs)
        contained = 0
        for cell in cells:
            if contains[cell.model_name, cell.run_id.partition("-")[0]]:
                contained += 1
                assert cell.error is None, cell.error
                assert cell.verdict.feasible, (cell.model_name, cell.run_id)
        assert contained == 168
