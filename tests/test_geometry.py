import random
from fractions import Fraction

import pytest

from mudd import dsl, hull
from mudd.errors import MuddError
from mudd.geometry import (
    Constraint,
    cone_membership,
    conic_hull_facets,
    constraints_from_signatures,
    deduce_constraints,
    find_equalities,
    normalize_signatures,
    remove_interior_generators,
)
from mudd.model import CounterNamespace


from conftest import brute_force_facets, rank_of as _rank


def _coeff_set(constraints):
    return {c.coefficients for c in constraints}


# -- normalization -----------------------------------------------------------


class TestNormalize:
    def test_gcd_scaling(self):
        assert normalize_signatures([(2, 4, 6)]) == ((1, 2, 3),)

    def test_dedup_and_zero_removal(self):
        assert normalize_signatures([(1, 1), (2, 2), (0, 0)]) == ((1, 1),)

    def test_coprime_unchanged(self):
        assert set(normalize_signatures([(3, 5), (5, 3)])) == {(3, 5), (5, 3)}

    def test_sorted_lexicographically(self):
        out = normalize_signatures([(2, 1), (1, 2), (1, 1)])
        assert out == ((1, 1), (1, 2), (2, 1))

    def test_integral_entries_become_ints(self):
        out = normalize_signatures([[4.0, 2]])
        assert out == ((2, 1),)
        assert all(type(c) is int for c in out[0])


# -- equalities ---------------------------------------------------------------


class TestEqualities:
    def test_single_generator_line(self):
        eqs, reduced, pivots = find_equalities([(1, 2)], 2)
        assert [e.coefficients for e in eqs] == [(2, -1)]
        assert reduced == ((1,),)
        assert pivots == (0,)

    def test_full_rank_no_equalities(self):
        eqs, reduced, _ = find_equalities([(1, 0), (0, 1)], 2)
        assert eqs == ()
        assert set(reduced) == {(1, 0), (0, 1)}

    def test_sum_decomposition(self):
        # coords: (total, part_a, part_b); every generator satisfies
        # total = part_a + part_b
        gens = [(1, 1, 0), (1, 0, 1), (2, 1, 1)]
        eqs, _, _ = find_equalities(gens, 3)
        assert [e.coefficients for e in eqs] == [(1, -1, -1)]

    def test_empty_generators_pin_every_coordinate(self):
        eqs, reduced, _ = find_equalities([], dim=3)
        assert {e.coefficients for e in eqs} == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
        assert reduced == ()

    def test_equalities_annihilate_generators(self):
        gens = [(1, 2, 3), (2, 4, 6), (0, 1, 1)]
        eqs, _, _ = find_equalities(gens, 3)
        for e in eqs:
            for g in gens:
                assert sum(a * x for a, x in zip(e.coefficients, g)) == 0


# -- interior removal ---------------------------------------------------------


class TestInteriorRemoval:
    def test_diagonal_removed(self):
        assert set(remove_interior_generators([(1, 0), (0, 1), (1, 1)])) == {
            (1, 0),
            (0, 1),
        }

    def test_extreme_rays_kept(self):
        assert set(remove_interior_generators([(1, 0), (0, 1)])) == {(1, 0), (0, 1)}

    def test_interior_combination(self):
        assert set(remove_interior_generators([(2, 1), (1, 2), (1, 1)])) == {
            (2, 1),
            (1, 2),
        }

    def test_single_generator_kept(self):
        assert remove_interior_generators([(1, 1)]) == ((1, 1),)

    def test_removal_never_changes_cone(self):
        rng = random.Random(5)
        for _ in range(70):
            dim = rng.randint(1, 3)
            gens = [
                tuple(rng.randint(0, 4) for _ in range(dim))
                for _ in range(rng.randint(1, 5))
            ]
            gens = [g for g in gens if any(g)]
            if not gens:
                continue
            kept = remove_interior_generators(gens)
            for _ in range(15):
                p = tuple(Fraction(rng.randint(-4, 8), rng.randint(1, 3)) for _ in range(dim))
                assert cone_membership(gens, p) == cone_membership(kept, p)


# -- membership ---------------------------------------------------------------


class TestMembership:
    def test_explicit_flow_certificate(self):
        assert cone_membership([(1, 0), (1, 1)], (2, 1))

    def test_origin_always_inside(self):
        assert cone_membership([(1, 0), (1, 1)], (0, 0))
        assert cone_membership([], (0, 0))

    def test_outside_point(self):
        assert not cone_membership([(1, 0), (1, 1)], (1, 2))

    def test_dimension_mismatch(self):
        with pytest.raises(MuddError, match="^generator dimension 2 does not match "
                                            "point dimension 3$"):
            cone_membership([(1, 0)], (1, 0, 0))

    @pytest.mark.parametrize("point", [(1,), (1, 0, 0)])
    def test_constraint_refuses_a_point_of_another_length(self, point):
        # not zipped down to the shorter of the two
        c = Constraint(kind="inequality", coefficients=(1, -1))
        with pytest.raises(MuddError,
                           match=f"^point has {len(point)} coordinates, constraint has 2$"):
            c.satisfied_by(point)

    def test_rational_points(self):
        assert cone_membership([(2, 1)], (Fraction(1), Fraction(1, 2)))
        assert not cone_membership([(2, 1)], (Fraction(1), Fraction(1, 3)))

    def test_scale_invariance(self):
        rng = random.Random(11)
        for _ in range(40):
            dim = rng.randint(1, 4)
            gens = [
                tuple(rng.randint(0, 5) for _ in range(dim))
                for _ in range(rng.randint(1, 5))
            ]
            p = tuple(Fraction(rng.randint(-3, 6), rng.randint(1, 4)) for _ in range(dim))
            alpha = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            scaled = tuple(alpha * x for x in p)
            assert cone_membership(gens, p) == cone_membership(gens, scaled)


# -- facets --------------------------------------------------------------------


class TestFacets:
    def test_two_generators_quarter_plane(self):
        facets = conic_hull_facets([(1, 0), (1, 1)])
        assert _coeff_set(facets) == {(0, 1), (1, -1)}

    def test_standard_basis_is_orthant(self):
        facets = conic_hull_facets([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert _coeff_set(facets) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_one_dimensional_ray(self):
        facets = conic_hull_facets([(3,)])
        assert _coeff_set(facets) == {(1,)}

    def test_hull_refuses_a_non_integer_ray(self):
        # truncated to (1, 0), the ray would give the facets of another cone
        # than that of its integer multiple (2, 1)
        with pytest.raises(TypeError):
            hull.convex_hull_hyperplanes([(1, 0.5), (0, 1)])
        assert sorted(hull.convex_hull_hyperplanes([(2, 1), (0, 1)])) == [(-1, 2), (1, 0)]

    def test_matches_bruteforce_in_3d(self):
        gens = [(0, 0, 1), (0, 1, 1), (1, 1, 1)]
        facets = conic_hull_facets(gens)
        assert _coeff_set(facets) == brute_force_facets(gens, 3)

    def test_matches_bruteforce_in_4d(self):
        gens = [
            (1, 0, 0, 0),
            (1, 1, 0, 0),
            (1, 1, 1, 0),
            (1, 1, 1, 1),
            (2, 1, 0, 1),
        ]
        extreme = remove_interior_generators(gens)
        facets = conic_hull_facets(extreme)
        assert _coeff_set(facets) == brute_force_facets(list(extreme), 4)

    def test_randomized_against_bruteforce(self):
        rng = random.Random(23)
        tried = 0
        while tried < 150:
            dim = rng.randint(2, 4)
            gens = list(
                {
                    tuple(rng.randint(0, 4) for _ in range(dim))
                    for _ in range(rng.randint(dim, 6))
                }
            )
            gens = [g for g in gens if any(g)]
            norm = normalize_signatures(gens)
            _, reduced, _ = find_equalities(norm, dim) if norm else ((), (), None)
            if not norm or len(reduced[0] if reduced else ()) != dim:
                continue  # oracle needs full rank in the ambient space
            tried += 1
            extreme = remove_interior_generators(norm)
            facets = conic_hull_facets(extreme)
            assert _coeff_set(facets) == brute_force_facets(list(extreme), dim), gens

    def test_facet_tightness(self):
        # every facet is satisfied with equality by rank-1 independent generators
        rng = random.Random(31)
        for _ in range(40):
            dim = rng.randint(2, 4)
            gens = list(
                {
                    tuple(rng.randint(0, 4) for _ in range(dim))
                    for _ in range(rng.randint(dim, 6))
                }
            )
            gens = [g for g in gens if any(g)]
            if not gens:
                continue
            norm = normalize_signatures(gens)
            _, reduced, pivots = find_equalities(norm, dim)
            rank = len(pivots)
            if rank < 1:
                continue
            extreme = remove_interior_generators(reduced)
            for facet in conic_hull_facets(extreme):
                tight = [
                    g
                    for g in reduced
                    if sum(a * x for a, x in zip(facet.coefficients, g)) == 0
                ]
                assert _rank(tight) >= rank - 1 if tight else rank == 1


# -- full deduction -----------------------------------------------------------


class TestDeduction:
    def test_walk_before_lookup_model(self, bundled):
        model = dsl.parse_file(bundled("walk_init_first.mudd"))
        cs = deduce_constraints(model)
        displays = [c.display(model.namespace) for c in cs.inequalities]
        assert "load.pde$_miss ≤ load.causes_walk" in displays

    def test_refined_model_drops_the_bound(self, bundled):
        model = dsl.parse_file(bundled("pde_lookup_first.mudd"))
        cs = deduce_constraints(model)
        displays = [c.display(model.namespace) for c in cs.inequalities]
        assert "load.pde$_miss ≤ load.causes_walk" not in displays
        assert cs.equalities == ()

    def test_all_zero_model_pins_counters(self):
        model = dsl.parse("action nothing;", CounterNamespace(["a", "b"]))
        cs = deduce_constraints(model)
        assert {c.coefficients for c in cs.equalities} == {(1, 0), (0, 1)}
        assert cs.inequalities == ()

    def test_duality_on_random_cones(self):
        # membership LP and deduced constraints are dual routes to one answer
        rng = random.Random(77)
        ns_cache = {}
        for _ in range(200):
            dim = rng.randint(1, 4)
            ns = ns_cache.setdefault(
                dim, CounterNamespace([f"c{i}" for i in range(dim)])
            )
            gens = [
                tuple(rng.randint(0, 5) for _ in range(dim))
                for _ in range(rng.randint(1, 6))
            ]
            cs = constraints_from_signatures(gens, ns)
            nonzero = [g for g in gens if any(g)]
            for _ in range(10):
                if rng.random() < 0.5 and nonzero:
                    weights = [Fraction(rng.randint(0, 3), rng.randint(1, 2)) for _ in nonzero]
                    point = tuple(
                        sum((w * g[i] for w, g in zip(weights, nonzero)), Fraction(0))
                        for i in range(dim)
                    )
                else:
                    point = tuple(
                        Fraction(rng.randint(-3, 6), rng.randint(1, 3))
                        for _ in range(dim)
                    )
                assert cone_membership(gens, point) == cs.satisfied_by(point)

    def test_block_decomposition_matches_joint_answer(self):
        # two decoupled counter groups: facets are the union of block facets
        ns = CounterNamespace(["a1", "a2", "b1", "b2"])
        gens = [
            (1, 0, 0, 0),
            (1, 1, 0, 0),
            (0, 0, 1, 0),
            (0, 0, 2, 1),
        ]
        cs = constraints_from_signatures(gens, ns)
        assert _coeff_set(cs.inequalities) == {
            (0, 1, 0, 0),
            (1, -1, 0, 0),
            (0, 0, 0, 1),
            (0, 0, 1, -2),
        }
        rng = random.Random(3)
        for _ in range(50):
            p = tuple(Fraction(rng.randint(-2, 4), rng.randint(1, 2)) for _ in range(4))
            assert cone_membership(gens, p) == cs.satisfied_by(p)


class TestDisplay:
    def test_inequality_moves_negatives_left(self):
        ns = CounterNamespace(["x", "y"])
        c = Constraint(kind="inequality", coefficients=(1, -2))
        assert c.display(ns) == "2*y ≤ x"

    def test_nonnegativity_reads_zero_leq(self):
        ns = CounterNamespace(["x"])
        c = Constraint(kind="inequality", coefficients=(1,))
        assert c.display(ns) == "0 ≤ x"

    def test_equality_reads_sum_decomposition(self):
        ns = CounterNamespace(["total", "a", "b"])
        c = Constraint(kind="equality", coefficients=(1, -1, -1))
        assert c.display(ns) == "total = a + b"

    def test_json_round_trip_shape(self, tmp_path, capsys):
        # `mudd constraints --format json`: signatures (1, 0) and (1, 1)
        import json

        from mudd.cli import main

        model = tmp_path / "m.mudd"
        model.write_text("counter x; switch (P) { case a: case b: counter y; }")
        assert main(["constraints", str(model), "--format", "json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob == [
            {"kind": "inequality", "coefficients": {"y": 1}, "display": "0 ≤ y",
             "provenance": "conic-hull"},
            {"kind": "inequality", "coefficients": {"x": 1, "y": -1}, "display": "y ≤ x",
             "provenance": "conic-hull"},
        ]
