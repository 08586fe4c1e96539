import json
import random
from fractions import Fraction

import pytest

from mudd import dsl, exact, hull, linprog
from mudd.errors import MuddError
from mudd.exploration import ModelCatalog, ModelEntry, load_catalog
from mudd.feasibility import (
    FeasibilityVerdict,
    _Signatures,
    attribute_violations,
    batch_check,
    check_feasibility,
    refinement_candidates,
)
from mudd.geometry import (
    Constraint,
    ConstraintSet,
    cone_membership,
    conic_hull_facets,
    constraints_from_signatures,
    deduce_constraints,
    find_equalities,
    normalize_signatures,
    remove_interior_generators,
)
from mudd.model import CounterNamespace, MuDD, Node
from mudd.stats import ConfidenceRegion, ObservationSet


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
        out = normalize_signatures([[4, True]])
        assert out == ((4, 1),)
        assert all(type(c) is int for c in out[0])
        with pytest.raises(TypeError):
            normalize_signatures([[4.0, 2]])


# every function that takes signatures converts an entry as the hull does, by
# operator.index: an integer type converts, anything else raises TypeError

class _Two:
    """An integer that is not an int, as a numpy integer is: it has only
    `__index__`."""

    def __index__(self):
        return 2


SIGNATURE_USERS = {
    "normalize_signatures": lambda x: normalize_signatures([(x, 1), (0, 1)]),
    "find_equalities": lambda x: find_equalities([(x, 1), (0, 1)], 2),
    "conic_hull_facets": lambda x: conic_hull_facets([(x, 1), (0, 1)]),
    "remove_interior_generators": lambda x: remove_interior_generators([(x, 1), (0, 1)]),
    "cone_membership": lambda x: cone_membership([(x, 1), (0, 1)], (1, 1)),
    "constraints_from_signatures":
        lambda x: constraints_from_signatures([(x, 1), (0, 1)], CounterNamespace(["a", "b"])),
    "convex_hull_hyperplanes": lambda x: hull.convex_hull_hyperplanes([(x, 1), (0, 1)]),
}


_NON_INTEGERS = (2.0, 2.5, float("inf"), float("nan"), Fraction(2), "3")


@pytest.mark.parametrize("use", SIGNATURE_USERS.values(), ids=SIGNATURE_USERS)
def test_non_integer_signature_entry_raises_type_error(use):
    for bad in _NON_INTEGERS:
        with pytest.raises(TypeError):
            use(bad)


@pytest.mark.parametrize("use", SIGNATURE_USERS.values(), ids=SIGNATURE_USERS)
def test_integer_signature_entry_gives_the_int_result(use):
    # the reprs match too, so no bool or `_Two` survives into the result
    assert repr(use(True)) == repr(use(1))
    assert repr(use(_Two())) == repr(use(2))


# a constraint's coefficients and a term's weight are converted as a
# signature's entries are, and so are the integer rows of `exact.rref`: no
# float reaches an exact decision

_AB = CounterNamespace(["a", "b"])
_REGION = ConfidenceRegion((5.0, 2.0), ((1.0, 0.0), (0.0, 1.0)), (1.0, 1.0))


def _facet(v):
    return ConstraintSet((), (Constraint("inequality", v),), _AB, (0, 1))


def _pinned(x):
    # v0 = 0, written x*v0 = 0, and v1 >= 0: the cone of the signature (0, 1),
    # whose equality the box of _REGION, at v0 = 5 -+ 1, misses for any x > 0
    return ConstraintSet((Constraint("equality", (x, 0)),), (Constraint("inequality", (0, 1)),),
                         _AB, (1,))


COEFFICIENT_USERS = {
    "Constraint": lambda x: Constraint("inequality", (x, -1)),
    "Constraint-terms": lambda x: Constraint("inequality", (1, -1), "farkas",
                                             ((x, Constraint("inequality", (1, -1))),)),
    "ConfidenceRegion.misses": lambda x: _REGION.misses((x, -10)),
    "attribute_violations": lambda x: attribute_violations(_pinned(x), _REGION),
    "check_feasibility": lambda x: check_feasibility([(0, 1)], _REGION, constraints=_pinned(x)),
    "refinement_candidates": lambda x: refinement_candidates(
        Constraint("inequality", (x, -1)),
        dsl.parse("switch (P) { case x: counter a; case y: counter b; }")),
    "exact.rref": lambda x: exact.rref([(x, 1), (0, 1)]),
    "exact.null_space": lambda x: exact.null_space([(x, 1)], 2),
}


@pytest.mark.parametrize("use", COEFFICIENT_USERS.values(), ids=COEFFICIENT_USERS)
def test_non_integer_coefficient_raises_type_error(use):
    for bad in _NON_INTEGERS:
        with pytest.raises(TypeError):
            use(bad)


@pytest.mark.parametrize("use", COEFFICIENT_USERS.values(), ids=COEFFICIENT_USERS)
def test_integer_coefficient_gives_the_int_result(use):
    assert repr(use(True)) == repr(use(1))
    assert repr(use(_Two())) == repr(use(2))


def test_float_constraint_is_not_decided_in_floats():
    # at the point (1, 1, 1) the integer vector's value is exactly -1, which
    # the float vector's rounded sum loses
    point = ConfidenceRegion((1.0, 1.0, 1.0), ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                               (0.0, 0.0, 1.0)), (0.0, 0.0, 0.0))
    assert point.misses((10**16, -1, -10**16))
    with pytest.raises(TypeError):
        point.misses((1e16, -1.0, -1e16))


def test_constraint_terms_are_kept_as_pairs():
    facet = Constraint("inequality", (1, -1))
    combined = Constraint("inequality", (2, -2), "farkas", terms=[[2, facet]])
    assert combined.terms == ((2, facet),)


# every function that takes vectors from a caller refuses one of another
# length with the one message of `exact.check_length`, rather than zipping
# it down to the shorter length: each use below takes the odd vector where
# 2 entries are expected, after a first vector of 2 where there is one

LENGTH_USERS = {
    "normalize_signatures": ("signature", lambda v: normalize_signatures([(1, 0), v])),
    "find_equalities": ("generator", lambda v: find_equalities([(1, 0), v], 2)),
    "cone_membership-generator":
        ("generator", lambda v: cone_membership([(1, 0), v], (1, 1))),
    "cone_membership-point": ("point", lambda v: cone_membership([(1, 0), (0, 1)], v)),
    "remove_interior_generators":
        ("generator", lambda v: remove_interior_generators([(1, 0), v])),
    "conic_hull_facets": ("generator", lambda v: conic_hull_facets([(1, 0), v])),
    "constraints_from_signatures":
        ("signature", lambda v: constraints_from_signatures([(1, 0), v], _AB)),
    # after a full seed, as the hull's later rays come
    "convex_hull_hyperplanes":
        ("ray", lambda v: hull.convex_hull_hyperplanes([(1, 0), (0, 1), v])),
    "Constraint.satisfied_by":
        ("point", lambda v: Constraint("inequality", (1, -1)).satisfied_by(v)),
    "Constraint.display": ("constraint", lambda v: Constraint("inequality", v).display(_AB)),
    "exact.rref": ("row", lambda v: exact.rref([(1, 0), v])),
    "exact.null_space": ("row", lambda v: exact.null_space([(1, 0), v], 2)),
    "_Signatures.of": ("signature", lambda v: _Signatures.of([(1, 0), v], 2)),
    "check_feasibility": ("signature", lambda v: check_feasibility([(1, 0), v], _REGION)),
    "attribute_violations": ("constraint", lambda v: attribute_violations(_facet(v), _REGION)),
    "refinement_candidates": ("constraint", lambda v: refinement_candidates(
        Constraint("inequality", v), dsl.parse("counter a; counter b;"))),
    "ConfidenceRegion.contains": ("point", lambda v: _REGION.contains(v)),
    "ConfidenceRegion.misses": ("constraint", lambda v: _REGION.misses(v)),
    "ConfidenceRegion.corrected_centre":
        ("hyperplane", lambda v: _REGION.corrected_centre([v])),
    "ConfidenceRegion.box_lp": ("signature", lambda v: _REGION.box_lp([(1, 0), v])),
}


@pytest.mark.parametrize("what, use", LENGTH_USERS.values(), ids=LENGTH_USERS)
@pytest.mark.parametrize("odd", [(-1,), (1, 0, 7)], ids=["short", "long"])
def test_vector_of_another_length_raises_one_message(what, use, odd):
    with pytest.raises(MuddError) as exc:
        use(odd)
    assert str(exc.value) == f"{what} has {len(odd)} entries, expected 2"


# every refusal of a caller's data is one MuddError with one message, not a
# ValueError or a crash further down; a signature's sign is checked by
# `check_non_negative` alone, whichever entry point takes it

_EYE = ((1.0, 0.0), (0.0, 1.0))
_INF = float("inf")
_CATALOG = ModelCatalog([ModelEntry("a", ["f"], 0)])


def _diagram(edge):
    return MuDD((Node(0, "done"),), (), (edge,), 0, CounterNamespace([]))


REFUSALS = {
    "ObservationSet-flat": ("sample matrix must be two-dimensional",
                            lambda: ObservationSet("r", [1.0, 2.0], _AB)),
    "ObservationSet-width": ("run 'r' sample has 3 entries, expected 2",
                             lambda: ObservationSet("r", [(1.0, 2.0, 3.0), (1.0, 2.0)], _AB)),
    "ObservationSet-non-finite": ("run 'r' contains non-finite counter values",
                                  lambda: ObservationSet("r", [(1.0, _INF), (1.0, 2.0)], _AB)),
    "ObservationSet-negative": ("run 'r' contains negative counter values",
                                lambda: ObservationSet("r", [(1.0, -2.0), (1.0, 2.0)], _AB)),
    "ConfidenceRegion-axes": ("axes has 1 entries, expected 2",
                              lambda: ConfidenceRegion((0.0, 0.0), _EYE[:1], (1.0, 1.0))),
    "ConfidenceRegion-half-lengths": ("half-lengths has 3 entries, expected 2",
                                      lambda: ConfidenceRegion((0.0, 0.0), _EYE, (1.0,) * 3)),
    "ConfidenceRegion-axis": ("axis has 1 entries, expected 2",
                              lambda: ConfidenceRegion((0.0, 0.0), ((1.0, 0.0), (0.0,)),
                                                       (1.0, 1.0))),
    "ConfidenceRegion-non-finite": ("region has non-finite entries",
                                    lambda: ConfidenceRegion((0.0, _INF), _EYE, (1.0, 1.0))),
    "ConfidenceRegion-negative": ("region has a negative half-length",
                                  lambda: ConfidenceRegion((0.0, 0.0), _EYE, (1.0, -1.0))),
    "solve_equality_form-b": ("b has 2 entries, expected 1",
                              lambda: linprog.solve_equality_form([[1, 2]], [1, 2], 2)),
    "solve_equality_form-row": ("row of A has 2 entries, expected 3",
                                lambda: linprog.solve_equality_form([[1, 2]], [1], 3)),
    "feasible_point-b": ("b has 2 entries, expected 1",
                         lambda: linprog.feasible_point(2, [[1, 2]], [1, 2])),
    "feasible_point-row": ("row of A has 3 entries, expected 2",
                           lambda: linprog.feasible_point(2, [[1, 2, 3]], [1])),
    "Constraint-kind": ("constraint kind 'bogus' is not 'equality' or 'inequality'",
                        lambda: Constraint("bogus", (1, -1))),
    "Constraint-term": ("constraint term (1,) is not a (weight, constraint) pair",
                        lambda: Constraint("inequality", (1, -1), terms=((1,),))),
    "refinement_candidates": ("refinement candidates apply to inequality constraints",
                              lambda: refinement_candidates(Constraint("equality", (1, -1)),
                                                            dsl.parse("counter a; counter b;"))),
    "normalize_signatures": ("signatures must be non-negative",
                             lambda: normalize_signatures([(1, -1)])),
    "constraints_from_signatures-one": ("signatures must be non-negative",
                                        lambda: constraints_from_signatures([(1, -1)], _AB)),
    "constraints_from_signatures-two":
        ("signatures must be non-negative",
         lambda: constraints_from_signatures([(1, -1), (0, 1)], _AB)),
    "conic_hull_facets-negative": ("signatures must be non-negative",
                                   lambda: conic_hull_facets([(1, -1), (0, 1)])),
    "conic_hull_facets-zero": ("signature generators must be nonzero",
                               lambda: conic_hull_facets([(0, 0), (1, 0)])),
    "_Signatures.of": ("signatures must be non-negative",
                       lambda: _Signatures.of([(1, 0), (1, -1)], 2)),
    "check_feasibility": ("signatures must be non-negative",
                          lambda: check_feasibility([(1, 0), (1, -1)], _REGION)),
    "ConstraintSet-outside": ("pivot columns (0, 5) are not increasing indices below 2",
                              lambda: check_feasibility([(1, 0), (0, 1)], _REGION,
                                                        constraints=ConstraintSet((), (), _AB,
                                                                                  (0, 5)))),
    "ConstraintSet-negative": ("pivot columns (-1,) are not increasing indices below 2",
                               lambda: ConstraintSet((), (), _AB, (-1,))),
    "ConstraintSet-unordered": ("pivot columns (1, 0) are not increasing indices below 2",
                                lambda: ConstraintSet((), (), _AB, (1, 0))),
    "ConstraintSet-repeated": ("pivot columns (1, 1) are not increasing indices below 2",
                               lambda: ConstraintSet((), (), _AB, (1, 1))),
    "check_feasibility-namespace":
        ("constraint namespace has 3 entries, expected 2",
         lambda: check_feasibility([(1, 0), (0, 1)], _REGION, constraints=ConstraintSet(
             (), (), CounterNamespace(["a", "b", "c"]), (0, 2)))),
    "MuDD-happens-before-short": ("happens-before edge (0,) is not a (src, dst) pair",
                                  lambda: _diagram((0,))),
    "MuDD-happens-before-long": ("happens-before edge (0, 0, 0) is not a (src, dst) pair",
                                 lambda: _diagram((0, 0, 0))),
    "CounterNamespace-string": ("counter names must be a sequence, not the string 'ab'",
                                lambda: CounterNamespace("ab")),
    "ModelEntry-features": ("entry 'a': duplicate feature 'X'",
                            lambda: ModelEntry("a", ["X", "X"], 0)),
    "ModelCatalog-feature-order-string":
        ("features must be a sequence, not the string 'fg'",
         lambda: ModelCatalog(_CATALOG.entries, "", "fg")),
    "ModelCatalog-feature-order": ("duplicate feature 'X'",
                                   lambda: ModelCatalog(_CATALOG.entries, "", ("X", "X"))),
    "batch_check-jobs-zero": ("jobs must be at least 1", lambda: batch_check([], [], jobs=0)),
    "batch_check-jobs-negative": ("jobs must be at least 1",
                                  lambda: batch_check([], [], jobs=-3)),
}


@pytest.mark.parametrize("message, use", REFUSALS.values(), ids=REFUSALS)
def test_bad_data_raises_one_mudd_error(message, use):
    with pytest.raises(MuddError) as exc:
        use()
    assert str(exc.value) == message


# a list of names is checked by `model.distinct_names` alone, wherever it is
# given: one string, a name that is not a string and a name given twice are
# each one exception with one message; a catalog file's message names the
# file and the key, and a JSON list is checked to be a list first

def _load(directory, blob):
    path = directory / "c.json"
    path.write_text(json.dumps(blob))
    return load_catalog(path)


def _load_entry(directory, features):
    return _load(directory, {"entries": [{"name": "e", "features": features,
                                          "infeasible_count": 0}]})


NAME_REFUSALS = {
    "CounterNamespace-string": (MuddError, "counter names must be a sequence, not the string 'ab'",
                                lambda _: CounterNamespace("ab")),
    "CounterNamespace-non-string": (TypeError, "counter name 1 is not a string",
                                    lambda _: CounterNamespace(["a", 1])),
    "CounterNamespace-repeat": (MuddError, "duplicate counter name 'a'",
                                lambda _: CounterNamespace(["a", "a"])),
    "ModelCatalog-feature-order-string":
        (MuddError, "features must be a sequence, not the string 'ab'",
         lambda _: ModelCatalog((), "", "ab")),
    "ModelCatalog-feature-order-non-string": (TypeError, "feature 1 is not a string",
                                              lambda _: ModelCatalog((), "", ["a", 1])),
    "ModelCatalog-feature-order-repeat": (MuddError, "duplicate feature 'a'",
                                          lambda _: ModelCatalog((), "", ["a", "a"])),
    # an entry's name is its own: a string of entries is refused entry by entry
    "ModelCatalog-entries-string": (TypeError, "catalog entry 'a' is not a ModelEntry",
                                    lambda _: ModelCatalog("ab")),
    "ModelCatalog-entry-name-non-string": (TypeError, "entry name 5 is not a string",
                                           lambda _: ModelCatalog([ModelEntry(5, [], 0)])),
    "ModelCatalog-entry-name-repeat": (MuddError, "duplicate entry name 'a'",
                                       lambda _: ModelCatalog([ModelEntry("a", [], 0)] * 2)),
    "ModelEntry-features-string":
        (MuddError, "entry 'e': features must be a sequence, not the string 'ab'",
         lambda _: ModelEntry("e", "ab", 0)),
    "ModelEntry-features-non-string": (TypeError, "entry 'e': feature 1 is not a string",
                                       lambda _: ModelEntry("e", ["a", 1], 0)),
    "ModelEntry-features-repeat": (MuddError, "entry 'e': duplicate feature 'a'",
                                   lambda _: ModelEntry("e", ["a", "a"], 0)),
    "load_catalog-namespace-string":
        (MuddError, "catalog {catalog}: 'namespace' must be a list of strings, got 'ab'",
         lambda d: _load(d, {"namespace": "ab", "entries": []})),
    "load_catalog-namespace-non-string":
        (MuddError, "catalog {catalog}: 'namespace': counter name 1 is not a string",
         lambda d: _load(d, {"namespace": ["a", 1], "entries": []})),
    "load_catalog-namespace-repeat":
        (MuddError, "catalog {catalog}: 'namespace': duplicate counter name 'a'",
         lambda d: _load(d, {"namespace": ["a", "a"], "entries": []})),
    "load_catalog-features-string":
        (MuddError, "catalog {catalog}: 'features' must be a list of strings, got 'ab'",
         lambda d: _load(d, {"features": "ab", "entries": []})),
    "load_catalog-features-non-string":
        (MuddError, "catalog {catalog}: 'features': feature 1 is not a string",
         lambda d: _load(d, {"features": ["a", 1], "entries": []})),
    "load_catalog-features-repeat":
        (MuddError, "catalog {catalog}: 'features': duplicate feature 'a'",
         lambda d: _load(d, {"features": ["a", "a"], "entries": []})),
    "load_catalog-entry-features-string":
        (MuddError, "catalog {catalog}: entry 'e': 'features' must be a list of strings, got 'ab'",
         lambda d: _load_entry(d, "ab")),
    "load_catalog-entry-features-non-string":
        (MuddError, "catalog {catalog}: entry 'e': 'features': feature 1 is not a string",
         lambda d: _load_entry(d, ["a", 1])),
    "load_catalog-entry-features-repeat":
        (MuddError, "catalog {catalog}: entry 'e': 'features': duplicate feature 'a'",
         lambda d: _load_entry(d, ["a", "a"])),
}


@pytest.mark.parametrize("error, message, use", NAME_REFUSALS.values(), ids=NAME_REFUSALS)
def test_bad_list_of_names_raises_one_message(tmp_path, error, message, use):
    with pytest.raises(error) as exc:
        use(tmp_path)
    assert type(exc.value) is error
    assert str(exc.value) == message.format(catalog=tmp_path / "c.json")


# a verdict is mudd's own result: one that contradicts itself failed mudd's
# check, as a witness or a Farkas vector can, and raises ArithmeticError

@pytest.mark.parametrize("verdict", [
    lambda: FeasibilityVerdict(False),
    lambda: FeasibilityVerdict(True, violated_constraints=(Constraint("inequality", (1, -1)),)),
], ids=["infeasible-without-reason", "feasible-with-reason"])
def test_contradictory_verdict_raises_arithmetic_error(verdict):
    with pytest.raises(ArithmeticError) as exc:
        verdict()
    assert str(exc.value) == "a verdict is feasible exactly when it names no violated constraint"


# a value of the wrong type is one TypeError with one message; a JSON
# catalog's and the command line's values are refused before they get here

TYPE_REFUSALS = {
    "ModelCatalog-entry": ("catalog entry 'x' is not a ModelEntry", lambda: ModelCatalog(["x"])),
    "ModelEntry-name": ("entry name 5 is not a string", lambda: ModelEntry(5, [], 0)),
    "ModelEntry-model": ("entry 'a' has model 'x', not a MuDD",
                         lambda: ModelEntry("a", [], 0, model="x")),
    "CounterNamespace-name": ("counter name 1 is not a string",
                              lambda: CounterNamespace([1, 2])),
    "ModelEntry-count-float": ("entry 'a' has infeasible count 1.5, not an int",
                               lambda: ModelEntry("a", [], 1.5)),
    "ModelEntry-count-bool": ("entry 'a' has infeasible count True, not an int",
                              lambda: ModelEntry("a", [], True)),
    "ModelCatalog-feature-name": ("feature 1 is not a string",
                                  lambda: ModelCatalog(_CATALOG.entries, "", (1, 2))),
    "Constraint-term": ("constraint term 'x' is not a Constraint",
                        lambda: Constraint("inequality", (1, -1), terms=((1, "x"),))),
    "ModelCatalog-dataset-id": ("dataset id 3 is not a string",
                                lambda: ModelCatalog(_CATALOG.entries, 3)),
    "batch_check-jobs": ("'float' object cannot be interpreted as an integer",
                         lambda: batch_check([], [], jobs=2.5)),
}


@pytest.mark.parametrize("message, use", TYPE_REFUSALS.values(), ids=TYPE_REFUSALS)
def test_value_of_another_type_raises_one_type_error(message, use):
    with pytest.raises(TypeError) as exc:
        use()
    assert str(exc.value) == message


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

    def test_generator_of_another_length(self):
        with pytest.raises(MuddError, match="^generator has 3 entries, expected 2$"):
            find_equalities([(1, 0), (1, 0, 0)], 2)

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
        with pytest.raises(MuddError, match="^point has 3 entries, expected 2$"):
            cone_membership([(1, 0)], (1, 0, 0))

    @pytest.mark.parametrize("point", [(1,), (1, 0, 0)])
    def test_constraint_refuses_a_point_of_another_length(self, point):
        # not zipped down to the shorter of the two
        c = Constraint(kind="inequality", coefficients=(1, -1))
        with pytest.raises(MuddError,
                           match=f"^point has {len(point)} entries, expected 2$"):
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

    @pytest.mark.parametrize("gens, message", [
        ([(1, -1), (0, 1)], "signatures must be non-negative"),
        ([(0, 0), (1, 0)], "signature generators must be nonzero"),
    ], ids=["negative", "zero"])
    def test_refuses_a_negative_or_zero_generator(self, gens, message):
        # the kernel hulls pointed cones; either generator breaks that
        with pytest.raises(MuddError) as exc:
            conic_hull_facets(gens)
        assert str(exc.value) == message

    def test_facet_off_a_generator_is_the_kernels_fault(self, monkeypatch):
        # no caller's data gets past the checks above to here: a facet the
        # exact check refuses is mudd's own result failing
        monkeypatch.setattr(hull, "convex_hull_hyperplanes", lambda rays: [(1, -1)])
        with pytest.raises(ArithmeticError) as exc:
            conic_hull_facets([(1, 0), (0, 1)])
        assert str(exc.value) == "facet (1, -1) is not one-sided on the generators"

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
