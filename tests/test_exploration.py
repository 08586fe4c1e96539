import json
import random

import pytest

from mudd import dsl, linprog
from mudd.errors import CatalogError, DimensionMismatch, NoFeasibleModel
from mudd.exploration import (
    ModelCatalog,
    ModelEntry,
    classify,
    cone_expansion_check,
    expansion_results,
    load_catalog,
    minimal_feasible,
    render_search_report,
    report_json,
    required_features,
)
from mudd.geometry import cone_membership, normalize_signatures
from mudd.model import CounterNamespace, signatures_of_model


def entry(name, features, count, parent=None):
    return ModelEntry(
        name=name, features=frozenset(features), infeasible_count=count, parent=parent
    )


def catalog(*entries, features=()):
    return ModelCatalog(
        entries={e.name: e for e in entries}, feature_order=tuple(features)
    )


class TestClassify:
    def test_partition(self):
        cat = catalog(entry("a", ["f"], 0), entry("b", [], 3), entry("c", ["f"], 0))
        feasible, infeasible = classify(cat)
        assert feasible == {"a", "c"}
        assert infeasible == {"b"}
        assert feasible | infeasible == set(cat.entries)
        assert not feasible & infeasible

    def test_all_positive_counts(self):
        cat = catalog(entry("a", [], 1), entry("b", [], 2))
        feasible, infeasible = classify(cat)
        assert feasible == frozenset()
        assert infeasible == {"a", "b"}

    def test_empty_catalog(self):
        feasible, infeasible = classify(catalog())
        assert feasible == frozenset() and infeasible == frozenset()


class TestRequiredFeatures:
    def test_intersection(self):
        cat = catalog(
            entry("a", ["x", "y", "z"], 0),
            entry("b", ["x", "z"], 0),
            entry("c", ["y", "q"], 4),
        )
        assert required_features(cat) == {"x", "z"}

    def test_single_feasible_keeps_everything(self):
        cat = catalog(entry("a", ["x", "y"], 0), entry("b", ["x"], 2))
        assert required_features(cat) == {"x", "y"}

    def test_disjoint_features_empty(self):
        cat = catalog(entry("a", ["x"], 0), entry("b", ["y"], 0))
        assert required_features(cat) == frozenset()

    def test_no_feasible_model(self):
        with pytest.raises(NoFeasibleModel):
            required_features(catalog(entry("a", ["x"], 1)))

    def test_antitone_under_new_feasible_entries(self):
        base = [entry("a", ["x", "y"], 0)]
        before = required_features(catalog(*base))
        after = required_features(catalog(*base, entry("b", ["x"], 0)))
        assert after <= before


class TestMinimalFeasible:
    def test_inclusion_minimal_only(self):
        cat = catalog(
            entry("big", ["x", "y", "z"], 0),
            entry("small", ["x", "y"], 0),
            entry("other", ["q"], 0),
        )
        assert minimal_feasible(cat) == {"small", "other"}


class TestConeExpansion:
    def test_added_path_expands(self, bundled):
        ns = CounterNamespace(["load.causes_walk", "load.pde$_miss"])
        parent = dsl.parse_file(bundled("walk_init_first.mudd"), ns)
        child = dsl.parse_file(bundled("pde_lookup_first.mudd"), ns)
        assert cone_expansion_check(parent, child)
        assert not cone_expansion_check(child, parent)

    def test_reflexive(self, bundled):
        model = dsl.parse_file(bundled("walk_init_first.mudd"))
        assert cone_expansion_check(model, model)

    def test_missing_direction_fails(self):
        ns = CounterNamespace(["a", "b"])
        parent = dsl.parse("switch (P) { case x: counter a; case y: counter b; }", ns)
        child = dsl.parse("counter a;", ns)
        assert not cone_expansion_check(parent, child)

    def test_namespace_mismatch(self):
        parent = dsl.parse("counter a;")
        child = dsl.parse("counter b;")
        with pytest.raises(DimensionMismatch):
            cone_expansion_check(parent, child)

    def test_transitive_along_chain(self, bundled):
        cat = load_catalog(bundled("catalog", "search_catalog.json"))
        chain = ["m0", "m1", "m2", "m3", "m4"]
        for a, b in zip(chain, chain[1:]):
            assert cone_expansion_check(cat.entries[a].model, cat.entries[b].model)
        assert cone_expansion_check(cat.entries["m0"].model, cat.entries["m4"].model)


def product(ns, blocks):
    """One switch per block; each case emits its tuple of counters."""
    lines = []
    for i, cases in enumerate(blocks):
        lines.append(f"switch (B{i}) {{")
        for j, counters in enumerate(cases):
            lines.append(f"case c{j}: " + " ".join(f"counter {c};" for c in counters))
        lines.append("}")
    return dsl.parse("\n".join(lines), ns)


def _mutated(rng, names, blocks):
    """`blocks` after one or two relaxations, prunings or extra counters."""
    blocks = [list(cases) for cases in blocks]
    for _ in range(rng.randint(1, 2)):
        cases = rng.choice(blocks)
        op = rng.choice(["add", "drop", "split", "every"])
        if op == "add":
            cases.append(tuple(rng.sample(names, rng.randint(1, 2))))
        elif op == "drop" and len(cases) > 1:
            cases.pop(rng.randrange(len(cases)))
        elif op == "split":
            k = rng.randrange(len(cases))
            cases[k:k + 1] = [(c,) for c in cases[k]]
        elif op == "every":
            blocks.append([(rng.choice(names),)])
    return blocks


class TestSharedGenerators:
    @pytest.fixture
    def no_lp(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a membership LP ran")
        monkeypatch.setattr(linprog, "solve_equality_form", refuse)

    @pytest.fixture
    def lp_calls(self, monkeypatch):
        calls = []
        solve = linprog.solve_equality_form

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)
        monkeypatch.setattr(linprog, "solve_equality_form", counted)
        return calls

    def test_bundled_edges_run_no_lp(self, bundled, no_lp):
        cat = load_catalog(bundled("catalog", "search_catalog.json"))
        expansion = expansion_results(cat)
        assert expansion and all(item["expanded"] for item in expansion)

    def test_grown_product_runs_no_lp(self, no_lp):
        ns = CounterNamespace(["a0", "a1", "a2", "b0", "b1"])
        parent = product(ns, [[("a0",), ("a1",)], [("b0",), ("b1",)]])
        child = product(ns, [[("a0",), ("a1",), ("a2",)], [("b0",), ("b1",)]])
        assert cone_expansion_check(parent, child)

    def test_split_path_needs_one_lp(self, lp_calls):
        # parent signature (1,1) is not a child generator, but (1,0) + (0,1)
        ns = CounterNamespace(["a", "b"])
        parent = dsl.parse("counter a; counter b;", ns)
        child = dsl.parse("switch (P) { case x: counter a; case y: counter b; }", ns)
        assert cone_expansion_check(parent, child)
        assert len(lp_calls) == 1

    def test_shrink_edge_does_not_expand(self, lp_calls):
        ns = CounterNamespace(["a0", "a1", "a2", "b0", "b1"])
        root = product(ns, [[("a0",), ("a1",), ("a2",)], [("b0",), ("b1",)]])
        shrink = product(ns, [[("a0",), ("a1",)], [("b0",), ("b1",)]])
        cat = ModelCatalog(entries={
            "root": ModelEntry("root", frozenset(), 0, model=root),
            "shrink": ModelEntry("shrink", frozenset(), 0, model=shrink,
                                 parent=("root", "relaxation")),
        })
        text = render_search_report(cat, expansion_results(cat))
        assert "relaxation root -> shrink: DOES NOT EXPAND" in text
        assert len(lp_calls) == 1

    def test_matches_membership_of_every_parent_generator(self):
        names = [f"k{i}" for i in range(5)]
        ns = CounterNamespace(names)
        outcomes = set()
        for seed in range(60):
            rng = random.Random(seed)
            blocks = [
                [tuple(rng.sample(names, rng.randint(1, 2)))
                 for _ in range(rng.randint(1, 3))]
                for _ in range(rng.randint(1, 3))
            ]
            parent = product(ns, blocks)
            child = product(ns, _mutated(rng, names, blocks))
            child_gens = normalize_signatures(signatures_of_model(child))
            expected = all(
                cone_membership(child_gens, gen.counts)
                for gen in normalize_signatures(signatures_of_model(parent))
            )
            assert cone_expansion_check(parent, child) == expected, seed
            outcomes.add(expected)
        assert outcomes == {True, False}


class TestCatalogFile:
    def test_bundled_catalog_loads(self, bundled):
        cat = load_catalog(bundled("catalog", "search_catalog.json"))
        assert set(cat.entries) == {f"m{i}" for i in range(12)}
        assert cat.entries["m4"].model is not None

    def test_broken_parent_reference(self, tmp_path):
        blob = {
            "entries": [
                {"name": "a", "features": [], "infeasible_count": 0,
                 "parent": {"name": "ghost", "kind": "pruning"}}
            ]
        }
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(blob))
        with pytest.raises(CatalogError):
            load_catalog(path)

    def test_broken_model_reference(self, tmp_path):
        blob = {
            "entries": [
                {"name": "a", "features": [], "infeasible_count": 0,
                 "model": "missing.mudd"}
            ]
        }
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(blob))
        with pytest.raises(CatalogError):
            load_catalog(path)

    def test_malformed_entry(self, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"entries": [{"features": []}]}))
        with pytest.raises(CatalogError):
            load_catalog(path)


class TestReport:
    def test_bundled_report(self, bundled):
        cat = load_catalog(bundled("catalog", "search_catalog.json"))
        expansion = expansion_results(cat)
        text = render_search_report(cat, expansion)
        assert "feasible: m4, m8" in text
        assert "required features: EarlyPsc, Merging, TlbPf, WalkBypass" in text
        assert "* m8" in text
        assert all(item["expanded"] for item in expansion)

    def test_empty_catalog_report(self):
        text = render_search_report(catalog(features=["F"]))
        assert "feasible: (none)" in text

    def test_single_entry(self):
        text = render_search_report(catalog(entry("solo", ["F"], 0), features=["F"]))
        assert "solo" in text

    def test_json_report(self, bundled):
        cat = load_catalog(bundled("catalog", "search_catalog.json"))
        blob = json.loads(report_json(cat, expansion_results(cat)))
        assert blob["feasible"] == ["m4", "m8"]
        assert blob["required_features"] == ["EarlyPsc", "Merging", "TlbPf", "WalkBypass"]
