import json
import random

import pytest

from mudd import dsl, linprog
from mudd import model as model_module
from mudd.cli import main
from mudd.errors import MuddError
from mudd.exploration import (
    ModelCatalog,
    ModelEntry,
    classify,
    cone_expansion_check,
    expansion_results,
    load_catalog,
    minimal_feasible,
    required_features,
)
from mudd.geometry import cone_membership, normalize_signatures
from mudd.model import CounterNamespace, enumerate_mupaths


def entry(name, features, count, parent=None):
    return ModelEntry(name=name, features=features, infeasible_count=count, parent=parent)


def gens(model):
    return normalize_signatures(p.counts for p in enumerate_mupaths(model))


def catalog(*entries, features=()):
    return ModelCatalog(entries=entries, feature_order=tuple(features))


def names(cat):
    return {e.name for e in cat.entries}


def by_name(cat):
    return {e.name: e for e in cat.entries}


class TestModelEntry:
    def test_negative_infeasible_count(self):
        with pytest.raises(MuddError, match="^entry 'a' has a negative infeasible count$"):
            entry("a", [], -1)

    def test_unknown_edge_kind(self):
        with pytest.raises(MuddError, match="^entry 'a' has unknown edge kind 'mutation'$"):
            entry("a", [], 0, parent=("b", "mutation"))

    @pytest.mark.parametrize("parent", [("p",), ("p", "pruning", "x"), "pr"])
    def test_parent_not_a_pair(self, parent):
        # a string is not a pair of its letters, nor a tuple a pair of its first two
        with pytest.raises(MuddError) as exc:
            entry("a", [], 0, parent=parent)
        assert str(exc.value) == f"entry 'a' has parent {parent!r}, not a (name, kind) pair"

    def test_iterables_are_kept_as_values(self):
        e = entry("a", ["f", "g"], 0, parent=["p", "pruning"])
        assert e.features == frozenset({"f", "g"}) and e.parent == ("p", "pruning")

    def test_features_string(self):
        with pytest.raises(MuddError, match="^entry 'a' has features 'TlbPf', a string$"):
            entry("a", "TlbPf", 0)


class TestModelCatalog:
    def test_entries_are_one_tuple_in_order(self):
        cat = catalog(entry("b", [], 0), entry("a", [], 1, parent=("b", "pruning")))
        assert [e.name for e in cat.entries] == ["b", "a"]
        assert isinstance(cat.entries, tuple)
        assert hash(cat) == hash(catalog(*cat.entries))

    def test_feature_order_is_kept_as_a_tuple(self):
        cat = ModelCatalog([entry("a", ["f"], 0)], "", ["f", "g"])
        assert cat.feature_order == ("f", "g")
        assert hash(cat) == hash(ModelCatalog(cat.entries, "", ("f", "g")))

    def test_duplicate_names_are_refused(self):
        with pytest.raises(MuddError, match="^duplicate entry name 'a'$"):
            catalog(entry("a", [], 0), entry("b", [], 0), entry("a", ["f"], 1))

    def test_relaxation_between_different_namespaces(self):
        # each model infers its own order, so both signatures read (1, 2):
        # the parent's ray is a + 2b, which the child's ray 2a + b misses
        def entries(ns=None):
            return [ModelEntry("p", [], 1, model=dsl.parse("counter a; counter b; counter b;", ns)),
                    ModelEntry("c", [], 0, model=dsl.parse("counter b; counter a; counter a;", ns),
                               parent=("p", "relaxation"))]

        with pytest.raises(MuddError) as exc:
            ModelCatalog(entries())
        assert str(exc.value) == (
            "relaxation 'p' -> 'c': the two models infer different counter namespaces; "
            "parse both with one CounterNamespace, as a catalog file's 'namespace' key does")
        shared = ModelCatalog(entries(CounterNamespace(["a", "b"])))
        assert expansion_results(shared) == [{"parent": "p", "child": "c", "expanded": False}]


class TestClassify:
    def test_partition(self):
        cat = catalog(entry("a", ["f"], 0), entry("b", [], 3), entry("c", ["f"], 0))
        feasible, infeasible = classify(cat)
        assert feasible == {"a", "c"}
        assert infeasible == {"b"}
        assert feasible | infeasible == names(cat)
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
        assert required_features(catalog(entry("a", ["x"], 1))) is None

    def test_intersection_of_every_feasible_entry(self):
        # read through the inclusion-minimal entries, as the report lists them
        rng = random.Random(7)
        for _ in range(300):
            entries = [entry(f"e{i}", rng.sample("pqrstu", rng.randint(0, 4)), rng.randint(0, 1))
                       for i in range(rng.randint(1, 6))]
            feasible = [e.features for e in entries if e.infeasible_count == 0]
            expected = frozenset.intersection(*feasible) if feasible else None
            assert required_features(catalog(*entries)) == expected

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

    def test_no_feasible_model(self):
        assert minimal_feasible(catalog(entry("a", ["x"], 1))) == frozenset()


class TestConeExpansion:
    def test_added_path_expands(self, bundled):
        ns = CounterNamespace(["load.causes_walk", "load.pde$_miss"])
        parent = dsl.parse_file(bundled("walk_init_first.mudd"), ns)
        child = dsl.parse_file(bundled("pde_lookup_first.mudd"), ns)
        assert cone_expansion_check(gens(parent), gens(child))
        assert not cone_expansion_check(gens(child), gens(parent))

    def test_reflexive(self, bundled):
        model = dsl.parse_file(bundled("walk_init_first.mudd"))
        assert cone_expansion_check(gens(model), gens(model))

    def test_missing_direction_fails(self):
        ns = CounterNamespace(["a", "b"])
        parent = dsl.parse("switch (P) { case x: counter a; case y: counter b; }", ns)
        child = dsl.parse("counter a;", ns)
        assert not cone_expansion_check(gens(parent), gens(child))

    def test_transitive_along_chain(self, bundled):
        cat = load_catalog(bundled("catalog", "search_catalog.json"))
        entries = by_name(cat)
        chain = ["m0", "m1", "m2", "m3", "m4"]
        for a, b in zip(chain, chain[1:]):
            assert cone_expansion_check(entries[a].generators, entries[b].generators)
        assert cone_expansion_check(entries["m0"].generators, entries["m4"].generators)
        assert all(e.generators == gens(e.model) for e in cat.entries)


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

    def test_explore_enumerates_each_model_once(self, bundled, monkeypatch, capsys):
        # the 12 bundled models, each enumerated by `load_catalog` alone;
        # every module binding of `enumerate_mupaths` is counted
        import sys

        real = model_module.enumerate_mupaths
        calls = []

        def counted(model):
            calls.append(model)
            return real(model)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "mudd" and getattr(module, "enumerate_mupaths", None) is real:
                monkeypatch.setattr(module, "enumerate_mupaths", counted)
        assert main(["explore", str(bundled("catalog", "search_catalog.json"))]) == 0
        assert "relaxation m3 -> m4: expands" in capsys.readouterr().out
        assert len(calls) == 12

    def test_bundled_edges_run_no_lp(self, bundled, no_lp):
        cat = load_catalog(bundled("catalog", "search_catalog.json"))
        expansion = expansion_results(cat)
        assert expansion and all(item["expanded"] for item in expansion)

    def test_grown_product_runs_no_lp(self, no_lp):
        ns = CounterNamespace(["a0", "a1", "a2", "b0", "b1"])
        parent = product(ns, [[("a0",), ("a1",)], [("b0",), ("b1",)]])
        child = product(ns, [[("a0",), ("a1",), ("a2",)], [("b0",), ("b1",)]])
        assert cone_expansion_check(gens(parent), gens(child))

    def test_split_path_needs_one_lp(self, lp_calls):
        # parent signature (1,1) is not a child generator, but (1,0) + (0,1)
        ns = CounterNamespace(["a", "b"])
        parent = dsl.parse("counter a; counter b;", ns)
        child = dsl.parse("switch (P) { case x: counter a; case y: counter b; }", ns)
        assert cone_expansion_check(gens(parent), gens(child))
        assert len(lp_calls) == 1

    def test_shrink_edge_does_not_expand(self, lp_calls):
        ns = CounterNamespace(["a0", "a1", "a2", "b0", "b1"])
        root = product(ns, [[("a0",), ("a1",), ("a2",)], [("b0",), ("b1",)]])
        shrink = product(ns, [[("a0",), ("a1",)], [("b0",), ("b1",)]])
        cat = ModelCatalog(entries=[
            ModelEntry("root", frozenset(), 0, model=root),
            ModelEntry("shrink", frozenset(), 0, model=shrink, parent=("root", "relaxation")),
        ])
        assert expansion_results(cat) == [
            {"parent": "root", "child": "shrink", "expanded": False}]
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
            expected = all(cone_membership(gens(child), gen) for gen in gens(parent))
            assert cone_expansion_check(gens(parent), gens(child)) == expected, seed
            outcomes.add(expected)
        assert outcomes == {True, False}


class TestCatalogFile:
    def test_bundled_catalog_loads(self, bundled):
        cat = load_catalog(bundled("catalog", "search_catalog.json"))
        assert [e.name for e in cat.entries] == [f"m{i}" for i in range(12)]
        assert by_name(cat)["m4"].model is not None

    def test_broken_parent_reference(self, tmp_path):
        blob = {
            "entries": [
                {"name": "a", "features": [], "infeasible_count": 0,
                 "parent": {"name": "ghost", "kind": "pruning"}}
            ]
        }
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(blob))
        with pytest.raises(MuddError, match="entry 'a' references missing parent 'ghost'$"):
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
        with pytest.raises(MuddError, match=r"entry 'a' model \S*missing\.mudd: No such file"):
            load_catalog(path)

    def test_relaxation_between_inferred_namespaces(self, tmp_path, capsys):
        # each model infers its own counter order; the catalog fixes none
        (tmp_path / "ab.mudd").write_text("counter a;\ncounter b;\n")
        (tmp_path / "ba.mudd").write_text("counter b;\ncounter a;\n")
        blob = {"entries": [
            {"name": "p", "infeasible_count": 1, "model": "ab.mudd"},
            {"name": "c", "infeasible_count": 0, "model": "ba.mudd",
             "parent": {"name": "p", "kind": "relaxation"}},
        ]}
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(blob))
        message = (f"catalog {path}: relaxation 'p' -> 'c': the two models infer different "
                   "counter namespaces; parse both with one CounterNamespace, as a catalog "
                   "file's 'namespace' key does")
        with pytest.raises(MuddError) as exc:
            load_catalog(path)
        assert str(exc.value) == message
        assert main(["explore", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        path.write_text(json.dumps({"namespace": ["a", "b"], **blob}))
        assert expansion_results(load_catalog(path)) == [
            {"parent": "p", "child": "c", "expanded": True}]

    def test_malformed_entry(self, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"entries": [{"features": []}]}))
        with pytest.raises(MuddError, match="entry 1: missing 'name'$"):
            load_catalog(path)

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "cat.json"
        path.write_text('{"entries": [')
        message = f"cannot read catalog {path}: Expecting value: line 1 column 14 (char 13)"
        with pytest.raises(MuddError) as exc:
            load_catalog(path)
        assert str(exc.value) == message
        assert main(["explore", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("blob", [{"features": ["F"]}, [{"name": "a"}]],
                             ids=["object", "list"])
    def test_no_entries(self, tmp_path, capsys, blob):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(blob))
        with pytest.raises(MuddError) as exc:
            load_catalog(path)
        assert str(exc.value) == f"catalog {path} has no entries"
        assert main(["explore", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: catalog {path} has no entries\n")


# each case changes one key of a valid two-entry catalog; the error names the
# file, the entry and the key, and the expected text follows the file name
_VALID_ENTRIES = [
    {"name": "a", "features": ["F"], "infeasible_count": 0},
    {"name": "b", "features": [], "infeasible_count": 2,
     "parent": {"name": "a", "kind": "pruning"}},
]
_PARENT = '{"name": <entry name>, "kind": "relaxation" | "pruning"}'
BAD_CATALOGS = [
    ("entries", {"entries": 3},
     "'entries' must be a list of objects, got 3"),
    ("parent-without-kind", {"entries": [_VALID_ENTRIES[0], {**_VALID_ENTRIES[1], "parent": {"name": "a"}}]},
     f"entry 'b': 'parent' must be {_PARENT}, got {{'name': 'a'}}"),
    ("parent-string", {"entries": [_VALID_ENTRIES[0], {**_VALID_ENTRIES[1], "parent": "a"}]},
     f"entry 'b': 'parent' must be {_PARENT}, got 'a'"),
    ("parent-kind", {"entries": [_VALID_ENTRIES[0], {**_VALID_ENTRIES[1], "parent": {"name": "a", "kind": "sideways"}}]},
     f"entry 'b': 'parent' must be {_PARENT}, got {{'name': 'a', 'kind': 'sideways'}}"),
    ("name-list", {"entries": [{**_VALID_ENTRIES[0], "name": ["a"]}]},
     "entry 1: 'name' must be a string, got ['a']"),
    ("model-number", {"entries": [{**_VALID_ENTRIES[0], "model": 3}]},
     "entry 'a': 'model' must be a path string, got 3"),
    # an empty path names no file; read as no model, its edges would drop out
    ("model-empty", {"entries": [{**_VALID_ENTRIES[0], "model": ""}]},
     "entry 'a': 'model' must be a path string, got ''"),
    # no file name holds a NUL byte; `open` would raise ValueError for it
    ("model-nul", {"entries": [{**_VALID_ENTRIES[0], "model": "m\u0000.mudd"}]},
     "entry 'a': 'model' must be a path string, got 'm\\x00.mudd'"),
    ("features-string", {"entries": [{**_VALID_ENTRIES[0], "features": "TlbPf"}]},
     "entry 'a': 'features' must be a list of strings, got 'TlbPf'"),
    ("namespace-string", {"namespace": "xy", "entries": _VALID_ENTRIES},
     "'namespace' must be a list of strings, got 'xy'"),
    ("features-repeated", {"features": ["F", "G", "F"], "entries": _VALID_ENTRIES},
     "'features': duplicate feature 'F'"),
    # not merged into one: a feature named twice is a typo for another
    ("entry-features-repeated", {"entries": [{**_VALID_ENTRIES[0], "features": ["X", "X"]}]},
     "entry 'a': 'features': duplicate feature 'X'"),
    ("fractional-count", {"entries": [{**_VALID_ENTRIES[0], "infeasible_count": 1.7}]},
     "entry 'a': 'infeasible_count' must be a non-negative integer, got 1.7"),
    ("dataset-id-object", {"dataset_id": {"x": 1}, "entries": _VALID_ENTRIES},
     "'dataset_id' must be a string, got {'x': 1}"),
    ("own-parent", {"entries": [{**_VALID_ENTRIES[0], "parent": {"name": "a", "kind": "pruning"}}]},
     "parent cycle 'a' -> 'a' (each entry the parent of the next)"),
    ("entry-not-object", {"entries": [_VALID_ENTRIES[0], "b"]},
     "'entries[2]' must be an object, got 'b'"),
    ("duplicate-entry", {"entries": [_VALID_ENTRIES[0], {**_VALID_ENTRIES[1], "name": "a"}]},
     "duplicate entry name 'a'"),
    ("namespace-repeated", {"namespace": ["x", "y", "x"], "entries": _VALID_ENTRIES},
     "'namespace': duplicate counter name 'x' in namespace"),
    ("parent-cycle", {"entries": [
        {**_VALID_ENTRIES[0], "parent": {"name": "c", "kind": "relaxation"}},
        _VALID_ENTRIES[1],
        {"name": "c", "infeasible_count": 1, "parent": {"name": "b", "kind": "pruning"}}]},
     "parent cycle 'a' -> 'b' -> 'c' -> 'a' (each entry the parent of the next)"),
]


@pytest.mark.parametrize("blob, message", [case[1:] for case in BAD_CATALOGS],
                         ids=[case[0] for case in BAD_CATALOGS])
def test_malformed_catalog_names_file_entry_and_key(tmp_path, capsys, blob, message):
    valid = tmp_path / "ok.json"
    valid.write_text(json.dumps({"entries": _VALID_ENTRIES}))
    assert names(load_catalog(valid)) == {"a", "b"}
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(blob))
    with pytest.raises(MuddError) as exc:
        load_catalog(path)
    assert str(exc.value) == f"catalog {path}: {message}"
    assert main(["explore", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: catalog {path}: {message}\n")


def _explore(tmp_path, capsys, blob, *flags):
    """The exit code and stdout of `mudd explore` on the catalog `blob`."""
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(blob))
    code = main(["explore", str(path), *flags])
    return code, capsys.readouterr().out


class TestReport:
    def test_bundled_report(self, bundled, capsys):
        path = bundled("catalog", "search_catalog.json")
        assert main(["explore", str(path)]) == 0
        text = capsys.readouterr().out
        assert "feasible: m4, m8" in text
        assert "required features: EarlyPsc, Merging, TlbPf, WalkBypass" in text
        assert "* m8" in text
        assert all(item["expanded"] for item in expansion_results(load_catalog(path)))

    def test_empty_catalog_report(self, tmp_path, capsys):
        code, text = _explore(tmp_path, capsys, {"features": ["F"], "entries": []})
        assert code == 0
        assert text == "model  F  #infeasible  edge\n\nfeasible: (none)\ninfeasible: (none)\n"
        code, out = _explore(tmp_path, capsys, {"entries": []}, "--format", "json")
        assert json.loads(out)["required_features"] is None

    def test_single_entry(self, tmp_path, capsys):
        blob = {"features": ["F"],
                "entries": [{"name": "solo", "features": ["F"], "infeasible_count": 0}]}
        code, text = _explore(tmp_path, capsys, blob)
        assert code == 0
        assert "* solo  yes  0" in text

    def test_json_report(self, bundled, capsys):
        assert main(["explore", str(bundled("catalog", "search_catalog.json")),
                     "--format", "json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["feasible"] == ["m4", "m8"]
        assert blob["required_features"] == ["EarlyPsc", "Merging", "TlbPf", "WalkBypass"]

    def test_unlisted_feature_is_an_extra_column(self, tmp_path, capsys):
        # `Z` is missing from `features`: it gets a column after the listed
        # ones; and a relaxation that loses a path does not expand
        (tmp_path / "root.mudd").write_text(
            "switch (P) { case a: counter x; case b: counter y; }")
        (tmp_path / "shrink.mudd").write_text("counter x;")
        blob = {"namespace": ["x", "y"], "features": ["F"], "entries": [
            {"name": "root", "features": ["F"], "model": "root.mudd",
             "infeasible_count": 3},
            {"name": "shrink", "features": ["Z", "F"], "model": "shrink.mudd",
             "infeasible_count": 0, "parent": {"name": "root", "kind": "relaxation"}},
        ]}
        code, text = _explore(tmp_path, capsys, blob)
        assert code == 0
        assert text == (
            "model     F    Z    #infeasible  edge\n"
            "root      yes  .    3\n"
            "* shrink  yes  yes  0            relaxation of root\n"
            "\n"
            "feasible: shrink\n"
            "infeasible: root\n"
            "required features: F, Z\n"
            "relaxation root -> shrink: DOES NOT EXPAND\n"
            "hint: pruning an infeasible model rarely yields a feasible one; "
            "those subtrees are usually safe to skip\n"
        )

    def test_explore_classifies_once(self, bundled, monkeypatch, capsys):
        from mudd import exploration

        calls = []
        real = exploration.classify
        monkeypatch.setattr(exploration, "classify",
                            lambda catalog: calls.append(catalog) or real(catalog))
        for output_format in ("text", "json"):
            calls.clear()
            assert main(["explore", str(bundled("catalog", "search_catalog.json")),
                         "--format", output_format]) == 0
            assert len(calls) == 1, output_format
        capsys.readouterr()
