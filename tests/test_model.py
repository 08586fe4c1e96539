import itertools
import math
import re

import pytest

import mudd.model
from mudd import dsl
from mudd.errors import MuddError
from mudd.model import (
    CausalityEdge,
    CounterNamespace,
    MuDD,
    Node,
    describe_decisions,
    enumerate_mupaths,
    signatures_of_model,
)

from conftest import paths_by_assignment_bruteforce

# every bundled model: the five under data/ and the twelve of the catalog
BUNDLED_MODELS = sorted(p.relative_to(mudd.bundled_path()).as_posix()
                        for p in mudd.bundled_path().rglob("*.mudd"))


def chain(*kinds_names, ns, happens_before=()):
    """Linear diagram ending in done; kinds_names are (kind, name) pairs."""
    nodes = [Node(i, k, n) for i, (k, n) in enumerate(kinds_names)]
    nodes.append(Node(len(nodes), "done"))
    edges = [CausalityEdge(i, i + 1) for i in range(len(nodes) - 1)]
    return MuDD(
        nodes=tuple(nodes),
        causality=tuple(edges),
        happens_before=tuple(happens_before),
        entry=0,
        namespace=ns,
    )


class TestNamespace:
    def test_order_defines_positions(self):
        ns = CounterNamespace(["b", "a", "c"])
        assert ns.position("a") == 1
        assert list(ns) == ["b", "a", "c"]

    def test_duplicate_rejected(self):
        with pytest.raises(MuddError, match="^duplicate counter name 'x' in namespace$"):
            CounterNamespace(["x", "x"])

    def test_unknown_position(self):
        with pytest.raises(MuddError, match="^counter 'y' not in namespace$"):
            CounterNamespace(["x"]).position("y")

    def test_restrict_preserves_order(self):
        ns = CounterNamespace(["a", "b", "c"]).restrict(["c", "a"])
        assert ns.names == ("a", "c")


class TestValidation:
    def test_cycle_detected(self):
        ns = CounterNamespace([])
        nodes = (Node(0, "event", "a"), Node(1, "event", "b"))
        edges = (CausalityEdge(0, 1), CausalityEdge(1, 0))
        with pytest.raises(MuddError, match=r"^causality cycle through node [01]; "
                                               "diagrams must be acyclic$"):
            MuDD(nodes=nodes, causality=edges, happens_before=(), entry=0, namespace=ns)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_cycle_error_names_a_node_on_the_cycle(self, reverse):
        # tail 0 -> 2 enters the cycle 3 -> 4 -> 3; 4 also leaves for done 1,
        # which lies below the cycle but not on it
        ns = CounterNamespace([])
        nodes = (Node(0, "event", "a"), Node(1, "done"), Node(2, "event", "b"),
                 Node(3, "event", "c"), Node(4, "decision", "p"))
        edges = (CausalityEdge(0, 2), CausalityEdge(2, 3), CausalityEdge(3, 4),
                 CausalityEdge(4, 3, "again"), CausalityEdge(4, 1, "out"))
        with pytest.raises(MuddError, match=r"cycle through node [34];"):
            MuDD(nodes=nodes[::-1] if reverse else nodes, causality=edges,
                 happens_before=(), entry=0, namespace=ns)

    def test_counter_must_be_in_namespace(self):
        ns = CounterNamespace(["known"])
        with pytest.raises(MuddError, match="^counter node 0 references 'unknown', "
                                            "which is not in the namespace$"):
            chain(("counter", "unknown"), ns=ns)

    def test_done_must_be_terminal(self):
        ns = CounterNamespace([])
        nodes = (Node(0, "done"), Node(1, "done"))
        with pytest.raises(MuddError, match="^done node 0 has outgoing causality edges$"):
            MuDD(
                nodes=nodes,
                causality=(CausalityEdge(0, 1),),
                happens_before=(),
                entry=0,
                namespace=ns,
            )

    def test_decision_labels_distinct(self):
        ns = CounterNamespace([])
        nodes = (Node(0, "decision", "p"), Node(1, "done"), Node(2, "done"))
        edges = (CausalityEdge(0, 1, "x"), CausalityEdge(0, 2, "x"))
        with pytest.raises(MuddError, match="^decision node 0 has duplicate edge labels$"):
            MuDD(nodes=nodes, causality=edges, happens_before=(), entry=0, namespace=ns)

    # the DSL never builds these; they guard a library caller's diagram
    @pytest.mark.parametrize("nodes, edges, happens_before, entry, message", [
        ((Node(0, "done"), Node(0, "done")), (), (), 0, "duplicate node id 0"),
        ((Node(0, "bogus"),), (), (), 0, "node 0 has unknown kind 'bogus'"),
        ((Node(0, "event"), Node(1, "done")), (CausalityEdge(0, 1),), (), 0,
         "event node 0 has no name"),
        ((Node(0, "decision", ""), Node(1, "done")), (CausalityEdge(0, 1, "x"),), (), 0,
         "decision node 0 has no name"),
        ((Node(0, "done"),), (), (), 5, "entry node 5 does not exist"),
        ((Node(0, "event", "a"), Node(1, "done")), (CausalityEdge(0, 9),), (), 0,
         "causality edge CausalityEdge(src=0, dst=9, value=None) references a missing node"),
        ((Node(0, "event", "a"), Node(1, "done")), (CausalityEdge(0, 1),), ((0, 9),), 0,
         "happens-before edge (0, 9) references a missing node"),
        ((Node(0, "decision", "p"),), (), (), 0, "decision node 0 has no outgoing edges"),
        ((Node(0, "decision", "p"), Node(1, "done"), Node(2, "done")),
         (CausalityEdge(0, 1, "x"), CausalityEdge(0, 2)), (), 0,
         "decision node 0 has an unlabeled edge"),
        ((Node(0, "event", "a"), Node(1, "done"), Node(2, "done")),
         (CausalityEdge(0, 1), CausalityEdge(0, 2)), (), 0,
         "event node 0 must have exactly one outgoing edge, has 2"),
        ((Node(0, "event", "a"),), (), (), 0,
         "event node 0 must have exactly one outgoing edge, has 0"),
        ((Node(0, "event", "a"), Node(1, "done")), (CausalityEdge(0, 1, "x"),), (), 0,
         "non-decision node 0 has a labeled edge"),
    ], ids=["duplicate-id", "unknown-kind", "unnamed-event", "unnamed-decision",
            "missing-entry", "edge-to-missing-node", "happens-before-to-missing-node",
            "decision-without-edges", "unlabeled-decision-edge", "two-edges", "no-edge",
            "labeled-edge"])
    def test_structural_error(self, nodes, edges, happens_before, entry, message):
        with pytest.raises(MuddError, match=f"^{re.escape(message)}$"):
            MuDD(nodes=nodes, causality=edges, happens_before=happens_before, entry=entry,
                 namespace=CounterNamespace([]))


class TestEnumeration:
    def test_single_done_node(self):
        ns = CounterNamespace(["c"])
        model = MuDD(
            nodes=(Node(0, "done"),),
            causality=(),
            happens_before=(),
            entry=0,
            namespace=ns,
        )
        paths = enumerate_mupaths(model)
        assert len(paths) == 1
        assert paths[0].counts == (0,)

    def test_two_independent_decisions_in_series(self):
        src = """
        switch (A) { case a1: case a2: }
        switch (B) { case b1: case b2: }
        """
        model = dsl.parse(src)
        paths = enumerate_mupaths(model)
        assert len(paths) == 4
        assert len(paths_by_assignment_bruteforce(model)) == 4

    def test_assigned_property_follows_matching_edge(self):
        src = """
        switch (S) {
            case a:
                switch (S) { case a: counter c1; case b: counter c2; }
            case b:
        }
        """
        model = dsl.parse(src)
        paths = enumerate_mupaths(model)
        assert len(paths) == 2
        sigs = {p.counts for p in paths}
        # inner switch follows the outer assignment: c2 never fires
        assert sigs == {(1, 0), (0, 0)}

    def test_dangling_decision(self):
        src = """
        switch (S) { case a: switch (S) { case b: counter c1; } }
        """
        model = dsl.parse(src)
        with pytest.raises(MuddError, match=r"^property 'S' is assigned 'a' but decision "
                                            r"node \d+ has no matching edge$"):
            enumerate_mupaths(model)

    def test_cap_exceeded(self, monkeypatch):
        src = "\n".join(
            f"switch (P{i}) {{ case a: case b: }}" for i in range(5)
        )
        model = dsl.parse(src)
        monkeypatch.setattr(mudd.model, "PATH_CAP", 32)
        assert len(enumerate_mupaths(model)) == 32
        monkeypatch.setattr(mudd.model, "PATH_CAP", 31)
        with pytest.raises(MuddError, match="^more than 31 paths, the fixed limit; "
                                            "simplify the model$"):
            enumerate_mupaths(model)

    def test_deterministic_and_declaration_ordered(self):
        src = """
        switch (S) { case first: counter c1; case second: counter c2; case third: }
        """
        model = dsl.parse(src)
        a = enumerate_mupaths(model)
        b = enumerate_mupaths(model)
        assert a == b
        assert [dict(p.property_assignment)["S"] for p in a] == ["first", "second", "third"]

    def test_path_count_is_product_of_branch_counts(self):
        # every shape of 1-4 switches in series with 1-4 cases each, 340 in all
        shapes = [branches for length in range(1, 5)
                  for branches in itertools.product(range(1, 5), repeat=length)]
        assert len(shapes) == 340
        for branches in shapes:
            src = "\n".join(
                "switch (P%d) { %s }" % (i, " ".join(f"case v{j}:" for j in range(k)))
                for i, k in enumerate(branches)
            )
            model = dsl.parse(src)
            expected = math.prod(branches)
            paths = enumerate_mupaths(model)
            assert len(paths) == expected, branches
            assert len(paths_by_assignment_bruteforce(model)) == expected, branches

    # each of these runs far past the default recursion limit of 1,000
    def test_long_chain_is_one_path(self):
        ns = CounterNamespace(["c"])
        paths = enumerate_mupaths(chain(*[("counter", "c")] * 20_000, ns=ns))
        assert [p.counts for p in paths] == [(20_000,)]

    def test_long_run_of_single_case_switches_is_one_path(self):
        src = "\n".join(f"switch (P{i}) {{ case a: }}" for i in range(5_000)) + "\ncounter x;"
        paths = enumerate_mupaths(dsl.parse(src))
        assert [p.counts for p in paths] == [(1,)]
        assert len(paths[0].property_assignment) == 5_000

    def test_long_run_of_repeated_switches_is_two_paths(self):
        src = "\n".join(["switch (P) { case a: counter x; case b: }"] * 5_000)
        paths = enumerate_mupaths(dsl.parse(src))
        assert [p.counts for p in paths] == [(5_000,), (0,)]

    # case a breaks the order and case b reaches a decision with no edge for
    # its value; whichever case comes first names the error
    BROKEN_ORDER = "case a: late: action second; early: action first;"
    DANGLING = "case b: switch (S) { case a: }"

    @pytest.mark.parametrize("cases, message", [
        (f"{BROKEN_ORDER} {DANGLING}",
         r"^order early -> late contradicts causality on path S=a$"),
        (f"{DANGLING} {BROKEN_ORDER}",
         r"^property 'S' is assigned 'b' but decision node \d+ has no matching edge$"),
    ], ids=["order-first", "dangling-first"])
    def test_errors_surface_in_path_order(self, cases, message):
        src = f"order early -> late;\nswitch (S) {{ {cases} }}"
        with pytest.raises(MuddError, match=message):
            enumerate_mupaths(dsl.parse(src))


class TestSignatures:
    def test_counts_per_namespace_position(self):
        ns = CounterNamespace(["load.causes_walk", "load.pde$_miss"])
        model = chain(
            ("counter", "load.pde$_miss"),
            ("event", "walk"),
            ns=ns,
        )
        paths = enumerate_mupaths(model)
        assert paths[0].counts == (0, 1)

    def test_no_counters_is_all_zero(self):
        ns = CounterNamespace(["a", "b"])
        model = chain(("event", "x"), ns=ns)
        assert enumerate_mupaths(model)[0].counts == (0, 0)

    def test_same_counter_twice_counts_two(self):
        ns = CounterNamespace(["c"])
        model = chain(("counter", "c"), ("counter", "c"), ns=ns)
        assert enumerate_mupaths(model)[0].counts == (2,)

    def test_duplicates_preserved_at_model_level(self):
        src = """
        switch (S) { case a: counter c; case b: counter c; }
        """
        model = dsl.parse(src)
        sigs = signatures_of_model(model)
        assert [s.counts for s in sigs] == [(1,), (1,)]

    def test_every_bundled_model_is_here(self):
        assert len(BUNDLED_MODELS) == 17

    @pytest.mark.parametrize("name", BUNDLED_MODELS)
    def test_counts_match_an_independent_walk(self, name):
        model = dsl.parse_file(mudd.bundled_path(name))
        walked = {used: counts for _, used, counts in paths_by_assignment_bruteforce(model)}
        paths = enumerate_mupaths(model)
        assert len(paths) == len(walked)
        assert {tuple(sorted(p.property_assignment)): p.counts for p in paths} == walked


class TestHappensBefore:
    def test_order_off_the_path_constrains_nothing(self):
        # each order holds where both its nodes are on a path; y and w are
        # never on one path together, so their two orders, each the other's
        # reverse, constrain no path
        src = """
        order x -> y;
        order y -> z;
        order y -> w;
        order w -> y;
        x: action first;
        switch (S) {
            case a:
                y: action second;
            case b:
                w: counter c;
        }
        z: action last;
        """
        model = dsl.parse(src)
        assert [(describe_decisions(p.property_assignment), p.counts)
                for p in enumerate_mupaths(model)] == [
            ("S=a", (0,)), ("S=b", (1,))]

    def test_signatures_insensitive_to_happens_before(self):
        ns = CounterNamespace(["c"])
        base = chain(("counter", "c"), ("event", "e"), ns=ns)
        with_hb = MuDD(
            nodes=base.nodes,
            causality=base.causality,
            happens_before=((0, 1),),
            entry=0,
            namespace=ns,
        )
        sig_a = [s.counts for s in signatures_of_model(base)]
        sig_b = [s.counts for s in signatures_of_model(with_hb)]
        assert sig_a == sig_b

    def test_conflicting_order_raises(self):
        ns = CounterNamespace([])
        base = chain(("event", "a"), ("event", "b"), ns=ns)
        bad = MuDD(
            nodes=base.nodes,
            causality=base.causality,
            happens_before=((1, 0),),
            entry=0,
            namespace=ns,
        )
        with pytest.raises(MuddError, match="^order node 1 -> node 0 contradicts causality "
                                            r"on path \(no decisions\)$"):
            enumerate_mupaths(bad)
