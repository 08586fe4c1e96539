import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mudd import dsl
from mudd.dsl import DslParseError, parse
from mudd.errors import MuddError
from mudd.model import CounterNamespace, enumerate_mupaths

from conftest import paths_by_assignment_bruteforce


def kinds(exc: DslParseError):
    return [d.kind for d in exc.diagnostics]


class TestParsing:
    def test_three_path_walk_model(self, bundled):
        model = dsl.parse_file(bundled("stlb_pde_walk.mudd"))
        assert len(enumerate_mupaths(model)) == 3

    def test_bare_done(self):
        model = parse("done;")
        paths = enumerate_mupaths(model)
        assert len(paths) == 1
        assert paths[0].counts == ()

    def test_empty_source_is_implicit_done(self):
        model = parse("")
        assert len(enumerate_mupaths(model)) == 1

    def test_namespace_inferred_in_appearance_order(self):
        model = parse("counter b.second;\ncounter a.first;\ncounter b.second;")
        assert model.namespace.names == ("b.second", "a.first")

    def test_explicit_namespace_checked(self):
        ns = CounterNamespace(["known"])
        with pytest.raises(DslParseError) as exc:
            parse("counter unknown;", ns)
        assert "unknown-counter" in kinds(exc.value)

    def test_branches_rejoin_after_switch(self):
        model = parse(
            """
            switch (S) { case a: counter c1; case b: }
            counter c2;
            """
        )
        sigs = {p.counts for p in enumerate_mupaths(model)}
        assert sigs == {(1, 1), (0, 1)}

    def test_comments_ignored(self):
        model = parse("# leading comment\ncounter c; # trailing\n")
        assert model.namespace.names == ("c",)

    def test_dollar_and_dot_in_names(self):
        model = parse("counter load.pde$_miss;")
        assert model.namespace.names == ("load.pde$_miss",)

    def test_numeric_case_values(self):
        model = parse("switch (Size) { case 4k: case 2m: case 1g: }")
        assert len(enumerate_mupaths(model)) == 3


class TestDiagnostics:
    def test_syntax_error_carries_position(self):
        with pytest.raises(DslParseError) as exc:
            parse("counter a;\n  counter ;")
        report = str(exc.value)
        assert "2:11" in report
        assert "syntax-error" in report

    def test_unknown_counter_names_the_counter(self):
        with pytest.raises(DslParseError) as exc:
            parse("counter load.bogus;", CounterNamespace(["load.real"]))
        assert "load.bogus" in str(exc.value)

    def test_multiple_errors_reported_in_source_order(self):
        src = "counter ;\nswitch (P) { }\ndone;\ncounter late;"
        with pytest.raises(DslParseError) as exc:
            parse(src)
        ks = kinds(exc.value)
        assert "syntax-error" in ks
        assert "empty-switch" in ks
        assert "unreachable-statement" in ks
        lines = [d.line for d in exc.value.diagnostics]
        assert lines == sorted(lines)

    def test_duplicate_label(self):
        with pytest.raises(DslParseError) as exc:
            parse("x: action a;\nx: action b;")
        assert "duplicate-label" in kinds(exc.value)

    def test_duplicate_case(self):
        with pytest.raises(DslParseError) as exc:
            parse("switch (P) { case a: case a: }")
        assert "duplicate-case" in kinds(exc.value)

    def test_unknown_order_label(self):
        with pytest.raises(DslParseError) as exc:
            parse("a: action x;\norder a -> ghost;")
        assert "unknown-label" in kinds(exc.value)

    def test_unreachable_after_done_inside_case(self):
        with pytest.raises(DslParseError) as exc:
            parse("switch (P) { case a: done; counter c; case b: }")
        assert "unreachable-statement" in kinds(exc.value)

    def test_no_loops_or_functions(self):
        for src in ("while (x) { }", "def f() { }", "let x = 3;", "for i in y;"):
            with pytest.raises(DslParseError) as exc:
                parse(src)
            assert "syntax-error" in kinds(exc.value)

    def test_nesting_within_the_stack_parses(self):
        model = parse("switch (p) { case a: " * 200 + "counter x;" + " }" * 200)
        assert len(model.nodes) == 202  # the switches, the counter and the end

    def test_nesting_beyond_the_stack_is_one_diagnostic(self):
        with pytest.raises(DslParseError) as exc:
            parse("switch (p) { case a: " * 3000 + "counter x;" + " }" * 3000)
        assert [(d.kind, d.line, d.message) for d in exc.value.diagnostics] == [
            ("syntax-error", 1, "switches nested too deeply to parse")]

    def test_format_diagnostics_stable(self):
        try:
            parse("counter ;", origin="model.mudd")
        except DslParseError as exc:
            assert str(exc).startswith("model.mudd:1:9:")
        else:
            pytest.fail("expected parse failure")


# property -> its number of cases: a switch on a property assigned higher up
# the path follows its case, and the pool bounds the paths of a random source
_CASES = {"P0": 1, "P1": 2, "P2": 2, "P3": 3}
_COUNTERS = ["c0", "c1", "c2"]


def _draw_block(data, depth, labels):
    """A random block of (label, kind, arg) statements, ending where control
    can no longer fall through, so that no statement is unreachable; returns
    it and whether control falls through its end."""
    block = []
    for _ in range(data.draw(st.integers(0, 3))):
        kinds = ["counter", "action", "done", "switch"] if depth < 3 else ["counter", "done"]
        kind = data.draw(st.sampled_from(kinds))
        label = None
        if data.draw(st.integers(0, 3)) == 0:
            label = f"L{len(labels)}"
            labels.append(label)
        if kind == "switch":
            prop = data.draw(st.sampled_from(sorted(_CASES)))
            cases = [_draw_block(data, depth + 1, labels) for _ in range(_CASES[prop])]
            block.append((label, kind, (prop, [body for body, _ in cases])))
            if not any(falls for _, falls in cases):
                return block, False
        elif kind == "done":
            block.append((label, kind, None))
            return block, False
        else:
            name = data.draw(st.sampled_from(_COUNTERS)) if kind == "counter" else f"e{depth}"
            block.append((label, kind, name))
    return block, True


def _render(block) -> str:
    lines = []
    for label, kind, arg in block:
        prefix = f"{label}: " if label else ""
        if kind == "switch":
            prop, bodies = arg
            cases = " ".join(f"case v{i}: {_render(body)}" for i, body in enumerate(bodies))
            lines.append(f"{prefix}switch ({prop}) {{ {cases} }}")
        elif kind == "done":
            lines.append(f"{prefix}done;")
        else:
            lines.append(f"{prefix}{kind} {arg};")
    return "\n".join(lines)


def _reference_paths(block):
    """(property assignment, node trail) of each path, in enumeration order,
    by running the statements: a switch's case runs, then the statements
    after the switch; the end of the text is a `done` with no label."""
    def walk(todo, assignment, trail):
        if not todo:
            yield tuple(assignment.items()), trail + [(None, "done", None)]
            return
        (label, kind, arg), rest = todo[0], todo[1:]
        if kind != "switch":
            node = (label, "event" if kind == "action" else kind, arg)
            if kind == "done":
                yield tuple(assignment.items()), trail + [node]
            else:
                yield from walk(rest, assignment, trail + [node])
            return
        prop, bodies = arg
        trail = trail + [(label, "decision", prop)]
        if prop in assignment:
            yield from walk(bodies[int(assignment[prop][1:])] + rest, assignment, trail)
            return
        for i, body in enumerate(bodies):
            yield from walk(body + rest, {**assignment, prop: f"v{i}"}, trail)

    return list(walk(block, {}, []))


class TestRandomSources:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_paths_match_a_reference_walk(self, data):
        labels = []
        block, _ = _draw_block(data, 0, labels)
        orders = []
        if labels:
            pairs = st.tuples(st.sampled_from(labels), st.sampled_from(labels))
            orders = data.draw(st.lists(pairs, max_size=2))
        src = "\n".join([f"order {a} -> {b};" for a, b in orders] + [_render(block)])
        model = parse(src, CounterNamespace(_COUNTERS))

        expected = []
        conflict = None
        for assignment, trail in _reference_paths(block):
            position = {label: i for i, (label, _, _) in enumerate(trail) if label}
            for a, b in orders:
                if a in position and b in position:
                    if position[a] >= position[b] and conflict is None:
                        conflict = (a, b, assignment)
            counts = tuple(sum(1 for _, kind, name in trail if (kind, name) == ("counter", c))
                           for c in _COUNTERS)
            expected.append((assignment, trail, counts))

        # the diagram's node trails, walked under every assignment
        def node(node_id):
            n = model.node(node_id)
            return n.label, n.kind, n.name

        walked = {(used, tuple(map(node, trail)), counts)
                  for trail, used, counts in paths_by_assignment_bruteforce(model)}
        assert walked == {(tuple(sorted(assignment)), tuple(trail), counts)
                          for assignment, trail, counts in expected}
        if conflict is not None:
            a, b, assignment = conflict
            path = ", ".join(f"{p}={v}" for p, v in assignment) or "(no decisions)"
            with pytest.raises(MuddError) as exc:
                enumerate_mupaths(model)
            assert str(exc.value) == f"order {a} -> {b} contradicts causality on path {path}"
            return

        actual = [(p.property_assignment, p.counts) for p in enumerate_mupaths(model)]
        assert actual == [(assignment, counts) for assignment, _, counts in expected]
