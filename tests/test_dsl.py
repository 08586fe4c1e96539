import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mudd import dsl
from mudd.dsl import DslParseError, format_diagnostics, format_model, parse
from mudd.model import CounterNamespace, enumerate_mupaths, signature_of


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
        assert signature_of(paths[0], model.namespace).counts == ()

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
        sigs = {signature_of(p, model.namespace).counts for p in enumerate_mupaths(model)}
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
            rendered = format_diagnostics(exc.diagnostics, "model.mudd")
            assert rendered.startswith("model.mudd:1:9:")
        else:
            pytest.fail("expected parse failure")


def _path_summary(model):
    return sorted(
        (
            tuple(sorted(p.assignment.items())),
            signature_of(p, model.namespace).counts,
        )
        for p in enumerate_mupaths(model)
    )


class TestRoundTrip:
    def test_fixture_round_trips(self, bundled):
        for name in ("stlb_pde_walk", "walk_init_first", "pde_lookup_first", "walk_outcome"):
            model = dsl.parse_file(bundled(f"{name}.mudd"))
            reparsed = parse(format_model(model), model.namespace)
            assert _path_summary(model) == _path_summary(reparsed)

    def test_order_statements_round_trip(self):
        src = """
        a: action first;
        b: counter c;
        order a -> b;
        """
        model = parse(src)
        reparsed = parse(format_model(model), model.namespace)
        assert len(reparsed.happens_before) == 1
        assert _path_summary(model) == _path_summary(reparsed)

    def test_property_reuse_round_trips(self):
        src = """
        switch (S) {
            case a:
                switch (S) { case a: counter c1; case b: counter c2; }
            case b:
        }
        """
        model = parse(src)
        reparsed = parse(format_model(model), model.namespace)
        assert _path_summary(model) == _path_summary(reparsed)

    @pytest.mark.parametrize("src", [
        "switch (P) { case a: done; case b: case c: } action e;",
        "switch (P) { case a: done; case b: case c: } L: action e;",
    ], ids=["unlabeled", "labeled"])
    def test_tail_after_partly_done_switch_printed_once(self, src):
        # the cases that do not end in `done` rejoin at `e`, which prints
        # once after the switch, not once per rejoining case
        model = parse(src)
        reparsed = parse(format_model(model), model.namespace)
        assert reparsed.nodes == model.nodes
        assert reparsed.causality == model.causality
        assert _path_summary(reparsed) == _path_summary(model)

    def test_deep_model_round_trips(self, bundled, haswell_namespace):
        model = dsl.parse_file(bundled("haswell_mmu.mudd"), haswell_namespace)
        reparsed = parse(format_model(model), haswell_namespace)
        assert _path_summary(model) == _path_summary(reparsed)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_random_models_round_trip(self, data):
        counters = ["c0", "c1", "c2"]
        serial = iter(range(10_000))  # decision properties must be unique

        def block(depth, prefix):
            """Returns (statements, terminated); stops once control cannot fall through."""
            stmts = []
            n = data.draw(st.integers(0, 3), label=f"{prefix}n")
            for i in range(n):
                kind = data.draw(
                    st.sampled_from(
                        ["counter", "action", "switch", "done"]
                        if depth < 2
                        else ["counter", "action", "done"]
                    ),
                    label=f"{prefix}{i}kind",
                )
                if kind == "counter":
                    stmts.append(f"counter {data.draw(st.sampled_from(counters))};")
                elif kind == "action":
                    stmts.append(f"action act{depth}_{i};")
                elif kind == "done":
                    stmts.append("done;")
                    return stmts, True
                else:
                    cases = data.draw(st.integers(1, 3), label=f"{prefix}{i}cases")
                    inner = []
                    all_dead = True
                    for c in range(cases):
                        body, dead = block(depth + 1, f"{prefix}{i}_{c}_")
                        all_dead = all_dead and dead
                        inner.append(f"case v{c}: " + " ".join(body))
                    stmts.append(f"switch (P{next(serial)}) {{ {' '.join(inner)} }}")
                    if all_dead:
                        return stmts, True
            return stmts, False

        src = "\n".join(block(0, "top")[0])
        model = parse(src, CounterNamespace(counters))
        reparsed = parse(format_model(model), model.namespace)
        assert _path_summary(model) == _path_summary(reparsed)
