"""Tests of the benchmark itself: inputs, known answers, gate, tracing, compare.

    python3 -m pytest perfbench/tests -q
"""
import io
import json
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import compare
import gen
import workloads
from tracing import Tracer

from conftest import BENCH, ROOT


def _files(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def haswell():
    return gen.Haswell.load()


@pytest.mark.parametrize("name", ["refine-single", "deduce-explore"])
def test_same_seed_same_files(tmp_path, name):
    for d, seed in (("a", 3), ("b", 3), ("c", 4)):
        workloads.build(name, seed, tmp_path / d)
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c


def test_refine_inputs_get_their_known_answers(tmp_path, haswell):
    from mudd.feasibility import attribute_violations, check_feasibility
    from mudd.geometry import constraints_from_signatures, deduce_constraints
    from mudd.stats import build_confidence_region, load_observations

    constraints = deduce_constraints(haswell.model)
    gen.copy_model(tmp_path)
    kinds = set()
    for op in workloads.refine_single(5, tmp_path, haswell, 0):
        csv = Path(op.argv[2])
        project = "--project" in op.argv
        obs = load_observations(csv, haswell.namespace, project=project)
        region = build_confidence_region(obs, gen.ALPHA)
        expected = op.expected[csv.stem]
        kinds.add(expected.kind)
        if expected.feasible:
            keep = [haswell.namespace.position(n) for n in obs.namespace.names]
            sigs = [tuple(row[i] for i in keep) for row in haswell.sigs.tolist()]
            assert check_feasibility(sigs, region, compress=True).feasible
            if project:
                assert len(obs.namespace) < len(haswell.namespace)
                assert constraints_from_signatures(sigs, obs.namespace).satisfied_by(
                    [0] * len(obs.namespace))
        else:
            # a valid constraint missed by the whole box proves infeasibility
            named = [c.display(haswell.namespace)
                     for c in attribute_violations(constraints, region)]
            assert expected.violated in named
    assert kinds == {"feasible", "equality", "facet", "projected"}


@pytest.mark.parametrize("shape,total", [((2, 2, 2), True), ((3, 3), False), ((2, 4), True)])
def test_product_model_sizes(shape, total):
    from mudd import dsl
    from mudd.geometry import deduce_constraints
    from mudd.model import enumerate_mupaths

    m = gen.ProductModel(shape=shape, total=total, seed=9)
    model = dsl.parse(m.source())
    cs = deduce_constraints(model)
    want = m.expected_sizes()
    assert len(enumerate_mupaths(model)) == want["paths"]
    assert len(cs.equalities) == want["equalities"]
    assert len(cs.inequalities) == want["inequalities"]


def test_generated_catalog_answers(tmp_path):
    from mudd.exploration import classify, expansion_results, load_catalog

    expected = gen.catalog(2, tmp_path)
    catalog = load_catalog(tmp_path / "catalog.json")
    assert sorted(classify(catalog)[0]) == expected["feasible"]
    assert expansion_results(catalog) == expected["expansion"]
    assert [e["expanded"] for e in expected["expansion"]] == [True, True, False]


def test_checkers_reject_wrong_answers():
    check = workloads.verdict_check(
        {"a": gen.Expected(True), "b": gen.Expected(False, violated="x = y", kind="equality")},
        "text")
    good = "m x a: feasible\nm x b: INFEASIBLE\n    violated: x = y\n"
    assert check(1, good) == []
    assert check(0, good)  # wrong exit code
    assert check(1, "m x a: feasible\nm x b: INFEASIBLE\n")  # violation not named
    assert check(1, "m x a: INFEASIBLE\nm x b: INFEASIBLE\n    violated: x = y\n")
    assert check(1, "m x a: feasible\n")  # missing verdict
    explore = workloads.explore_check({"feasible": ["x"], "expansion": []})
    assert explore(0, json.dumps({"feasible": ["x"], "expansion": []})) == []
    assert explore(0, json.dumps({"feasible": [], "expansion": []}))
    assert workloads.bundled_explore_check(0, "feasible: m4\n")


class _FakeRunner:
    def __init__(self, dt):
        self.dt, self.argvs = dt, []

    def run(self, argv):
        self.argvs.append(argv)
        time.sleep(self.dt)
        return self.dt, 0, "", ""


def test_measure_runs_each_round_once_within_the_cap():
    import run

    ok = lambda code, out: []  # noqa: E731
    rounds = [[workloads.Op(f"r{r}-{i}", [f"r{r}-{i}"], 1, ok) for i in range(2)]
              for r in range(3)]
    w = workloads.Workload("w", rounds, rounds[0][0])
    fast = _FakeRunner(0.0)
    m = run.measure(w, 60.0, fast, run.Tally())
    assert [a[0] for a in fast.argvs] == [op.argv[0] for ops in rounds for op in ops]
    assert len(m["passes"]) == 3 and len(m["calls"]) == 6
    # a 0.1 s pass: a second one would end after the 0.15 s cap
    assert len(run.measure(w, 0.15, _FakeRunner(0.05), run.Tally())["passes"]) == 1


def _run_cli(argv):
    import mudd.cli

    out = io.StringIO()
    with redirect_stdout(out):
        code = mudd.cli.main(argv)
    return code, out.getvalue()


def test_wrappers_leave_results_unchanged(tmp_path, haswell):
    import mudd.cli
    import mudd.feasibility
    import mudd.geometry

    gen.copy_model(tmp_path)
    ops = [op for op in workloads.deduce_explore(6, tmp_path, haswell, 0) if op.label in ("constraints-product0", "explore-generated")]
    plain = [_run_cli(op.argv) for op in ops]
    originals = (mudd.cli.main, mudd.feasibility.signatures_of_model,
                 mudd.geometry.constraints_from_signatures)
    tracer = Tracer()
    tracer.install()
    try:
        assert mudd.geometry.constraints_from_signatures is not originals[2]
        traced = [_run_cli(op.argv) for op in ops]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert all(op.check(*res) == [] for op, res in zip(ops, traced))
    assert (mudd.cli.main, mudd.feasibility.signatures_of_model,
            mudd.geometry.constraints_from_signatures) == originals
    names = {s.name for s in tracer.spans}
    assert {"geometry.deduce", "hull.hull", "exploration.expansion",
            "linprog.membership"} <= names
    assert tracer.counts["exploration.edges"] == 3
    for name in names:
        assert 0 <= tracer.self_time(name) <= tracer.total(name) + 1e-9


def test_self_time_subtracts_children():
    t = Tracer()
    t.call("outer", lambda: t.call("inner", lambda: sum(range(10**5)), (), {}), (), {})
    outer = t.total("outer")
    assert t.self_time("outer") == pytest.approx(outer - t.total("inner"), abs=1e-6)
    assert t.under("inner", "outer") == t.total("inner")


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "refine-single",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_decide_rule():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [x * 0.8 for x in parent]
    slower = [x * 1.3 for x in parent]
    assert compare.decide_metric(parent, faster, "lower", 0.1)["verdict"] == "gain"
    assert compare.decide_metric(parent, slower, "lower", 0.1)["verdict"] == "regression"
    assert compare.decide_metric(parent, parent, "lower", 0.1)["verdict"] == "within bound"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.decide_metric(noisy, noisy[::-1], "lower", 0.1)["verdict"] == "unresolved"
    assert compare.decide_metric(parent, faster, "lower", 0.1, True)["verdict"].startswith(
        "gain (void")
    assert compare.decide_metric(parent, faster, "higher", 0.1)["verdict"] == "regression"
