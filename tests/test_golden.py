"""Byte-for-byte snapshots of `mudd` output and of parse diagnostics.

Parsing, path enumeration and deduction are exact, so any change to the
printed paths, constraint sets, exploration report or diagnostics is a change
in behaviour, not noise. The snapshots under tests/data/golden/ are
regenerated from the repository root with

    export PYTHONPATH=src
    D=src/mudd/data G=tests/data/golden
    python -m mudd constraints $D/haswell_mmu.mudd \\
        --namespace $D/haswell_counters.txt --format json > $G/haswell_mmu.json
    for m in pde_lookup_first stlb_pde_walk walk_init_first walk_outcome; do
        python -m mudd constraints $D/$m.mudd --format json > $G/$m.json
    done
    for i in $(seq 0 11); do
        python -m mudd constraints $D/catalog/m$i.mudd --format json > $G/catalog_m$i.json
    done
    python -m mudd explore $D/catalog/search_catalog.json --format json > $G/explore.json

`mudd paths` is snapshotted in text and JSON for the same models (MODELS
below), each as

    python -m mudd paths <model> [--namespace ...] > $G/paths_<name>.txt
    python -m mudd paths <model> [--namespace ...] --format json > $G/paths_<name>.json

The parse diagnostics of every malformed source in tests/data/dsl_errors/
(read without newline translation, so a lone `\\r` keeps its column) are one
snapshot, regenerated with

    python -c "import sys; sys.path.insert(0, 'tests'); \\
        from test_golden import diagnostics_report; \\
        sys.stdout.write(diagnostics_report())" > $G/diagnostics.txt

`mudd check --format text` is snapshotted as its exit code line followed by
its stdout, on the CSVs in tests/data/csv/, which `mudd synth` writes from
the bundled models (the SYNTH table below; a test checks that it still
writes them byte for byte); text output carries verdicts and violated
constraints but no witness values. Each CSV of SYNTH is

    python -m mudd synth <model> --flows <flows> --samples 40 --noise 1 \\
        --seed <seed> -o tests/data/csv/<name>.csv

and each check snapshot is regenerated with

    { python -m mudd check <model> <csvs...> <flags...> > out.txt; \\
      echo "exit: $?"; cat out.txt; } > $G/check_<name>.txt

using the model, CSVs and flags of its CHECKS row. `haswell_mmu.mudd` takes
`--namespace $D/haswell_counters.txt` in both commands. Regenerate only when
a behaviour change is intended.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mudd import bundled_path, linprog
from mudd.cli import main
from mudd.dsl import DslParseError, parse
from mudd.model import CounterNamespace

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden"
CSVS = DATA / "csv"

MODELS = [
    ("haswell_mmu", ("haswell_mmu.mudd",), "haswell_counters.txt"),
    *[(m, (f"{m}.mudd",), None) for m in
      ("pde_lookup_first", "stlb_pde_walk", "walk_init_first", "walk_outcome")],
    *[(f"catalog_m{i}", ("catalog", f"m{i}.mudd"), None) for i in range(12)],
]


def diagnostics_report() -> str:
    """The diagnostics of each source in tests/data/dsl_errors, in file name
    order, checked against the counters of counters.txt there."""
    errors = DATA / "dsl_errors"
    ns = CounterNamespace((errors / "counters.txt").read_text(encoding="utf-8").split())
    reports = []
    for path in sorted(errors.glob("*.mudd")):
        try:
            parse(path.read_bytes().decode("utf-8"), ns, path.name)
        except DslParseError as exc:
            reports.append(str(exc))
        else:
            reports.append(f"{path.name}: parsed without diagnostics")
    return "\n".join(reports) + "\n"


SYNTH = {
    "walk_ok": ("walk_init_first.mudd", "30,20", 3),
    "pde_abort": ("pde_lookup_first.mudd", "0,100,400,100", 4),
    "outcome": ("walk_outcome.mudd", "100,50,20", 5),
    "haswell": ("haswell_mmu.mudd", "2", 6),
    "m8_sparse": ("catalog/m8.mudd", "50,0,0,0,0,0,50,0,0", 1),
}

CHECKS = [
    ("walk", "walk_init_first.mudd", ("walk_ok", "pde_abort"), ()),
    ("walk_independent", "walk_init_first.mudd", ("walk_ok", "pde_abort"),
     ("--independent",)),
    ("projected", "stlb_pde_walk.mudd", ("outcome", "pde_abort"), ("--project",)),
    ("haswell", "haswell_mmu.mudd", ("haswell",), ()),
    # attribution names nothing here: the box LP refutes, and its reason
    # combines two equalities and one facet of m7
    ("joint", "catalog/m7.mudd", ("m8_sparse",), ()),
]


def _namespace_args(model):
    if model == "haswell_mmu.mudd":
        return ["--namespace", str(bundled_path("haswell_counters.txt"))]
    return []


def test_committed_csvs_are_what_synth_writes(tmp_path):
    for name, (model, flows, seed) in SYNTH.items():
        argv = ["synth", str(bundled_path(model)), "--flows", flows, "--samples", "40",
                "--noise", "1", "--seed", str(seed), "-o", str(tmp_path / f"{name}.csv")]
        assert main(argv + _namespace_args(model)) == 0
        assert (tmp_path / f"{name}.csv").read_bytes() == (CSVS / f"{name}.csv").read_bytes()


def _check_argv(model, csvs, flags, jobs):
    return ["check", str(bundled_path(model)), *(str(CSVS / f"{c}.csv") for c in csvs),
            *flags, "--jobs", jobs, "--format", "text", *_namespace_args(model)]


def _assert_snapshot(capsys, argv, name, suffix=".json"):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / f"{name}{suffix}").read_bytes()


@pytest.mark.parametrize("output_format", ["text", "json"])
@pytest.mark.parametrize("name,model,namespace", MODELS, ids=[c[0] for c in MODELS])
def test_paths_match_snapshot(capsys, name, model, namespace, output_format):
    argv = ["paths", str(bundled_path(*model)), "--format", output_format]
    if namespace is not None:
        argv += ["--namespace", str(bundled_path(namespace))]
    suffix = ".txt" if output_format == "text" else ".json"
    _assert_snapshot(capsys, argv, f"paths_{name}", suffix)


def test_diagnostics_match_snapshot():
    report = diagnostics_report()
    assert report.encode("utf-8") == (GOLDEN / "diagnostics.txt").read_bytes()


@pytest.mark.parametrize("name,model,namespace", MODELS, ids=[c[0] for c in MODELS])
def test_constraints_match_snapshot(capsys, monkeypatch, name, model, namespace):
    # deduction runs no LP: every exact LP goes through solve_equality_form
    def no_lp(*args, **kwargs):
        raise AssertionError("deduction ran an LP")

    monkeypatch.setattr(linprog, "solve_equality_form", no_lp)
    argv = ["constraints", str(bundled_path(*model)), "--format", "json"]
    if namespace is not None:
        argv += ["--namespace", str(bundled_path(namespace))]
    _assert_snapshot(capsys, argv, name)


def test_explore_matches_snapshot(capsys):
    catalog = bundled_path("catalog", "search_catalog.json")
    _assert_snapshot(capsys, ["explore", str(catalog), "--format", "json"], "explore")


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name,model,csvs,flags", CHECKS, ids=[c[0] for c in CHECKS])
def test_check_text_matches_snapshot(capsys, name, model, csvs, flags, jobs):
    capsys.readouterr()
    code = main(_check_argv(model, csvs, flags, jobs))
    got = f"exit: {code}\n{capsys.readouterr().out}"
    assert got.encode("utf-8") == (GOLDEN / f"check_{name}.txt").read_bytes()


BLOCK_NUMPY = """
import contextlib, io, json, sys

class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, BlockNumpy())
from mudd.cli import main

results = {}
for key, argv in json.loads(sys.argv[1]).items():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results[key] = [code, out.getvalue(), err.getvalue()]
results["numpy loaded"] = "numpy" in sys.modules
print(json.dumps(results))
"""


def test_check_runs_without_numpy(capsys):
    # numpy is needed by `synth` only: with `import numpy` refused, `check`
    # prints what it prints normally, and `synth` says what it needs
    runs = {f"{name} --jobs {jobs}": _check_argv(model, csvs, flags, jobs)
            for name, model, csvs, flags in CHECKS for jobs in ("1", "2")}
    runs["synth"] = ["synth", str(bundled_path("walk_init_first.mudd")), "--flows", "1"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", BLOCK_NUMPY, json.dumps(runs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    for name, _, _, _ in CHECKS:
        for jobs in ("1", "2"):
            key = f"{name} --jobs {jobs}"
            capsys.readouterr()
            code = main(runs[key])
            normal = capsys.readouterr()
            assert results[key] == [code, normal.out, normal.err]
            assert f"exit: {code}\n{normal.out}" == (GOLDEN / f"check_{name}.txt").read_text("utf-8")
    code, out, err = results["synth"]
    assert (code, out) == (2, "")
    assert err.startswith("error: mudd synth needs numpy")
    assert results["numpy loaded"] is False
