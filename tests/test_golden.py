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
its stdout, on CSVs written by `mudd synth` from the bundled models (the
SYNTH table below); text output carries verdicts and violated constraints
but no witness values. After writing each CSV of SYNTH with

    python -m mudd synth <model> --flows <flows> --samples 40 --noise 1 \\
        --seed <seed> -o <name>.csv

each check snapshot is regenerated with

    { python -m mudd check <model> <csvs...> <flags...> > out.txt; \\
      echo "exit: $?"; cat out.txt; } > $G/check_<name>.txt

using the model, CSVs and flags of its CHECKS row. `haswell_mmu.mudd` takes
`--namespace $D/haswell_counters.txt` in both commands. Regenerate only when
a behaviour change is intended.
"""
from pathlib import Path

import pytest

from mudd import bundled_path, linprog
from mudd.cli import main
from mudd.dsl import DslParseError, DslSource, parse
from mudd.model import CounterNamespace

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden"

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
            parse(DslSource(path.read_bytes().decode("utf-8"), path.name), ns)
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
}

CHECKS = [
    ("walk", "walk_init_first.mudd", ("walk_ok", "pde_abort"), ()),
    ("walk_independent", "walk_init_first.mudd", ("walk_ok", "pde_abort"),
     ("--independent",)),
    ("projected", "stlb_pde_walk.mudd", ("outcome", "pde_abort"), ("--project",)),
    ("haswell", "haswell_mmu.mudd", ("haswell",), ()),
]


def _namespace_args(model):
    if model == "haswell_mmu.mudd":
        return ["--namespace", str(bundled_path("haswell_counters.txt"))]
    return []


@pytest.fixture(scope="module")
def synth_csvs(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    for name, (model, flows, seed) in SYNTH.items():
        argv = ["synth", str(bundled_path(model)), "--flows", flows, "--samples", "40",
                "--noise", "1", "--seed", str(seed), "-o", str(out / f"{name}.csv")]
        assert main(argv + _namespace_args(model)) == 0
    return out


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
def test_check_text_matches_snapshot(capsys, synth_csvs, name, model, csvs, flags, jobs):
    capsys.readouterr()
    argv = ["check", str(bundled_path(model)), *(str(synth_csvs / f"{c}.csv") for c in csvs),
            *flags, "--jobs", jobs, "--format", "text", *_namespace_args(model)]
    code = main(argv)
    got = f"exit: {code}\n{capsys.readouterr().out}"
    assert got.encode("utf-8") == (GOLDEN / f"check_{name}.txt").read_bytes()
