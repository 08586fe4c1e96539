"""Byte-for-byte snapshots of `mudd constraints` and `mudd explore` output.

Deduction is exact, so any change to the printed constraint sets or the
exploration report is a change in behaviour, not noise. The snapshots under
tests/data/golden/ are regenerated from the repository root with

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

and only when a behaviour change is intended.
"""
from pathlib import Path

import pytest

from mudd import bundled_path
from mudd.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

CONSTRAINTS = [
    ("haswell_mmu", ("haswell_mmu.mudd",), "haswell_counters.txt"),
    *[(m, (f"{m}.mudd",), None) for m in
      ("pde_lookup_first", "stlb_pde_walk", "walk_init_first", "walk_outcome")],
    *[(f"catalog_m{i}", ("catalog", f"m{i}.mudd"), None) for i in range(12)],
]


def _assert_snapshot(capsys, argv, name):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name,model,namespace", CONSTRAINTS, ids=[c[0] for c in CONSTRAINTS])
def test_constraints_match_snapshot(capsys, name, model, namespace):
    argv = ["constraints", str(bundled_path(*model)), "--format", "json"]
    if namespace is not None:
        argv += ["--namespace", str(bundled_path(namespace))]
    _assert_snapshot(capsys, argv, name)


def test_explore_matches_snapshot(capsys):
    catalog = bundled_path("catalog", "search_catalog.json")
    _assert_snapshot(capsys, ["explore", str(catalog), "--format", "json"], "explore")
