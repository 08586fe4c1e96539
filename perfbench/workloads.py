"""The three workloads: their seeded inputs, CLI invocations and known answers.

A workload is a fixed sequence of `mudd` invocations (one pass); the seed
gives each of the workload's ROUNDS rounds its own inputs for the pass, and
a run makes every round's pass once, so the work of a run is fixed.  Every invocation
carries a checker that compares its exit code and output with the known
answer.  The CLI receives only the generated files.

- refine-single: the interactive loop, one CSV per `mudd check`: a feasible
  CSV, one shifted off an equality, one without the `store.*` counters
  checked with `--project`, and one shifted off a facet.
- batch-pool: one `mudd check` invocation over 8 mixed CSVs at `--jobs` =
  nproc; deduction is paid once per batch.
- deduce-explore: `mudd constraints` on the bundled model and on generated
  product models of 7 to 12 counters, `mudd explore` on a generated catalog
  and one pass over the bundled catalog.
"""
from __future__ import annotations

import itertools
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from mudd.stats import write_observations

import gen

SIZE_SUM_EQUALITIES = (
    "load.stlb_hit_4k + load.stlb_hit_2m = load.stlb_hit",
    "load.walk_done_4k + load.walk_done_2m + load.walk_done_1g = load.walk_done",
)
HASWELL_SIZES = {"equalities": 12, "inequalities": 25}
BUNDLED_FEASIBLE = "feasible: m4, m8"
# Rounds per run.  Each round draws fresh inputs for the pass, so that a run
# averages the per-input cost (the exact box LP's varies about 2x between
# CSVs); the counts are what fits in about 30 s on 2 cores.
ROUNDS = {"refine-single": 2, "batch-pool": 3, "deduce-explore": 2}

# (shape, total counter) of the generated models `mudd constraints` deduces
GENERATED_SHAPES = (
    ((2, 2, 2), True),
    ((2, 2, 2, 2, 2), False),
    ((3, 3, 3), True),
    ((2, 2, 2, 2, 2, 2), False),
)


@dataclass
class Op:
    """One CLI invocation: mudd arguments, results produced, answer checker."""

    label: str
    argv: list[str]
    results: int
    check: Callable[[int, str], list[str]]
    pool: bool = False  # takes `--jobs`
    expected: dict = field(default_factory=dict)  # run id -> gen.Expected

    def args(self, jobs: int) -> list[str]:
        return self.argv + (["--jobs", str(jobs)] if self.pool else [])


@dataclass
class Workload:
    """A pass of invocations, with fresh inputs in each of its rounds."""

    name: str
    rounds: list[list[Op]]  # rounds[r][i]: invocation i of the pass, round r's inputs
    setup: Op  # `mudd paths` on the workload's model
    sizes: dict = field(default_factory=dict)
    result_kind: str = "verdict cells"


# ---------------------------------------------------------------------------
# checkers


def _parse_text_verdicts(out: str) -> dict[str, tuple[Optional[bool], list[str]]]:
    got: dict[str, tuple[Optional[bool], list[str]]] = {}
    run = None
    for line in out.splitlines():
        if line.startswith("    violated: ") and run is not None:
            got[run][1].append(line[len("    violated: "):])
            continue
        head, _, status = line.partition(": ")
        run = head.split(" x ", 1)[-1]
        feasible = {"feasible": True, "INFEASIBLE": False}.get(status)
        got[run] = (feasible, [])
    return got


def _parse_json_verdicts(out: str) -> dict[str, tuple[Optional[bool], list[str]]]:
    return {row["run"]: (row.get("feasible"), list(row.get("violated_constraints", [])))
            for row in json.loads(out)}


def verdict_check(expected: dict[str, gen.Expected], fmt: str):
    want_code = 0 if all(e.feasible for e in expected.values()) else 1

    def check(code: int, out: str) -> list[str]:
        fails = []
        if code != want_code:
            fails.append(f"exit code {code}, expected {want_code}")
        try:
            got = _parse_json_verdicts(out) if fmt == "json" else _parse_text_verdicts(out)
        except (ValueError, KeyError, TypeError) as exc:
            return fails + [f"unreadable output: {exc}"]
        for run, e in expected.items():
            if run not in got:
                fails.append(f"{run}: no verdict")
                continue
            feasible, violated = got[run]
            if feasible is not e.feasible:
                fails.append(f"{run}: verdict {feasible}, expected {e.feasible}")
            elif e.violated is not None and e.violated not in violated:
                fails.append(f"{run}: {e.violated!r} not named among {violated}")
        return fails

    return check


def constraints_check(sizes: dict, gens: list[dict[str, int]], required=()):
    """Counts by kind, required displays, and every generator satisfies the set."""

    def check(code: int, out: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}, expected 0"]
        try:
            rows = json.loads(out)
        except ValueError as exc:
            return [f"unreadable output: {exc}"]
        fails = []
        for kind, want in (("equality", sizes["equalities"]),
                           ("inequality", sizes["inequalities"])):
            got = sum(1 for r in rows if r["kind"] == kind)
            if got != want:
                fails.append(f"{got} {kind} constraints, expected {want}")
        displays = {r["display"] for r in rows}
        fails += [f"missing {d!r}" for d in required if d not in displays]
        for r in rows:
            for g in gens:
                value = sum(c * g.get(n, 0) for n, c in r["coefficients"].items())
                if value < 0 or (r["kind"] == "equality" and value != 0):
                    fails.append(f"{r['display']!r} fails on generator {g}")
                    break
        return fails

    return check


def explore_check(expected: dict):
    def check(code: int, out: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}, expected 0"]
        try:
            report = json.loads(out)
        except ValueError as exc:
            return [f"unreadable output: {exc}"]
        fails = []
        if report["feasible"] != expected["feasible"]:
            fails.append(f"feasible {report['feasible']}, expected {expected['feasible']}")
        if report["expansion"] != expected["expansion"]:
            fails.append(f"expansion {report['expansion']}, expected {expected['expansion']}")
        return fails

    return check


def bundled_explore_check(code: int, out: str) -> list[str]:
    fails = [] if code == 0 else [f"exit code {code}, expected 0"]
    if BUNDLED_FEASIBLE not in out.splitlines():
        fails.append(f"{BUNDLED_FEASIBLE!r} not reported")
    return fails


def paths_check(count: int):
    def check(code: int, out: str) -> list[str]:
        fails = [] if code == 0 else [f"exit code {code}, expected 0"]
        lines = len(out.splitlines())
        if lines != count:
            fails.append(f"{lines} paths listed, expected {count}")
        return fails

    return check


# ---------------------------------------------------------------------------
# workloads


def _write(obs, path: Path, run_id: str, expected: dict, label: gen.Expected) -> Path:
    write_observations(obs, path)
    expected[run_id] = label
    return path


def refine_single(seed: int, workdir: Path, h: gen.Haswell, r: int) -> list[Op]:
    model, names = workdir / gen.MODEL_FILE, workdir / gen.COUNTERS_FILE
    ops = []
    for i, kind in enumerate(["feasible", "equality", "projected", "facet"]):
        stream = 10 * r + i
        if kind == "feasible":
            obs, label = h.feasible(seed, stream)
        elif kind == "projected":
            obs, label = h.projected(seed, stream)
        else:
            obs, label = h.infeasible(seed, stream, kind)
        run_id = f"r{r}-{i}-{kind}"
        expected: dict = {}
        csv = _write(obs, workdir / f"{run_id}.csv", run_id, expected, label)
        argv = ["check", str(model), str(csv), "--namespace", str(names)]
        if kind == "projected":
            argv.append("--project")
        ops.append(Op(run_id, argv, 1, verdict_check(expected, "text"),
                      expected=expected))
    return ops


BATCH_KINDS = ["feasible"] * 4 + ["equality", "facet"] * 2


def batch_pool(seed: int, workdir: Path, h: gen.Haswell, r: int) -> list[Op]:
    model, names = workdir / gen.MODEL_FILE, workdir / gen.COUNTERS_FILE
    expected: dict = {}
    csvs = []
    for i, k in enumerate(gen.seeded(seed, 55, r).permutation(BATCH_KINDS)):
        kind = str(k)
        stream = 100 * (r + 1) + i
        if kind == "feasible":
            obs, label = h.feasible(seed, stream)
        else:
            obs, label = h.infeasible(seed, stream, kind)
        run_id = f"b{r}-{i}-{kind}"
        csvs.append(str(_write(obs, workdir / f"{run_id}.csv", run_id, expected, label)))
    argv = ["check", str(model), *csvs, "--namespace", str(names), "--format", "json"]
    return [Op(f"batch{r}", argv, len(csvs), verdict_check(expected, "json"),
               pool=True, expected=expected)]


def _product_generators(m: gen.ProductModel) -> list[dict[str, int]]:
    out = []
    for combo in itertools.product(*m.cases):
        g = {c: 1 for c in combo}
        if m.total:
            g[f"{m.prefix}.total"] = 1
        out.append(g)
    return out


def deduce_explore(seed: int, workdir: Path, h: gen.Haswell, r: int) -> list[Op]:
    model, names = workdir / gen.MODEL_FILE, workdir / gen.COUNTERS_FILE
    haswell_gens = [
        {n: int(c) for n, c in zip(h.namespace.names, row) if c} for row in h.sigs.tolist()
    ]
    ops = [Op("constraints-haswell",
              ["constraints", str(model), "--namespace", str(names), "--format", "json"], 1,
              constraints_check(HASWELL_SIZES, haswell_gens, SIZE_SUM_EQUALITIES))]
    for i, (shape, total) in enumerate(GENERATED_SHAPES):
        m = gen.ProductModel(shape=shape, total=total, seed=1000 * seed + r, prefix=f"m{i}")
        path = workdir / f"product{r}-{i}.mudd"
        path.write_text(m.source(), encoding="utf-8")
        ops.append(Op(f"constraints-product{i}",
                      ["constraints", str(path), "--format", "json"], 1,
                      constraints_check(m.expected_sizes(), _product_generators(m))))
    catdir = workdir / f"catalog{r}"
    catdir.mkdir(exist_ok=True)
    expected = gen.catalog(1000 * seed + r, catdir)
    ops.append(Op("explore-generated",
                  ["explore", str(catdir / "catalog.json"), "--format", "json"],
                  len(expected["expansion"]), explore_check(expected)))
    bundled = workdir / "bundled" / "search_catalog.json"
    if not bundled.exists():
        shutil.copytree(Path(str(gen.bundled_path("catalog"))), bundled.parent)
    bundled_edges = sum(1 for e in json.loads(bundled.read_text())["entries"]
                        if e.get("parent") and e["parent"]["kind"] == "relaxation")
    ops.append(Op("explore-bundled", ["explore", str(bundled)], bundled_edges,
                  bundled_explore_check))
    return ops


WORKLOADS = {
    "refine-single": refine_single,
    "batch-pool": batch_pool,
    "deduce-explore": deduce_explore,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The workload's rounds of inputs, written under `workdir`."""
    workdir.mkdir(parents=True, exist_ok=True)
    h = gen.Haswell.load()
    model, names = gen.copy_model(workdir)
    rounds = [WORKLOADS[name](seed, workdir, h, r) for r in range(ROUNDS[name])]
    sizes = {"counters": len(h.namespace), "paths": len(h.sigs), "samples": gen.SAMPLES,
             "invocations_per_pass": len(rounds[0]), "rounds": len(rounds)}
    if name != "deduce-explore":
        sizes["csvs_per_invocation"] = len(BATCH_KINDS) if name == "batch-pool" else 1
    else:
        sizes["generated_shapes"] = [[list(s), t] for s, t in GENERATED_SHAPES]
    kind = "constraint sets and expansion edges" if name == "deduce-explore" else "verdict cells"
    setup = Op("paths", ["paths", str(model), "--namespace", str(names)], 1,
               paths_check(len(h.sigs)))
    return Workload(name, rounds, setup, sizes, kind)
