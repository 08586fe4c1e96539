"""Command-line surface: paths, constraints, check, explore, synth.

This module alone knows the output formats. Each printing subcommand
returns its exit code, one JSON-ready result and its text renderer, which
yields the lines of the text output from that result; `main` prints the
result as JSON under `--format json`, else as that text. `synth` writes CSV.

Exit codes: 0 all feasible / success, 1 some observation infeasible,
2 any error (parse diagnostics, bad input files, broken references). A
closed stdout ends the process by SIGPIPE, silently.
"""
from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys
from pathlib import Path

from . import dsl
from .errors import MuddError, read_text
from .model import CounterNamespace, describe_decisions, enumerate_mupaths

# a subcommand imports what only it runs in its own body, so that `paths`
# loads no module beyond `dsl` and `model`

# input errors: one `error: ...` line on stderr, and exit 2; an output
# encoding that cannot spell a file name counts as one. Files mudd opens by
# name raise MuddError, so OSError is here for what fails under them: a
# check pool that cannot start its workers, or a stdout write that fails
# with something other than a closed pipe (a full disk)
_INPUT_ERRORS = (MuddError, OSError, UnicodeEncodeError)


def _load_namespace(path):
    if path is None:
        return None
    names: dict[str, int] = {}  # name -> its line
    for lineno, line in enumerate(read_text(path, path).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line in names:
            raise MuddError(f"{path}:{lineno}: duplicate counter name {line!r} "
                            f"(first on line {names[line]})")
        names[line] = lineno
    return CounterNamespace(names)


def cmd_paths(args):
    model = dsl.parse_file(args.model, _load_namespace(args.namespace))
    names = model.namespace.names
    return 0, [
        {"properties": dict(p.property_assignment),
         "signature": {n: c for n, c in zip(names, p.counts) if c}}
        for p in enumerate_mupaths(model)
    ], _paths_text


def _paths_text(rows):
    for i, row in enumerate(rows, 1):
        counts = " ".join(f"{n}={c}" for n, c in row["signature"].items())
        yield (f"{i}. {describe_decisions(row['properties'].items())} | "
               f"{counts or '(all zero)'}")


def cmd_constraints(args):
    from . import geometry

    model = dsl.parse_file(args.model, _load_namespace(args.namespace))
    names = model.namespace.names
    return 0, [
        {"kind": c.kind,
         "coefficients": {names[i]: x for i, x in enumerate(c.coefficients) if x},
         "display": c.display(model.namespace),
         "provenance": c.provenance}
        for c in geometry.deduce_constraints(model)
    ], _constraints_text


def _constraints_text(rows):
    for kind, title in (("equality", "Equalities"), ("inequality", "Inequalities")):
        shown = [c["display"] for c in rows if c["kind"] == kind]
        yield f"{title} ({len(shown)}):"
        yield from shown


def cmd_check(args):
    if args.jobs is not None and args.jobs < 1:
        raise MuddError("jobs must be at least 1")
    import warnings
    from collections import Counter

    from . import feasibility, stats

    namespace = _load_namespace(args.namespace)
    stats.check_alpha(args.alpha)
    model = dsl.parse_file(args.model, namespace)
    # a run is named by its file's stem, or by its path where CSVs share a stem
    stems = Counter(Path(p).stem for p in set(args.observations))
    observations = []
    load_failed = False
    for p in args.observations:
        # a CSV that fails to load costs its own verdict, not the batch's;
        # its warnings (unmodeled columns) print as one line each
        failure = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                observations.append(
                    stats.load_observations(p, model.namespace, project=args.project,
                                            run_id=p if stems[Path(p).stem] > 1 else None)
                )
            except _INPUT_ERRORS as exc:
                failure = exc
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        if failure is not None:
            print(f"error: {failure}", file=sys.stderr)
            load_failed = True
    if not observations:
        return 2, None, None
    cells = feasibility.batch_check(
        [(Path(args.model).stem, model)],
        observations,
        args.alpha,
        independent=args.independent,
        jobs=args.jobs,
    )
    if load_failed or any(c.error for c in cells):
        code = 2
    else:
        code = 1 if any(not c.verdict.feasible for c in cells) else 0
    return code, [_verdict_row(c) for c in cells], _check_text


def _verdict_row(cell) -> dict:
    row: dict = {"model": cell.model_name, "run": cell.run_id}
    if cell.error is not None:
        row["error"] = cell.error
        return row
    verdict = cell.verdict
    row["feasible"] = verdict.feasible
    if verdict.witness_point is not None:
        row["witness_point"] = [float(x) for x in verdict.witness_point]
    if verdict.witness_flow is not None:
        row["witness_flow"] = {str(i): float(f) for i, f in enumerate(verdict.witness_flow)
                               if f != 0}
    row["violated_constraints"] = [c.display(cell.namespace)
                                   for c in verdict.violated_constraints]
    return row


def _check_text(rows):
    for row in rows:
        head = f"{row['model']} x {row['run']}: "
        if "error" in row:
            yield f"{head}error: {row['error']}"
        elif row["feasible"]:
            yield f"{head}feasible"
        else:
            yield f"{head}INFEASIBLE"
            yield from (f"    violated: {c}" for c in row["violated_constraints"])


def cmd_explore(args):
    from . import exploration

    catalog = exploration.load_catalog(args.catalog)
    feasible, infeasible = exploration.classify(catalog)
    return 0, {
        "dataset_id": catalog.dataset_id,
        "entries": [
            {"name": e.name,
             "features": sorted(e.features),
             "infeasible_count": e.infeasible_count,
             "parent": {"name": e.parent[0], "kind": e.parent[1]} if e.parent else None}
            for e in catalog.entries
        ],
        "feasible": sorted(feasible),
        "infeasible": sorted(infeasible),
        "minimal_feasible": sorted(exploration.minimal_feasible(catalog, feasible)),
        "required_features": (sorted(exploration.required_features(catalog, feasible))
                              if feasible else None),
        "expansion": exploration.expansion_results(catalog),
    }, lambda report: _explore_text(report, catalog.feature_order)


def _explore_text(report, feature_order):
    """An aligned table of entries, features and counts, inclusion-minimal
    feasible entries starred, then the sets, the relaxation edges and a
    hint: pruning an infeasible model rarely yields a feasible one."""
    features = list(feature_order)
    for e in report["entries"]:
        features += [f for f in e["features"] if f not in features]
    rows = [["model", *features, "#infeasible", "edge"]]
    for e in report["entries"]:
        parent = e["parent"]
        mark = "* " if e["name"] in report["minimal_feasible"] else ""
        rows.append([mark + e["name"],
                     *("yes" if f in e["features"] else "." for f in features),
                     str(e["infeasible_count"]),
                     f"{parent['kind']} of {parent['name']}" if parent else ""])
    widths = [max(map(len, column)) for column in zip(*rows)]
    for row in rows:
        yield "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
    yield ""
    for key in ("feasible", "infeasible"):
        yield f"{key}: {', '.join(report[key]) or '(none)'}"
    if report["required_features"] is not None:
        yield f"required features: {', '.join(report['required_features']) or '(none)'}"
    for edge in report["expansion"]:
        status = "expands" if edge["expanded"] else "DOES NOT EXPAND"
        yield f"relaxation {edge['parent']} -> {edge['child']}: {status}"
    if report["infeasible"]:
        yield ("hint: pruning an infeasible model rarely yields a feasible one; "
               "those subtrees are usually safe to skip")


def _numbers(flag, text) -> list[float]:
    """The comma-separated numbers of `flag`."""
    values = []
    for part in filter(str.strip, text.split(",")):
        try:
            values.append(float(part))
        except ValueError:
            raise MuddError(f"{flag}: {part.strip()!r} is not a number") from None
    return values


def _count(flag, values, n) -> None:
    """Refuse `flag` unless it has one value or n of them."""
    if len(values) not in (1, n):
        needs = "1 value" if n == 1 else f"1 or {n} values"
        raise MuddError(f"{flag} needs {needs}, got {len(values)}")


def cmd_synth(args):
    from . import stats

    namespace = _load_namespace(args.namespace)  # its error comes before numpy's
    try:
        from . import synth
    except ModuleNotFoundError as exc:
        if (exc.name or "").partition(".")[0] != "numpy":
            raise
        raise MuddError("mudd synth needs numpy (pip install 'mudd[synth]')") from None

    model = dsl.parse_file(args.model, namespace)
    flows = _numbers("--flows", args.flows)
    noise = _numbers("--noise", args.noise)
    _count("--noise", noise, len(model.namespace))
    spec = synth.SynthSpec(
        model=model,
        flows=flows[0] if len(flows) == 1 else tuple(flows),
        samples=args.samples,
        noise=noise[0] if len(noise) == 1 else noise,
        seed=args.seed,
    )
    _count("--flows", flows, len(spec.paths))
    obs = synth.generate(spec, run_id=Path(args.model).stem)
    stats.write_observations(obs, args.output or sys.stdout)
    return 0, None, None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mudd",
        description="Model micro-op counter behavior and test observations against it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, namespace=True, format=True):
        if namespace:
            p.add_argument("--namespace", help="file listing counter names, one per line")
        if format:
            p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("paths", help="list paths and signatures of a model")
    p.add_argument("model")
    common(p)
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("constraints", help="deduce and print the model constraints")
    p.add_argument("model")
    common(p)
    p.set_defaults(func=cmd_constraints)

    p = sub.add_parser("check", help="test observation CSVs against a model")
    p.add_argument("model")
    p.add_argument("observations", nargs="+")
    p.add_argument("--alpha", type=float, default=0.01, help="significance level")
    p.add_argument("--project", action="store_true",
                   help="restrict the namespace to counters present in each CSV")
    p.add_argument("--independent", action="store_true",
                   help="ablation: drop counter correlations from the region")
    p.add_argument("--jobs", type=int, default=None,
                   help="at most this many check workers (default: usable CPUs)")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("explore", help="render a model-search catalog report")
    p.add_argument("catalog")
    common(p, namespace=False)  # the catalog's own `namespace` key orders counters
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("synth", help="generate synthetic observations from a model")
    p.add_argument("model")
    p.add_argument("--flows", required=True,
                   help="comma-separated per-path flows, or one value for all paths")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--noise", default="0",
                   help="gaussian sigma, scalar or comma-separated per counter")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", help="write CSV here instead of stdout")
    common(p, format=False)  # it writes CSV only
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, result, render = args.func(args)
        if result is not None:  # the one reader of --format
            if args.format == "json":
                import json

                print(json.dumps(result, indent=2))
            else:
                print("\n".join(render(result)))
        return code
    except dsl.DslParseError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except BrokenPipeError:
        raise  # not an input error: `entry` ends the process
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    # What is alive at exit dies with the process, so the collections of
    # interpreter shutdown need not walk it, and a frozen object they skip.
    # Registered before `main`, the freeze runs after every hook `main`
    # registers; a process that calls `entry` and goes on (a test) freezes
    # nothing until it exits, and registers it once however often it calls.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    try:
        code = main()
        sys.stdout.flush()  # what a pipe's buffer holds fails here, not at exit
    except BrokenPipeError:
        # the reader of stdout has gone: end silently, killed by SIGPIPE as
        # other tools end. SIGPIPE is ignored until now, so that the writes
        # of a check pool whose workers died fail and are reported.
        import signal

        if hasattr(signal, "SIGPIPE"):
            signal.signal(signal.SIGPIPE, signal.SIG_DFL)
            os.kill(os.getpid(), signal.SIGPIPE)
        code = 2
    except Exception:  # a bug, not an input error: exit 2, never 1 (infeasible)
        import traceback

        traceback.print_exc()
        code = 2
    raise SystemExit(code)
