"""Command-line surface: paths, constraints, check, explore, synth.

Exit codes: 0 all feasible / success, 1 some observation infeasible,
2 any error (parse diagnostics, bad input files, broken references).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import dsl, exploration
from .errors import MuddError
from .geometry import deduce_constraints
from .model import DEFAULT_PATH_CAP, CounterNamespace, enumerate_mupaths, signature_of


# input errors: one `error: ...` line on stderr, and exit 2
_INPUT_ERRORS = (MuddError, OSError, ValueError)
_CONFIG_KEYS = ("alpha", "cap", "format", "jobs")


@dataclass
class RunConfig:
    """Resolved run settings: flags beat the config file, which beats
    environment and built-in defaults."""

    alpha: float = 0.01
    cap: int = DEFAULT_PATH_CAP
    output_format: str = "text"
    jobs: int = 1
    project: bool = False
    independent: bool = False
    namespace: Optional[CounterNamespace] = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise MuddError("alpha must lie in (0, 1)")
        if 1.0 - self.alpha == 1.0:
            raise MuddError(f"alpha {self.alpha!r} is too small: 1 - alpha rounds to 1")
        if self.cap < 1:
            raise MuddError("cap must be at least 1")
        if self.output_format not in ("text", "json"):
            raise MuddError(f"unknown output format {self.output_format!r}")
        if self.jobs < 1:
            raise MuddError("jobs must be at least 1")

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        path = getattr(args, "config", None)
        overrides = _read_config_file(path)

        def pick(flag, key, cast, fallback):
            value = getattr(args, flag, None)
            if value is not None:
                return value
            if key not in overrides:
                return fallback
            text, lineno = overrides[key]
            try:
                return cast(text)
            except ValueError:
                raise MuddError(
                    f"{path}:{lineno}: {key}: {text!r} is not a valid {cast.__name__}"
                ) from None

        jobs = pick("jobs", "jobs", int, None)
        return cls(
            alpha=pick("alpha", "alpha", float, 0.01),
            cap=pick("cap", "cap", int, DEFAULT_PATH_CAP),
            output_format=pick("format", "format", str, "text"),
            jobs=_default_jobs(args) if jobs is None else jobs,
            project=bool(getattr(args, "project", False)),
            independent=bool(getattr(args, "independent", False)),
            namespace=_load_namespace(getattr(args, "namespace", None)),
        )


def _load_namespace(path):
    if path is None:
        return None
    names = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            names.append(line)
    return CounterNamespace(names)


def _read_config_file(path) -> dict:
    """key=value lines supply defaults for flags the user did not pass;
    maps each key to its value text and line number."""
    if not path:
        return {}
    overrides = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise MuddError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise MuddError(
                f"{path}:{lineno}: unknown key {key!r}; valid keys are "
                + ", ".join(_CONFIG_KEYS)
            )
        overrides[key] = (value, lineno)
    return overrides


def _default_jobs(args) -> int:
    """MUDD_JOBS when it is set and the subcommand takes --jobs, else 1."""
    env = os.environ.get("MUDD_JOBS")
    if not env or not hasattr(args, "jobs"):
        return 1
    try:
        jobs = int(env)
    except ValueError:
        raise MuddError(f"MUDD_JOBS: {env!r} is not a valid int") from None
    if jobs < 1:
        raise MuddError(f"MUDD_JOBS: {env!r} is less than 1")
    return jobs


def cmd_paths(args, cfg: RunConfig) -> int:
    model = dsl.parse_file(args.model, cfg.namespace)
    paths = enumerate_mupaths(model, cfg.cap)
    if cfg.output_format == "json":
        rows = []
        for p in paths:
            sig = signature_of(p, model.namespace)
            rows.append(
                {
                    "properties": dict(p.property_assignment),
                    "signature": {
                        n: c for n, c in zip(model.namespace.names, sig.counts) if c
                    },
                }
            )
        print(json.dumps(rows, indent=2))
        return 0
    for i, p in enumerate(paths, 1):
        sig = signature_of(p, model.namespace)
        counts = " ".join(
            f"{n}={c}" for n, c in zip(model.namespace.names, sig.counts) if c
        )
        print(f"{i}. {p.describe()} | {counts or '(all zero)'}")
    return 0


def cmd_constraints(args, cfg: RunConfig) -> int:
    model = dsl.parse_file(args.model, cfg.namespace)
    constraints = deduce_constraints(model, cfg.cap)
    if cfg.output_format == "json":
        print(json.dumps(constraints.to_json(), indent=2))
        return 0
    print(f"Equalities ({len(constraints.equalities)}):")
    for c in constraints.equalities:
        print(c.display(model.namespace))
    print(f"Inequalities ({len(constraints.inequalities)}):")
    for c in constraints.inequalities:
        print(c.display(model.namespace))
    return 0


def cmd_check(args, cfg: RunConfig) -> int:
    from . import feasibility, stats

    model = dsl.parse_file(args.model, cfg.namespace)
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
                    stats.load_observations(p, model.namespace, project=cfg.project)
                )
            except _INPUT_ERRORS as exc:
                failure = exc
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        if failure is not None:
            print(f"error: {failure}", file=sys.stderr)
            load_failed = True
    if not observations:
        return 2
    cells = feasibility.batch_check(
        [(Path(args.model).stem, model)],
        observations,
        cfg.alpha,
        cap=cfg.cap,
        independent=cfg.independent,
        jobs=cfg.jobs,
    )
    if cfg.output_format == "json":
        print(feasibility.verdict_table_json(cells))
    else:
        print(feasibility.verdict_table_text(cells))
    if load_failed or any(c.error for c in cells):
        return 2
    if any(not c.verdict.feasible for c in cells):
        return 1
    return 0


def cmd_explore(args, cfg: RunConfig) -> int:
    catalog = exploration.load_catalog(args.catalog)
    expansion = exploration.expansion_results(catalog, cfg.cap)
    if cfg.output_format == "json":
        print(exploration.report_json(catalog, expansion))
    else:
        print(exploration.render_search_report(catalog, expansion), end="")
    return 0


def _parse_noise(text, n):
    if text is None:
        return 0.0
    parts = [p for p in text.split(",") if p.strip()]
    values = [float(p) for p in parts]
    if len(values) == 1:
        return values[0]
    if len(values) != n:
        raise MuddError(f"--noise needs 1 or {n} values, got {len(values)}")
    return values


def cmd_synth(args, cfg: RunConfig) -> int:
    from . import stats

    try:
        from . import synth
    except ModuleNotFoundError as exc:
        if (exc.name or "").partition(".")[0] != "numpy":
            raise
        raise MuddError("mudd synth needs numpy (pip install 'mudd[synth]')") from None

    model = dsl.parse_file(args.model, cfg.namespace)
    paths = enumerate_mupaths(model, cfg.cap)
    parts = [p for p in args.flows.split(",") if p.strip()]
    flows = [float(p) for p in parts]
    if len(flows) == 1:
        flows = flows * len(paths)
    if len(flows) != len(paths):
        raise MuddError(f"--flows needs 1 or {len(paths)} values, got {len(flows)}")
    spec = synth.SynthSpec(
        model=model,
        flows=tuple(flows),
        samples=args.samples,
        noise=_parse_noise(args.noise, len(model.namespace)),
        seed=args.seed,
    )
    obs = synth.generate(spec, run_id=Path(args.model).stem, cap=cfg.cap)
    if args.output:
        stats.write_observations(obs, args.output)
    else:
        stats.write_observations(obs, sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mudd",
        description="Model micro-op counter behavior and test observations against it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, namespace=True):
        p.add_argument("--cap", type=int, default=None, help="path enumeration cap")
        if namespace:
            p.add_argument("--namespace", help="file listing counter names, one per line")
        p.add_argument("--format", choices=["text", "json"], default=None)
        p.add_argument("--config", help="key=value defaults file")

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
    p.add_argument("--alpha", type=float, default=None, help="significance level")
    p.add_argument("--project", action="store_true",
                   help="restrict the namespace to counters present in each CSV")
    p.add_argument("--independent", action="store_true",
                   help="ablation: drop counter correlations from the region")
    p.add_argument("--jobs", type=int, default=None,
                   help="parallel observation checks (default MUDD_JOBS or 1)")
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
    p.add_argument("--noise", default=None,
                   help="gaussian sigma, scalar or comma-separated per counter")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", help="write CSV here instead of stdout")
    common(p)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.from_args(args)
        return args.func(args, cfg)
    except dsl.DslParseError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    try:
        code = main()
    except Exception:  # a bug, not an input error: exit 2, never 1 (infeasible)
        traceback.print_exc()
        code = 2
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
