#!/usr/bin/env python3
"""The mudd benchmark: seeded inputs, the CLI as a user runs it, checked answers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is run from `src/`.
Workloads are `refine-single`, `batch-pool` and `deduce-explore` (see
`workloads.py`).  Each is a closed loop with one client: one `mudd` process
at a time, started only after the previous one has exited.

With `--trace 0` the benchmark builds the workload's inputs from the seed,
then times `SETUP_REPEATS` fresh `mudd paths` processes (`setup_s` is their
median), then runs the workload's pass of CLI invocations once for each of
its fixed rounds, each round on its own inputs, and prints the end-to-end
metrics.  The work of a run is fixed; `--seconds` only caps it: a round is
not started when, at the median pass time so far, it would end after
`--seconds` (the first round always runs).

- setup_s      median wall time of a fresh `mudd paths` on the workload model
- wall_s       median wall time of one pass (the workload's whole sequence)
- ops_per_s    results of one pass per second of wall_s; a result is a
               verdict cell, a deduced constraint set or a checked expansion
               edge
- call_p50_s   median wall time of one invocation
- peak_rss_mb  peak resident memory of the CLI processes: the summed RSS of
               a CLI process and its pool workers, sampled every 50 ms, or
               the largest single process's peak RSS if that is higher

With `--trace 1` it runs the first round's pass in this process through
`mudd.cli.main`, once untraced and once with `tracing.Tracer` wrapping every
layer, at `--jobs 1`, and prints the per-layer metrics.  Layer times are
totals over one traced pass.  For `batch-pool` it also times `batch_check`
at `--jobs` = nproc to give the pool efficiency.

Every invocation's exit code and output are checked against the known
answer; the last line of stdout is one JSON object with `correct`,
`attempted`, `failed` (operations are invocations) and `metrics`, and the
exit code is 1 when any operation failed.  A record
with the environment, seed, input sizes and raw timings is written under
`.bench_work/results/`.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 8
CALL_TIMEOUT = 170.0
RSS_INTERVAL = 0.05



def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# running the CLI


def _tree(pid: int) -> list[int]:
    """pid and all its descendants, from /proc/<pid>/task/*/children."""
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        try:
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except OSError:
            continue
    return out


def _rss_mb(pids: list[int]) -> float:
    total = 0
    for p in pids:
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                        break
        except OSError:
            continue
    return total / 1024.0


class Runner:
    """Runs `python -m mudd ...` from src/ and records wall time and memory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items() if k != "MUDD_JOBS"}
        self.env["PYTHONPATH"] = str(SRC)
        self.peak_mb = 0.0

    def run(self, argv: list[str]) -> tuple[float, int, str, str]:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "mudd", *argv], cwd=self.workdir,
                                env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        done = threading.Event()

        def sample():
            while not done.wait(RSS_INTERVAL):
                self.peak_mb = max(self.peak_mb, _rss_mb(_tree(proc.pid)))

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            out, err = proc.communicate(timeout=CALL_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            err += f"\nkilled after {CALL_TIMEOUT} s"
        finally:
            done.set()
            sampler.join()
        # the largest single process, which sampling can miss on short calls
        largest = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        self.peak_mb = max(self.peak_mb, largest)
        return time.perf_counter() - start, proc.returncode, out, err


def run_inprocess(argv: list[str]) -> tuple[int, str, str]:
    import mudd.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mudd.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# measuring


class Tally:
    """Attempted and failed operations, with the failures spelled out."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, label: str, code: int, out: str, err: str, check) -> None:
        self.attempted += 1
        fails = check(code, out)
        if fails:
            self.failed += 1
            if err.strip():
                fails.append("stderr: " + err.strip().splitlines()[-1])
        self.failures += [f"{label}: {f}" for f in fails]

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.failures.append(message)


def measure_setup(w, runner: Runner, tally: Tally) -> list[float]:
    runner.run(w.setup.args(1))  # fills the bytecode cache; not timed
    times = []
    for _ in range(SETUP_REPEATS):
        dt, code, out, err = runner.run(w.setup.args(1))
        tally.record("setup", code, out, err, w.setup.check)
        times.append(dt)
    return times


def measure(w, seconds: float, runner: Runner, tally: Tally) -> dict:
    """One pass per round, each on its round's inputs; a round that would end
    after `seconds`, at the median pass time so far, is not started."""
    jobs = nproc()
    passes: list[float] = []
    calls: list[float] = []
    start = time.perf_counter()
    for ops in w.rounds:
        if passes and time.perf_counter() - start + statistics.median(passes) > seconds:
            print(f"warning: --seconds {seconds:g} reached after {len(passes)} of "
                  f"{len(w.rounds)} rounds", file=sys.stderr)
            break
        t0 = time.perf_counter()
        for op in ops:
            dt, code, out, err = runner.run(op.args(jobs))
            tally.record(op.label, code, out, err, op.check)
            calls.append(dt)
        passes.append(time.perf_counter() - t0)
    return {"passes": passes, "calls": calls, "jobs": jobs}


def traced(w, tally: Tally, workdir: Path) -> tuple[dict, dict]:
    from tracing import Tracer

    def one_pass(jobs: int):
        verdicts, t0 = [], time.perf_counter()
        for op in w.rounds[0]:
            code, out, err = run_inprocess(op.args(jobs))
            tally.record(op.label, code, out, err, op.check)
            verdicts.append((code, out))
        return time.perf_counter() - t0, verdicts

    untraced_s, plain = one_pass(1)
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, seen = one_pass(1)
    finally:
        tracer.uninstall()
    if seen != plain:
        tally.fail("trace: traced outputs differ from untraced ones")
    tracer.dump(workdir / "spans.json")

    # pool efficiency: cell time at --jobs 1 against batch_check wall at nproc
    cell_s = (tracer.under("stats.region", "feasibility.batch")
              + tracer.under("feasibility.check", "feasibility.batch"))
    pool_wall = 0.0
    if any(op.pool for op in w.rounds[0]):
        pool = Tracer()
        pool.install()
        try:
            for op in w.rounds[0]:
                if op.pool:
                    code, out, err = run_inprocess(op.args(nproc()))
                    tally.record(op.label, code, out, err, op.check)
        finally:
            pool.uninstall()
        pool_wall = pool.total("feasibility.batch")
    else:
        cell_s = 0.0

    c = tracer.counts
    layer = {
        "dsl.parse_s": tracer.total("dsl.parse"),
        "model.enumerate_s": tracer.total("model.enumerate"),
        "model.paths": c.get("model.paths", 0),
        "geometry.deduce_s": tracer.total("geometry.deduce"),
        "geometry.equalities_s": tracer.total("geometry.equalities"),
        "geometry.interior_s": tracer.total("geometry.interior"),
        "geometry.hull_s": tracer.self_time("geometry.hull"),
        "hull.hull_s": tracer.total("hull.hull"),
        "geometry.generators": c.get("geometry.generators", 0),
        "geometry.extreme_rays": c.get("geometry.extreme_rays", 0),
        "geometry.facets": c.get("geometry.facets", 0),
        "linprog.box_s": tracer.total("linprog.box"),
        "linprog.box_calls": c.get("linprog.box_calls", 0),
        "linprog.membership_s": tracer.total("linprog.membership"),
        "linprog.membership_calls": c.get("linprog.membership_calls", 0),
        "linprog.rows": c.get("linprog.rows", 0),
        "linprog.cols": c.get("linprog.cols", 0),
        "linprog.input_bits": c.get("linprog.input_bits", 0),
        "stats.load_s": tracer.total("stats.load"),
        "stats.region_s": tracer.total("stats.region"),
        "feasibility.check_s": tracer.self_time("feasibility.check"),
        "feasibility.attribute_s": tracer.total("feasibility.attribute"),
        "feasibility.cells": c.get("feasibility.cells", 0),
        "feasibility.infeasible": c.get("feasibility.infeasible", 0),
        "feasibility.unexplained": c.get("feasibility.unexplained", 0),
        "feasibility.cell_s": cell_s,
        "feasibility.pool_wall_s": pool_wall,
        "feasibility.pool_efficiency": cell_s / (nproc() * pool_wall) if pool_wall else 0.0,
        "exploration.expansion_s": tracer.total("exploration.expansion"),
        "exploration.edges": c.get("exploration.edges", 0),
        "exploration.membership_checks": c.get("exploration.membership_checks", 0),
        "cli.self_s": tracer.self_time("cli.main"),
        "trace.traced_wall_s": traced_s,
        "trace.untraced_wall_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
    }
    return layer, {"traced_s": traced_s, "untraced_s": untraced_s, "spans": len(tracer.spans)}


# ---------------------------------------------------------------------------
# reporting


def environment(seed: int) -> dict:
    import numpy
    import scipy

    commit = "unknown"  # a checkout exported without .git has no commit to report
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": commit, "seed": seed, "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mudd" / "__init__.py").is_file():
        print(f"error: no mudd sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    t0 = time.perf_counter()
    w = workloads.build(args.workload, args.seed, workdir)
    gen_s = time.perf_counter() - t0

    tally = Tally()
    record = {"workload": w.name, "trace": args.trace, "seconds": args.seconds,
              "env": environment(args.seed), "sizes": w.sizes, "gen_s": gen_s}
    if args.trace:
        metrics, extra = traced(w, tally, workdir)
        record.update(extra)
        print(f"{w.name} traced pass: {extra['traced_s']:.3f} s, untraced "
              f"{extra['untraced_s']:.3f} s, overhead "
              f"{extra['traced_s'] - extra['untraced_s']:+.3f} s, {extra['spans']} spans")
    else:
        runner = Runner(workdir)
        setup = measure_setup(w, runner, tally)
        m = measure(w, args.seconds, runner, tally)
        wall = statistics.median(m["passes"])
        results = sum(op.results for op in w.rounds[0])
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "ops_per_s": results / wall,
            "call_p50_s": statistics.median(m["calls"]),
            "peak_rss_mb": runner.peak_mb,
        }
        record.update({"setup_runs": setup, **m})
        print(f"{w.name} seed {args.seed}: inputs {w.sizes}, nproc {m['jobs']}")
        print(f"  setup_s     {metrics['setup_s']:.4f} s (median of {len(setup)})")
        print(f"  wall_s      {wall:.4f} s (median pass of {len(w.rounds[0])} invocations,"
              f" {len(m['passes'])} passes)")
        print(f"  ops_per_s   {metrics['ops_per_s']:.4f} 1/s ({results} {w.result_kind}"
              f" per pass)")
        print(f"  call_p50_s  {metrics['call_p50_s']:.4f} s (n={len(m['calls'])})")
        print(f"  peak_rss_mb {metrics['peak_rss_mb']:.1f} MB (summed RSS)")
    if units.keys() != metrics.keys():
        print(f"error: measured {sorted(metrics)}, BENCHMARK.json names {sorted(units)}",
              file=sys.stderr)
        return 2
    failed = tally.failed
    print(f"  error_rate  {failed}/{tally.attempted} operations failed")
    for f in tally.failures:
        print(f"  FAILED {f}", file=sys.stderr)

    record.update({"metrics": metrics, "attempted": tally.attempted, "failed": failed,
                   "failures": tally.failures})
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
