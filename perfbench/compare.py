#!/usr/bin/env python3
"""Compare two commits on the benchmark: run alternating pairs, then decide.

    python3 perfbench/compare.py run --parent DIR --change DIR --out pairs.jsonl
    python3 perfbench/compare.py decide pairs.jsonl

`run` executes `perfbench/run.py` in each checkout, PAIRS pairs per
workload, with the run length from BENCHMARK.json.  Pair i uses seed
SEED0 + i for both sides; even pairs run the parent first, odd pairs the
change.  Both checkouts must hold byte-identical benchmark files, and a run
that fails (a wrong answer included) stops the comparison.

`decide` applies the rule for claiming a gain, one row per workload and
end-to-end metric:

- gain: the change wins at least 9 of every 10 pairs (ties count for
  neither) and the medians differ by more than the parent's quartile spread;
  void when the change fails more operations than the parent;
- unresolved: the parent's quartile spread, as a share of its median, is
  wider than the metric's bound, unless every change run beats every parent
  run;
- regression: the change's median is worse than the parent's by more than
  the bound;
- within bound: none of the above.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
WIN_SHARE = 0.9
PAIRS = 10
SEED0 = 1000


def _bench_files(root: Path) -> dict[str, bytes]:
    files = {"BENCHMARK.json": (root / "BENCHMARK.json").read_bytes()}
    for p in sorted((root / "perfbench").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            files[str(p.relative_to(root))] = p.read_bytes()
    return files


def run_pairs(parent: Path, change: Path, workloads: list[str], out: Path) -> None:
    if _bench_files(parent) != _bench_files(change):
        raise SystemExit("error: the two checkouts hold different benchmark files")
    spec = json.loads((parent / "BENCHMARK.json").read_text())
    seconds = str(spec["run_seconds"])
    with open(out, "a", encoding="utf-8") as fh:
        for workload in workloads:
            for i in range(PAIRS):
                seed = SEED0 + i
                order = [("parent", parent), ("change", change)]
                if i % 2:
                    order.reverse()
                for rank, (side, root) in enumerate(order):
                    proc = subprocess.run(
                        [sys.executable, "perfbench/run.py", "--workload", workload,
                         "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
                        cwd=root, capture_output=True, text=True)
                    lines = proc.stdout.strip().splitlines()
                    if proc.returncode != 0 or not lines:
                        raise SystemExit(f"error: {side} run failed:\n{proc.stderr}")
                    fh.write(json.dumps({"workload": workload, "pair": i, "seed": seed,
                                         "side": side, "first": rank == 0,
                                         "result": json.loads(lines[-1])}) + "\n")
                    fh.flush()
                    print(f"{workload} pair {i} {side} done", file=sys.stderr)


def _better(a: float, b: float, lower: bool) -> bool:
    return a < b if lower else a > b


def decide_metric(parent: list[float], change: list[float], better: str, bound: float,
                  more_failures: bool = False) -> dict:
    """Verdict for one metric on one workload; lists are aligned by pair."""
    lower = better == "lower"
    n = len(parent)
    wins = sum(_better(c, p, lower) for p, c in zip(parent, change))
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    iqr = q3 - q1
    spread = iqr / med_p if med_p else float("inf")
    worse_by = ((med_c - med_p) if lower else (med_p - med_c)) / med_p if med_p else 0.0
    all_better = all(_better(c, p, lower) for c in change for p in parent)
    if wins >= WIN_SHARE * n and abs(med_c - med_p) > iqr and worse_by < 0:
        verdict = "gain (void: more failures)" if more_failures else "gain"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regression"
    else:
        verdict = "within bound"
    return {"pairs": n, "wins": wins, "parent_median": med_p, "parent_q1": q1,
            "parent_q3": q3, "change_median": med_c, "spread": spread,
            "worse_by": worse_by, "bound": bound, "verdict": verdict}


def decide(records: list[dict], spec: dict) -> list[dict]:
    rows = []
    for workload in dict.fromkeys(r["workload"] for r in records):
        by_pair: dict[int, dict[str, dict]] = {}
        for r in records:
            if r["workload"] == workload:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
        complete = [v for _, v in sorted(by_pair.items()) if len(v) == 2]
        if len(complete) < 2:
            continue
        failed = {s: sum(v[s]["failed"] for v in complete) for s in ("parent", "change")}
        for m in spec["end_to_end"]:
            name = m["name"]
            row = decide_metric([v["parent"]["metrics"][name]["value"] for v in complete],
                                [v["change"]["metrics"][name]["value"] for v in complete],
                                m["better"], m["bound"], failed["change"] > failed["parent"])
            row.update({"workload": workload, "metric": name, "unit": m["unit"],
                        "failed_parent": failed["parent"], "failed_change": failed["change"]})
            rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two commits on the benchmark.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run", help="run alternating pairs of parent and change")
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    d = sub.add_parser("decide", help="apply the gain and regression rule to pairs")
    d.add_argument("pairs", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads(BENCHMARK.read_text())
    if args.cmd == "run":
        run_pairs(args.parent.resolve(), args.change.resolve(),
                  [w["name"] for w in spec["workloads"]], args.out)
        return 0
    records = [json.loads(line) for line in args.pairs.read_text().splitlines() if line]
    rows = decide(records, spec)
    print(f"{'workload':16} {'metric':12} {'parent median [q1, q3]':>30} "
          f"{'change':>10} {'wins':>7}  verdict")
    for r in rows:
        print(f"{r['workload']:16} {r['metric']:12} {r['parent_median']:12.4g} "
              f"[{r['parent_q1']:.4g}, {r['parent_q3']:.4g}]".ljust(60)
              + f"{r['change_median']:10.4g} {r['wins']:>3}/{r['pairs']:<3}  {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
