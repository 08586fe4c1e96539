"""Feasibility of confidence regions against model cones.

The decision is a pure-feasibility linear program over counter variables v
and one non-negative flow variable per path: v equals the flow-weighted sum
of signatures, and v stays inside the region's principal-axis box. Region
bounds are floats; every finite float is a rational, so converting them
exactly keeps the verdict free of solver tolerances. When a region is
infeasible, each explicit constraint is tested against the whole box to name
the violated ones.
"""
from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import linprog
from .errors import DimensionMismatch, MuddError, PathExplosion
from .geometry import Constraint, ConstraintSet, constraints_from_signatures
from .model import (
    DEFAULT_PATH_CAP,
    CounterNamespace,
    CounterSignature,
    MuDD,
    MuPath,
    enumerate_mupaths,
    signature_of,
    signatures_of_model,
)
from .stats import ConfidenceRegion, ObservationSet, build_confidence_region


def _sig_counts(sig) -> tuple[int, ...]:
    if isinstance(sig, CounterSignature):
        return tuple(int(c) for c in sig.counts)
    return tuple(int(c) for c in sig)


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    witness_flow: Optional[tuple[Fraction, ...]] = None  # aligned with input paths
    witness_point: Optional[tuple[Fraction, ...]] = None
    violated_constraints: tuple[Constraint, ...] = ()

    def to_json(self, namespace=None) -> dict:
        out: dict = {"feasible": self.feasible}
        if self.witness_point is not None:
            out["witness_point"] = [float(x) for x in self.witness_point]
        if self.witness_flow is not None:
            out["witness_flow"] = {
                str(i): float(f) for i, f in enumerate(self.witness_flow) if f != 0
            }
        if namespace is not None:
            out["violated_constraints"] = [
                c.display(namespace) for c in self.violated_constraints
            ]
        else:
            out["violated_constraints"] = [
                list(c.coefficients) for c in self.violated_constraints
            ]
        return out


def _region_bounds_exact(region: ConfidenceRegion):
    center = [Fraction(float(x)) for x in region.center]
    axes = [[Fraction(float(x)) for x in row] for row in region.axes]
    half = [Fraction(float(x)) for x in region.half_lengths]
    return center, axes, half


def check_feasibility(
    model_sigs: Sequence,
    region: ConfidenceRegion,
    *,
    cap: int = DEFAULT_PATH_CAP,
    compress: bool = True,
    constraints: Optional[ConstraintSet] = None,
) -> FeasibilityVerdict:
    """Decide whether the region intersects the cone of the given signatures.

    Equal signatures share one flow variable, which provably leaves the
    feasible counter set unchanged (the merged flow is the sum of the
    originals); the witness flow is aligned with the input paths and puts
    each merged flow on the first path of its signature. `compress` is
    accepted and ignored: merging is the only formulation. When infeasible
    and a ConstraintSet is supplied, the violated constraints are attributed
    against the same box.
    """
    sigs = tuple(_sig_counts(s) for s in model_sigs)
    if len(sigs) > cap:
        raise PathExplosion(f"{len(sigs)} flow variables exceed the cap of {cap}")
    n = region.dimension
    for s in sigs:
        if len(s) != n:
            raise DimensionMismatch(
                f"signature dimension {len(s)} does not match region dimension {n}"
            )
        if any(c < 0 for c in s):
            raise ValueError("signatures must be non-negative")

    owners: dict[tuple[int, ...], int] = {}  # signature -> its first input index
    for i, s in enumerate(sigs):
        owners.setdefault(s, i)
    lp_sigs = list(owners)

    center, axes, half = _region_bounds_exact(region)
    p = len(lp_sigs)

    # The LP has variables v >= 0 and f >= 0 with v = sum_p sig_p * f_p and
    # the box bounds on v. Substituting v through the flow equation is an
    # exact presolve: signatures are non-negative so v >= 0 is implied, and
    # the counter witness is reconstructed from the flows afterwards.
    # box: -(h_i) <= e_i . (v - center) <= h_i, with v = sum sig_k f_k
    a_ub = []
    b_ub = []
    for i in range(n):
        e = axes[i]
        proj_center = sum((e[j] * center[j] for j in range(n)), Fraction(0))
        row = [
            sum((e[j] * s[j] for j in range(n) if s[j]), Fraction(0))
            for s in lp_sigs
        ]
        a_ub.append(row)
        b_ub.append(proj_center + half[i])
        a_ub.append([-x for x in row])
        b_ub.append(half[i] - proj_center)

    solution = linprog.feasible_point(p, (), (), a_ub, b_ub)
    if solution is None:
        violated: tuple[Constraint, ...] = ()
        if constraints is not None:
            violated = attribute_violations(constraints, region)
        return FeasibilityVerdict(feasible=False, violated_constraints=violated)

    flows = [Fraction(0)] * len(sigs)
    for owner, flow in zip(owners.values(), solution):
        flows[owner] = flow
    point = tuple(
        sum((Fraction(s[i]) * f for s, f in zip(sigs, flows) if f), Fraction(0))
        for i in range(n)
    )
    # exact sanity: the reconstructed point lies in the stated box
    for i in range(n):
        e = axes[i]
        offset = sum((e[j] * (point[j] - center[j]) for j in range(n)), Fraction(0))
        if abs(offset) > half[i]:
            raise ArithmeticError("witness point escaped the confidence box")
    return FeasibilityVerdict(
        feasible=True, witness_flow=tuple(flows), witness_point=point
    )


def attribute_violations(
    constraints: ConstraintSet, region: ConfidenceRegion
) -> tuple[Constraint, ...]:
    """Constraints whose half-space (or hyperplane) the whole region misses.

    Over the box, a linear form a.v ranges over
    [a.center - s, a.center + s] with s = sum_i |a.axes_i| * half_i.
    An inequality a.v >= 0 is violated when the maximum is negative; an
    equality when the interval excludes zero. A region can be disjoint from
    the cone while straddling a corner of it, in which case no single
    constraint is violated everywhere and this returns empty.
    """
    center, axes, half = _region_bounds_exact(region)
    n = len(center)
    out = []
    for constraint in constraints:
        a = constraint.coefficients
        if len(a) != n:
            raise DimensionMismatch("constraint dimension does not match region")
        base = sum((Fraction(a[j]) * center[j] for j in range(n)), Fraction(0))
        spread = Fraction(0)
        for i in range(n):
            if half[i] == 0:
                continue
            proj = sum((Fraction(a[j]) * axes[i][j] for j in range(n)), Fraction(0))
            spread += abs(proj) * half[i]
        lo, hi = base - spread, base + spread
        if constraint.kind == "inequality":
            if hi < 0:
                out.append(constraint)
        else:
            if hi < 0 or lo > 0:
                out.append(constraint)
    return tuple(out)


def refinement_candidates(
    violated: Constraint, candidate_model: MuDD, cap: int = DEFAULT_PATH_CAP
) -> tuple[MuPath, ...]:
    """Paths of the candidate whose signatures strictly break the constraint.

    A violated inequality can only be discharged by a model containing at
    least one path whose signature fails it; the result is nonempty exactly
    when the candidate's deduced constraints no longer imply it.
    """
    if violated.kind != "inequality":
        raise ValueError("refinement candidates apply to inequality constraints")
    ns = candidate_model.namespace
    if len(violated.coefficients) != len(ns):
        raise DimensionMismatch("constraint dimension does not match model namespace")
    out = []
    for path in enumerate_mupaths(candidate_model, cap):
        sig = signature_of(path, ns)
        value = sum(c * x for c, x in zip(violated.coefficients, sig.counts))
        if value < 0:
            out.append(path)
    return tuple(out)


# ---------------------------------------------------------------------------
# batch checking


@dataclass(frozen=True)
class BatchCell:
    model_name: str
    run_id: str
    verdict: Optional[FeasibilityVerdict]
    error: Optional[str] = None
    namespace: Optional[CounterNamespace] = None  # the counters the verdict speaks of


def _in_namespace(sigs, model_ns: CounterNamespace, ns: CounterNamespace):
    """The model's signatures restricted to `ns`, and their constraints."""
    if ns.names != model_ns.names:
        positions = [model_ns.position(name) for name in ns.names]
        sigs = [tuple(s[i] for i in positions) for s in sigs]
    return sigs, constraints_from_signatures(sigs, ns)


def _check_cell(args):
    model_name, sigs, constraints, obs, alpha, cap, independent = args
    try:
        region = build_confidence_region(obs, alpha, independent=independent)
        verdict = check_feasibility(sigs, region, cap=cap, constraints=constraints)
        return BatchCell(model_name, obs.run_id, verdict, namespace=obs.namespace)
    except MuddError as exc:
        return BatchCell(model_name, obs.run_id, None, error=str(exc))
    except Exception as exc:  # one cell's failure must not abort the batch
        return BatchCell(model_name, obs.run_id, None,
                         error=f"{type(exc).__name__}: {exc}")


def batch_check(
    models: Sequence[tuple[str, MuDD]],
    observation_sets: Sequence[ObservationSet],
    alpha: float = 0.01,
    *,
    cap: int = DEFAULT_PATH_CAP,
    independent: bool = False,
    jobs: int = 1,
) -> tuple[BatchCell, ...]:
    """Every model against every observation; deterministic order regardless
    of parallelism. Per-cell errors are recorded, not raised.

    Each observation is checked in its own namespace, which projection may
    have restricted: the model's signatures are restricted to it and its
    constraints deduced once per distinct namespace. `independent` drops
    counter correlations from every region.
    """
    cells: list[BatchCell] = []
    work = []
    for model_name, model in models:
        try:
            base = [s.counts for s in signatures_of_model(model, cap)]
        except MuddError as exc:
            cells.extend(BatchCell(model_name, obs.run_id, None, error=str(exc))
                         for obs in observation_sets)
            continue
        deduced: dict[tuple[str, ...], tuple] = {}
        for obs in observation_sets:
            names = obs.namespace.names
            try:
                if names not in deduced:
                    deduced[names] = _in_namespace(base, model.namespace, obs.namespace)
            except MuddError as exc:
                cells.append(BatchCell(model_name, obs.run_id, None, error=str(exc)))
                continue
            sigs, constraints = deduced[names]
            work.append((model_name, sigs, constraints, obs, alpha, cap, independent))

    if jobs > 1 and len(work) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            cells.extend(pool.map(_check_cell, work))
    else:
        cells.extend(_check_cell(t) for t in work)
    return tuple(sorted(cells, key=lambda c: (c.model_name, c.run_id)))


def verdict_table_json(cells: Sequence[BatchCell]) -> str:
    rows = []
    for cell in cells:
        row: dict = {"model": cell.model_name, "run": cell.run_id}
        if cell.error is not None:
            row["error"] = cell.error
        else:
            row.update(cell.verdict.to_json(cell.namespace))
        rows.append(row)
    return json.dumps(rows, indent=2)


def verdict_table_text(cells: Sequence[BatchCell]) -> str:
    lines = []
    for cell in cells:
        if cell.error is not None:
            lines.append(f"{cell.model_name} x {cell.run_id}: error: {cell.error}")
            continue
        if cell.verdict.feasible:
            lines.append(f"{cell.model_name} x {cell.run_id}: feasible")
        else:
            lines.append(f"{cell.model_name} x {cell.run_id}: INFEASIBLE")
            for c in cell.verdict.violated_constraints:
                if cell.namespace is not None:
                    rendered = c.display(cell.namespace)
                else:
                    rendered = str(list(c.coefficients))
                lines.append(f"    violated: {rendered}")
    return "\n".join(lines)
