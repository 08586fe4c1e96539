"""Feasibility of confidence regions against model cones.

A region is the principal-axis box { v : |e_i.(v - c)| <= h_i }. Its bounds
are floats, and every finite float is a dyadic rational, so scaled by one
common power of two the centre, axes and half-lengths are integers and
every test below is exact. Each observation takes one decision sequence:

1. Attribution. Every deduced constraint (an equality a.v = 0 or a facet
   a.v >= 0) is tested against the whole box. Each holds on every
   generator, hence on the cone, so a constraint that the whole box misses
   proves the box misses the cone: INFEASIBLE, with those constraints
   named, and no LP runs.
2. Witness. Otherwise the box centre is moved exactly, by the least-norm
   correction, onto the equalities and onto every axis of zero half-length.
   If the moved point v is still in the box, one exact membership LP over
   the distinct signatures looks for flows f >= 0 with S f = v; finding them
   proves v is in the cone without trusting the constraints: feasible, with
   v as the witness.
3. Fallback. Otherwise the box straddles the cone boundary (at a corner no
   single constraint excludes it) and the exact box LP decides: flows f >= 0
   whose counter vector S f lies in the box, or none.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from . import exact, linprog
from .errors import DimensionMismatch, MuddError, PathExplosion
from .geometry import Constraint, ConstraintSet, _as_vector, constraints_from_signatures
from .model import (
    DEFAULT_PATH_CAP,
    CounterNamespace,
    MuDD,
    MuPath,
    enumerate_mupaths,
    signature_of,
    signatures_of_model,
)
from .stats import ConfidenceRegion, ObservationSet, build_confidence_region


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


@dataclass(frozen=True)
class _IntegerBox:
    """A region with its centre C, axes E (rows) and half-lengths H multiplied
    by `scale`, a power of two, so that all three are integers:
    |e_i.(v - c)| <= h_i iff |E_i.(scale*v - C)| <= scale*H_i."""

    center: list[int]
    axes: list[list[int]]
    half: list[int]
    scale: int

    @classmethod
    def of(cls, region: ConfidenceRegion) -> "_IntegerBox":
        rows = [region.center, *region.axes, region.half_lengths]
        ratios = [[float(x).as_integer_ratio() for x in row] for row in rows]
        scale = max((d for row in ratios for _, d in row), default=1)  # powers of two
        ints = [[m * (scale // d) for m, d in row] for row in ratios]
        return cls(ints[0], ints[1:-1], ints[-1], scale)

    def contains(self, point: Sequence[Fraction]) -> bool:
        den = lcm(*(x.denominator for x in point))
        offset = [x.numerator * (den // x.denominator) * self.scale - den * c
                  for x, c in zip(point, self.center)]  # scale*den*(v - c)
        return all(abs(exact.dot(e, offset)) <= self.scale * den * h
                   for e, h in zip(self.axes, self.half))


@dataclass(frozen=True)
class _Signatures:
    """Validated signatures: the number of paths, the distinct signatures,
    and the first path index of each."""

    paths: int
    distinct: tuple[tuple[int, ...], ...]
    owners: tuple[int, ...]

    @classmethod
    def of(cls, model_sigs: Sequence, n: int, cap: int) -> "_Signatures":
        sigs = [_as_vector(s) for s in model_sigs]
        if len(sigs) > cap:
            raise PathExplosion(f"{len(sigs)} flow variables exceed the cap of {cap}")
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
        return cls(len(sigs), tuple(owners), tuple(owners.values()))


def check_feasibility(
    model_sigs: Sequence,
    region: ConfidenceRegion,
    *,
    cap: int = DEFAULT_PATH_CAP,
    compress: bool = True,
    constraints: Optional[ConstraintSet] = None,
) -> FeasibilityVerdict:
    """Decide whether the region intersects the cone of the given signatures.

    Three exact steps, the first that decides wins: INFEASIBLE when
    `attribute_violations` names a constraint the whole box misses; feasible
    when the box centre, corrected onto the equalities and the zero-length
    axes, stays in the box and a membership LP writes it as a non-negative
    flow combination of the signatures (the witness); otherwise the exact
    box LP. Without
    `constraints`, they are deduced from the signatures, so there is one
    decision path; a caller passing them vouches that each holds on every
    signature.

    Equal signatures share one flow variable, which provably leaves the
    feasible counter set unchanged (the merged flow is the sum of the
    originals); the witness flow is aligned with the input paths and puts
    each merged flow on the first path of its signature. `compress` is
    accepted and ignored: merging is the only formulation.
    """
    n = region.dimension
    if isinstance(model_sigs, _Signatures):  # validated once by batch_check
        sigs = model_sigs
    else:
        sigs = _Signatures.of(model_sigs, n, cap)
    lp_sigs = list(sigs.distinct)

    if constraints is None:
        constraints = constraints_from_signatures(
            lp_sigs, CounterNamespace(f"v{i}" for i in range(n)))
    box = _IntegerBox.of(region)
    violated = attribute_violations(constraints, box)
    if violated:
        return FeasibilityVerdict(feasible=False, violated_constraints=violated)

    solution = _centre_witness(lp_sigs, constraints.equalities, box)
    if solution is None:
        solution = _box_lp(lp_sigs, box)
    if solution is None:
        return FeasibilityVerdict(feasible=False)

    flows = [Fraction(0)] * sigs.paths
    for owner, flow in zip(sigs.owners, solution):
        flows[owner] = flow
    # the point S f, summed once per distinct signature over integer numerators
    den = lcm(*(f.denominator for f in solution))
    numerators = [0] * n
    for s, f in zip(lp_sigs, solution):
        if f:
            m = f.numerator * (den // f.denominator)
            for i, x in enumerate(s):
                if x:
                    numerators[i] += x * m
    point = tuple(Fraction(x, den) for x in numerators)
    # exact sanity: the reconstructed point lies in the stated box
    if not box.contains(point):
        raise ArithmeticError("witness point escaped the confidence box")
    return FeasibilityVerdict(
        feasible=True, witness_flow=tuple(flows), witness_point=point
    )


def _centre_witness(
    lp_sigs: Sequence[tuple[int, ...]], equalities: Sequence[Constraint], box: _IntegerBox
) -> Optional[list[Fraction]]:
    """Flows onto the corrected box centre, or None when it is not a witness.

    With w = scale*v, the rows M are the equalities (a.w = 0) and the axes
    of zero half-length (E_i.w = E_i.C); the least-norm solution is
    w = C + M^T y with (M M^T) y = -(M C - r), solved exactly. None when
    those rows are inconsistent, when w leaves the box, or when the
    membership LP finds no flows.
    """
    rows = [list(c.coefficients) for c in equalities]
    residual = [-exact.dot(a, box.center) for a in rows]
    pinned = [e for e, h in zip(box.axes, box.half) if h == 0]
    rows += pinned
    residual += [0] * len(pinned)
    w: list = list(box.center)
    if any(residual):
        k = len(rows)
        gram = [[exact.dot(a, b) for b in rows] + [r] for a, r in zip(rows, residual)]
        reduced, pivots = exact.rref(gram, k + 1)
        if pivots and pivots[-1] == k:
            return None  # the equalities and pinned axes share no point
        for row, p in zip(reduced, pivots):
            if row[k]:
                for j, x in enumerate(rows[p]):
                    if x:
                        w[j] += row[k] * x
    point = [Fraction(x, box.scale) for x in w]
    if not box.contains(point):
        return None
    columns = [[s[i] for s in lp_sigs] for i in range(len(point))]
    return linprog.solve_equality_form(columns, point, len(lp_sigs))


def _box_lp(
    lp_sigs: Sequence[tuple[int, ...]], box: _IntegerBox
) -> Optional[list[Fraction]]:
    """Flows f >= 0 whose counter vector lies in the box, or None.

    The LP has variables v >= 0 and f >= 0 with v = sum_p sig_p * f_p and
    the box bounds on v. Substituting v through the flow equation is an
    exact presolve: signatures are non-negative so v >= 0 is implied, and
    the counter witness is reconstructed from the flows afterwards. Each
    axis gives -h_i <= e_i.(v - c) <= h_i; times scale**2, in the integer
    box, that is scale*(E_i.s) f <= scale*H_i + E_i.C and its negation
    <= scale*H_i - E_i.C.
    """
    a_ub = []
    b_ub = []
    scale = box.scale
    for e, h in zip(box.axes, box.half):
        proj_center = exact.dot(e, box.center)
        row = [scale * exact.dot(e, s) for s in lp_sigs]
        a_ub.append(row)
        b_ub.append(scale * h + proj_center)
        a_ub.append([-x for x in row])
        b_ub.append(scale * h - proj_center)
    return linprog.feasible_point(len(lp_sigs), (), (), a_ub, b_ub)


def attribute_violations(
    constraints: ConstraintSet, region: ConfidenceRegion | _IntegerBox
) -> tuple[Constraint, ...]:
    """Constraints whose half-space (or hyperplane) the whole region misses.

    Over the box, a linear form a.v ranges over
    [a.center - s, a.center + s] with s = sum_i |a.axes_i| * half_i.
    An inequality a.v >= 0 is violated when the maximum is negative; an
    equality when the interval excludes zero. Both ends are compared in
    integers: times scale**2 they are scale*(a.C) -+ sum_i |a.E_i| * H_i.
    A region can be disjoint from the cone while straddling a corner of it,
    in which case no single constraint is violated everywhere and this
    returns empty. `check_feasibility` passes the integer box it has built.
    """
    box = region if isinstance(region, _IntegerBox) else _IntegerBox.of(region)
    n = len(box.center)
    live = [(e, h) for e, h in zip(box.axes, box.half) if h]
    out = []
    for constraint in constraints:
        a = constraint.coefficients
        if len(a) != n:
            raise DimensionMismatch("constraint dimension does not match region")
        terms = [(j, x) for j, x in enumerate(a) if x]  # deduced constraints are sparse
        base = box.scale * sum(x * box.center[j] for j, x in terms)
        spread = sum(abs(sum(x * e[j] for j, x in terms)) * h for e, h in live)
        if base + spread < 0:
            out.append(constraint)
        elif constraint.kind == "equality" and base - spread > 0:
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
        if exact.dot(violated.coefficients, sig.counts) < 0:
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
    have restricted: the model's signatures are restricted to it, validated
    and deduplicated, and its constraints deduced, once per distinct
    namespace. `independent` drops counter correlations from every region.
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
                    sigs, constraints = _in_namespace(base, model.namespace, obs.namespace)
                    deduced[names] = (_Signatures.of(sigs, len(names), cap), constraints)
            except MuddError as exc:
                cells.append(BatchCell(model_name, obs.run_id, None, error=str(exc)))
                continue
            sigs, constraints = deduced[names]
            work.append((model_name, sigs, constraints, obs, alpha, cap, independent))

    if jobs > 1 and len(work) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # fork starts every worker at once: never more than there are cells
        with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
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
