"""Feasibility of confidence regions against model cones.

A region is the principal-axis box { v : |e_i.(v - c)| <= h_i }. Its bounds
are floats, and every finite float is a dyadic rational, so the region
holds them times one power of two as integers, and answers each step's
question about the box in them: every test below is exact, and all three
test that one box. Each observation takes one decision sequence:

1. Attribution. Every deduced constraint (an equality a.v = 0 or a facet
   a.v >= 0) is tested against the whole box: the range of a.v over the
   parallelotope the axes span, widened by a margin proved from the axes'
   exact Gram matrix (zero for orthonormal axes). Each holds on every
   generator, hence on the cone, so a constraint that the whole box misses
   proves the box misses the cone: INFEASIBLE, with those constraints
   named, and no LP runs.
2. Witness. Otherwise the box centre is moved exactly, by the least-norm
   correction, onto the equalities and onto every axis of zero half-length.
   If the moved point v is still in the box, one exact membership LP over
   the distinct signatures looks for flows f >= 0 with S f = v on the pivot
   coordinates of the deduction, which fix a point on the equalities, so S f
   = v on every coordinate; finding them proves v is in the cone without
   trusting the inequalities: feasible, with v as the witness.
3. Fallback. Otherwise the box straddles the cone boundary (at a corner no
   single constraint excludes it) and the region's exact box LP decides:
   flows f >= 0 whose counter vector S f lies in the box, or one inequality
   that holds on the cone and fails on the whole box, named here as
   weights on the model's facets and equalities (as J. W. Chinneck,
   Feasibility and Infeasibility in Optimization, 2008, names an
   infeasible system by a few of its constraints).
"""
from __future__ import annotations

import os
from collections.abc import Sequence
from fractions import Fraction
from math import lcm

from . import exact, linprog
from .errors import MuddError
from .geometry import Constraint, ConstraintSet, _as_vector, constraints_from_signatures
from .model import (
    CounterNamespace,
    MuDD,
    MuPath,
    Record,
    enumerate_mupaths,
    signatures_of_model,
)
from .stats import ConfidenceRegion, ObservationSet, build_confidence_region, check_alpha


class FeasibilityVerdict(Record):
    """Whether a region meets a cone, with a witness or the violated constraints;
    `witness_flow` is aligned with the input paths. An INFEASIBLE verdict
    with no violated constraint, or with one whose coefficients are all
    zero, raises ValueError."""

    _fields = ("feasible", "witness_flow", "witness_point", "violated_constraints")

    def __init__(self, feasible: bool, witness_flow: tuple[Fraction, ...] | None = None,
                 witness_point: tuple[Fraction, ...] | None = None,
                 violated_constraints: tuple[Constraint, ...] = ()):
        if not feasible and not violated_constraints:
            raise ValueError("an INFEASIBLE verdict must name a violated constraint")
        if any(not any(c.coefficients) for c in violated_constraints):
            raise ValueError("a violated constraint must have a nonzero coefficient")
        self._set(feasible=feasible, witness_flow=witness_flow,
                  witness_point=witness_point, violated_constraints=violated_constraints)


class _Signatures(Record):
    """Validated signatures: the number of paths, the distinct signatures,
    and the first path index of each."""

    _fields = ("paths", "distinct", "owners")

    def __init__(self, paths: int, distinct: tuple[tuple[int, ...], ...],
                 owners: tuple[int, ...]):
        self._set(paths=paths, distinct=distinct, owners=owners)

    @classmethod
    def of(cls, model_sigs: Sequence, n: int) -> "_Signatures":
        sigs = [_as_vector(s) for s in model_sigs]
        for s in sigs:
            if len(s) != n:
                raise MuddError(
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
    compress: bool = True,
    constraints: ConstraintSet | None = None,
) -> FeasibilityVerdict:
    """Decide whether the region intersects the cone of the given signatures.

    Three exact steps, the first that decides wins: INFEASIBLE when
    `attribute_violations` names a constraint the whole box misses; feasible
    when the box centre, corrected onto the equalities and the zero-length
    axes, stays in the box and a membership LP writes it as a non-negative
    flow combination of the signatures (the witness); otherwise the exact
    box LP, which refutes with one inequality named by the constraints.
    Without `constraints`, they are deduced from the signatures, so there is
    one decision path; a caller passing them vouches that they describe the
    cone of the signatures, and a box-LP refutation that they cannot name
    raises ArithmeticError.

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
        sigs = _Signatures.of(model_sigs, n)
    lp_sigs = list(sigs.distinct)

    if constraints is None:
        constraints = constraints_from_signatures(
            lp_sigs, CounterNamespace(f"v{i}" for i in range(n)))
    violated = attribute_violations(constraints, region)
    if violated:
        return FeasibilityVerdict(feasible=False, violated_constraints=violated)

    solution = _centre_witness(lp_sigs, constraints, region)
    if solution is None:
        solution, a = region.box_lp(lp_sigs)
        if a is not None:
            reason = _named(exact.primitive(a), constraints)
            return FeasibilityVerdict(feasible=False, violated_constraints=(reason,))

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
    if not region.contains(point):
        raise ArithmeticError("witness point escaped the confidence box")
    return FeasibilityVerdict(
        feasible=True, witness_flow=tuple(flows), witness_point=point
    )


def _centre_witness(
    lp_sigs: Sequence[tuple[int, ...]], constraints: ConstraintSet, region: ConfidenceRegion
) -> list[Fraction] | None:
    """Flows onto `ConfidenceRegion.corrected_centre` on the equalities, or
    None when it gives no point or the membership LP finds no flows.

    The LP equates S f and v only on the constraints' pivot columns. Both
    meet every equality, S f because each equality holds on every
    signature; the points that do form the span the deduction found, where
    a point is fixed by its pivot coordinates, so S f = v on every
    coordinate.
    """
    point = region.corrected_centre([c.coefficients for c in constraints.equalities])
    if point is None:
        return None
    pivots = constraints.pivot_columns
    columns = [[s[i] for s in lp_sigs] for i in pivots]
    return linprog.solve_equality_form(columns, [point[i] for i in pivots], len(lp_sigs))


def _named(a: tuple[int, ...], constraints: ConstraintSet) -> Constraint:
    """The inequality a.v >= 0, valid on the cone, as a combination of its
    constraints: non-negative weights on the facets and signed weights on
    the equalities, found by one exact LP over the columns F, Q and -Q.
    Raises ArithmeticError when there are no such weights or they do not
    give a up to a positive factor."""
    facets, equalities = constraints.inequalities, constraints.equalities
    columns = ([c.coefficients for c in facets] + [q.coefficients for q in equalities]
               + [tuple(-x for x in q.coefficients) for q in equalities])
    x = linprog.solve_equality_form(
        [[col[i] for col in columns] for i in range(len(a))], a, len(columns))
    if x is None:
        raise ArithmeticError("the box LP's certificate is no combination of the constraints")
    k, m = len(facets), len(equalities)
    weights = exact.primitive([x[k + j] - x[k + m + j] for j in range(m)] + x[:k])
    terms = tuple((weight, c) for weight, c in zip(weights, constraints) if weight)
    total = [sum(weight * c.coefficients[i] for weight, c in terms) for i in range(len(a))]
    if exact.primitive(total) != a:
        raise ArithmeticError("the named constraints do not sum to the box LP's certificate")
    return Constraint("inequality", a, "farkas", terms=terms)


def attribute_violations(
    constraints: ConstraintSet, region: ConfidenceRegion
) -> tuple[Constraint, ...]:
    """Constraints whose half-space (or hyperplane) the whole box misses.

    Over the parallelotope the axes span, a.v ranges over
    a.center -+ sum_i |a.axes_i| * half_i; a constraint that range misses is
    named only when `ConfidenceRegion.misses` proves, with a margin that
    grows with the axes' exact distance from orthonormal, that the box
    misses it too. A box can miss the cone while straddling a corner of it,
    or within that margin of a facet; then this returns empty.
    """
    n = region.dimension
    out = []
    for constraint in constraints:
        if len(constraint.coefficients) != n:
            raise MuddError("constraint dimension does not match region")
        if region.misses(constraint.coefficients, constraint.kind == "equality"):
            out.append(constraint)
    return tuple(out)


def refinement_candidates(violated: Constraint, candidate_model: MuDD) -> tuple[MuPath, ...]:
    """Paths of the candidate whose signatures strictly break the constraint.

    A violated inequality can only be discharged by a model containing at
    least one path whose signature fails it; the result is nonempty exactly
    when the candidate's deduced constraints no longer imply it.
    """
    if violated.kind != "inequality":
        raise ValueError("refinement candidates apply to inequality constraints")
    if len(violated.coefficients) != len(candidate_model.namespace):
        raise MuddError("constraint dimension does not match model namespace")
    return tuple(p for p in enumerate_mupaths(candidate_model)
                 if exact.dot(violated.coefficients, p.counts) < 0)


# ---------------------------------------------------------------------------
# batch checking


class BatchCell(Record):
    """One model against one observation: a verdict or an error message.
    `namespace` holds the counters the verdict speaks of."""

    _fields = ("model_name", "run_id", "verdict", "error", "namespace")

    def __init__(self, model_name: str, run_id: str, verdict: FeasibilityVerdict | None,
                 error: str | None = None, namespace: CounterNamespace | None = None):
        self._set(model_name=model_name, run_id=run_id, verdict=verdict, error=error,
                  namespace=namespace)


def _in_namespace(sigs, model_ns: CounterNamespace, ns: CounterNamespace):
    """The model's signatures restricted to `ns`, and their constraints."""
    if ns.names != model_ns.names:
        positions = [model_ns.position(name) for name in ns.names]
        sigs = [tuple(s[i] for i in positions) for s in sigs]
    return sigs, constraints_from_signatures(sigs, ns)


def _check_cell(args):
    model_name, sigs, constraints, obs, alpha, independent = args
    try:
        region = build_confidence_region(obs, alpha, independent=independent)
        verdict = check_feasibility(sigs, region, constraints=constraints)
        return BatchCell(model_name, obs.run_id, verdict, namespace=obs.namespace)
    except MuddError as exc:
        return BatchCell(model_name, obs.run_id, None, error=str(exc))
    except Exception as exc:  # one cell's failure must not abort the batch
        return BatchCell(model_name, obs.run_id, None,
                         error=f"{type(exc).__name__}: {exc}")


# A Haswell cell costs about 7 ms, so a worker pays for its start only over
# many cells. On 2 vCPUs, `--jobs 2` lost to `--jobs 1` at 8, 16 and 24
# cells and by no more than 3% from 32 cells on (the sweep is in
# CHANGES.md), so each worker must get at least this many cells.
_CELLS_PER_WORKER = 16


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def batch_check(
    models: Sequence[tuple[str, MuDD]],
    observation_sets: Sequence[ObservationSet],
    alpha: float = 0.01,
    *,
    independent: bool = False,
    jobs: int | None = None,
) -> tuple[BatchCell, ...]:
    """Every model against every observation; deterministic order regardless
    of parallelism. Per-cell errors are recorded, not raised; an alpha
    that no region can use raises MuddError before any cell runs.

    Each observation is checked in its own namespace, which projection may
    have restricted: the model's signatures are restricted to it, validated
    and deduplicated, and its constraints deduced, once per distinct
    namespace. `independent` drops counter correlations from every region.

    A process pool starts only when at least two workers each get
    `_CELLS_PER_WORKER` cells, with no more workers than usable CPUs or
    than `jobs` where it is given. A worker that dies raises MuddError.
    """
    check_alpha(alpha)
    cells: list[BatchCell] = []
    work = []
    for model_name, model in models:
        try:
            base = [s.counts for s in signatures_of_model(model)]
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
                    deduced[names] = (_Signatures.of(sigs, len(names)), constraints)
            except MuddError as exc:
                cells.append(BatchCell(model_name, obs.run_id, None, error=str(exc)))
                continue
            sigs, constraints = deduced[names]
            work.append((model_name, sigs, constraints, obs, alpha, independent))

    workers = 1 if jobs == 1 else len(work) // _CELLS_PER_WORKER
    if workers > 1:
        workers = min(workers, _usable_cpus(), workers if jobs is None else jobs)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                cells.extend(pool.map(_check_cell, work))
        except BrokenProcessPool:
            raise MuddError(
                f"a worker process of the {workers}-worker check pool died "
                "(killed, or out of memory?); the batch has no verdicts"
            ) from None
    else:
        cells.extend(_check_cell(t) for t in work)
    return tuple(sorted(cells, key=lambda c: (c.model_name, c.run_id)))
