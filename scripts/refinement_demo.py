#!/usr/bin/env python3
"""End-to-end refinement walkthrough on the bundled page-walk models.

Synthesizes counter data in which PDE-cache misses outnumber walks, shows
the initial model being refuted with the violated constraint attributed,
then shows the refined model (early lookup + aborts) accepting the same
data, with the aborting path reported as the refinement witness.
"""
import numpy as np

from mudd import bundled_path, dsl
from mudd.exploration import cone_expansion_check
from mudd.feasibility import check_feasibility, refinement_candidates
from mudd.geometry import deduce_constraints, normalize_signatures
from mudd.model import CounterNamespace, describe_decisions, enumerate_mupaths
from mudd.stats import ObservationSet, build_confidence_region


def main():
    ns = CounterNamespace(["load.causes_walk", "load.pde$_miss"])
    initial = dsl.parse_file(bundled_path("walk_init_first.mudd"), ns)
    refined = dsl.parse_file(bundled_path("pde_lookup_first.mudd"), ns)

    print("== initial model constraints ==")
    initial_cs = deduce_constraints(initial)
    for c in initial_cs:
        print(" ", c.display(ns))

    # workload where some requests abort after the PDE lookup: more misses
    # than walks, strongly correlated through load intensity
    rng = np.random.default_rng(2024)
    load = rng.normal(5000.0, 400.0, size=120)
    walks = 0.8 * load + rng.normal(0.0, 5.0, size=120)
    misses = 0.8 * load + 90.0 + rng.normal(0.0, 5.0, size=120)
    obs = ObservationSet(
        run_id="abort-heavy",
        sample_matrix=np.clip(np.stack([walks, misses], axis=1), 0, None),
        namespace=ns,
    )
    region = build_confidence_region(obs, alpha=0.01)
    print("\n== checking the abort-heavy run against the initial model ==")
    sigs = [p.counts for p in enumerate_mupaths(initial)]
    verdict = check_feasibility(sigs, region, constraints=initial_cs)
    print("  feasible:", verdict.feasible)
    for c in verdict.violated_constraints:
        print("  violated:", c.display(ns))

    print("\n== refinement candidates in the early-lookup model ==")
    bound = next(c for c in initial_cs.inequalities if c.coefficients == (1, -1))
    for path in refinement_candidates(bound, refined):
        print(f"  {describe_decisions(path.property_assignment)} with signature {path.counts}")

    print("\n== refined model accepts the run ==")
    refined_sigs = [p.counts for p in enumerate_mupaths(refined)]
    verdict = check_feasibility(refined_sigs, region)
    print("  feasible:", verdict.feasible)
    expanded = cone_expansion_check(normalize_signatures(sigs), normalize_signatures(refined_sigs))
    print("  cone expanded:", expanded)


if __name__ == "__main__":
    main()
