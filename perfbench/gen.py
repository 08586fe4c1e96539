"""Seeded benchmark inputs with known answers.

Every input is derived from a seed, and the same seed writes byte-identical
files. Each input carries the answer the program must give for it, so the
benchmark can check every operation it times.

Observations are drawn with `mudd.synth` from the bundled 26-counter
`haswell_mmu.mudd` (216 paths): 50 interval samples per CSV, gaussian noise
with sigma 3 on every counter whose true value is nonzero, and none on the
counters the model pins at zero (a counter that never fires reads exactly 0;
clamped noise would bias those columns away from the model's equalities).
Per-path flows are drawn from [200, 400] so that even the counters only four
paths touch sit several sigma above zero and no sample is clamped.

Known answers:

- feasible: the truth point is a non-negative flow combination of the
  signatures, so it lies in the cone; the draw is repeated with the next
  sub-seed until the truth point also lies inside the CSV's own confidence
  box (which happens for about 99 in 100 draws at alpha = 0.01).
- infeasible: every sample is shifted so that the whole confidence box
  misses one constraint that is checked here, with integer arithmetic, to
  hold on every path signature.  The box misses it by MARGIN times the box's
  own spread along that constraint, so the verdict is INFEASIBLE and that
  constraint is among the violated ones.
- projected: a feasible draw with the `store.*` columns dropped, checked
  with `--project`; projection maps the cone onto the cone of the projected
  signatures, so it stays feasible.
- generated models are products of simplices (one switch per block, one new
  counter per case, optionally a `total` counter on every path), whose
  deduced sizes are known in closed form; generated catalogs join such
  models by relaxation edges that add a case (the cone grows) or drop one
  (it does not).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from mudd import bundled_path, dsl
from mudd.geometry import deduce_constraints
from mudd.model import CounterNamespace, signatures_of_model
from mudd.stats import ObservationSet, build_confidence_region
from mudd.synth import SynthSpec, exact_counters, generate

ALPHA = 0.01
SAMPLES = 50
SIGMA = 3.0
FLOW_RANGE = (200.0, 400.0)
MARGIN = 10.0
MODEL_FILE = "haswell_mmu.mudd"
COUNTERS_FILE = "haswell_counters.txt"
PROJECTED_OUT = "store."


def seeded(seed: int, *stream: int) -> np.random.Generator:
    """An independent generator for one stream of one seed."""
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def read_names(path) -> list[str]:
    names = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            names.append(line)
    return names


@dataclass
class Expected:
    """The answer one input must get."""

    feasible: bool
    violated: Optional[str] = None  # display string of a constraint that must be named
    kind: str = "feasible"  # feasible | equality | facet | projected


@dataclass
class Haswell:
    """The bundled MMU model, its signatures and its checked constraint set."""

    model: object
    namespace: CounterNamespace
    sigs: np.ndarray  # paths x counters, integers
    equalities: list
    facets: list  # inequalities with a negative coefficient: data can violate them
    projector: np.ndarray  # orthogonal projector onto the signature span

    @classmethod
    def load(cls) -> "Haswell":
        ns = CounterNamespace(read_names(bundled_path(COUNTERS_FILE)))
        model = dsl.parse_file(bundled_path(MODEL_FILE), ns)
        sigs = np.array([s.counts for s in signatures_of_model(model)], dtype=np.int64)
        cs = deduce_constraints(model)
        # A constraint is only used as a known answer after checking it on
        # every signature in exact integers, independent of how it was found.
        rows = [list(s) for s in sigs.tolist()]
        for c in cs.equalities:
            if any(sum(a * x for a, x in zip(c.coefficients, r)) != 0 for r in rows):
                raise RuntimeError(f"equality {c.display(ns)} fails on a path")
        for c in cs.inequalities:
            if any(sum(a * x for a, x in zip(c.coefficients, r)) < 0 for r in rows):
                raise RuntimeError(f"inequality {c.display(ns)} fails on a path")
        eq = np.array([c.coefficients for c in cs.equalities], dtype=float)
        projector = np.eye(len(ns)) - eq.T @ np.linalg.solve(eq @ eq.T, eq)
        return cls(
            model=model,
            namespace=ns,
            sigs=sigs,
            equalities=[c for c in cs.equalities if sum(1 for a in c.coefficients if a) >= 2],
            facets=[c for c in cs.inequalities if min(c.coefficients) < 0],
            projector=projector,
        )

    def draw(self, seed: int, stream: int) -> tuple[ObservationSet, np.ndarray]:
        """A feasible observation whose truth point lies in its own region."""
        for attempt in range(100):
            rng = seeded(seed, stream, attempt)
            flows = tuple(float(x) for x in rng.uniform(*FLOW_RANGE, len(self.sigs)))
            spec = SynthSpec(model=self.model, flows=flows, samples=SAMPLES, seed=0)
            truth = np.array([float(x) for x in exact_counters(spec)]) / SAMPLES
            noise = np.where(truth > 0, SIGMA, 0.0)
            obs = generate(
                SynthSpec(model=self.model, flows=flows, samples=SAMPLES, noise=noise,
                          seed=int(rng.integers(2**31))),
                run_id="run",
            )
            if obs.clamped:
                continue
            if build_confidence_region(obs, ALPHA).contains(truth, tol=1e-9):
                return obs, truth
        raise RuntimeError("no draw put the truth point inside its region")

    def feasible(self, seed: int, stream: int) -> tuple[ObservationSet, Expected]:
        obs, _ = self.draw(seed, stream)
        return obs, Expected(feasible=True)

    def projected(self, seed: int, stream: int) -> tuple[ObservationSet, Expected]:
        for attempt in range(100):
            obs, truth = self.draw(seed, stream * 1000 + attempt)
            keep = [i for i, n in enumerate(self.namespace.names)
                    if not n.startswith(PROJECTED_OUT)]
            ns = CounterNamespace([self.namespace.names[i] for i in keep])
            sub = ObservationSet(run_id=obs.run_id,
                                 sample_matrix=obs.sample_matrix[:, keep], namespace=ns)
            if build_confidence_region(sub, ALPHA).contains(truth[keep], tol=1e-9):
                return sub, Expected(feasible=True, kind="projected")
        raise RuntimeError("no projected draw put the truth point inside its region")

    def infeasible(self, seed: int, stream: int, kind: str) -> tuple[ObservationSet, Expected]:
        """A draw shifted so that its whole box misses one equality or facet."""
        pool = self.equalities if kind == "equality" else self.facets
        pick = seeded(seed, stream, 7)
        for attempt, ci in enumerate(pick.permutation(len(pool))):
            obs, _ = self.draw(seed, stream * 1000 + attempt)
            region = build_confidence_region(obs, ALPHA)
            c = pool[int(ci)]
            a = np.array(c.coefficients, dtype=float)
            spread = float(np.abs(region.axes @ a) @ region.half_lengths)
            value = float(a @ region.center)
            if kind == "equality":
                # raise one counter of the equality: counts never go negative
                j = int(pick.choice(np.flatnonzero(a)))
                delta = np.zeros_like(a)
                delta[j] = (MARGIN * spread + abs(value)) / abs(a[j])
            else:
                # move along the signature span, so every equality still holds
                direction = -(self.projector @ a)
                direction[np.abs(direction) < 1e-12] = 0.0
                slope = float(a @ direction)
                delta = direction * ((value + MARGIN * spread) / -slope)
            shifted = obs.sample_matrix + delta
            if np.any(shifted < 0):
                continue
            out = ObservationSet(run_id=obs.run_id, sample_matrix=shifted,
                                 namespace=obs.namespace)
            moved = build_confidence_region(out, ALPHA)
            lo = float(a @ moved.center) - spread
            hi = float(a @ moved.center) + spread
            missed = hi < 0 if kind == "facet" else (hi < 0 or lo > 0)
            if missed:
                return out, Expected(feasible=False, violated=c.display(self.namespace),
                                     kind=kind)
        raise RuntimeError(f"no {kind} could be missed with non-negative counts")


def copy_model(workdir: Path) -> tuple[Path, Path]:
    """Copy the bundled model and its namespace into the work directory."""
    model = workdir / MODEL_FILE
    names = workdir / COUNTERS_FILE
    model.write_bytes(Path(bundled_path(MODEL_FILE)).read_bytes())
    names.write_bytes(Path(bundled_path(COUNTERS_FILE)).read_bytes())
    return model, names


# ---------------------------------------------------------------------------
# generated models and catalogs


@dataclass
class ProductModel:
    """One switch per block; case j of block i emits its own counter."""

    shape: tuple[int, ...]
    total: bool
    seed: int
    prefix: str = "g"
    cases: list[list[str]] = field(default_factory=list)  # counter per case

    def __post_init__(self):
        rng = seeded(self.seed, len(self.shape), sum(self.shape), int(self.total))
        if not self.cases:
            self.cases = [
                [f"{self.prefix}{i}.c{j}" for j in rng.permutation(k)]
                for i, k in enumerate(self.shape)
            ]
        self.order = [int(i) for i in rng.permutation(len(self.cases))]

    def source(self) -> str:
        lines = [f"# product of simplices {self.shape}"]
        for i in self.order:
            lines.append(f"switch (B{i}) {{")
            for counter in self.cases[i]:
                lines.append(f"    case {counter.replace('.', '_')}:")
                lines.append(f"        counter {counter};")
            lines.append("}")
        if self.total:
            lines.append(f"counter {self.prefix}.total;")
        return "\n".join(lines) + "\n"

    def counters(self) -> list[str]:
        out = [c for i in self.order for c in self.cases[i]]
        return out + ([f"{self.prefix}.total"] if self.total else [])

    def expected_sizes(self) -> dict:
        """Closed-form sizes of the cone over a product of simplices."""
        sizes = [len(c) for c in self.cases]
        paths = int(np.prod(sizes))
        rank = sum(k - 1 for k in sizes) + 1
        return {
            "paths": paths,
            "equalities": len(self.counters()) - rank,
            "inequalities": sum(k for k in sizes if k >= 2),
        }


def catalog(seed: int, workdir: Path) -> dict:
    """A catalog of product models joined by relaxation and pruning edges.

    The root has blocks of 4, 4 and 3 cases. Two relaxations add a case each
    (the cone grows); a third relaxation of the root drops a case, which must
    be reported as not expanding. Pruning edges are bookkeeping only.
    Returns the expected `feasible` list and expansion results.
    """
    rng = seeded(seed, 99)
    root = ProductModel(shape=(4, 4, 3), total=False, seed=seed, prefix="k")
    spare = [f"k{i}.x" for i in range(3)]
    names = sorted({c for cs in root.cases for c in cs} | set(spare))

    def variant(cases):
        return ProductModel(shape=tuple(len(c) for c in cases), total=False,
                            seed=seed, prefix="k", cases=[list(c) for c in cases])

    grow1 = [list(c) for c in root.cases]
    grow1[2].append(spare[2])
    grow2 = [list(c) for c in grow1]
    grow2[0].append(spare[0])
    shrink = [list(c) for c in root.cases]
    shrink[int(rng.integers(3))].pop()
    prune = [list(c) for c in grow2]
    prune[1].pop()

    models = {"root": variant(root.cases), "grow1": variant(grow1),
              "grow2": variant(grow2), "shrink": variant(shrink),
              "prune": variant(prune)}
    edges = {"grow1": ("root", "relaxation"), "grow2": ("grow1", "relaxation"),
             "shrink": ("root", "relaxation"), "prune": ("grow2", "pruning")}
    counts = {name: int(rng.integers(1, 200)) for name in models}
    counts[("grow2", "prune")[int(rng.integers(2))]] = 0
    entries = []
    for name, m in models.items():
        (workdir / f"{name}.mudd").write_text(m.source(), encoding="utf-8")
        parent = edges.get(name)
        entries.append({
            "name": name,
            "features": sorted(c for cs in m.cases for c in cs),
            "model": f"{name}.mudd",
            "infeasible_count": counts[name],
            "parent": {"name": parent[0], "kind": parent[1]} if parent else None,
        })
    doc = {"dataset_id": f"generated-{seed}", "namespace": names,
           "features": names, "entries": entries}
    (workdir / "catalog.json").write_text(json.dumps(doc, indent=1), encoding="utf-8")
    expansion = [
        {"parent": p, "child": c, "expanded": c != "shrink"}
        for c, (p, kind) in edges.items() if kind == "relaxation"
    ]
    return {
        "feasible": sorted(n for n, k in counts.items() if k == 0),
        "expansion": expansion,
    }
