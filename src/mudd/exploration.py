"""Bookkeeping for the expert-driven discovery/elimination model search.

The search itself stays with the expert: this module records feature-tagged
model entries with their infeasible-observation counts, classifies them,
intersects the feature sets of the feasible ones, validates that recorded
discovery (relaxation) edges actually enlarge the model cone, and renders
the whole thing as a table. It never generates feature variants.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import dsl
from .errors import CatalogError, DimensionMismatch, MuddError, NoFeasibleModel
from .geometry import cone_membership, normalize_signatures
from .model import DEFAULT_PATH_CAP, CounterNamespace, MuDD, signatures_of_model


@dataclass
class ModelEntry:
    name: str
    features: frozenset[str]
    infeasible_count: int
    model: Optional[MuDD] = None
    model_path: Optional[str] = None
    parent: Optional[tuple[str, str]] = None  # (name, "relaxation" | "pruning")

    def __post_init__(self):
        if self.infeasible_count < 0:
            raise CatalogError(f"entry {self.name!r} has a negative infeasible count")
        if self.parent is not None and self.parent[1] not in ("relaxation", "pruning"):
            raise CatalogError(
                f"entry {self.name!r} has unknown edge kind {self.parent[1]!r}"
            )


@dataclass
class ModelCatalog:
    entries: dict[str, ModelEntry]
    dataset_id: str = ""
    feature_order: tuple[str, ...] = ()
    namespace: Optional[CounterNamespace] = None

    def __post_init__(self):
        for entry in self.entries.values():
            if entry.parent is not None and entry.parent[0] not in self.entries:
                raise CatalogError(
                    f"entry {entry.name!r} references missing parent {entry.parent[0]!r}"
                )


def load_catalog(path) -> ModelCatalog:
    """Read a catalog JSON file; model paths resolve relative to it."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CatalogError(f"cannot read catalog {path}: {exc}") from exc
    if not isinstance(raw, dict) or "entries" not in raw:
        raise CatalogError(f"catalog {path} has no entries")
    ns = None
    if raw.get("namespace"):
        ns = CounterNamespace(raw["namespace"])
    entries: dict[str, ModelEntry] = {}
    for item in raw["entries"]:
        try:
            name = item["name"]
            features = frozenset(item.get("features", []))
            count = int(item["infeasible_count"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CatalogError(f"catalog {path}: malformed entry {item!r}") from exc
        if name in entries:
            raise CatalogError(f"catalog {path}: duplicate entry name {name!r}")
        parent = None
        if item.get("parent"):
            parent = (item["parent"]["name"], item["parent"]["kind"])
        model = None
        model_path = item.get("model")
        if model_path:
            resolved = path.parent / model_path
            try:
                model = dsl.parse_file(resolved, ns)
            except (OSError, MuddError) as exc:
                raise CatalogError(
                    f"catalog {path}: entry {name!r} model {resolved}: {exc}"
                ) from exc
        entries[name] = ModelEntry(
            name=name,
            features=features,
            infeasible_count=count,
            model=model,
            model_path=model_path,
            parent=parent,
        )
    return ModelCatalog(
        entries=entries,
        dataset_id=raw.get("dataset_id", ""),
        feature_order=tuple(raw.get("features", ())),
        namespace=ns,
    )


def classify(catalog: ModelCatalog) -> tuple[frozenset[str], frozenset[str]]:
    """Partition entry names into (feasible, infeasible) by infeasible count."""
    feasible = frozenset(n for n, e in catalog.entries.items() if e.infeasible_count == 0)
    infeasible = frozenset(catalog.entries) - feasible
    return feasible, infeasible


def required_features(catalog: ModelCatalog) -> frozenset[str]:
    """Features present in every feasible entry; the ones the explored space forces."""
    feasible, _ = classify(catalog)
    if not feasible:
        raise NoFeasibleModel("no feasible entries in the catalog")
    names = iter(sorted(feasible))
    out = set(catalog.entries[next(names)].features)
    for name in names:
        out &= catalog.entries[name].features
    return frozenset(out)


def minimal_feasible(catalog: ModelCatalog) -> frozenset[str]:
    """Feasible entries whose feature set is inclusion-minimal among feasible ones."""
    feasible, _ = classify(catalog)
    out = set()
    for name in feasible:
        mine = catalog.entries[name].features
        if not any(
            catalog.entries[other].features < mine for other in feasible if other != name
        ):
            out.add(name)
    return frozenset(out)


def cone_expansion_check(parent: MuDD, child: MuDD, cap: int = DEFAULT_PATH_CAP) -> bool:
    """True iff every parent generator lies in the child's cone (cone grew or held).

    Generators are compared normalized (primitive and deduplicated). A parent
    generator that is also a child generator lies in the child's cone
    trivially and costs a set lookup; only the others go to the exact
    membership LP. A relaxation that adds a feature usually keeps every
    parent path, so a growing edge typically runs no LP at all.
    """
    if parent.namespace.names != child.namespace.names:
        raise DimensionMismatch("parent and child use different counter namespaces")
    child_gens = normalize_signatures(signatures_of_model(child, cap))
    shared = {gen.counts for gen in child_gens}
    for gen in normalize_signatures(signatures_of_model(parent, cap)):
        if gen.counts not in shared and not cone_membership(child_gens, gen.counts):
            return False
    return True


def expansion_results(catalog: ModelCatalog, cap: int = DEFAULT_PATH_CAP) -> list[dict]:
    """Validate every recorded relaxation edge; entries without models are skipped."""
    out = []
    for entry in catalog.entries.values():
        if entry.parent is None or entry.parent[1] != "relaxation":
            continue
        parent = catalog.entries[entry.parent[0]]
        if parent.model is None or entry.model is None:
            continue
        out.append(
            {
                "parent": parent.name,
                "child": entry.name,
                "expanded": cone_expansion_check(parent.model, entry.model, cap),
            }
        )
    return out


def render_search_report(catalog: ModelCatalog, expansion: Optional[list[dict]] = None) -> str:
    """Aligned text table of entries, features and counts.

    Inclusion-minimal feasible entries are starred. A hint notes the
    elimination-phase heuristic: pruning an infeasible model rarely yields a
    feasible one, so those subtrees are usually not worth exploring.
    """
    features = list(catalog.feature_order)
    for entry in catalog.entries.values():
        for f in sorted(entry.features):
            if f not in features:
                features.append(f)
    starred = minimal_feasible(catalog)

    header = ["model"] + features + ["#infeasible", "edge"]
    rows = [header]
    for entry in catalog.entries.values():
        mark = "* " if entry.name in starred else ""
        edge = f"{entry.parent[1]} of {entry.parent[0]}" if entry.parent else ""
        rows.append(
            [mark + entry.name]
            + [("yes" if f in entry.features else ".") for f in features]
            + [str(entry.infeasible_count), edge]
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
             for row in rows]

    feasible, infeasible = classify(catalog)
    lines.append("")
    lines.append(f"feasible: {', '.join(sorted(feasible)) or '(none)'}")
    lines.append(f"infeasible: {', '.join(sorted(infeasible)) or '(none)'}")
    if feasible:
        req = required_features(catalog)
        lines.append(f"required features: {', '.join(sorted(req)) or '(none)'}")
    if expansion:
        for item in expansion:
            status = "expands" if item["expanded"] else "DOES NOT EXPAND"
            lines.append(f"relaxation {item['parent']} -> {item['child']}: {status}")
    if infeasible:
        lines.append(
            "hint: pruning an infeasible model rarely yields a feasible one; "
            "those subtrees are usually safe to skip"
        )
    return "\n".join(lines) + "\n"


def report_json(catalog: ModelCatalog, expansion: Optional[list[dict]] = None) -> str:
    feasible, infeasible = classify(catalog)
    out = {
        "dataset_id": catalog.dataset_id,
        "entries": [
            {
                "name": e.name,
                "features": sorted(e.features),
                "infeasible_count": e.infeasible_count,
                "parent": {"name": e.parent[0], "kind": e.parent[1]} if e.parent else None,
            }
            for e in catalog.entries.values()
        ],
        "feasible": sorted(feasible),
        "infeasible": sorted(infeasible),
        "minimal_feasible": sorted(minimal_feasible(catalog)),
        "required_features": sorted(required_features(catalog)) if feasible else None,
        "expansion": expansion or [],
    }
    return json.dumps(out, indent=2)
