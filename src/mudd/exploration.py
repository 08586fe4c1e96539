"""Bookkeeping for the expert-driven discovery/elimination model search.

The search itself stays with the expert: this module records feature-tagged
model entries with their infeasible-observation counts, classifies them,
intersects the feature sets of the feasible ones, validates that recorded
discovery (relaxation) edges actually enlarge the model cone, and renders
the whole thing as a table. It never generates feature variants.
"""
from __future__ import annotations

import json
from collections.abc import Sequence
from pathlib import Path

from . import dsl
from .errors import MuddError, read_text
from .geometry import Vector, cone_membership, normalize_signatures
from .model import CounterNamespace, MuDD, Record, signatures_of_model


class ModelEntry(Record):
    """One explored model; `parent` is (name, "relaxation" | "pruning").

    `generators`, kept outside `_fields`, are the model's normalized
    signatures (None without a model), from the one enumeration of its
    paths made here; a model whose paths cannot be enumerated raises
    MuddError."""

    _fields = ("name", "features", "infeasible_count", "model", "parent")

    def __init__(self, name: str, features: frozenset[str], infeasible_count: int,
                 model: MuDD | None = None, parent: tuple[str, str] | None = None):
        if infeasible_count < 0:
            raise MuddError(f"entry {name!r} has a negative infeasible count")
        if parent is not None and parent[1] not in ("relaxation", "pruning"):
            raise MuddError(f"entry {name!r} has unknown edge kind {parent[1]!r}")
        generators = None if model is None else normalize_signatures(signatures_of_model(model))
        self._set(name=name, features=features, infeasible_count=infeasible_count,
                  model=model, parent=parent, generators=generators)


class ModelCatalog(Record):
    _fields = ("entries", "dataset_id", "feature_order", "namespace")

    def __init__(self, entries: dict[str, ModelEntry], dataset_id: str = "",
                 feature_order: tuple[str, ...] = (),
                 namespace: CounterNamespace | None = None):
        for entry in entries.values():
            if entry.parent is not None and entry.parent[0] not in entries:
                raise MuddError(
                    f"entry {entry.name!r} references missing parent {entry.parent[0]!r}"
                )
        rooted: set[str] = set()  # entries whose parent chain ends
        for name in entries:
            chain = []
            while name is not None and name not in rooted and name not in chain:
                chain.append(name)
                parent = entries[name].parent
                name = parent[0] if parent else None
            if name in chain:
                cycle = chain[chain.index(name):] + [name]
                raise MuddError(f"parent cycle {' -> '.join(map(repr, reversed(cycle)))} "
                                "(each entry the parent of the next)")
            rooted.update(chain)
        self._set(entries=entries, dataset_id=dataset_id, feature_order=feature_order,
                  namespace=namespace)


_PARENT_SHAPE = '{"name": <entry name>, "kind": "relaxation" | "pruning"}'


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def load_catalog(path) -> ModelCatalog:
    """Read a catalog JSON file; model paths resolve relative to it.

    Each model is parsed and its paths enumerated once, for the entry's
    generators, so a model that `mudd paths` refuses raises MuddError naming
    the catalog, the entry and the model. A value of the wrong type raises
    MuddError naming the file, the entry (by name, or by position when the
    name itself is bad) and the key; so does a top-level `features` or
    `namespace` that names a value twice.
    """
    path = Path(path)
    try:
        raw = json.loads(read_text(path, f"catalog {path}"))
    except json.JSONDecodeError as exc:
        raise MuddError(f"cannot read catalog {path}: {exc}") from exc
    if not isinstance(raw, dict) or "entries" not in raw:
        raise MuddError(f"catalog {path} has no entries")

    def bad(where: str, key: str, expected: str, value) -> MuddError:
        return MuddError(f"catalog {path}: {where}{key!r} must be {expected}, got {value!r}")

    for key in ("namespace", "features"):
        if raw.get(key) is not None and not _is_strings(raw[key]):
            raise bad("", key, "a list of strings", raw[key])
    seen: set[str] = set()
    for feature in raw.get("features") or ():
        if feature in seen:
            raise MuddError(f"catalog {path}: 'features': duplicate feature {feature!r}")
        seen.add(feature)
    if not isinstance(raw.get("dataset_id", ""), str):
        raise bad("", "dataset_id", "a string", raw["dataset_id"])
    if not isinstance(raw["entries"], list):
        raise bad("", "entries", "a list of objects", raw["entries"])
    ns = None
    if raw.get("namespace"):
        try:
            ns = CounterNamespace(raw["namespace"])
        except MuddError as exc:
            raise MuddError(f"catalog {path}: 'namespace': {exc}") from None
    entries: dict[str, ModelEntry] = {}
    for position, item in enumerate(raw["entries"], 1):
        if not isinstance(item, dict):
            raise bad("", f"entries[{position}]", "an object", item)
        name = item.get("name")
        where = f"entry {name!r}: " if isinstance(name, str) else f"entry {position}: "
        for key in ("name", "infeasible_count"):
            if key not in item:
                raise MuddError(f"catalog {path}: {where}missing {key!r}")
        if not isinstance(name, str):
            raise bad(where, "name", "a string", name)
        count = item["infeasible_count"]
        if type(count) is not int or count < 0:
            raise bad(where, "infeasible_count", "a non-negative integer", count)
        features = item.get("features", [])
        if not _is_strings(features):
            raise bad(where, "features", "a list of strings", features)
        parent = item.get("parent")
        if parent is not None:
            if not (isinstance(parent, dict) and isinstance(parent.get("name"), str)
                    and parent.get("kind") in ("relaxation", "pruning")):
                raise bad(where, "parent", _PARENT_SHAPE, parent)
            parent = (parent["name"], parent["kind"])
        model_path = item.get("model")
        if model_path is not None and not (isinstance(model_path, str)
                                           and "\0" not in model_path):
            raise bad(where, "model", "a path string", model_path)
        if name in entries:
            raise MuddError(f"catalog {path}: duplicate entry name {name!r}")
        model = None
        resolved = path.parent / model_path if model_path else None
        if model_path:
            try:
                model = dsl.parse_file(resolved, ns)
            except dsl.DslParseError as exc:
                # each diagnostic names the model file, as `mudd paths` prints it
                raise MuddError(
                    f"catalog {path}: entry {name!r}: model does not parse\n{exc}"
                ) from exc
            except MuddError as exc:  # unreadable: the message names the model file
                raise MuddError(f"catalog {path}: entry {name!r} model {exc}") from exc
        try:  # the entry enumerates the model's paths: what `mudd paths` refuses fails here
            entries[name] = ModelEntry(name, frozenset(features), count, model=model,
                                       parent=parent)
        except MuddError as exc:  # only the model can fail: the other fields are checked
            raise MuddError(f"catalog {path}: entry {name!r} model {resolved}: {exc}") from exc
    try:
        catalog = ModelCatalog(
            entries=entries,
            dataset_id=raw.get("dataset_id", ""),
            feature_order=tuple(raw.get("features") or ()),
            namespace=ns,
        )
    except MuddError as exc:
        raise MuddError(f"catalog {path}: {exc}") from None
    for parent, child in _relaxations(catalog):
        if parent.model.namespace.names != child.model.namespace.names:
            raise MuddError(
                f"catalog {path}: relaxation {parent.name!r} -> {child.name!r}: the two "
                "models infer different counter namespaces; fix one order with the "
                "catalog's 'namespace' key"
            )
    return catalog


def _relaxations(catalog: ModelCatalog):
    """(parent, child) entry pairs of the relaxation edges where both have a model."""
    for entry in catalog.entries.values():
        if entry.parent is None or entry.parent[1] != "relaxation":
            continue
        parent = catalog.entries[entry.parent[0]]
        if parent.model is not None and entry.model is not None:
            yield parent, entry


def classify(catalog: ModelCatalog) -> tuple[frozenset[str], frozenset[str]]:
    """Partition entry names into (feasible, infeasible) by infeasible count."""
    feasible = frozenset(n for n, e in catalog.entries.items() if e.infeasible_count == 0)
    infeasible = frozenset(catalog.entries) - feasible
    return feasible, infeasible


def required_features(catalog: ModelCatalog) -> frozenset[str]:
    """Features present in every feasible entry; the ones the explored space forces."""
    feasible, _ = classify(catalog)
    if not feasible:
        raise MuddError("no feasible entries in the catalog")
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


def cone_expansion_check(parent: Sequence[Vector], child: Sequence[Vector]) -> bool:
    """True iff every parent generator lies in the child's cone (cone grew or held).

    Both are normalized generators (primitive and deduplicated) in one
    counter namespace, as `ModelEntry.generators` of a relaxation edge that
    `load_catalog` accepted. A parent generator that is also a child
    generator lies in the child's cone trivially and costs a set lookup;
    only the others go to the exact membership LP. A relaxation that adds a
    feature usually keeps every parent path, so a growing edge typically
    runs no LP at all.
    """
    shared = set(child)
    for gen in parent:
        if gen not in shared and not cone_membership(child, gen):
            return False
    return True


def expansion_results(catalog: ModelCatalog) -> list[dict]:
    """Validate every recorded relaxation edge; entries without models are skipped."""
    return [
        {
            "parent": parent.name,
            "child": child.name,
            "expanded": cone_expansion_check(parent.generators, child.generators),
        }
        for parent, child in _relaxations(catalog)
    ]


def render_search_report(catalog: ModelCatalog, expansion: list[dict] | None = None) -> str:
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


def report_json(catalog: ModelCatalog, expansion: list[dict] | None = None) -> str:
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
