"""Bookkeeping for the expert-driven discovery/elimination model search.

The search itself stays with the expert: this module records feature-tagged
model entries with their infeasible-observation counts, classifies them,
intersects the feature sets of the feasible ones, and validates that
recorded discovery (relaxation) edges actually enlarge the model cone;
`mudd explore` reports it all. It never generates feature variants.
"""
from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from pathlib import Path

from . import dsl
from .errors import MuddError, read_text
from .geometry import Vector, cone_membership, normalize_signatures
from .model import CounterNamespace, MuDD, Record, enumerate_mupaths


class ModelEntry(Record):
    """One explored model; `parent` is (name, "relaxation" | "pruning").

    `features` is kept as a frozenset (a string is refused), `parent` as a
    tuple (anything but a tuple or list of a name and a kind is refused).
    `generators`, kept outside `_fields`, are the model's normalized
    signatures (None without a model), from the one enumeration of its paths
    made here; a model whose paths cannot be enumerated raises MuddError."""

    _fields = ("name", "features", "infeasible_count", "model", "parent")

    def __init__(self, name: str, features: Iterable[str], infeasible_count: int,
                 model: MuDD | None = None, parent: tuple | list | None = None):
        if infeasible_count < 0:
            raise MuddError(f"entry {name!r} has a negative infeasible count")
        if isinstance(features, str):  # not a set of its characters
            raise MuddError(f"entry {name!r} has features {features!r}, a string")
        pair = tuple(parent) if isinstance(parent, (tuple, list)) else ()  # not "pr"
        if parent is not None and (len(pair) != 2 or not isinstance(pair[0], str)):
            raise MuddError(f"entry {name!r} has parent {parent!r}, not a (name, kind) pair")
        parent = pair or None
        if parent and parent[1] not in ("relaxation", "pruning"):
            raise MuddError(f"entry {name!r} has unknown edge kind {parent[1]!r}")
        generators = None if model is None else normalize_signatures(
            p.counts for p in enumerate_mupaths(model))
        self._set(name=name, features=frozenset(features),
                  infeasible_count=infeasible_count, model=model, parent=parent,
                  generators=generators)


class ModelCatalog(Record):
    """Explored models: `entries` is one tuple of `ModelEntry`, in file order.

    Every check that spans entries runs here, and MuddError names the first
    fault in this order: duplicate names, missing parents, parent cycles, a
    relaxation edge whose models infer different namespaces (parse both
    with one `CounterNamespace`). Outside `_fields`: an index by name, and
    `relaxations`, the (parent, child) pairs of relaxation edges between models."""

    _fields = ("entries", "dataset_id", "feature_order")

    def __init__(self, entries: Sequence[ModelEntry], dataset_id: str = "",
                 feature_order: tuple[str, ...] = ()):
        entries = tuple(entries)
        index: dict[str, ModelEntry] = {}
        for entry in entries:
            if entry.name in index:
                raise MuddError(f"duplicate entry name {entry.name!r}")
            index[entry.name] = entry
        for entry in entries:
            if entry.parent is not None and entry.parent[0] not in index:
                raise MuddError(f"entry {entry.name!r} references missing parent "
                                f"{entry.parent[0]!r}")
        rooted: set[str] = set()  # entries whose parent chain ends
        for name in index:
            chain = []
            while name is not None and name not in rooted and name not in chain:
                chain.append(name)
                parent = index[name].parent
                name = parent[0] if parent else None
            if name in chain:
                cycle = chain[chain.index(name):] + [name]
                raise MuddError(f"parent cycle {' -> '.join(map(repr, reversed(cycle)))} "
                                "(each entry the parent of the next)")
            rooted.update(chain)
        relaxations = tuple(
            (index[e.parent[0]], e) for e in entries
            if e.parent and e.parent[1] == "relaxation" and e.model is not None
            and index[e.parent[0]].model is not None)
        for parent, child in relaxations:
            if parent.model.namespace.names != child.model.namespace.names:
                raise MuddError(f"relaxation {parent.name!r} -> {child.name!r}: the two models "
                                "infer different counter namespaces; parse both with one "
                                "CounterNamespace, as a catalog file's 'namespace' key does")
        self._set(entries=entries, dataset_id=dataset_id, feature_order=feature_order,
                  _index=index, relaxations=relaxations)


_PARENT_SHAPE = '{"name": <entry name>, "kind": "relaxation" | "pruning"}'


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def load_catalog(path) -> ModelCatalog:
    """Read a catalog JSON file; model paths resolve relative to it.

    Each model is parsed in the counter order of the `namespace` key, if
    any, and its paths enumerated once, for the entry's generators, so a
    model `mudd paths` refuses raises MuddError naming the catalog, entry
    and model. A value of the wrong type raises MuddError naming the file,
    the entry (by name, or by position when the name itself is bad) and the
    key; so does a top-level `features` or `namespace` that names a value
    twice. `ModelCatalog` checks what spans entries, and its MuddError
    comes back prefixed with `catalog <path>: `.
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
    entries = []
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
            entries.append(ModelEntry(name, features, count, model=model, parent=parent))
        except MuddError as exc:  # only the model can fail: the other fields are checked
            raise MuddError(f"catalog {path}: entry {name!r} model {resolved}: {exc}") from exc
    try:
        return ModelCatalog(entries, raw.get("dataset_id", ""),
                            tuple(raw.get("features") or ()))
    except MuddError as exc:
        raise MuddError(f"catalog {path}: {exc}") from None


def classify(catalog: ModelCatalog) -> tuple[frozenset[str], frozenset[str]]:
    """Partition entry names into (feasible, infeasible) by infeasible count."""
    feasible = frozenset(e.name for e in catalog.entries if e.infeasible_count == 0)
    return feasible, frozenset(catalog._index) - feasible


def required_features(catalog: ModelCatalog, feasible: frozenset[str]) -> frozenset[str]:
    """Features present in every feasible entry, named as `classify` names
    them; the ones the explored space forces."""
    if not feasible:
        raise MuddError("no feasible entries in the catalog")
    return frozenset.intersection(*(catalog._index[name].features for name in feasible))


def minimal_feasible(catalog: ModelCatalog, feasible: frozenset[str]) -> frozenset[str]:
    """Feasible entries, named as `classify` names them, whose feature set is
    inclusion-minimal among feasible ones."""
    features = {name: catalog._index[name].features for name in feasible}
    return frozenset(name for name, mine in features.items()
                     if not any(other < mine for other in features.values()))


def cone_expansion_check(parent: Sequence[Vector], child: Sequence[Vector]) -> bool:
    """True iff every parent generator lies in the child's cone (cone grew or held).

    Both are normalized generators (primitive and deduplicated) in one
    counter namespace, as `ModelEntry.generators` of a relaxation edge that
    `ModelCatalog` accepted. A parent generator that is also a child
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
        for parent, child in catalog.relaxations
    ]
