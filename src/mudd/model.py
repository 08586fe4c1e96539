"""Micro-op path decision diagrams.

A diagram (MuDD) is a DAG of event, counter, decision and done nodes joined
by causality edges; decision edges carry a value label for the decision's
property. Enumeration walks every branch choice once and yields each
micro-op execution path (MuPath) with its counter signature, the number of
its visits to each counter: the generators of the model cone downstream.
"""
from __future__ import annotations

from collections.abc import Iterable

from .errors import MuddError

# the most paths a model may have; past it enumeration raises MuddError.
# A guard on outside input, not a setting: deducing the constraints of far
# fewer paths (65,536 distinct signatures) runs for minutes on 2 vCPUs.
PATH_CAP = 100_000

NODE_KINDS = ("event", "counter", "decision", "done")


class Record:
    """Base of the package's record classes: immutable, with `==`, `hash`
    and a `Name(field=value, ...)` repr over the attributes named in
    `_fields`, in that order, a frozenset's elements sorted by their repr.

    A subclass writes its own `__init__`, which validates its arguments and
    stores them with `_set`. Attributes stored but not named in `_fields`
    (caches, back references) take no part in `==`, `hash` or the repr.
    Pickling copies the attribute dictionary and needs nothing more.
    """

    _fields: tuple[str, ...] = ()

    def _set(self, **attrs) -> None:
        # attribute by attribute: reading `self.__dict__` would give every
        # instance a dict object of its own, twice the memory of the inline
        # attribute values CPython keeps otherwise
        for name, value in attrs.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        # a frozenset's own repr follows its hash table: equal sets can print apart
        values = ((f, getattr(self, f)) for f in self._fields)
        fields = ", ".join(f"{f}=frozenset({sorted(v, key=repr)!r})" if isinstance(v, frozenset)
                           else f"{f}={v!r}" for f, v in values)
        return f"{type(self).__qualname__}({fields})"


class CounterNamespace(Record):
    """Ordered set of distinct counter names; the order fixes vector coordinates.

    A string is refused, not split into one counter per character, with
    MuddError; a name that is not a string raises TypeError."""

    _fields = ("names",)

    def __init__(self, names: Iterable[str]):
        if isinstance(names, str):
            raise MuddError("a namespace takes a sequence of counter names, not a string")
        names = tuple(names)
        index: dict[str, int] = {}
        for i, n in enumerate(names):
            if not isinstance(n, str):
                raise TypeError(f"counter name {n!r} is not a string")
            if n in index:
                raise MuddError(f"duplicate counter name {n!r} in namespace")
            index[n] = i
        self._set(names=names, index=index)

    def position(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise MuddError(f"counter {name!r} not in namespace") from None

    def restrict(self, keep: Iterable[str]) -> "CounterNamespace":
        """Sub-namespace with only `keep` names, preserving this order."""
        keep = set(keep)
        return CounterNamespace(n for n in self.names if n in keep)

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.index

    def __iter__(self):
        return iter(self.names)


class Node(Record):
    """One diagram node. `name` holds the event name, counter name, or decision property."""

    _fields = ("node_id", "kind", "name", "label")

    def __init__(self, node_id: int, kind: str, name: str | None = None,
                 label: str | None = None):
        self._set(node_id=node_id, kind=kind, name=name, label=label)


class CausalityEdge(Record):
    _fields = ("src", "dst", "value")

    def __init__(self, src: int, dst: int, value: str | None = None):
        # `value` is the case label; set only on decision out-edges
        self._set(src=src, dst=dst, value=value)


class MuDD(Record):
    """Immutable diagram, checked for every structural invariant when built.

    `out_edges` maps each node id to its causality edges in declaration
    order. A structural fault raises MuddError, a happens-before edge that
    is not a (src, dst) pair among them.
    """

    _fields = ("nodes", "causality", "happens_before", "entry", "namespace")

    def __init__(self, nodes: tuple[Node, ...], causality: tuple[CausalityEdge, ...],
                 happens_before: tuple[tuple[int, int], ...], entry: int,
                 namespace: CounterNamespace):
        by_id: dict[int, Node] = {}
        for n in nodes:
            if n.node_id in by_id:
                raise MuddError(f"duplicate node id {n.node_id}")
            by_id[n.node_id] = n
            if n.kind not in NODE_KINDS:
                raise MuddError(f"node {n.node_id} has unknown kind {n.kind!r}")
            if n.kind == "counter":
                if n.name not in namespace:
                    raise MuddError(
                        f"counter node {n.node_id} references {n.name!r}, "
                        "which is not in the namespace"
                    )
            if n.kind in ("event", "decision") and not n.name:
                raise MuddError(f"{n.kind} node {n.node_id} has no name")
        if entry not in by_id:
            raise MuddError(f"entry node {entry} does not exist")
        out: dict[int, list[CausalityEdge]] = {node_id: [] for node_id in by_id}
        for e in causality:
            if e.src not in out or e.dst not in out:
                raise MuddError(f"causality edge {e} references a missing node")
            out[e.src].append(e)
        for edge in happens_before:
            if len(edge) != 2:
                raise MuddError(f"happens-before edge {edge} is not a (src, dst) pair")
            src, dst = edge
            if src not in by_id or dst not in by_id:
                raise MuddError(f"happens-before edge ({src}, {dst}) references a missing node")
        out_edges = {k: tuple(v) for k, v in out.items()}
        for n in nodes:
            edges = out_edges[n.node_id]
            if n.kind == "done":
                if edges:
                    raise MuddError(f"done node {n.node_id} has outgoing causality edges")
            elif n.kind == "decision":
                if not edges:
                    raise MuddError(f"decision node {n.node_id} has no outgoing edges")
                values = [e.value for e in edges]
                if None in values:
                    raise MuddError(f"decision node {n.node_id} has an unlabeled edge")
                if len(set(values)) != len(values):
                    raise MuddError(f"decision node {n.node_id} has duplicate edge labels")
            else:
                if len(edges) != 1:
                    raise MuddError(
                        f"{n.kind} node {n.node_id} must have exactly one outgoing edge, "
                        f"has {len(edges)}"
                    )
                if edges[0].value is not None:
                    raise MuddError(f"non-decision node {n.node_id} has a labeled edge")
        indegree = dict.fromkeys(out_edges, 0)
        for e in causality:
            indegree[e.dst] += 1
        # Kahn's algorithm: a node it cannot place is on or below a cycle
        ready = [n.node_id for n in nodes if indegree[n.node_id] == 0]
        placed = set()
        while ready:
            node_id = ready.pop()
            placed.add(node_id)
            for e in out_edges[node_id]:
                indegree[e.dst] -= 1
                if indegree[e.dst] == 0:
                    ready.append(e.dst)
        if len(placed) < len(nodes):
            # each node left out has a predecessor left out; walking back
            # through them must repeat a node, and that node is on a cycle
            back = {e.dst: e.src for e in causality
                    if e.src not in placed and e.dst not in placed}
            node_id = next(n.node_id for n in nodes if n.node_id not in placed)
            seen = set()
            while node_id not in seen:
                seen.add(node_id)
                node_id = back[node_id]
            raise MuddError(
                f"causality cycle through node {node_id}; diagrams must be acyclic"
            )
        self._set(nodes=nodes, causality=causality, happens_before=happens_before,
                  entry=entry, namespace=namespace, _by_id=by_id,
                  out_edges=out_edges)

    def node(self, node_id: int) -> Node:
        return self._by_id[node_id]


class MuPath(Record):
    """One enumerated micro-op execution path through a diagram.

    `property_assignment` holds (property, value) pairs in traversal order;
    `counts`, the path's counter signature, holds the number of visits to
    each counter along it, in the order of the diagram's namespace.
    """

    _fields = ("property_assignment", "counts")

    def __init__(self, property_assignment: tuple[tuple[str, str], ...],
                 counts: tuple[int, ...]):
        self._set(property_assignment=property_assignment, counts=counts)


def describe_decisions(property_assignment) -> str:
    """(property, value) pairs as `P=v, Q=w`, the way every output spells a path."""
    if not property_assignment:
        return "(no decisions)"
    return ", ".join(f"{p}={v}" for p, v in property_assignment)


def enumerate_mupaths(model: MuDD) -> tuple[MuPath, ...]:
    """All distinct paths of `model`, depth-first, edges in declaration
    order, each with its counter signature.

    Branches over every value of an unassigned decision property; an already
    assigned property follows its matching edge. A stack of pending branches
    stands in for recursion, so a chain of any length enumerates, and a path's
    state is copied only where paths split. Raises MuddError, in path order,
    when the path count exceeds `PATH_CAP`, when an assigned property has no
    matching edge, and when a path visits the two nodes of a happens-before
    edge in the other order (or the edge joins a node to itself), naming them
    by label and the path by its properties. An edge whose two nodes are not
    both on a path constrains nothing there.
    """
    out = model.out_edges
    ns = model.namespace
    slot = {n.node_id: ns.index[n.name] for n in model.nodes if n.kind == "counter"}
    paths: list[MuPath] = []
    # paths still to walk: (node to resume at, node ids before it, assignment)
    pending: list[tuple[int, list[int], dict[str, str]]] = [(model.entry, [], {})]
    while pending:
        node_id, trail, assignment = pending.pop()
        node = model.node(node_id)
        while node.kind != "done":
            trail.append(node_id)
            edges = out[node_id]
            if node.kind != "decision":
                node_id = edges[0].dst
            elif node.name not in assignment:
                for e in reversed(edges[1:]):
                    pending.append((e.dst, trail.copy(), {**assignment, node.name: e.value}))
                assignment[node.name] = edges[0].value
                node_id = edges[0].dst
            else:
                value = assignment[node.name]
                for e in edges:
                    if e.value == value:
                        node_id = e.dst
                        break
                else:
                    raise MuddError(f"property {node.name!r} is assigned {value!r} but "
                                    f"decision node {node_id} has no matching edge")
            node = model.node(node_id)
        trail.append(node_id)
        if len(paths) >= PATH_CAP:
            raise MuddError(f"more than {PATH_CAP} paths, the fixed limit; "
                            "simplify the model")
        properties = tuple(assignment.items())
        if model.happens_before:
            index_of = {n: i for i, n in enumerate(trail)}
            for src, dst in model.happens_before:
                if src in index_of and dst in index_of and index_of[src] >= index_of[dst]:
                    src_name, dst_name = (model.node(n).label or f"node {n}"
                                          for n in (src, dst))
                    raise MuddError(
                        f"order {src_name} -> {dst_name} contradicts causality "
                        f"on path {describe_decisions(properties)}"
                    )
        counts = [0] * len(ns)
        for n in trail:
            if n in slot:
                counts[slot[n]] += 1
        paths.append(MuPath(properties, tuple(counts)))
    return tuple(paths)


# the paths read as their signatures, `counts`, with duplicates kept: merging
# them is a cone concern. `batch_check` and the benchmark harness
# (perfbench/) call enumeration by this name
signatures_of_model = enumerate_mupaths
