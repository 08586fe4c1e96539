"""Micro-op path decision diagrams.

A diagram (MuDD) is a DAG of event, counter, decision and done nodes joined
by causality edges; decision edges carry a value label for the decision's
property. Enumerating every branch choice yields the set of micro-op
execution paths (MuPath); counting counter-node visits along a path yields
its counter signature, the generator of the model cone downstream.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Optional

from .errors import (
    CycleDetected,
    DanglingDecision,
    InvalidModel,
    OrderingConflict,
    PathExplosion,
    UnknownCounter,
)

DEFAULT_PATH_CAP = 100_000

NODE_KINDS = ("event", "counter", "decision", "done")


@dataclass(frozen=True)
class CounterNamespace:
    """Ordered set of distinct counter names; the order fixes vector coordinates."""

    names: tuple[str, ...]

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        seen = set()
        for n in names:
            if n in seen:
                raise InvalidModel(f"duplicate counter name {n!r} in namespace")
            seen.add(n)
        object.__setattr__(self, "names", names)

    @cached_property
    def index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def position(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise UnknownCounter(f"counter {name!r} not in namespace") from None

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


@dataclass(frozen=True)
class Node:
    """One diagram node. `name` holds the event name, counter name, or decision property."""

    node_id: int
    kind: str
    name: Optional[str] = None
    label: Optional[str] = None


@dataclass(frozen=True)
class CausalityEdge:
    src: int
    dst: int
    value: Optional[str] = None  # case label; set only on decision out-edges


@dataclass(frozen=True)
class MuDD:
    """Immutable diagram; validate() checks all structural invariants."""

    nodes: tuple[Node, ...]
    causality: tuple[CausalityEdge, ...]
    happens_before: tuple[tuple[int, int], ...]
    entry: int
    namespace: CounterNamespace

    @cached_property
    def _by_id(self) -> dict[int, Node]:
        return {n.node_id: n for n in self.nodes}

    @cached_property
    def out_edges(self) -> dict[int, tuple[CausalityEdge, ...]]:
        out: dict[int, list[CausalityEdge]] = {n.node_id: [] for n in self.nodes}
        for e in self.causality:
            out[e.src].append(e)
        return {k: tuple(v) for k, v in out.items()}

    def node(self, node_id: int) -> Node:
        return self._by_id[node_id]

    def validate(self) -> None:
        ids = set()
        for n in self.nodes:
            if n.node_id in ids:
                raise InvalidModel(f"duplicate node id {n.node_id}")
            ids.add(n.node_id)
            if n.kind not in NODE_KINDS:
                raise InvalidModel(f"node {n.node_id} has unknown kind {n.kind!r}")
            if n.kind == "counter":
                if n.name not in self.namespace:
                    raise UnknownCounter(
                        f"counter node {n.node_id} references {n.name!r}, "
                        "which is not in the namespace"
                    )
            if n.kind in ("event", "decision") and not n.name:
                raise InvalidModel(f"{n.kind} node {n.node_id} has no name")
        if self.entry not in ids:
            raise InvalidModel(f"entry node {self.entry} does not exist")
        for e in self.causality:
            if e.src not in ids or e.dst not in ids:
                raise InvalidModel(f"causality edge {e} references a missing node")
        for src, dst in self.happens_before:
            if src not in ids or dst not in ids:
                raise InvalidModel(f"happens-before edge ({src}, {dst}) references a missing node")
        for n in self.nodes:
            out = self.out_edges[n.node_id]
            if n.kind == "done":
                if out:
                    raise InvalidModel(f"done node {n.node_id} has outgoing causality edges")
            elif n.kind == "decision":
                if not out:
                    raise InvalidModel(f"decision node {n.node_id} has no outgoing edges")
                values = [e.value for e in out]
                if None in values:
                    raise InvalidModel(f"decision node {n.node_id} has an unlabeled edge")
                if len(set(values)) != len(values):
                    raise InvalidModel(f"decision node {n.node_id} has duplicate edge labels")
            else:
                if len(out) != 1:
                    raise InvalidModel(
                        f"{n.kind} node {n.node_id} must have exactly one outgoing edge, "
                        f"has {len(out)}"
                    )
                if out[0].value is not None:
                    raise InvalidModel(f"non-decision node {n.node_id} has a labeled edge")
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        # iterative three-color DFS over causality edges
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {n.node_id: WHITE for n in self.nodes}
        for root in color:
            if color[root] != WHITE:
                continue
            stack: list[tuple[int, int]] = [(root, 0)]
            color[root] = GRAY
            while stack:
                node_id, i = stack[-1]
                edges = self.out_edges[node_id]
                if i < len(edges):
                    stack[-1] = (node_id, i + 1)
                    nxt = edges[i].dst
                    if color[nxt] == GRAY:
                        raise CycleDetected(
                            f"causality cycle through node {nxt}; diagrams must be acyclic"
                        )
                    if color[nxt] == WHITE:
                        color[nxt] = GRAY
                        stack.append((nxt, 0))
                else:
                    color[node_id] = BLACK
                    stack.pop()


@dataclass(frozen=True)
class MuPath:
    """One enumerated micro-op execution path through a diagram."""

    nodes_in_order: tuple[Node, ...]
    property_assignment: tuple[tuple[str, str], ...]  # (property, value) in traversal order
    happens_before: tuple[tuple[int, int], ...]

    @cached_property
    def assignment(self) -> dict[str, str]:
        return dict(self.property_assignment)

    def describe(self) -> str:
        if not self.property_assignment:
            return "(no decisions)"
        return ", ".join(f"{p}={v}" for p, v in self.property_assignment)


@dataclass(frozen=True)
class CounterSignature:
    """Per-path vector of counter increment counts, in namespace order."""

    counts: tuple[int, ...]
    source_path: Optional[MuPath] = field(default=None, compare=False, repr=False)


def enumerate_mupaths(model: MuDD, cap: int = DEFAULT_PATH_CAP) -> tuple[MuPath, ...]:
    """All distinct paths of `model`, depth-first, edges in declaration order.

    Branches over every value of an unassigned decision property; an already
    assigned property follows its matching edge. Raises PathExplosion when the
    path count exceeds `cap`, CycleDetected for cyclic causality edges, and
    DanglingDecision when an assigned property has no matching edge.
    """
    if cap < 1:
        raise ValueError("cap must be a positive integer")
    model.validate()
    out = model.out_edges
    paths: list[MuPath] = []
    trail: list[Node] = []
    assignment: dict[str, str] = {}
    assign_order: list[str] = []

    def emit() -> None:
        if len(paths) >= cap:
            raise PathExplosion(f"more than {cap} paths; raise the cap or simplify the model")
        index_of = {node.node_id: i for i, node in enumerate(trail)}
        instantiated = []
        for src, dst in model.happens_before:
            if src in index_of and dst in index_of:
                if index_of[src] >= index_of[dst]:
                    raise OrderingConflict(
                        f"happens-before edge ({src}, {dst}) contradicts causality order"
                    )
                instantiated.append((src, dst))
        paths.append(
            MuPath(
                nodes_in_order=tuple(trail),
                property_assignment=tuple((p, assignment[p]) for p in assign_order),
                happens_before=tuple(instantiated),
            )
        )

    # depth-first without recursion, so a long chain cannot overflow the
    # stack: `branches` holds, per unassigned decision on the current path,
    # its remaining out-edges, the trail length at it and its property
    branches: list[tuple[Iterator[CausalityEdge], int, str]] = []

    def descend(node_id: int) -> None:
        """Follow the path from `node_id` to a done node or a new branch."""
        while True:
            node = model.node(node_id)
            trail.append(node)
            if node.kind == "done":
                emit()
                return
            if node.kind != "decision":
                node_id = out[node_id][0].dst
            elif node.name not in assignment:
                branches.append((iter(out[node_id]), len(trail), node.name))
                return
            else:
                value = assignment[node.name]
                for e in out[node_id]:
                    if e.value == value:
                        node_id = e.dst
                        break
                else:
                    raise DanglingDecision(
                        f"property {node.name!r} is assigned {value!r} but decision node "
                        f"{node_id} has no matching edge"
                    )

    descend(model.entry)
    while branches:
        edges, depth, prop = branches[-1]
        del trail[depth:]
        if prop in assignment:  # the previous edge of this branch is done
            del assignment[prop]
            assign_order.pop()
        e = next(edges, None)
        if e is None:
            branches.pop()
            continue
        assignment[prop] = e.value
        assign_order.append(prop)
        descend(e.dst)
    return tuple(paths)


def signature_of(path: MuPath, ns: CounterNamespace) -> CounterSignature:
    """Counter signature of one path: counts[i] = visits of counter i along it."""
    counts = [0] * len(ns)
    for node in path.nodes_in_order:
        if node.kind == "counter":
            counts[ns.position(node.name)] += 1
    return CounterSignature(counts=tuple(counts), source_path=path)


def signatures_of_model(model: MuDD, cap: int = DEFAULT_PATH_CAP) -> tuple[CounterSignature, ...]:
    """Signatures of every path, duplicates preserved (dedup is a cone concern)."""
    return tuple(signature_of(p, model.namespace) for p in enumerate_mupaths(model, cap))
