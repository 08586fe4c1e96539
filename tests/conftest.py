import itertools
from fractions import Fraction

import pytest

import mudd
from mudd.model import CounterNamespace, MuDD
from mudd.stats import ConfidenceRegion


@pytest.fixture(scope="session")
def bundled():
    return mudd.bundled_path


@pytest.fixture(scope="session")
def haswell_namespace():
    names = []
    with open(mudd.bundled_path("haswell_counters.txt"), encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                names.append(line)
    return CounterNamespace(names)


def point_box(point):
    """The zero-length box at `point`: identity axes, every half-length 0."""
    n = len(point)
    axes = tuple(tuple(float(i == j) for j in range(n)) for i in range(n))
    return ConfidenceRegion(tuple(float(x) for x in point), axes, (0.0,) * n)


def paths_by_assignment_bruteforce(model: MuDD):
    """Independent path oracle: walk the diagram under every full assignment.

    Enumerates the cartesian product of all decision properties' value sets,
    follows each assignment deterministically from the entry, and
    deduplicates by (node id sequence, sorted assignments actually
    consulted, counter visits), the visits counted per name of the
    namespace, in its order.
    """
    values: dict[str, list[str]] = {}
    for node in model.nodes:
        if node.kind == "decision":
            for e in model.out_edges[node.node_id]:
                values.setdefault(node.name, [])
                if e.value not in values[node.name]:
                    values[node.name].append(e.value)
    props = sorted(values)
    results = set()
    for combo in itertools.product(*(values[p] for p in props)) if props else [()]:
        assignment = dict(zip(props, combo))
        trail = []
        used = {}
        node_id = model.entry
        while True:
            node = model.node(node_id)
            trail.append(node_id)
            if node.kind == "done":
                break
            if node.kind == "decision":
                used[node.name] = assignment[node.name]
                nxt = None
                for e in model.out_edges[node_id]:
                    if e.value == assignment[node.name]:
                        nxt = e.dst
                        break
                if nxt is None:
                    trail = None
                    break
                node_id = nxt
            else:
                node_id = model.out_edges[node_id][0].dst
        if trail is not None:
            visited = [model.node(n).name for n in trail if model.node(n).kind == "counter"]
            counts = tuple(visited.count(name) for name in model.namespace.names)
            results.add((tuple(trail), tuple(sorted(used.items())), counts))
    return results


# -- brute-force facet oracle --------------------------------------------------
# Facets of a full-rank pointed cone the slow way: every (d-1)-subset of
# generators that spans a hyperplane and leaves all generators on one side is
# a facet, and every facet contains d-1 independent generators, so the
# enumeration is complete. Independent of the hull implementation.


def rank_of(vectors):
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][c]
        rows[rank] = [x / lead for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def nullvector_of(vectors, dim):
    rows = [[Fraction(x) for x in v] for v in vectors]
    pivots = []
    r = 0
    for c in range(dim):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(dim) if c not in pivots][0]
    vec = [Fraction(0)] * dim
    vec[free] = Fraction(1)
    for i, c in enumerate(pivots):
        vec[c] = -rows[i][free]
    denom = 1
    for x in vec:
        denom = denom * x.denominator // _gcd(denom, x.denominator)
    ints = [int(x * denom) for x in vec]
    g = 0
    for x in ints:
        g = _gcd(g, abs(x))
    return tuple(x // g for x in ints)


def brute_force_facets(gens, dim):
    if dim == 1:
        return {(1,)}
    facets = set()
    for subset in itertools.combinations(gens, dim - 1):
        if rank_of(subset) != dim - 1:
            continue
        normal = nullvector_of(subset, dim)
        dots = [sum(a * g for a, g in zip(normal, gen)) for gen in gens]
        if all(d >= 0 for d in dots):
            facets.add(normal)
        elif all(d <= 0 for d in dots):
            facets.add(tuple(-a for a in normal))
    return facets
