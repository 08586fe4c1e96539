"""Exact incremental convex hull over rational points.

Triangulated beneath-beyond: facets are stored as simplices; a point is
inserted by deleting the facets its position strictly violates and coning it
over the horizon ridges. With exact Fractions a point outside the current
hull always strictly violates some facet, and every new facet simplex is
non-degenerate, so no perturbation is needed. Coplanar simplices are merged
at the end by deduplicating normalized supporting hyperplanes.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import exact
from .errors import DegenerateHull

Point = tuple[Fraction, ...]
Hyperplane = tuple[tuple[Fraction, ...], Fraction]  # (a, b) with a.x <= b inside


def _sub(p: Point, q: Point) -> tuple[Fraction, ...]:
    return tuple(x - y for x, y in zip(p, q))


def _dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


class _Facet:
    __slots__ = ("vertices", "normal", "offset")

    def __init__(self, vertices: tuple[int, ...], normal: tuple[Fraction, ...], offset: Fraction):
        self.vertices = vertices
        self.normal = normal
        self.offset = offset


def convex_hull_hyperplanes(points: Sequence[Point]) -> list[Hyperplane]:
    """Supporting hyperplanes of the hull facets, one per geometric facet.

    Points must affinely span their space. Each returned (a, b) satisfies
    a.x <= b for every input point, with equality on the facet; vectors are
    scaled to primitive integers.
    """
    pts = list(dict.fromkeys(tuple(Fraction(x) for x in p) for p in points))
    if not pts:
        raise DegenerateHull("no points")
    dim = len(pts[0])
    if dim < 2:
        raise DegenerateHull("hull requires dimension >= 2")

    # seed simplex: the first affinely independent points, which are the
    # pivot columns of the difference vectors stacked as columns
    diffs = [_sub(p, pts[0]) for p in pts[1:]]
    _, pivots = exact.rref([[d[c] for d in diffs] for c in range(dim)], len(diffs))
    if len(pivots) != dim:
        raise DegenerateHull("points do not span the space")
    seed = [0] + [i + 1 for i in pivots]

    interior = tuple(sum(pts[i][c] for i in seed) / (dim + 1) for c in range(dim))

    def make_facet(vertex_ids: tuple[int, ...]) -> _Facet:
        base = pts[vertex_ids[0]]
        vectors = [_sub(pts[v], base) for v in vertex_ids[1:]]
        _, normals = exact.null_space(vectors, dim)
        if len(normals) != 1:
            raise DegenerateHull("facet vertices are not affinely independent")
        normal = tuple(normals[0])
        offset = _dot(normal, base)
        side = _dot(normal, interior)
        if side == offset:
            raise DegenerateHull("interior point lies on a facet hyperplane")
        if side > offset:
            normal = tuple(-x for x in normal)
            offset = -offset
        return _Facet(tuple(sorted(vertex_ids)), normal, offset)

    facets: dict[int, _Facet] = {}
    next_id = 0
    ridge_map: dict[frozenset[int], list[int]] = {}

    def add_facet(f: _Facet) -> None:
        nonlocal next_id
        fid = next_id
        next_id += 1
        facets[fid] = f
        for ridge in _ridges(f.vertices):
            ridge_map.setdefault(ridge, []).append(fid)

    def remove_facet(fid: int) -> None:
        f = facets.pop(fid)
        for ridge in _ridges(f.vertices):
            incident = ridge_map[ridge]
            incident.remove(fid)
            if not incident:
                del ridge_map[ridge]

    def _ridges(vertices: tuple[int, ...]):
        for skip in range(len(vertices)):
            yield frozenset(vertices[:skip] + vertices[skip + 1 :])

    for skip in range(dim + 1):
        add_facet(make_facet(tuple(seed[:skip] + seed[skip + 1 :])))

    in_seed = set(seed)
    for idx in range(len(pts)):
        if idx in in_seed:
            continue
        p = pts[idx]
        visible = [fid for fid, f in facets.items() if _dot(f.normal, p) > f.offset]
        if not visible:
            continue
        visible_set = set(visible)
        horizon: list[frozenset[int]] = []
        for fid in visible:
            for ridge in _ridges(facets[fid].vertices):
                incident = ridge_map[ridge]
                if any(other not in visible_set for other in incident):
                    horizon.append(ridge)
        for fid in visible:
            remove_facet(fid)
        for ridge in horizon:
            add_facet(make_facet(tuple(ridge) + (idx,)))

    # a positive rescaling to primitive integers merges coplanar simplices
    planes = dict.fromkeys(exact.primitive(f.normal + (f.offset,)) for f in facets.values())
    return [(tuple(Fraction(x) for x in p[:-1]), Fraction(p[-1])) for p in planes]
