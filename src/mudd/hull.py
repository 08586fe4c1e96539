"""Exact beneath-beyond conic hull over integer rays.

The boundary of the cone is kept as a triangulation: every facet is a simplex
of d-1 rays with a primitive integer inward normal n (n.r >= 0 for every ray
inserted so far), and every ridge of d-2 rays is shared by two facets. A ray p
is inserted by deleting the facets it strictly violates (n.p < 0) and coning
p over each horizon ridge, the ridge between a deleted facet v and a kept
facet h. The new facet's normal is the combination of its two neighbours'
normals that vanishes on p,

    (n_h.p) n_v - (n_v.p) n_h,

which vanishes on the ridge too, is inward because both coefficients are
non-negative, and is nonzero because n_v and n_h are independent. Only the
seed simplex needs an elimination; every later normal is integer arithmetic.
Coplanar simplices share their primitive normal and merge at the end.
"""
from __future__ import annotations

from math import gcd
from typing import Sequence

from . import exact
from .errors import DegenerateHull

Ray = tuple[int, ...]


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def _ridges(vertices: tuple[int, ...]):
    for skip in range(len(vertices)):
        yield frozenset(vertices[:skip] + vertices[skip + 1 :])


def convex_hull_hyperplanes(rays: Sequence[Sequence[int]]) -> list[Ray]:
    """Primitive integer inward normals of the facets of a pointed cone.

    The integer rays must span their space and generate a pointed cone. Each
    returned n satisfies n.r >= 0 for every ray, with equality on its facet;
    there is one normal per geometric facet. Non-extreme and duplicate rays
    are allowed.
    """
    rays = list(dict.fromkeys(tuple(int(x) for x in r) for r in rays))
    if not rays:
        raise DegenerateHull("no rays")
    dim = len(rays[0])

    # seed simplex: the first independent rays, the pivot columns of the rays
    # stacked as columns. Reducing them beside an identity block also yields
    # the inverse E of the seed matrix, whose row i is 1 on seed ray i and 0
    # on the others: the inward normal of the facet that omits seed ray i.
    m = len(rays)
    identity = [[int(r == c) for c in range(dim)] for r in range(dim)]
    stacked = [[ray[c] for ray in rays] + identity[c] for c in range(dim)]
    reduced, pivots = exact.rref(stacked, m + dim)
    seed = [c for c in pivots if c < m]
    if len(seed) != dim:
        raise DegenerateHull("rays do not span the space")

    normals: dict[int, Ray] = {}
    vertices: dict[int, tuple[int, ...]] = {}
    ridge_map: dict[frozenset[int], list[int]] = {}
    next_id = 0

    def add_facet(verts: tuple[int, ...], normal: Ray) -> None:
        nonlocal next_id
        fid = next_id
        next_id += 1
        normals[fid] = normal
        vertices[fid] = verts
        for ridge in _ridges(verts):
            ridge_map.setdefault(ridge, []).append(fid)

    def remove_facet(fid: int) -> None:
        del normals[fid]
        for ridge in _ridges(vertices.pop(fid)):
            incident = ridge_map[ridge]
            incident.remove(fid)
            if not incident:
                del ridge_map[ridge]

    for skip, row in enumerate(reduced):
        add_facet(tuple(seed[:skip] + seed[skip + 1 :]), exact.primitive(row[m:]))

    in_seed = set(seed)
    for idx, p in enumerate(rays):
        if idx in in_seed:
            continue
        side = {fid: _dot(n, p) for fid, n in normals.items()}
        visible = [fid for fid, s in side.items() if s < 0]
        if not visible:
            continue
        horizon = []
        for v in visible:
            for ridge in _ridges(vertices[v]):
                for h in ridge_map[ridge]:
                    if side[h] >= 0:
                        horizon.append((ridge, normals[v], side[v], normals[h], side[h]))
        for fid in visible:
            remove_facet(fid)
        for ridge, n_v, s_v, n_h, s_h in horizon:
            combined = [s_h * a - s_v * b for a, b in zip(n_v, n_h)]
            g = gcd(*combined)
            add_facet(tuple(ridge) + (idx,), tuple(x // g for x in combined))

    return list(dict.fromkeys(normals.values()))
