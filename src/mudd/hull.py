"""Exact double-description conic hull over integer rays.

The boundary of the cone is kept as one entry per geometric facet: a
primitive integer inward normal n (n.r >= 0 for every ray inserted so far)
and the frozenset of inserted rays tight on it (n.r = 0). A ray p is
inserted by splitting the facets by the sign of n.p: those with n.p >= 0
stay (p joins the tight set of those with n.p = 0), those with n.p < 0 go.
Every pair of a kept facet h (n_h.p > 0) and a dropped facet v (n_v.p < 0)
that are adjacent yields one new facet, the combination of their normals
that vanishes on p,

    (n_h.p) n_v - (n_v.p) n_h,

which vanishes on the rays tight on both, is inward because both
coefficients are positive, and is nonzero because n_v and n_h are
independent. Adjacency is combinatorial: h and v share at least d-2 tight
rays, and no third facet is tight on all of them (Fukuda & Prodon, "Double
description method revisited", 1996). A non-extreme ray costs one dot
product per facet. The seed simplex is one `exact.rref`, and every later
normal is one `exact.combine` of two adjacent facets, the Gauss-Jordan step
of the double description method.
"""
from __future__ import annotations

from collections.abc import Sequence
from operator import index

from . import exact
from .errors import MuddError

Ray = tuple[int, ...]


def convex_hull_hyperplanes(rays: Sequence[Sequence[int]]) -> list[Ray]:
    """Primitive integer inward normals of the facets of a pointed cone.

    The integer rays must span their space and generate a pointed cone. Each
    returned n satisfies n.r >= 0 for every ray, with equality on its facet;
    there is one normal per geometric facet. Non-extreme and duplicate rays
    are allowed; an entry that is not an integer raises TypeError.
    """
    rays = list(dict.fromkeys(tuple(map(index, r)) for r in rays))
    if not rays:
        raise MuddError("no rays")
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
        raise MuddError("rays do not span the space")

    facets = [
        (exact.primitive(row[m:]), frozenset(seed[:i] + seed[i + 1 :]))
        for i, row in enumerate(reduced)
    ]
    in_seed = set(seed)
    for idx, p in enumerate(rays):
        if idx in in_seed:
            continue
        kept, hidden, visible = [], [], []
        for k, (n, tight) in enumerate(facets):
            side = exact.dot(n, p)
            if side > 0:
                kept.append((n, tight))
                hidden.append((k, side))
            elif side == 0:
                kept.append((n, tight | {idx}))
            else:
                visible.append((k, side))
        for h, s_h in hidden:
            n_h, z_h = facets[h]
            for v, s_v in visible:
                n_v, z_v = facets[v]
                ridge = z_h & z_v
                if len(ridge) < dim - 2 or any(
                    ridge <= z for k, (_, z) in enumerate(facets) if k != h and k != v
                ):
                    continue
                kept.append((tuple(exact.combine(n_v, n_h, s_h, s_v)), ridge | {idx}))
        facets = kept

    return [n for n, _ in facets]
