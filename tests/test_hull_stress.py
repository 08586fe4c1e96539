"""Randomized cross-checks of the exact hull and simplex cores.

The hull is compared against the subset-enumeration facet oracle on cone
families chosen to be degenerate (0/1 generators, orthant mixtures, products
of simplices), also when fed non-extreme, duplicated and rescaled generators;
products too large for the oracle are checked normal by normal;
the simplex is fed systems whose verdicts carry certificates (a non-negative
solution, or a dual vector in the infeasibility direction).
"""
import itertools
import math
import random
from fractions import Fraction

import pytest

from mudd import hull
from mudd.geometry import (
    conic_hull_facets,
    find_equalities,
    normalize_signatures,
    remove_interior_generators,
)
from mudd.linprog import solve_equality_form

from conftest import brute_force_facets, rank_of


def test_hull_matches_oracle_on_degenerate_cones():
    rng = random.Random(424242)
    tested = 0
    while tested < 250:
        dim = rng.randint(2, 5)
        style = rng.random()
        n = rng.randint(dim, dim + 4)
        if style < 0.3:  # 0/1 vectors: coplanar-rich
            gens = [tuple(rng.randint(0, 1) for _ in range(dim)) for _ in range(n)]
        elif style < 0.6:
            gens = [tuple(rng.randint(0, 3) for _ in range(dim)) for _ in range(n)]
        else:  # orthant plus extras
            gens = [tuple(1 if i == k else 0 for i in range(dim)) for k in range(dim)]
            gens += [tuple(rng.randint(0, 2) for _ in range(dim)) for _ in range(n - dim)]
        norm = normalize_signatures(gens)
        if not norm:
            continue
        _, reduced, _ = find_equalities(norm, dim)
        if len(reduced[0]) != dim:
            continue  # the oracle is written for full-rank ambient spaces
        tested += 1
        extreme = remove_interior_generators(norm)
        got = {c.coefficients for c in conic_hull_facets(extreme)}
        assert got == brute_force_facets(list(extreme), dim), extreme


def _check_kernel(rays, dim, gens):
    """Kernel normals are primitive, one-sided on every ray, and the facets of
    the cone of `gens`, which the extra rays in `rays` lie in."""
    normals = hull.convex_hull_hyperplanes(rays)
    for n in normals:
        assert math.gcd(*n) == 1, n
        assert all(sum(a * x for a, x in zip(n, r)) >= 0 for r in rays), n
    assert len(set(normals)) == len(normals)
    expected = brute_force_facets(list(dict.fromkeys(gens)), dim)
    assert set(normals) == expected, rays
    assert {c.coefficients for c in conic_hull_facets(rays)} == expected


def test_hull_with_non_extreme_generators_matches_oracle():
    rng = random.Random(20240611)
    tested = 0
    while tested < 150:
        dim = rng.randint(1, 7)
        n = rng.randint(dim, min(dim + 3, 9))
        style = rng.random()
        if style < 0.4:  # 0/1 vectors: coplanar-rich
            gens = [tuple(rng.randint(0, 1) for _ in range(dim)) for _ in range(n)]
        else:
            gens = [tuple(rng.randint(0, 3) for _ in range(dim)) for _ in range(n)]
        gens = [g for g in gens if any(g)]
        if not gens or find_equalities(gens, dim)[2] != tuple(range(dim)):
            continue  # the oracle is written for full-rank ambient spaces
        extras = []
        while len(gens) + len(extras) < 12:
            kind = rng.randrange(4)
            a, b = rng.choice(gens), rng.choice(gens)
            if kind == 0:  # interior, or on a face when a and b share one
                extras.append(tuple(x + y for x, y in zip(a, b)))
            elif kind == 1:  # the sum of every generator: interior
                extras.append(tuple(map(sum, zip(*gens))))
            elif kind == 2:
                extras.append(a)
            else:
                scale = rng.randint(2, 3)
                extras.append(tuple(scale * x for x in a))
        rays = gens + extras
        rng.shuffle(rays)
        tested += 1
        _check_kernel(rays, dim, gens)


def _product_of_simplices(shape, total):
    blocks = []
    for k in shape:
        start = sum(len(b) for b in blocks)
        blocks.append(range(start, start + k))
    dim = sum(shape) + int(total)
    gens = []
    for combo in itertools.product(*blocks):
        v = [0] * dim
        for c in combo:
            v[c] = 1
        if total:
            v[-1] = 1
        gens.append(tuple(v))
    return gens


@pytest.mark.parametrize("shape", [(2, 2), (3, 2), (2, 2, 2), (3, 3), (4, 3), (2, 2, 3)])
@pytest.mark.parametrize("total", [False, True])
def test_hull_of_product_of_simplices_matches_oracle(shape, total):
    gens = _product_of_simplices(shape, total)
    _, reduced, _ = find_equalities(gens, len(gens[0]))
    rdim = len(reduced[0])
    assert rdim == sum(k - 1 for k in shape) + 1
    _check_kernel(list(reduced), rdim, reduced)
    assert len(brute_force_facets(list(reduced), rdim)) == sum(shape)


@pytest.mark.parametrize("shape", [(4, 4, 4), (2, 2, 2, 2, 2, 2)])
@pytest.mark.parametrize("total", [False, True])
def test_hull_of_catalog_sized_products(shape, total):
    # 64 rays: too many (d-1)-subsets for the oracle, so check each normal
    # directly: primitive, one-sided, distinct, and tight on rays of rank d-1
    gens = _product_of_simplices(shape, total)
    _, reduced, _ = find_equalities(gens, len(gens[0]))
    rdim = len(reduced[0])
    normals = hull.convex_hull_hyperplanes(reduced)
    assert len(normals) == sum(shape)
    assert len(set(normals)) == len(normals)
    for n in normals:
        assert math.gcd(*n) == 1, n
        sides = [sum(a * x for a, x in zip(n, r)) for r in reduced]
        assert min(sides) >= 0, n
        assert rank_of([r for r, s in zip(reduced, sides) if s == 0]) == rdim - 1, n


def test_simplex_verdicts_are_certified():
    rng = random.Random(777)
    for trial in range(300):
        m = rng.randint(1, 5)
        n = rng.randint(1, 7)
        if trial % 2 == 0:
            # feasible by construction: b = A @ x* with x* >= 0
            A = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
            xstar = [Fraction(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(n)]
            b = [sum(A[i][j] * xstar[j] for j in range(n)) for i in range(m)]
            x = solve_equality_form(A, b, n)
            assert x is not None
            for i in range(m):
                assert sum(A[i][j] * x[j] for j in range(n)) == b[i]
            assert all(v >= 0 for v in x)
        else:
            # infeasible by a Farkas certificate: y with yA <= 0 and yb > 0
            y = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
            if all(v == 0 for v in y):
                y[0] = Fraction(1)
            A = [[Fraction(0)] * n for _ in range(m)]
            for j in range(n):
                col = [Fraction(rng.randint(-4, 4)) for _ in range(m)]
                if sum(y[i] * col[i] for i in range(m)) > 0:
                    col = [-c for c in col]
                for i in range(m):
                    A[i][j] = col[i]
            b = [Fraction(rng.randint(-4, 4)) for _ in range(m)]
            dot = sum(y[i] * b[i] for i in range(m))
            if dot == 0:
                k = next(i for i in range(m) if y[i] != 0)
                b[k] += Fraction(1, 2) / y[k]
                dot = sum(y[i] * b[i] for i in range(m))
            if dot < 0:
                b = [-v for v in b]
            assert solve_equality_form(A, b, n) is None
