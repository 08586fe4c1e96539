"""Model cones and explicit constraint deduction.

The cone of a diagram is generated by its path counter signatures, taken as
primitive, deduplicated integer tuples. Its facet description is deduced in
three steps: Gaussian elimination yields the equality constraints and the
pivot columns, coordinates that fix a point of the generators' span; the
generators on the pivots are hulled as integer rays by the
double-description kernel, which accepts non-extreme rays; and each facet
is written back into counter coordinates at the pivots. Deduction runs no
LP. All arithmetic is exact: signatures are small integers, facet normals
are integer combinations of them and elimination runs on integer rows,
where floating point rounding could flip a facet.

`cone_membership` decides by an exact LP whether a point is a non-negative
combination of generators: `explore` checks its relaxation edges with it,
and with `remove_interior_generators` it is the V-representation reference
that tests check the deduced constraints against.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence

from . import exact, hull
from .errors import MuddError
from .model import (
    CounterNamespace,
    MuDD,
    Record,
    enumerate_mupaths,
)

Vector = tuple[int, ...]


def _as_vector(counts) -> Vector:
    if type(counts) is tuple and all(type(c) is int for c in counts):
        return counts  # already a vector: signatures mostly arrive as one
    out = []
    for c in counts:
        if c != int(c):
            raise ValueError(f"signature entries must be integers, got {c!r}")
        out.append(int(c))
    return tuple(out)


class Constraint(Record):
    """One half-space (a.v >= 0) or hyperplane (a.v = 0) with integer coefficients.

    A model's constraint has no `terms`. An inequality the box LP proves
    (provenance "farkas") names the model constraints it combines: `terms`
    holds (integer weight, constraint) pairs, coprime and in `ConstraintSet`
    order, whose weighted sum of coefficients is a positive multiple of
    `coefficients`; a facet's weight is positive, an equality's has either
    sign.
    """

    _fields = ("kind", "coefficients", "provenance", "terms")

    def __init__(self, kind: str, coefficients: Vector, provenance: str = "",
                 terms: tuple[tuple[int, "Constraint"], ...] = ()):
        # kind: "equality" | "inequality"
        self._set(kind=kind, coefficients=coefficients, provenance=provenance, terms=terms)

    def satisfied_by(self, point: Sequence) -> bool:
        if len(point) != len(self.coefficients):
            raise MuddError(
                f"point has {len(point)} coordinates, constraint has {len(self.coefficients)}"
            )
        from fractions import Fraction

        value = sum((Fraction(p) * c for p, c in zip(point, self.coefficients)), Fraction(0))
        return value == 0 if self.kind == "equality" else value >= 0

    def display(self, ns: CounterNamespace) -> str:
        """Render with negative coefficients moved across the relation.

        Inequalities a.v >= 0 read `negative side <= positive side`; equalities
        read `positive side = negative side`, e.g. a sum decomposition. A
        constraint with terms reads as their weighted sum, such as
        `(0 ≤ v1) + 2 × (v1 ≤ v0)`.
        """
        if self.terms:
            out = ""
            for weight, c in self.terms:
                factor = f"{abs(weight)} × " if abs(weight) != 1 else ""
                out += f" {'−' if weight < 0 else '+'} {factor}({c.display(ns)})"
            return out[3:] if out[1] == "+" else "−" + out[3:]
        pos = [(c, ns.names[i]) for i, c in enumerate(self.coefficients) if c > 0]
        neg = [(-c, ns.names[i]) for i, c in enumerate(self.coefficients) if c < 0]

        def side(terms):
            if not terms:
                return "0"
            return " + ".join(f"{c}*{n}" if c != 1 else n for c, n in terms)

        if self.kind == "equality":
            return f"{side(pos)} = {side(neg)}"
        return f"{side(neg)} ≤ {side(pos)}"


class ConstraintSet(Record):
    """Deduced constraints. `pivot_columns` are coordinates that fix a point
    on the equalities: deduction gives the pivots of `find_equalities`, and
    every coordinate, `tuple(range(len(namespace)))`, is always such a set.
    They take no part in `==`."""

    _fields = ("equalities", "inequalities", "namespace")

    def __init__(self, equalities: tuple[Constraint, ...],
                 inequalities: tuple[Constraint, ...], namespace: CounterNamespace,
                 pivot_columns: tuple[int, ...]):
        self._set(equalities=equalities, inequalities=inequalities, namespace=namespace,
                  pivot_columns=pivot_columns)

    def __iter__(self):
        yield from self.equalities
        yield from self.inequalities

    def satisfied_by(self, point: Sequence) -> bool:
        return all(c.satisfied_by(point) for c in self)


def normalize_signatures(sigs: Iterable) -> tuple[Vector, ...]:
    """Primitive, deduplicated, lexicographically sorted generators.

    Equal signatures merge first, so each distinct one is divided by the
    gcd of its entries once; zero signatures contribute nothing to the cone
    and are dropped.
    """
    return tuple(sorted({exact.primitive(v) for v in set(map(_as_vector, sigs)) if any(v)}))


# ---------------------------------------------------------------------------
# step 2: equalities by exact Gaussian elimination


def find_equalities(
    gens: Sequence, dim: int
) -> tuple[tuple[Constraint, ...], tuple[Vector, ...], tuple[int, ...]]:
    """Equality constraints, the generators in full-rank coordinates, and
    the pivot columns that give those coordinates.

    The equalities are an integer basis of the orthogonal complement of the
    generator span in dimension `dim` (the null space of the generator
    matrix); an empty generator set therefore yields v_i = 0 for every
    coordinate.
    """
    vectors = [_as_vector(g) for g in gens]
    for v in vectors:
        if len(v) != dim:
            raise MuddError("generator length does not match dimension")
    pivots, null_basis = exact.null_space(vectors, dim)
    equalities = []
    for v in null_basis:
        # orthogonal to every generator; leading coefficient made positive
        if next(x for x in v if x) < 0:
            v = tuple(-x for x in v)
        equalities.append(
            Constraint(kind="equality", coefficients=v, provenance="gaussian-elimination")
        )
    pivots = tuple(pivots)
    reduced = tuple(dict.fromkeys(tuple(v[c] for c in pivots) for v in vectors))
    return tuple(equalities), reduced, pivots


# ---------------------------------------------------------------------------
# V-representation by exact membership LPs (not used by deduction)


def cone_membership(gens: Sequence, point: Sequence) -> bool:
    """True iff point is a non-negative combination of the generators (exact LP)."""
    from . import linprog

    vectors = [_as_vector(g) for g in gens]
    p = list(point)
    for v in vectors:
        if len(v) != len(p):
            raise MuddError(
                f"generator dimension {len(v)} does not match point dimension {len(p)}"
            )
    A = [[v[i] for v in vectors] for i in range(len(p))]
    return linprog.solve_equality_form(A, p, len(vectors)) is not None


def remove_interior_generators(gens: Sequence) -> tuple[Vector, ...]:
    """Drop every generator expressible as a non-negative combination of the rest.

    After deduplication the survivors are exactly the extreme rays, so the
    cone is unchanged; order of removal does not matter for pointed cones.
    """
    keep = list(dict.fromkeys(_as_vector(g) for g in gens))
    i = 0
    while i < len(keep):
        others = keep[:i] + keep[i + 1 :]
        if others and cone_membership(others, keep[i]):
            keep.pop(i)
        else:
            i += 1
    return tuple(keep)


# ---------------------------------------------------------------------------
# step 3: facet enumeration through the conic hull


def conic_hull_facets(gens: Sequence) -> tuple[Constraint, ...]:
    """Facet inequalities a.v >= 0 of the cone spanned by full-rank generators.

    The integer generators, extreme or not, are hulled as rays by the exact
    double-description kernel, which needs a pointed cone: every generator
    must be non-negative and nonzero. Each facet is checked to hold on every
    generator.
    """
    vectors = list(dict.fromkeys(_as_vector(g) for g in gens))
    if not vectors:
        return ()
    if any(min(v) < 0 or not any(v) for v in vectors):
        raise MuddError("signature generators must be non-negative and nonzero")

    facets = set(hull.convex_hull_hyperplanes(vectors))
    for coeffs in facets:
        if any(exact.dot(coeffs, v) < 0 for v in vectors):
            raise MuddError(f"facet {coeffs} is not one-sided on the generators")

    return tuple(
        Constraint(kind="inequality", coefficients=f, provenance="conic-hull")
        for f in sorted(facets)
    )


# ---------------------------------------------------------------------------
# composition


def constraints_from_signatures(
    sigs: Iterable, namespace: CounterNamespace
) -> ConstraintSet:
    """Run the three deduction steps on raw signatures; no LP runs.

    One hull takes every generator on the pivot columns, a direct sum of
    counters that never co-occur included: a ray of one summand costs the
    kernel one dot product per facet of the other.
    """
    gens = normalize_signatures(sigs)
    equalities, reduced, pivots = find_equalities(gens, len(namespace))
    inequalities = []
    for facet in conic_hull_facets(reduced):
        coefficients = [0] * len(namespace)
        for c, coeff in zip(pivots, facet.coefficients):
            coefficients[c] = coeff
        inequalities.append(Constraint(kind="inequality", coefficients=tuple(coefficients),
                                       provenance="conic-hull"))
    return ConstraintSet(
        equalities=equalities, inequalities=tuple(inequalities), namespace=namespace,
        pivot_columns=pivots,
    )


def deduce_constraints(model: MuDD) -> ConstraintSet:
    """Explicit constraint set of a diagram's model cone."""
    return constraints_from_signatures([p.counts for p in enumerate_mupaths(model)],
                                       model.namespace)
