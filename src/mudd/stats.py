"""Counter sample ingestion and correlated confidence regions.

Interval samples of counter vectors give a sample mean and the plugin
estimate of the mean's covariance: the unbiased sample covariance over the
sample count. The confidence region for the true counter vector is the
ellipsoid of that covariance at a chi-square quantile, approximated by its
principal-axis bounding box: axis directions are covariance eigenvectors and
half-lengths are sqrt(eigenvalue * quantile). Correlated counters shrink the
box in the correlated directions, which is the whole point.

Everything here uses only the standard library: the moments are sums by
`math.fsum`, and the symmetric eigendecomposition is Householder
tridiagonalisation followed by the implicit QL algorithm (EISPACK
`tred2`/`tql2`).
"""
from __future__ import annotations

import csv
import io
import itertools
import math
import warnings
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from numbers import Real
from operator import mul
from pathlib import Path

from . import exact
from .errors import MuddError, read_text
from .model import CounterNamespace, Record


Vector = tuple[float, ...]
Matrix = tuple[Vector, ...]


class ObservationSet(Record):
    """Interval samples for one program run; rows are samples, columns counters.

    `sample_matrix` is any two-dimensional sequence of finite non-negative reals
    (lists of floats from `load_observations`, an array from `mudd.synth`)
    and is kept as given; fewer than two rows raise MuddError. `clamped`
    counts the negative draws `mudd.synth.generate` clipped to zero, and is 0
    for samples read from a file.
    """

    _fields = ("run_id", "sample_matrix", "namespace", "clamped")

    def __init__(self, run_id: str, sample_matrix: Sequence[Sequence[float]],
                 namespace: CounterNamespace, clamped: int = 0):
        try:
            rows = [list(row) for row in sample_matrix]
        except TypeError:
            rows = None
        if rows is None or not all(type(x) is float or isinstance(x, Real)
                                   for row in rows for x in row):
            raise ValueError("sample matrix must be two-dimensional")
        if len(rows) < 2:
            raise MuddError(
                f"run {run_id!r} has {len(rows)} samples; need at least 2"
            )
        width = len(namespace)
        for row in rows:
            if len(row) != width:
                raise ValueError(
                    f"sample matrix has {len(row)} columns for {width} counters"
                )
        if any(x != x or abs(x) == math.inf for row in rows for x in row):
            raise ValueError(f"run {run_id!r} contains non-finite counter values")
        if any(x < 0 for row in rows for x in row):
            raise ValueError(f"run {run_id!r} contains negative counter values")
        self._set(run_id=run_id, sample_matrix=sample_matrix, namespace=namespace,
                  clamped=clamped)

    @property
    def sample_count(self) -> int:
        return len(self.sample_matrix)


class ConfidenceRegion(Record):
    """Principal-axis bounding box of the confidence ellipsoid.

    The region is { v : |axes[i] . (v - center)| <= half_lengths[i] for all i };
    axes rows are eigenvectors of the mean covariance, orthonormal up to
    rounding, and no decider assumes it.
    Times one power of two, `_scale`, the centre, axes and half-lengths are
    the integers `_center`, `_axes` and `_half`, built once here and kept
    outside `_fields`, and no other module reads them: `contains`, `misses`,
    `corrected_centre` and `box_lp` decide in them, exactly:
    |e_i.(v - c)| <= h_i iff |E_i.(scale*v - C)| <= scale*H_i. A ragged
    region, a non-finite entry or a negative half-length raises ValueError.
    """

    _fields = ("center", "axes", "half_lengths")

    def __init__(self, center: Vector, axes: Matrix, half_lengths: Vector):
        n = len(center)
        if len(axes) != n or len(half_lengths) != n or any(len(e) != n for e in axes):
            raise ValueError(f"a region of dimension {n} needs {n} axes and half-lengths")
        try:
            ratios = [[float(x).as_integer_ratio() for x in row]
                      for row in (center, *axes, half_lengths)]
        except (OverflowError, ValueError):
            raise ValueError("region has non-finite entries") from None
        scale = max((d for row in ratios for _, d in row), default=1)  # powers of two
        ints = [[m * (scale // d) for m, d in row] for row in ratios]
        if any(h < 0 for h in ints[-1]):
            raise ValueError("region has a negative half-length")
        self._set(center=center, axes=axes, half_lengths=half_lengths,
                  _scale=scale, _center=ints[0], _axes=ints[1:-1], _half=ints[-1],
                  _skew=None)

    def contains(self, point: Sequence, tol: float = 0.0) -> bool:
        """Exactly whether |e_i.(point - c)| <= h_i + tol for every i, each float
        at its binary value; a point with a non-finite coordinate is outside."""
        if len(point) != self.dimension:
            raise ValueError(
                f"point of dimension {len(point)} for a region of dimension "
                f"{self.dimension}"
            )
        try:
            xs = [Fraction(x) for x in point]
        except (OverflowError, ValueError):
            return False
        slack = Fraction(tol)
        den = math.lcm(slack.denominator, *(x.denominator for x in xs))
        scale = self._scale
        offset = [x.numerator * (den // x.denominator) * scale - den * c
                  for x, c in zip(xs, self._center)]  # scale*den*(v - c)
        extra = scale * scale * slack.numerator * (den // slack.denominator)  # scale**2*den*tol
        return all(abs(sum(map(mul, e, offset))) <= scale * den * h + extra
                   for e, h in zip(self._axes, self._half))

    def misses(self, a: Sequence[int], equality: bool = False) -> bool:
        """Whether no point of the box has a.v >= 0 (a.v = 0 when `equality`).

        Times scale**2, a.v over the parallelotope the axes span has the ends
        base -+ spread = scale*(a.C) -+ sum_i |a.E_i| H_i. That is the box
        only for orthonormal axes, so a miss is proved on the box by a margin
        (a Neumann series for the inverse Gram matrix): with the cached
        D = max_i sum_j |E_i.E_j - scale**2 [i = j]| < scale**2, the box misses
        a.v >= 0 when (base + spread)(scale**2 - D) + D max_j |a.E_j| sum_i H_i
        < 0; an equality also by the mirror test on -a.
        """
        terms = [(j, x) for j, x in enumerate(a) if x]  # deduced constraints are sparse
        base = self._scale * sum(x * self._center[j] for j, x in terms)
        spread = sum(abs(sum(x * e[j] for j, x in terms)) * h
                     for e, h in zip(self._axes, self._half) if h)
        edge = min(base + spread, spread - base) if equality else base + spread
        if edge >= 0:
            return False
        if self._skew is None:  # the Gram matrix is symmetric: count i < j twice
            square = self._scale ** 2
            sums = [abs(exact.dot(e, e) - square) for e in self._axes]
            for i, j in itertools.combinations(range(len(sums)), 2):
                g = abs(exact.dot(self._axes[i], self._axes[j]))
                sums[i] += g
                sums[j] += g
            self._set(_skew=max(sums, default=0))
        room = self._scale ** 2 - self._skew
        peak = max(abs(sum(x * e[j] for j, x in terms)) for e in self._axes)
        return room > 0 and edge * room + self._skew * peak * sum(self._half) < 0

    def corrected_centre(self, hyperplanes: Sequence[Sequence[int]]) -> list[Fraction] | None:
        """The centre moved by the least-norm correction onto the hyperplanes
        a.v = 0 and every axis of zero half-length, or None when they share
        no point or the moved point leaves the box. With w = scale*v and rows
        M (a.w = 0 and E_i.w = E_i.C), w = C + M^T y with (M M^T) y = -(M C - r)."""
        pinned = [e for e, h in zip(self._axes, self._half) if h == 0]
        rows = [list(a) for a in hyperplanes] + pinned
        residual = [-exact.dot(a, self._center) for a in hyperplanes] + [0] * len(pinned)
        w: list = list(self._center)
        if any(residual):
            k = len(rows)
            gram = [[exact.dot(a, b) for b in rows] + [r] for a, r in zip(rows, residual)]
            reduced, pivots = exact.rref(gram, k + 1)
            if pivots and pivots[-1] == k:
                return None
            for row, p in zip(reduced, pivots):
                if row[k]:
                    y = Fraction(row[k], row[p])
                    for j, x in enumerate(rows[p]):
                        if x:
                            w[j] += y * x
        point = [Fraction(x, self._scale) for x in w]
        return point if self.contains(point) else None

    def box_lp(
        self, signatures: Sequence[Sequence[int]]
    ) -> tuple[list[Fraction], None] | tuple[None, list]:
        """The exact box LP over flows f >= 0 on non-negative signatures s:
        (f, None) when S f is in the box, else (None, a = sum_k w_k n_k), w
        the Farkas vector `linprog.feasible_point` checks on the box's rows
        times scale**2, n_k.v <= b_k: per axis, scale*E_i.v <= scale*H_i +
        E_i.C, then -scale*E_i.v <= scale*H_i - E_i.C; v = S f >= 0 needs no
        row. w.A_ub >= 0 gives a.s >= 0 on every signature, hence on their
        cone, and w.b_ub < 0 gives a.v <= w.b_ub < 0 on the whole box."""
        from . import linprog

        normals, bounds = [], []
        for e, h in zip(self._axes, self._half):
            proj = exact.dot(e, self._center)
            up = [self._scale * x for x in e]
            normals += [up, [-x for x in up]]
            bounds += [self._scale * h + proj, self._scale * h - proj]
        a_ub = [[exact.dot(n, s) for s in signatures] for n in normals]
        flows, w = linprog.feasible_point(len(signatures), a_ub, bounds)
        if w is None:
            return flows, None
        return None, [exact.dot(w, column) for column in zip(*normals)]

    @property
    def dimension(self) -> int:
        return len(self.center)


def _identity(n: int) -> Matrix:
    return tuple(tuple(1.0 if i == j else 0.0 for j in range(n)) for i in range(n))


def load_observations(
    path: str | Path,
    namespace: CounterNamespace,
    *,
    project: bool = False,
    run_id: str | None = None,
) -> ObservationSet:
    """Read an interval-sample CSV file; the run is named `run_id`, or
    else the file's stem.

    The header row names the counters; a leading `t` column, the sample
    index, is ignored when the namespace has no counter `t`. Columns are
    reordered to namespace order. Counters in the namespace but absent from
    the file raise MuddError unless `project` is set, in which case the
    namespace is restricted to the counters present; a file that shares no
    counter with the namespace, as every file does with an empty one, raises
    MuddError even then. Extra columns are ignored with a warning that
    names each, or gives the 1-based position of one whose name is empty. A
    cell that is not a finite number, or a negative one, raises MuddError
    naming the run, the physical line and the counter column.
    A header that names a column twice (an empty name aside), a row with
    more or fewer cells than the header, or a line `csv` cannot read, raises
    MuddError naming the run and the line.
    A file that is not UTF-8 text raises MuddError naming the run and the
    line of the first bad byte.
    """
    if run_id is None:
        run_id = Path(path).stem
    reader = _rows(io.StringIO(read_text(path, f"run {run_id!r}")), run_id)
    try:
        _, header = next(reader)
    except StopIteration:
        raise MuddError(f"run {run_id!r}: empty file") from None
    header = [h.strip() for h in header]
    twice = next((n for i, n in enumerate(header) if n and n in header[:i]), None)
    if twice is not None:
        raise MuddError(f"run {run_id!r} line 1 column {twice!r}: named twice in the header")
    skip = 1 if header and header[0] == "t" and "t" not in namespace else 0
    names = header[skip:]

    extra = sorted(n for n in names if n and n not in namespace)
    extra += [f"(unnamed column {i})" for i, n in enumerate(header, 1) if not n]
    if extra:
        warnings.warn(
            f"run {run_id!r}: ignoring unmodeled columns {', '.join(extra)}",
            stacklevel=2,
        )
    present = set(names)
    missing = [n for n in namespace.names if n not in present]
    if missing and not project:
        raise MuddError(
            f"run {run_id!r} lacks counters: {', '.join(missing)} "
            "(use projection to restrict the namespace)"
        )
    if len(missing) == len(namespace):  # a model with no counters too
        raise MuddError(f"run {run_id!r} shares no counter with the model")
    if missing:
        namespace = namespace.restrict(present)

    col_of = {n: i + skip for i, n in enumerate(names)}
    order = [col_of[n] for n in namespace.names]
    rows: list[list[float]] = []
    for lineno, row in reader:
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise MuddError(
                f"run {run_id!r} line {lineno}: row has too "
                f"{'few' if len(row) < len(header) else 'many'} columns "
                f"({len(row)} cells, {len(header)} header names)"
            )
        sample = []
        for name, col in zip(namespace.names, order):
            cell = row[col]
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise MuddError(
                    f"run {run_id!r} line {lineno} column {name!r}: "
                    f"{cell!r} is not a finite number"
                )
            if value < 0:
                raise MuddError(
                    f"run {run_id!r} line {lineno} column {name!r}: "
                    f"{cell!r} is a negative counter value"
                )
            sample.append(value)
        rows.append(sample)
    return ObservationSet(run_id=run_id, sample_matrix=rows, namespace=namespace)


def _rows(fh, run_id):
    """(line, row) for each row of a CSV stream, where `line` is the
    physical line the row starts on (a quoted cell may hold line breaks);
    a line `csv` cannot read, such as one with a field longer than
    `csv.field_size_limit()`, raises MuddError naming the run and the
    line."""
    reader = csv.reader(fh)
    while True:
        line = reader.line_num + 1
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise MuddError(f"run {run_id!r} line {reader.line_num}: {exc}") from None
        yield line, row


def write_observations(obs: ObservationSet, dest: str | Path | io.TextIOBase) -> None:
    """Write the CSV format load_observations reads, with a leading `t`
    column of sample indices unless a counter is named `t`. A path that
    cannot be opened, written or closed raises MuddError naming it as given
    and the reason."""
    if isinstance(dest, (str, Path)):
        try:
            with open(dest, "w", encoding="utf-8", newline="") as fh:
                write_observations(obs, fh)
        except OSError as exc:
            raise MuddError(f"{dest}: {exc.strerror}") from None
        return
    writer = csv.writer(dest)
    index = "t" not in obs.namespace
    writer.writerow(["t"] * index + list(obs.namespace.names))
    for i, row in enumerate(obs.sample_matrix):
        writer.writerow([i] * index + [format(x, ".17g") for x in row])


def mean_and_covariance(obs: ObservationSet) -> tuple[Vector, Matrix]:
    """Sample mean and plugin mean covariance.

    Each mean covariance entry is the unbiased sample covariance, a
    `math.fsum` of the rounded deviation products over m - 1, divided by
    the sample count m. A constant column has its value as its mean and an
    exactly zero row and column of covariance; the matrix is filled above
    the diagonal and mirrored, so it is exactly symmetric. Raises
    MuddError when counter values are so large that the mean or
    covariance overflows.
    """
    m = obs.sample_count
    columns = [[float(x) for x in col] for col in zip(*obs.sample_matrix)]
    n = len(columns)
    mean = []
    deviations = []  # (column, its deviations from the mean) of every varying column
    try:
        for j, col in enumerate(columns):
            first = col[0]
            if all(x == first for x in col):
                mean.append(first)
                continue
            mu = math.fsum(col) / m
            mean.append(mu)
            deviations.append((j, [x - mu for x in col]))
        mean_cov = [[0.0] * n for _ in range(n)]
        for t, (j, dj) in enumerate(deviations):
            for k, dk in deviations[t:]:
                mean_cov[j][k] = mean_cov[k][j] = math.fsum(map(mul, dj, dk)) / (m - 1) / m
    except (OverflowError, ValueError):  # fsum: intermediate overflow, or inf - inf
        mean_cov = None
    if mean_cov is None or not all(map(math.isfinite, mean)) or not all(
        math.isfinite(x) for row in mean_cov for x in row
    ):
        raise MuddError(
            f"run {obs.run_id!r}: sample mean or covariance overflows; "
            "counter values are too large"
        )
    return tuple(mean), tuple(map(tuple, mean_cov))


@lru_cache(maxsize=1024, typed=True)
def chi_square_quantile(dof: int, p: float) -> float:
    """Quantile q with P(chi2_dof <= q) = p, by bisection on the chi-square CDF.

    For an integer dof = 2a the CDF at q is the regularized lower incomplete
    gamma P(a, y) with y = q/2, which has a closed form. The upper tail is a
    finite sum of positive terms: Q = e^-y sum_{j<a} y^j / j! for even dof,
    and Q = erfc(sqrt y) + e^-y sum_{j<a-1/2} y^(j+1/2) / Gamma(j+3/2) for
    odd dof. For y >= a, where P >= 1/2, P = 1 - Q. Below that, 1 - Q would
    cancel, so P is the positive series e^-y sum_{j>=0} y^(a+j) / Gamma(a+j+1),
    whose later terms shrink by the ratio y / (a+j+1). The upper terms and
    the first lower term are formed in log space, so a large dof neither
    overflows nor underflows. The bisection stops at a relative width of
    1e-12. Every probe is positive, as `_chi_square_cdf` needs: the first
    is dof, and each midpoint lies in (0, hi], hi >= 2**-200 after at most
    200 halvings of hi >= 1.
    """
    if dof < 1:
        raise ValueError("dof must be a positive integer")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    hi = float(dof)
    while _chi_square_cdf(dof, hi) < p:
        hi *= 2.0
    lo = 0.0
    # relative tolerance keeps the steep-density corner (dof=1, small p) exact
    for _ in range(200):
        if hi - lo <= 1e-12 * max(hi, 1e-300):
            break
        mid = (lo + hi) / 2.0
        if _chi_square_cdf(dof, mid) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _chi_square_cdf(dof: int, x: float) -> float:
    """P(chi2_dof <= x) for x > 0, the regularized lower incomplete gamma P(dof/2, x/2)."""
    a = dof / 2.0
    y = x / 2.0
    log_y = math.log(y)
    if y >= a:
        half = 0.5 if dof % 2 else 0.0
        q = math.erfc(math.sqrt(y)) if half else 0.0
        for j in range(dof // 2):
            s = j + half
            q += math.exp(s * log_y - y - math.lgamma(s + 1.0))
        return 1.0 - q
    term = math.exp(a * log_y - y - math.lgamma(a + 1.0))
    total = term
    k = a + 1.0
    while term > total * 2.0**-53:  # below half an ulp of the sum
        term *= y / k
        total += term
        k += 1.0
    return total


def eigendecompose(sigma: Sequence[Sequence[float]]) -> tuple[Vector, Matrix]:
    """Eigenvalues (descending, clamped at zero) and orthonormal eigenvectors (rows).

    Raises MuddError when the input is not square or differs from its
    transpose in any entry, and ValueError when an entry is not finite. Each
    all-zero row i is the eigenpair (0, e_i) as it stands; the block of the
    other rows goes through Householder tridiagonalisation and the implicit
    QL algorithm (`_symmetric_eigen`). Covariance matrices are positive
    semidefinite up to rounding, so small negative eigenvalues are clamped
    to zero; one below -1e-9 * (1 + the largest entry) raises MuddError, the
    input is not positive semidefinite. Raises ArithmeticError when
    V^T diag(values) V misses the input by more than that bound.
    """
    try:
        a = [[float(x) for x in row] for row in sigma]
    except TypeError:
        raise MuddError("matrix is not square") from None
    n = len(a)
    if any(len(row) != n for row in a):
        raise MuddError("matrix is not square")
    if not all(all(map(math.isfinite, row)) for row in a):
        raise ValueError("matrix has non-finite entries")
    if a != [list(col) for col in zip(*a)]:
        raise MuddError("matrix is not symmetric")

    values = [0.0] * n
    vectors = [list(row) for row in _identity(n)]
    block = [i for i in range(n) if any(a[i])]
    if block:
        sub = [[a[i][j] for j in block] for i in block]
        for i, value, z in zip(block, *_symmetric_eigen(sub)):
            values[i] = value
            vectors[i] = [0.0] * n
            for j, x in zip(block, z):
                vectors[i][j] = x
    peak = max((max(map(abs, row)) for row in a if row), default=0.0)
    if min(values, default=0.0) < -1e-9 * (1.0 + peak):
        raise MuddError("matrix is not positive semidefinite")
    order = sorted(range(n), key=lambda i: -values[i])
    values = tuple(values[i] if values[i] > 0.0 else 0.0 for i in order)
    axes = tuple(tuple(vectors[i]) for i in order)

    rank = sum(1 for v in values if v)
    columns = [col[:rank] for col in zip(*axes)]  # columns[i][k] = axes[k][i]
    scaled = [[v * x for v, x in zip(values, col)] for col in columns]
    # outside the block both sides are 0.0; a[i][j] is a[j][i]
    error = max((abs(sum(map(mul, scaled[i], columns[j])) - a[i][j])
                 for at, i in enumerate(block) for j in block[at:]),
                default=0.0)
    if not error <= 1e-9 * (1.0 + peak):  # also refuses a NaN
        raise ArithmeticError("eigendecomposition failed the reconstruction bound")
    return values, axes


_QL_ITERATIONS = 30  # per eigenvalue, as in EISPACK


def _symmetric_eigen(a: list[list[float]]) -> tuple[list[float], list[list[float]]]:
    """Eigenvalues d and eigenvectors z (z[i] belongs to d[i]) of symmetric a.

    EISPACK `tred2` then `tql2`, as in JAMA's EigenvalueDecomposition
    (Golub & Van Loan, Matrix Computations, 8.3): Householder reflections
    reduce a to tridiagonal form with diagonal d and subdiagonal e and
    accumulate the orthogonal transform, and implicitly shifted QL sweeps
    of Givens rotations diagonalise it. JAMA's V (eigenvectors in columns)
    is kept transposed, w = V^T, so each rotation combines two rows.
    Sums run left to right by `+=`, not by `sum`, which compensates float
    rounding from Python 3.12 on and so would change the bits by version.
    """
    n = len(a)
    w = [list(row) for row in a]  # a is symmetric, so this is V^T = V
    d = list(w[n - 1])  # d[j] = V[n-1][j] = w[j][n-1]
    e = [0.0] * n

    # tred2: Householder reduction to tridiagonal form
    for i in range(n - 1, 0, -1):
        scale = 0.0
        for x in d[:i]:
            scale += abs(x)
        h = 0.0
        if scale == 0.0:
            e[i] = d[i - 1]
            for j in range(i):
                d[j] = w[j][i - 1]
                w[j][i] = 0.0
                w[i][j] = 0.0
        else:
            for k in range(i):
                d[k] /= scale
                h += d[k] * d[k]
            f = d[i - 1]
            g = math.sqrt(h)
            if f > 0:
                g = -g
            e[i] = scale * g
            h -= f * g
            d[i - 1] = f - g
            for j in range(i):
                e[j] = 0.0
            for j in range(i):
                f = d[j]
                w[i][j] = f
                row = w[j]
                g = 0.0
                for x, y in zip(row[j + 1:i], d[j + 1:i]):
                    g += x * y
                e[j] += row[j] * f + g
                e[j + 1:i] = [x + y * f for x, y in zip(e[j + 1:i], row[j + 1:i])]
            f = 0.0
            for j in range(i):
                e[j] /= h
                f += e[j] * d[j]
            hh = f / (h + h)
            for j in range(i):
                e[j] -= hh * d[j]
            for j in range(i):
                f = d[j]
                g = e[j]
                row = w[j]
                row[j:i] = [x - (f * y + g * z)
                            for x, y, z in zip(row[j:i], e[j:i], d[j:i])]
                d[j] = row[i - 1]
                row[i] = 0.0
        d[i] = h

    # tred2: accumulate the transformations
    for i in range(n - 1):
        w[i][n - 1] = w[i][i]
        w[i][i] = 1.0
        h = d[i + 1]
        u = w[i + 1]
        if h != 0.0:
            for k in range(i + 1):
                d[k] = u[k] / h
            for j in range(i + 1):
                row = w[j]
                g = 0.0
                for x, y in zip(u[:i + 1], row[:i + 1]):
                    g += x * y
                row[:i + 1] = [x - g * y for x, y in zip(row[:i + 1], d)]
        for k in range(i + 1):
            u[k] = 0.0
    for j in range(n):
        d[j] = w[j][n - 1]
        w[j][n - 1] = 0.0
    w[n - 1][n - 1] = 1.0

    # tql2: implicit QL on the tridiagonal (d, e)
    e = e[1:] + [0.0]
    cols = range(n)
    f = 0.0
    tst1 = 0.0
    eps = 2.0**-52
    for l in range(n):
        tst1 = max(tst1, abs(d[l]) + abs(e[l]))
        m = l
        while m < n - 1 and abs(e[m]) > eps * tst1:
            m += 1
        iterations = 0
        while m > l:
            iterations += 1
            if iterations > _QL_ITERATIONS:
                raise ArithmeticError("eigendecomposition did not converge")
            g = d[l]
            p = (d[l + 1] - g) / (2.0 * e[l])
            r = math.hypot(p, 1.0)
            if p < 0:
                r = -r
            d[l] = e[l] / (p + r)
            d[l + 1] = e[l] * (p + r)
            dl1 = d[l + 1]
            h = g - d[l]
            for i in range(l + 2, n):
                d[i] -= h
            f += h
            p = d[m]
            c = c2 = c3 = 1.0
            el1 = e[l + 1]
            s = s2 = 0.0
            for i in range(m - 1, l - 1, -1):
                c3 = c2
                c2 = c
                s2 = s
                g = c * e[i]
                h = c * p
                r = math.hypot(p, e[i])
                e[i + 1] = s * r
                s = e[i] / r
                c = p / r
                p = c * d[i] - s * g
                d[i + 1] = h + s * (c * g + s * d[i])
                lo, hi = w[i], w[i + 1]
                w[i + 1] = [s * lo[k] + c * hi[k] for k in cols]
                w[i] = [c * lo[k] - s * hi[k] for k in cols]
            p = -s * s2 * c3 * el1 * e[l] / dl1
            e[l] = s * p
            d[l] = c * p
            if abs(e[l]) <= eps * tst1:
                break
        d[l] += f
        e[l] = 0.0
    return d, w


def check_alpha(alpha: float) -> None:
    """Raise MuddError unless 1 - alpha is a confidence level in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise MuddError("alpha must lie in (0, 1)")
    if 1.0 - alpha == 1.0:
        raise MuddError(f"alpha {alpha!r} is too small: 1 - alpha rounds to 1")


def build_confidence_region(
    obs: ObservationSet,
    alpha: float = 0.01,
    *,
    independent: bool = False,
) -> ConfidenceRegion:
    """Region for the true counter vector at confidence 1 - alpha.

    `independent` drops the off-diagonal covariance (the ablation baseline
    that treats counters as uncorrelated). The chi-square degrees of freedom
    equal the full counter dimension, even when the covariance is
    rank-deficient. A run with no counter, or one whose box half-lengths
    overflow, raises MuddError.
    """
    check_alpha(alpha)
    if not obs.namespace.names:
        raise MuddError(f"run {obs.run_id!r} shares no counter with the model")
    mean, mean_cov = mean_and_covariance(obs)
    if independent:
        mean_cov = tuple(tuple(x if i == j else 0.0 for j, x in enumerate(row))
                         for i, row in enumerate(mean_cov))
    values, axes = eigendecompose(mean_cov)
    dof = len(obs.namespace)
    quantile = chi_square_quantile(dof, 1.0 - alpha)
    half_lengths = tuple(math.sqrt(v * quantile) for v in values)
    if not all(map(math.isfinite, half_lengths)):
        raise MuddError(
            f"run {obs.run_id!r}: confidence box overflows; "
            "counter values are too large"
        )
    return ConfidenceRegion(center=mean, axes=axes, half_lengths=half_lengths)
