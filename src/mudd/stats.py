"""Counter sample ingestion and correlated confidence regions.

Interval samples of counter vectors give a sample mean and covariance; the
plugin estimate of the mean's covariance is the sample covariance over the
sample count. The confidence region for the true counter vector is the
ellipsoid of that covariance at a chi-square quantile, approximated by its
principal-axis bounding box: axis directions are covariance eigenvectors and
half-lengths are sqrt(eigenvalue * quantile). Correlated counters shrink the
box in the correlated directions, which is the whole point.

Everything here uses only the standard library: the moments are sums by
`math.fsum`, and the symmetric eigendecomposition is Householder
tridiagonalisation followed by the implicit QL algorithm (EISPACK
`tred2`/`tql2`). Regions hold tuples of floats.
"""
from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from numbers import Real
from operator import mul
from pathlib import Path
from typing import Optional, Sequence, Union

from .errors import (
    MalformedCsv,
    MissingCounter,
    NegativeCell,
    NonFiniteStatistics,
    NonNumericCell,
    NotSymmetric,
    TooFewSamples,
)
from .model import CounterNamespace


Vector = tuple[float, ...]
Matrix = tuple[Vector, ...]


@dataclass
class ObservationSet:
    """Interval samples for one program run; rows are samples, columns counters.

    `sample_matrix` is any two-dimensional sequence of non-negative reals
    (lists of floats from `load_observations`, an array from `mudd.synth`)
    and is kept as given.
    """

    run_id: str
    sample_matrix: Sequence[Sequence[float]]
    namespace: CounterNamespace
    provenance: tuple[str, ...] = ()
    clamped: int = 0

    def __post_init__(self):
        try:
            rows = [list(row) for row in self.sample_matrix]
        except TypeError:
            rows = None
        if rows is None or not all(type(x) is float or isinstance(x, Real)
                                   for row in rows for x in row):
            raise ValueError("sample matrix must be two-dimensional")
        if len(rows) < 2:
            raise TooFewSamples(
                f"run {self.run_id!r} has {len(rows)} samples; need at least 2"
            )
        width = len(self.namespace)
        for row in rows:
            if len(row) != width:
                raise ValueError(
                    f"sample matrix has {len(row)} columns for {width} counters"
                )
        if any(x < 0 for row in rows for x in row):
            raise ValueError(f"run {self.run_id!r} contains negative counter values")

    @property
    def sample_count(self) -> int:
        return len(self.sample_matrix)


@dataclass
class ConfidenceRegion:
    """Principal-axis bounding box of the confidence ellipsoid.

    The region is { v : |axes[i] . (v - center)| <= half_lengths[i] for all i };
    axes rows are orthonormal eigenvectors of the mean covariance.
    """

    center: Vector
    axes: Matrix  # rows are eigenvectors
    half_lengths: Vector
    eigenvalues: Vector
    alpha: float
    sample_count: int

    def contains(self, point: Sequence, tol: float = 0.0) -> bool:
        if len(point) != self.dimension:
            raise ValueError(
                f"point of dimension {len(point)} for a region of dimension "
                f"{self.dimension}"
            )
        delta = [float(x) - c for x, c in zip(point, self.center)]
        return all(abs(math.fsum(map(mul, e, delta))) <= h + tol
                   for e, h in zip(self.axes, self.half_lengths))

    @property
    def dimension(self) -> int:
        return len(self.center)

    def scaled(self, factor: float) -> "ConfidenceRegion":
        """Same center and axes with every half-length multiplied by factor."""
        return ConfidenceRegion(
            center=self.center,
            axes=self.axes,
            half_lengths=tuple(h * factor for h in self.half_lengths),
            eigenvalues=self.eigenvalues,
            alpha=self.alpha,
            sample_count=self.sample_count,
        )

    def to_json(self) -> dict:
        return {
            "center": [float(x) for x in self.center],
            "eigenvalues": [float(x) for x in self.eigenvalues],
            "half_lengths": [float(x) for x in self.half_lengths],
            "alpha": self.alpha,
            "samples": self.sample_count,
        }


def point_region(point: Sequence, alpha: float = 0.01) -> ConfidenceRegion:
    """Degenerate region containing exactly one point (all half-lengths zero)."""
    center = tuple(float(x) for x in point)
    n = len(center)
    return ConfidenceRegion(
        center=center,
        axes=_identity(n),
        half_lengths=(0.0,) * n,
        eigenvalues=(0.0,) * n,
        alpha=alpha,
        sample_count=2,
    )


def _identity(n: int) -> Matrix:
    return tuple(tuple(1.0 if i == j else 0.0 for j in range(n)) for i in range(n))


def load_observations(
    source: Union[str, Path, io.TextIOBase],
    namespace: CounterNamespace,
    *,
    project: bool = False,
    run_id: Optional[str] = None,
) -> ObservationSet:
    """Read an interval-sample CSV.

    The header row names the counters; an optional leading `t` column is
    ignored for the math. Columns are reordered to namespace order. Counters
    in the namespace but absent from the file raise MissingCounter unless
    `project` is set, in which case the namespace is restricted and the
    projection is recorded in provenance; a file that shares no counter with
    the namespace raises MissingCounter even then. Extra columns are ignored
    with a warning. A cell that is not a finite number raises NonNumericCell,
    a negative one NegativeCell; both name the run, line and counter column.
    A header that names a column twice, or a row with more or fewer cells
    than the header, raises MalformedCsv naming the run and the line.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        rid = run_id if run_id is not None else path.stem
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return _read_csv(fh, namespace, project=project, run_id=rid)
    rid = run_id if run_id is not None else "<stream>"
    return _read_csv(source, namespace, project=project, run_id=rid)


def _read_csv(fh, namespace, *, project, run_id) -> ObservationSet:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise TooFewSamples(f"run {run_id!r}: empty file") from None
    header = [h.strip() for h in header]
    twice = next((n for i, n in enumerate(header) if n in header[:i]), None)
    if twice is not None:
        raise MalformedCsv(f"run {run_id!r} line 1 column {twice!r}: named twice in the header")
    skip = 1 if header and header[0] == "t" else 0
    names = header[skip:]
    provenance: list[str] = []

    extra = [n for n in names if n not in namespace]
    if extra:
        warnings.warn(
            f"run {run_id!r}: ignoring unmodeled columns {', '.join(sorted(extra))}",
            stacklevel=3,
        )
    present = set(names)
    missing = [n for n in namespace.names if n not in present]
    if missing:
        if not project:
            raise MissingCounter(
                f"run {run_id!r} lacks counters: {', '.join(missing)} "
                "(use projection to restrict the namespace)"
            )
        if len(missing) == len(namespace):
            raise MissingCounter(f"run {run_id!r} shares no counter with the model")
        namespace = namespace.restrict(present)
        provenance.append("projected-out:" + ",".join(missing))

    col_of = {n: i + skip for i, n in enumerate(names)}
    order = [col_of[n] for n in namespace.names]
    rows: list[list[float]] = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise MalformedCsv(
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
                raise NonNumericCell(
                    f"run {run_id!r} line {lineno} column {name!r}: "
                    f"{cell!r} is not a finite number"
                )
            if value < 0:
                raise NegativeCell(
                    f"run {run_id!r} line {lineno} column {name!r}: "
                    f"{cell!r} is a negative counter value"
                )
            sample.append(value)
        rows.append(sample)
    if len(rows) < 2:
        raise TooFewSamples(f"run {run_id!r} has {len(rows)} samples; need at least 2")
    return ObservationSet(
        run_id=run_id,
        sample_matrix=rows,
        namespace=namespace,
        provenance=tuple(provenance),
    )


def write_observations(obs: ObservationSet, dest: Union[str, Path, io.TextIOBase]) -> None:
    """Write the CSV format load_observations reads (t column included)."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            write_observations(obs, fh)
        return
    writer = csv.writer(dest)
    writer.writerow(["t"] + list(obs.namespace.names))
    for i, row in enumerate(obs.sample_matrix):
        writer.writerow([i] + [format(x, ".17g") for x in row])


def mean_and_covariance(obs: ObservationSet) -> tuple[Vector, Matrix, Matrix]:
    """Sample mean, unbiased sample covariance, and plugin mean covariance.

    The mean covariance is the sample covariance divided by the sample count.
    Each sum is a `math.fsum` of the rounded terms. A constant column has
    its value as its mean and an exactly zero row and column of covariance;
    the covariance is filled above the diagonal and mirrored, so it is
    exactly symmetric. Raises NonFiniteStatistics when counter values are so
    large that the mean or covariance overflows.
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
        cov = [[0.0] * n for _ in range(n)]
        for t, (j, dj) in enumerate(deviations):
            for k, dk in deviations[t:]:
                cov[j][k] = cov[k][j] = math.fsum(map(mul, dj, dk)) / (m - 1)
    except (OverflowError, ValueError):  # fsum: intermediate overflow, or inf - inf
        cov = None
    if cov is None or not all(map(math.isfinite, mean)) or not all(
        math.isfinite(x) for row in cov for x in row
    ):
        raise NonFiniteStatistics(
            f"run {obs.run_id!r}: sample mean or covariance overflows; "
            "counter values are too large"
        )
    mean_cov = tuple(tuple(x / m for x in row) for row in cov)
    return tuple(mean), tuple(map(tuple, cov)), mean_cov


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
    1e-12.
    """
    if dof < 1:
        raise ValueError("dof must be a positive integer")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    return _chi_square_quantile_cached(int(dof), float(p))


@lru_cache(maxsize=1024)
def _chi_square_quantile_cached(dof: int, p: float) -> float:
    hi = float(max(dof, 1))
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
    """P(chi2_dof <= x), the regularized lower incomplete gamma P(dof/2, x/2)."""
    if x <= 0.0:
        return 0.0
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

    Raises NotSymmetric when the input is not square or not symmetric within
    1e-12 of its largest entry (at least 1), and ValueError when an entry is
    not finite. Each all-zero row i of the symmetrized matrix is the
    eigenpair (0, e_i) as it stands; the block of the other rows goes
    through Householder tridiagonalisation and the implicit QL algorithm
    (`_symmetric_eigen`). Covariance matrices are positive semidefinite up
    to rounding, so small negative eigenvalues are clamped to zero. Raises
    ArithmeticError when V^T diag(values) V misses the input by more than
    1e-9 * (1 + its largest entry).
    """
    try:
        a = [[float(x) for x in row] for row in sigma]
    except TypeError:
        raise NotSymmetric("matrix is not square") from None
    n = len(a)
    if any(len(row) != n for row in a):
        raise NotSymmetric("matrix is not square")
    if not all(all(map(math.isfinite, row)) for row in a):
        raise ValueError("matrix has non-finite entries")
    peak = max((max(map(abs, row)) for row in a if row), default=0.0)
    tol = 1e-12 * max(1.0, peak)
    transpose = [list(col) for col in zip(*a)]
    if a == transpose:  # exactly symmetric, as every covariance here is
        sym = a
    elif all(abs(x - y) <= tol for row, col in zip(a, transpose) for x, y in zip(row, col)):
        sym = [[x if x == y else (x + y) / 2.0 for x, y in zip(row, col)]
               for row, col in zip(a, transpose)]
    else:
        raise NotSymmetric("matrix is not symmetric within 1e-12")

    values = [0.0] * n
    vectors = [list(row) for row in _identity(n)]
    block = [i for i in range(n) if any(sym[i])]
    if block:
        sub = [[sym[i][j] for j in block] for i in block]
        for i, value, z in zip(block, *_symmetric_eigen(sub)):
            values[i] = value
            vectors[i] = [0.0] * n
            for j, x in zip(block, z):
                vectors[i][j] = x
    order = sorted(range(n), key=lambda i: -values[i])
    values = tuple(values[i] if values[i] > 0.0 else 0.0 for i in order)
    axes = tuple(tuple(vectors[i]) for i in order)

    rank = sum(1 for v in values if v)
    columns = [col[:rank] for col in zip(*axes)]  # columns[i][k] = axes[k][i]
    scaled = [[v * x for v, x in zip(values, col)] for col in columns]
    error = max((abs(sum(map(mul, scaled[i], columns[j])) - x)
                 for i in range(n) for j in range(i, n) for x in (a[i][j], a[j][i])),
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
    """
    n = len(a)
    w = [list(row) for row in a]  # a is symmetric, so this is V^T = V
    d = list(w[n - 1])  # d[j] = V[n-1][j] = w[j][n-1]
    e = [0.0] * n

    # tred2: Householder reduction to tridiagonal form
    for i in range(n - 1, 0, -1):
        scale = sum(abs(x) for x in d[:i])
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
                e[j] += row[j] * f + sum(map(mul, row[j + 1:i], d[j + 1:i]))
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
                g = sum(map(mul, u[:i + 1], row[:i + 1]))
                row[:i + 1] = [x - g * y for x, y in zip(row[:i + 1], d)]
        for k in range(i + 1):
            u[k] = 0.0
    for j in range(n):
        d[j] = w[j][n - 1]
        w[j][n - 1] = 0.0
    w[n - 1][n - 1] = 1.0

    # tql2: implicit QL on the tridiagonal (d, e)
    e = e[1:] + [0.0]
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
                w[i + 1] = [s * x + c * y for x, y in zip(lo, hi)]
                w[i] = [c * x - s * y for x, y in zip(lo, hi)]
            p = -s * s2 * c3 * el1 * e[l] / dl1
            e[l] = s * p
            d[l] = c * p
            if abs(e[l]) <= eps * tst1:
                break
        d[l] += f
        e[l] = 0.0
    return d, w


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
    rank-deficient.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    mean, _, mean_cov = mean_and_covariance(obs)
    if independent:
        mean_cov = tuple(tuple(x if i == j else 0.0 for j, x in enumerate(row))
                         for i, row in enumerate(mean_cov))
    values, axes = eigendecompose(mean_cov)
    dof = len(obs.namespace)
    quantile = chi_square_quantile(dof, 1.0 - alpha)
    return ConfidenceRegion(
        center=mean,
        axes=axes,
        half_lengths=tuple(math.sqrt(v * quantile) for v in values),
        eigenvalues=values,
        alpha=alpha,
        sample_count=obs.sample_count,
    )
