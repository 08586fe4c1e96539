"""Counter sample ingestion and correlated confidence regions.

Interval samples of counter vectors give a sample mean and covariance; the
plugin estimate of the mean's covariance is the sample covariance over the
sample count. The confidence region for the true counter vector is the
ellipsoid of that covariance at a chi-square quantile, approximated by its
principal-axis bounding box: axis directions are covariance eigenvectors and
half-lengths are sqrt(eigenvalue * quantile). Correlated counters shrink the
box in the correlated directions, which is the whole point.
"""
from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    MissingCounter,
    NegativeCell,
    NonFiniteStatistics,
    NonNumericCell,
    NotSymmetric,
    TooFewSamples,
)
from .model import CounterNamespace


@dataclass
class ObservationSet:
    """Interval samples for one program run; rows are samples, columns counters."""

    run_id: str
    sample_matrix: np.ndarray
    namespace: CounterNamespace
    provenance: tuple[str, ...] = ()
    clamped: int = 0

    def __post_init__(self):
        matrix = np.asarray(self.sample_matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("sample matrix must be two-dimensional")
        if matrix.shape[0] < 2:
            raise TooFewSamples(
                f"run {self.run_id!r} has {matrix.shape[0]} samples; need at least 2"
            )
        if matrix.shape[1] != len(self.namespace):
            raise ValueError(
                f"sample matrix has {matrix.shape[1]} columns for "
                f"{len(self.namespace)} counters"
            )
        if np.any(matrix < 0):
            raise ValueError(f"run {self.run_id!r} contains negative counter values")
        self.sample_matrix = matrix

    @property
    def sample_count(self) -> int:
        return self.sample_matrix.shape[0]


@dataclass
class ConfidenceRegion:
    """Principal-axis bounding box of the confidence ellipsoid.

    The region is { v : |axes[i] . (v - center)| <= half_lengths[i] for all i };
    axes rows are orthonormal eigenvectors of the mean covariance.
    """

    center: np.ndarray
    axes: np.ndarray  # rows are eigenvectors
    half_lengths: np.ndarray
    eigenvalues: np.ndarray
    alpha: float
    sample_count: int

    def contains(self, point: Sequence, tol: float = 0.0) -> bool:
        delta = np.asarray(point, dtype=float) - self.center
        return bool(np.all(np.abs(self.axes @ delta) <= self.half_lengths + tol))

    @property
    def dimension(self) -> int:
        return self.center.shape[0]

    def scaled(self, factor: float) -> "ConfidenceRegion":
        """Same center and axes with every half-length multiplied by factor."""
        return ConfidenceRegion(
            center=self.center,
            axes=self.axes,
            half_lengths=self.half_lengths * factor,
            eigenvalues=self.eigenvalues,
            alpha=self.alpha,
            sample_count=self.sample_count,
        )

    def to_json(self) -> dict:
        return {
            "center": self.center.tolist(),
            "eigenvalues": self.eigenvalues.tolist(),
            "half_lengths": self.half_lengths.tolist(),
            "alpha": self.alpha,
            "samples": self.sample_count,
        }


def point_region(point: Sequence, alpha: float = 0.01) -> ConfidenceRegion:
    """Degenerate region containing exactly one point (all half-lengths zero)."""
    center = np.asarray(point, dtype=float)
    n = center.shape[0]
    return ConfidenceRegion(
        center=center,
        axes=np.eye(n),
        half_lengths=np.zeros(n),
        eigenvalues=np.zeros(n),
        alpha=alpha,
        sample_count=2,
    )


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
        sample = []
        for name, col in zip(namespace.names, order):
            try:
                cell = row[col]
            except IndexError:
                raise NonNumericCell(
                    f"run {run_id!r} line {lineno}: row has too few columns"
                ) from None
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
        sample_matrix=np.array(rows, dtype=float),
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


def mean_and_covariance(obs: ObservationSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample mean, unbiased sample covariance, and plugin mean covariance.

    The mean covariance is the sample covariance divided by the sample count.
    Raises NonFiniteStatistics when counter values are so large that the mean
    or covariance overflows.
    """
    matrix = obs.sample_matrix
    m = matrix.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = matrix.mean(axis=0)
        centered = matrix - mean
        cov = (centered.T @ centered) / (m - 1)
        cov = (cov + cov.T) / 2.0
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise NonFiniteStatistics(
            f"run {obs.run_id!r}: sample mean or covariance overflows; "
            "counter values are too large"
        )
    return mean, cov, cov / m


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


def eigendecompose(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending, clamped at zero) and orthonormal eigenvectors (rows).

    Raises NotSymmetric when the input is not symmetric within 1e-12.
    Covariance matrices are positive semidefinite up to rounding, so small
    negative eigenvalues are clamped to zero.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise NotSymmetric("matrix is not square")
    scale = max(1.0, float(np.abs(sigma).max()) if sigma.size else 1.0)
    if not np.allclose(sigma, sigma.T, rtol=0.0, atol=1e-12 * scale):
        raise NotSymmetric("matrix is not symmetric within 1e-12")
    values, vectors = np.linalg.eigh((sigma + sigma.T) / 2.0)
    order = np.argsort(values)[::-1]
    values = values[order]
    vectors = vectors[:, order]
    values = np.clip(values, 0.0, None)
    recon = (vectors * values) @ vectors.T
    bound = 1e-9 * (1.0 + float(np.abs(sigma).max()) if sigma.size else 1.0)
    if float(np.abs(recon - sigma).max()) > bound:
        raise ArithmeticError("eigendecomposition failed the reconstruction bound")
    return values, vectors.T


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
        mean_cov = np.diag(np.diag(mean_cov))
    values, axes = eigendecompose(mean_cov)
    dof = len(obs.namespace)
    quantile = chi_square_quantile(dof, 1.0 - alpha)
    half = np.sqrt(values * quantile)
    return ConfidenceRegion(
        center=mean,
        axes=axes,
        half_lengths=half,
        eigenvalues=values,
        alpha=alpha,
        sample_count=obs.sample_count,
    )
