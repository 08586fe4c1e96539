"""Synthetic observation sets with known ground truth.

Given a diagram, per-path flows and a noise model, emit interval samples
whose exact mean is the flow-weighted signature sum divided by the sample
count. This is the oracle for end-to-end tests: with zero noise the region
collapses to a point that lies in the source cone by construction.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

import numpy as np

from .errors import MuddError
from .model import MuDD, Record, enumerate_mupaths
from .stats import ObservationSet


class SynthSpec(Record):
    """`flows` is a tuple of one flow per path, in enumeration order, and
    `noise` a tuple of one sigma per counter or of a covariance's rows; one
    number given for either is that value on every path or counter. Stored
    as tuples, a spec hashes and compares by value whatever form it was
    given. Flows, sigmas and the seed must be non-negative, and a value out
    of range, a noise of the wrong shape or an indefinite covariance raises
    MuddError when the spec is built. `exact_counters` checks the flow count.

    `paths` holds the model's paths, enumerated once when the spec is built.
    """

    _fields = ("model", "flows", "samples", "noise", "seed")

    def __init__(self, model: MuDD, flows: float | Sequence[float], samples: int,
                 noise: float | Sequence[float] | Sequence[Sequence[float]] | np.ndarray = 0.0,
                 seed: int = 0):
        paths = enumerate_mupaths(model)
        if samples < 2:
            raise MuddError("need at least 2 samples")
        flows = (flows,) * len(paths) if np.ndim(flows) == 0 else tuple(flows)
        if not all(math.isfinite(f) for f in flows):
            raise MuddError("flows must be finite")
        if any(f < 0 for f in flows):
            raise MuddError("flows must be non-negative")
        arr = np.asarray(noise, dtype=float)
        if not np.isfinite(arr).all():
            raise MuddError("noise must be finite")
        if arr.ndim < 2 and (arr < 0).any():
            raise MuddError("noise must be non-negative")
        if seed < 0:
            raise MuddError("seed must be non-negative")
        n = len(model.namespace)
        if arr.ndim == 0:
            arr = np.full(n, arr)
        if arr.ndim == 1:
            if arr.shape[0] != n:
                raise MuddError("per-counter sigma length does not match")
            noise = tuple(arr.tolist())
        elif arr.ndim == 2:
            if arr.shape != (n, n):
                raise MuddError("covariance shape does not match")
            if float(np.min(np.linalg.eigvalsh((arr + arr.T) / 2))) < -1e-9:
                raise MuddError("noise covariance must be positive semidefinite")
            noise = tuple(map(tuple, arr.tolist()))
        else:
            raise MuddError("noise must be a scalar, vector, or matrix")
        self._set(model=model, flows=flows, samples=samples, noise=noise, seed=seed,
                  paths=paths)


def exact_counters(spec: SynthSpec) -> tuple[Fraction, ...]:
    """Flow-weighted signature sum, computed exactly."""
    if len(spec.flows) != len(spec.paths):
        raise MuddError(f"{len(spec.flows)} flows for {len(spec.paths)} paths")
    n = len(spec.model.namespace)
    total = [Fraction(0)] * n
    for path, flow in zip(spec.paths, spec.flows):
        f = Fraction(flow)
        if f == 0:
            continue
        for i, c in enumerate(path.counts):
            if c:
                total[i] += c * f
    return tuple(total)


def generate(spec: SynthSpec, run_id: str = "synth") -> ObservationSet:
    """Sample matrix of `samples` rows around exact/samples plus seeded noise.

    Per-counter sigmas scale independent standard normal draws; a covariance
    is drawn through its eigendecomposition. Negative cells are clamped to
    zero; the clamp count is recorded on the observation set. Same seed,
    same matrix. Samples are floats: with zero noise they are exact only
    when exact/samples is representable, e.g. integer flows with a
    power-of-two sample count. A counter total or a sample too large for a
    float raises MuddError naming the run.
    """
    exact = exact_counters(spec)
    n = len(exact)
    try:
        base = np.array([float(x) / spec.samples for x in exact])
    except OverflowError:
        raise MuddError(
            f"run {run_id!r}: the flows give a counter total too large for a float"
        ) from None
    rng = np.random.default_rng(spec.seed)
    noise = np.array(spec.noise)
    with np.errstate(over="ignore"):  # a sample that overflows is refused below
        if noise.ndim == 1:
            draws = rng.normal(0.0, 1.0, size=(spec.samples, n)) * noise
        else:
            draws = rng.multivariate_normal(np.zeros(n), noise, size=spec.samples,
                                            method="eigh")
        matrix = base + draws
    if not np.isfinite(matrix).all():
        raise MuddError(
            f"run {run_id!r}: the noise draws a sample too large for a float"
        )
    clamped = int(np.sum(matrix < 0))
    if clamped:
        matrix = np.clip(matrix, 0.0, None)
    return ObservationSet(
        run_id=run_id,
        sample_matrix=matrix,
        namespace=spec.model.namespace,
        clamped=clamped,
    )
