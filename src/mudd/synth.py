"""Synthetic observation sets with known ground truth.

Given a diagram, per-path flows and a noise model, emit interval samples
whose exact mean is the flow-weighted signature sum divided by the sample
count. This is the oracle for end-to-end tests: with zero noise the region
collapses to a point that lies in the source cone by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import DimensionMismatch
from .model import DEFAULT_PATH_CAP, MuDD, signatures_of_model
from .stats import ObservationSet

Noise = Union[float, Sequence[float], np.ndarray]


@dataclass(frozen=True)
class SynthSpec:
    model: MuDD
    flows: tuple[float, ...]  # per path, enumeration order
    samples: int
    noise: Noise = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError("need at least 2 samples")
        if not all(math.isfinite(f) for f in self.flows):
            raise ValueError("flows must be finite")
        if any(f < 0 for f in self.flows):
            raise ValueError("flows must be non-negative")
        if not np.isfinite(self.noise).all():
            raise ValueError("noise must be finite")


def exact_counters(spec: SynthSpec, cap: int = DEFAULT_PATH_CAP) -> tuple[Fraction, ...]:
    """Flow-weighted signature sum, computed exactly."""
    sigs = signatures_of_model(spec.model, cap)
    if len(spec.flows) != len(sigs):
        raise DimensionMismatch(
            f"{len(spec.flows)} flows for {len(sigs)} paths"
        )
    n = len(spec.model.namespace)
    total = [Fraction(0)] * n
    for sig, flow in zip(sigs, spec.flows):
        f = Fraction(flow)
        if f == 0:
            continue
        for i, c in enumerate(sig.counts):
            if c:
                total[i] += c * f
    return tuple(total)


def generate(spec: SynthSpec, run_id: str = "synth", cap: int = DEFAULT_PATH_CAP) -> ObservationSet:
    """Sample matrix of `samples` rows around exact/samples plus seeded noise.

    Negative cells are clamped to zero; the clamp count is recorded on the
    observation set. Same seed, same matrix. Samples are floats: with zero
    noise they are exact only when exact/samples is representable, e.g.
    integer flows with a power-of-two sample count.
    """
    exact = exact_counters(spec, cap)
    n = len(exact)
    base = np.array([float(x) / spec.samples for x in exact])
    rng = np.random.default_rng(spec.seed)
    noise = spec.noise
    if isinstance(noise, (int, float)):
        sigma = float(noise)
        draws = rng.normal(0.0, 1.0, size=(spec.samples, n)) * sigma if sigma > 0 else np.zeros((spec.samples, n))
    else:
        arr = np.asarray(noise, dtype=float)
        if arr.ndim == 1:
            if arr.shape[0] != n:
                raise DimensionMismatch("per-counter sigma length does not match")
            draws = rng.normal(0.0, 1.0, size=(spec.samples, n)) * arr
        elif arr.ndim == 2:
            if arr.shape != (n, n):
                raise DimensionMismatch("covariance shape does not match")
            if float(np.min(np.linalg.eigvalsh((arr + arr.T) / 2))) < -1e-9:
                raise ValueError("noise covariance must be positive semidefinite")
            draws = rng.multivariate_normal(np.zeros(n), arr, size=spec.samples,
                                            method="eigh")
        else:
            raise DimensionMismatch("noise must be a scalar, vector, or matrix")
    matrix = base + draws
    clamped = int(np.sum(matrix < 0))
    if clamped:
        matrix = np.clip(matrix, 0.0, None)
    return ObservationSet(
        run_id=run_id,
        sample_matrix=matrix,
        namespace=spec.model.namespace,
        provenance=(f"synth:seed={spec.seed}",),
        clamped=clamped,
    )
