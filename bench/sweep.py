"""Layer-size sweep: single public layer calls timed at fixed sizes.

It fills in the layer table of ROADMAP open item 1 and is informational:
its records are reported with the per-layer metrics of a traced run and are
never gated. Each size is timed ``REPS`` times on seeded inputs and the
median is reported.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict

import numpy as np

from freeferm import dense, sampling, skew, states
from workloads import DELTA, EPS, correlation, random_orthogonal

REPS = 3


def _skew_input(dim: int, rng: np.random.Generator) -> np.ndarray:
    # entries of size 1/sqrt(dim) keep the Pfaffian of a d = 1000 matrix finite
    a = np.triu(rng.normal(scale=dim ** -0.5, size=(dim, dim)), 1)
    return a - a.T


def _mixed_gamma(n: int, rng: np.random.Generator) -> np.ndarray:
    return correlation(random_orthogonal(2 * n, rng), rng.uniform(0.0, 1.0, n))


def _estimate(scheme: str, n: int, rng: np.random.Generator, seed: int) -> Callable[[], object]:
    src = sampling.ExactGaussianSource(states.from_correlation(_mixed_gamma(n, rng)))
    return lambda: sampling.estimate_gamma(src, EPS, DELTA, scheme, sampling.RngStream(seed))


def cases(seed: int):
    """(metric name, zero-argument call) pairs; inputs are built before timing."""
    rng = np.random.default_rng([seed, 2])
    for d in (400, 1000):
        a = _skew_input(d, rng)
        yield f"sweep.skew.pfaffian.d{d}_s", lambda a=a: skew.pfaffian(a)
        yield f"sweep.skew.normal_form.d{d}_s", lambda a=a: skew.normal_form(a)
    for n in (5, 7, 8, 9):
        q = random_orthogonal(2 * n, rng)
        yield f"sweep.dense.gaussian_unitary.n{n}_s", lambda q=q: dense.gaussian_unitary(q)
    for n in (8, 10, 12, 13):
        g = _mixed_gamma(n, rng)
        yield f"sweep.sampling.z_basis_distribution.n{n}_s", \
            lambda g=g: sampling.z_basis_distribution(g)
    for scheme in ("commuting", "pauli_pairs"):
        yield f"sweep.sampling.estimate_gamma.{scheme}.n10_s", _estimate(scheme, 10, rng, seed)


def run(seed: int) -> Dict[str, float]:
    """Median seconds of ``REPS`` calls for every sweep size."""
    out = {}
    for name, call in cases(seed):
        times = []
        for _ in range(REPS):
            t = time.perf_counter()
            call()
            times.append(time.perf_counter() - t)
        out[name] = statistics.median(times)
    return out
