"""Uniform simplex sampling and Monte Carlo estimation of the expected EMD.

Uniform points of the n-simplex come from sorted-uniform spacings: sort n
iid uniforms and take the successive gaps of (0, u_(1), ..., u_(n), 1).
Conveniently, the cumulative vector of such a point is the sorted uniforms
themselves, so a tuple's EMD reduces to sorting columns and Lee-weighting
the gaps.

Every Monte Carlo sample draws from its own counter-based substream keyed by
(seed, sample index), so partitioning the sample range into spans cannot
change any result: the per-sample value array is identical however the range
is split, and the reduction runs over that array in one fixed order.  The
spans run one after another in this process; nothing runs in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import TYPE_CHECKING

from .errors import BudgetExceeded, DomainError
from .simplex import Distribution

if TYPE_CHECKING:
    import numpy as np

__all__ = ["McEstimate", "sample_simplex", "mc_expected_emd"]

_MASK64 = (1 << 64) - 1

#: Most samples one Monte Carlo estimate draws.
DEFAULT_SAMPLE_LIMIT = 10**6


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    samples: int
    seed: int

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise DomainError(f"samples must be >= 1, got {self.samples}")
        if self.stderr < 0:
            raise DomainError(f"stderr must be >= 0, got {self.stderr}")


def sample_simplex(n: int, rng: np.random.Generator) -> Distribution:
    """One uniform point of the n-simplex (sorted-uniform spacings)."""
    import numpy as np

    if n < 1:
        raise DomainError(f"sample_simplex needs n >= 1, got {n}")
    u = np.sort(rng.random(n))
    mass = np.diff(u, prepend=0.0, append=1.0)
    return Distribution(tuple(float(v) for v in mass))


def _chunk_emds(n: int, d: int, seed: int, start: int, stop: int, wt: np.ndarray) -> np.ndarray:
    import numpy as np

    out = np.empty(stop - start, dtype=np.float64)
    for s in range(start, stop):
        key = ((seed & _MASK64) << 64) | (s & _MASK64)  # the (seed, sample) substream
        rng = np.random.Generator(np.random.Philox(key=key))
        u = rng.random((d, n))
        u.sort(axis=1)  # row i is now the cumulative vector of member i
        columns = np.sort(u, axis=0)
        out[s - start] = float(np.sum(np.diff(columns, axis=0) * wt[:, None]))
    return out


def mc_expected_emd(
    n: int, d: int, samples: int, seed: int, *, workers: int = 1
) -> McEstimate:
    """Mean and standard error of the EMD over independent uniform d-tuples.

    Deterministic given (n, d, samples, seed): identical bits regardless of
    ``workers``, which only splits the sample range into that many spans, run
    one after another in the calling thread (nothing runs in parallel).
    At most ``DEFAULT_SAMPLE_LIMIT`` samples.
    """
    import numpy as np

    if n < 1 or d < 2:
        raise DomainError(f"mc_expected_emd needs n >= 1 and d >= 2, got n={n}, d={d}")
    if samples < 2:
        raise DomainError(f"mc_expected_emd needs samples >= 2, got {samples}")
    if samples > DEFAULT_SAMPLE_LIMIT:
        raise BudgetExceeded(f"{samples} samples exceed limit {DEFAULT_SAMPLE_LIMIT}")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")

    k = np.arange(1, d, dtype=np.float64)
    wt = np.minimum(k, d - k)

    bounds = [round(samples * w / workers) for w in range(workers + 1)]
    values = np.concatenate(
        [_chunk_emds(n, d, seed, lo, hi, wt) for lo, hi in zip(bounds, bounds[1:])]
    )

    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / sqrt(samples))
    return McEstimate(mean=mean, stderr=stderr, samples=samples, seed=seed)
