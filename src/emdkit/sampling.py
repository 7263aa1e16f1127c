"""Uniform simplex sampling and Monte Carlo estimation of the expected EMD.

Uniform points of the n-simplex come from sorted-uniform spacings: sort n
iid uniforms and take the successive gaps of (0, u_(1), ..., u_(n), 1).
Conveniently, the cumulative vector of such a point is the sorted uniforms
themselves, so a tuple's EMD reduces to sorting columns and Lee-weighting
the gaps.

Monte Carlo draws its samples a block at a time.  Block b of a run takes
the counter-based Philox substream keyed by (seed, b) (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011) and fills one
(count, d, n) array of uniforms from it in one call; a short last block
draws a prefix of its stream.  Sorting along sites gives every member's
cumulative vector, sorting along members gives the order statistics of every
column, and the Lee-weighted gaps sum to each sample's EMD.  The blocks run
in order in the calling thread and the reduction runs over the per-sample
values in one fixed order.  Values differ from releases that keyed one
substream per sample.
"""

from __future__ import annotations

from math import sqrt
from typing import TYPE_CHECKING

from .errors import BudgetExceeded, DomainError, Frozen, check_integer
from .simplex import Distribution

if TYPE_CHECKING:
    import numpy as np

__all__ = ["McEstimate", "sample_simplex", "mc_expected_emd"]

_MASK64 = (1 << 64) - 1

#: Uniforms one Monte Carlo block draws (512 KB of float64); a block holds
#: max(1, _BLOCK_UNIFORMS // (d*n)) samples.
_BLOCK_UNIFORMS = 2**16

#: Most samples one Monte Carlo estimate draws.
DEFAULT_SAMPLE_LIMIT = 10**6

#: Most uniforms one estimate draws (samples * d * n); the largest admitted
#: calls took 1.8-3.5 s of CPU and at most 180 MB on a 2-vCPU guest.
UNIFORM_LIMIT = 2**26

#: Most uniforms one sample draws (d * n), so one block stays at 32 MB.
SAMPLE_UNIFORM_LIMIT = 2**22


class McEstimate(Frozen):
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

    n = check_integer("n", n)
    if n < 1:
        raise DomainError(f"sample_simplex needs n >= 1, got {n}")
    u = np.sort(rng.random(n))
    mass = np.diff(u, prepend=0.0, append=1.0)
    return Distribution(tuple(float(v) for v in mass))


def _block_emds(n: int, d: int, seed: int, block: int, count: int, wt: np.ndarray) -> np.ndarray:
    """EMDs of the ``count`` samples of one block, from its (seed, block) substream."""
    import numpy as np

    key = (seed << 64) | block
    u = np.random.Generator(np.random.Philox(key=key)).random((count, d, n))
    u.sort(axis=2)  # u[s, i] is now the cumulative vector of member i of sample s
    u.sort(axis=1)  # u[s, :, j] is now the sorted column j of sample s
    return (np.diff(u, axis=1) * wt[:, None]).sum(axis=(1, 2))


def mc_expected_emd(
    n: int, d: int, samples: int, seed: int, *, workers: int = 1
) -> McEstimate:
    """Mean and standard error of the EMD over independent uniform d-tuples.

    Deterministic given (n, d, samples, seed), with seed in [0, 2^64) (the
    Philox key's high word).  ``workers`` must be a positive integer and
    changes neither the bits nor the work: every block runs in the calling
    thread.  At most ``DEFAULT_SAMPLE_LIMIT`` samples, ``SAMPLE_UNIFORM_LIMIT``
    uniforms per sample and ``UNIFORM_LIMIT`` in all; more raise
    :class:`BudgetExceeded` before any array is allocated.
    """
    n, d = check_integer("n", n), check_integer("d", d)
    samples, seed = check_integer("samples", samples), check_integer("seed", seed)
    workers = check_integer("workers", workers)
    if n < 1 or d < 2:
        raise DomainError(f"mc_expected_emd needs n >= 1 and d >= 2, got n={n}, d={d}")
    if samples < 2:
        raise DomainError(f"mc_expected_emd needs samples >= 2, got {samples}")
    if samples > DEFAULT_SAMPLE_LIMIT:
        raise BudgetExceeded(f"{samples} samples exceed limit {DEFAULT_SAMPLE_LIMIT}")
    if d * n > SAMPLE_UNIFORM_LIMIT:
        raise BudgetExceeded(
            f"a sample of d*n = {d * n} uniforms exceeds the per-sample limit "
            f"{SAMPLE_UNIFORM_LIMIT}"
        )
    if samples * d * n > UNIFORM_LIMIT:
        raise BudgetExceeded(
            f"{samples} samples of d*n = {d * n} uniforms ({samples * d * n} in all) "
            f"exceed limit {UNIFORM_LIMIT}"
        )
    if not 0 <= seed <= _MASK64:
        raise DomainError(f"seed must lie in [0, 2^64), got {seed}")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")

    import numpy as np

    k = np.arange(1, d, dtype=np.float64)
    wt = np.minimum(k, d - k)

    size = max(1, _BLOCK_UNIFORMS // (d * n))
    values = np.concatenate(
        [
            _block_emds(n, d, seed, b, min(size, samples - b * size), wt)
            for b in range(-(-samples // size))
        ]
    )

    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / sqrt(samples))
    return McEstimate(mean=mean, stderr=stderr, samples=samples, seed=seed)
