"""Exact expected EMD under the uniform distribution on the simplex.

For x drawn uniformly from the standard n-simplex, the j-th partial sum X_j
is Beta(j, n-j+1) distributed, whose CDF is the degree-n polynomial

    F_j(z) = sum_{m=j}^{n} (-1)^(m-j) C(n,m) C(m-1,j-1) z^m.

The expected d-fold EMD over d independent uniform points is the integral
over [0, 1] of the degree <= d*n polynomial

    sum_{j=1}^{n} sum_{k=1}^{d-1} wt(k) C(d,k) F_j(z)^k (1 - F_j(z))^(d-k),

with the Lee weight wt(k) = min(k, d-k).  Three evaluation routes:

* ``expected_emd_exact``       -- expand the integrand over exact rationals
  and integrate term by term; refused above a degree threshold where
  big-integer coefficient growth dominates (``EMDKIT_EXACT_THRESHOLD``).
* ``expected_emd_quadrature``  -- Gauss-Legendre with enough nodes to
  integrate the polynomial exactly, evaluating F_j through the regularized
  incomplete beta function for float stability at large d.
* ``expected_emd_recursive``   -- the independent oracle: the expected value
  on a product of simplices of sizes (n_1, ..., n_d) satisfies

      E(n_1..n_d) = [ sum_i n_i E(.., n_i - 1, ..) + C(n_1..n_d) ]
                    / (1 + sum_i n_i),

  with E(0,..,0) = 0, where C is the dispersion cost of the integer tuple.
  Memoized on the sorted tuple; exponentially many states, so desk scale
  only.

The inner sum over k is expanded once as a weight polynomial phi_d(u) and
composed with each F_j, which reuses the expensive part across j.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING, Optional, Sequence, Union

from .cost import cost_epsilon, lee_weight
from .errors import (
    BudgetExceeded,
    DomainError,
    IndexOutOfRange,
    InsufficientNodes,
    ThresholdExceeded,
)
from .polynomial import RationalPolynomial

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DEFAULT_EXACT_THRESHOLD",
    "ExpectationResult",
    "cdf_Fj",
    "order_stat_cdf",
    "integrand",
    "expected_emd_exact",
    "expected_emd_quadrature",
    "expected_emd_recursive",
    "gauss_legendre",
]

DEFAULT_EXACT_THRESHOLD = 600
THRESHOLD_ENV_VAR = "EMDKIT_EXACT_THRESHOLD"

DEFAULT_STATE_LIMIT = 1_000_000


def exact_threshold() -> int:
    """The d*n ceiling of the exact path (env override: EMDKIT_EXACT_THRESHOLD)."""
    raw = os.environ.get(THRESHOLD_ENV_VAR)
    if raw is None:
        return DEFAULT_EXACT_THRESHOLD
    try:
        return int(raw)
    except ValueError as exc:
        raise DomainError(f"{THRESHOLD_ENV_VAR} must be an integer, got {raw!r}") from exc


@dataclass(frozen=True)
class ExpectationResult:
    """An expected-EMD value with its provenance.

    ``normalized`` divides by the maximum possible EMD, n * floor(d/2),
    mapping the value into [0, 1].  ``nodes`` is the Gauss-Legendre node
    count of a quadrature result and None otherwise.
    """

    n: int
    d: int
    value: Union[Fraction, float]
    method: str  # "exact-integral" | "recursion" | "quadrature"
    nodes: Optional[int] = None

    @property
    def normalized(self) -> Union[Fraction, float]:
        return self.value / (self.n * (self.d // 2))


def cdf_Fj(n: int, j: int) -> RationalPolynomial:
    """CDF polynomial of the j-th partial sum of a uniform simplex point."""
    if n < 1:
        raise DomainError(f"cdf_Fj needs n >= 1, got {n}")
    if not 1 <= j <= n:
        raise IndexOutOfRange(f"partial-sum index {j} outside 1..{n}")
    coeffs = [0] * (n + 1)
    for m in range(j, n + 1):
        coeffs[m] = (-1) ** (m - j) * comb(n, m) * comb(m - 1, j - 1)
    return RationalPolynomial(coeffs)


def _binomial_mixture(d: int, weights: Sequence[int]) -> RationalPolynomial:
    """sum_k weights[k] * C(d,k) * u^k * (1-u)^(d-k) as a polynomial in u."""
    one_minus_u = RationalPolynomial((1, -1))
    powers = [RationalPolynomial((1,))]
    for _ in range(d):
        powers.append(powers[-1] * one_minus_u)
    total = [0] * (d + 1)
    for k, weight in enumerate(weights):
        if weight == 0:
            continue
        scale = weight * comb(d, k)
        for e, c in enumerate(powers[d - k].coeffs):
            total[k + e] += scale * c
    return RationalPolynomial(total)


def _phi(d: int) -> RationalPolynomial:
    """The Lee-weighted binomial mixture phi_d(u), degree d, vanishing at 0 and 1."""
    return _binomial_mixture(d, [lee_weight(k, d) if 1 <= k <= d - 1 else 0 for k in range(d + 1)])


def order_stat_cdf(n: int, d: int, i: int, j: int) -> RationalPolynomial:
    """CDF polynomial of the i-th order statistic of d iid copies of X_j."""
    if d < 1:
        raise DomainError(f"order_stat_cdf needs d >= 1, got {d}")
    if not 1 <= i <= d:
        raise IndexOutOfRange(f"order-statistic index {i} outside 1..{d}")
    mixture = _binomial_mixture(d, [1 if k >= i else 0 for k in range(d + 1)])
    return mixture.compose(cdf_Fj(n, j))


def integrand(n: int, d: int) -> RationalPolynomial:
    """The expected-EMD integrand: sum over columns of phi_d composed with F_j."""
    if n < 1 or d < 2:
        raise DomainError(f"integrand needs n >= 1 and d >= 2, got n={n}, d={d}")
    phi = _phi(d)
    total = RationalPolynomial()
    for j in range(1, n + 1):
        total = total + phi.compose(cdf_Fj(n, j))
    return total


def expected_emd_exact(n: int, d: int) -> ExpectationResult:
    """Expected EMD as an exact rational, by term-wise polynomial integration.

    Refuses with :class:`ThresholdExceeded` when d*n exceeds the exact-path
    threshold; callers should fall back to ``expected_emd_quadrature``.
    """
    threshold = exact_threshold()
    if d * n > threshold:
        raise ThresholdExceeded(
            f"d*n = {d * n} exceeds the exact-path threshold {threshold}; "
            f"use the quadrature path"
        )
    value = integrand(n, d).integral_01()
    return ExpectationResult(n=n, d=d, value=value, method="exact-integral")


def gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1].

    Newton iteration on the Legendre recurrence from the standard cosine
    initial guesses, run to 1e-15; symmetric to rounding.
    """
    import numpy as np

    if nodes < 1:
        raise DomainError(f"gauss_legendre needs at least one node, got {nodes}")
    i = np.arange(nodes)
    x = np.cos(np.pi * (i + 0.75) / (nodes + 0.5))
    dp = np.ones_like(x)
    for _ in range(100):
        p0 = np.ones_like(x)
        p1 = x
        for k in range(2, nodes + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = nodes * (x * p1 - p0) / (x * x - 1.0)
        step = p1 / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return x, w


def expected_emd_quadrature(n: int, d: int, nodes: int | None = None) -> ExpectationResult:
    """Expected EMD by Gauss-Legendre quadrature of the integrand.

    The integrand is a polynomial of degree at most d*n, so any node count
    >= ceil((d*n + 1) / 2) integrates it exactly up to rounding; the default
    adds 8 spare nodes.  F_j is evaluated via the regularized incomplete
    beta function, and the weighted binomial mixture in log space, so the
    route stays stable at large d where expanded coefficients would overflow.
    """
    import numpy as np
    from scipy.special import betainc, gammaln

    if n < 1 or d < 2:
        raise DomainError(f"quadrature needs n >= 1 and d >= 2, got n={n}, d={d}")
    minimum = (d * n + 2) // 2
    if nodes is None:
        nodes = minimum + 8
    if nodes < minimum:
        raise InsufficientNodes(
            f"{nodes} nodes cannot integrate degree {d * n}; need >= {minimum}"
        )
    x, w = gauss_legendre(nodes)
    z = 0.5 * (x + 1.0)
    wz = 0.5 * w

    k = np.arange(1, d, dtype=np.float64)
    log_coeff = gammaln(d + 1) - gammaln(k + 1) - gammaln(d - k + 1)
    wt = np.minimum(k, d - k)

    total = 0.0
    for j in range(1, n + 1):
        u = np.clip(betainc(j, n - j + 1, z), 0.0, 1.0)
        with np.errstate(divide="ignore"):
            log_u = np.log(u)
            log_1mu = np.log1p(-u)
        log_terms = log_coeff[:, None] + k[:, None] * log_u[None, :] + (d - k)[:, None] * log_1mu[None, :]
        terms = np.exp(log_terms)
        total += float(wz @ (wt @ terms))
    return ExpectationResult(n=n, d=d, value=total, method="quadrature", nodes=nodes)


def expected_emd_recursive(dims: Sequence[int]) -> Fraction:
    """Expected EMD on a product of simplices of sizes ``dims``, by recursion.

    Independent of the integral route.  States are memoized on the sorted
    tuple (the expected value is symmetric in the factors); the bound
    C(sum(dims) + d, d) on the state count must stay within
    ``DEFAULT_STATE_LIMIT``.
    """
    key = tuple(sorted(dims))
    if not key:
        raise DomainError("dims must be nonempty")
    if any(not isinstance(v, int) or v < 0 for v in key):
        raise DomainError(f"dims must be nonnegative integers, got {dims!r}")
    d = len(key)
    bound = comb(sum(key) + d, d)
    if bound > DEFAULT_STATE_LIMIT:
        raise BudgetExceeded(
            f"memo bound C({sum(key) + d},{d}) = {bound} exceeds limit {DEFAULT_STATE_LIMIT}"
        )

    memo: dict[tuple[int, ...], Fraction] = {(0,) * d: Fraction(0)}
    stack = [key]
    while stack:
        state = stack[-1]
        if state in memo:
            stack.pop()
            continue
        children = []
        pending = []
        for i in range(d):
            if state[i] == 0:
                continue
            child = tuple(sorted(state[:i] + (state[i] - 1,) + state[i + 1 :]))
            children.append((state[i], child))
            if child not in memo:
                pending.append(child)
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        numerator = sum(
            (weight * memo[child] for weight, child in children), start=Fraction(0)
        ) + cost_epsilon(state)
        memo[state] = numerator / (1 + sum(state))
    return memo[key]
