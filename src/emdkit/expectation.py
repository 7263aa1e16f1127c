"""Exact expected EMD under the uniform distribution on the simplex.

For x drawn uniformly from the standard n-simplex, the j-th partial sum X_j
is Beta(j, n-j+1) distributed, whose CDF is the degree-n polynomial

    F_j(z) = sum_{m=j}^{n} (-1)^(m-j) C(n,m) C(m-1,j-1) z^m.

The expected d-fold EMD over d independent uniform points is the integral
over [0, 1] of the degree <= d*n polynomial

    sum_{j=1}^{n} sum_{k=1}^{d-1} wt(k) C(d,k) F_j(z)^k (1 - F_j(z))^(d-k),

with the Lee weight wt(k) = min(k, d-k).  ``integrand`` builds exactly this
polynomial: the inner sum over k is the weight polynomial phi_d(u), composed
with each F_j.  It is the statement of the result and the desk-scale
cross-check.  Three evaluation routes:

* ``expected_emd_exact``       -- the same integral as an exact rational, on
  non-negative integers only.  1 - F_j(z) = P(Bin(n, z) < j)
  = (1-z)^n L_j(z/(1-z)) with L_j(t) = sum_{a<j} C(n,a) t^a, so with
  phi_d(u) = sum_m beta_m (1-u)^m (integer beta_m),

      int_0^1 (1 - F_j)^m dz = sum_s [t^s] L_j(t)^m s! (mn-s)! / (mn+1)!.

  The powers L_j^m are Kronecker-packed ints, updated from column to column
  by shifted small-integer scalings; columns j and n+1-j have equal
  integrals (phi_d(u) = phi_d(1-u) and X_{n+1-j} ~ 1 - X_j), so only
  j <= ceil(n/2) is expanded.  Refused above a d*n threshold, set where the
  worst shape takes about a second (``EMDKIT_EXACT_THRESHOLD``).
* ``expected_emd_quadrature``  -- Gauss-Legendre with enough nodes to
  integrate the polynomial exactly.  F_j is the regularized incomplete beta
  function, and so is phi_d in closed form: phi_d(u) = E[min(K, d-K)] for
  K ~ Bin(d, u) takes two more incomplete-beta calls.  The same column
  reflection halves the columns, and memory is O(nodes) at any d.
* ``expected_emd_recursive``   -- the independent oracle: the expected value
  on a product of simplices of sizes (n_1, ..., n_d) satisfies

      E(n_1..n_d) = [ sum_i n_i E(.., n_i - 1, ..) + C(n_1..n_d) ]
                    / (1 + sum_i n_i),

  with E(0,..,0) = 0, where C is the dispersion cost of the integer tuple.
  Memoized on the sorted tuple; exponentially many states, so desk scale
  only.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import mul
from typing import TYPE_CHECKING, Optional, Sequence, Union

from .cost import cost_epsilon, lee_weight
from .errors import (
    BudgetExceeded,
    DomainError,
    IndexOutOfRange,
    InsufficientNodes,
    ThresholdExceeded,
    check_integer,
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

DEFAULT_EXACT_THRESHOLD = 1500
THRESHOLD_ENV_VAR = "EMDKIT_EXACT_THRESHOLD"

DEFAULT_STATE_LIMIT = 1_000_000

#: Most Gauss-Legendre nodes generated; the Newton sweep costs O(nodes^2).
DEFAULT_NODE_LIMIT = 2**15


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


def _complement_weights(d: int) -> list[int]:
    """Integers beta_m with phi_d(u) = sum_m beta_m (1 - u)^m, for m = 0..d."""
    beta = [0] * (d + 1)
    for k in range(1, d):
        # u^k (1-u)^(d-k) = (1-v)^k v^(d-k) with v = 1 - u
        scale = lee_weight(k, d) * comb(d, k)
        for i in range(k + 1):
            beta[d - k + i] += (-1) ** i * scale * comb(k, i)
    return beta


def _tail_power_sums(n: int, powers: Sequence[int]) -> tuple[dict[int, int], int]:
    """Packed S_m = sum_j L_j^m over all n columns, for each m in ``powers``.

    L_j(t) = sum_{a<j} C(n,a) t^a, so that 1 - F_j(z) = (1-z)^n L_j(z/(1-z)).
    Columns j and n+1-j have equal integrals, so only j <= ceil(n/2) is
    expanded: each counted twice, the middle one of an odd n once.  A
    polynomial is packed into one int with coefficient s in byte slot s.
    Every coefficient of L_j^m is at most L_j(1)^m, and S_m adds at most
    n + 1 of them, so ``(n+1) * L_last(1)^M`` bounds every slot and the
    packing is exact.  Returns the sums and the slot size in bytes.
    """
    top = max(powers)
    last = (n + 1) // 2
    row = [comb(n, a) for a in range(last)]
    slot = (((n + 1) * sum(row) ** top).bit_length() + 7) // 8
    width = 8 * slot
    pows = [1] * (top + 1)  # L_1^m = 1
    sums = dict.fromkeys(powers, 0)
    for j in range(1, last + 1):
        if j > 1:
            c, shift = row[j - 1], (j - 1) * width
            if 2 * j <= top:
                # top - 1 products by L_j, each j shifted small scalings
                pows = [1, pows[1] + (c << shift)]
                for _ in range(2, top + 1):
                    prev = pows[-1]
                    acc = c * prev
                    for a in range(j - 2, -1, -1):
                        acc = (acc << width) + row[a] * prev
                    pows.append(acc)
            else:
                # binomial theorem on L_j = L_{j-1} + c t^(j-1), in about
                # top^2 / 2 Pascal steps; after step r, pows[r] holds L_j^r
                for r in range(1, top + 1):
                    for m in range(top, r - 1, -1):
                        pows[m] += (c * pows[m - 1]) << shift
        for m in powers:
            sums[m] += pows[m]
    for m in powers:  # the mirrored columns; an odd n's middle one is its own mirror
        sums[m] = 2 * sums[m] - (pows[m] if n % 2 else 0)
    return sums, slot


def _integral_exact(n: int, d: int) -> Fraction:
    """The integral of ``integrand(n, d)`` over [0, 1], on non-negative integers.

    With phi_d(u) = sum_m beta_m (1-u)^m and the packed S_m above,
    int_0^1 (1-F_j)^m dz = sum_s [t^s] L_j^m s! (mn-s)! / (mn+1)!; every
    term goes over the common denominator (Mn+1)!, M the largest power used.
    """
    beta = _complement_weights(d)
    powers = [m for m, b in enumerate(beta) if b]
    sums, slot = _tail_power_sums(n, powers)
    last = max(powers) * n + 1
    fact = list(accumulate(range(1, last + 1), mul, initial=1))
    numerator = 0
    for m in powers:
        packed, mn = sums[m], m * n
        deg = (packed.bit_length() - 1) // (8 * slot)
        raw = packed.to_bytes((deg + 1) * slot, "little")
        # sum_s c_s s! (mn-s)! = (mn-deg)! * Horner over the factors mn-s+1
        acc = 0
        for s in range(deg + 1):
            coeff = int.from_bytes(raw[s * slot : (s + 1) * slot], "little")
            acc = acc * (mn - s + 1) + coeff * fact[s]
        numerator += beta[m] * acc * fact[mn - deg] * (fact[last] // fact[mn + 1])
    return Fraction(numerator, fact[last])


def expected_emd_exact(n: int, d: int) -> ExpectationResult:
    """Expected EMD as an exact rational, by the integral on packed integers.

    Refuses with :class:`ThresholdExceeded` when d*n exceeds the exact-path
    threshold; callers should fall back to ``expected_emd_quadrature``.
    """
    n, d = check_integer("n", n), check_integer("d", d)
    threshold = exact_threshold()
    if d * n > threshold:
        raise ThresholdExceeded(
            f"d*n = {d * n} exceeds the exact-path threshold {threshold}; "
            f"use the quadrature path"
        )
    if n < 1 or d < 2:
        raise DomainError(f"expected_emd_exact needs n >= 1 and d >= 2, got n={n}, d={d}")
    return ExpectationResult(n=n, d=d, value=_integral_exact(n, d), method="exact-integral")


@lru_cache(maxsize=8)
def gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], as read-only arrays.

    Newton iteration on the Legendre recurrence from the standard cosine
    initial guesses, run to 1e-15; symmetric to rounding.  At most
    ``DEFAULT_NODE_LIMIT`` nodes.  The last few node counts asked for are
    cached, which is why the arrays cannot be written to.
    """
    import numpy as np

    if nodes < 1:
        raise DomainError(f"gauss_legendre needs at least one node, got {nodes}")
    if nodes > DEFAULT_NODE_LIMIT:
        raise BudgetExceeded(f"{nodes} quadrature nodes exceed limit {DEFAULT_NODE_LIMIT}")
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
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def expected_emd_quadrature(n: int, d: int, nodes: int | None = None) -> ExpectationResult:
    """Expected EMD by Gauss-Legendre quadrature of the integrand.

    The integrand is a polynomial of degree at most d*n, so any node count
    >= ceil((d*n + 1) / 2) integrates it exactly up to rounding; the default
    adds 8 spare nodes.  u = F_j(z) is the regularized incomplete beta
    function I_z(j, n-j+1), and phi_d(u) = E[min(K, d-K)] for K ~ Bin(d, u)
    is in closed form: with a = floor(d/2) + 1,

        phi_d(u) = d u (1 - 2 I_u(a-1, d-a+1)) + d I_u(a, d-a+1),

    from E[K 1{K >= a}] = d u P(Bin(d-1, u) >= a-1).  Columns j and n+1-j
    have equal integrals, so only j <= ceil(n/2) is evaluated, the middle
    one of an odd n counted once.  Memory is O(nodes) at any d.
    """
    from scipy.special import betainc

    n, d = check_integer("n", n), check_integer("d", d)
    if n < 1 or d < 2:
        raise DomainError(f"quadrature needs n >= 1 and d >= 2, got n={n}, d={d}")
    minimum = (d * n + 2) // 2
    nodes = minimum + 8 if nodes is None else check_integer("nodes", nodes)
    if nodes < minimum:
        raise InsufficientNodes(
            f"{nodes} nodes cannot integrate degree {d * n}; need >= {minimum}"
        )
    x, w = gauss_legendre(nodes)
    z = 0.5 * (x + 1.0)
    a = d // 2 + 1
    total = 0.0
    for j in range(1, (n + 1) // 2 + 1):
        u = betainc(j, n - j + 1, z)
        phi = d * u * (1.0 - 2.0 * betainc(a - 1, d - a + 1, u)) + d * betainc(a, d - a + 1, u)
        total += (1.0 if 2 * j == n + 1 else 2.0) * float(w @ phi)
    return ExpectationResult(n=n, d=d, value=0.5 * total, method="quadrature", nodes=nodes)


def expected_emd_recursive(dims: Sequence[int]) -> Fraction:
    """Expected EMD on a product of simplices of sizes ``dims``, by recursion.

    Independent of the integral route.  States are memoized on the sorted
    tuple (the expected value is symmetric in the factors); the bound
    C(sum(dims) + d, d) on the state count must stay within
    ``DEFAULT_STATE_LIMIT``.
    """
    key = tuple(sorted(check_integer("dims entry", v) for v in dims))
    if not key:
        raise DomainError("dims must be nonempty")
    if key[0] < 0:
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
