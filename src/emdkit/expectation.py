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
* ``expected_emd_quadrature``  -- windowed Gauss-Legendre.  F_j is the
  regularized incomplete beta function, and so is phi_d in closed form:
  phi_d(u) = E[min(K, d-K)] for K ~ Bin(d, u) takes one more incomplete-beta
  call and a binomial term.  Column j is integrated only over the window between the
  eps = 1e-20 quantiles of Beta(j, n-j+1); since phi_d(u) <= d min(u, 1-u),
  the cut loses at most 2 d eps per column.  The window is split at the
  column median, where u = 1/2, and each half gets G nodes.  G doubles from
  64 until two successive totals agree within 1e-14 relative, or until it
  reaches (d*n + 2) // 2, where the rule is exact for the degree-d*n
  integrand; the last difference is the error estimate.  The same column reflection
  halves the columns.  Work is O(n G) evaluations under a budget of
  ``DEFAULT_WORK_LIMIT``, memory is bounded by chunking the columns, and
  d is capped at ``DEFAULT_D_LIMIT``.
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
    Frozen,
    IndexOutOfRange,
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
#: On the quadrature route it caps the per-half-window count G: the
#: starting ``nodes`` and every doubling of it.
DEFAULT_NODE_LIMIT = 2**15

#: Most column-node evaluations (three ``betainc`` values each) that one
#: quadrature call makes over all its passes.  The largest admitted calls,
#: such as (n, d) = (21844, 2), (21000, 10) and (9362, 200), take 3-4 s of
#: CPU on a 2-vCPU x86 guest.
DEFAULT_WORK_LIMIT = 2**22

#: Largest d the quadrature admits.  phi_d bends around u = 1/2 over a
#: width of about d^-1/2.  Far past this cap the bend fits between the
#: median endpoint and the first node of both starting passes, which then
#: agree on a wrong value: at d = 10^10 the result is 1e-10 relative off
#: with an error estimate of 4e-16.  Up to 2^16 the bend spans many nodes
#: of the first pass.
DEFAULT_D_LIMIT = 2**16

# Windowed quadrature: probability cut from each tail of a column's window,
# the starting per-half node count, the agreement that stops the doubling,
# and the most values one vectorised chunk of columns holds.
_TAIL = 1e-20
_START_NODES = 64
_RTOL = 1e-14
_CHUNK_VALUES = 2**16


def exact_threshold() -> int:
    """The d*n ceiling of the exact path (env override: EMDKIT_EXACT_THRESHOLD)."""
    raw = os.environ.get(THRESHOLD_ENV_VAR)
    if raw is None:
        return DEFAULT_EXACT_THRESHOLD
    try:
        return int(raw)
    except ValueError as exc:
        raise DomainError(f"{THRESHOLD_ENV_VAR} must be an integer, got {raw!r}") from exc


class ExpectationResult(Frozen):
    """An expected-EMD value with its provenance.

    ``normalized`` divides by the maximum possible EMD, n * floor(d/2),
    mapping the value into [0, 1].  On a quadrature result, ``nodes`` is the
    final Gauss-Legendre count per half-window and ``error`` the estimate:
    the difference of the last two totals, or 0.0 when the count reached
    the exactness bound (d*n + 2) // 2.  Both are None otherwise.
    """

    n: int
    d: int
    value: Union[Fraction, float]
    method: str  # "exact-integral" | "recursion" | "quadrature"
    nodes: Optional[int] = None
    error: Optional[float] = None

    @property
    def normalized(self) -> Union[Fraction, float]:
        return self.value / (self.n * (self.d // 2))


def cdf_Fj(n: int, j: int) -> RationalPolynomial:
    """CDF polynomial of the j-th partial sum of a uniform simplex point."""
    n, j = check_integer("n", n), check_integer("j", j)
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
    n, d = check_integer("n", n), check_integer("d", d)
    i, j = check_integer("i", i), check_integer("j", j)
    if d < 1:
        raise DomainError(f"order_stat_cdf needs d >= 1, got {d}")
    if not 1 <= i <= d:
        raise IndexOutOfRange(f"order-statistic index {i} outside 1..{d}")
    mixture = _binomial_mixture(d, [1 if k >= i else 0 for k in range(d + 1)])
    return mixture.compose(cdf_Fj(n, j))


def integrand(n: int, d: int) -> RationalPolynomial:
    """The expected-EMD integrand: sum over columns of phi_d composed with F_j."""
    n, d = check_integer("n", n), check_integer("d", d)
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


def _check_nodes(nodes: object) -> int:
    """A node count as an int in 1..DEFAULT_NODE_LIMIT, or the matching error."""
    nodes = check_integer("nodes", nodes)
    if nodes < 1:
        raise DomainError(f"nodes must be at least 1, got {nodes}")
    if nodes > DEFAULT_NODE_LIMIT:
        raise BudgetExceeded(f"{nodes} quadrature nodes exceed limit {DEFAULT_NODE_LIMIT}")
    return nodes


@lru_cache(maxsize=8, typed=True)
def gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], as read-only arrays.

    Newton iteration on the Legendre recurrence from the standard cosine
    initial guesses, run to 1e-15; symmetric to rounding.  At most
    ``DEFAULT_NODE_LIMIT`` nodes.  The last few node counts asked for are
    cached, which is why the arrays cannot be written to; the cache is
    keyed by type, so a bool never hits an int's entry and is refused.
    """
    import numpy as np

    nodes = _check_nodes(nodes)
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


def _column_windows(n: int) -> tuple[np.ndarray, ...]:
    """Per column j <= ceil(n/2): Beta parameters, window, median and multiplicity.

    The window [lo, hi] cuts probability _TAIL from each tail of
    X_j ~ Beta(j, n-j+1) (the upper end by the mirror law of 1 - X_j), and
    the median splits it in two.  Columns j and n+1-j have equal integrals,
    so each column counts twice, the middle one of an odd n once.
    """
    import numpy as np
    from scipy.special import betaincinv

    p = np.arange(1, (n + 1) // 2 + 1, dtype=np.float64)
    q = n + 1 - p
    lo = betaincinv(p, q, _TAIL)
    mid = betaincinv(p, q, 0.5)
    hi = 1.0 - betaincinv(q, p, _TAIL)
    mult = np.full(p.size, 2.0)
    if n % 2:
        mult[-1] = 1.0
    return p, q, lo, mid, hi, mult


@lru_cache(maxsize=64)
def _central_ratio(m: int) -> float:
    """C(2m, m) / 4^m, correctly rounded; memoized, as m = 2^15 takes 0.1 s."""
    return comb(2 * m, m) / 4**m


def _weight(d: int, u: np.ndarray) -> np.ndarray:
    """phi_d(u) = E[min(K, d-K)] for K ~ Bin(d, u), by one incomplete-beta call.

    With m = floor(d/2), E[K 1{K > m}] = d u P(Bin(d-1, u) >= m) gives
    phi_d(u) = d u (1 - 2 I_u(m, d-m)) + d I_u(m+1, d-m), and the
    recurrence I_u(m+1, d-m) = I_u(m, d-m) - t with
    t = C(d-1, m) u^m (1-u)^(d-m) turns it into

        phi_d(u) = d (u + (1 - 2u) I_u(m, d-m) - t).

    Since 4u(1-u) = 1 - s^2 with s = 1 - 2u,
    t = C(2m, m) 4^-m exp(m log1p(-s^2)) times 1/2 (d even) or 1-u (d odd);
    near u = 1/2, where t is largest, m s^2 is small and t is accurate to a
    few ulps.
    """
    import numpy as np
    from scipy.special import betainc

    m = d // 2
    s = 1.0 - 2.0 * u
    with np.errstate(divide="ignore"):  # u = 0 or 1 gives log1p(-1) = -inf and t = 0
        t = _central_ratio(m) * np.exp(m * np.log1p(-s * s))
    t *= 0.5 if d % 2 == 0 else 1.0 - u
    return d * (u + s * betainc(m, d - m, u) - t)


def _windowed_sum(d: int, columns: tuple[np.ndarray, ...], x: np.ndarray, w: np.ndarray) -> float:
    """sum_j mult_j * int_window phi_d(F_j(z)) dz, by the rule (x, w) on each half."""
    import numpy as np
    from scipy.special import betainc

    p, q, lo, mid, hi, mult = columns
    step = max(1, _CHUNK_VALUES // (2 * x.size))
    total = 0.0
    for s in range(0, p.size, step):
        c = slice(s, s + step)
        left = np.stack((lo[c], mid[c]), axis=1)[:, :, None]  # (columns, halves, 1)
        half = 0.5 * (np.stack((mid[c], hi[c]), axis=1)[:, :, None] - left)
        u = betainc(p[c, None, None], q[c, None, None], left + half * (x + 1.0))
        total += float(mult[c] @ ((_weight(d, u) @ w) * half[:, :, 0]).sum(axis=1))
    return total


def expected_emd_quadrature(n: int, d: int, nodes: int | None = None) -> ExpectationResult:
    """Expected EMD by windowed Gauss-Legendre quadrature of the integrand.

    u = F_j(z) is the regularized incomplete beta function I_z(j, n-j+1),
    and phi_d(u) = E[min(K, d-K)] for K ~ Bin(d, u) is in closed form: with
    m = floor(d/2) and s = 1 - 2u,

        phi_d(u) = d (u + s I_u(m, d-m) - C(d-1, m) u^m (1-u)^(d-m)),

    one more incomplete-beta call (see ``_weight``).  Columns j and n+1-j
    have equal integrals, so only j <= ceil(n/2) is evaluated, the middle
    one of an odd n counted once.

    Column j is integrated over its window
    [betaincinv(j, n-j+1, eps), 1 - betaincinv(n-j+1, j, eps)], eps = 1e-20.
    Since phi_d(u) <= d min(u, 1-u), the part cut off is at most 2 d eps
    per column.  The window is split at the column median, where u = 1/2
    and phi_d bends most, and each half gets G Gauss-Legendre nodes,
    evaluated over chunks of columns so that memory stays bounded at any n.
    G starts at ``nodes`` (default 64) and doubles until two successive
    totals agree within 1e-14 relative, or until it reaches
    (d*n + 2) // 2, where the rule is exact for the degree-d*n integrand on
    any interval; no pass uses more than that count.  The result's
    ``nodes`` is the final G and ``error`` the last successive difference,
    0.0 when the exact count ended the loop.  Before each pass, the
    column-node evaluations needed to finish (a first pass below the exact
    count needs the second) are checked against ``DEFAULT_WORK_LIMIT`` for
    the whole call, and ``BudgetExceeded`` is raised before the pass when
    they would pass it, as it is for a G above ``DEFAULT_NODE_LIMIT`` and
    for d above ``DEFAULT_D_LIMIT``, past which two passes can agree on a
    value that misses phi_d's bend at u = 1/2.
    """
    n, d = check_integer("n", n), check_integer("d", d)
    if n < 1 or d < 2:
        raise DomainError(f"quadrature needs n >= 1 and d >= 2, got n={n}, d={d}")
    if d > DEFAULT_D_LIMIT:
        raise BudgetExceeded(f"quadrature at d={d} exceeds limit {DEFAULT_D_LIMIT}")
    exact_nodes = (d * n + 2) // 2
    g = min(_START_NODES if nodes is None else _check_nodes(nodes), exact_nodes)
    per_node = (n + 1) // 2 * 2  # evaluations per node count: two halves per column
    columns = previous = None
    work = 0
    while True:
        work += per_node * _check_nodes(g)
        # a first pass below the exact count cannot end the loop, so the next one counts too
        upcoming = min(2 * g, exact_nodes) if previous is None and g < exact_nodes else 0
        least = work + per_node * upcoming
        if least > DEFAULT_WORK_LIMIT:
            raise BudgetExceeded(
                f"quadrature at n={n}, d={d}: {least} column-node evaluations "
                f"exceed limit {DEFAULT_WORK_LIMIT}"
            )
        x, w = gauss_legendre(g)
        if columns is None:
            columns = _column_windows(n)
        total = _windowed_sum(d, columns, x, w)
        if g == exact_nodes:
            error = 0.0
            break
        if previous is not None and abs(total - previous) <= _RTOL * abs(total):
            error = abs(total - previous)
            break
        previous = total
        g = min(2 * g, exact_nodes)
    return ExpectationResult(n=n, d=d, value=total, method="quadrature", nodes=g, error=error)


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
