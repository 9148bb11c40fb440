"""Exact dependence coefficients, the closed-form long-run variance and the
characteristic-function discrepancy bound of the stationary model families.

The coefficients gamma_k bound |Cov(f(X_I), g(X_J))| by
||f|| ||g|| sum_{i,j} gamma_{|i-j|} over all Lipschitz pairs (f, g) on
disjoint index sets.  For a moving average the exact envelope is the
absolute-coefficient convolution through the shared innovations; raw
signed covariances can understate the supremum, the envelope cannot.
An i.i.d. model is the order-one moving average (IID.coeffs is (1.0,)),
so one formula serves both.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .models import ModelSpec, _stationary


@dataclass(frozen=True)
class FiniteGamma:
    """Finitely supported coefficients gamma_1..gamma_K (empty means independence)."""

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if any(v < 0 for v in self.values):
            raise ValueError("dependence coefficients must be nonnegative")

    def gamma(self, k: int) -> float:
        if k < 1:
            raise ValueError(f"coefficient index must be >= 1, got {k}")
        return self.values[k - 1] if k <= len(self.values) else 0.0

    def tail_sum(self, n: int) -> float:
        """Cox-Grimmett tail sum v(n) = sum_{k >= n} gamma_k."""
        if n < 1:
            raise ValueError(f"tail index must be >= 1, got {n}")
        return float(sum(self.values[n - 1 :]))

    def total(self) -> float:
        """Total dependence D = sum_{k >= 1} gamma_k = v(1)."""
        return float(sum(self.values))


def gamma_sequence(model: ModelSpec) -> FiniteGamma:
    """Exact dependence coefficients of an i.i.d. or moving-average model.

    Moving average with coefficients a_1..a_p:
        gamma_k = sigma_xi^2 * sum_j |a_j a_{j+k}|,  1 <= k <= p-1,
    zero beyond; the i.i.d. model, the order-one moving average, has the
    empty sequence.
    """
    a = _stationary(model).coeffs
    p = len(a)
    s2 = model.law.variance
    values = tuple(
        s2 * sum(abs(a[j] * a[j + k]) for j in range(p - k)) for k in range(1, p)
    )
    return FiniteGamma(values=values)


def newman_discrepancy_bound(gamma: FiniteGamma, n: int, t: float) -> float:
    """Bound 4 t^2 sum_{j=1}^{n-1} (n - j) gamma_j on the gap between the
    joint characteristic function of (X_1..X_n) and the product of marginals.

    A finite t whose bound is not finite raises ValueError: the product
    overflowed (t^2 can overflow alone, and inf times a zero sum is nan).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    bound = 4.0 * t * t * sum((n - j) * gamma.gamma(j) for j in range(1, n))
    if math.isfinite(t) and not math.isfinite(bound):
        raise ValueError(f"newman bound overflows at t={t:g}: 4 t^2 sum (n - j) gamma_j exceeds the largest float")
    return bound


def long_run_variance(model: ModelSpec) -> float:
    """Long-run variance sigma^2 = lim E S_n^2 / n of a stationary model,
    sigma_xi^2 (sum_j a_j)^2 for a moving average, so sigma_xi^2 for i.i.d.

    A value that is not a finite positive normal float is an error, not a
    value, and the error says why: coefficients whose exact sum (fsum, so in
    any order) is 0, a partial sum of the coefficients or a positive sigma^2
    that overflows, or a sigma^2 that underflows: to 0, or below the
    smallest normal float, where a subnormal keeps too few significant bits
    to scale a check.  Every law has positive variance, so a law variance of
    0.0 has underflowed too.
    """
    try:
        total = math.fsum(_stationary(model).coeffs)
    except OverflowError:
        raise ValueError("long-run variance overflows: a partial sum of the coefficients exceeds the largest "
                         "float") from None
    if total == 0:
        raise ValueError("degenerate model: the coefficients sum to 0, so the long-run variance is 0")
    variance = model.law.variance
    sigma2 = variance * total * total
    terms = f"law variance {variance} times coefficient sum {total} squared"
    if sigma2 < sys.float_info.min:
        rounded = "rounds to 0" if sigma2 == 0 else f"is {sigma2:g}, below the smallest normal float"
        raise ValueError(f"long-run variance underflows: {terms} {rounded}")
    if not math.isfinite(sigma2):
        raise ValueError(f"long-run variance overflows: {terms} exceeds the largest float")
    return sigma2
