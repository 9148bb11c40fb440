"""Dependence coefficients and variance quantities for the model families.

The coefficients gamma_k bound |Cov(f(X_I), g(X_J))| by
||f|| ||g|| sum_{i,j} gamma_{|i-j|} over all Lipschitz pairs (f, g) on
disjoint index sets.  For a moving average the exact envelope is the
absolute-coefficient convolution through the shared innovations; raw
signed covariances can understate the supremum, the envelope cannot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .models import IID, CumSumTransform, ModelSpec, MovingAverage, is_stationary, replicate_paths


@dataclass(frozen=True)
class FiniteGamma:
    """Finitely supported coefficients gamma_1..gamma_K (empty means independence)."""

    values: tuple[float, ...]
    note: str = ""

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
    zero beyond; the i.i.d. case is the empty sequence.
    """
    if isinstance(model, IID):
        return FiniteGamma(values=(), note="iid")
    if isinstance(model, MovingAverage):
        a = model.coeffs
        p = len(a)
        s2 = model.law.variance
        values = tuple(
            s2 * sum(abs(a[j] * a[j + k]) for j in range(p - k)) for k in range(1, p)
        )
        return FiniteGamma(values=values, note=f"moving_average(p={p}) envelope")
    raise ValueError("cumulative-sum models have no stationary coefficient sequence")


def newman_discrepancy_bound(gamma: FiniteGamma, n: int, t: float) -> float:
    """Bound 4 t^2 sum_{j=1}^{n-1} (n - j) gamma_j on the gap between the
    joint characteristic function of (X_1..X_n) and the product of marginals."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return 4.0 * t * t * sum((n - j) * gamma.gamma(j) for j in range(1, n))


@dataclass(frozen=True)
class VarianceEstimate:
    """Long-run variance sigma^2 = lim E S_n^2 / n with provenance."""

    sigma2: float
    method: str  # "analytic" | "monte_carlo"
    standard_error: Optional[float] = None
    n: Optional[int] = None
    replicates: Optional[int] = None

    def __post_init__(self):
        if not (math.isfinite(self.sigma2) and self.sigma2 > 0):
            raise ValueError(f"long-run variance must be finite and positive, got {self.sigma2}")


def long_run_variance(
    model: ModelSpec,
    method: str = "analytic",
    n: int = 4096,
    replicates: int = 10_000,
    seed: int = 0,
) -> VarianceEstimate:
    """Long-run variance sigma^2 of a stationary model.

    Analytic for i.i.d. / moving-average models: sigma^2 = sigma_xi^2 (sum_j a_j)^2.
    The Monte Carlo route averages S_n^2 / n across replicates (defaults
    n = 2^12, replicates = 10^4) and reports a standard error; a degenerate
    or nonpositive estimate is an error, not a value.
    """
    if isinstance(model, CumSumTransform):
        raise ValueError("cumulative-sum models are nonstationary; no long-run variance")
    if method == "analytic":
        if isinstance(model, IID):
            sigma2 = model.law.variance
        else:
            total = sum(model.coeffs)
            sigma2 = model.law.variance * total * total
        if sigma2 <= 0:
            raise ValueError(f"degenerate model: long-run variance {sigma2} is not in (0, inf)")
        return VarianceEstimate(sigma2=sigma2, method="analytic")
    if method != "monte_carlo":
        raise ValueError(f"unknown method {method!r}")
    sums = replicate_paths(model, n, replicates, seed, lambda x: x.sum(axis=1))
    vals = sums * sums / n
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(replicates))
    if est <= 0:
        raise ValueError(f"monte carlo long-run variance estimate {est} is not positive")
    return VarianceEstimate(sigma2=est, method="monte_carlo", standard_error=se, n=n, replicates=replicates)


def _jackknife_se(values: np.ndarray) -> float:
    """Delete-one jackknife standard error of the mean statistic."""
    values = np.asarray(values, dtype=float)
    r = len(values)
    if r < 2:
        return float("nan")
    loo = (values.sum() - values) / (r - 1)
    return float(math.sqrt((r - 1) / r * np.sum((loo - loo.mean()) ** 2)))


def empirical_covariance(
    model: ModelSpec, lag: int, n: int, replicates: int, seed: int = 0
) -> tuple[float, float]:
    """Across-replicate estimate of Cov(X_1, X_{1+lag}) with jackknife SE.

    Each replicate contributes the lag-product mean pooled over the path
    (the variables are centered by construction, so no mean subtraction).
    """
    if n <= lag:
        raise ValueError(f"need n > lag, got n={n}, lag={lag}")
    if not is_stationary(model):
        raise ValueError("empirical covariance requires a stationary model")
    per_rep = replicate_paths(model, n, replicates, seed, lambda x: np.mean(x[:, : n - lag] * x[:, lag:], axis=1))
    return float(per_rep.mean()), _jackknife_se(per_rep)
