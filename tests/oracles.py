"""Closed-form oracles and the loop references of vectorised code, read only by the tests."""

from typing import Optional

import numpy as np

from weakdep.bounds import BoundEvaluation, BoundParams
from weakdep.models import IID, ModelSpec, MovingAverage


def analytic_covariance(model: ModelSpec, lag: int) -> Optional[float]:
    """Cov(X_1, X_{1+lag}) in closed form, or None when unavailable.

    For a moving average with coefficients a_1..a_p this is
    sigma_xi^2 * sum_j a_j a_{j+lag}; the i.i.d. case is p = 1, a_1 = 1.
    Cumulative-sum models have no stationary covariance and return None.
    """
    if lag < 0:
        raise ValueError(f"lag must be >= 0, got {lag}")
    if isinstance(model, IID):
        return model.law.variance if lag == 0 else 0.0
    if isinstance(model, MovingAverage):
        a = model.coeffs
        p = len(a)
        if lag >= p:
            return 0.0
        return model.law.variance * sum(a[j] * a[j + lag] for j in range(p - lag))
    return None


def geometric_sum(log_ratio: float, terms: int) -> float:
    """The scalar sum_{j<terms} exp(j log_ratio) that bounds.geometric_sum replaced, kept as
    the bit-for-bit reference of its elementwise form."""
    if terms <= 0:
        return 0.0
    if log_ratio == 0.0:
        return float(terms)
    with np.errstate(over="ignore"):
        if log_ratio > 350.0:
            return float(np.exp((terms - 1) * log_ratio))
        return float(np.expm1(terms * log_ratio) / np.expm1(log_ratio))


def tail_bound(x: float, params: BoundParams, v_pn: float) -> BoundEvaluation:
    """The one-point tail bound that bounds._tail_bound_grid replaced, kept as the bit-for-bit
    reference of the grid kernel."""
    if v_pn < 0:
        raise ValueError(f"coefficient tail sum must be >= 0, got {v_pn}")
    t = x / (2.0 * params.sigma2 * params.n * params.d_n)
    violated = []
    if not t <= params.mgf_threshold:
        violated.append("t_exceeds_block_mgf_threshold")
    ratio_term = 2.0 * t * params.sigma2 * params.d_n - params.c
    if not ratio_term < 0:
        violated.append("series_ratio_not_contracting")
    log_ratio = t * params.p_n * ratio_term
    gsum = geometric_sum(log_ratio, params.r_n - 1)
    with np.errstate(over="ignore"):
        if v_pn == 0.0 or t == 0.0:
            first = 0.0
        else:
            first = float(
                t * t * np.exp(t * params.c * params.n / 2.0 - t * x) * params.p_n * v_pn * gsum
            )
        second = float(np.exp(-x * x / (4.0 * params.sigma2 * params.n * params.d_n)))
    return BoundEvaluation(value=first + second, violated_conditions=tuple(violated))


def parse_grid(start: float, stop: float, step: float, max_points: int) -> list[float]:
    """The point loop that cli.parse_grid replaced: start + k step clipped to stop, up to the
    first point beyond stop + 1e-12; None when more than max_points points remain."""
    out = []
    for k in range(max_points + 1):
        x = start + k * step
        if x > stop + 1e-12:
            return out
        out.append(min(x, stop))
    return None
