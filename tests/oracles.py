"""Closed-form oracles and the loop references of vectorised code, read only by the tests."""

from typing import Optional

import numpy as np

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


def window_sum_variance(model: ModelSpec, m: int) -> float:
    """Var S_m of the sum of m consecutive values of a moving average in closed form:
    S_m = sum_k w_k xi_k with w = 1_m convolved with the coefficients, so Var S_m =
    sigma_xi^2 sum_k w_k^2 (Newman & Wright 1981)."""
    w = np.convolve(np.ones(m), model.coeffs)
    return model.law.variance * float(np.sum(w * w))


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


def tail_bound(x: float, scheme, c: float, sigma2: float, d_n: float, v_pn: float) -> tuple[float, tuple[str, ...]]:
    """The one-point tail bound that bounds._tail_bound_grid replaced, kept as the bit-for-bit
    reference of the grid kernel: (value, names of the violated hypotheses)."""
    if v_pn < 0:
        raise ValueError(f"coefficient tail sum must be >= 0, got {v_pn}")
    n, p_n = scheme.n, scheme.p_n
    t = x / (2.0 * sigma2 * n * d_n)
    violated = []
    if not t <= (d_n - 1.0) / d_n / (c * p_n):
        violated.append("block_mgf_threshold")
    ratio_term = 2.0 * t * sigma2 * d_n - c
    if not ratio_term < 0:
        violated.append("series_ratio_contracting")
    log_ratio = t * p_n * ratio_term
    gsum = geometric_sum(log_ratio, scheme.r_n - 1)
    with np.errstate(over="ignore"):
        if v_pn == 0.0 or t == 0.0:
            first = 0.0
        else:
            first = float(t * t * np.exp(t * c * n / 2.0 - t * x) * p_n * v_pn * gsum)
        second = float(np.exp(-x * x / (4.0 * sigma2 * n * d_n)))
    return first + second, tuple(violated)


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


def piecewise_linear(f, x):
    """The searchsorted evaluation of verify.PiecewiseLinear that its comparison counts replaced,
    kept as their bit-for-bit reference: the segment is the number of breakpoints at or below x,
    and the knot is the one before it, clipped to the first."""
    x = np.asarray(x, dtype=float)
    bp, sl = np.asarray(f.breakpoints), np.asarray(f.slopes)
    if bp.size == 0:
        return sl[0] * x
    seg = np.searchsorted(bp, x, side="right")
    anchor = np.clip(seg - 1, 0, bp.size - 1)
    return f._knots[anchor] + sl[seg] * (x - bp[anchor])
