"""The closed-form tail-bound evaluator and the strong-law rate schedules.

tail_bound returns the bound value together with an explicit list of
violated hypotheses instead of erroring, so the verification harness can
report behavior across the validity boundary.  No unspecified constants
are materialized anywhere: the bound is the fully explicit pre-constant
form of the odd-block tail inequality, the Markov bound on the block-MGF
of the odd-block sum at the optimized exponent.  The formula lives in one
kernel over an array of x, which the bound command and the tail check call
once per grid; tail_bound is its one-point case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class BoundParams:
    """Inputs of the tail bound.

    c is the almost-sure bound on the variables, sigma2 the long-run
    variance, p_n the block length, d_n > 1 the finite slack sequence, n the
    sample size.  r_n = floor(n / 2 p_n) block pairs.
    """

    c: float
    sigma2: float
    p_n: int
    d_n: float
    n: int

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError(f"almost-sure bound c must be positive, got {self.c}")
        if not self.sigma2 > 0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")
        if not 1 < self.d_n < math.inf:
            raise ValueError(f"d_n must be finite and exceed 1, got {self.d_n}")
        if not 1 <= self.p_n <= self.n / 2:
            raise ValueError(f"need 1 <= p_n <= n/2, got p_n={self.p_n}, n={self.n}")

    @property
    def r_n(self) -> int:
        return self.n // (2 * self.p_n)

    @property
    def mgf_threshold(self) -> float:
        """Largest admissible t for the single-block MGF bound."""
        return (self.d_n - 1.0) / self.d_n / (self.c * self.p_n)


@dataclass(frozen=True)
class BoundEvaluation:
    value: float
    violated_conditions: tuple[str, ...] = ()

    @property
    def valid(self) -> bool:
        return not self.violated_conditions


def geometric_sum(log_ratio, terms: int):
    """sum_{j=0}^{terms-1} exp(j * log_ratio) elementwise, stable for any ratio.

    The expm1 ratio expm1(m a)/expm1(a) avoids the cancellation of
    (1 - q^m)/(1 - q) near q = 1 and agrees with it elsewhere; far in the
    growing regime the top term dominates and is returned alone.  A scalar
    log_ratio gives a float.
    """
    a = np.asarray(log_ratio, dtype=float)
    # np.where evaluates every branch on every lane: expm1(0)/expm1(0) and the
    # overflows of the lanes it discards must not warn
    with np.errstate(all="ignore"):
        # remaining terms are smaller by at least exp(-350)
        out = np.where(a > 350.0, np.exp((terms - 1) * a), np.expm1(terms * a) / np.expm1(a))
    out = np.where(terms <= 0, 0.0, np.where(a == 0.0, terms, out))
    return float(out) if out.ndim == 0 else out


def _tail_bound_grid(x, params: BoundParams, v_pn: float):
    """The bound of tail_bound at every point of x, with its hypotheses:
    (value, {name of the violation: where the hypothesis holds})."""
    if v_pn < 0:
        raise ValueError(f"coefficient tail sum must be >= 0, got {v_pn}")
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        t = x / (2.0 * params.sigma2 * params.n * params.d_n)
        ratio_term = 2.0 * t * params.sigma2 * params.d_n - params.c
        gsum = geometric_sum(t * params.p_n * ratio_term, params.r_n - 1)
        first = t * t * np.exp(t * params.c * params.n / 2.0 - t * x) * params.p_n * v_pn * gsum
        second = np.exp(-x * x / (4.0 * params.sigma2 * params.n * params.d_n))
        value = np.where((t == 0.0) | (v_pn == 0.0), 0.0, first) + second
    # written so that a NaN x or t fails every hypothesis and x = -0.0 passes
    return value, {
        "t_exceeds_block_mgf_threshold": t <= params.mgf_threshold,
        "series_ratio_not_contracting": ratio_term < 0,
        "negative_deviation": x >= 0.0,
    }


def tail_bound(x: float, params: BoundParams, v_pn: float) -> BoundEvaluation:
    """Explicit tail bound on P(Z_odd > x) at the optimized t = x / (2 sigma2 n d_n):

        t^2 e^{t c n / 2} p_n v(p_n) e^{-t x} sum_{j=0}^{r_n-2} e^{j t p_n (2 t sigma2 d_n - c)}
        + exp(-x^2 / (4 sigma2 n d_n)).

    Valid when t clears the block-MGF threshold, the series ratio is
    contracting, 2 t sigma2 d_n - c < 0 (equivalently x/n < c), and x >= 0:
    the Markov step P(Z > x) <= e^{-t x} E e^{t Z} needs t >= 0.
    """
    value, holds = _tail_bound_grid(x, params, v_pn)
    violated = tuple(name for name, ok in holds.items() if not ok)
    return BoundEvaluation(value=float(value), violated_conditions=violated)


@dataclass(frozen=True)
class LaplaceCondition:
    """Exponential-moment hypothesis: sup_{|t| <= tau} E e^{t |X|} <= U, tau > 3."""

    tau: float
    U: float

    def __post_init__(self):
        if not self.tau > 3:
            raise ValueError(f"tau must exceed 3, got {self.tau}")
        if not self.U > 0:
            raise ValueError(f"U must be positive, got {self.U}")


@dataclass(frozen=True)
class RateSchedule:
    """Coupled sequences (p_n, d_n, epsilon_n, c_n) driving the strong-law rates.

    bound_level is the level entering the block-MGF threshold (the
    almost-sure bound c in the bounded case, the truncation level c_n in
    the unbounded case).  t is the Markov-optimized exponent
    epsilon_n / (2 sigma2 d_n); t_markov and tail_term are set only by the
    unbounded schedule.
    """

    theta: float
    alpha: float
    n: int
    p_n: int
    d_n: float
    epsilon_n: float
    bound_level: float
    sigma2: float
    d_constant: float
    rate_exponent: float
    c_n: Optional[float] = None
    t_markov: Optional[float] = None
    tail_term: Optional[float] = None

    @property
    def t(self) -> float:
        return self.epsilon_n / (2.0 * self.sigma2 * self.d_n)


def _check_alpha(alpha: float):
    if not 1.0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and exceed 1, got {alpha}")


def _check_theta_alpha(theta: float, alpha: float):
    if not 0.5 < theta < 1.0:
        raise ValueError(f"theta must lie in (1/2, 1), got {theta}")
    _check_alpha(alpha)


def slln_schedule(n: int, theta: float, alpha: float, sigma2: float, c: float) -> RateSchedule:
    """Blocking schedule for the bounded-variable strong law.

    p_n = floor(n^theta); d_n = (4 alpha c^2 / sigma2) n^{2 theta - 1} log n,
    the smallest constant making t c p_n <= d_n / 2 hold (it pins
    t c p_n = p_n / (2 n^theta) <= 1/2); epsilon_n = sqrt(4 sigma2 alpha
    d_n log n / n) = 4 alpha c n^{theta-1} log n, giving the rate exponent
    1 - theta.
    """
    _check_theta_alpha(theta, alpha)
    if not sigma2 > 0 or not c > 0:
        raise ValueError("sigma2 and c must be positive")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    logn = math.log(n)
    p_n = max(1, math.floor(n ** theta))
    d_constant = 4.0 * alpha * c * c / sigma2
    d_n = d_constant * n ** (2.0 * theta - 1.0) * logn
    epsilon_n = math.sqrt(4.0 * sigma2 * alpha * d_n * logn / n)
    return RateSchedule(
        theta=theta,
        alpha=alpha,
        n=n,
        p_n=p_n,
        d_n=d_n,
        epsilon_n=epsilon_n,
        bound_level=c,
        sigma2=sigma2,
        d_constant=d_constant,
        rate_exponent=1.0 - theta,
    )


def unbounded_schedule(
    n: int, theta: float, alpha: float, sigma2: float, cond: LaplaceCondition
) -> RateSchedule:
    """Truncation schedule for the unbounded-variable strong law.

    c_n = log n; d_n = (alpha / sigma2) n^{2 theta - 1} c_n^2 log n;
    epsilon_n = 4 alpha^2 n^{theta - 1} c_n (log n)^{1/2}; the Markov
    exponent for the residual tail is t = alpha + 1 + 2(1 - theta), which
    must be admissible, t < tau.  With these choices the residual tail term

        2 n U / (t^2 epsilon_n^2) e^{-t c_n}

    equals a constant times n^{-alpha} (log n)^{-3} exactly.
    """
    _check_theta_alpha(theta, alpha)
    if not sigma2 > 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    if n < 3:
        raise ValueError(f"need n >= 3 so that c_n = log n exceeds 1, got {n}")
    t_markov = alpha + 1.0 + 2.0 * (1.0 - theta)
    if not cond.tau > t_markov:
        raise ValueError(
            f"markov_exponent_not_admissible: need tau > alpha + 1 + 2(1 - theta) = {t_markov}, got tau = {cond.tau}"
        )
    logn = math.log(n)
    c_n = logn
    p_n = max(1, math.floor(n ** theta))
    d_constant = alpha / sigma2
    d_n = d_constant * n ** (2.0 * theta - 1.0) * c_n * c_n * logn
    epsilon_n = 4.0 * alpha * alpha * n ** (theta - 1.0) * c_n * math.sqrt(logn)
    tail_term = 2.0 * n * cond.U / (t_markov * t_markov * epsilon_n * epsilon_n) * math.exp(-t_markov * c_n)
    return RateSchedule(
        theta=theta,
        alpha=alpha,
        n=n,
        p_n=p_n,
        d_n=d_n,
        epsilon_n=epsilon_n,
        bound_level=c_n,
        sigma2=sigma2,
        d_constant=d_constant,
        rate_exponent=1.0 - theta,
        c_n=c_n,
        t_markov=t_markov,
        tail_term=tail_term,
    )


def named_inequalities(schedule: RateSchedule, cond: Optional[LaplaceCondition] = None) -> dict[str, bool]:
    """The admissibility inequalities a schedule must satisfy, by name.

    block_mgf_threshold:  t <= ((d_n - 1)/d_n) / (bound_level * p_n)
    tcp_le_half_d:        t * bound_level * p_n <= d_n / 2
    t_below_tau:          t_markov < tau  (unbounded schedules only)
    """
    t = schedule.t
    tcp = t * schedule.bound_level * schedule.p_n
    out = {
        "block_mgf_threshold": t <= (schedule.d_n - 1.0) / schedule.d_n / (schedule.bound_level * schedule.p_n),
        "tcp_le_half_d": tcp <= schedule.d_n / 2.0,
    }
    if schedule.t_markov is not None:
        if cond is None:
            raise ValueError("unbounded schedule needs the exponential-moment condition for t < tau")
        out["t_below_tau"] = schedule.t_markov < cond.tau
    return out
