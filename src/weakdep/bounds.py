"""The explicit tail bound of the odd-block sum and the strong-law rate schedules.

tail_bound derives the bound's inputs from a stationary model and a block
scheme and returns, at each point of an x grid, the bound value together
with whether its hypotheses hold instead of erroring, so the verification
harness can report behavior across the validity boundary.  A hypothesis is
named after what it asserts and is True where it holds; the block-MGF
threshold, which the rate schedules share, is written once.  No unspecified
constants are materialized anywhere: the bound is the fully explicit
pre-constant form of the odd-block tail inequality, the Markov bound on the
block-MGF of the odd-block sum at the optimized exponent.  The bound command
and the tail check both read it from tail_bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .blocks import BlockScheme
from .coefficients import gamma_sequence, long_run_variance
from .models import ModelSpec, almost_sure_bound


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


def _block_mgf_threshold(t, d, level: float, p_n: int):
    """The block-MGF hypothesis t <= ((d - 1)/d) / (level p_n), elementwise; level is the
    almost-sure bound c or the truncation level c_n, and a NaN t fails it."""
    return t <= (d - 1.0) / d / (level * p_n)


def _tail_bound_grid(x, scheme: BlockScheme, c: float, sigma2: float, d_n: float, v_pn: float):
    """The tail bound at every point of x, with its hypotheses:
    (value, {name of the hypothesis: where it holds}).

    c is the almost-sure bound on the variables, sigma2 the long-run
    variance, d_n > 1 the finite slack sequence and v_pn >= 0 the
    coefficient tail sum at the scheme's block length p_n; r_n = floor(n /
    2 p_n) block pairs.  At the optimized t = x / (2 sigma2 n d_n):

        t^2 e^{t c n / 2} p_n v(p_n) e^{-t x} sum_{j=0}^{r_n-2} e^{j t p_n (2 t sigma2 d_n - c)}
        + exp(-x^2 / (4 sigma2 n d_n)).

    Valid when its three hypotheses hold: block_mgf_threshold at level c,
    series_ratio_contracting, 2 t sigma2 d_n - c < 0 (equivalently x/n < c),
    and nonnegative_deviation, x >= 0: the Markov step
    P(Z > x) <= e^{-t x} E e^{t Z} needs t >= 0.
    """
    n, p_n = scheme.n, scheme.p_n
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        t = x / (2.0 * sigma2 * n * d_n)
        ratio_term = 2.0 * t * sigma2 * d_n - c
        gsum = geometric_sum(t * p_n * ratio_term, scheme.r_n - 1)
        first = t * t * np.exp(t * c * n / 2.0 - t * x) * p_n * v_pn * gsum
        second = np.exp(-x * x / (4.0 * sigma2 * n * d_n))
        value = np.where((t == 0.0) | (v_pn == 0.0), 0.0, first) + second
    # written so that a NaN x or t fails every hypothesis and x = -0.0 passes
    return value, {
        "block_mgf_threshold": _block_mgf_threshold(t, d_n, c, p_n),
        "series_ratio_contracting": ratio_term < 0,
        "nonnegative_deviation": x >= 0.0,
    }


def tail_bound(model: ModelSpec, scheme: BlockScheme, x_grid: Sequence[float], alpha: float):
    """The explicit tail bound of P(Z_odd > x) over an x grid, as arrays (x, bound, valid).

    Requires a stationary model (i.i.d. or moving average; every law has
    compact support).  c is its almost-sure bound, sigma2 its long-run variance,
    v(p_n) its coefficient tail sum at the block length, and d_n the
    bounded-case schedule evaluated at the scheme's effective theta = log
    p_n / log n; alpha must be finite and exceed 1, as for the schedule.
    OverflowError is raised when d_n is infinite at this alpha but finite at
    alpha = 1, ValueError when it is infinite even there (c^2 / sigma2
    overflows) or does not exceed 1.
    """
    _check_alpha(alpha)
    c = almost_sure_bound(model)
    sigma2 = long_run_variance(model)
    v_pn = gamma_sequence(model).tail_sum(scheme.p_n)
    theta = math.log(scheme.p_n) / math.log(scheme.n)
    d_n = _d_n(scheme.n, theta, alpha, sigma2, c)
    if math.isinf(d_n):
        # d_n grows with alpha: infinite at alpha = 1 too, the model is at fault
        if math.isinf(_d_n(scheme.n, theta, 1.0, sigma2, c)):
            raise ValueError(f"d_n overflows at every alpha: model c = {c:g} is too large for sigma^2 = {sigma2:g}")
        raise OverflowError(f"d_n overflows at alpha = {alpha:g}")
    if not d_n > 1:
        raise ValueError(f"d_n must be finite and exceed 1, got {d_n}")
    x = np.asarray(x_grid, dtype=float)
    value, holds = _tail_bound_grid(x, scheme, c, sigma2, d_n, v_pn)
    return x, value, np.logical_and.reduce(list(holds.values()))


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
    """Coupled sequences (p_n, d_n, epsilon_n, bound_level) driving the strong-law rates.

    bound_level is the level entering the block-MGF threshold (the
    almost-sure bound c in the bounded case, the truncation level c_n in
    the unbounded case).  t is the Markov-optimized exponent
    epsilon_n / (2 sigma2 d_n); t_markov and tail_term are set only by the
    unbounded schedule.
    """

    p_n: int
    d_n: float
    epsilon_n: float
    bound_level: float
    sigma2: float
    t_markov: Optional[float] = None
    tail_term: Optional[float] = None

    @property
    def t(self) -> float:
        return self.epsilon_n / (2.0 * self.sigma2 * self.d_n)


def _check_alpha(alpha: float):
    if not 1.0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and exceed 1, got {alpha}")


def _d_n(n: int, theta: float, alpha: float, sigma2: float, c: float) -> float:
    """The bounded-case slack d_n = (4 alpha c^2 / sigma2) n^{2 theta - 1} log n."""
    return 4.0 * alpha * c * c / sigma2 * n ** (2.0 * theta - 1.0) * math.log(n)


def _block_length(n: int, theta: float) -> int:
    """The block length p_n = max(1, floor(n^theta)) of the tail bound and both rate
    schedules, theta in (1/2, 1); n must not be negative, where n^theta is complex."""
    if not 0.5 < theta < 1.0:
        raise ValueError(f"theta must lie in (1/2, 1), got {theta}")
    return max(1, math.floor(n ** theta))


def slln_schedule(n: int, theta: float, alpha: float, sigma2: float, c: float) -> RateSchedule:
    """Blocking schedule for the bounded-variable strong law.

    p_n = floor(n^theta); d_n = (4 alpha c^2 / sigma2) n^{2 theta - 1} log n,
    the smallest constant making t c p_n <= d_n / 2 hold (it pins
    t c p_n = p_n / (2 n^theta) <= 1/2); epsilon_n = sqrt(4 sigma2 alpha
    d_n log n / n) = 4 alpha c n^{theta-1} log n, giving the rate exponent
    1 - theta.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    p_n = _block_length(n, theta)
    _check_alpha(alpha)
    if not sigma2 > 0 or not c > 0:
        raise ValueError("sigma2 and c must be positive")
    logn = math.log(n)
    d_n = _d_n(n, theta, alpha, sigma2, c)
    epsilon_n = math.sqrt(4.0 * sigma2 * alpha * d_n * logn / n)
    return RateSchedule(p_n=p_n, d_n=d_n, epsilon_n=epsilon_n, bound_level=c, sigma2=sigma2)


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
    if n < 3:
        raise ValueError(f"need n >= 3 so that c_n = log n exceeds 1, got {n}")
    p_n = _block_length(n, theta)
    _check_alpha(alpha)
    if not sigma2 > 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    t_markov = alpha + 1.0 + 2.0 * (1.0 - theta)
    if not cond.tau > t_markov:
        raise ValueError(
            f"markov_exponent_not_admissible: need tau > alpha + 1 + 2(1 - theta) = {t_markov}, got tau = {cond.tau}"
        )
    logn = math.log(n)
    c_n = logn
    d_n = alpha / sigma2 * n ** (2.0 * theta - 1.0) * c_n * c_n * logn
    epsilon_n = 4.0 * alpha * alpha * n ** (theta - 1.0) * c_n * math.sqrt(logn)
    tail_term = 2.0 * n * cond.U / (t_markov * t_markov * epsilon_n * epsilon_n) * math.exp(-t_markov * c_n)
    return RateSchedule(
        p_n=p_n, d_n=d_n, epsilon_n=epsilon_n, bound_level=c_n, sigma2=sigma2, t_markov=t_markov, tail_term=tail_term
    )


def named_inequalities(schedule: RateSchedule, cond: Optional[LaplaceCondition] = None) -> dict[str, bool]:
    """The admissibility inequalities a schedule must satisfy, by name: True where one holds.

    block_mgf_threshold:  t <= ((d_n - 1)/d_n) / (bound_level * p_n)
    t_below_tau:          t_markov < tau  (unbounded schedules only)
    """
    out = {"block_mgf_threshold": _block_mgf_threshold(schedule.t, schedule.d_n, schedule.bound_level, schedule.p_n)}
    if schedule.t_markov is not None:
        if cond is None:
            raise ValueError("unbounded schedule needs the exponential-moment condition for t < tau")
        out["t_below_tau"] = schedule.t_markov < cond.tau
    return out
