"""Seeded Monte Carlo harness confronting the closed-form bounds and limit
theorems with simulation.

Every check is a pure function of (model, config, seed): it reads its
replicates from models.replicate_paths, whose row r is replicate r of
the keyed, chunked stream reduced by the check's row-wise reduction, so
a row never depends on the number of replicates drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import ndtr
from scipy.stats import beta as beta_dist
from scipy.stats import kstest

from . import bounds as bnd
from .blocks import BlockScheme, decompose
from .coefficients import gamma_sequence, long_run_variance, newman_discrepancy_bound
from .models import (
    IID,
    ModelSpec,
    MovingAverage,
    Rademacher,
    UniformOnInterval,
    almost_sure_bound,
    is_stationary,
    nonneg_shift_mgf,
    replicate_paths,
    sample_path,
)

DOMINATED = "DOMINATED"
VIOLATED = "VIOLATED"
BOUND_INVALID = "BOUND_INVALID"

# Monte Carlo standard errors a check allows before it reports VIOLATED
ERROR_MULTIPLIER = 3.0

# quantile level of |S_n / n| whose decay slln_rate_fit fits
SLLN_QUANTILE = 0.99


@dataclass(frozen=True)
class MCConfig:
    replicates: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.replicates < 100:
            raise ValueError(f"need at least 100 replicates, got {self.replicates}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class VerificationReport:
    """One report row; the CSV and JSON columns are these fields, in order."""

    check: str
    param: str
    estimate: float
    se: float
    bound: float
    valid: bool
    verdict: str
    seed: int
    replicates: int


def make_report(
    check: str,
    param: str,
    estimate: float,
    se: float,
    bound: float,
    ok: bool,
    cfg: MCConfig,
    valid: bool = True,
) -> VerificationReport:
    """The one constructor of report rows.

    BOUND_INVALID when a hypothesis of the bound fails (valid False);
    otherwise DOMINATED only when the check's comparison holds and the
    estimate, its SE and the bound are all finite, else VIOLATED, so a
    NaN or infinite number never passes.
    """
    estimate, se, bound = float(estimate), float(se), float(bound)
    if not valid:
        verdict = BOUND_INVALID
    elif ok and math.isfinite(estimate) and math.isfinite(se) and math.isfinite(bound):
        verdict = DOMINATED
    else:
        verdict = VIOLATED
    return VerificationReport(
        check=check,
        param=param,
        estimate=estimate,
        se=se,
        bound=bound,
        valid=bool(valid),
        verdict=verdict,
        seed=cfg.seed,
        replicates=cfg.replicates,
    )


def _binomial_lower(count: int, total: int, mult: float) -> float:
    """Lower confidence limit for a proportion at the one-sided level
    matching `mult` standard errors; exact Clopper-Pearson below 10 counts."""
    if count == 0:
        return 0.0
    p_hat = count / total
    if count >= 10:
        se = math.sqrt(p_hat * (1.0 - p_hat) / total)
        return p_hat - mult * se
    alpha_low = 1.0 - ndtr(mult)
    return float(beta_dist.ppf(alpha_low, count, total - count + 1))


# ---------------------------------------------------------------------------
# piecewise-linear test functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function anchored at f(0) = 0.

    slopes[i] applies on the i-th segment of the partition induced by the
    sorted breakpoints (len(slopes) = len(breakpoints) + 1); the exact
    Lipschitz norm is max |slope|.
    """

    breakpoints: tuple[float, ...]
    slopes: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(float(b) for b in self.breakpoints))
        object.__setattr__(self, "slopes", tuple(float(s) for s in self.slopes))
        if len(self.slopes) != len(self.breakpoints) + 1:
            raise ValueError("need exactly one slope per segment (breakpoints + 1)")
        if any(b2 <= b1 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")

    @property
    def lipschitz_norm(self) -> float:
        return max(abs(s) for s in self.slopes)

    def _integrate(self, x: float) -> float:
        # integral of the slope field from 0 to x
        bp = self.breakpoints
        sl = self.slopes
        lo, hi = (0.0, x) if x >= 0 else (x, 0.0)
        sign = 1.0 if x >= 0 else -1.0
        total = 0.0
        cuts = [lo] + [b for b in bp if lo < b < hi] + [hi]
        for a, b in zip(cuts, cuts[1:]):
            mid = 0.5 * (a + b)
            seg = int(np.searchsorted(bp, mid, side="right"))
            total += sl[seg] * (b - a)
        return sign * total

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        bp = np.asarray(self.breakpoints)
        sl = np.asarray(self.slopes)
        if bp.size == 0:
            out = sl[0] * x
            return out if x.shape else float(out)
        seg = np.searchsorted(bp, x, side="right")
        anchor_idx = np.clip(seg - 1, 0, bp.size - 1)
        knots = np.array([self._integrate(b) for b in bp])
        out = knots[anchor_idx] + sl[seg] * (x - bp[anchor_idx])
        return out if x.shape else float(out)


# ---------------------------------------------------------------------------
# covariance inequality check
# ---------------------------------------------------------------------------


def check_lipschitz_cov(
    model: ModelSpec,
    f_spec: PiecewiseLinear,
    g_spec: PiecewiseLinear,
    index_set_i: Sequence[int],
    index_set_j: Sequence[int],
    n: int,
    cfg: MCConfig,
    paths: Optional[np.ndarray] = None,
) -> VerificationReport:
    """Monte Carlo |Cov(f(sum_I X), g(sum_J X))| against the coefficient bound
    ||f|| ||g|| sum_{i in I} sum_{j in J} gamma_{|i-j|}.

    Index sets are 1-based and must be disjoint subsets of 1..n.  A
    precomputed (cfg.replicates, n) replicate path matrix may be shared
    across cases.
    """
    I = sorted(int(i) for i in index_set_i)
    J = sorted(int(j) for j in index_set_j)
    if set(I) & set(J):
        raise ValueError("index sets must be disjoint")
    if not I or not J:
        raise ValueError("index sets must be nonempty")
    if min(I + J) < 1 or max(I + J) > n:
        raise ValueError(f"index sets must lie in 1..{n}")
    gamma = gamma_sequence(model)
    bound = f_spec.lipschitz_norm * g_spec.lipschitz_norm * sum(
        gamma.gamma(abs(i - j)) for i in I for j in J
    )
    x = replicate_paths(model, n, cfg.replicates, cfg.seed) if paths is None else paths
    if x.shape != (cfg.replicates, n):
        raise ValueError(f"shared paths must have shape {(cfg.replicates, n)}, got {x.shape}")
    a = f_spec(x[:, np.asarray(I) - 1].sum(axis=1))
    b = g_spec(x[:, np.asarray(J) - 1].sum(axis=1))
    am, bm = a.mean(), b.mean()
    cov = float(np.mean(a * b) - am * bm)
    infl = (a - am) * (b - bm) - cov
    se = float(infl.std(ddof=1) / math.sqrt(len(a)))
    low = abs(cov) - ERROR_MULTIPLIER * se
    return make_report("cov", f"I={I},J={J}", abs(cov), se, bound, low <= bound, cfg)


# ---------------------------------------------------------------------------
# tail domination
# ---------------------------------------------------------------------------


def check_tail_domination(
    model: ModelSpec,
    scheme: BlockScheme,
    x_grid: Sequence[float],
    cfg: MCConfig,
    alpha: float = 2.0,
) -> list[VerificationReport]:
    """Empirical P(Z_odd > x) versus the explicit tail bound on an x grid.

    Requires a bounded model (compact-support law, i.i.d. or moving
    average).  d_n is the bounded-case schedule evaluated at the scheme's
    effective theta = log p / log n.
    """
    c = almost_sure_bound(model)
    if c is None:
        raise ValueError("tail domination needs a bounded model")
    sigma2 = long_run_variance(model)
    v_pn = gamma_sequence(model).tail_sum(scheme.p_n)
    theta_eff = math.log(scheme.p_n) / math.log(scheme.n)
    d_n = (4.0 * alpha * c * c / sigma2) * scheme.n ** (2.0 * theta_eff - 1.0) * math.log(scheme.n)
    params = bnd.BoundParams(c=c, sigma2=sigma2, p_n=scheme.p_n, d_n=d_n, n=scheme.n)
    z_odd = replicate_paths(
        model, scheme.n, cfg.replicates, cfg.seed, lambda x: [decompose(row, scheme).z_odd for row in x]
    )
    reports = []
    for x in x_grid:
        count = int(np.sum(z_odd > x))
        p_hat = count / cfg.replicates
        se = math.sqrt(p_hat * (1.0 - p_hat) / cfg.replicates)
        lower = _binomial_lower(count, cfg.replicates, ERROR_MULTIPLIER)
        ev = bnd.tail_bound(float(x), params, v_pn)
        ok = lower <= ev.value
        reports.append(make_report("tail", f"x={float(x):g}", p_hat, se, ev.value, ok, cfg, valid=ev.valid))
    return reports


# ---------------------------------------------------------------------------
# characteristic-function inequality
# ---------------------------------------------------------------------------


def check_newman(
    model: ModelSpec,
    n: int,
    t_grid: Sequence[float],
    cfg: MCConfig,
) -> list[VerificationReport]:
    """|E prod e^{itX_j} - prod E e^{itX_j}| versus 4 t^2 sum (n-j) gamma_j.

    Joint and marginal characteristic functions are estimated on the same
    replicate set so common noise cancels; the SE comes from per-replicate
    influence values of the complex modulus (delta method on the real and
    imaginary parts).
    """
    if n > 16:
        raise ValueError(f"characteristic-function check supports n <= 16, got {n}")
    gamma = gamma_sequence(model)
    x = replicate_paths(model, n, cfg.replicates, cfg.seed)
    reports = []
    for t in t_grid:
        t = float(t)
        phases = np.exp(1j * t * x)  # (R, n)
        joint = phases.prod(axis=1)
        joint_mean = joint.mean()
        marg_means = phases.mean(axis=0)
        prod_marg = np.prod(marg_means)
        delta = joint_mean - prod_marg
        # influence of replicate r on (joint mean - product of marginal means)
        if np.min(np.abs(marg_means)) > 1e-8:
            prod_infl = prod_marg * ((phases / marg_means).sum(axis=1) - n)
        else:
            prod_infl = np.zeros_like(joint)
        infl = (joint - joint_mean) - prod_infl
        if abs(delta) > 1e-300:
            direction = delta / abs(delta)
            proj = np.real(np.conj(direction) * infl)
            se = float(proj.std(ddof=1) / math.sqrt(cfg.replicates))
        else:
            se = float(np.sqrt(np.mean(np.abs(infl) ** 2) / cfg.replicates))
        bound = newman_discrepancy_bound(gamma, n, t)
        low = abs(delta) - ERROR_MULTIPLIER * se
        reports.append(make_report("newman", f"n={n},t={t:g}", abs(delta), se, bound, low <= bound, cfg))
    return reports


# ---------------------------------------------------------------------------
# quasi-association counterexample
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuasiRow:
    alpha1: float
    lhs: float  # Cov(X_1, X_2) = alpha1^2 Var(xi)
    rhs: float  # ||f||^2 Cov(Y_1, Y_2)
    qa_holds: bool
    lweak_bound: float
    lweak_holds: bool


@dataclass(frozen=True)
class QuasiAssociationReport:
    alpha2: float
    f_norm: float
    rows: tuple[QuasiRow, ...]
    alpha1_found: Optional[float]
    seed: int


def check_quasi_association_counterexample(
    alpha1_grid: Sequence[float],
    alpha2: float,
    law: UniformOnInterval,
    cfg: MCConfig,
) -> QuasiAssociationReport:
    """Scan for the scale at which the quasi-association inequality
    Cov(X_1, X_2) <= ||f||^2 Cov(Y_1, Y_2) breaks for Y = exp(-X).

    X_1 = a1 xi_1, X_2 = a1 xi_1 + a2 xi_2 built from the law's nonnegative
    representation xi + h (association needs the monotone coupling; the
    shift leaves Var(xi), hence the left side, unchanged), so that
    Var(exp(-a1 xi)) -> 0 while Cov(X_1, X_2) = a1^2 Var(xi) grows.  The
    norm of f = -log is its support-restricted Lipschitz norm frozen at
    the smallest grid scale: the dependence definitions quantify over
    fixed finite-norm functions, so the witness f may not change with a1.
    Closed forms throughout: Cov(Y_1, Y_2) = E exp(-a2 xi) Var(exp(-a1 xi)).

    The companion column checks that the Lipschitz-envelope bound
    ||f||^2 ||g||^2 gamma_1 (with gamma_1 the covariance of the associated
    pair and ||g|| = 1 on the nonnegative support) keeps holding: the
    transformed pair stays weakly dependent even where quasi-association
    fails.
    """
    if not isinstance(law, UniformOnInterval):
        raise ValueError("counterexample check needs a uniform innovation law")
    grid = sorted(float(a) for a in alpha1_grid)
    if not grid or grid[0] <= 0 or alpha2 <= 0:
        raise ValueError("scale grids must be positive")
    width = 2.0 * law.halfwidth  # support of the shifted innovation [0, width]

    def shifted_mgf(t: float) -> float:
        return nonneg_shift_mgf(law, t)

    e_g2 = shifted_mgf(-alpha2)
    # f = -log on the Y values at the reference scale: Y >= exp(-(a1_ref + a2) width)
    f_norm = math.exp((grid[0] + alpha2) * width)
    var_xi = law.variance
    rows = []
    found = None
    for a1 in grid:
        var_g1 = shifted_mgf(-2.0 * a1) - shifted_mgf(-a1) ** 2
        lhs = a1 * a1 * var_xi
        rhs = f_norm * f_norm * e_g2 * var_g1
        qa_holds = lhs <= rhs
        lweak_bound = f_norm * f_norm * lhs  # ||g|| = 1 on [0, inf)
        lweak_holds = lhs <= lweak_bound
        if not qa_holds and found is None:
            found = a1
        rows.append(
            QuasiRow(
                alpha1=a1, lhs=lhs, rhs=rhs, qa_holds=qa_holds,
                lweak_bound=lweak_bound, lweak_holds=lweak_holds,
            )
        )
    return QuasiAssociationReport(
        alpha2=float(alpha2), f_norm=f_norm, rows=tuple(rows), alpha1_found=found, seed=cfg.seed
    )


# ---------------------------------------------------------------------------
# strong-law rate fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SllnRateFit:
    slope: float
    slope_se: float
    band: tuple[float, float]
    n_grid: tuple[int, ...]
    quantiles: tuple[float, ...]
    quantile_level: float
    seed: int
    replicates: int


def slln_rate_fit(
    model: ModelSpec,
    n_grid: Sequence[int],
    cfg: MCConfig,
) -> SllnRateFit:
    """Decay exponent of the SLLN_QUANTILE quantile of |S_n / n| over a
    geometric n grid.

    Each replicate draws one path at the largest n; the streaming generator
    makes every smaller n an exact prefix, so all grid points share
    innovations and the fitted log-log slope is read off a single pass.
    """
    if not is_stationary(model):
        raise ValueError("rate fit requires a stationary model")
    long_run_variance(model)  # raises on degenerate models
    grid = sorted(int(n) for n in n_grid)
    if len(set(grid)) < 3 or grid[0] < 1:
        raise ValueError("need at least 3 distinct positive grid points to fit a slope")
    n_max = grid[-1]
    idx = np.asarray(grid) - 1
    sums = replicate_paths(model, n_max, cfg.replicates, cfg.seed, lambda x: np.cumsum(x, axis=1)[:, idx])
    vals = np.abs(sums) / np.asarray(grid)
    quantiles = np.quantile(vals, SLLN_QUANTILE, axis=0)
    x = np.log(np.asarray(grid, dtype=float))
    y = np.log(quantiles)
    xc = x - x.mean()
    slope = float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))
    resid = y - (y.mean() + slope * xc)
    dof = len(grid) - 2
    slope_se = float(math.sqrt(np.dot(resid, resid) / dof / np.dot(xc, xc)))
    return SllnRateFit(
        slope=slope,
        slope_se=slope_se,
        band=(slope - 2.0 * slope_se, slope + 2.0 * slope_se),
        n_grid=tuple(grid),
        quantiles=tuple(float(q) for q in quantiles),
        quantile_level=SLLN_QUANTILE,
        seed=cfg.seed,
        replicates=cfg.replicates,
    )


# ---------------------------------------------------------------------------
# central limit theorem distance
# ---------------------------------------------------------------------------


def clt_bias_allowance(n: int) -> float:
    """Finite-n allowance b(n) = 2 / sqrt(n) added to the KS critical value.

    The limit law is asymptotic; the constant 2 is calibrated so the
    i.i.d. Rademacher baseline (lattice-distributed, Berry-Esseen
    controllable) passes with factor-2 margin.  A harness tolerance, not a
    claim about the theorems.
    """
    return 2.0 / math.sqrt(n)


@dataclass(frozen=True)
class CltKsReport:
    ks_statistic: float
    threshold: float
    verdict: str
    sign_estimate: float  # empirical P(S_n/sqrt(n) <= 0), should be near 1/2
    sign_se: float
    n: int
    seed: int
    replicates: int


def clt_ks_distance(model: ModelSpec, n: int, cfg: MCConfig) -> CltKsReport:
    """Kolmogorov-Smirnov distance of S_n / sqrt(n) to N(0, sigma^2).

    Threshold = 1.358 / sqrt(replicates) (the 5% KS critical value) plus
    the finite-n allowance b(n).
    """
    sigma2 = long_run_variance(model)
    sigma = math.sqrt(sigma2)
    vals = replicate_paths(model, n, cfg.replicates, cfg.seed, lambda x: x.sum(axis=1)) / math.sqrt(n)
    ks = float(kstest(vals, "norm", args=(0.0, sigma)).statistic)
    threshold = 1.358 / math.sqrt(cfg.replicates) + clt_bias_allowance(n)
    p_zero = float(np.mean(vals <= 0.0))
    sign_se = math.sqrt(0.25 / cfg.replicates)
    verdict = DOMINATED if ks <= threshold else VIOLATED
    return CltKsReport(
        ks_statistic=ks,
        threshold=threshold,
        verdict=verdict,
        sign_estimate=p_zero,
        sign_se=sign_se,
        n=n,
        seed=cfg.seed,
        replicates=cfg.replicates,
    )


# ---------------------------------------------------------------------------
# partial-sum process increments
# ---------------------------------------------------------------------------


def fclt_increment_check(
    model: ModelSpec,
    times: Sequence[float],
    n: int,
    cfg: MCConfig,
) -> list[VerificationReport]:
    """Variances and cross-covariances of partial-sum process increments.

    For 0 < u_1 < ... < u_k <= 1 (k <= 5) the increment over (u_{s-1}, u_s]
    should have variance (u_s - u_{s-1}) sigma^2 and uncorrelated pairs;
    each comparison allows ERROR_MULTIPLIER * SE + b(n) * sigma^2.  Times
    whose cut points floor(n u) coincide are an error; when b(n) reaches
    the shortest increment length a zero process would pass, so every row
    is BOUND_INVALID.
    """
    u = [float(t) for t in times]
    if len(u) > 5:
        raise ValueError("at most 5 increment times supported")
    if any(t2 <= t1 for t1, t2 in zip(u, u[1:])) or not u or u[0] <= 0 or u[-1] > 1:
        raise ValueError("times must be strictly increasing in (0, 1]")
    sigma2 = long_run_variance(model)
    cuts = [0] + [int(math.floor(n * t)) for t in u]
    if any(c2 == c1 for c1, c2 in zip(cuts, cuts[1:])):
        raise ValueError(f"times {u} give an empty increment at n={n}")
    ends = np.asarray(cuts[1:]) - 1  # S_cut is the running sum through index cut - 1
    sums = replicate_paths(model, n, cfg.replicates, cfg.seed, lambda x: np.cumsum(x, axis=1)[:, ends])
    incs = np.diff(sums, axis=1, prepend=0.0) / math.sqrt(n)
    allowance = clt_bias_allowance(n) * sigma2
    valid = clt_bias_allowance(n) < min(t2 - t1 for t1, t2 in zip([0.0] + u, u))
    reports = []
    for s in range(len(u)):
        v = incs[:, s]
        m = v.mean()
        var_hat = float(np.mean((v - m) ** 2))
        infl = (v - m) ** 2 - var_hat
        se = float(infl.std(ddof=1) / math.sqrt(cfg.replicates))
        lo = u[s - 1] if s else 0.0
        target = (u[s] - lo) * sigma2
        ok = abs(var_hat - target) <= ERROR_MULTIPLIER * se + allowance
        reports.append(make_report("fclt", f"var({lo:g},{u[s]:g}]", var_hat, se, target, ok, cfg, valid))
    for s1 in range(len(u)):
        for s2 in range(s1 + 1, len(u)):
            a, b = incs[:, s1], incs[:, s2]
            am, bm = a.mean(), b.mean()
            cov = float(np.mean(a * b) - am * bm)
            infl = (a - am) * (b - bm) - cov
            se = float(infl.std(ddof=1) / math.sqrt(cfg.replicates))
            ok = abs(cov) <= ERROR_MULTIPLIER * se + allowance
            reports.append(make_report("fclt", f"cov({u[s1]:g},{u[s2]:g})", cov, se, 0.0, ok, cfg, valid))
    return reports


# ---------------------------------------------------------------------------
# empirical process
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MarginalTransform:
    """Probability integral transform to uniform [0, 1] marginals.

    Exact for i.i.d. continuous laws; estimated for moving averages from a
    pre-pass path (piecewise-linear empirical distribution function).  The
    reported Lipschitz constant is the (estimated) sup of the marginal
    density; the transformed sequence inherits the dependence structure
    only when this is finite, so callers can inspect it.
    """

    kind: str  # "exact" | "estimated"
    cdf: Callable[[np.ndarray], np.ndarray]
    lipschitz: float


@lru_cache(maxsize=4)
def marginal_transform(
    model: ModelSpec, prepass_draws: int = 1_000_000, seed: int = 987_654_321
) -> MarginalTransform:
    """The model's marginal transform; a pure function of its arguments,
    cached so that the checks of one run share one pre-pass."""
    if isinstance(model, IID):
        law = model.law
        if isinstance(law, Rademacher):
            raise ValueError("marginal distribution function unavailable: discrete marginal law")
        lip = float(np.max(law.pdf(np.linspace(law.support[0], law.support[1], 2001))))
        return MarginalTransform(kind="exact", cdf=law.cdf, lipschitz=lip)
    if isinstance(model, MovingAverage):
        sample = np.sort(sample_path(model, prepass_draws, seed))
        n = len(sample)

        def cdf(x):
            return np.searchsorted(sample, np.asarray(x, dtype=float), side="right") / (n + 1.0)

        hist, _ = np.histogram(sample, bins=200, density=True)
        return MarginalTransform(kind="estimated", cdf=cdf, lipschitz=float(hist.max()))
    raise ValueError("marginal distribution function unavailable for this model")


@dataclass(frozen=True, eq=False)
class EmpiricalProcessPath:
    """Centered, sqrt(n)-scaled empirical distribution deviation on a grid."""

    grid: np.ndarray
    values: np.ndarray
    n: int
    marginal: MarginalTransform


def empirical_process_path(
    model: ModelSpec, n: int, grid: Sequence[float], seed: int
) -> EmpiricalProcessPath:
    """zeta_n(t) = sqrt(n) ((1/n) sum_j 1{U_j <= t} - t) on the grid, with
    U_j the probability-integral-transformed path values."""
    grid = np.asarray([float(t) for t in grid])
    if np.any(grid < 0.0) or np.any(grid > 1.0):
        raise ValueError("grid points must lie in [0, 1]")
    marginal = marginal_transform(model)
    u = marginal.cdf(sample_path(model, n, seed))
    counts = np.array([np.sum(u <= t) for t in grid], dtype=float)
    values = math.sqrt(n) * (counts / n - grid)
    return EmpiricalProcessPath(grid=grid, values=values, n=n, marginal=marginal)


def estimate_gamma_operator(
    model: ModelSpec,
    s: float,
    t: float,
    cfg: MCConfig,
    truncation: Optional[int] = None,
) -> tuple[float, float]:
    """Covariance operator sum_{k=1}^K Cov(1{U_1 <= s}, 1{U_k <= t}) of the
    empirical-process limit, estimated across replicates.

    K defaults to the coefficient support length + 5 (only k = 1 survives
    for the i.i.d. baseline, where the sum is min(s, t) - s t).
    """
    if not (0.0 <= s <= 1.0 and 0.0 <= t <= 1.0):
        raise ValueError("arguments must lie in [0, 1]")
    if truncation is None:
        support = len(gamma_sequence(model).values) if is_stationary(model) else 0
        truncation = support + 5
    marginal = marginal_transform(model)
    u = replicate_paths(model, int(truncation), cfg.replicates, cfg.seed, marginal.cdf)
    a, b = (u[:, 0] <= s).astype(float), (u <= t).astype(float)
    am = a.mean()
    bm = b.mean(axis=0)
    covs = (a[:, None] * b).mean(axis=0) - am * bm
    estimate = float(covs.sum())
    infl = ((a - am)[:, None] * (b - bm) - covs).sum(axis=1)
    se = float(infl.std(ddof=1) / math.sqrt(cfg.replicates))
    return estimate, se
