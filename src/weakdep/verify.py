"""Seeded Monte Carlo harness confronting the closed-form bounds and limit
theorems with simulation.

Every check is a pure function of (model, config, seed): it reads its
replicates from models.replicate_paths, whose row r is replicate r of
the keyed, chunked stream reduced by the check's row-wise reduction, so
a row never depends on the number of replicates drawn.  Every check
returns VerificationReport rows built by make_report, the one place a
verdict is assigned; the pass rule of each check lives with the check.

The empirical-process helpers return plain values: marginal_transform the
distribution function that maps a path to uniform marginals,
empirical_process_path the array of zeta_n values on a grid, and
estimate_gamma_operator an estimate and its SE; check_empirical_process
builds the emp rows from them.

scipy is imported inside the functions that call it, not at the top: the
KS distance imports scipy.stats, which costs about half a second, and the
exact binomial limit only scipy.special; every other check would otherwise
pay for them at start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .blocks import BlockScheme, decompose
from .bounds import tail_bound
from .coefficients import gamma_sequence, long_run_variance, newman_discrepancy_bound
from .models import (
    IID,
    ModelSpec,
    MovingAverage,
    Rademacher,
    UniformOnInterval,
    nonneg_shift_mgf,
    replicate_paths,
    sample_path,
)

DOMINATED = "DOMINATED"
VIOLATED = "VIOLATED"
BOUND_INVALID = "BOUND_INVALID"

# Monte Carlo standard errors a check allows before it reports VIOLATED
ERROR_MULTIPLIER = 3.0

# quantile level of |S_n / n| whose decay slln_rate_fit fits, and the window
# its fitted slope must fall in: the strong-law rate n^(-1/2) up to 0.05
SLLN_QUANTILE = 0.99
SLLN_SLOPE_WINDOW = (-0.55, -0.45)


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
    from scipy.special import betaincinv, ndtr

    alpha_low = 1.0 - ndtr(mult)
    return float(betaincinv(count, total - count + 1, alpha_low))


def _cov_se(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Sample covariance of paired draws and its SE from the per-draw influence values."""
    am, bm = a.mean(), b.mean()
    cov = float(np.mean(a * b) - am * bm)
    infl = (a - am) * (b - bm) - cov
    return cov, float(infl.std(ddof=1) / math.sqrt(len(a)))


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
    cov, se = _cov_se(f_spec(x[:, np.asarray(I) - 1].sum(axis=1)), g_spec(x[:, np.asarray(J) - 1].sum(axis=1)))
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
    """Empirical P(Z_odd > x) versus the explicit tail bound on an x grid,
    the bound and its validity as bounds.tail_bound builds them."""
    xs, bounds, valids = (col.tolist() for col in tail_bound(model, scheme, x_grid, alpha))
    z_odd = replicate_paths(model, scheme.n, cfg.replicates, cfg.seed, lambda x: decompose(x, scheme).z_odd)
    reports = []
    for x, bound, valid in zip(xs, bounds, valids):
        count = int(np.sum(z_odd > x))
        p_hat = count / cfg.replicates
        se = math.sqrt(p_hat * (1.0 - p_hat) / cfg.replicates)
        lower = _binomial_lower(count, cfg.replicates, ERROR_MULTIPLIER)
        reports.append(make_report("tail", f"x={x:g}", p_hat, se, bound, lower <= bound, cfg, valid=valid))
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


def check_quasi_association_counterexample(
    alpha1_grid: Sequence[float],
    alpha2: float,
    law: UniformOnInterval,
    cfg: MCConfig,
) -> list[VerificationReport]:
    """Scan for the scale at which the quasi-association inequality
    Cov(X_1, X_2) <= ||f||^2 Cov(Y_1, Y_2) breaks for Y = exp(-X).

    X_1 = a1 xi_1, X_2 = a1 xi_1 + a2 xi_2 built from the law's nonnegative
    representation xi + h (association needs the monotone coupling; the
    shift leaves Var(xi), hence the left side, unchanged), so that
    Var(exp(-a1 xi)) -> 0 while Cov(X_1, X_2) = a1^2 Var(xi) grows.  The
    norm of f = -log is its support-restricted Lipschitz norm frozen at
    the smallest grid scale, ||f|| = exp((a1_min + a2) width): the
    dependence definitions quantify over fixed finite-norm functions, so
    the witness f may not change with a1.  Closed forms throughout:
    Cov(Y_1, Y_2) = E exp(-a2 xi) Var(exp(-a1 xi)).

    One row: the estimate is the first scale at which the inequality
    fails (NaN when none does) and the bound the largest scale scanned.
    It passes when such a scale is found.  The grid and alpha2 must be finite and positive, and
    OverflowError is raised when ||f||^2 is not a finite float.
    """
    if not isinstance(law, UniformOnInterval):
        raise ValueError("quasi check needs a model with a uniform innovation law")
    grid = sorted(float(a) for a in alpha1_grid)
    alpha2 = float(alpha2)
    if not grid or not all(0.0 < a < math.inf for a in (*grid, alpha2)):
        raise ValueError("scale grids must be finite and positive")
    width = 2.0 * law.halfwidth  # support of the shifted innovation [0, width]
    e_g2 = nonneg_shift_mgf(law, -alpha2)
    # f = -log on the Y values at the reference scale: Y >= exp(-(a1_ref + a2) width)
    f_norm = math.exp((grid[0] + alpha2) * width)
    f_norm2 = f_norm * f_norm  # finite ||f|| can still square past the float range
    if not math.isfinite(f_norm2):
        raise OverflowError(f"||f||^2 = exp(2 * {(grid[0] + alpha2) * width:g}) overflows")
    found = None
    for a1 in grid:
        var_g1 = nonneg_shift_mgf(law, -2.0 * a1) - nonneg_shift_mgf(law, -a1) ** 2
        if not a1 * a1 * law.variance <= f_norm2 * e_g2 * var_g1:  # Cov(X_1, X_2) on the left
            found = a1
            break
    estimate = math.nan if found is None else found
    return [make_report("quasi", f"alpha2={alpha2:g}", estimate, 0.0, grid[-1], found is not None, cfg)]


# ---------------------------------------------------------------------------
# strong-law rate fit
# ---------------------------------------------------------------------------


def _partial_sums(x: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """np.cumsum(x, axis=1)[:, ends] up to rounding, for strictly increasing
    ends: the row sums of each segment between consecutive ends, then a
    running sum over those few columns, so no full-length running sum is
    built."""
    starts = np.concatenate(([0], ends[:-1] + 1))
    return np.cumsum(np.add.reduceat(x[:, : ends[-1] + 1], starts, axis=1), axis=1)


def _slln_grid(n_grid: Sequence[int], name: str = "grid") -> list[int]:
    """The sorted grid of a rate fit; name is what its errors call it."""
    grid = sorted(int(n) for n in n_grid)
    repeats = sorted({a for a, b in zip(grid, grid[1:]) if a == b})
    if repeats:
        raise ValueError(f"{name} points must be distinct: {', '.join(map(str, repeats))} repeated")
    if len(grid) < 3 or grid[0] < 1:
        raise ValueError(f"need at least 3 distinct positive {name} points to fit a slope")
    return grid


def slln_rate_fit(
    model: ModelSpec,
    n_grid: Sequence[int],
    cfg: MCConfig,
) -> list[VerificationReport]:
    """Decay exponent of the SLLN_QUANTILE quantile of |S_n / n| over a
    geometric n grid.

    Each replicate draws one path at the largest n; the streaming generator
    makes every smaller n an exact prefix, so all grid points share
    innovations and the fitted log-log slope is read off a single pass.
    One row: the slope with its least-squares SE, against the upper end of
    SLLN_SLOPE_WINDOW; it passes when the slope lies in the window.  A
    repeated grid point is an error: it is no independent observation.
    """
    long_run_variance(model)  # raises on nonstationary and degenerate models
    grid = _slln_grid(n_grid)
    n_max = grid[-1]
    idx = np.asarray(grid) - 1
    sums = replicate_paths(model, n_max, cfg.replicates, cfg.seed, lambda x: _partial_sums(x, idx))
    vals = np.abs(sums) / np.asarray(grid)
    quantiles = np.quantile(vals, SLLN_QUANTILE, axis=0)
    x = np.log(np.asarray(grid, dtype=float))
    y = np.log(quantiles)
    xc = x - x.mean()
    slope = float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))
    resid = y - (y.mean() + slope * xc)
    dof = len(grid) - 2
    slope_se = float(math.sqrt(np.dot(resid, resid) / dof / np.dot(xc, xc)))
    lo, hi = SLLN_SLOPE_WINDOW
    return [make_report("slln", f"q={SLLN_QUANTILE:g}", slope, slope_se, hi, lo <= slope <= hi, cfg)]


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


def clt_ks_distance(model: ModelSpec, n: int, cfg: MCConfig) -> list[VerificationReport]:
    """Kolmogorov-Smirnov distance of S_n / sqrt(n) to N(0, sigma^2).

    One row, passing when the distance is at most the threshold
    1.358 / sqrt(replicates) (the 5% KS critical value) plus the finite-n
    allowance b(n).
    """
    from scipy.stats import kstest

    sigma = math.sqrt(long_run_variance(model))
    vals = replicate_paths(model, n, cfg.replicates, cfg.seed, lambda x: x.sum(axis=1)) / math.sqrt(n)
    ks = float(kstest(vals, "norm", args=(0.0, sigma)).statistic)
    threshold = 1.358 / math.sqrt(cfg.replicates) + clt_bias_allowance(n)
    return [make_report("clt", f"n={n}", ks, 0.0, threshold, ks <= threshold, cfg)]


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
    sums = replicate_paths(model, n, cfg.replicates, cfg.seed, lambda x: _partial_sums(x, ends))
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
            cov, se = _cov_se(incs[:, s1], incs[:, s2])
            ok = abs(cov) <= ERROR_MULTIPLIER * se + allowance
            reports.append(make_report("fclt", f"cov({u[s1]:g},{u[s2]:g})", cov, se, 0.0, ok, cfg, valid))
    return reports


# ---------------------------------------------------------------------------
# empirical process
# ---------------------------------------------------------------------------


# the pre-pass whose empirical distribution function is a moving average's
# marginal transform
PREPASS_DRAWS = 1_000_000
PREPASS_SEED = 987_654_321


@lru_cache(maxsize=4)
def marginal_transform(model: ModelSpec) -> Callable[[np.ndarray], np.ndarray]:
    """The model's marginal distribution function, the probability integral
    transform to uniform [0, 1] marginals.

    Exact for i.i.d. continuous laws.  For a moving average it is estimated:
    the empirical distribution function, scaled by 1 / (m + 1), of the
    first m = PREPASS_DRAWS values of the path with seed PREPASS_SEED.  A
    pure function of the model, cached so that the checks of one run share
    one pre-pass.
    """
    if isinstance(model, IID):
        if isinstance(model.law, Rademacher):
            raise ValueError("marginal distribution function unavailable: discrete marginal law")
        return model.law.cdf
    if isinstance(model, MovingAverage):
        sample = np.sort(sample_path(model, PREPASS_DRAWS, PREPASS_SEED))
        m = len(sample)

        def cdf(x):
            return np.searchsorted(sample, np.asarray(x, dtype=float), side="right") / (m + 1.0)

        return cdf
    raise ValueError("marginal distribution function unavailable for this model")


def empirical_process_path(model: ModelSpec, n: int, grid: Sequence[float], seed: int) -> np.ndarray:
    """zeta_n(t) = sqrt(n) ((1/n) sum_j 1{U_j <= t} - t) at each grid point t,
    with U_j the probability-integral-transformed path values."""
    grid = np.asarray([float(t) for t in grid])
    if np.any(grid < 0.0) or np.any(grid > 1.0):
        raise ValueError("grid points must lie in [0, 1]")
    u = marginal_transform(model)(sample_path(model, n, seed))
    counts = np.array([np.sum(u <= t) for t in grid], dtype=float)
    return math.sqrt(n) * (counts / n - grid)


def estimate_gamma_operator(model: ModelSpec, s: float, t: float, cfg: MCConfig) -> tuple[float, float]:
    """Covariance operator sum_{k=1}^K Cov(1{U_1 <= s}, 1{U_k <= t}) of the
    empirical-process limit, estimated across replicates.

    K is the coefficient support length + 5 (only k = 1 survives for the
    i.i.d. baseline, where the sum is min(s, t) - s t).
    """
    if not (0.0 <= s <= 1.0 and 0.0 <= t <= 1.0):
        raise ValueError("arguments must lie in [0, 1]")
    transform = marginal_transform(model)
    u = replicate_paths(model, len(gamma_sequence(model).values) + 5, cfg.replicates, cfg.seed, transform)
    a, b = (u[:, 0] <= s).astype(float), (u <= t).astype(float)
    am = a.mean()
    bm = b.mean(axis=0)
    covs = (a[:, None] * b).mean(axis=0) - am * bm
    estimate = float(covs.sum())
    infl = ((a - am)[:, None] * (b - bm) - covs).sum(axis=1)
    se = float(infl.std(ddof=1) / math.sqrt(cfg.replicates))
    return estimate, se


def check_empirical_process(model: ModelSpec, n: int, s: float, t: float, cfg: MCConfig) -> list[VerificationReport]:
    """The empirical process at its ends and its covariance operator.

    Rows zeta(0) and zeta(1) of the path at seed cfg.seed pass when the
    value is exactly 0, as the exact marginal makes it.  Row gamma(s,t)
    compares the operator estimate with the limit covariance min(s, t) - s t
    within ERROR_MULTIPLIER standard errors; the limit is known only for
    the i.i.d. baseline, so for any other model the row is BOUND_INVALID.
    """
    zeta = empirical_process_path(model, n, [0.0, 1.0], cfg.seed)
    reports = [
        make_report("emp", label, value, 0.0, 0.0, value == 0.0, cfg)
        for label, value in zip(("zeta(0)", "zeta(1)"), zeta)
    ]
    est, se = estimate_gamma_operator(model, s, t, cfg)
    iid = isinstance(model, IID)
    target = min(s, t) - s * t if iid else math.nan
    ok = abs(est - target) <= ERROR_MULTIPLIER * se
    reports.append(make_report("emp", f"gamma({s:g},{t:g})", est, se, target, ok, cfg, valid=iid))
    return reports
