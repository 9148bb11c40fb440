"""Seeded Monte Carlo harness confronting the closed-form bounds and limit
theorems with simulation.

Every check is a pure function of (model, config, seed): row r of what
it reads is replicate r of the keyed, chunked stream, so a row never
depends on the number of replicates drawn.  newman, cov and emp read
replicate paths from models.replicate_paths; tail, slln, clt and fclt
read only partial sums S_e, at the block ends, the grid, n - 1 or the
cut points, from models._replicate_sums, which computes them from
running sums of the same innovations without forming a path.  check_newman
forms the phases of every t in one reused complex buffer, from real cos
and sin (_phases), over row blocks on the threads of the draw
(models._on_row_blocks), and _lipschitz_cov_rows, the one cov runner that
check_lipschitz_cov and verify --check cov call, checks its cases on those
threads a row slice at a time, in three length-R buffers per thread, its
index-set sums column adds (_index_set_sums) and its PiecewiseLinear
segments comparisons.  Each of these kernels gives the bits of the general
numpy call (complex exp, a fancy-index row sum, searchsorted) at less
cost.  Every check returns VerificationReport rows built by
make_report, the one place a verdict is assigned; the pass rule of each
check lives with the check.

The empirical-process helpers return plain values: marginal_transform the
distribution function that maps a path to uniform marginals, read from the
model's coefficients and law and never its class, empirical_process_path
the array of zeta_n values on a grid, and estimate_gamma_operator an
estimate and its SE; check_empirical_process builds the emp rows from them.

The clt check computes its Kolmogorov distance here (_ks_distance) from a
port of scipy's normal cdf (_ndtr), with the same bits as scipy's kstest, so
clt loads no scipy: scipy.stats costs about half a second and 46 MB, and
scipy.special about 18 MB.  scipy.special is imported inside the one function
that calls it (the exact binomial limit of a tail row with 1 to 9
exceedances), not at the top, so no other code of this module loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .blocks import BlockScheme
from .bounds import tail_bound
from .coefficients import gamma_sequence, long_run_variance, newman_discrepancy_bound
from .models import (
    ModelSpec,
    Rademacher,
    UniformOnInterval,
    _on_row_blocks,
    _replicate_sums,
    _stationary,
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


def _cov_se(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> tuple[float, float]:
    """Sample covariance of paired draws and its SE from the per-draw influence values.

    a * b and then the influence values are formed in out, a float array of
    len(a) (a fresh one when None); a and b are only read, as they may be
    column views of a caller's matrix.
    """
    out = np.empty(len(a)) if out is None else out
    am, bm = a.mean(), b.mean()
    cov = float(np.multiply(a, b, out=out).mean() - am * bm)
    infl = np.multiply(np.subtract(a, am, out=out), b - bm, out=out)
    infl -= cov
    return cov, float(infl.std(ddof=1) / math.sqrt(len(a)))


def _refuse_zero_se(check: str, at: str, estimate, se: float) -> None:
    """ValueError when se underflowed to 0 under a nonzero estimate: at a
    subnormal scale a zero SE would read the estimate's rounding as a verdict."""
    if se == 0.0 and estimate != 0:
        raise ValueError(f"{check} SE underflows to 0 at {at} with a nonzero estimate: model scale too small")


# ---------------------------------------------------------------------------
# piecewise-linear test functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function anchored at f(0) = 0.

    slopes[i] applies on the i-th segment of the partition induced by the
    sorted breakpoints (len(slopes) = len(breakpoints) + 1); the exact
    Lipschitz norm is max |slope|.  The values at the breakpoints (the
    knots) are integrated once, when the function is built, so a call is
    numpy work only and a call per row slice costs no Python loop over the
    values.  A call counts the breakpoints at or below x with comparisons,
    np.searchsorted(breakpoints, x, "right") at less cost: the count over
    breakpoints[1:] indexes the knot x is measured from, and x >=
    breakpoints[0] adds one for its segment.  A NaN x gives NaN.
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
        object.__setattr__(self, "_knots", np.array([self._integrate(b) for b in self.breakpoints]))

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
        # anchor: how many of bp[1:] lie at or below x; seg: how many of bp do
        anchor = np.zeros(x.shape, dtype=np.intp)
        for b in self.breakpoints[1:]:
            anchor += x >= b
        seg = anchor + (x >= self.breakpoints[0])
        out = self._knots[anchor] + sl[seg] * (x - bp[anchor])
        return out if x.shape else float(out)


# ---------------------------------------------------------------------------
# covariance inequality check
# ---------------------------------------------------------------------------


# rows of the path matrix whose index-set sums and f, g values a cov case
# forms at once: the temporaries of a slice stay this many rows long
_COV_SLICE_ROWS = 12_500


def _index_set_sums(x: np.ndarray, cols: Sequence[int]) -> np.ndarray:
    """The row sums of x over the columns cols: a copy of the first column
    plus each further one in index order.  The sum of each row is therefore
    sequential, as numpy's x[:, cols].sum(axis=1) is for two rows or more;
    numpy sums a single row of 8 or more columns pairwise instead, which
    would give a one-row slice other bits.  A column is read in place, so no
    (rows, len(cols)) gather is built."""
    sums = x[:, cols[0]].copy()
    for c in cols[1:]:
        sums += x[:, c]
    return sums


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
    across cases.  The one-case call of _lipschitz_cov_rows, which starts no
    thread.
    """
    return _lipschitz_cov_rows(model, [(f_spec, g_spec, index_set_i, index_set_j)], n, cfg, paths)[0]


def _lipschitz_cov_rows(model: ModelSpec, cases: Sequence, n: int, cfg: MCConfig,
                        paths: Optional[np.ndarray] = None) -> list[VerificationReport]:
    """The report of check_lipschitz_cov for each (f, g, I, J) case, in order.

    Every case's index sets are checked, then the model is refused or its
    bounds computed, before the one draw of the paths (or the shape check of
    the shared matrix).  The cases run in contiguous runs on the threads of
    models._on_row_blocks, each thread with its own three length-R buffers:
    a case forms its index-set sums (_index_set_sums) and f, g of them
    _COV_SLICE_ROWS rows at a time into "f" and "g", and _cov_se uses
    "work".  Every value is row-wise, and each row's index-set sum is
    sequential in every slice, one row long or not, as numpy's
    x[:, cols].sum(axis=1) is over the whole matrix, so a row slice gives
    the bits of the whole-array expression,
    and the means and the SE are taken over the whole buffers: every row is
    the bytes of a serial run.  An estimate or SE out of the float range
    under finite f and g values, or an SE of 0 under a nonzero estimate,
    raises ValueError naming the first such case; a non-finite f or g value
    (a NaN in a shared matrix) still reads VIOLATED.
    """
    checked = []
    for f_spec, g_spec, index_set_i, index_set_j in cases:
        I = sorted(int(i) for i in index_set_i)
        J = sorted(int(j) for j in index_set_j)
        if set(I) & set(J):
            raise ValueError("index sets must be disjoint")
        if not I or not J:
            raise ValueError("index sets must be nonempty")
        if min(I + J) < 1 or max(I + J) > n:
            raise ValueError(f"index sets must lie in 1..{n}")
        checked.append((f_spec, g_spec, I, J))
    gamma = gamma_sequence(model)
    bounds = [f_spec.lipschitz_norm * g_spec.lipschitz_norm * sum(gamma.gamma(abs(i - j)) for i in I for j in J)
              for f_spec, g_spec, I, J in checked]
    x = replicate_paths(model, n, cfg.replicates, cfg.seed) if paths is None else paths
    if x.shape != (cfg.replicates, n):
        raise ValueError(f"shared paths must have shape {(cfg.replicates, n)}, got {x.shape}")
    reports = [None] * len(checked)

    def check_run(run: slice, own: dict) -> None:
        f_vals, g_vals, work = own["f"], own["g"], own["work"]
        for k in range(run.start, run.stop):
            f_spec, g_spec, I, J = checked[k]
            cols_i, cols_j = [i - 1 for i in I], [j - 1 for j in J]
            for lo in range(0, len(x), _COV_SLICE_ROWS):
                rows = slice(lo, lo + _COV_SLICE_ROWS)
                f_vals[rows] = f_spec(_index_set_sums(x[rows], cols_i))
                g_vals[rows] = g_spec(_index_set_sums(x[rows], cols_j))
            with np.errstate(over="ignore", invalid="ignore"):  # on this thread: refused below, not warned
                cov, se = _cov_se(f_vals, g_vals, work)
            param = f"I={I},J={J}"
            if not np.isfinite((cov, se)).all() and np.isfinite(f_vals).all() and np.isfinite(g_vals).all():
                raise ValueError(f"cov {'SE' if math.isfinite(cov) else 'estimate'} overflows at {param} although "
                                 "its f and g values are finite: model scale too large")
            _refuse_zero_se("cov", param, cov, se)
            low = abs(cov) - ERROR_MULTIPLIER * se
            reports[k] = make_report("cov", param, abs(cov), se, bounds[k], low <= bounds[k], cfg)

    _on_row_blocks(check_run, len(checked), {name: np.empty(cfg.replicates) for name in ("f", "g", "work")})
    return reports


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
    the bound and its validity as bounds.tail_bound builds them.  Z_odd is
    the sum of the odd blocks' differences of the partial sums at the block
    ends j p_n - 1, j = 1..2 r_n."""
    xs, bounds, valids = (col.tolist() for col in tail_bound(model, scheme, x_grid, alpha))
    ends = np.arange(1, 2 * scheme.r_n + 1) * scheme.p_n - 1
    sums = _replicate_sums(model, scheme.n, cfg.replicates, cfg.seed, ends)
    z_odd = np.diff(sums, axis=1, prepend=0.0)[:, 0::2].sum(axis=1)
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


def _phases(t: float, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(i t x) of the float array x, written into the complex array out of
    its shape, with the bits of np.exp(np.multiply(1j * t, x)).

    With 1j * t = (r, s), r a zero of t's sign, that product of a finite x
    is (+-0, s x + r 0), and the complex exp of (+-0, y) is (cos y, sin y).
    So y is formed in the real part of out (the + r 0 keeps the product's
    sign of zero: s x = -0 becomes +0 when r is +0), its sine written into
    the imaginary part and its cosine over it: real cos and sin cost less
    than complex exp, and take no temporary.
    """
    it = 1j * t
    y = np.multiply(it.imag, x, out=out.real)
    y += it.real * 0.0
    np.sin(y, out=out.imag)
    np.cos(y, out=out.real)
    return out


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
    imaginary parts), with the phases of every t in one reused (R, n)
    buffer.  Per t, the phases with their row products, then their division
    by the marginal means with the row sums, run over row blocks on the
    threads of replicate_paths; being row-wise, they give a serial pass's
    bits, and the sums down the rows (the means, the SE) stay whole on the
    calling thread.  An SE that underflows to 0 with a nonzero estimate
    raises ValueError: a subnormal scale gets no verdict.  So does a finite
    t whose bound overflows, before any path is drawn.
    """
    if n > 16:
        raise ValueError(f"characteristic-function check supports n <= 16, got {n}")
    gamma = gamma_sequence(model)
    t_grid = [float(t) for t in t_grid]
    bounds = [newman_discrepancy_bound(gamma, n, t) for t in t_grid]
    x = replicate_paths(model, n, cfg.replicates, cfg.seed)
    phases = np.empty(x.shape, dtype=complex)
    joint = np.empty(len(x), dtype=complex)
    ratio_sums = np.empty(len(x), dtype=complex)
    reports = []
    for t, bound in zip(t_grid, bounds):

        def phase_products(rows: slice, own: dict) -> None:
            np.prod(_phases(t, x[rows], phases[rows]), axis=1, out=joint[rows])

        def marginal_ratio_sums(rows: slice, own: dict) -> None:
            block = np.divide(phases[rows], marg_means, out=phases[rows])
            np.sum(block, axis=1, out=ratio_sums[rows])

        _on_row_blocks(phase_products, len(x), {})
        joint_mean = joint.mean()
        marg_means = phases.mean(axis=0)
        prod_marg = np.prod(marg_means)
        delta = joint_mean - prod_marg
        # influence of replicate r on (joint mean - product of marginal means)
        if np.min(np.abs(marg_means)) > 1e-8:
            _on_row_blocks(marginal_ratio_sums, len(x), {})
            prod_infl = np.multiply(prod_marg, np.subtract(ratio_sums, n, out=ratio_sums), out=ratio_sums)
        else:
            prod_infl = np.zeros_like(joint)
        # the same bits as (joint - joint_mean) - prod_infl, written over the spent products
        infl = np.subtract(np.subtract(joint, joint_mean, out=joint), prod_infl, out=joint)
        if abs(delta) > 1e-300:
            direction = delta / abs(delta)
            proj = np.real(np.conj(direction) * infl)
            se = float(proj.std(ddof=1) / math.sqrt(cfg.replicates))
        else:
            se = float(np.sqrt(np.mean(np.abs(infl) ** 2) / cfg.replicates))
        _refuse_zero_se("newman", f"t={t:g}", delta, se)
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
    sums = _replicate_sums(model, n_max, cfg.replicates, cfg.seed, idx)
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


# scipy's Cephes ndtr (Cody 1969, Math. Comp. 23; Moshier 1989): the erf rational T/U for |a| / sqrt 2 < 1,
# the erfc rationals P/Q below 8 and R/S from 8 up, and 0 or 1 past MAXLOG.  The leading 1.0 of U, Q and S
# is Cephes' p1evl: its first step x + c is 1.0 * x + c in the same bits.
_NDTR_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3, 7.00332514112805075473e3,
           5.55923013010394962768e4)
_NDTR_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
           2.26290000613890934246e4, 4.92673942608635921086e4)
_NDTR_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2, 9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_NDTR_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3, 1.65666309194161350182e3, 5.57535340817727675546e2)
_NDTR_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_NDTR_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)
_NDTR_MAXLOG = 7.09782712893383996843e2
# libm's exp, which scipy's C code calls; numpy's SIMD exp differs from it in the last bit of some values
_libm_exp = np.frompyfunc(math.exp, 1, 1)


def _polevl(x: np.ndarray, coeffs: tuple) -> np.ndarray:
    """Cephes' polevl: Horner's rule, one rounded multiply and one rounded add a step."""
    y = np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        y *= x
        y += c
    return y


def _ndtr(a: np.ndarray) -> np.ndarray:
    """Standard normal cdf of a float array, with the bits of scipy.special.ndtr.

    Each lane takes the operations of scipy's C code in its order: the erf
    rational where |a| / sqrt 2 < 1, else half the erfc rational times
    exp(-a^2 / 2), and 0 or 1 where a^2 / 2 exceeds MAXLOG or a is infinite.
    NaN gives NaN.  Only finite lanes with a^2 / 2 at most MAXLOG reach the
    rationals and exp, so no value overflows and no warning is raised.
    """
    x = a * math.sqrt(0.5)
    z = np.abs(x)
    out = np.where(x > 0.0, 1.0, 0.0)
    out[np.isnan(x)] = np.nan
    small = z < 1.0
    s = x[small]
    s2 = s * s
    out[small] = 0.5 + 0.5 * (s * _polevl(s2, _NDTR_T) / _polevl(s2, _NDTR_U))
    # past 27, z^2 exceeds MAXLOG anyway: the clip keeps the square finite
    tail = (z >= 1.0) & (np.square(np.minimum(z, 27.0)) <= _NDTR_MAXLOG)
    t = z[tail]
    near = t < 8.0
    p = np.where(near, _polevl(t, _NDTR_P), _polevl(t, _NDTR_R))
    q = np.where(near, _polevl(t, _NDTR_Q), _polevl(t, _NDTR_S))
    y = 0.5 * (_libm_exp(-(t * t)).astype(float) * p / q)
    out[tail] = np.where(x[tail] > 0.0, 1.0 - y, y)
    return out


def _ks_distance(cdf: np.ndarray) -> float:
    """Two-sided Kolmogorov distance sup |F_emp - F| of a sample to a
    continuous law, from the law's cdf at the sorted sample.

    The arithmetic is scipy's ks_1samp's, so the result has its bits:
    a NaN cdf value gives NaN, which fails any threshold.
    """
    n = cdf.size
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0.0, n) / n)
    return float(d_plus if d_plus > d_minus else d_minus)


def clt_ks_distance(model: ModelSpec, n: int, cfg: MCConfig) -> list[VerificationReport]:
    """Kolmogorov-Smirnov distance of S_n / sqrt(n) to N(0, sigma^2).

    The distance is computed here by _ks_distance from the normal cdf
    _ndtr, without scipy, and has the bits of scipy's
    kstest(vals, "norm", args=(0, sigma)).statistic.  One row,
    passing when the distance is at most the threshold
    1.358 / sqrt(replicates) (the 5% KS critical value) plus the finite-n
    allowance b(n).
    """
    sigma = math.sqrt(long_run_variance(model))
    vals = _replicate_sums(model, n, cfg.replicates, cfg.seed, [n - 1])[:, 0] / math.sqrt(n)
    ks = _ks_distance(_ndtr(np.sort(vals) / sigma))
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
    is BOUND_INVALID.  An SE that overflows (the influence values of a
    large scale square past the largest float), or that underflows to 0
    under a nonzero estimate, raises ValueError before any row is built:
    such a scale gets no verdict.
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
    sums = _replicate_sums(model, n, cfg.replicates, cfg.seed, ends)
    incs = np.diff(sums, axis=1, prepend=0.0) / math.sqrt(n)
    allowance = clt_bias_allowance(n) * sigma2
    valid = clt_bias_allowance(n) < min(t2 - t1 for t1, t2 in zip([0.0] + u, u))
    rows = []  # (param, estimate, se, target); an SE that overflows is refused below, not warned about
    with np.errstate(over="ignore"):
        for s in range(len(u)):
            v = incs[:, s]
            m = v.mean()
            var_hat = float(np.mean((v - m) ** 2))
            infl = (v - m) ** 2 - var_hat
            se = float(infl.std(ddof=1) / math.sqrt(cfg.replicates))
            lo = u[s - 1] if s else 0.0
            rows.append((f"var({lo:g},{u[s]:g}]", var_hat, se, (u[s] - lo) * sigma2))
        for s1 in range(len(u)):
            for s2 in range(s1 + 1, len(u)):
                rows.append((f"cov({u[s1]:g},{u[s2]:g})", *_cov_se(incs[:, s1], incs[:, s2]), 0.0))
    for param, estimate, se, _ in rows:
        if not math.isfinite(se):
            raise ValueError(f"fclt SE overflows at {param}: its influence values square past the largest float")
        _refuse_zero_se("fclt", param, estimate, se)
    return [
        make_report("fclt", param, estimate, se, target,
                    abs(estimate - target) <= ERROR_MULTIPLIER * se + allowance, cfg, valid)
        for param, estimate, se, target in rows
    ]


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
    transform to uniform [0, 1] marginals, read from its coeffs and law.

    A Rademacher law or no nonzero coefficient is a discrete marginal, an
    error.  One nonzero coefficient a gives law.cdf(x / |a|), exact since
    every law is symmetric.  Otherwise it is estimated: the empirical
    distribution function, scaled by 1 / (m + 1), of the first
    m = PREPASS_DRAWS values of the path with seed PREPASS_SEED.  Cached,
    so that the checks of one run share one pre-pass.
    """
    scales = [abs(c) for c in _stationary(model).coeffs if c != 0.0]
    if isinstance(model.law, Rademacher) or not scales:
        raise ValueError("marginal distribution function unavailable: discrete marginal law")
    if len(scales) == 1:
        return lambda x, law_cdf=model.law.cdf, scale=scales[0]: law_cdf(np.divide(x, scale))
    sample = np.sort(sample_path(model, PREPASS_DRAWS, PREPASS_SEED))
    return lambda x: np.searchsorted(sample, np.asarray(x, dtype=float), side="right") / (len(sample) + 1.0)


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

    K = p + 4 lags for a moving average of order p (only k = 1 survives
    when one coefficient is nonzero, where the sum is min(s, t) - s t).
    """
    if not (0.0 <= s <= 1.0 and 0.0 <= t <= 1.0):
        raise ValueError("arguments must lie in [0, 1]")
    u = marginal_transform(model)(replicate_paths(model, len(model.coeffs) + 4, cfg.replicates, cfg.seed))
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
    within ERROR_MULTIPLIER standard errors; the limit is known only when
    one coefficient is nonzero (counted, as tiny products underflow gamma_k
    to 0), so for any other model the row is BOUND_INVALID.
    """
    zeta = empirical_process_path(model, n, [0.0, 1.0], cfg.seed)
    reports = [
        make_report("emp", label, value, 0.0, 0.0, value == 0.0, cfg)
        for label, value in zip(("zeta(0)", "zeta(1)"), zeta)
    ]
    est, se = estimate_gamma_operator(model, s, t, cfg)
    known = sum(c != 0.0 for c in model.coeffs) == 1
    target = min(s, t) - s * t if known else math.nan
    ok = abs(est - target) <= ERROR_MULTIPLIER * se
    reports.append(make_report("emp", f"gamma({s:g},{t:g})", est, se, target, ok, cfg, valid=known))
    return reports
