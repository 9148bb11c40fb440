import math
import warnings

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakdep import (LaplaceCondition, MCConfig, MovingAverage, UniformOnInterval, block_scheme, check_tail_domination,
                     named_inequalities, slln_schedule, tail_bound, unbounded_schedule)
from weakdep.bounds import _tail_bound_grid, geometric_sum

# the kernel's inputs after x: (scheme, c, sigma2, d_n)
PARAMS = (block_scheme(64, 4), 1.0, 1.0, 2.0)


# --- geometric sum helper --------------------------------------------------


@given(st.floats(-3, 3), st.integers(0, 40))
@settings(max_examples=200)
def test_geometric_sum_matches_direct(log_ratio, terms):
    oracle = sum(math.exp(j * log_ratio) for j in range(terms))
    assert geometric_sum(log_ratio, terms) == pytest.approx(oracle, rel=1e-10, abs=1e-12)


def test_geometric_sum_near_one_fallback():
    lr = 1e-12
    assert geometric_sum(lr, 10) == pytest.approx(10.0, rel=1e-9)
    assert geometric_sum(0.0, 7) == 7.0
    assert geometric_sum(1.0, 0) == 0.0
    # deep growing regime: dominated by the top term, no overflow surprises
    assert geometric_sum(350.5, 2) == pytest.approx(math.exp(350.5), rel=1e-12)
    assert geometric_sum(400.0, 3) == float("inf")


def test_geometric_sum_elementwise_matches_scalar_reference():
    # every branch: zero, the expm1 ratio, the top term past 350, overflow, NaN
    a = np.array([-math.inf, -800.0, -3.0, -1e-12, -0.0, 0.0, 1e-300, 1e-12, 1.0, 349.9, 350.0, 350.5,
                  400.0, 800.0, math.inf, math.nan])
    # terms = 3 at 350.5: the top term exp(701) is finite where expm1(1051.5) overflows
    for terms in (-1, 0, 1, 2, 3, 7, 1000):
        expected = np.array([oracles.geometric_sum(float(v), terms) for v in a])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = geometric_sum(a, terms)
        assert np.array_equal(got, expected, equal_nan=True), terms
        assert np.signbit(got).tolist() == np.signbit(expected).tolist()
    assert isinstance(geometric_sum(0.5, 3), float)


# (scheme, c, sigma2, d_n), v_pn and an x grid reaching x = 0, the valid region, each failed
# hypothesis, log_ratio == 0 at t != 0 (x = 64 below), log_ratio > 350, NaN x,
# v_pn == 0, a bound that overflows to inf (the third case at x = 16) and
# r_n - 1 <= 0 (the last two); x = -1e4 is a NaN bound (0 * inf), which the
# scalar code computed with an invalid-value warning; every x < 0 fails only
# the sign hypothesis, which the scalar code did not have
KERNEL_CASES = [
    (PARAMS, 0.1, [0.0, -0.0, 0.5, 10.0, 32.0, 33.0, 63.9, 64.0, 65.0, 100.0, 1200.0, 1300.0, 5000.0,
                   -1e-300, -10.0, -1e4, math.nan, math.inf, -math.inf]),
    (PARAMS, 0.0, [0.0, 10.0, 64.0, 1300.0, math.nan]),
    ((block_scheme(64, 4), 1.0, 1e-3, 1.0001), 0.5, [0.0, 1.0, 16.0, 32.0, 48.0, 60.0, 64.0, 100.0]),
    ((block_scheme(8, 4), 1.0, 1.0, 2.0), 0.1, [0.0, 1.0, 8.0, 100.0, math.nan]),
    ((block_scheme(16, 4), 1.0, 1.0, 2.0), 0.1, [0.0, 1.0, 8.0, 100.0, math.nan]),
]


def _point(x, params, v_pn):
    """The kernel at one point: (value, names of the violated hypotheses)."""
    value, holds = _tail_bound_grid(x, *params, v_pn)
    return float(value), tuple(name for name, ok in holds.items() if not ok)


@pytest.mark.parametrize("case", range(len(KERNEL_CASES)))
def test_tail_bound_grid_matches_scalar_reference(case):
    params, v_pn, xs = KERNEL_CASES[case]
    with np.errstate(invalid="ignore"):
        refs = [oracles.tail_bound(x, *params, v_pn) for x in xs]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, holds = _tail_bound_grid(np.array(xs), *params, v_pn)
        points = [_point(x, params, v_pn) for x in xs]
    assert np.array_equal(value, [v for v, _ in refs], equal_nan=True)
    assert np.signbit(value).tolist() == [math.copysign(1.0, v) < 0 for v, _ in refs]
    assert list(holds) == ["block_mgf_threshold", "series_ratio_contracting", "nonnegative_deviation"]
    for name in ("block_mgf_threshold", "series_ratio_contracting"):
        assert holds[name].tolist() == [name not in violated for _, violated in refs]
    # the reference has no sign hypothesis: x >= 0, failed by NaN, passed by -0.0
    nonnegative = [not x < 0 and not math.isnan(x) for x in xs]
    assert holds["nonnegative_deviation"].tolist() == nonnegative
    for (point, violated), (ref, ref_violated), ok in zip(points, refs, nonnegative):
        assert violated == ref_violated + (() if ok else ("nonnegative_deviation",))
        assert point == ref or (math.isnan(point) and math.isnan(ref))
    if case == 2:
        assert math.isinf(value[2])


# --- tail bound ------------------------------------------------------------


def test_tail_bound_d_n_guard():
    # the derived d_n must be finite and exceed 1: on ma11 (c = 2, sigma2 = 4/3) a block
    # length of 1 or 2 at n = 4096 gives d_n = 0.0487 or 0.195, and alpha = 1e308 overflows it;
    # p_n > n/2 is block_scheme's check
    ma11 = MovingAverage(coeffs=(1.0, 1.0), law=UniformOnInterval(-1, 1))
    cfg = MCConfig(replicates=100, seed=0)
    for p_n, d_n in ((1, "0.0487"), (2, "0.1949")):
        scheme = block_scheme(4096, p_n)
        with pytest.raises(ValueError, match=f"d_n must be finite and exceed 1, got {d_n}"):
            tail_bound(ma11, scheme, [0.0, 100.0], alpha=2.0)
        with pytest.raises(ValueError, match=f"d_n must be finite and exceed 1, got {d_n}"):
            check_tail_domination(ma11, scheme, [0.0, 100.0], cfg)
        with pytest.raises(OverflowError):
            tail_bound(ma11, scheme, [0.0, 100.0], alpha=1e308)
        with pytest.raises(OverflowError):
            check_tail_domination(ma11, scheme, [0.0, 100.0], cfg, alpha=1e308)


def test_tail_bound_gaussian_term_only():
    x = 3.0
    value, _ = _point(x, PARAMS, 0.0)
    scheme, _, sigma2, d_n = PARAMS
    assert value == pytest.approx(math.exp(-x * x / (4 * sigma2 * scheme.n * d_n)), rel=1e-12)


def test_tail_bound_vacuous_at_zero():
    value, _ = _point(0.0, PARAMS, 0.3)
    assert value == pytest.approx(1.0)


def test_tail_bound_invalid_when_deviation_reaches_bound_scale():
    # x = n * eps with eps >= c makes the series ratio nonnegative
    scheme, c, _, _ = PARAMS
    _, violated = _point(scheme.n * c, PARAMS, 0.1)
    assert "series_ratio_contracting" in violated
    # t = 40/256 exceeds (d-1)/d / (c p) = 0.125, while 4t - 1 < 0 keeps the ratio contracting
    value, violated = _point(40.0, PARAMS, 0.1)
    assert violated == ("block_mgf_threshold",)
    assert 0.0 < value < math.inf


def test_tail_bound_nan_point_is_invalid():
    _, violated = _point(math.nan, PARAMS, 0.1)
    assert violated == ("block_mgf_threshold", "series_ratio_contracting", "nonnegative_deviation")


def test_tail_bound_full_hand_evaluation():
    x, v = 5.0, 0.2
    scheme, c, sigma2, d_n = PARAMS
    n, p = scheme.n, scheme.p_n
    t = x / (2 * sigma2 * n * d_n)
    r = n // (2 * p)
    gsum = sum(math.exp(j * t * p * (2 * t * sigma2 * d_n - c)) for j in range(r - 1))
    oracle = t * t * math.exp(t * c * n / 2 - t * x) * p * v * gsum + math.exp(-x * x / (4 * sigma2 * n * d_n))
    value, violated = _point(x, PARAMS, v)
    assert violated == ()
    assert value == pytest.approx(oracle, rel=1e-12)


def test_tail_bound_monotone_on_valid_grid():
    params = (block_scheme(4096, 97), 2.0, 4.0 / 3.0, 458.0)
    vals = []
    for x in np.linspace(0.0, 4000.0, 41):
        value, violated = _point(float(x), params, 1.0 / 3.0)
        assert violated == ()
        vals.append(value)
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_bound_evaluators_are_pure():
    assert _point(2.5, PARAMS, 0.1) == _point(2.5, PARAMS, 0.1)


# --- bounded-case schedule -------------------------------------------------


def test_slln_schedule_hand_epsilon():
    # epsilon_n = sqrt(4 sigma2 alpha d_n log n / n) collapses to
    # 4 alpha c n^(theta-1) log n; both routes must agree to 1e-12
    theta, alpha, s2, c, n = 0.55, 2.0, 1.0, 1.0, 2**10
    sched = slln_schedule(n, theta, alpha, s2, c)
    logn = math.log(n)
    d_hand = (4 * alpha * c * c / s2) * n ** (2 * theta - 1) * logn
    eps_sqrt = math.sqrt(4 * s2 * alpha * d_hand * logn / n)
    eps_closed = 4 * alpha * c * n ** (theta - 1) * logn
    assert sched.d_n == pytest.approx(d_hand, rel=1e-12)
    assert sched.epsilon_n == pytest.approx(eps_sqrt, rel=1e-12)
    assert sched.epsilon_n == pytest.approx(eps_closed, rel=1e-12)
    assert sched.p_n == math.floor(n**theta)


def test_slln_schedule_rate_ratio_bounded():
    # epsilon_n * n^(1-theta) / log n is constant (= 4 alpha c) over the grid
    theta, alpha, c = 0.55, 2.0, 1.0
    ratios = []
    for k in range(8, 21):
        sched = slln_schedule(2**k, theta, alpha, 1.0, c)
        ratios.append(sched.epsilon_n * (2**k) ** (1 - theta) / math.log(2**k))
    assert max(ratios) == pytest.approx(4 * alpha * c, rel=1e-12)
    assert min(ratios) == pytest.approx(4 * alpha * c, rel=1e-12)


def test_slln_schedule_admissibility_scan():
    grid = [2**k for k in range(8, 21)]
    for n in grid:
        sched = slln_schedule(n, 0.55, 1.5, 4.0 / 3.0, 2.0)
        assert named_inequalities(sched)["block_mgf_threshold"]
        # the constant pins t c p_n <= 1/2 <= d_n / 2
        assert sched.t * sched.bound_level * sched.p_n <= 0.5 + 1e-12


@given(st.integers(2, 2**30), st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
       st.floats(1.0, 10.0, exclude_min=True), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
@settings(max_examples=300)
def test_block_mgf_threshold_is_the_one_hypothesis(n, theta, alpha, sigma2, c):
    # where it holds, t c p_n <= (d_n - 1)/d_n < d_n / 2, for d/2 - (d - 1)/d = ((d - 1)^2 + 1)/(2d) > 0:
    # a clause t c p_n <= d_n / 2 beside it could never fail alone
    sched = slln_schedule(n, theta, alpha, sigma2, c)
    holds = named_inequalities(sched)["block_mgf_threshold"]
    if holds:
        assert sched.t * sched.bound_level * sched.p_n <= sched.d_n / 2.0
    # the tail kernel reads the same hypothesis: at x = n epsilon_n its t is the schedule's
    if 2 * sched.p_n <= n:
        _, kernel = _tail_bound_grid(n * sched.epsilon_n, block_scheme(n, sched.p_n), c, sigma2, sched.d_n, 0.1)
        assert bool(kernel["block_mgf_threshold"]) == holds


def test_slln_schedule_rejects_bad_theta():
    with pytest.raises(ValueError):
        slln_schedule(1024, 0.5, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        slln_schedule(1024, 1.2, 2.0, 1.0, 1.0)
    for alpha in (1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha must be finite and exceed 1"):
            slln_schedule(1024, 0.7, alpha, 1.0, 1.0)


# --- unbounded-case schedule -----------------------------------------------

COND = LaplaceCondition(tau=5.0, U=2.0)


def test_unbounded_schedule_hand_evaluation():
    theta, alpha, s2, n = 0.55, 1.5, 1.0, 2**12
    sched = unbounded_schedule(n, theta, alpha, s2, COND)
    logn = math.log(n)
    c_hand = logn
    p_hand = math.floor(n**theta)
    d_hand = (alpha / s2) * n ** (2 * theta - 1) * c_hand * c_hand * logn
    eps_hand = 4 * alpha * alpha * n ** (theta - 1) * c_hand * math.sqrt(logn)
    t_hand = alpha + 1 + 2 * (1 - theta)
    tail_hand = 2 * n * COND.U / (t_hand * t_hand * eps_hand * eps_hand) * math.exp(-t_hand * c_hand)
    assert sched.bound_level == pytest.approx(c_hand, rel=1e-12)
    assert sched.p_n == p_hand
    assert sched.d_n == pytest.approx(d_hand, rel=1e-12)
    assert sched.epsilon_n == pytest.approx(eps_hand, rel=1e-12)
    assert sched.t_markov == pytest.approx(t_hand, rel=1e-12)
    assert sched.tail_term == pytest.approx(tail_hand, rel=1e-12)


def test_unbounded_schedule_algebraic_identity():
    # epsilon_n n^(1-theta) / (log n)^(3/2) = 4 alpha^2 exactly for all n
    theta, alpha = 0.6, 1.2
    for k in (8, 12, 16, 20):
        n = 2**k
        sched = unbounded_schedule(n, theta, alpha, 1.0, COND)
        ratio = sched.epsilon_n * n ** (1 - theta) / math.log(n) ** 1.5
        assert ratio == pytest.approx(4 * alpha * alpha, rel=1e-12)


def test_unbounded_tail_term_power_fit():
    # log-log regression with a log log n regressor strips the slowly
    # varying factor; the recovered n-power is -alpha
    theta, alpha = 0.55, 1.5
    rows = []
    for k in range(8, 21):
        n = 2**k
        sched = unbounded_schedule(n, theta, alpha, 1.0, COND)
        rows.append((math.log(n), math.log(math.log(n)), math.log(sched.tail_term)))
    A = np.array([[1.0, x, y] for x, y, _ in rows])
    b = np.array([z for _, _, z in rows])
    coef, *_ = np.linalg.lstsq(A, b, rcond=None)
    assert coef[1] == pytest.approx(-alpha, abs=1e-9)
    assert coef[2] == pytest.approx(-3.0, abs=1e-6)


def test_unbounded_schedule_markov_exponent_needs_headroom():
    # the exponential-moment hypothesis itself needs tau > 3
    with pytest.raises(ValueError):
        LaplaceCondition(tau=3.0, U=1.0)
    # tau must exceed alpha + 1 + 2(1 - theta) = 4.4 here
    with pytest.raises(ValueError, match="markov_exponent_not_admissible"):
        unbounded_schedule(4096, 0.55, 2.5, 1.0, LaplaceCondition(tau=4.0, U=1.0))
    sched = unbounded_schedule(4096, 0.55, 1.8, 1.0, LaplaceCondition(tau=4.75, U=1.0))
    checks = named_inequalities(sched, LaplaceCondition(tau=4.75, U=1.0))
    assert checks["t_below_tau"]


def test_unbounded_schedule_named_inequalities_on_grid():
    alpha = 1.1
    for k in range(8, 21):
        sched = unbounded_schedule(2**k, 0.55, alpha, 1.0, COND)
        checks = named_inequalities(sched, COND)
        assert all(checks.values()), (k, checks)
