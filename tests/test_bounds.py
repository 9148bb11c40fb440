import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakdep import BoundParams, LaplaceCondition, named_inequalities, slln_schedule, tail_bound, unbounded_schedule
from weakdep.bounds import geometric_sum, truncated_second_moment_bound

PARAMS = BoundParams(c=1.0, sigma2=1.0, p_n=4, d_n=2.0, n=64)


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


# --- bound parameters ------------------------------------------------------


def test_bound_params_validation():
    with pytest.raises(ValueError):
        BoundParams(c=1.0, sigma2=1.0, p_n=4, d_n=1.0, n=64)  # d must exceed 1
    with pytest.raises(ValueError):
        BoundParams(c=1.0, sigma2=1.0, p_n=40, d_n=2.0, n=64)  # p > n/2
    with pytest.raises(ValueError):
        BoundParams(c=-1.0, sigma2=1.0, p_n=4, d_n=2.0, n=64)


# --- tail bound ------------------------------------------------------------


def test_tail_bound_gaussian_term_only():
    x = 3.0
    ev = tail_bound(x, PARAMS, 0.0)
    assert ev.value == pytest.approx(
        math.exp(-x * x / (4 * PARAMS.sigma2 * PARAMS.n * PARAMS.d_n)), rel=1e-12
    )


def test_tail_bound_vacuous_at_zero():
    ev = tail_bound(0.0, PARAMS, 0.3)
    assert ev.value == pytest.approx(1.0)


def test_tail_bound_invalid_when_deviation_reaches_bound_scale():
    # x = n * eps with eps >= c makes the series ratio nonnegative
    ev = tail_bound(PARAMS.n * PARAMS.c, PARAMS, 0.1)
    assert not ev.valid
    assert "series_ratio_not_contracting" in ev.violated_conditions
    # t = 40/256 exceeds (d-1)/d / (c p) = 0.125, while 4t - 1 < 0 keeps the ratio contracting
    ev = tail_bound(40.0, PARAMS, 0.1)
    assert ev.violated_conditions == ("t_exceeds_block_mgf_threshold",)
    assert 0.0 < ev.value < math.inf


def test_tail_bound_full_hand_evaluation():
    x, v = 5.0, 0.2
    t = x / (2 * PARAMS.sigma2 * PARAMS.n * PARAMS.d_n)
    r = PARAMS.n // (2 * PARAMS.p_n)
    gsum = sum(
        math.exp(j * t * PARAMS.p_n * (2 * t * PARAMS.sigma2 * PARAMS.d_n - PARAMS.c))
        for j in range(r - 1)
    )
    oracle = (
        t * t * math.exp(t * PARAMS.c * PARAMS.n / 2 - t * x) * PARAMS.p_n * v * gsum
        + math.exp(-x * x / (4 * PARAMS.sigma2 * PARAMS.n * PARAMS.d_n))
    )
    ev = tail_bound(x, PARAMS, v)
    assert ev.valid
    assert ev.value == pytest.approx(oracle, rel=1e-12)


def test_tail_bound_monotone_on_valid_grid():
    params = BoundParams(c=2.0, sigma2=4.0 / 3.0, p_n=97, d_n=458.0, n=4096)
    xs = np.linspace(0.0, 4000.0, 41)
    vals = []
    for x in xs:
        ev = tail_bound(float(x), params, 1.0 / 3.0)
        assert ev.valid
        vals.append(ev.value)
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_bound_evaluators_are_pure():
    a = tail_bound(2.5, PARAMS, 0.1)
    b = tail_bound(2.5, PARAMS, 0.1)
    assert a == b


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
    assert sched.rate_exponent == pytest.approx(1 - theta)


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
        checks = named_inequalities(sched)
        assert checks["block_mgf_threshold"] and checks["tcp_le_half_d"]
        # the constant pins t c p_n <= 1/2 <= d_n / 2
        assert sched.t * sched.bound_level * sched.p_n <= 0.5 + 1e-12


def test_slln_schedule_rejects_bad_theta():
    with pytest.raises(ValueError):
        slln_schedule(1024, 0.5, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        slln_schedule(1024, 1.2, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        slln_schedule(1024, 0.7, 1.0, 1.0, 1.0)


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
    assert sched.c_n == pytest.approx(c_hand, rel=1e-12)
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


# --- truncated second moment -----------------------------------------------


def test_truncated_second_moment_hand_value():
    # (2 * 1 / 4) e^{-2 log 100} = 0.5 * 1e-4
    cond = LaplaceCondition(tau=4.0, U=1.0)
    val = truncated_second_moment_bound(2.0, math.log(100.0), cond)
    assert val == pytest.approx(5e-5, rel=1e-12)


def test_truncated_second_moment_limits_and_linearity():
    cond1 = LaplaceCondition(tau=4.0, U=1.0)
    cond2 = LaplaceCondition(tau=4.0, U=2.0)
    assert truncated_second_moment_bound(1.5, 500.0, cond1) < 1e-300
    a = truncated_second_moment_bound(1.5, 3.0, cond1)
    b = truncated_second_moment_bound(1.5, 3.0, cond2)
    assert b == pytest.approx(2 * a, rel=1e-12)
    with pytest.raises(ValueError):
        truncated_second_moment_bound(5.0, 3.0, cond1)
    with pytest.raises(ValueError):
        truncated_second_moment_bound(0.0, 3.0, cond1)
    with pytest.raises(ValueError):
        LaplaceCondition(tau=3.0, U=1.0)
