import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakdep import (
    IID,
    CumSumTransform,
    FiniteGamma,
    Identity,
    MovingAverage,
    Rademacher,
    UniformOnInterval,
    analytic_covariance,
    empirical_covariance,
    gamma_sequence,
    long_run_variance,
    newman_discrepancy_bound,
)

U11 = UniformOnInterval(-1.0, 1.0)


def brute_force_gamma(coeffs, sigma2_xi, k):
    """Independent oracle: absolute-coefficient convolution by double loop."""
    total = 0.0
    for j in range(len(coeffs)):
        jk = j + k
        if jk < len(coeffs):
            total += abs(coeffs[j] * coeffs[jk])
    return sigma2_xi * total


def test_gamma_iid_empty():
    g = gamma_sequence(IID(U11))
    assert g.values == ()
    assert g.gamma(1) == 0.0 and g.gamma(17) == 0.0


def test_gamma_ma_11():
    g = gamma_sequence(MovingAverage(coeffs=(1.0, 1.0), law=Rademacher()))
    assert g.values == pytest.approx((1.0,))
    assert g.gamma(2) == 0.0


def test_gamma_ma_unit_variance_example():
    g = gamma_sequence(MovingAverage(coeffs=(1.0, -0.5, 1.0), law=Rademacher()))
    assert g.gamma(1) == pytest.approx(1.0)  # |-0.5| + |-0.5|
    assert g.gamma(2) == pytest.approx(1.0)


@given(
    st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=4),
    st.integers(1, 6),
)
@settings(max_examples=100, deadline=None)
def test_gamma_matches_brute_force(coeffs, k):
    model = MovingAverage(coeffs=tuple(coeffs), law=U11)
    g = gamma_sequence(model)
    assert g.gamma(k) == pytest.approx(brute_force_gamma(coeffs, U11.variance, k), abs=1e-12)


def test_gamma_rejects_cumsum():
    with pytest.raises(ValueError):
        gamma_sequence(CumSumTransform(coeffs=(1.0,), transform=Identity(), law=U11))


def test_gamma_dominates_signed_covariance():
    model = MovingAverage(coeffs=(1.0, -0.5, 1.0, 0.25), law=U11)
    g = gamma_sequence(model)
    for k in range(1, 6):
        assert abs(analytic_covariance(model, k)) <= g.gamma(k) + 1e-15


def test_cox_grimmett_zero_and_finite():
    assert gamma_sequence(IID(U11)).tail_sum(1) == 0.0
    assert FiniteGamma(values=(1.0, 1.0)).tail_sum(2) == pytest.approx(1.0)
    # tail sum oracle by direct partial summation
    g = FiniteGamma(values=(0.4, 0.3, 0.2, 0.1))
    for n in range(1, 7):
        assert g.tail_sum(n) == pytest.approx(sum((0.4, 0.3, 0.2, 0.1)[n - 1 :]))


def test_cox_grimmett_monotone_and_total():
    g = FiniteGamma(values=(0.5, 0.25, 0.125))
    vals = [g.tail_sum(n) for n in range(1, 6)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[0] == pytest.approx(g.total())


def test_gamma_vanishes_beyond_ma_order():
    # v(n) = 0 for n >= p: geometric decay hypothesis holds exactly
    model = MovingAverage(coeffs=(1.0, -0.5, 1.0), law=U11)
    g = gamma_sequence(model)
    for n in (3, 4, 10):
        assert g.tail_sum(n) == 0.0


def test_total_dependence():
    assert FiniteGamma(values=()).total() == 0.0
    assert FiniteGamma(values=(1.0, 1.0)).total() == pytest.approx(2.0)


def test_newman_discrepancy_bound():
    assert newman_discrepancy_bound(gamma_sequence(IID(U11)), 5, 2.0) == 0.0
    # hand evaluation: 4 * 1 * (2*0.2 + 1*0.1) = 2.0
    assert newman_discrepancy_bound(FiniteGamma(values=(0.2, 0.1)), 3, 1.0) == pytest.approx(2.0)
    assert newman_discrepancy_bound(FiniteGamma(values=(0.2, 0.1)), 3, 0.0) == 0.0


def test_long_run_variance_analytic():
    assert long_run_variance(MovingAverage(coeffs=(1.0, 1.0), law=Rademacher())).sigma2 == pytest.approx(4.0)
    assert long_run_variance(IID(U11)).sigma2 == pytest.approx(1.0 / 3.0)


def test_long_run_variance_degenerate_rejected():
    with pytest.raises(ValueError):
        long_run_variance(MovingAverage(coeffs=(1.0, -1.0), law=U11))
    with pytest.raises(ValueError):
        long_run_variance(CumSumTransform(coeffs=(1.0,), transform=Identity(), law=U11))


def test_long_run_variance_monte_carlo_agrees():
    model = MovingAverage(coeffs=(1.0, 1.0), law=U11)
    est = long_run_variance(model, method="monte_carlo", n=512, replicates=2000, seed=3)
    assert est.method == "monte_carlo"
    assert est.standard_error is not None
    # E S_n^2 / n = sigma^2 + O(1/n); generous window
    assert est.sigma2 == pytest.approx(4.0 / 3.0, rel=0.15)


def test_empirical_covariance_iid_lag1_near_zero():
    est, se = empirical_covariance(IID(U11), lag=1, n=64, replicates=4000, seed=1)
    assert abs(est) <= 3 * se


def test_empirical_covariance_matches_sign_pattern():
    model = MovingAverage(coeffs=(1.0, -0.5, 1.0), law=Rademacher())
    est2, se2 = empirical_covariance(model, lag=2, n=64, replicates=6000, seed=2)
    assert abs(est2 - 1.0) <= 3 * se2
    est1, se1 = empirical_covariance(model, lag=1, n=64, replicates=6000, seed=2)
    assert abs(est1 - (-1.0)) <= 3 * se1


def test_empirical_covariance_preconditions():
    with pytest.raises(ValueError):
        empirical_covariance(IID(U11), lag=5, n=5, replicates=200)
    with pytest.raises(ValueError):
        empirical_covariance(
            CumSumTransform(coeffs=(1.0,) * 8, transform=Identity(), law=U11),
            lag=1,
            n=8,
            replicates=200,
        )


def test_gamma_validation():
    with pytest.raises(ValueError):
        FiniteGamma(values=(-0.1,))
    with pytest.raises(ValueError):
        FiniteGamma(values=(1.0,)).gamma(0)
    with pytest.raises(ValueError):
        newman_discrepancy_bound(FiniteGamma(values=()), 1, 1.0)
