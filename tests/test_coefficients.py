import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakdep import (
    IID,
    CumSumTransform,
    Identity,
    MovingAverage,
    Rademacher,
    UniformOnInterval,
    gamma_sequence,
    long_run_variance,
)
from weakdep.coefficients import FiniteGamma, newman_discrepancy_bound

from oracles import analytic_covariance

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
    assert long_run_variance(MovingAverage(coeffs=(1.0, 1.0), law=Rademacher())) == pytest.approx(4.0)
    assert long_run_variance(IID(U11)) == pytest.approx(1.0 / 3.0)


def test_long_run_variance_degenerate_rejected():
    with pytest.raises(ValueError):
        long_run_variance(CumSumTransform(coeffs=(1.0,), transform=Identity(), law=U11))
    # each error names its case: a zero coefficient sum, or a positive sigma^2
    # that underflows or overflows (the law variance itself, for a tiny or huge interval)
    for coeffs, law, line in (
        ((1.0, -1.0), U11, "degenerate model: the coefficients sum to 0, so the long-run variance is 0"),
        ((1e-300,), U11, "long-run variance underflows: law variance 0.3333333333333333 times coefficient sum "
                         "1e-300 squared rounds to 0"),
        ((1.0,), UniformOnInterval(0.0, 1e-170), "long-run variance underflows: law variance 0.0 times "
                                                 "coefficient sum 1.0 squared rounds to 0"),
        ((1e155, 1e155), U11, "long-run variance overflows: law variance 0.3333333333333333 times coefficient "
                              "sum 2e+155 squared exceeds the largest float"),
        ((1.0,), UniformOnInterval(-1e308, 1e308), "long-run variance overflows: law variance inf times "
                                                   "coefficient sum 1.0 squared exceeds the largest float"),
        # fsum raises "intermediate overflow in fsum" once a partial sum leaves the float range
        ((1e308, 1e308), U11, "long-run variance overflows: a partial sum of the coefficients exceeds the largest "
                              "float"),
        ((1e308, 1e308, -1e308), U11, "long-run variance overflows: a partial sum of the coefficients exceeds the "
                                      "largest float"),
    ):
        with pytest.raises(ValueError) as caught:
            long_run_variance(MovingAverage(coeffs=coeffs, law=law))
        assert str(caught.value) == line
    # a small scale whose sigma^2 is still a positive float is a value, not an error
    assert long_run_variance(MovingAverage(coeffs=(1e-160,), law=U11)) > 0.0
    # the coefficient sum is exact, so no order of the same coefficients cancels to a degenerate model
    for coeffs in ((1.0, 1e-17, -1.0), (1e-17, 1.0, -1.0), (1.0, -1.0, 1e-17)):
        assert long_run_variance(MovingAverage(coeffs=coeffs, law=U11)) == 3.333333333333334e-35


def test_gamma_validation():
    with pytest.raises(ValueError):
        FiniteGamma(values=(-0.1,))
    with pytest.raises(ValueError):
        FiniteGamma(values=(1.0,)).gamma(0)
    with pytest.raises(ValueError):
        newman_discrepancy_bound(FiniteGamma(values=()), 1, 1.0)
