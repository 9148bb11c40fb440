"""Closed-form oracles that only the tests read."""

from typing import Optional

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
