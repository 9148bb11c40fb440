"""weakdep: weakly dependent sequences, their dependence coefficients,
closed-form concentration bounds, and a seeded Monte Carlo verification
harness for the associated limit theorems.

The top level holds the documented surface: the names of the README's
library example and model JSON, and what the command-line tool and the
acceptance criteria call.  Everything else is in the submodules.
"""

__version__ = "0.1.0"

from .blocks import block_scheme, decompose
from .bounds import LaplaceCondition, named_inequalities, slln_schedule, tail_bound, unbounded_schedule
from .coefficients import gamma_sequence, long_run_variance
from .models import (
    IID,
    CumSumTransform,
    GaussBumpPlusX,
    Identity,
    ModelSpec,
    MovingAverage,
    NegExp,
    Rademacher,
    TruncatedGaussian,
    UniformOnInterval,
    almost_sure_bound,
    model_from_json,
    model_to_json,
    replicate_paths,
    sample_path,
)
from .verify import (
    BOUND_INVALID,
    DOMINATED,
    VIOLATED,
    MCConfig,
    PiecewiseLinear,
    VerificationReport,
    check_lipschitz_cov,
    check_newman,
    check_quasi_association_counterexample,
    check_tail_domination,
    clt_ks_distance,
    empirical_process_path,
    estimate_gamma_operator,
    fclt_increment_check,
    make_report,
    slln_rate_fit,
)
