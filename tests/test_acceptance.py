"""Acceptance suite: quantitative desk-scale checks, one test per criterion.

Each test prints a single [criterion k] PASS/FAIL line (run pytest with -s
to see them on success) and enforces the stated runtime budget.  All
randomness is driven by fixed seeds; reruns reproduce every number.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from weakdep import (
    IID,
    LaplaceCondition,
    MCConfig,
    MovingAverage,
    Rademacher,
    TruncatedGaussian,
    UniformOnInterval,
    block_scheme,
    check_lipschitz_cov,
    check_newman,
    check_quasi_association_counterexample,
    check_tail_domination,
    clt_ks_distance,
    decompose,
    empirical_process_path,
    estimate_gamma_operator,
    gamma_sequence,
    long_run_variance,
    named_inequalities,
    replicate_paths,
    sample_path,
    slln_rate_fit,
    slln_schedule,
    unbounded_schedule,
)
from weakdep.cli import random_cov_cases
from weakdep.models import _replicate_sums
from weakdep.verify import DOMINATED

U11 = UniformOnInterval(-1.0, 1.0)
LAWS = (U11, Rademacher(), TruncatedGaussian(1.5))


class Criterion:
    def __init__(self, number, label, budget_seconds):
        self.number = number
        self.label = label
        self.budget = budget_seconds
        self.start = time.perf_counter()

    def finish(self, ok, detail=""):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if ok and elapsed < self.budget else "FAIL"
        print(f"[criterion {self.number}] {status} {self.label} ({elapsed:.2f}s / {self.budget:.0f}s) {detail}")
        assert ok, f"criterion {self.number} failed: {detail}"
        assert elapsed < self.budget, f"criterion {self.number} over budget: {elapsed:.2f}s"


def test_criterion_1_decomposition_identity():
    crit = Criterion(1, "decomposition identity on 1000 random (model, n, p) triples", 5.0)
    rng = np.random.default_rng(1001)
    worst = 0.0
    for trial in range(1000):
        law = LAWS[int(rng.integers(0, len(LAWS)))]
        if rng.integers(0, 2):
            model = IID(law)
        else:
            p_ma = int(rng.integers(1, 5))
            model = MovingAverage(coeffs=tuple(rng.uniform(-2, 2, p_ma)), law=law)
        n = int(rng.integers(2, 1025))
        p_n = int(rng.integers(1, n // 2 + 1))
        path = sample_path(model, n, int(rng.integers(0, 2**31)))
        dec = decompose(path, block_scheme(n, p_n))
        err = abs(dec.z_odd + dec.z_even + dec.remainder - path.sum())
        worst = max(worst, err / (1e-12 * n))
        if err > 1e-12 * n:
            crit.finish(False, f"trial {trial}: error {err} exceeds 1e-12*n")
    crit.finish(True, f"worst error {worst:.3f} of allowance")


def test_criterion_2_coefficient_oracles():
    crit = Criterion(2, "coefficient closed forms vs independent oracles", 1.0)
    coeff_sets = [(1.0, 1.0), (1.0, -0.5, 1.0), (0.3, -0.7, 0.2, 0.9), (2.0,)]
    rel = 1e-12
    for coeffs in coeff_sets:
        for law in LAWS:
            model = MovingAverage(coeffs=coeffs, law=law)
            s2_xi = law.variance
            gamma = gamma_sequence(model)
            # oracle: absolute convolution by explicit double loop
            for k in range(1, len(coeffs) + 2):
                oracle = s2_xi * sum(
                    abs(coeffs[j] * coeffs[j + k]) for j in range(len(coeffs) - k) if j + k < len(coeffs)
                )
                got = gamma.gamma(k)
                if abs(got - oracle) > rel * max(1.0, abs(oracle)):
                    crit.finish(False, f"gamma_{k} mismatch for {coeffs}")
            # oracle: tail sums by direct summation
            gam_list = [gamma.gamma(k) for k in range(1, len(coeffs) + 4)]
            for n in range(1, len(coeffs) + 4):
                oracle = sum(gam_list[n - 1 :])
                if abs(gamma.tail_sum(n) - oracle) > rel * max(1.0, oracle):
                    crit.finish(False, f"v({n}) mismatch for {coeffs}")
            # oracle: long-run variance (sum alpha)^2 sigma_xi^2
            oracle_s2 = s2_xi * sum(coeffs) ** 2
            if abs(long_run_variance(model) - oracle_s2) > rel * oracle_s2:
                crit.finish(False, f"sigma2 mismatch for {coeffs}")
            # oracle: total dependence as plain sum
            oracle_d = sum(gam_list)
            if abs(gamma.total() - oracle_d) > rel * max(1.0, oracle_d):
                crit.finish(False, f"D mismatch for {coeffs}")
    crit.finish(True)


def test_criterion_3_tail_bound_domination():
    crit = Criterion(3, "tail bound dominates empirical odd-sum tails", 120.0)
    model = MovingAverage(coeffs=(1.0, 1.0), law=U11)
    n = 4096
    scheme = block_scheme(n, math.floor(n**0.55))
    cfg = MCConfig(replicates=100_000, seed=303)
    x_grid = [250.0 * k for k in range(17)]  # inside the validity region x/n < c
    reports = check_tail_domination(model, scheme, x_grid, cfg)
    bad = [r for r in reports if r.verdict != DOMINATED]
    crit.finish(
        not bad,
        f"{len(reports)} grid points, max estimate {max(r.estimate for r in reports):.4f}"
        + (f"; failing: {[r.param for r in bad]}" if bad else ""),
    )


def test_criterion_4_newman_inequality():
    crit = Criterion(4, "characteristic-function discrepancy bound", 120.0)
    cfg = MCConfig(replicates=100_000, seed=404)
    models = [
        MovingAverage(coeffs=(1.0, 1.0), law=U11),
        MovingAverage(coeffs=(1.0, -0.5, 1.0), law=U11),
    ]
    bad = []
    for model in models:
        for n in (4, 8):
            for rep in check_newman(model, n, [0.25, 0.5, 1.0], cfg):
                if rep.verdict != DOMINATED:
                    bad.append((model.coeffs, rep.param))
    crit.finish(not bad, f"12 cases over 2 models{'; failing: ' + str(bad) if bad else ''}")


def test_criterion_5_lipschitz_covariance_inequality():
    crit = Criterion(5, "covariance inequality on 50 randomized Lipschitz cases", 180.0)
    cfg = MCConfig(replicates=100_000, seed=505)
    n = 24
    models = [
        MovingAverage(coeffs=(1.0, 1.0), law=U11),
        MovingAverage(coeffs=(1.0, -0.5, 1.0), law=U11),
        MovingAverage(coeffs=(0.5, 1.0, -0.25, 0.75), law=TruncatedGaussian(1.5)),
    ]
    bad = []
    case_id = 0
    for m_idx, model in enumerate(models):
        paths = replicate_paths(model, n, cfg.replicates, cfg.seed)
        cases = random_cov_cases(model, n, 17 if m_idx < 2 else 16, seed=505 + m_idx)
        for f_spec, g_spec, I, J in cases:
            rep = check_lipschitz_cov(model, f_spec, g_spec, I, J, n, cfg, paths=paths)
            if rep.verdict != DOMINATED:
                bad.append((case_id, rep.param, rep.estimate, rep.bound))
            case_id += 1
    crit.finish(not bad, f"{case_id} cases{'; failing: ' + str(bad) if bad else ''}")


def test_criterion_6_clt_ks_distance():
    crit = Criterion(6, "KS distance of S_n/sqrt(n) to the Gaussian limit", 60.0)
    cfg = MCConfig(replicates=10_000, seed=606)
    n = 4096
    models = [
        ("iid rademacher", IID(Rademacher())),
        ("iid uniform", IID(U11)),
        ("ma(1,1) rademacher", MovingAverage(coeffs=(1.0, 1.0), law=Rademacher())),
    ]
    details = []
    ok = True
    for name, model in models:
        [rep] = clt_ks_distance(model, n, cfg)
        details.append(f"{name}: D={rep.estimate:.4f} thr={rep.bound:.4f}")
        ok = ok and rep.verdict == DOMINATED
        # P(S_n <= 0) near 1/2 on the same replicates
        sums = _replicate_sums(model, n, cfg.replicates, cfg.seed, [n - 1])[:, 0]
        ok = ok and abs(float(np.mean(sums <= 0.0)) - 0.5) <= 3 * math.sqrt(0.25 / cfg.replicates)
    crit.finish(ok, "; ".join(details))


def test_criterion_7_slln_rate_exponent():
    crit = Criterion(7, "strong-law quantile decay exponent in [-0.55, -0.45]", 180.0)
    cfg = MCConfig(replicates=10_000, seed=707)
    model = MovingAverage(coeffs=(1.0, 1.0), law=U11)
    [rep] = slln_rate_fit(model, [2**k for k in range(8, 17)], cfg)
    ok = -0.55 <= rep.estimate <= -0.45
    band = (rep.estimate - 2.0 * rep.se, rep.estimate + 2.0 * rep.se)
    crit.finish(ok, f"slope {rep.estimate:.4f}, band ({band[0]:.4f}, {band[1]:.4f})")


def test_criterion_8_quasi_association_counterexample():
    crit = Criterion(8, "quasi-association inequality fails at finite scale", 10.0)
    cfg = MCConfig(replicates=100, seed=808)
    [rep] = check_quasi_association_counterexample(
        [float(a) for a in range(1, 51)], 1.0, U11, cfg
    )
    found = rep.estimate
    # DOMINATED: a failing scale was found
    ok = rep.verdict == DOMINATED and 1.0 <= found <= 50.0
    if ok:
        # independent recomputation of both sides at the found scale by
        # quadrature over the shifted uniform density on [0, 2]
        def mom(a, power):
            val, _ = integrate.quad(lambda x: math.exp(-power * a * x) / 2.0, 0.0, 2.0)
            return val

        f_norm = math.exp((1.0 + 1.0) * 2.0)  # exp((alpha1_min + alpha2) width)
        lhs = found**2 * U11.variance
        rhs = f_norm**2 * mom(1.0, 1) * (mom(found, 2) - mom(found, 1) ** 2)
        ok = lhs > rhs
    crit.finish(ok, f"first violation at alpha1={found}")


def test_criterion_9_schedule_admissibility():
    crit = Criterion(9, "rate schedules satisfy their named inequalities", 1.0)
    c, sigma2 = 2.0, 4.0 / 3.0  # ma(1,1) with uniform innovations
    cond = LaplaceCondition(tau=5.0, U=2.0)
    theta, alpha_b, alpha_u = 0.55, 1.5, 1.1
    ok = True
    detail = []
    rows = []
    for k in range(8, 21):
        n = 2**k
        sb = slln_schedule(n, theta, alpha_b, sigma2, c)
        if not all(named_inequalities(sb).values()):
            ok = False
            detail.append(f"bounded schedule inadmissible at n=2^{k}")
        su = unbounded_schedule(n, theta, alpha_u, 1.0, cond)
        if not all(named_inequalities(su, cond).values()):
            ok = False
            detail.append(f"unbounded schedule inadmissible at n=2^{k}")
        rows.append((math.log(n), math.log(math.log(n)), math.log(su.tail_term)))
    # tail term is n^{-alpha} up to slowly varying factors: regress with a
    # log log n column to strip them, then compare the n-power
    A = np.array([[1.0, x, y] for x, y, _ in rows])
    b = np.array([z for _, _, z in rows])
    coef, *_ = np.linalg.lstsq(A, b, rcond=None)
    slope = float(coef[1])
    if abs(slope - (-alpha_u)) > 0.05:
        ok = False
        detail.append(f"tail-term power {slope:.4f} not within 0.05 of {-alpha_u}")
    crit.finish(ok, f"tail-term power {slope:.4f}; " + ("; ".join(detail) if detail else "all inequalities hold"))


def test_criterion_10_empirical_process():
    crit = Criterion(10, "empirical-process covariance operator, iid baseline", 60.0)
    cfg = MCConfig(replicates=10_000, seed=1010)
    model = IID(U11)
    est, se = estimate_gamma_operator(model, 0.3, 0.7, cfg)
    target = min(0.3, 0.7) - 0.3 * 0.7
    ok = abs(est - target) <= 3 * se
    path = empirical_process_path(model, 4096, [0.0, 0.25, 0.5, 0.75, 1.0], seed=1010)
    ok = ok and path[0] == 0.0 and path[-1] == 0.0
    crit.finish(ok, f"gamma(0.3,0.7)={est:.5f} (target {target}), se={se:.5f}")
