import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ndtr
from scipy.stats import beta, kstest

from weakdep import (
    IID,
    CumSumTransform,
    Identity,
    MCConfig,
    MovingAverage,
    PiecewiseLinear,
    Rademacher,
    UniformOnInterval,
    block_scheme,
    check_lipschitz_cov,
    check_newman,
    check_quasi_association_counterexample,
    check_tail_domination,
    clt_ks_distance,
    empirical_process_path,
    estimate_gamma_operator,
    fclt_increment_check,
    make_report,
    model_to_json,
    replicate_paths,
    sample_path,
    slln_rate_fit,
)
from weakdep.cli import CHECKS, random_cov_cases, run
from weakdep.verify import (BOUND_INVALID, DOMINATED, VIOLATED, _binomial_lower, _cov_se, _index_set_sums,
                            _ks_distance, _lipschitz_cov_rows, _ndtr, _phases, marginal_transform)

import oracles

U11 = UniformOnInterval(-1.0, 1.0)
MA11_U = MovingAverage(coeffs=(1.0, 1.0), law=U11)
MA11_R = MovingAverage(coeffs=(1.0, 1.0), law=Rademacher())
MA3_U = MovingAverage(coeffs=(1.0, -0.5, 1.0), law=U11)
IDENTITY_PL = PiecewiseLinear(breakpoints=(), slopes=(1.0,))


def test_mcconfig_validation():
    with pytest.raises(ValueError):
        MCConfig(replicates=50)
    with pytest.raises(ValueError):
        MCConfig(seed=-1)


# --- report rows -------------------------------------------------------------

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@given(
    values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
    bad=NON_FINITE,
    slot=st.integers(0, 2),
    ok=st.booleans(),
    valid=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_make_report_non_finite_never_dominated(values, bad, slot, ok, valid):
    values[slot] = bad
    estimate, se, bound = values
    rep = make_report("demo", "p", estimate, se, bound, ok, MCConfig(replicates=100, seed=3), valid=valid)
    assert rep.verdict == (VIOLATED if valid else BOUND_INVALID)
    assert (rep.seed, rep.replicates, rep.valid) == (3, 100, valid)


def test_make_report_verdicts():
    cfg = MCConfig(replicates=100, seed=0)
    assert make_report("demo", "p", 1.0, 0.1, 2.0, True, cfg).verdict == DOMINATED
    assert make_report("demo", "p", 1.0, 0.1, 2.0, False, cfg).verdict == VIOLATED
    assert make_report("demo", "p", 1.0, 0.1, 2.0, True, cfg, valid=False).verdict == BOUND_INVALID


# --- piecewise-linear functions --------------------------------------------


def test_piecewise_linear_pointwise_oracle():
    f = PiecewiseLinear(breakpoints=(-1.0, 0.5, 2.0), slopes=(2.0, -1.0, 0.5, 3.0))

    def oracle(x):
        # midpoint rule on a grid refined at the breakpoints is exact for a
        # piecewise-constant integrand
        bp = np.array(f.breakpoints)
        inner = bp[(bp > min(0.0, x)) & (bp < max(0.0, x))]
        grid = np.sort(np.concatenate([np.linspace(0.0, x, 1001), inner, inner]))
        if x < 0:
            grid = grid[::-1]
        seg = np.searchsorted(bp, (grid[:-1] + grid[1:]) / 2, side="right")
        return float(np.sum(np.array(f.slopes)[seg] * np.diff(grid)))

    for x in (-2.5, -1.0, -0.3, 0.0, 0.5, 1.7, 2.0, 4.0):
        assert f(x) == pytest.approx(oracle(x), abs=1e-9)
    assert f(0.0) == 0.0
    assert f.lipschitz_norm == 3.0


def test_piecewise_linear_validation():
    with pytest.raises(ValueError):
        PiecewiseLinear(breakpoints=(1.0,), slopes=(1.0,))
    with pytest.raises(ValueError):
        PiecewiseLinear(breakpoints=(1.0, 1.0), slopes=(1.0, 2.0, 3.0))


# --- covariance inequality --------------------------------------------------


def test_lipschitz_cov_iid_zero_bound_dominated():
    cfg = MCConfig(replicates=5000, seed=4)
    rep = check_lipschitz_cov(IID(U11), IDENTITY_PL, IDENTITY_PL, [1, 3], [2, 5], 8, cfg)
    assert rep.bound == 0.0
    assert rep.verdict == DOMINATED


def test_lipschitz_cov_identity_adjacent_ma():
    # |Cov(X_1, X_2)| is about 1 for unit-variance innovations, gamma_1 = 1
    cfg = MCConfig(replicates=20_000, seed=5)
    rep = check_lipschitz_cov(MA11_R, IDENTITY_PL, IDENTITY_PL, [1], [2], 4, cfg)
    assert rep.bound == pytest.approx(1.0)
    assert abs(rep.estimate - 1.0) <= 4 * rep.se
    assert rep.verdict == DOMINATED


def test_lipschitz_cov_rejects_overlap_and_bad_indices():
    cfg = MCConfig(replicates=100, seed=0)
    with pytest.raises(ValueError):
        check_lipschitz_cov(MA11_U, IDENTITY_PL, IDENTITY_PL, [1, 2], [2, 3], 8, cfg)
    with pytest.raises(ValueError):
        check_lipschitz_cov(MA11_U, IDENTITY_PL, IDENTITY_PL, [0], [2], 8, cfg)
    with pytest.raises(ValueError):
        check_lipschitz_cov(MA11_U, IDENTITY_PL, IDENTITY_PL, [1], [9], 8, cfg)


def test_lipschitz_cov_rejects_mismatched_shared_paths():
    # a 100-row matrix must not be reported as 1000 replicates
    cfg = MCConfig(replicates=1000, seed=0)
    paths = replicate_paths(MA11_U, 8, 100, 0)
    with pytest.raises(ValueError):
        check_lipschitz_cov(MA11_U, IDENTITY_PL, IDENTITY_PL, [1], [2], 8, cfg, paths=paths)
    with pytest.raises(ValueError):
        check_lipschitz_cov(MA11_U, IDENTITY_PL, IDENTITY_PL, [1], [2], 6, MCConfig(replicates=100), paths=paths)
    shared = check_lipschitz_cov(MA11_U, IDENTITY_PL, IDENTITY_PL, [1], [2], 8, MCConfig(replicates=100), paths=paths)
    assert shared == check_lipschitz_cov(MA11_U, IDENTITY_PL, IDENTITY_PL, [1], [2], 8, MCConfig(replicates=100))


def test_cov_runner_checks_every_case_before_it_draws(monkeypatch):
    # the second case's index sets overlap: the runner raises before any path is drawn,
    # and on a cumulative-sum model the index-set error still comes before the model's
    def no_draw(*args):
        raise AssertionError("a path was drawn before the cases were checked")

    monkeypatch.setattr("weakdep.models._paths", no_draw)
    cfg = MCConfig(replicates=100, seed=0)
    cases = [(IDENTITY_PL, IDENTITY_PL, [1], [2]), (IDENTITY_PL, IDENTITY_PL, [3, 4], [4])]
    with pytest.raises(ValueError, match="index sets must be disjoint"):
        _lipschitz_cov_rows(MA11_U, cases, 8, cfg)
    cumsum = CumSumTransform(coeffs=(1.0, 1.0), transform=Identity(), law=U11)
    with pytest.raises(ValueError, match="index sets must be disjoint"):
        check_lipschitz_cov(cumsum, IDENTITY_PL, IDENTITY_PL, [1, 2], [2, 3], 8, cfg)
    with pytest.raises(ValueError, match="cumulative-sum models are nonstationary"):
        check_lipschitz_cov(cumsum, IDENTITY_PL, IDENTITY_PL, [1], [2], 8, cfg)


def test_cov_nan_in_shared_paths_is_violated():
    # a NaN in a caller's matrix makes f and g non-finite: the row fails closed, it is not refused
    cfg = MCConfig(replicates=100, seed=0)
    paths = replicate_paths(MA11_U, 8, 100, 0)
    paths[17, 0] = np.nan
    rep = check_lipschitz_cov(MA11_U, IDENTITY_PL, IDENTITY_PL, [1], [2], 8, cfg, paths=paths)
    assert math.isnan(rep.estimate) and rep.verdict == VIOLATED


def test_lipschitz_cov_deterministic():
    cfg = MCConfig(replicates=500, seed=11)
    f = PiecewiseLinear(breakpoints=(0.0,), slopes=(0.5, -1.5))
    a = check_lipschitz_cov(MA11_U, f, IDENTITY_PL, [1], [3, 4], 8, cfg)
    b = check_lipschitz_cov(MA11_U, f, IDENTITY_PL, [1], [3, 4], 8, cfg)
    assert a == b


@pytest.mark.parametrize("given_out", [False, True])
def test_cov_se_only_reads_its_inputs(given_out):
    # fclt passes column views of its increment matrix: centring b in place changed the
    # later rows of its report; the result has the bits of the whole-array expressions
    incs = np.random.default_rng(5).normal(size=(2001, 3))
    before = incs.tobytes()
    a, b = incs[:, 0], incs[:, 2]
    cov, se = _cov_se(a, b, np.empty(len(a)) if given_out else None)
    assert incs.tobytes() == before
    am, bm = a.mean(), b.mean()
    expected = float(np.mean(a * b) - am * bm)
    infl = (a - am) * (b - bm) - expected
    assert (cov, se) == (expected, float(infl.std(ddof=1) / math.sqrt(len(a))))


@pytest.mark.parametrize("slice_rows", [7, 1000, 2001])
def test_cov_row_slices_give_whole_array_bits(slice_rows, monkeypatch):
    # the index-set sums and f, g of them are formed a row slice at a time, the last one
    # short: the report has the bits of the whole-array expressions
    cfg = MCConfig(replicates=2001, seed=3)
    f = PiecewiseLinear(breakpoints=(-0.5, 0.5), slopes=(1.0, -2.0, 0.5))
    g = PiecewiseLinear(breakpoints=(0.0,), slopes=(0.5, -1.5))
    x = replicate_paths(MA3_U, 8, cfg.replicates, cfg.seed)
    cov, se = _cov_se(f(x[:, [1, 2]].sum(axis=1)), g(x[:, [4]].sum(axis=1)))
    monkeypatch.setattr("weakdep.verify._COV_SLICE_ROWS", slice_rows)
    rep = check_lipschitz_cov(MA3_U, f, g, [2, 3], [5], 8, cfg, paths=x)
    assert (rep.estimate, rep.se) == (abs(cov), se)


def test_cov_one_row_last_slice_gives_whole_array_bits():
    # 12,501 replicates leave one row for the last slice, and numpy sums a one-row gather of 8
    # or more columns pairwise, while it sums the rows of the whole matrix sequentially: the
    # estimate read 0.0724254278275676 against the whole-array 0.07242542782756758
    cfg = MCConfig(replicates=12_501, seed=53)
    f = PiecewiseLinear(breakpoints=(0.1,), slopes=(1.0, -0.7))
    g = PiecewiseLinear(breakpoints=(), slopes=(1.3,))
    I, J = list(range(1, 13)), list(range(14, 25))
    x = replicate_paths(MA3_U, 24, cfg.replicates, cfg.seed)
    cov, se = _cov_se(f(x[:, np.asarray(I) - 1].sum(axis=1)), g(x[:, np.asarray(J) - 1].sum(axis=1)))
    rep = check_lipschitz_cov(MA3_U, f, g, I, J, 24, cfg)
    assert (rep.estimate, rep.se) == (abs(cov), se)
    assert rep.estimate == 0.07242542782756758


@pytest.mark.parametrize("rows", [7, 1000, 12_500])
def test_index_set_sums_are_the_fancy_index_sums(rows):
    # a column copy plus column adds in index order: the bits of numpy's sum of the gathered
    # (rows, k) block, which is sequential along its short axis for two rows or more
    rng = np.random.default_rng(rows)
    x = rng.normal(size=(rows + 5, 24)) * 10.0 ** rng.uniform(-6, 6, size=(rows + 5, 24))
    block = x[3 : 3 + rows]
    for k in range(1, 25):
        cols = sorted(int(c) for c in rng.permutation(24)[:k])
        expected = block[:, cols].sum(axis=1)
        assert _index_set_sums(block, cols).tobytes() == expected.tobytes(), k


@pytest.mark.parametrize("breakpoints", [(), (0.3,), (-0.5, 0.5), (-1.0, 0.0, 2.5), (-2.0, -1.0, 0.25, 1.5)])
def test_piecewise_linear_matches_searchsorted_reference(breakpoints):
    # breakpoint counts give the segment and the knot: every value, at each breakpoint, its
    # float neighbours, at +-inf and NaN, has the bits of the searchsorted evaluation
    rng = np.random.default_rng(len(breakpoints))
    slopes = tuple(rng.choice([-1.0, 1.0], len(breakpoints) + 1) * rng.uniform(0.1, 2.0, len(breakpoints) + 1))
    f = PiecewiseLinear(breakpoints=breakpoints, slopes=slopes)
    bp = np.asarray(breakpoints)
    x = np.concatenate([rng.uniform(-4.0, 4.0, 10_000), bp, np.nextafter(bp, -np.inf), np.nextafter(bp, np.inf),
                        [0.0, -0.0, np.inf, -np.inf, np.nan]])
    got, expected = f(x), oracles.piecewise_linear(f, x)
    nan = np.isnan(expected)
    assert nan.sum() == 1 and np.isnan(got[nan]).all()
    assert got[~nan].tobytes() == expected[~nan].tobytes()
    for b in breakpoints:
        assert f(b) == float(oracles.piecewise_linear(f, b))


@pytest.mark.parametrize("t", [0.0, 0.25, -0.25, 1.0, 3.0, 1e3])
def test_phases_are_the_complex_exp_bits(t):
    # real cos and sin of the product's imaginary part, written into the views of a row block
    # of a bigger buffer, give np.exp(np.multiply(1j * t, x)) bit for bit, signed zeros included
    rng = np.random.default_rng(7)
    x = rng.choice([-1.0, 1.0], 1_000_000) * 10.0 ** rng.uniform(-3.0, 300.0, 1_000_000)
    x[:7] = (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0)
    x = x.reshape(-1, 8)
    out = np.empty((len(x) + 3, 8), dtype=complex)[3:]
    expected = np.exp(np.multiply(1j * t, x))
    assert _phases(t, x, out) is out
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("model", [MA11_U, MA3_U])
@pytest.mark.parametrize("cases", [1, 2, 3, 10])
@pytest.mark.parametrize("replicates", [101, 2001])
def test_cov_threaded_rows_equal_serial(model, cases, replicates, monkeypatch):
    # the cases in two contiguous runs (one case starts no pool, an odd count splits
    # unevenly) give the rows of the library's check, one case after another
    cfg = MCConfig(replicates=replicates, seed=3)
    rows = {}
    for workers in (1, 2):
        monkeypatch.setattr("weakdep.models._WORKERS", workers)
        rows[workers] = CHECKS["cov"](model, cfg, cases=cases)
    paths = replicate_paths(model, 24, replicates, cfg.seed)
    serial = [check_lipschitz_cov(model, *case, 24, cfg, paths=paths)
              for case in random_cov_cases(model, 24, cases, cfg.seed)]
    assert rows[1] == rows[2] == serial


def test_cov_rows_on_three_threads(monkeypatch):
    # three runs of cases, each pool thread with its own case buffers: the rows of one thread;
    # the pool threads meet once their first case's f and g values are written, so buffers
    # they shared would hold one case for both
    cfg = MCConfig(replicates=2001, seed=3)
    caller, met, barrier = threading.current_thread(), set(), threading.Barrier(2)

    def meet_then_cov_se(*args):
        if threading.current_thread() not in met | {caller}:
            met.add(threading.current_thread())
            barrier.wait(timeout=30)
        return _cov_se(*args)

    monkeypatch.setattr("weakdep.verify._cov_se", meet_then_cov_se)
    rows = {}
    for workers in (1, 3):
        monkeypatch.setattr("weakdep.models._WORKERS", workers)
        rows[workers] = CHECKS["cov"](MA3_U, cfg, cases=10)
    assert rows[3] == rows[1]


def test_cov_peak_memory_on_two_threads(monkeypatch):
    # each thread checks its cases in three length-R buffers allocated by the caller, a row
    # slice at a time: 1.34 times the path matrix for the serial check, 1.67 for whole cases
    # with fresh temporaries on two threads, 1.40 now
    monkeypatch.setattr("weakdep.models._WORKERS", 2)
    cfg = MCConfig(replicates=50_000, seed=0)
    paths = replicate_paths(MA3_U, 24, cfg.replicates, cfg.seed)
    CHECKS["cov"](MA3_U, cfg)  # imports and caches are not the check's
    tracemalloc.start()
    try:
        CHECKS["cov"](MA3_U, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * paths.nbytes, peak / paths.nbytes


# --- tail domination ---------------------------------------------------------


def test_tail_domination_small_scale():
    cfg = MCConfig(replicates=2000, seed=6)
    scheme = block_scheme(256, 21)
    reports = check_tail_domination(MA11_U, scheme, [0.0, 50.0, 100.0, 400.0], cfg)
    assert len(reports) == 4
    assert all(r.verdict == DOMINATED for r in reports)
    assert all(r.valid for r in reports)
    # x beyond the largest possible odd-block sum: empirical mass is zero
    assert reports[-1].estimate == 0.0
    # deviations at the scale x/n >= c invalidate the series-control condition
    beyond = check_tail_domination(MA11_U, scheme, [600.0], cfg)[0]
    assert beyond.verdict == "BOUND_INVALID" and not beyond.valid


def test_tail_domination_rejects_unbounded():
    cfg = MCConfig(replicates=200, seed=0)
    model = CumSumTransform(coeffs=(1.0,) * 300, transform=Identity(), law=U11)
    with pytest.raises(ValueError):
        check_tail_domination(model, block_scheme(256, 16), [1.0], cfg)


def test_tail_domination_seed_independent_verdicts():
    scheme = block_scheme(256, 21)
    verdicts = set()
    for seed in (1, 2, 3, 4, 5):
        cfg = MCConfig(replicates=1000, seed=seed)
        reports = check_tail_domination(MA11_U, scheme, [0.0, 100.0], cfg)
        verdicts.add(tuple(r.verdict for r in reports))
    assert verdicts == {(DOMINATED, DOMINATED)}


def test_theorem_soundness_verdicts_agree_across_seeds():
    f = PiecewiseLinear(breakpoints=(-0.5, 0.5), slopes=(1.0, -2.0, 0.5))
    for seed in (11, 22, 33, 44, 55):
        cfg = MCConfig(replicates=4000, seed=seed)
        newman = check_newman(MA11_U, 6, [0.5, 1.0], cfg)
        assert all(r.verdict == DOMINATED for r in newman)
        cov = check_lipschitz_cov(MA11_U, f, IDENTITY_PL, [2, 3], [4], 8, cfg)
        assert cov.verdict == DOMINATED


# --- characteristic-function inequality ---------------------------------------


def test_newman_iid_bound_zero_dominated():
    cfg = MCConfig(replicates=20_000, seed=7)
    reports = check_newman(IID(U11), 6, [0.5], cfg)
    assert reports[0].bound == 0.0
    assert reports[0].verdict == DOMINATED


def test_newman_t_zero_exact():
    cfg = MCConfig(replicates=200, seed=8)
    rep = check_newman(MA11_U, 4, [0.0], cfg)[0]
    assert rep.estimate == 0.0 and rep.bound == 0.0 and rep.verdict == DOMINATED


def test_newman_ma_dominated():
    cfg = MCConfig(replicates=20_000, seed=9)
    for rep in check_newman(MA11_U, 8, [0.25, 0.5, 1.0], cfg):
        assert rep.verdict == DOMINATED
        assert rep.bound > 0


def test_newman_rejects_large_n():
    with pytest.raises(ValueError):
        check_newman(MA11_U, 17, [0.5], MCConfig(replicates=100, seed=0))


@pytest.mark.parametrize("model, n", [(MA11_U, 8), (MovingAverage(coeffs=(1.0, -0.5, 1.0), law=U11), 16)])
@pytest.mark.parametrize("replicates", [101, 2001])
def test_newman_threaded_rows_equal_serial(model, n, replicates, monkeypatch):
    # the phase kernel over two uneven row blocks on two threads gives the rows of one serial pass
    cfg = MCConfig(replicates=replicates, seed=3)
    rows = {}
    for workers in (1, 2):
        monkeypatch.setattr("weakdep.models._WORKERS", workers)
        rows[workers] = check_newman(model, n, [0.0, 0.25, 1.0, 3.0], cfg)
    assert rows[1] == rows[2]


def test_newman_peak_memory_one_phase_buffer():
    # the phases of every t share one complex buffer of twice the path matrix's bytes;
    # a fresh exp(1j t x) and phases / marg_means per t held 8.0 times the path matrix
    cfg = MCConfig(replicates=50_000, seed=0)
    paths = replicate_paths(MA11_U, 8, cfg.replicates, cfg.seed)
    tracemalloc.start()
    try:
        check_newman(MA11_U, 8, (0.25, 0.5, 1.0), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * paths.nbytes, peak / paths.nbytes


# --- quasi-association counterexample ----------------------------------------


def test_quasi_counterexample_finds_violation_at_ten():
    cfg = MCConfig(replicates=100, seed=0)
    [rep] = check_quasi_association_counterexample(range(1, 51), 1.0, U11, cfg)
    assert (rep.check, rep.param, rep.estimate, rep.se, rep.bound) == ("quasi", "alpha2=1", 10.0, 0.0, 50.0)
    # the L-weak bound holds at every scale, or the row would not pass
    assert rep.verdict == DOMINATED


def test_quasi_rows_match_quadrature_oracle():
    # oracle: moments of exp(-a xi~) for xi~ uniform on [0, 2] by quadrature,
    # with alpha2 = 1 and ||f|| = exp((1 + 1) 2) frozen at the scale 1
    def mom(a, power):
        val, _ = integrate.quad(lambda x: math.exp(-power * a * x) / 2.0, 0.0, 2.0)
        return val

    f_norm = math.exp((1.0 + 1.0) * 2.0)

    def sides(a1):
        return a1 * a1 / 3.0, f_norm**2 * mom(1.0, 1) * (mom(a1, 2) - mom(a1, 1) ** 2)

    # the inequality lhs <= rhs holds up to 9 (27.0 vs 31.8) and fails at 10 (33.3 vs 29.0)
    assert all(lhs <= rhs for lhs, rhs in map(sides, range(1, 10)))
    lhs, rhs = sides(10)
    assert lhs > rhs
    cfg = MCConfig(replicates=100, seed=0)
    [rep] = check_quasi_association_counterexample(range(1, 51), 1.0, U11, cfg)
    assert rep.estimate == 10.0
    # a grid that stops short of the crossing finds no scale
    [miss] = check_quasi_association_counterexample([2.0, 9.0], 1.0, U11, cfg)
    assert miss.verdict == VIOLATED and math.isnan(miss.estimate)


def test_binomial_lower_limit():
    # no count: 0; one count: the exact Clopper-Pearson limit, the Beta(1, N)
    # quantile 1 - (1 - q)^(1/N); ten or more: the Wald limit
    total, mult = 2500, 3.0
    assert _binomial_lower(0, total, mult) == 0.0
    q = 0.5 * math.erfc(mult / math.sqrt(2.0))
    assert _binomial_lower(1, total, mult) == pytest.approx(1.0 - (1.0 - q) ** (1.0 / total), rel=1e-12)
    p = 10 / total
    assert _binomial_lower(10, total, mult) == p - mult * math.sqrt(p * (1.0 - p) / total)
    # below ten counts the limit is the Beta(k, N - k + 1) quantile, bit for bit scipy.stats' beta.ppf
    for total in (100, 2500, 20000, 100000):
        for mult in (1.0, 2.0, 2.5, 3.0):
            for count in range(1, 10):
                expected = float(beta.ppf(1.0 - ndtr(mult), count, total - count + 1))
                assert _binomial_lower(count, total, mult) == expected, (count, total, mult)


def test_quasi_rejects_nonfinite_scales():
    cfg = MCConfig(replicates=100, seed=0)
    for grid, alpha2 in (([1.0], math.inf), ([1.0], math.nan), ([1.0, math.inf], 1.0), ([0.0, 1.0], 1.0)):
        with pytest.raises(ValueError):
            check_quasi_association_counterexample(grid, alpha2, U11, cfg)


def test_quasi_rejects_nonuniform_law():
    with pytest.raises(ValueError):
        check_quasi_association_counterexample([1.0], 1.0, Rademacher(), MCConfig(replicates=100, seed=0))


# --- strong-law rate fit ------------------------------------------------------


def test_slln_rate_fit_rejects_repeated_grid_point(tmp_path, capsys):
    # a repeated point is no independent observation: it would shrink the slope SE
    with pytest.raises(ValueError, match="64 repeated"):
        slln_rate_fit(MA11_U, [64, 64, 64, 128, 256, 512], MCConfig(replicates=500, seed=0))
    model = tmp_path / "ma11.json"
    model.write_text(model_to_json(MA11_U))
    argv = ["verify", "--check", "slln", "--model", str(model), "--replicates", "500", "--n-grid", "64,128,64,256"]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", "error: --n-grid points must be distinct: 64 repeated\n")


def test_slln_rate_fit_iid_slope_near_half():
    cfg = MCConfig(replicates=3000, seed=10)
    [rep] = slln_rate_fit(IID(U11), [2**k for k in range(6, 12)], cfg)
    assert -0.6 <= rep.estimate <= -0.4
    assert rep.se > 0.0
    assert (rep.check, rep.param, rep.bound) == ("slln", "q=0.99", -0.45)


def test_slln_rate_fit_zero_model_rejected():
    cfg = MCConfig(replicates=200, seed=0)
    with pytest.raises(ValueError):
        slln_rate_fit(MovingAverage(coeffs=(1.0, -1.0), law=U11), [64, 128, 256], cfg)


# --- central limit theorem ----------------------------------------------------


def test_clt_ks_distance_iid_rademacher():
    cfg = MCConfig(replicates=2000, seed=12)
    [rep] = clt_ks_distance(IID(Rademacher()), 1024, cfg)
    assert rep.verdict == DOMINATED
    assert rep.estimate <= rep.bound
    sums = replicate_paths(IID(Rademacher()), 1024, cfg.replicates, cfg.seed).sum(axis=1)
    assert abs(float(np.mean(sums <= 0.0)) - 0.5) <= 3 * math.sqrt(0.25 / cfg.replicates)


@st.composite
def ks_samples(draw):
    """A scaled normal sample of 1 to 5,000 values, maybe rounded to a lattice
    (ties) and with some values set to +-inf or one to NaN; or a short list of
    arbitrary finite floats."""
    if draw(st.booleans()):
        return np.array(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40)))
    n = draw(st.integers(1, 5_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(n) * 10.0 ** draw(st.floats(-4.0, 4.0))
    step = draw(st.sampled_from([None, 1e-3, 0.5, 10.0]))
    if step is not None:
        x = np.round(x / step) * step
    for value in draw(st.lists(st.sampled_from([np.inf, -np.inf]), max_size=3)):
        x[rng.integers(n)] = value
    if draw(st.integers(0, 9)) == 0:
        x[rng.integers(n)] = np.nan
    return x


@given(x=ks_samples(), log_sigma=st.floats(-3.0, 3.0))
@settings(max_examples=300, deadline=None)
def test_ks_distance_is_scipys_kstest_statistic(x, log_sigma):
    sigma = 10.0 ** log_sigma
    with np.errstate(over="ignore"):  # a huge value over a small sigma is inf on both sides
        ours = _ks_distance(_ndtr(np.sort(x) / sigma))
        theirs = float(kstest(x, "norm", args=(0.0, sigma)).statistic)
    if np.isnan(x).any():
        # a NaN sample has no distance, and its clt row fails closed
        assert math.isnan(ours) and math.isnan(theirs)
        assert make_report("clt", "n=1", ours, 0.0, 1.0, ours <= 1.0, MCConfig()).verdict != DOMINATED
    else:
        assert np.float64(ours).tobytes() == np.float64(theirs).tobytes(), (ours, theirs)


def test_ndtr_port_has_scipys_bits():
    # draws, the float neighbours of |a| = sqrt 2, 8 sqrt 2 and sqrt(2 MAXLOG), where the
    # branch changes, dense draws just past each, and the special values; no lane warns
    rng = np.random.default_rng(32)
    edges = np.sqrt(2.0 * np.array([1.0, 64.0, math.log(sys.float_info.max)]))
    neighbours = (edges.view(np.int64)[:, None] + np.arange(-200, 201)).view(np.float64).ravel()
    past = (edges[:, None] * (1.0 + rng.uniform(0.0, 1e-6, (3, 20_000)))).ravel()
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324])
    a = np.concatenate([rng.standard_normal(1_000_000), rng.uniform(-45.0, 45.0, 1_000_000),
                        neighbours, -neighbours, past, -past, special])
    assert np.array_equal(_ndtr(a).view(np.uint64), ndtr(a).view(np.uint64))


def test_clt_rejects_nonstationary():
    model = CumSumTransform(coeffs=(1.0,) * 64, transform=Identity(), law=U11)
    with pytest.raises(ValueError):
        clt_ks_distance(model, 64, MCConfig(replicates=200, seed=0))


# --- partial-sum process increments ---------------------------------------------


def test_fclt_single_time_reduces_to_variance():
    cfg = MCConfig(replicates=4000, seed=14)
    reports = fclt_increment_check(IID(U11), [1.0], 512, cfg)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.bound == pytest.approx(1.0 / 3.0)
    assert rep.verdict == DOMINATED


def test_fclt_iid_increments_uncorrelated():
    cfg = MCConfig(replicates=4000, seed=15)
    reports = fclt_increment_check(IID(U11), [0.5, 1.0], 512, cfg)
    cov_reports = [r for r in reports if r.param.startswith("cov")]
    assert len(cov_reports) == 1
    assert cov_reports[0].verdict == DOMINATED


def test_fclt_ma_variances_proportional():
    cfg = MCConfig(replicates=4000, seed=16)
    reports = fclt_increment_check(MA11_U, [0.25, 0.5, 1.0], 1024, cfg)
    var_reports = [r for r in reports if r.param.startswith("var")]
    sigma2 = 4.0 / 3.0
    assert [r.bound for r in var_reports] == pytest.approx(
        [0.25 * sigma2, 0.25 * sigma2, 0.5 * sigma2]
    )
    assert all(r.verdict == DOMINATED for r in reports)


def test_fclt_validates_times():
    cfg = MCConfig(replicates=200, seed=0)
    with pytest.raises(ValueError):
        fclt_increment_check(IID(U11), [0.5, 0.25], 64, cfg)
    with pytest.raises(ValueError):
        fclt_increment_check(IID(U11), [0.1, 0.2, 0.3, 0.4, 0.5, 0.6], 64, cfg)
    with pytest.raises(ValueError):
        fclt_increment_check(IID(U11), [0.0, 0.5], 64, cfg)
    # floor(2 * 0.25) = 0: the first increment is empty
    with pytest.raises(ValueError):
        fclt_increment_check(MA11_U, [0.25, 0.5, 1.0], 2, cfg)
    # b(4) = 1 reaches the shortest increment 0.25: a zero process would pass
    reports = fclt_increment_check(MA11_U, [0.25, 0.5, 1.0], 4, cfg)
    assert len(reports) == 6
    assert all(not r.valid and r.verdict == BOUND_INVALID for r in reports)


# --- empirical process ----------------------------------------------------------


def test_empirical_process_endpoints_exact():
    path = empirical_process_path(IID(U11), 256, [0.0, 0.5, 1.0], seed=17)
    assert path[0] == 0.0
    assert path[-1] == 0.0
    assert np.all(np.abs(path) <= math.sqrt(256))


def test_empirical_process_variance_at_half():
    # Var zeta_n(1/2) = 1/4 exactly for uniform marginals
    reps, n = 3000, 64
    vals = np.empty(reps)
    for r in range(reps):
        vals[r] = empirical_process_path(IID(U11), n, [0.5], seed=[18, r])[0]
    var = vals.var(ddof=1)
    se = math.sqrt(2.0 / reps) * 0.25  # normal-theory SE of a variance estimate
    assert abs(var - 0.25) <= 4 * se


def test_empirical_process_rejects_discrete_marginal():
    with pytest.raises(ValueError):
        empirical_process_path(IID(Rademacher()), 64, [0.5], seed=0)


def test_marginal_transform_estimated_for_ma():
    u = marginal_transform(MA11_U)(sample_path(MA11_U, 4096, 20))
    assert abs(u.mean() - 0.5) < 0.03


def test_marginal_transform_built_once():
    # the pre-pass sorts a million draws; the checks of one run share it
    assert marginal_transform(MA11_U) is marginal_transform(MA11_U)
    assert marginal_transform(IID(U11)) is marginal_transform(IID(U11))


def test_gamma_operator_iid():
    cfg = MCConfig(replicates=6000, seed=21)
    est, se = estimate_gamma_operator(IID(U11), 0.3, 0.7, cfg)
    assert abs(est - 0.09) <= 3 * se
    est_sym, se_sym = estimate_gamma_operator(IID(U11), 0.7, 0.3, cfg)
    assert abs(est - est_sym) <= 3 * (se + se_sym)
    diag, diag_se = estimate_gamma_operator(IID(U11), 0.4, 0.4, cfg)
    assert diag >= -3 * diag_se


def test_reports_identical_across_reruns():
    cfg = MCConfig(replicates=1000, seed=22)
    a = check_newman(MA11_U, 6, [0.5, 1.0], cfg)
    b = check_newman(MA11_U, 6, [0.5, 1.0], cfg)
    assert a == b
    fit_a = slln_rate_fit(IID(U11), [64, 128, 256], cfg)
    fit_b = slln_rate_fit(IID(U11), [64, 128, 256], cfg)
    assert fit_a == fit_b
