import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import erf
from scipy.stats import truncnorm

from weakdep import (
    IID,
    CumSumTransform,
    GaussBumpPlusX,
    Identity,
    MovingAverage,
    NegExp,
    Rademacher,
    TruncatedGaussian,
    UniformOnInterval,
    almost_sure_bound,
    gamma_sequence,
    long_run_variance,
    model_from_json,
    model_to_json,
    replicate_paths,
    sample_path,
)
from weakdep.models import (
    QUAD_REL_TOL, REPLICATE_BLOCK_VALUES, QuadratureError, _buffer, _cumsum_means, _gauss_legendre_200,
    _on_row_blocks, _path_sums, _paths, _replicate_sums, nonneg_shift_mgf,
)

from oracles import analytic_covariance, window_sum_variance

U11 = UniformOnInterval(-1.0, 1.0)
LAWS = (U11, UniformOnInterval(0.0, 3.0), Rademacher(), TruncatedGaussian(1.5))


# --- innovation laws -------------------------------------------------------


def test_uniform_moments_and_support():
    law = UniformOnInterval(2.0, 6.0)
    assert law.variance == pytest.approx(16.0 / 12.0)
    assert law.support == (-2.0, 2.0)


def test_uniform_variance_past_the_float_range_is_inf():
    # a width whose square overflows gives inf, which the long-run variance names, not an OverflowError
    assert UniformOnInterval(-1.45e154, 1.45e154).variance == math.inf
    assert UniformOnInterval(-5e153, 5e153).variance == (1e154) ** 2 / 12.0


def test_law_samples_are_centered_and_bounded():
    for law in (U11, Rademacher(), TruncatedGaussian(2.0)):
        x = law.sample(np.random.default_rng(1), 200_000)
        lo, hi = law.support
        assert np.all(x >= lo - 1e-12) and np.all(x <= hi + 1e-12)
        assert abs(x.mean()) < 4 * math.sqrt(law.variance / len(x))
        assert x.var() == pytest.approx(law.variance, rel=0.02)


@pytest.mark.parametrize("a, b", [(-1.0, 1.0), (0.0, 3.0), (-2.5, 0.7)])
@pytest.mark.parametrize("size", [1000, (1000 + 3 - 1, 65), (1000, 1)])
def test_uniform_sample_matches_generator_uniform(a, b, size):
    # scaling in place keeps numpy's uniform arithmetic, low + range * u
    law = UniformOnInterval(a, b)
    h = law.halfwidth
    x = law.sample(np.random.default_rng(41), size)
    assert np.array_equal(x, np.random.default_rng(41).uniform(-h, h, size))


def density(law):
    """The density of a continuous law on its support, for the quadrature oracles."""
    if isinstance(law, UniformOnInterval):
        return lambda x: 1.0 / (law.b - law.a)
    mass = erf(law.bound / math.sqrt(2.0))
    return lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) / mass


@pytest.mark.parametrize("law", [U11, Rademacher(), TruncatedGaussian(1.5)])
@pytest.mark.parametrize("t", [-2.0, -0.5, 0.0, 0.3, 1.7])
def test_mgf_matches_quadrature_oracle(law, t):
    if isinstance(law, Rademacher):
        expected = 0.5 * (math.exp(t) + math.exp(-t))
    else:
        lo, hi = law.support
        pdf = density(law)
        expected, _ = integrate.quad(lambda x: math.exp(t * x) * pdf(x), lo, hi)
    assert law.mgf(t) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("bound", [1.0, 1.5, 2.0])
def test_truncated_gaussian_chf_closed_form(bound):
    # int_{-b}^{b} e^{itx} phi(x) dx = e^{-t^2/2} Re erf((b + it)/sqrt 2)
    t = np.linspace(-12.0, 12.0, 241)
    oracle = np.exp(-0.5 * t * t) * erf((bound + 1j * t) / math.sqrt(2.0)).real / erf(bound / math.sqrt(2.0))
    law = TruncatedGaussian(bound)
    assert law.chf(t) == pytest.approx(oracle, abs=1e-13)
    assert law.chf(t[200]) == pytest.approx(oracle[200], abs=1e-13)


def test_truncated_gaussian_rule_built_once(monkeypatch):
    # one cumsum mean calls chf hundreds of times; they share one read-only rule
    leggauss = np.polynomial.legendre.leggauss
    calls = []
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda deg: calls.append(deg) or leggauss(deg))
    _gauss_legendre_200.cache_clear()
    law = TruncatedGaussian(1.5)
    law.chf(0.5)
    law.chf([1.0, 2.0])
    assert calls == [200]
    nodes, weights = _gauss_legendre_200()
    with pytest.raises(ValueError):
        nodes[0] = 0.0
    with pytest.raises(ValueError):
        weights[0] = 0.0


def test_truncated_gaussian_variance_below_one():
    assert 0.0 < TruncatedGaussian(1.0).variance < 1.0
    # wide truncation recovers the standard normal
    assert TruncatedGaussian(8.0).variance == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("bound", [1e-3, 1e-5, 1e-7, 1e-9, 1e-12])
def test_truncated_gaussian_variance_at_small_bounds(bound):
    # E[Z^2 | |Z| <= b] = b^2/3 - 2b^4/45 + 2b^6/945 - ..., where 1 - 2 b phi(b) / mass cancels
    b2 = bound * bound
    series = b2 / 3.0 - 2.0 * b2 * b2 / 45.0 + 2.0 * b2 ** 3 / 945.0
    assert TruncatedGaussian(bound).variance == pytest.approx(series, rel=1e-12)


@pytest.mark.parametrize("bound", [0.5, 1.5, 3.0])
def test_truncated_gaussian_cdf_matches_truncnorm(bound):
    # the exact marginal of emp on an i.i.d. truncated-Gaussian model, clipped outside the support
    x = np.linspace(-1.5 * bound, 1.5 * bound, 601)
    assert np.allclose(TruncatedGaussian(bound).cdf(x), truncnorm(-bound, bound).cdf(x), rtol=0.0, atol=1e-15)


def test_law_validation():
    with pytest.raises(ValueError):
        UniformOnInterval(1.0, 1.0)
    for a, b in ((-1.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (-1.0, math.nan)):
        with pytest.raises(ValueError, match="uniform interval needs finite ends"):
            UniformOnInterval(a, b)
    with pytest.raises(ValueError):
        TruncatedGaussian(0.0)
    # an infinite bound is not a compact support: its chf would put Gauss-Legendre nodes at inf
    for bound in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="truncation bound must be positive and finite"):
            TruncatedGaussian(bound)
    # 2 Phi(b) - 1 rounds to 0 below about 1.4e-16: no law to sample or transform
    with pytest.raises(ValueError, match="bound"):
        TruncatedGaussian(1e-17)
    assert TruncatedGaussian(1.4e-16).variance > 0.0


# --- sample paths ----------------------------------------------------------


def test_iid_rademacher_support():
    path = sample_path(IID(Rademacher()), 3, 7)
    assert set(path) <= {-1.0, 1.0}


def test_ma_zero_coefficients_zero_path():
    model = MovingAverage(coeffs=(0.0, 0.0), law=U11)
    assert np.all(sample_path(model, 50, 3) == 0.0)


def test_ma_centering_law_of_large_numbers():
    # centering oracle: sample mean within 3 sample sd / sqrt(n) at fixed seed
    model = MovingAverage(coeffs=(1.0, -0.5, 1.0), law=U11)
    x = sample_path(model, 100_000, 11)
    assert abs(x.mean()) <= 3.0 * x.std() / math.sqrt(len(x))


def test_reproducibility():
    model = MovingAverage(coeffs=(1.0, 2.0), law=TruncatedGaussian(2.0))
    a = sample_path(model, 1000, 5)
    b = sample_path(model, 1000, 5)
    assert np.array_equal(a, b)


@st.composite
def models(draw):
    law = draw(st.sampled_from(LAWS))
    kind = draw(st.sampled_from(["iid", "ma", "cumsum"]))
    if kind == "iid":
        return IID(law)
    if kind == "ma":
        coeffs = draw(st.lists(st.floats(-2, 2, allow_nan=False), min_size=1, max_size=4))
        return MovingAverage(coeffs=tuple(coeffs), law=law)
    coeffs = tuple(draw(st.lists(st.floats(0.1, 2), min_size=40, max_size=40)))
    return CumSumTransform(coeffs=coeffs, transform=Identity(), law=law)


@given(models(), st.integers(1, 20), st.integers(21, 40), st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_prefix_consistency(model, n, n_prime, seed):
    short = sample_path(model, n, seed)
    long = sample_path(model, n_prime, seed)
    assert np.array_equal(short, long[:n])


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("coeffs", [(0.7,), (1.0, -0.5), (1.0, -0.5, 1.0), (0.3, -1.2, 2.0, 0.5, -0.9),
                                    (1.0,), (1.0, 1.0), (-1.0, 1.0), (2.0, 1.0, 0.5)])
@pytest.mark.parametrize("n", [1, 7, 100_000])
def test_sample_path_matches_convolve_reference(law, coeffs, n):
    # the moving average is the full convolution of n + p - 1 innovations,
    # cut to its n complete terms, bit for bit; a slice whose coefficient is
    # exactly 1.0 is not multiplied
    p = len(coeffs)
    eps = law.sample(np.random.default_rng(17), n + p - 1)
    expected = np.convolve(eps, np.asarray(coeffs))[p - 1 : p - 1 + n]
    assert np.array_equal(sample_path(MovingAverage(coeffs=coeffs, law=law), n, 17), expected)


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("transform", [Identity(), NegExp()])
def test_sample_path_matches_cumsum_reference(law, transform):
    n = 50
    coeffs = tuple(0.1 + 0.02 * i for i in range(n))
    model = CumSumTransform(coeffs=coeffs, transform=transform, law=law)
    eps = law.sample(np.random.default_rng(23), n)
    expected = transform(np.cumsum(np.asarray(coeffs) * eps)) - np.asarray(_cumsum_means(model, n))
    assert np.array_equal(sample_path(model, n, 23), expected)


def chunk_reference(model, n, replicates, seed):
    """Replicate paths by a per-chunk loop: one generator per chunk of
    max(1, REPLICATE_BLOCK_VALUES // n) paths, one time-major draw per
    chunk, and each column filtered on its own by np.convolve or np.cumsum."""
    width = max(1, REPLICATE_BLOCK_VALUES // n)
    rows = []
    for chunk in range(-(-replicates // width)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk,)))
        if isinstance(model, CumSumTransform):
            eps = model.law.sample(rng, (n, width))
            coeffs, means = np.asarray(model.coeffs[:n]), np.asarray(_cumsum_means(model, n))
            rows += [model.transform(np.cumsum(coeffs * col)) - means for col in eps.T]
        else:
            coeffs = model.coeffs if isinstance(model, MovingAverage) else (1.0,)
            p = len(coeffs)
            eps = model.law.sample(rng, (n + p - 1, width))
            rows += [np.convolve(col, coeffs)[p - 1 : p - 1 + n] for col in eps.T]
    return np.stack(rows[:replicates])


@pytest.mark.parametrize(
    "model, n, replicates",
    [
        # 65, 13, 1638, 1, 2730, 8192 and 1 paths per chunk: a run of more
        # paths than one chunk holds ends in a partial chunk, every law and
        # model kind has a run of at least 3 chunks, so that both threads
        # draw, and the last run is the slln shape
        (IID(U11), 1000, 150),
        (MovingAverage(coeffs=(1.0, -0.5, 1.0), law=TruncatedGaussian(1.5)), 5000, 30),
        (CumSumTransform(coeffs=(0.5,) * 40, transform=NegExp(), law=U11), 40, 1700),
        (MovingAverage(coeffs=(1.0, 1.0), law=Rademacher()), REPLICATE_BLOCK_VALUES, 3),
        (IID(Rademacher()), 24, 8200),
        (CumSumTransform(coeffs=(0.25,) * 8, transform=Identity(), law=TruncatedGaussian(1.5)), 8, 16400),
        (MovingAverage(coeffs=(1.0, 1.0), law=U11), REPLICATE_BLOCK_VALUES, 5),
    ],
)
def test_replicate_paths_matches_per_replicate_streams(model, n, replicates):
    reference = chunk_reference(model, n, replicates, 31)
    x = replicate_paths(model, n, replicates, 31)
    assert np.array_equal(x, reference)
    # row reductions give each path's own bits: the matrix is row-major, not the filter's
    # transposed view, whose row sums run in another order
    expected = np.array([[row.sum(), np.cumsum(row)[n // 2]] for row in reference])
    assert np.array_equal(np.stack((x.sum(axis=1), np.cumsum(x, axis=1)[:, n // 2]), axis=1), expected)


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("n, replicates", [(1000, 200), (REPLICATE_BLOCK_VALUES, 3)])
def test_iid_is_the_order_one_moving_average(law, n, replicates, monkeypatch):
    # an i.i.d. sequence is X_t = 1 xi_t: the same rows bit for bit, over 4
    # chunks of 65 paths on two threads and over 3 chunks of width 1
    monkeypatch.setattr("weakdep.models._WORKERS", 2)
    iid, ma = IID(law), MovingAverage(coeffs=(1.0,), law=law)
    assert np.array_equal(replicate_paths(iid, n, replicates, 5), replicate_paths(ma, n, replicates, 5))
    assert np.array_equal(sample_path(iid, 300, 5), sample_path(ma, 300, 5))
    assert almost_sure_bound(iid) == almost_sure_bound(ma)
    assert long_run_variance(iid) == long_run_variance(ma)
    assert gamma_sequence(iid) == gamma_sequence(ma)
    # the same numbers, two model files: the iid object has no coeffs field
    assert model_to_json(iid) != model_to_json(ma)
    assert "coeffs" not in model_to_json(iid)


def test_replicate_paths_error_on_pool_thread(monkeypatch):
    # a filter that fails only on the pool thread's chunks: the error reaches
    # the caller and the pool's thread is gone
    monkeypatch.setattr("weakdep.models._WORKERS", 2)
    caller = threading.current_thread()

    def filter_on_caller(*args):
        if threading.current_thread() is not caller:
            raise ValueError("pool chunk")
        return _paths(*args)

    monkeypatch.setattr("weakdep.models._paths", filter_on_caller)
    before = threading.active_count()
    with pytest.raises(ValueError, match="pool chunk"):
        replicate_paths(IID(U11), 1000, 300, 0)
    assert threading.active_count() == before


def _pool_threads_meet(fn):
    """fn, whose first call on each pool thread returns only once two pool threads have made theirs."""
    caller, met, barrier = threading.current_thread(), set(), threading.Barrier(2)

    def wrapper(*args):
        result = fn(*args)
        if threading.current_thread() not in met | {caller}:
            met.add(threading.current_thread())
            barrier.wait(timeout=30)
        return result

    return wrapper


@pytest.mark.parametrize("n, chunks", [(24, 6), (4096, 9)])
def test_replicate_paths_on_three_threads(n, chunks, monkeypatch):
    # two pool threads, each with its own scratch: the path matrix over a partial last chunk is
    # the rows of one thread; the pool threads meet after their first chunk's filter, so a
    # scratch they shared would hold one chunk for both
    width = REPLICATE_BLOCK_VALUES // n
    model = MovingAverage(coeffs=(1.0, -0.5, 1.0), law=U11)
    rows = {}
    for workers in (1, 3):
        monkeypatch.setattr("weakdep.models._WORKERS", workers)
        monkeypatch.setattr("weakdep.models._paths", _pool_threads_meet(_paths))
        rows[workers] = replicate_paths(model, n, chunks * width - 3, 12)
    assert np.array_equal(rows[1], rows[3])


@pytest.mark.parametrize("model", [IID(U11), MovingAverage(coeffs=(1.0, 1.0), law=U11),
                                   MovingAverage(coeffs=(1.0, -0.5, 1.0), law=U11)], ids=["iid", "ma11", "ma3"])
@pytest.mark.parametrize("n", [24, 4096])
def test_every_scratch_buffer_is_allocated_on_the_calling_thread(model, n, monkeypatch):
    # chunk 0, drawn first on the caller, fills the scratch that _on_row_blocks copies there for
    # the pool: a buffer a pool thread allocated would stay resident in its own malloc arena
    monkeypatch.setattr("weakdep.models._WORKERS", 3)
    caller = threading.current_thread()
    replicates = 7 * (REPLICATE_BLOCK_VALUES // n) - 3  # 7 chunks, the last one cut
    for draw in (lambda: replicate_paths(model, n, replicates, 5),
                 lambda: _replicate_sums(model, n, replicates, 5, [0, n // 2, n - 1])):
        callers, first = set(), []

        def buffer(scratch, name, shape):
            callers.add(threading.current_thread())
            if name not in scratch:
                first.append((name, threading.current_thread() is caller))
            return _buffer(scratch, name, shape)

        monkeypatch.setattr("weakdep.models._buffer", buffer)
        draw()
        # the pool drew (an idle pool thread may take both runs), but allocated nothing
        assert callers - {caller} and first and all(on_caller for _, on_caller in first)


@pytest.mark.parametrize("model, columns", [
    (IID(U11), 1), (MovingAverage(coeffs=(1.0, 1.0), law=U11), 2), (MovingAverage(coeffs=(1.0, -0.5, 1.0), law=U11), 3),
], ids=["iid", "ma11", "ma3"])
def test_sample_path_peak_memory_in_float_columns(model, columns):
    # the innovations, the filter output where it is not the innovations themselves, and a term
    # where a coefficient other than 1.0 multiplies a slice; the path is a view of the output
    n = 2**20
    sample_path(model, 8, 0)
    tracemalloc.start()
    try:
        sample_path(model, n, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert columns <= peak / (8 * n) < columns + 0.1


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("rows", [0, 1, 2, 101])
def test_on_row_blocks_cover_the_rows(workers, rows, monkeypatch):
    # contiguous blocks, the smaller first on the caller; one block starts no thread
    monkeypatch.setattr("weakdep.models._WORKERS", workers)
    caller = threading.current_thread()
    calls = []
    _on_row_blocks(lambda block, own: calls.append((block, threading.current_thread() is caller)), rows, {})
    calls.sort(key=lambda call: call[0].start)
    assert [i for block, _ in calls for i in range(rows)[block]] == list(range(rows))
    assert calls[0][1] and all(not on_caller for _, on_caller in calls[1:])
    assert len(calls) == max(1, min(workers, rows))
    assert [block.stop - block.start for block, _ in calls] == sorted(block.stop - block.start for block, _ in calls)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("rows", [0, 1, 2, 101])
def test_on_row_blocks_give_each_block_its_own_buffers(workers, rows, monkeypatch):
    # the caller's block gets the dict passed in, each pool block a copy of it with the same
    # keys, shapes and dtypes, made on the calling thread; no two blocks share memory, and
    # one block copies nothing
    monkeypatch.setattr("weakdep.models._WORKERS", workers)
    caller = threading.current_thread()
    copied_on_caller = []

    def empty_like(array, *args, **kwargs):
        copied_on_caller.append(threading.current_thread() is caller)
        return real_empty_like(array, *args, **kwargs)

    real_empty_like = np.empty_like
    monkeypatch.setattr(np, "empty_like", empty_like)
    buffers = {"values": np.zeros(7), "phases": np.zeros((3, 2), dtype=complex)}
    calls = []
    _on_row_blocks(lambda block, own: calls.append((block, own)), rows, buffers)
    calls.sort(key=lambda call: call[0].start)
    assert calls[0][1] is buffers
    layout = {name: (array.shape, array.dtype) for name, array in buffers.items()}
    assert all({name: (a.shape, a.dtype) for name, a in own.items()} == layout for _, own in calls[1:])
    arrays = [array for _, own in calls for array in own.values()]
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(arrays, 2))
    assert copied_on_caller == [True] * (len(calls) - 1) * len(buffers)


def test_on_row_blocks_error_on_pool_thread(monkeypatch):
    # a block that fails only on the pool thread: the error reaches the caller
    # after the caller's block is done, and the pool's thread is gone
    monkeypatch.setattr("weakdep.models._WORKERS", 2)
    caller = threading.current_thread()
    done = []

    def fn(block, own):
        if threading.current_thread() is not caller:
            raise ValueError("pool block")
        done.append(block)

    before = threading.active_count()
    with pytest.raises(ValueError, match="pool block"):
        _on_row_blocks(fn, 101, {})
    assert done == [slice(0, 50)]
    assert threading.active_count() == before


def test_replicate_paths_from_concurrent_callers(monkeypatch):
    # more callers than cores, switching often: each result is its own
    # chunk_reference, so no call shares a buffer with another
    monkeypatch.setattr("weakdep.models._WORKERS", 2)
    cases = [
        (MovingAverage(coeffs=(1.0, -0.5, 1.0), law=U11), 4096, 70, 1),
        (MovingAverage(coeffs=(1.0, 1.0), law=U11), 4096, 70, 2),
        (IID(TruncatedGaussian(1.5)), 1000, 200, 3),
        (MovingAverage(coeffs=(1.0, 1.0), law=Rademacher()), 24, 9000, 4),
    ]
    results = [None] * len(cases)
    start = threading.Barrier(len(cases))

    def run(i, model, n, replicates, seed):
        start.wait(timeout=30)
        results[i] = replicate_paths(model, n, replicates, seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i, *case)) for i, case in enumerate(cases)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for result, (model, n, replicates, seed) in zip(results, cases):
        assert np.array_equal(result, chunk_reference(model, n, replicates, seed))


def test_replicate_paths_fills_cumsum_means_once(monkeypatch):
    # the quadrature of the means runs once, on the caller, before the pool
    monkeypatch.setattr("weakdep.models._WORKERS", 2)
    model = CumSumTransform(coeffs=(0.4,) * 12, transform=GaussBumpPlusX(2.0), law=U11)
    _cumsum_means.cache_clear()
    paths = replicate_paths(model, 12, 11_000, 6)
    assert _cumsum_means.cache_info().misses == 1
    assert np.array_equal(paths, chunk_reference(model, 12, 11_000, 6))


@pytest.mark.parametrize("n", [24, 5000])
def test_replicate_paths_row_independent_of_replicates(n):
    # the last chunk is drawn at full width and cut, so a run with fewer
    # replicates is a prefix of a run with more, partial last chunk or not
    model = MovingAverage(coeffs=(1.0, -0.5, 1.0), law=U11)
    width = REPLICATE_BLOCK_VALUES // n
    full = replicate_paths(model, n, 3 * width, 8)
    assert np.array_equal(full, chunk_reference(model, n, 3 * width, 8))
    for replicates in (1, width - 1, width, width + 1, 2 * width + 7):
        x = replicate_paths(model, n, replicates, 8)
        assert np.array_equal(x, full[:replicates])
        assert np.array_equal(x.sum(axis=1), np.array([row.sum() for row in full[:replicates]]))


def test_replicate_chunk_stream_does_not_alias_plain_seeds():
    # numpy gives default_rng(s), default_rng([s, 0]) and default_rng([s, 0, 0])
    # one stream; chunk 0 must reach none of the streams drawn elsewhere,
    # such as the emp single path at seed s and the cov cases at [s, 202]
    n, seed = 8, 5
    width = REPLICATE_BLOCK_VALUES // n
    chunk0 = replicate_paths(IID(U11), n, width, seed).T.ravel()  # the draws in stream order
    keyed = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    assert np.array_equal(chunk0, U11.sample(keyed, chunk0.size))
    for other in (seed, [seed, 0], [seed, 202]):
        plain = U11.sample(np.random.default_rng(other), chunk0.size)
        assert np.intersect1d(chunk0, plain).size == 0


def test_replicate_paths_rejects_bad_arguments():
    for n, replicates in ((0, 10), (-1, 10), (8, 0)):
        with pytest.raises(ValueError):
            replicate_paths(IID(U11), n, replicates, 0)


@pytest.mark.parametrize("coeffs", [(1e308, 1e308), (1e308, -1e308, 1e308), (1.0, 2.0**1023, 2.0**1023)])
def test_path_that_can_leave_the_float_range_is_refused_before_the_draw(coeffs, monkeypatch):
    # the almost-sure bound max |xi| * sum |a_j| is inf: no path is drawn
    model = MovingAverage(coeffs=coeffs, law=U11)
    def no_draw(*args):
        raise AssertionError("a path was drawn before the model was refused")

    monkeypatch.setattr("weakdep.models._paths", no_draw)
    assert almost_sure_bound(model) == math.inf
    for draw in (lambda: sample_path(model, 8, 0), lambda: replicate_paths(model, 8, 10, 0)):
        with pytest.raises(ValueError, match="model path can leave the float range"):
            draw()


def test_largest_finite_bound_still_draws():
    # 2^520 coefficients bound the path by 2^521, far inside the float range
    model = MovingAverage(coeffs=(2.0**520, 2.0**520), law=U11)
    assert almost_sure_bound(model) == 2.0**521
    assert np.isfinite(replicate_paths(model, 8, 10, 0)).all() and np.isfinite(sample_path(model, 8, 0)).all()


# --- partial sums at chosen ends --------------------------------------------


@pytest.mark.parametrize("n, replicates", [(5, 30_000), (4096, 50), (REPLICATE_BLOCK_VALUES, 3)])
def test_path_sums_equal_the_running_sums_of_the_paths(n, replicates):
    # values in steps of 0.5 below 2^20: every partial sum is exact in float, whatever the order;
    # 3 chunks of 13,107 paths, 4 of 16 and 3 of 1, each run ending in a cut or a one-path chunk
    model = MovingAverage(coeffs=(2.0, -1.0, 0.5, 0.0), law=Rademacher())
    ends = sorted({0, n // 2, n - 1})
    expected = np.cumsum(replicate_paths(model, n, replicates, 9), axis=1)[:, ends]
    assert np.array_equal(_replicate_sums(model, n, replicates, 9, ends), expected)


@pytest.mark.parametrize("model", [IID(UniformOnInterval(0.0, 3.0)), MovingAverage(coeffs=(1.0, 1.0), law=U11),
                                   MovingAverage(coeffs=(1.0, -0.5, 1.0), law=U11),
                                   MovingAverage(coeffs=(0.3, -1.2, 2.0, 0.5, -0.9), law=U11)])
@pytest.mark.parametrize("n, replicates", [(7, 40), (4096, 40), (REPLICATE_BLOCK_VALUES, 3)])
def test_path_sums_on_uniform_models_within_rounding(model, n, replicates):
    ends = sorted({0, 3, n // 2, n - 1})
    x = replicate_paths(model, n, replicates, 4)
    error = np.abs(_replicate_sums(model, n, replicates, 4, ends) - np.cumsum(x, axis=1)[:, ends])
    assert (error <= 1e-12 * np.cumsum(np.abs(x), axis=1)[:, ends]).all()


@pytest.mark.parametrize("n, chunks", [(24, 6), (4096, 9)])
def test_replicate_sums_on_one_and_three_threads(n, chunks, monkeypatch):
    # the rows of one thread over a cut last chunk; the pool threads meet after their first chunk,
    # so a scratch they shared would hold one chunk for both
    width = REPLICATE_BLOCK_VALUES // n
    model = MovingAverage(coeffs=(1.0, -0.5, 1.0), law=U11)
    ends = [0, n // 3, n - 2, n - 1]
    rows = {}
    for workers in (1, 3):
        monkeypatch.setattr("weakdep.models._WORKERS", workers)
        monkeypatch.setattr("weakdep.models._path_sums", _pool_threads_meet(_path_sums))
        rows[workers] = _replicate_sums(model, n, chunks * width - 3, 12, ends)
    assert np.array_equal(rows[1], rows[3])
    assert np.array_equal(rows[1][:width + 1], _replicate_sums(model, n, width + 1, 12, ends))


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("coeffs", [(1.0,), (1.0, -0.5, 1.0)])
def test_path_sums_leave_the_generator_where_paths_do(law, coeffs):
    # one law.sample call of the same shape: the same draws, and the next draw is the same too
    model = MovingAverage(coeffs=coeffs, law=law)
    after_paths, after_sums = np.random.default_rng(3), np.random.default_rng(3)
    paths = _paths(model, 100, 7, after_paths, {}).copy()
    sums = _path_sums(model, 100, 7, after_sums, {}, (0, 50, 99))
    assert after_paths.bit_generator.state == after_sums.bit_generator.state
    assert np.allclose(sums, np.cumsum(paths, axis=1)[:, [0, 50, 99]], rtol=1e-12, atol=1e-12)


def test_replicate_sums_refuse_before_any_draw(monkeypatch):
    def no_draw(*args):
        raise AssertionError("a path was drawn before the model was refused")

    monkeypatch.setattr("weakdep.models._path_sums", no_draw)
    cumsum = CumSumTransform(coeffs=(1.0,) * 8, transform=Identity(), law=U11)
    with pytest.raises(ValueError, match="cumulative-sum models are nonstationary"):
        _replicate_sums(cumsum, 8, 10, 0, [7])
    with pytest.raises(ValueError, match="model path can leave the float range"):
        _replicate_sums(MovingAverage(coeffs=(1e308, 1e308), law=U11), 8, 10, 0, [7])
    for ends in ([], [3, 3], [4, 2], [-1], [8]):
        with pytest.raises(ValueError, match="partial-sum ends"):
            _replicate_sums(MovingAverage(coeffs=(1.0, 1.0), law=U11), 8, 10, 0, ends)


@pytest.mark.parametrize("model", [MovingAverage(coeffs=(1.0, 1.0), law=U11),
                                   MovingAverage(coeffs=(1.0, -0.5, 1.0), law=U11)], ids=["ma11", "ma3"])
@pytest.mark.parametrize("m", [64, 1024])
def test_window_sum_variance_meets_its_closed_form(model, m):
    # the sample second moment of S_m (mean 0) within 3 SE of sigma_xi^2 sum_k ((1_m * a)_k)^2,
    # on both sides: an estimate that falls short fails as one that overshoots does
    squares = _replicate_sums(model, m, 20_000, 0, [m - 1])[:, 0] ** 2
    se = squares.std(ddof=1) / math.sqrt(len(squares))
    assert abs(squares.mean() - window_sum_variance(model, m)) <= 3.0 * se


def test_ma_stationarity_pooled_covariance():
    # pooled empirical lag covariance vs closed form, 1e5 replicates
    model = MovingAverage(coeffs=(1.0, -0.5, 1.0), law=U11)
    n, reps = 16, 100_000
    x = replicate_paths(model, n, reps, 909)
    for lag in (1, 2):
        per_rep = np.mean(x[:, :-lag] * x[:, lag:], axis=1)
        se = per_rep.std(ddof=1) / math.sqrt(reps)
        assert abs(per_rep.mean() - analytic_covariance(model, lag)) <= 4 * se


def test_cumsum_identity_positive_association_of_covariances():
    coeffs = (0.5, 1.0, 0.7, 1.2, 0.9)
    model = CumSumTransform(coeffs=coeffs, transform=Identity(), law=U11)
    reps, n = 20_000, 5
    paths = replicate_paths(model, n, reps, 4242)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = paths[:, i], paths[:, j]
            cov = np.mean(a * b) - a.mean() * b.mean()
            infl = (a - a.mean()) * (b - b.mean()) - cov
            se = infl.std(ddof=1) / math.sqrt(reps)
            assert cov >= -4 * se


def test_cumsum_transform_paths_are_centered():
    for transform in (NegExp(), GaussBumpPlusX(2.0)):
        model = CumSumTransform(coeffs=(0.5, 0.8, 1.1), transform=transform, law=U11)
        reps, n = 40_000, 3
        paths = replicate_paths(model, n, reps, 77)
        means = paths.mean(axis=0)
        ses = paths.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(means) <= 4 * ses)


def test_cumsum_rejects_overlong_paths_and_bad_params():
    model = CumSumTransform(coeffs=(1.0, 1.0), transform=Identity(), law=U11)
    with pytest.raises(ValueError):
        sample_path(model, 3, 0)
    with pytest.raises(ValueError):
        CumSumTransform(coeffs=(1.0, -1.0), transform=Identity(), law=U11)
    with pytest.raises(ValueError):
        MovingAverage(coeffs=(), law=U11)
    with pytest.raises(ValueError):
        GaussBumpPlusX(0.0)
    with pytest.raises(ValueError):
        sample_path(IID(U11), 0, 0)


# --- analytic covariance ---------------------------------------------------


def test_analytic_covariance_sign_pattern():
    # unit-variance innovations so the covariances are pure coefficient sums
    law = Rademacher()
    model = MovingAverage(coeffs=(1.0, -0.5, 1.0), law=law)
    assert analytic_covariance(model, 2) == pytest.approx(1.0)  # a1 a3 > 0
    assert analytic_covariance(model, 1) == pytest.approx(-1.0)  # a1 a2 + a2 a3 < 0
    assert analytic_covariance(MovingAverage(coeffs=(1.0,), law=law), 0) == pytest.approx(1.0)
    assert analytic_covariance(model, 3) == 0.0
    assert analytic_covariance(IID(law), 1) == 0.0


def test_analytic_covariance_unavailable_for_cumsum():
    model = CumSumTransform(coeffs=(1.0,), transform=Identity(), law=U11)
    assert analytic_covariance(model, 1) is None


def test_almost_sure_bound_and_stationarity():
    assert almost_sure_bound(IID(U11)) == 1.0
    assert almost_sure_bound(MovingAverage(coeffs=(1.0, -0.5, 1.0), law=U11)) == 2.5
    assert long_run_variance(IID(U11)) == pytest.approx(1.0 / 3.0)
    for quantity in (almost_sure_bound, long_run_variance):
        with pytest.raises(ValueError) as caught:
            quantity(CumSumTransform(coeffs=(1.0,), transform=Identity(), law=U11))
        assert str(caught.value) == ("cumulative-sum models are nonstationary: only iid and moving_average models "
                                     "have gamma_k, a long-run variance, an almost-sure bound and a marginal law")


# --- cumulative-sum means ---------------------------------------------------


def test_nonneg_shift_mgf_series_meets_expm1_ratio():
    # below |x| = 1e-6 the mgf is the series 1 + x/2 + x^2/6, above it expm1(x)/x: on either
    # side of the switch both forms agree within one ulp (x = t (b - a), here b - a = 2)
    assert nonneg_shift_mgf(U11, 0.0) == 1.0
    for magnitude in (1e-9, 1e-7, 0.999e-6, 1e-6, 1.001e-6, 1e-5):
        for x in (magnitude, -magnitude):
            expected = math.expm1(x) / x
            assert abs(nonneg_shift_mgf(U11, x / 2.0) - expected) <= math.ulp(expected), x


def test_negexp_variance_vanishes_for_nonnegative_shift():
    # on the nonnegative representation of the law the transformed variance
    # decays to zero as the scale grows
    last = None
    for scale in (1.0, 10.0, 100.0, 1000.0):
        var = nonneg_shift_mgf(U11, -2 * scale) - nonneg_shift_mgf(U11, -scale) ** 2
        assert var > 0
        if last is not None:
            assert var < last
        last = var
    assert last < 1e-3


@pytest.mark.parametrize("law", [U11, UniformOnInterval(0.0, 3.0), Rademacher(), TruncatedGaussian(1.5)])
@pytest.mark.parametrize("coeffs, beta", [((1.3, 0.7), 3.0), ((1.0, 1.0), 2.0)])
@pytest.mark.parametrize("m", [1, 2])
def test_cumsum_means_gauss_bump_exact(law, coeffs, beta, m):
    # the Fourier quadrature through chf against E g(c . xi) taken directly:
    # the exact 2^m-point sum for Rademacher, quad/dblquad of g(c . x) against the density else
    model = CumSumTransform(coeffs=coeffs, transform=GaussBumpPlusX(beta), law=law)
    c = coeffs[:m]
    g = lambda s: math.exp(-s * s / beta) + s
    if isinstance(law, Rademacher):
        oracle = np.mean([g(np.dot(c, signs)) for signs in itertools.product((-1.0, 1.0), repeat=m)])
    else:
        lo, hi = law.support
        pdf = density(law)
        tol = dict(epsabs=1e-14, epsrel=1e-13)
        if m == 1:
            oracle, _ = integrate.quad(lambda x: g(c[0] * x) * pdf(x), lo, hi, **tol)
        else:
            integrand = lambda y, x: g(c[0] * x + c[1] * y) * pdf(x) * pdf(y)
            oracle, _ = integrate.dblquad(integrand, lo, hi, lo, hi, **tol)
    assert _cumsum_means(model, m)[m - 1] == pytest.approx(oracle, rel=1e-10)


# 40 coefficients in [0.2, 1.5), the first ones of a golden-ratio sequence
BUMP_COEFFS = tuple(0.2 + 1.3 * ((0.6180339887498949 * k) % 1.0) for k in range(1, 41))


@pytest.mark.parametrize("beta", [0.05, 0.5, 2.0, 30.0])
def test_bump_means_meet_rademacher_enumeration(beta):
    # E exp(-S_m^2 / beta) is the mean of 2^m exact terms for Rademacher signs, m <= 10
    model = CumSumTransform(coeffs=BUMP_COEFFS[:10], transform=GaussBumpPlusX(beta), law=Rademacher())
    means = _cumsum_means(model, 10)
    for m in range(1, 11):
        sums = np.array([np.dot(BUMP_COEFFS[:m], signs) for signs in itertools.product((-1.0, 1.0), repeat=m)])
        exact = math.fsum(np.exp(-sums * sums / beta)) / 2**m
        if beta == 0.05:
            # the mean falls to 1.8e-9 at m = 1; the rule's error stays at the rounding of a mean of size 1
            assert abs(means[m - 1] - exact) <= 1e-15, m
        else:
            assert means[m - 1] == pytest.approx(exact, rel=1e-13, abs=0.0), m


@pytest.mark.parametrize("law", [U11, UniformOnInterval(0.0, 3.0), UniformOnInterval(-5.0, 5.0)])
@pytest.mark.parametrize("c", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("beta", [0.05, 0.5, 2.0, 30.0])
def test_bump_mean_meets_uniform_closed_form(law, c, beta):
    # E exp(-(c xi)^2 / beta) for xi uniform on [-h, h] is sqrt(pi beta) / (2 c h) erf(c h / sqrt beta)
    h = law.halfwidth
    exact = math.sqrt(math.pi * beta) / (2.0 * c * h) * math.erf(c * h / math.sqrt(beta))
    model = CumSumTransform(coeffs=(c,), transform=GaussBumpPlusX(beta), law=law)
    assert _cumsum_means(model, 1)[0] == pytest.approx(exact, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("law", [U11, Rademacher(), TruncatedGaussian(1.5)])
@pytest.mark.parametrize("beta", [0.05, 0.5, 2.0, 30.0])
def test_bump_means_meet_adaptive_quadrature(law, beta):
    # the integral I of the Fourier identity, taken by scipy's quad on [0, t] where
    # exp(-beta t^2 / 4) = e^-60, agrees with the rule within QUAD_REL_TOL * max(1, |I|)
    model = CumSumTransform(coeffs=BUMP_COEFFS, transform=GaussBumpPlusX(beta), law=law)
    means = _cumsum_means(model, 40)
    for m in (1, 2, 10, 40):
        cs = np.asarray(BUMP_COEFFS[:m])
        integrand = lambda t: math.exp(-beta * t * t / 4.0) * float(np.prod(law.chf(cs * t)))
        half, _ = integrate.quad(integrand, 0.0, math.sqrt(240.0 / beta), epsabs=1e-13, epsrel=1e-13, limit=2000)
        oracle = 2.0 * half
        rule = means[m - 1] * math.sqrt(4.0 * math.pi / beta)
        assert abs(rule - oracle) <= QUAD_REL_TOL * max(1.0, abs(oracle)), m


def test_bump_means_and_paths_are_prefix_consistent():
    # each m's rule reads (law, beta, coeffs[:m]) only, so a shorter n gives the same bits
    model = CumSumTransform(coeffs=BUMP_COEFFS[:12], transform=GaussBumpPlusX(0.5), law=TruncatedGaussian(1.5))
    _cumsum_means.cache_clear()
    means = _cumsum_means(model, 12)
    for k in (1, 5, 11):
        _cumsum_means.cache_clear()
        assert _cumsum_means(model, k) == means[:k], k
        assert np.array_equal(sample_path(model, k, 3), sample_path(model, 12, 3)[:k]), k


@pytest.mark.parametrize("coeffs, beta", [((1.0,), 1e-9), ((1e200,), 1.0), ((1.0, 1.0), 5e-324)])
def test_bump_rule_refuses_past_its_node_cap(coeffs, beta):
    # beta far below Var S, or Var S past the float range, needs more nodes than the cap
    model = CumSumTransform(coeffs=coeffs, transform=GaussBumpPlusX(beta), law=U11)
    with pytest.raises(QuadratureError, match=r"E g\(S_1\) with beta = .*: the trapezoidal rule needs more than"):
        _cumsum_means(model, len(coeffs))


# --- JSON schema -----------------------------------------------------------


@pytest.mark.parametrize(
    "model",
    [
        IID(Rademacher()),
        IID(TruncatedGaussian(1.5)),
        MovingAverage(coeffs=(1.0, -0.5, 1.0), law=U11),
        CumSumTransform(coeffs=(0.5, 1.5), transform=NegExp(), law=U11),
        CumSumTransform(coeffs=(1.0,), transform=GaussBumpPlusX(4.0), law=UniformOnInterval(0, 2)),
    ],
)
def test_model_json_round_trip(model):
    assert model_from_json(model_to_json(model)) == model


# one model per model variant, law variant and transform variant, with the
# exact text model_to_json writes for it (key order and indentation included)
PINNED_JSON = [
    (IID(Rademacher()), """{
  "schema_version": 1,
  "variant": "iid",
  "law": {
    "variant": "rademacher"
  }
}"""),
    (MovingAverage(coeffs=(1.0, -0.5, 0.25), law=TruncatedGaussian(1.5)), """{
  "schema_version": 1,
  "variant": "moving_average",
  "coeffs": [
    1.0,
    -0.5,
    0.25
  ],
  "law": {
    "variant": "truncated_gaussian",
    "bound": 1.5
  }
}"""),
    (CumSumTransform(coeffs=(0.5, 1.5), transform=Identity(), law=U11), """{
  "schema_version": 1,
  "variant": "cumsum_transform",
  "coeffs": [
    0.5,
    1.5
  ],
  "transform": {
    "variant": "identity"
  },
  "law": {
    "variant": "uniform_on_interval",
    "a": -1.0,
    "b": 1.0
  }
}"""),
    (CumSumTransform(coeffs=(1.0,), transform=NegExp(), law=Rademacher()), """{
  "schema_version": 1,
  "variant": "cumsum_transform",
  "coeffs": [
    1.0
  ],
  "transform": {
    "variant": "neg_exp"
  },
  "law": {
    "variant": "rademacher"
  }
}"""),
    (CumSumTransform(coeffs=(2.0, 1.0), transform=GaussBumpPlusX(4.0), law=UniformOnInterval(0.0, 3.0)), """{
  "schema_version": 1,
  "variant": "cumsum_transform",
  "coeffs": [
    2.0,
    1.0
  ],
  "transform": {
    "variant": "gauss_bump_plus_x",
    "beta": 4.0
  },
  "law": {
    "variant": "uniform_on_interval",
    "a": 0.0,
    "b": 3.0
  }
}"""),
]


@pytest.mark.parametrize("case", range(len(PINNED_JSON)))
def test_model_json_text_is_pinned(case):
    model, text = PINNED_JSON[case]
    assert model_to_json(model) == text
    assert model_from_json(text) == model


def test_model_json_rejects_garbage():
    with pytest.raises(ValueError):
        model_from_json("not json at all {")
    with pytest.raises(ValueError):
        model_from_json('{"variant": "mystery"}')
    with pytest.raises(ValueError):
        model_from_json('{"schema_version": 99, "variant": "iid"}')
    with pytest.raises(ValueError):
        model_from_json("[1, 2, 3]")


def test_model_json_accepts_only_the_variant_fields():
    law = '{"variant": "rademacher"}'
    assert model_from_json('{"schema_version": 1, "variant": "iid", "law": %s}' % law) == IID(Rademacher())
    with pytest.raises(ValueError, match="model is missing field 'law'"):
        model_from_json('{"variant": "iid"}')
    # schema_version is a top-level key only
    with pytest.raises(ValueError, match="law variant 'rademacher' has no field 'schema_version'"):
        model_from_json('{"variant": "iid", "law": {"variant": "rademacher", "schema_version": 1}}')
    with pytest.raises(ValueError, match="model variant 'iid' has no field 'note'"):
        model_from_json('{"variant": "iid", "note": "", "law": %s}' % law)
    with pytest.raises(ValueError, match="transform variant 'neg_exp' has no field 'beta'"):
        model_from_json('{"variant": "cumsum_transform", "coeffs": [1], "transform": {"variant": "neg_exp", "beta": 1},'
                        ' "law": %s}' % law)
    for bad in ('"rademacher"', "[]", "null", '{"variant": ["rademacher"]}', '{"variant": "iid"}'):
        with pytest.raises(ValueError, match="law"):
            model_from_json('{"variant": "iid", "law": %s}' % bad)
