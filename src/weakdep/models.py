"""Constructive generators for weakly dependent sequences.

Three compact-support innovation laws (uniform, Rademacher, truncated
Gaussian), three model families built on them (i.i.d. baseline, finite
moving average, cumulative sums pushed through a pointwise transform)
and their JSON schema.  The i.i.d. model is the order-one moving average
X_t = 1 xi_t: one filter draws both, and one formula gives their
coefficients and bounds.  Every generated variable is centered; paths
are arrays, deterministic functions of (model, n, seed) and
prefix-consistent in n.  One chunk runner, _run_chunks, draws every
replicate: chunks of max(1, REPLICATE_BLOCK_VALUES // n) paths,
time-major, from one generator per chunk keyed by
SeedSequence(seed, spawn_key=(chunk,)), on a fixed min(2, os.cpu_count())
threads with rows bit-identical to a serial draw.  It serves two
producers of the same replicates: replicate_paths, the paths through the
filter _paths, and _replicate_sums, the partial sums of a moving average
at chosen ends, without forming a path.  Its kernel _path_sums only sums
each chunk's unit draws of the law between the few indices the sums read;
_replicate_sums then maps all those segment sums to running sums of the
innovations, and combines them, once per matrix over row blocks.  Each
value is copied once, from its chunk's buffer into the output: the
filter keeps the innovations, its time-major output and an optional term
in scratch and returns a transposed view.  _on_row_blocks splits rows
over those threads and gives each thread its own buffers.

scipy.special is imported inside the truncated-Gaussian law's methods,
not at the top, so a command on a uniform or Rademacher model loads no
scipy.  No code here imports scipy.integrate, which brings scipy.linalg
and scipy.sparse with it: the gauss_bump_plus_x centering means come from
a numpy trapezoidal rule, _bump_integral.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Union

import numpy as np

SCHEMA_VERSION = 1

QUAD_REL_TOL = 1e-10

# largest number of path values in one chunk of replicates (paths times their length)
REPLICATE_BLOCK_VALUES = 2**16

# threads that share the rows of one _on_row_blocks call, the caller
# included; fixed by the host, never by an option or an input
_WORKERS = min(2, os.cpu_count() or 1)


def _on_row_blocks(fn, rows: int, buffers: dict) -> None:
    """Call fn(block, own) once per contiguous slice block of range(rows), on _WORKERS threads.

    The rows are cut into min(_WORKERS, rows) blocks of sizes that differ by
    at most one, the smaller first.  The calling thread takes the first block
    with own = buffers, a dict of arrays.  Pool threads, started for the
    call, take the rest, each with its own copy {name: np.empty_like(array)},
    made here on the calling thread before the pool starts: what a
    short-lived thread allocates stays resident in its own malloc arena
    (glibc) after it exits, and np.empty touches no page.  So no two blocks
    share a buffer, whatever _WORKERS is.  With one block no pool is started
    and nothing is copied.  fn must write only its own rows and its own
    buffers, and be thread-safe.  An exception from any block is raised here
    once every thread has stopped.
    """
    workers = max(1, min(_WORKERS, rows))
    cuts = [rows * w // workers for w in range(workers + 1)]
    blocks = [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    if workers == 1:
        fn(blocks[0], buffers)
        return
    copies = [{name: np.empty_like(array) for name, array in buffers.items()} for _ in blocks[1:]]
    with ThreadPoolExecutor(workers - 1) as pool:
        futures = [pool.submit(fn, block, own) for block, own in zip(blocks[1:], copies)]
        fn(blocks[0], buffers)
        for future in futures:
            future.result()


class QuadratureError(RuntimeError):
    """The trapezoidal rule of a gauss_bump_plus_x mean did not converge within its node cap."""


# _bump_integral's cut, e^-45 on a node's term, and its cap on the nodes of one integral
_BUMP_CUT = 45.0
_BUMP_FLOOR = math.exp(-_BUMP_CUT)
_BUMP_MAX_NODES = 2**14


def _bump_integral(law: InnovationLaw, cs: tuple[float, ...], beta: float) -> float:
    """The integral over the real line of exp(-beta t^2 / 4) prod_i law.chf(cs[i] t), by the trapezoidal rule.

    The integrand is analytic and Gaussian-damped, so the rule converges
    exponentially (Trefethen & Weideman 2014, SIAM Review 56).  chf is real
    and even, so the rule runs on the half line, h (1 + 2 sum_{k >= 1} f(k
    h)), up to t_cut, where the weight falls to e^-45.  A node is dropped as
    soon as the weight times the chf factors taken so far is below e^-45: no
    later factor can raise it, since |chf| <= 1, so both cuts are rigorous.
    The step starts at the Gaussian envelope's scale 1 / sqrt(beta / 4 +
    Var(S) / 2) and halves, each level adding the odd nodes, until two
    successive sums agree within QUAD_REL_TOL * max(1, |I|).  The nodes and
    their arithmetic depend on (law, cs, beta) only.  A rule that needs more
    than _BUMP_MAX_NODES nodes raises QuadratureError.
    """
    t_cut = math.sqrt(4.0 * _BUMP_CUT / beta)
    var = law.variance * math.fsum(c * c for c in cs)
    nodes, total, value, stride = t_cut * math.sqrt(beta / 4.0 + 0.5 * var), 0.0, None, 1
    while True:
        if not nodes <= _BUMP_MAX_NODES:
            raise QuadratureError(f"the trapezoidal rule needs more than {_BUMP_MAX_NODES} nodes at Var S = {var:g}")
        h = t_cut / nodes
        t = np.arange(1, int(nodes) + 1, stride) * h
        f = np.exp(-0.25 * beta * t * t)
        for c in cs:
            live = np.abs(f) >= _BUMP_FLOOR
            t, f = t[live], f[live]
            if not t.size:
                break
            f *= law.chf(c * t)
        total += math.fsum(f)
        last, value = value, h * (1.0 + 2.0 * total)
        if last is not None and abs(value - last) <= QUAD_REL_TOL * max(1.0, abs(value)):
            return value
        nodes, stride = 2.0 * nodes, 2


# ---------------------------------------------------------------------------
# innovation laws (all centered, compact support, finite closed-form variance)
#
# Each law has a private unit draw, _unit_draw(rng, size, out) -> unit: the
# generator calls of sample, leaving the generator in the same state.  Its
# private map _unit_map = (scale, center) gives sample's values as scale *
# (unit - center) up to rounding, with no draw.  _path_sums sums the unit
# draws, and _replicate_sums maps only those sums.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformOnInterval:
    """Uniform law on [a, b], centered to [-h, h] with h = (b - a)/2.

    Its unit draw is rng.random, and its map has scale b - a and center 1/2;
    sample is that map bit for bit when b - a is 2."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"uniform interval needs finite ends, got [{self.a}, {self.b}]")
        if not self.b > self.a:
            raise ValueError(f"uniform interval needs b > a, got [{self.a}, {self.b}]")

    @property
    def halfwidth(self) -> float:
        return 0.5 * (self.b - self.a)

    @property
    def variance(self) -> float:
        # a product, not ** 2: a float power that overflows raises OverflowError, a product gives inf
        return (self.b - self.a) * (self.b - self.a) / 12.0

    @property
    def support(self) -> tuple[float, float]:
        return (-self.halfwidth, self.halfwidth)

    def mgf(self, t: float) -> float:
        # E exp(t xi) = sinh(t h) / (t h), even in t
        x = t * self.halfwidth
        if abs(x) < 1e-6:
            return 1.0 + x * x / 6.0 + x ** 4 / 120.0
        return math.sinh(x) / x

    def chf(self, t):
        # E exp(i t xi) = sin(t h) / (t h)
        return np.sinc(np.asarray(t) * self.halfwidth / np.pi)

    def cdf(self, x):
        h = self.halfwidth
        return np.clip((np.asarray(x, dtype=float) + h) / (2.0 * h), 0.0, 1.0)

    def sample(self, rng: np.random.Generator, size: Union[int, tuple[int, ...]], out=None) -> np.ndarray:
        # rng.uniform(-h, h, size) bit for bit, low + range * u, but scaled
        # in place: numpy's broadcasting uniform loop is the slower one
        h = self.halfwidth
        u = rng.random(size, out=out)
        u *= h - (-h)
        u += -h
        return u

    @property
    def _unit_map(self) -> tuple[float, float]:
        return self.b - self.a, 0.5

    def _unit_draw(self, rng: np.random.Generator, size, out=None) -> np.ndarray:
        return rng.random(size, out=out)


@dataclass(frozen=True)
class Rademacher:
    """Fair +/-1 law.

    Its unit draw is rng.integers(0, 2) as floats, and its map has scale 2
    and center 1/2, which sample is bit for bit."""

    _unit_map = (2.0, 0.5)

    @property
    def variance(self) -> float:
        return 1.0

    @property
    def support(self) -> tuple[float, float]:
        return (-1.0, 1.0)

    def mgf(self, t: float) -> float:
        return math.cosh(t)

    def chf(self, t):
        return np.cos(np.asarray(t, dtype=float))

    def sample(self, rng: np.random.Generator, size: Union[int, tuple[int, ...]], out=None) -> np.ndarray:
        signs = np.multiply(rng.integers(0, 2, size), 2.0, out=out)
        signs -= 1.0
        return signs

    def _unit_draw(self, rng: np.random.Generator, size, out=None) -> np.ndarray:
        return np.multiply(rng.integers(0, 2, size), 1.0, out=out)


@lru_cache(maxsize=1)
def _gauss_legendre_200() -> tuple[np.ndarray, np.ndarray]:
    """The 200-point Gauss-Legendre nodes and weights on [-1, 1], read-only.

    Built on first use, not at import, so that commands that never call
    TruncatedGaussian.chf do not pay for it; read-only because every
    caller shares the one copy."""
    nodes, weights = np.polynomial.legendre.leggauss(200)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True)
class TruncatedGaussian:
    """Standard normal conditioned on |Z| <= bound, renormalized (mean zero).

    Its unit draw is its sample, and its map has scale 1 and center 0."""

    bound: float
    _unit_map = (1.0, 0.0)

    def __post_init__(self):
        if not 0 < self.bound < math.inf:
            raise ValueError(f"truncation bound must be positive and finite, got {self.bound}")
        # the mass 2 ndtr(bound) - 1 rounds to 0 below about 1.4e-16: exactly where ndtr's own
        # 0.5 + erf(bound / sqrt 2) / 2 rounds to 0.5, which math.erf decides without scipy
        if not 0.5 + 0.5 * math.erf(self.bound * math.sqrt(0.5)) > 0.5:
            raise ValueError(f"truncation bound {self.bound:g} is too small: its mass 2 Phi(bound) - 1 rounds to 0")

    @property
    def _mass(self) -> float:
        from scipy.special import ndtr

        return 2.0 * ndtr(self.bound) - 1.0

    @property
    def variance(self) -> float:
        # E[Z^2 | |Z| <= b] = P(3/2, b^2/2) / P(1/2, b^2/2), free of the
        # cancellation in 1 - 2 b phi(b) / mass as b -> 0
        from scipy.special import gammainc

        half_b2 = 0.5 * self.bound * self.bound
        return float(gammainc(1.5, half_b2) / gammainc(0.5, half_b2))

    @property
    def support(self) -> tuple[float, float]:
        return (-self.bound, self.bound)

    def mgf(self, t: float) -> float:
        from scipy.special import ndtr

        b = self.bound
        return math.exp(0.5 * t * t) * (ndtr(b - t) - ndtr(-b - t)) / self._mass

    def chf(self, t):
        # 1-D quadrature of cos(t x) against the truncated density; fixed
        # Gauss-Legendre rule, exact to ~1e-14 for the t values used here,
        # built once per process: one cumsum mean makes hundreds of calls.
        # A product and a row sum, not a BLAS matrix-vector product, whose
        # bits depend on where t sits in the array: each value is a function
        # of its own t alone.
        t = np.atleast_1d(np.asarray(t, dtype=float))
        nodes, weights = _gauss_legendre_200()
        x = nodes * self.bound
        w = weights * self.bound
        dens = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) / self._mass
        vals = (np.cos(np.outer(t, x)) * (w * dens)).sum(axis=1)
        return vals if vals.size > 1 else float(vals[0])

    def cdf(self, x):
        from scipy.special import ndtr

        x = np.clip(np.asarray(x, dtype=float), -self.bound, self.bound)
        return (ndtr(x) - ndtr(-self.bound)) / self._mass

    def sample(self, rng: np.random.Generator, size: Union[int, tuple[int, ...]], out=None) -> np.ndarray:
        from scipy.special import ndtr, ndtri

        # inverse-cdf on one uniform per draw keeps paths prefix-consistent
        u = rng.random(size, out=out)
        u *= self._mass
        u += ndtr(-self.bound)
        return ndtri(u, out=u)

    def _unit_draw(self, rng: np.random.Generator, size, out=None) -> np.ndarray:
        return self.sample(rng, size, out=out)


InnovationLaw = Union[UniformOnInterval, Rademacher, TruncatedGaussian]


# ---------------------------------------------------------------------------
# pointwise transforms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Identity:
    def __call__(self, x):
        return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class NegExp:
    """g(x) = exp(-x); multiplicative over sums, g(x+y) = g(x)g(y)."""

    def __call__(self, x):
        return np.exp(-np.asarray(x, dtype=float))


@dataclass(frozen=True)
class GaussBumpPlusX:
    """g(x) = exp(-x^2/beta) + x, strictly increasing for beta > 2/e."""

    beta: float

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-x * x / self.beta) + x


Transform = Union[Identity, NegExp, GaussBumpPlusX]


def nonneg_shift_mgf(law: UniformOnInterval, t: float) -> float:
    """MGF of the uniform law's nonnegative representation xi + h, uniform on [0, b - a].

    Shifting the law onto [0, width] preserves its variance but moves
    exp(-scale xi) from exploding to vanishing variance as the scale grows,
    which is what the association counterexamples need.
    """
    # expm1(t w)/(t w), stable for large |t|
    x = t * (law.b - law.a)
    if abs(x) < 1e-6:
        return 1.0 + x / 2.0 + x * x / 6.0
    return math.expm1(x) / x


# ---------------------------------------------------------------------------
# model specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IID:
    """Independent draws of the (centered) innovation law: the moving average
    X_t = 1 xi_t, whose coeffs is a class attribute and not a model-file field."""

    law: InnovationLaw
    coeffs = (1.0,)


@dataclass(frozen=True)
class MovingAverage:
    """X_t = sum_j coeffs[j] xi_{t-j}, stationary via p pre-sample innovations."""

    coeffs: tuple[float, ...]
    law: InnovationLaw

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if len(self.coeffs) == 0:
            raise ValueError("moving average needs a nonempty coefficient list")
        if not all(math.isfinite(c) for c in self.coeffs):
            raise ValueError("moving-average coefficients must be finite")


@dataclass(frozen=True)
class CumSumTransform:
    """X_t = g(sum_{i<=t} coeffs[i] xi_i) - E g(...), a nonstationary family.

    Positive coefficients keep the underlying cumulative sums associated.
    Only decompose draws it; what needs a stationary model calls _stationary.
    """

    coeffs: tuple[float, ...]
    transform: Transform
    law: InnovationLaw

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if len(self.coeffs) == 0:
            raise ValueError("cumulative-sum model needs a nonempty coefficient list")
        if not all(0 < c < math.inf for c in self.coeffs):
            raise ValueError("cumulative-sum coefficients must be strictly positive and finite")


ModelSpec = Union[IID, MovingAverage, CumSumTransform]


def _stationary(model: ModelSpec) -> ModelSpec:
    """model, or a ValueError for a cumulative-sum model, which has none of the stationary quantities."""
    if isinstance(model, CumSumTransform):
        raise ValueError("cumulative-sum models are nonstationary: only iid and moving_average models have "
                         "gamma_k, a long-run variance, an almost-sure bound and a marginal law")
    return model


def almost_sure_bound(model: ModelSpec) -> float:
    """Almost-sure bound c with |X_t| <= c of a stationary model."""
    lo, hi = _stationary(model).law.support
    return max(abs(lo), abs(hi)) * sum(abs(c) for c in model.coeffs)


def _refuse_unbounded(model: ModelSpec) -> None:
    """ValueError for a stationary model whose almost-sure bound is not a
    finite float: its path can leave the float range, so it is refused before
    any draw.  A cumulative-sum model is not checked."""
    if not isinstance(model, CumSumTransform) and not math.isfinite(bound := almost_sure_bound(model)):
        raise ValueError(f"model path can leave the float range: its almost-sure bound max |xi| * sum |a_j| "
                         f"is {bound:g}")


@lru_cache(maxsize=64)
def _cumsum_means(model: CumSumTransform, n: int) -> tuple[float, ...]:
    """E g(sum_{i<=m} coeffs[i] xi_i) for m = 1..n."""
    coeffs = model.coeffs[:n]
    if isinstance(model.transform, Identity):
        return (0.0,) * n
    if isinstance(model.transform, NegExp):
        # g multiplicative over independent summands: product of mgfs
        means = []
        acc = 1.0
        for i, c in enumerate(coeffs):
            try:
                acc *= model.law.mgf(-c)
            except OverflowError:
                acc = math.inf
            if not math.isfinite(acc):
                raise ValueError(f"neg_exp mean E exp(-S) overflows at coeffs[{i}] = {c:g}")
            means.append(acc)
        return tuple(means)
    # GaussBumpPlusX: E exp(-X^2/beta) via the Gaussian Fourier identity
    # exp(-x^2/beta) = sqrt(beta/4pi) * int exp(-beta t^2/4) exp(itx) dt,
    # reducing the mean to one integral against the product of innovation
    # characteristic functions (E X = 0 kills the linear part); each m on its
    # own nodes, so the means for n are a prefix of those for any larger n
    beta = model.transform.beta
    means = []
    for m in range(1, n + 1):
        try:
            val = _bump_integral(model.law, coeffs[:m], beta)
        except QuadratureError as exc:
            raise QuadratureError(f"gauss_bump_plus_x mean E g(S_{m}) with beta = {beta:g}: {exc}") from exc
        means.append(math.sqrt(beta / (4.0 * math.pi)) * val)
    return tuple(means)


def _buffer(scratch: dict, name: str, shape: tuple[int, int]) -> np.ndarray:
    """The array scratch[name], allocated on first use; a scratch dict serves one shape of chunk."""
    array = scratch.get(name)
    if array is None:
        array = scratch[name] = np.empty(shape)
    return array


def _paths(model: ModelSpec, n: int, width: int, rng: np.random.Generator, scratch: dict) -> np.ndarray:
    """width paths of length n from one generator, as a (width, n) array.

    The innovations are drawn time-major, an (n + p - 1, width) array for
    a moving average of order p (1 for an i.i.d. model), so path w takes
    every width-th draw of the stream from index w on and is a prefix of
    the same path for any larger n.  The moving average is a sum of
    shifted slices accumulated in the order of np.convolve, a[p-1] eps[0:n]
    first, so width 1 gives the full convolution cut to its n complete
    terms bit for bit; each term is formed in one scratch array, but a
    slice whose coefficient is exactly 1.0 is not multiplied (the same
    bits).  The result is the transpose of the time-major filter output,
    a view.  The innovations, the filter output and the term, allocated
    only when a coefficient other than 1.0 needs it, live in scratch and
    are overwritten by the next call with the same scratch, which must not
    happen while the result is still read.
    """
    if isinstance(model, CumSumTransform):
        if n > len(model.coeffs):
            raise ValueError(
                f"cumulative-sum model defines {len(model.coeffs)} coefficients, cannot generate {n} points"
            )
        sums = model.law.sample(rng, (n, width), out=_buffer(scratch, "eps", (n, width)))
        sums *= np.asarray(model.coeffs[:n])[:, np.newaxis]
        np.cumsum(sums, axis=0, out=sums)
        values = model.transform(sums) - np.asarray(_cumsum_means(model, n))[:, np.newaxis]
    else:
        a, p = model.coeffs, len(model.coeffs)
        eps = model.law.sample(rng, (n + p - 1, width), out=_buffer(scratch, "eps", (n + p - 1, width)))
        values = eps[:n] if a == (1.0,) else np.multiply(a[p - 1], eps[:n], out=_buffer(scratch, "values", (n, width)))
        for j in range(p - 2, -1, -1):
            shifted = eps[p - 1 - j : p - 1 - j + n]
            values += shifted if a[j] == 1.0 else np.multiply(a[j], shifted, out=_buffer(scratch, "term", (n, width)))
    return values.T


@lru_cache(maxsize=16)
def _sum_plan(p: int, ends: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The index plan of the partial sums of a moving average of order p, built once per (p, ends).

    The running sum C of the innovations is read at the sorted keys K =
    {e + p - 1 - j} and {p - 2 - j} for the ends e and j < p; starts are the
    np.add.reduceat starts of the segments [0, K_0], (K_0, K_1], ..., and
    lengths their lengths as a float row, so column i of the running sum of
    the segment sums is C[K_i].  hi[j] holds the columns of C[e + p - 1 - j],
    one per end, and lo[j] the column of C[p - 2 - j] as a one-entry array
    (p - 1 of them: C[-1] = 0 is not read).  All read-only.
    """
    tops = [np.asarray(ends) + (p - 1 - j) for j in range(p)]
    keys = np.unique(np.concatenate([*tops, np.arange(p - 1)]))
    starts = np.concatenate(([0], keys[:-1] + 1))
    lengths = keys + 1.0 - starts
    hi = np.searchsorted(keys, tops)
    lo = np.searchsorted(keys, np.arange(p - 2, -1, -1))[:, np.newaxis]
    for array in (starts, lengths, hi, lo):
        array.flags.writeable = False
    return starts, lengths, hi, lo


def _path_sums(model: ModelSpec, n: int, width: int, rng: np.random.Generator, scratch: dict,
               ends: tuple[int, ...]) -> np.ndarray:
    """The segment sums of the law's unit draws of width moving-average paths
    of length n from one generator, at the keys of _sum_plan(p, ends), as a
    (width, K) array.

    The unit draws are made by law.sample's generator calls into the same
    "eps" scratch buffer as in _paths, so the generator is left in the same
    state, and np.add.reduceat sums them between the keys; the result is a
    transposed view.  Nothing else is done per chunk: _replicate_sums maps
    the sums of all chunks at once.
    """
    p = len(model.coeffs)
    unit = model.law._unit_draw(rng, (n + p - 1, width), out=_buffer(scratch, "eps", (n + p - 1, width)))
    return np.add.reduceat(unit[: ends[-1] + p], _sum_plan(p, ends)[0], axis=0).T


def sample_path(model: ModelSpec, n: int, seed) -> np.ndarray:
    """Generate a length-n centered realization of the model as an array;
    identical (model, n, seed) reproduce it bit for bit.

    The generator streams innovations in a fixed order, so the path for n
    is a prefix of the path for any larger n at the same seed.  A moving
    average of order p burns in p - 1 pre-sample innovations so index 1
    already has the stationary law.  A stationary model whose almost-sure
    bound is not finite raises ValueError before the draw.
    """
    if n < 1:
        raise ValueError(f"path length must be >= 1, got {n}")
    _refuse_unbounded(model)
    return _paths(model, n, 1, np.random.default_rng(seed), {})[0]


def replicate_paths(model: ModelSpec, n: int, replicates: int, seed: int) -> np.ndarray:
    """Replicate paths of the model, as a (replicates, n) array.

    Replicates come in chunks of B = max(1, REPLICATE_BLOCK_VALUES // n)
    paths.  Chunk c draws its B paths time-major from one generator keyed
    by SeedSequence(seed, spawn_key=(c,)), a stream that no plain seed
    and no seed list of up to four words, such as [seed, 202], reaches.
    The last chunk is drawn at full width and cut, so row r depends on
    (model, n, seed, r) only, never on the number of replicates.  Each
    value is copied once, from its chunk's filter output into the result.
    A stationary model whose almost-sure bound is not finite raises
    ValueError before any chunk is drawn.

    Chunk 0 is drawn first, on the calling thread, as it gives the output's
    shape and dtype and fills the scratch buffers that _on_row_blocks
    copies on the calling thread: drawn in the pool from an empty scratch,
    a pool thread would allocate its buffers in its own malloc arena.  The
    other chunks are split by _on_row_blocks into contiguous runs on W =
    min(2, os.cpu_count()) threads, a number no input sets, the caller
    taking the first run with chunk 0's scratch and each pool thread a copy
    of it.  Each chunk fills only its own rows from its own generator, so
    every row is bit for bit the same as in a serial draw.  An exception
    from the filter is raised here once every thread has stopped.

    >>> m = IID(Rademacher())
    >>> bool((replicate_paths(m, 8, 5, 0)[:3] == replicate_paths(m, 8, 3, 0)).all())
    True
    """
    return _run_chunks(model, n, replicates, seed, lambda width, rng, scratch: _paths(model, n, width, rng, scratch))


def _replicate_sums(model: ModelSpec, n: int, replicates: int, seed: int, ends) -> np.ndarray:
    """The partial sums S_e of replicate paths at the ends, as a (replicates, len(ends)) array.

    Row r is np.cumsum(replicate_paths(model, n, replicates, seed)[r])[ends]
    up to rounding, from the same innovations of the same chunks, but
    without forming the paths.  ends must be strictly increasing indices in
    [0, n).  A cumulative-sum model raises ValueError before any draw, as
    does an unbounded one.

    Per chunk, _path_sums writes the segment sums of the unit draws at
    _sum_plan's keys through _run_chunks, into a (replicates, K) matrix.
    Then, once, over blocks of max(1, REPLICATE_BLOCK_VALUES // K) rows of
    it: the law's map scale * (sum - center * length) turns each segment sum
    into the innovations' (centered first, so that no intermediate outgrows
    the innovations' own sums), np.cumsum along the keys gives C, the
    running sum of the innovations along time, at the keys, and with C[-1]
    = 0, S_e = sum_j a_j C[e + p - 1 - j] - sum_{j < p - 1} a_j C[p - 2 -
    j], each sum taken a[p - 1] first as in _paths, and the second, the same
    for every end, subtracted last.  A full-length running sum, whose every
    add waits on the one before it, would cost more than the draw, and the
    map applied to every drawn value a pass over it.  The row blocks bound
    the temporaries of the map, which writes into one preallocated output.
    Every value is computed as a per-chunk map would, so the bits do not
    depend on the chunks, the blocks or the threads.  The sums are those of
    law.sample's innovations up to rounding, and bit for bit when scale is
    1 and center 0, or when every sum and map here is exact in float, as
    for a Rademacher law.
    """
    ends = tuple(int(e) for e in ends)
    if not ends or ends[0] < 0 or ends[-1] >= n or any(e2 <= e1 for e1, e2 in zip(ends, ends[1:])):
        raise ValueError(f"partial-sum ends must be strictly increasing in [0, {n}), got {ends}")
    _stationary(model)
    c = _run_chunks(model, n, replicates, seed,
                    lambda width, rng, scratch: _path_sums(model, n, width, rng, scratch, ends))
    a, p = model.coeffs, len(model.coeffs)
    _, lengths, hi, lo = _sum_plan(p, ends)
    scale, center = model.law._unit_map
    sums = np.empty((replicates, len(ends)))
    rows = max(1, REPLICATE_BLOCK_VALUES // len(lengths))
    for top in range(0, replicates, rows):
        block, out = c[top : top + rows], sums[top : top + rows]
        block -= center * lengths
        np.cumsum(block, axis=1, out=block)
        block *= scale
        np.multiply(a[p - 1], block[:, hi[p - 1]], out=out)
        offset = 0.0
        for j in range(p - 2, -1, -1):
            out += a[j] * block[:, hi[j]]
            offset = offset + a[j] * block[:, lo[j]]
        out -= offset
    return sums


def _run_chunks(model: ModelSpec, n: int, replicates: int, seed: int, draw_chunk) -> np.ndarray:
    """The chunk runner of replicate_paths and _replicate_sums: the rows of
    draw_chunk(width, rng, scratch), one per path of each chunk, cut to
    replicates rows and copied into one preallocated output.

    It checks n and replicates and refuses an unbounded model before any
    draw, keys chunk c's generator by SeedSequence(seed, spawn_key=(c,)),
    draws chunk 0 first on the calling thread and the rest over
    _on_row_blocks, each thread reusing its own scratch dict.
    """
    if n < 1:
        raise ValueError(f"path length must be >= 1, got {n}")
    if replicates < 1:
        raise ValueError(f"need at least 1 replicate, got {replicates}")
    _refuse_unbounded(model)
    width = max(1, REPLICATE_BLOCK_VALUES // n)
    chunks = -(-replicates // width)

    def draw(chunk: int, scratch: dict) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk,)))
        return draw_chunk(width, rng, scratch)[: replicates - chunk * width]

    # chunk 0 first, on this thread: it gives the output's shape and dtype, and
    # it fills the scratch that _on_row_blocks copies for the pool on this thread
    scratch = {}
    part = draw(0, scratch)
    out = np.empty((replicates, *part.shape[1:]), dtype=part.dtype)
    out[: len(part)] = part

    def draw_run(run: slice, own: dict) -> None:
        # a thread's scratch is reused chunk after chunk, the caller's from chunk 0
        # on: a pool thread that freed its arrays instead would fault their pages
        # in again each time
        for chunk in range(1 + run.start, 1 + run.stop):
            out[chunk * width : (chunk + 1) * width] = draw(chunk, own)

    _on_row_blocks(draw_run, chunks - 1, scratch)
    return out


# ---------------------------------------------------------------------------
# JSON schema (versioned): {"schema_version": 1, "variant": ..., "coeffs": ...,
#                           "law": {...}, "transform": {...}}
# ---------------------------------------------------------------------------

_VARIANTS = {
    "model": {"iid": IID, "moving_average": MovingAverage, "cumsum_transform": CumSumTransform},
    "law": {
        "uniform_on_interval": UniformOnInterval, "rademacher": Rademacher, "truncated_gaussian": TruncatedGaussian,
    },
    "transform": {"identity": Identity, "neg_exp": NegExp, "gauss_bump_plus_x": GaussBumpPlusX},
}


def _encode(obj) -> dict:
    """A model, law or transform as a JSON object: its variant name, then its
    fields in declaration order; a field named after a kind is encoded the same way."""
    names = [name for table in _VARIANTS.values() for name, cls in table.items() if cls is type(obj)]
    if not names:
        raise TypeError(f"unknown model type {type(obj).__name__}")
    d = {"variant": names[0]}
    for field in fields(obj):
        value = getattr(obj, field.name)
        d[field.name] = _encode(value) if field.name in _VARIANTS else value
    return d


def _decode(kind: str, d):
    """Build a model, law or transform from its JSON object, which must carry
    exactly the variant's fields; a field named after a kind is decoded the
    same way, and every other field must be a finite JSON number (coeffs a
    list of them).  Any malformed object raises ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"{kind} must be a JSON object, got {type(d).__name__}")
    table, variant = _VARIANTS[kind], d.get("variant")
    if not isinstance(variant, str) or variant not in table:
        raise ValueError(f"unknown {kind} variant {variant!r}")
    cls = table[variant]
    names = [field.name for field in fields(cls)]
    if unknown := [key for key in d if key != "variant" and key not in names]:
        raise ValueError(f"{kind} variant {variant!r} has no field {unknown[0]!r}")
    if missing := [name for name in names if name not in d]:
        raise ValueError(f"{kind} is missing field {missing[0]!r}")
    for name in names:
        if name == "coeffs" and not (isinstance(d[name], list) and all(map(_is_number, d[name]))):
            raise ValueError(f"{kind} field 'coeffs' must be a list of finite numbers")
        if name not in _VARIANTS and name != "coeffs" and not _is_number(d[name]):
            raise ValueError(f"{kind} field {name!r} must be a finite number")
    return cls(**{name: _decode(name, d[name]) if name in _VARIANTS else d[name] for name in names})


def _is_number(value) -> bool:
    """A JSON number, not true or false, finite as a float (an int too large for a float is not)."""
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        return False


def model_to_json(model: ModelSpec) -> str:
    return json.dumps({"schema_version": SCHEMA_VERSION, **_encode(model)}, indent=2)


def model_from_json(text: str) -> ModelSpec:
    """Build a model from its JSON document; any malformed document raises ValueError."""
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed model JSON: {exc}") from exc
    if not isinstance(d, dict):
        raise ValueError("model JSON must be an object")
    version = d.pop("schema_version", 1)
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema version {version}")
    return _decode("model", d)
