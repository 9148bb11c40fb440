"""Constructive generators for weakly dependent sequences.

Three compact-support innovation laws (uniform, Rademacher, truncated
Gaussian), three model families built on them (i.i.d. baseline, finite
moving average, cumulative sums pushed through a pointwise transform)
and their JSON schema.  Every generated variable is centered; paths are
arrays, deterministic functions of (model, n, seed) and prefix-consistent
in n.  replicate_paths is the one producer of replicate paths: it draws
them in chunks of max(1, REPLICATE_BLOCK_VALUES // n) paths, time-major,
from one generator per chunk keyed by SeedSequence(seed, spawn_key=(chunk,)).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, asdict
from functools import lru_cache
from typing import Optional, Union

import numpy as np
from scipy import integrate
from scipy.special import ndtr, ndtri

SCHEMA_VERSION = 1

QUAD_REL_TOL = 1e-10

# largest number of path values replicate_paths builds at once
REPLICATE_BLOCK_VALUES = 2**16


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge to the requested tolerance."""


def _quad(fn, lo, hi):
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            value, abserr = integrate.quad(fn, lo, hi, epsrel=QUAD_REL_TOL, epsabs=1e-14, limit=200)
        except integrate.IntegrationWarning as exc:
            raise QuadratureError(f"quadrature did not converge on [{lo}, {hi}]: {exc}") from exc
    tol = QUAD_REL_TOL * max(1.0, abs(value))
    if abserr > 10 * tol:
        raise QuadratureError(f"quadrature error estimate {abserr:.3e} exceeds tolerance {tol:.3e}")
    return value


# ---------------------------------------------------------------------------
# innovation laws (all centered, compact support, finite closed-form variance)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformOnInterval:
    """Uniform law on [a, b], centered to [-h, h] with h = (b - a)/2."""

    a: float
    b: float

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError(f"uniform interval needs b > a, got [{self.a}, {self.b}]")

    @property
    def halfwidth(self) -> float:
        return 0.5 * (self.b - self.a)

    @property
    def variance(self) -> float:
        return (self.b - self.a) ** 2 / 12.0

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

    def pdf(self, x):
        h = self.halfwidth
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) <= h, 1.0 / (2.0 * h), 0.0)

    def sample(self, rng: np.random.Generator, size: Union[int, tuple[int, ...]]) -> np.ndarray:
        h = self.halfwidth
        return rng.uniform(-h, h, size)


@dataclass(frozen=True)
class Rademacher:
    """Fair +/-1 law."""

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

    def sample(self, rng: np.random.Generator, size: Union[int, tuple[int, ...]]) -> np.ndarray:
        return rng.integers(0, 2, size).astype(float) * 2.0 - 1.0


@dataclass(frozen=True)
class TruncatedGaussian:
    """Standard normal conditioned on |Z| <= bound, renormalized (mean zero)."""

    bound: float

    def __post_init__(self):
        if not self.bound > 0:
            raise ValueError(f"truncation bound must be positive, got {self.bound}")

    @property
    def _mass(self) -> float:
        return 2.0 * ndtr(self.bound) - 1.0

    @property
    def variance(self) -> float:
        b = self.bound
        phi_b = math.exp(-0.5 * b * b) / math.sqrt(2.0 * math.pi)
        return 1.0 - 2.0 * b * phi_b / self._mass

    @property
    def support(self) -> tuple[float, float]:
        return (-self.bound, self.bound)

    def mgf(self, t: float) -> float:
        b = self.bound
        return math.exp(0.5 * t * t) * (ndtr(b - t) - ndtr(-b - t)) / self._mass

    def chf(self, t):
        # 1-D quadrature of cos(t x) against the truncated density; fixed
        # Gauss-Legendre rule, exact to ~1e-14 for the t values used here.
        t = np.atleast_1d(np.asarray(t, dtype=float))
        nodes, weights = np.polynomial.legendre.leggauss(200)
        x = nodes * self.bound
        w = weights * self.bound
        dens = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) / self._mass
        vals = np.cos(np.outer(t, x)) @ (w * dens)
        return vals if vals.size > 1 else float(vals[0])

    def cdf(self, x):
        x = np.clip(np.asarray(x, dtype=float), -self.bound, self.bound)
        return (ndtr(x) - ndtr(-self.bound)) / self._mass

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        dens = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) / self._mass
        return np.where(np.abs(x) <= self.bound, dens, 0.0)

    def sample(self, rng: np.random.Generator, size: Union[int, tuple[int, ...]]) -> np.ndarray:
        # inverse-cdf on one uniform per draw keeps paths prefix-consistent
        lo = ndtr(-self.bound)
        u = rng.random(size)
        return ndtri(lo + u * self._mass)


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


def nonneg_shift_mgf(law: InnovationLaw, t: float) -> float:
    """MGF of the law's nonnegative representation xi - inf(support).

    Shifting a compact-support law onto [0, width] preserves its variance
    but moves exp(-scale xi) from exploding to vanishing variance as the
    scale grows, which is what the association counterexamples need.
    """
    if isinstance(law, UniformOnInterval):
        # uniform on [0, width]: expm1(t w)/(t w), stable for large |t|
        x = t * (law.b - law.a)
        if abs(x) < 1e-6:
            return 1.0 + x / 2.0 + x * x / 6.0
        return math.expm1(x) / x
    lo = law.support[0]
    return math.exp(-t * lo) * law.mgf(t)


# ---------------------------------------------------------------------------
# model specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IID:
    """Independent draws of the (centered) innovation law."""

    law: InnovationLaw


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

    @property
    def order(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class CumSumTransform:
    """X_t = g(sum_{i<=t} coeffs[i] xi_i) - E g(...), a nonstationary family.

    Positive coefficients keep the underlying cumulative sums associated;
    supported for the quasi-association counterexample checks only, and
    rejected by every operation that assumes stationarity.
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


def is_stationary(model: ModelSpec) -> bool:
    return isinstance(model, (IID, MovingAverage))


def almost_sure_bound(model: ModelSpec) -> Optional[float]:
    """Almost-sure bound c with |X_t| <= c, or None when no uniform bound exists."""
    lo, hi = model.law.support
    h = max(abs(lo), abs(hi))
    if isinstance(model, IID):
        return h
    if isinstance(model, MovingAverage):
        return h * sum(abs(c) for c in model.coeffs)
    return None


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
        for c in coeffs:
            acc *= model.law.mgf(-c)
            means.append(acc)
        return tuple(means)
    # GaussBumpPlusX: E exp(-X^2/beta) via the Gaussian Fourier identity
    # exp(-x^2/beta) = sqrt(beta/4pi) * int exp(-beta t^2/4) exp(itx) dt,
    # reducing the mean to one quadrature against the product of innovation
    # characteristic functions (E X = 0 kills the linear part).
    beta = model.transform.beta
    means = []
    for m in range(1, n + 1):
        cs = np.asarray(coeffs[:m])

        def integrand(t, cs=cs):
            return math.exp(-beta * t * t / 4.0) * float(np.prod(model.law.chf(cs * t)))

        val = _quad(integrand, -np.inf, np.inf)
        means.append(math.sqrt(beta / (4.0 * math.pi)) * val)
    return tuple(means)


def _paths(model: ModelSpec, n: int, width: int, rng: np.random.Generator) -> np.ndarray:
    """width paths of length n from one generator, as a (width, n) array.

    The innovations are drawn time-major, an (n + p - 1, width) array for
    a moving average of order p, so path w takes every width-th draw of
    the stream from index w on and is a prefix of the same path for any
    larger n.  The moving average is a sum of shifted slices accumulated
    in the order of np.convolve, a[p-1] eps[0:n] first, so width 1 gives
    the full convolution cut to its n complete terms bit for bit.
    """
    if isinstance(model, IID):
        values = model.law.sample(rng, (n, width))
    elif isinstance(model, MovingAverage):
        a, p = model.coeffs, model.order
        eps = model.law.sample(rng, (n + p - 1, width))
        values = a[p - 1] * eps[:n]
        for j in range(p - 2, -1, -1):
            values += a[j] * eps[p - 1 - j : p - 1 - j + n]
    elif isinstance(model, CumSumTransform):
        if n > len(model.coeffs):
            raise ValueError(
                f"cumulative-sum model defines {len(model.coeffs)} coefficients, cannot generate {n} points"
            )
        eps = model.law.sample(rng, (n, width))
        sums = np.cumsum(np.asarray(model.coeffs[:n])[:, np.newaxis] * eps, axis=0)
        values = model.transform(sums) - np.asarray(_cumsum_means(model, n))[:, np.newaxis]
    else:
        raise TypeError(f"unknown model type {type(model).__name__}")
    return np.ascontiguousarray(values.T)


def sample_path(model: ModelSpec, n: int, seed) -> np.ndarray:
    """Generate a length-n centered realization of the model as an array;
    identical (model, n, seed) reproduce it bit for bit.

    The generator streams innovations in a fixed order, so the path for n
    is a prefix of the path for any larger n at the same seed.  Moving
    averages burn in `order` pre-sample innovations so index 1 already has
    the stationary law.
    """
    if n < 1:
        raise ValueError(f"path length must be >= 1, got {n}")
    return _paths(model, n, 1, np.random.default_rng(seed))[0]


def replicate_paths(model: ModelSpec, n: int, replicates: int, seed: int, reduce=None) -> np.ndarray:
    """Replicate paths of the model, reduced row by row.

    Replicates come in chunks of B = max(1, REPLICATE_BLOCK_VALUES // n)
    paths.  Chunk c draws its B paths time-major from one generator keyed
    by SeedSequence(seed, spawn_key=(c,)), a stream that no plain seed
    and no seed list of up to four words, such as [seed, 202], reaches.
    The last chunk is drawn at full width and cut, so row r depends on
    (model, n, seed, r) only, never on the number of replicates.  reduce
    maps each (rows, n) block to an array with one row per path, written
    into one preallocated output; reduce None returns the (replicates, n)
    path matrix.

    >>> m = IID(Rademacher())
    >>> bool((replicate_paths(m, 8, 5, 0)[:3] == replicate_paths(m, 8, 3, 0)).all())
    True
    """
    if n < 1:
        raise ValueError(f"path length must be >= 1, got {n}")
    if replicates < 1:
        raise ValueError(f"need at least 1 replicate, got {replicates}")
    width = max(1, REPLICATE_BLOCK_VALUES // n)
    out = None
    for chunk, start in enumerate(range(0, replicates, width)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk,)))
        block = _paths(model, n, width, rng)[: replicates - start]
        part = block if reduce is None else np.asarray(reduce(block))
        if part.shape[:1] != block.shape[:1]:
            raise ValueError(f"reduce must return one row per path, got shape {part.shape}")
        if out is None:
            out = np.empty((replicates, *part.shape[1:]), dtype=part.dtype)
        out[start : start + len(block)] = part
    return out


# ---------------------------------------------------------------------------
# JSON schema (versioned): {"schema_version": 1, "variant": ..., "coeffs": ...,
#                           "law": {...}, "transform": {...}}
# ---------------------------------------------------------------------------

_LAW_NAMES = {UniformOnInterval: "uniform_on_interval", Rademacher: "rademacher", TruncatedGaussian: "truncated_gaussian"}
_TRANSFORM_NAMES = {Identity: "identity", NegExp: "neg_exp", GaussBumpPlusX: "gauss_bump_plus_x"}


def law_to_dict(law: InnovationLaw) -> dict:
    d = {"variant": _LAW_NAMES[type(law)]}
    d.update(asdict(law))
    return d


def law_from_dict(d: dict) -> InnovationLaw:
    names = {v: k for k, v in _LAW_NAMES.items()}
    try:
        cls = names[d["variant"]]
    except KeyError:
        raise ValueError(f"unknown law variant {d.get('variant')!r}") from None
    kwargs = {k: v for k, v in d.items() if k != "variant"}
    return cls(**kwargs)


def transform_to_dict(transform: Transform) -> dict:
    d = {"variant": _TRANSFORM_NAMES[type(transform)]}
    d.update(asdict(transform))
    return d


def transform_from_dict(d: dict) -> Transform:
    names = {v: k for k, v in _TRANSFORM_NAMES.items()}
    try:
        cls = names[d["variant"]]
    except KeyError:
        raise ValueError(f"unknown transform variant {d.get('variant')!r}") from None
    kwargs = {k: v for k, v in d.items() if k != "variant"}
    return cls(**kwargs)


def model_to_dict(model: ModelSpec) -> dict:
    if isinstance(model, IID):
        return {"schema_version": SCHEMA_VERSION, "variant": "iid", "law": law_to_dict(model.law)}
    if isinstance(model, MovingAverage):
        return {
            "schema_version": SCHEMA_VERSION,
            "variant": "moving_average",
            "coeffs": list(model.coeffs),
            "law": law_to_dict(model.law),
        }
    if isinstance(model, CumSumTransform):
        return {
            "schema_version": SCHEMA_VERSION,
            "variant": "cumsum_transform",
            "coeffs": list(model.coeffs),
            "transform": transform_to_dict(model.transform),
            "law": law_to_dict(model.law),
        }
    raise TypeError(f"unknown model type {type(model).__name__}")


def model_from_dict(d: dict) -> ModelSpec:
    """Build a model from its JSON document; any malformed document raises
    ValueError (a missing field, an unknown or mistyped parameter)."""
    version = d.get("schema_version", 1)
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema version {version}")
    variant = d.get("variant")
    try:
        if variant == "iid":
            return IID(law=law_from_dict(d["law"]))
        if variant == "moving_average":
            return MovingAverage(coeffs=tuple(d["coeffs"]), law=law_from_dict(d["law"]))
        if variant == "cumsum_transform":
            return CumSumTransform(
                coeffs=tuple(d["coeffs"]),
                transform=transform_from_dict(d["transform"]),
                law=law_from_dict(d["law"]),
            )
    except KeyError as exc:
        raise ValueError(f"model is missing field {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed model: {exc}") from None
    raise ValueError(f"unknown model variant {variant!r}")


def model_to_json(model: ModelSpec) -> str:
    return json.dumps(model_to_dict(model), indent=2)


def model_from_json(text: str) -> ModelSpec:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed model JSON: {exc}") from exc
    if not isinstance(d, dict):
        raise ValueError("model JSON must be an object")
    return model_from_dict(d)
