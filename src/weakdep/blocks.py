"""Block decomposition of sample paths and the truncation split.

A path of length n is cut into 2 r blocks of length p (r = floor(n / 2p)),
alternating odd/even block sums plus a remainder, so that
S_n = Z_odd + Z_even + R exactly.  The truncation split separates a path
into a clamped bounded part and a residual, both centered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BlockScheme:
    n: int
    p_n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if not 1 <= self.p_n <= self.n / 2:
            raise ValueError(f"block length must satisfy 1 <= p <= n/2, got p={self.p_n}, n={self.n}")

    @property
    def r_n(self) -> int:
        return self.n // (2 * self.p_n)


def block_scheme(n: int, p_n: int) -> BlockScheme:
    """Validated scheme with r_n = floor(n / (2 p_n)) >= 1."""
    scheme = BlockScheme(n=n, p_n=p_n)
    if scheme.r_n < 1:
        raise ValueError(f"scheme with n={n}, p={p_n} has no complete block pair")
    return scheme


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    blocks: np.ndarray  # 2 r block sums, block j covers indices (j-1)p+1 .. jp
    z_odd: float
    z_even: float
    remainder: float
    scheme: BlockScheme


def decompose(path, scheme: BlockScheme) -> BlockDecomposition:
    """Cut a path into alternating block sums; z_odd + z_even + remainder = S_n."""
    values = np.asarray(path, dtype=float)
    if len(values) != scheme.n:
        raise ValueError(f"path length {len(values)} does not match scheme n={scheme.n}")
    p, r = scheme.p_n, scheme.r_n
    body = values[: 2 * r * p].reshape(2 * r, p)
    blocks = body.sum(axis=1)
    return BlockDecomposition(
        blocks=blocks,
        z_odd=float(blocks[0::2].sum()),
        z_even=float(blocks[1::2].sum()),
        remainder=float(values[2 * r * p :].sum()),
        scheme=scheme,
    )


def clip(x, c: float):
    """Clamp at level c > 0: max(min(x, c), -c). Nondecreasing, 1-Lipschitz."""
    if not c > 0:
        raise ValueError(f"clip level must be positive, got {c}")
    return np.clip(x, -c, c)


@dataclass(frozen=True, eq=False)
class TruncationSplit:
    level: float
    bounded_part: np.ndarray  # clamp(x, c) - mean_of_clipped, in [-2c, 2c]
    unbounded_part: np.ndarray  # residual, centered; bounded + unbounded = path
    mean_of_clipped: float


def truncate_path(path, c: float, mean_of_clipped: float) -> TruncationSplit:
    """Split a path into centered clamped and residual parts.

    The caller supplies E clamp(X, c) (analytic or pre-estimated); centering
    by the true expectation rather than the within-path sample mean keeps
    tail-bound comparisons honest at small n.  For centered variables the
    residual mean is -mean_of_clipped, so bounded + unbounded reconstructs
    the path elementwise.
    """
    values = np.asarray(path, dtype=float)
    clipped = clip(values, c)
    return TruncationSplit(
        level=c,
        bounded_part=clipped - mean_of_clipped,
        unbounded_part=values - clipped + mean_of_clipped,
        mean_of_clipped=mean_of_clipped,
    )
