"""Block decomposition of sample paths.

A path of length n is cut into 2 r blocks of length p (r = floor(n / 2p)),
alternating odd/even block sums plus a remainder, so that
S_n = Z_odd + Z_even + R exactly.  A stack of paths is cut along its last
axis, each row exactly as it is cut on its own.
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
    """Block sums of one path; for a stack of paths each field holds one
    entry per path along the leading axes."""

    blocks: np.ndarray  # 2 r block sums, block j covers indices (j-1)p+1 .. jp
    z_odd: float
    z_even: float
    remainder: float
    scheme: BlockScheme


def decompose(path, scheme: BlockScheme) -> BlockDecomposition:
    """Cut a path, or each path of a stack along the last axis, into
    alternating block sums; z_odd + z_even + remainder = S_n."""
    values = np.asarray(path, dtype=float)
    if values.shape[-1:] != (scheme.n,):
        raise ValueError(f"path shape {values.shape} does not match scheme n={scheme.n}")
    p, r = scheme.p_n, scheme.r_n
    body = values[..., : 2 * r * p].reshape(*values.shape[:-1], 2 * r, p)
    blocks = body.sum(axis=-1)
    return BlockDecomposition(
        blocks=blocks,
        z_odd=blocks[..., 0::2].sum(axis=-1),
        z_even=blocks[..., 1::2].sum(axis=-1),
        remainder=values[..., 2 * r * p :].sum(axis=-1),
        scheme=scheme,
    )
