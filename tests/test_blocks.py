import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakdep import MovingAverage, UniformOnInterval, block_scheme, decompose, sample_path

U11 = UniformOnInterval(-1.0, 1.0)


def test_scheme_examples():
    s = block_scheme(10, 2)
    assert s.r_n == 2  # blocks cover 1..8, remainder 9..10
    assert block_scheme(8, 2).r_n == 2  # exact tiling
    assert block_scheme(4096, 97).r_n == 21  # floor(4096 / 194)


def test_scheme_rejects_oversized_blocks():
    with pytest.raises(ValueError):
        block_scheme(10, 6)
    with pytest.raises(ValueError):
        block_scheme(10, 0)


def test_decompose_constant_path():
    d = decompose(np.ones(6), block_scheme(6, 1))
    assert d.scheme.r_n == 3
    assert d.z_odd == 3.0 and d.z_even == 3.0 and d.remainder == 0.0


def test_decompose_hand_example():
    d = decompose(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), block_scheme(5, 1))
    assert d.scheme.r_n == 2
    assert d.z_odd == 4.0  # 1 + 3
    assert d.z_even == 6.0  # 2 + 4
    assert d.remainder == 5.0


def test_decompose_block_indexing():
    # block j sums indices (j-1)p+1 .. jp; oracle by explicit slicing
    values = np.arange(1.0, 14.0)  # n = 13
    s = block_scheme(13, 3)  # r = 2, four blocks, remainder 13
    d = decompose(values, s)
    expected_blocks = [values[i : i + 3].sum() for i in range(0, 12, 3)]
    assert np.allclose(d.blocks, expected_blocks)
    assert d.remainder == values[12]


def test_decompose_length_mismatch():
    with pytest.raises(ValueError):
        decompose(np.ones(5), block_scheme(6, 1))
    with pytest.raises(ValueError):
        decompose(np.ones((3, 5)), block_scheme(6, 1))


@pytest.mark.parametrize("n, p", [(4096, 97), (1000, 31), (777, 5), (64, 32)])
def test_decompose_stack_matches_rows(n, p):
    # a stack of paths is cut row by row along its last axis, bit for bit
    values = np.random.default_rng(n).normal(size=(40, n))
    s = block_scheme(n, p)
    d = decompose(values, s)
    rows = [decompose(row, s) for row in values]
    assert np.array_equal(d.blocks, np.stack([r.blocks for r in rows]))
    for field in ("z_odd", "z_even", "remainder"):
        assert np.array_equal(getattr(d, field), [getattr(r, field) for r in rows])


@given(
    st.integers(2, 1000),
    st.integers(1, 500),
    st.integers(0, 2**31),
)
@settings(max_examples=200, deadline=None)
def test_partition_identity_random_paths(n, p, seed):
    if p > n // 2:
        p = max(1, n // 2)
    values = np.random.default_rng(seed).normal(size=n)
    d = decompose(values, block_scheme(n, p))
    assert d.z_odd + d.z_even + d.remainder == pytest.approx(values.sum(), abs=1e-12 * n)


def test_block_sums_bounded_by_c_p():
    model = MovingAverage(coeffs=(1.0, 1.0), law=U11)
    c = 2.0
    path = sample_path(model, 256, 9)
    s = block_scheme(256, 8)
    d = decompose(path, s)
    assert np.all(np.abs(d.blocks) <= c * s.p_n + 1e-12)
    # remainder negligibility: |R| <= 2 c p for bounded-by-c paths
    s2 = block_scheme(250, 8)
    d2 = decompose(sample_path(model, 250, 9), s2)
    assert abs(d2.remainder) <= 2 * c * s2.p_n
