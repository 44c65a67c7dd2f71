import tracemalloc

import numpy as np
import pytest

from walsh_spectra.dyadic import (
    DyadicPoint,
    bit_reversal_permutation,
    dyadic_add,
    dyadic_add_points,
    fwht,
    grid_points,
    grid_values,
    hadamard_matrix,
    rademacher,
    walsh,
)

from oracles import oracle_hadamard, oracle_transform, oracle_walsh


@pytest.mark.parametrize(
    "a,b,expected",
    [(5, 3, 6), (7, 7, 0), (12, 0, 12), (1, 2, 3), (6, 6, 0)],
)
def test_dyadic_add_examples(a, b, expected):
    assert dyadic_add(a, b) == expected


def test_dyadic_add_group_laws():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, b, c = (int(v) for v in rng.integers(0, 1 << 40, size=3))
        assert dyadic_add(a, b) == dyadic_add(b, a)
        assert dyadic_add(dyadic_add(a, b), c) == dyadic_add(a, dyadic_add(b, c))
        assert dyadic_add(a, a) == 0
        assert dyadic_add(a, 0) == a


def test_dyadic_add_rejects_bad_input():
    with pytest.raises(ValueError):
        dyadic_add(-1, 2)
    with pytest.raises(TypeError):
        dyadic_add(1.5, 2)
    with pytest.raises(ValueError):
        dyadic_add(1 << 62, 0)


def test_point_canonical_form():
    assert DyadicPoint(2, 2) == DyadicPoint(1, 1)
    assert DyadicPoint(0, 5) == DyadicPoint(0, 0)
    assert DyadicPoint(3, 2).value == 0.75
    with pytest.raises(ValueError):
        DyadicPoint(4, 2)  # would be >= 1


def test_point_numerator_is_bounded_by_its_own_resolution():
    # the bound is 2**resolution at every resolution, past 62 bits too, and a huge resolution costs no 2**resolution
    assert DyadicPoint(2**62, 63) == DyadicPoint(1, 1)
    assert dyadic_add_points(2**-70, 0.5) == DyadicPoint(2**69 + 1, 70)
    assert DyadicPoint(1, 10**12).resolution == 10**12
    with pytest.raises(ValueError, match=r"^numerator must lie in \[0, 2\*\*63\), got 9223372036854775808$"):
        DyadicPoint(2**63, 63)


def test_point_bits_and_float():
    p = DyadicPoint(1, 2)  # 0.01 in binary
    assert [p.fractional_bit(i) for i in (1, 2, 3)] == [0, 1, 0]
    assert float(p) == 0.25
    with pytest.raises(ValueError, match="^i must be >= 1, got 0$"):
        p.fractional_bit(0)


def test_point_from_float_is_exact():
    for x in (0.0, 0.5, 0.375, 0.681640625):
        assert DyadicPoint.from_float(x).value == x
    with pytest.raises(ValueError):
        DyadicPoint.from_float(1.0)


@pytest.mark.parametrize(
    "x,y,expected",
    [
        (DyadicPoint(1, 2), DyadicPoint(1, 2), DyadicPoint(0, 0)),
        (DyadicPoint(1, 1), DyadicPoint(1, 2), DyadicPoint(3, 2)),
        (DyadicPoint(5, 3), DyadicPoint(0, 0), DyadicPoint(5, 3)),
    ],
)
def test_dyadic_add_points_examples(x, y, expected):
    assert dyadic_add_points(x, y) == expected


def test_rademacher_examples():
    assert rademacher(0, DyadicPoint(1, 1)) == -1  # x = 1/2
    assert rademacher(0, DyadicPoint(1, 2)) == 1  # x = 1/4
    for k in range(6):
        assert rademacher(k, DyadicPoint(0, 0)) == 1


def test_walsh_examples():
    for x in grid_points(3):
        assert walsh(0, x) == 1
    assert walsh(1, DyadicPoint(1, 2)) == 1  # x = 1/4
    assert walsh(3, DyadicPoint(3, 2)) == 1  # (-1) * (-1)


def test_walsh_matches_oracle():
    m = 5
    for n in range(1 << m):
        for j in range(1 << m):
            assert walsh(n, DyadicPoint(j, m)) == oracle_walsh(n, j, m)


def test_walsh_multiplicativity_in_n():
    m = 6
    pts = grid_points(m)
    rng = np.random.default_rng(2)
    for _ in range(300):
        n, k = (int(v) for v in rng.integers(0, 1 << m, size=2))
        j = int(rng.integers(0, 1 << m))
        x = pts[j]
        assert walsh(n, x) * walsh(k, x) == walsh(n ^ k, x)


def test_walsh_multiplicativity_in_x():
    rng = np.random.default_rng(3)
    pts = grid_points(6)
    for _ in range(300):
        n = int(rng.integers(0, 64))
        x, y = (pts[int(i)] for i in rng.integers(0, 64, size=2))
        assert walsh(n, x) * walsh(n, y) == walsh(n, dyadic_add_points(x, y))


def test_grid_points_examples():
    assert [p.value for p in grid_points(1)] == [0.0, 0.5]
    assert [p.value for p in grid_points(2)] == [0.0, 0.25, 0.5, 0.75]
    assert [p.value for p in grid_points(0)] == [0.0]
    assert np.array_equal(grid_values(3), np.arange(8) / 8)
    with pytest.raises(ValueError):
        grid_points(25)


def test_hadamard_small_matrices():
    assert hadamard_matrix(0).tolist() == [[1]]
    assert hadamard_matrix(1).tolist() == [[1, 1], [1, -1]]
    with pytest.raises(ValueError):
        hadamard_matrix(13)


@pytest.mark.parametrize("m", range(0, 7))
def test_hadamard_identity_and_symmetry(m):
    h = hadamard_matrix(m).astype(np.int64)
    size = 1 << m
    assert np.array_equal(h, h.T)
    assert np.array_equal(h @ h.T, size * np.eye(size, dtype=np.int64))


@pytest.mark.parametrize("m", range(0, 5))
def test_hadamard_matches_definition(m):
    assert np.array_equal(hadamard_matrix(m).astype(np.int64), oracle_hadamard(m))


@pytest.mark.parametrize("m", range(0, 7))
def test_discrete_orthonormality_exact(m):
    h = hadamard_matrix(m).astype(np.int64)
    size = 1 << m
    gram = h.T @ h  # [n, n'] = sum_j W(n, x_j) W(n', x_j)
    assert np.array_equal(gram, size * np.eye(size, dtype=np.int64))


def test_fwht_basis_vector_gives_ones():
    e0 = np.zeros(16)
    e0[0] = 1.0
    assert np.array_equal(fwht(e0), np.ones(16))


def test_fwht_worked_example():
    assert np.array_equal(fwht([2.0, 1.0]), [3.0, 1.0])


def test_fwht_single_point():
    assert np.array_equal(fwht([4.25]), [4.25])


def test_fwht_involution_up_to_scale():
    rng = np.random.default_rng(4)
    for m in range(0, 8):
        v = rng.standard_normal(1 << m)
        assert np.allclose(fwht(fwht(v)), (1 << m) * v, atol=1e-10)
        assert np.allclose(fwht(fwht(v)) / (1 << m), v, atol=1e-12)


@pytest.mark.parametrize("m", range(0, 7))
def test_fwht_matches_matrix_oracle(m):
    rng = np.random.default_rng(5 + m)
    v = rng.standard_normal(1 << m)
    assert np.allclose(fwht(v), oracle_transform(v), atol=1e-10)


def test_fwht_batched_rows():
    rng = np.random.default_rng(6)
    batch = rng.standard_normal((5, 32))
    out = fwht(batch)
    for i in range(5):
        assert np.allclose(out[i], fwht(batch[i]))


@pytest.mark.parametrize("shape", [(1 << 16,), (128, 512)])
def test_fwht_peak_memory_is_two_buffers(shape):
    """The working copy and one spare buffer; the spare is dropped before the output gather."""
    v = np.random.default_rng(7).standard_normal(shape)
    fwht(v)  # builds the bit-reversal vector, which is kept, outside the measurement
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fwht(v)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * v.size * 8


def test_fwht_rejects_bad_length():
    with pytest.raises(ValueError):
        fwht([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fwht([])
    with pytest.raises(ValueError, match=r"^values must be at least one-dimensional, got shape \(\)$"):
        fwht(3.0)


def test_bit_reversal_permutation():
    assert bit_reversal_permutation(3).tolist() == [0, 4, 2, 6, 1, 5, 3, 7]
    perm = bit_reversal_permutation(6)
    assert np.array_equal(perm[perm], np.arange(64))  # involution
    # built once per m and shared, so no caller may write into it
    assert bit_reversal_permutation(6) is perm
    assert not perm.flags.writeable
