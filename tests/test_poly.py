import numpy as np
import pytest

from walsh_spectra.dyadic import DyadicPoint, fwht, hadamard_matrix
from walsh_spectra.poly import (
    SingularPolynomialError,
    WalshPolynomial,
    grid_ratio,
    invert,
    sigma_determinant,
    sigma_matrix,
    to_moving_average,
    unit,
    xor_convolve,
)

from oracles import oracle_xor_convolve, random_nonsingular_coefficients

HALF = DyadicPoint(1, 1)


def test_coefficients_padded_to_power_of_two():
    p = WalshPolynomial([1.0, 2.0, 3.0])
    assert p.length == 4
    assert p.coefficients.tolist() == [1.0, 2.0, 3.0, 0.0]
    assert p == WalshPolynomial([1.0, 2.0, 3.0, 0.0])
    assert WalshPolynomial([1.0]) == unit(4) and WalshPolynomial([1.0]) != 1  # equal only to a polynomial


def test_coefficients_are_checked():
    # 2-D and non-finite coefficients are rows of ARRAY_ARGUMENTS in tests/test_arguments.py
    with pytest.raises(ValueError, match="^need at least one coefficient$"):
        WalshPolynomial([])
    assert WalshPolynomial(2.5) == WalshPolynomial([2.5])  # a scalar is one coefficient


def test_evaluate_examples():
    p = WalshPolynomial([2.0, 1.0])
    assert p.evaluate(DyadicPoint(0, 0)) == 3.0
    assert p.evaluate(HALF) == 1.0
    for x in (0.0, 0.25, 0.5, 0.875):
        assert unit(4).evaluate(DyadicPoint.from_float(x)) == 1.0


def test_grid_values_examples():
    assert WalshPolynomial([2.0, 1.0]).grid_values().tolist() == [3.0, 1.0]
    assert unit(8).grid_values().tolist() == [1.0] * 8
    assert WalshPolynomial([1.0, 1.0]).grid_values().tolist() == [2.0, 0.0]


def test_grid_values_match_pointwise_evaluation():
    rng = np.random.default_rng(10)
    for m in range(0, 5):
        p = WalshPolynomial(rng.standard_normal(1 << m))
        grid = p.grid_values()
        for j in range(1 << m):
            assert abs(grid[j] - p.evaluate(DyadicPoint(j, m))) < 1e-12


def test_from_grid_examples():
    # the coefficients taking values v on the grid are fwht(v) / len(v)
    assert WalshPolynomial(fwht(np.ones(8)) / 8) == unit(8)
    assert WalshPolynomial(fwht([3.0, 1.0]) / 2) == WalshPolynomial([2.0, 1.0])
    rng = np.random.default_rng(11)
    p = WalshPolynomial(rng.standard_normal(16))
    back = WalshPolynomial(fwht(p.grid_values()) / 16)
    assert np.allclose(back.coefficients, p.coefficients, atol=1e-12)


def test_xor_convolve_examples():
    k = xor_convolve(WalshPolynomial([2.0, 1.0]), WalshPolynomial([2 / 3, -1 / 3]))
    assert np.allclose(k.coefficients, [1.0, 0.0], atol=1e-12)
    a = WalshPolynomial([0.3, -1.2, 0.5, 2.0])
    assert np.allclose(xor_convolve(a, unit()).coefficients, a.coefficients, atol=1e-12)
    assert np.allclose(
        xor_convolve(WalshPolynomial([1.0, 1.0]), WalshPolynomial([1.0, 1.0])).coefficients,
        [2.0, 2.0],
        atol=1e-12,
    )


def test_xor_convolve_matches_double_loop():
    rng = np.random.default_rng(12)
    for size in (2, 4, 8, 16):
        a = rng.standard_normal(size)
        b = rng.standard_normal(size)
        got = xor_convolve(WalshPolynomial(a), WalshPolynomial(b)).coefficients
        assert np.allclose(got, oracle_xor_convolve(a, b), atol=1e-10)


def test_sigma_matrix_examples():
    assert sigma_matrix(WalshPolynomial([2.0, 1.0])).tolist() == [[2, 1], [1, 2]]
    assert np.array_equal(sigma_matrix(unit(4)), np.eye(4))
    assert sigma_matrix(WalshPolynomial([1.0, 1.0])).tolist() == [[1, 1], [1, 1]]
    s = sigma_matrix(WalshPolynomial(np.random.default_rng(13).standard_normal(8)))
    assert np.array_equal(s, s.T)


def test_sigma_determinant_examples():
    assert sigma_determinant(WalshPolynomial([2.0, 1.0])) == pytest.approx(3.0)
    assert sigma_determinant(unit(16)) == pytest.approx(1.0)
    assert sigma_determinant(WalshPolynomial([1.0, 1.0])) == pytest.approx(0.0)


def test_sigma_determinant_matches_dense_oracle():
    rng = np.random.default_rng(14)
    for size in (2, 4, 8, 16):
        for _ in range(50):
            p = WalshPolynomial(rng.standard_normal(size))
            lhs = sigma_determinant(p)
            rhs = float(np.linalg.det(sigma_matrix(p)))
            assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1e-12)


def test_sigma_diagonalized_by_hadamard():
    rng = np.random.default_rng(15)
    for size in (2, 4, 8, 16):
        p = WalshPolynomial(rng.standard_normal(size))
        h = hadamard_matrix(size.bit_length() - 1).astype(np.float64)
        lhs = sigma_matrix(p) @ h
        rhs = h @ np.diag(p.grid_values())
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_invert_examples():
    eta = invert(WalshPolynomial([2.0, 1.0]))
    assert np.allclose(eta.coefficients, [2 / 3, -1 / 3], atol=1e-12)
    assert invert(unit(4)) == unit(4)
    with pytest.raises(SingularPolynomialError) as excinfo:
        invert(WalshPolynomial([1.0, 1.0]))
    assert excinfo.value.grid_index == 1


def test_invert_properties():
    rng = np.random.default_rng(16)
    for size in (2, 4, 8, 16):
        c = random_nonsingular_coefficients(rng, size)
        p = WalshPolynomial(c)
        eta = invert(p)
        conv = xor_convolve(p, eta).coefficients
        assert np.max(np.abs(conv - unit(size).coefficients)) < 1e-10
        resid = sigma_matrix(p) @ eta.coefficients - unit(size).coefficients
        assert np.max(np.abs(resid)) < 1e-10


def test_invert_agrees_with_dense_solve():
    rng = np.random.default_rng(17)
    for size in (2, 4, 8):
        p = WalshPolynomial(random_nonsingular_coefficients(rng, size))
        d_dense = np.linalg.solve(sigma_matrix(p), unit(size).coefficients)
        assert np.allclose(invert(p).coefficients, d_dense, atol=1e-10)


def test_to_moving_average_examples():
    k = to_moving_average(WalshPolynomial([2.0, 1.0]), unit())
    assert np.allclose(k.coefficients, [2 / 3, -1 / 3], atol=1e-12)
    ma = WalshPolynomial([0.7, -0.2])
    assert np.allclose(to_moving_average(unit(), ma).coefficients, ma.coefficients, atol=1e-12)
    k = to_moving_average(WalshPolynomial([2.0, 1.0]), WalshPolynomial([1.0, 1.0]))
    assert np.allclose(k.coefficients, [1 / 3, 1 / 3], atol=1e-12)


def test_to_moving_average_overflow_is_caught_by_the_result_check():
    # grid values of 2e308 overflow to inf; only WalshPolynomial's check of the computed coefficients raises
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(ValueError, match=r"^coefficients must hold only finite values, got inf at index 0$"):
            to_moving_average(WalshPolynomial([1.0, 0.5]), WalshPolynomial([1e308, 1e308]))


def test_to_moving_average_substitution_identity():
    # with K = conversion of (b, a), the series sum_j K_j eps_{t XOR j}
    # satisfies the recursion sum_k b_k X_{t XOR k} = sum_n a_n eps_{t XOR n}
    rng = np.random.default_rng(18)
    b = random_nonsingular_coefficients(rng, 4)
    a = rng.standard_normal(4)
    k = to_moving_average(WalshPolynomial(b), WalshPolynomial(a)).coefficients
    eps = rng.standard_normal(16)
    t_idx = np.arange(16)
    x = np.zeros(16)
    for j in range(4):
        x += k[j] * eps[t_idx ^ j]
    lhs = np.zeros(16)
    for kk in range(4):
        lhs += b[kk] * x[t_idx ^ kk]
    rhs = np.zeros(16)
    for n in range(4):
        rhs += a[n] * eps[t_idx ^ n]
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_to_autoregressive_examples():
    # G with ma * G = ar is grid_ratio(ar, ma), the route of `convert --target dar`
    g = grid_ratio(unit().coefficients, [2.0, 1.0])
    assert np.allclose(g, [2 / 3, -1 / 3], atol=1e-12)
    ar = WalshPolynomial([1.0, 0.4])
    assert np.allclose(grid_ratio(ar.coefficients, unit().coefficients), ar.coefficients, atol=1e-12)
    with pytest.raises(SingularPolynomialError):
        grid_ratio([1.0, 0.3], [1.0, 1.0])


def test_conversion_duality():
    rng = np.random.default_rng(19)
    b = random_nonsingular_coefficients(rng, 8)
    a = random_nonsingular_coefficients(rng, 8)
    k = to_moving_average(WalshPolynomial(b), WalshPolynomial(a))
    g = WalshPolynomial(grid_ratio(b, a))
    # K and G are reciprocal on the grid
    assert np.allclose(k.grid_values() * g.grid_values(), np.ones(8), atol=1e-10)


def test_conversion_index_forms_agree():
    # the two literal summation forms of the converted coefficients
    # (g against a with the XOR on either index) are the same vector
    rng = np.random.default_rng(20)
    for p_len, r_len in ((2, 4), (4, 2), (4, 4)):
        size = max(p_len, r_len)
        b = np.zeros(size)
        b[:p_len] = random_nonsingular_coefficients(rng, p_len)
        a = np.zeros(size)
        a[:r_len] = rng.standard_normal(r_len)
        g = invert(WalshPolynomial(b)).coefficients
        form1 = np.array([sum(g[s] * a[s ^ j] for s in range(size)) for j in range(size)])
        form2 = np.array([sum(g[s ^ j] * a[s] for s in range(size)) for j in range(size)])
        assert np.allclose(form1, form2, atol=1e-12)
        k = to_moving_average(WalshPolynomial(b), WalshPolynomial(a)).coefficients
        assert np.allclose(form1, k, atol=1e-10)


def test_operator_identity_for_conversion():
    # dense check: solve(Sigma(b), Sigma(a)) equals Sigma(K)
    rng = np.random.default_rng(21)
    b = random_nonsingular_coefficients(rng, 4)
    a = rng.standard_normal(4)
    k = to_moving_average(WalshPolynomial(b), WalshPolynomial(a))
    lhs = np.linalg.solve(sigma_matrix(WalshPolynomial(b)), sigma_matrix(WalshPolynomial(a)))
    assert np.allclose(lhs, sigma_matrix(k), atol=1e-9)


def test_mixed_length_operands_are_padded():
    k = to_moving_average(WalshPolynomial([2.0, 1.0]), WalshPolynomial([1.0, 0.5, 0.25, 0.0]))
    assert k.length == 4
    eta = invert(WalshPolynomial([2.0, 1.0])).padded_to(4)
    expect = xor_convolve(eta, WalshPolynomial([1.0, 0.5, 0.25, 0.0]))
    assert np.allclose(k.coefficients, expect.coefficients, atol=1e-12)


@pytest.mark.parametrize("num, den, message", [
    ([1.0, np.nan], [1.0, 0.5], "num must hold only finite values, got nan at index 1"),
    ([1.0, 0.5], [[1.0, 0.5], [-np.inf, 0.25]], "den must hold only finite values, got -inf at index 2"),
], ids=["nan-num", "inf-den"])
def test_grid_ratio_refuses_an_operand_that_is_not_finite(num, den, message):
    # a NaN numerator gave [nan nan] silently, and an infinite denominator was called singular
    with pytest.raises(ValueError) as excinfo:
        grid_ratio(num, den)
    assert str(excinfo.value) == message


def test_grid_ratio_rows_match_single_conversions():
    # stacked rows of different block lengths convert exactly as one row at a time
    rng = np.random.default_rng(22)
    b = np.array([random_nonsingular_coefficients(rng, 2) for _ in range(5)])
    a = rng.standard_normal((5, 4))
    rows = grid_ratio(a, b)
    assert rows.shape == (5, 4)
    for i in range(5):
        single = to_moving_average(WalshPolynomial(b[i]), WalshPolynomial(a[i])).coefficients
        assert np.array_equal(rows[i], single)
    b[3] = [1.0, 1.0]
    with pytest.raises(SingularPolynomialError) as excinfo:
        grid_ratio(a, b, where=np.linspace(0.0, 1.0, 5))
    assert excinfo.value.where == 0.75
    assert excinfo.value.grid_index == 2  # [1, 1] padded to length 4 vanishes on [1/2, 1)
