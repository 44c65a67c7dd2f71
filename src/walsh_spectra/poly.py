"""Algebra of finite Walsh polynomials under XOR convolution.

A Walsh polynomial is a finite expansion ``phi(x) = sum_j c_j W(j, x)``
with coefficients on a power-of-two index block.  The product of two such
polynomials is the XOR convolution of their coefficients, and the algebra
is diagonalized by the Walsh-Hadamard transform: the grid values
``phi(x_0), ..., phi(x_{L-1})`` are the eigenvalues of the coset matrix
``Sigma[i, j] = c_{i XOR j}``.  Division runs through that
diagonalization in O(L log L) in one routine, `grid_ratio`: reciprocals,
the autoregressive <-> moving-average conversions and the batched
per-u conversions of the time-varying processes all call it, so they
share one arithmetic and one singularity check.  The dense linear-algebra
routes survive in the test suite as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import as_finite_array, as_int, block_exponent, fwht, walsh, zero_pad

#: relative threshold below which a grid value counts as a zero of the polynomial
SINGULARITY_RTOL = 1e-9


class SingularPolynomialError(ValueError):
    """The polynomial vanishes at a grid point, so it has no reciprocal.

    Carries the offending grid index and value.  When raised while
    converting a time-varying process, the rescaled time is attached by
    the caller via the ``where`` argument.
    """

    def __init__(self, grid_index: int, value: float, where=None):
        self.grid_index = grid_index
        self.value = value
        self.where = where
        at = f" (at u={where})" if where is not None else ""
        super().__init__(
            f"polynomial vanishes at grid point {grid_index}{at}: value {value!r}"
        )


@dataclass(frozen=True)
class WalshPolynomial:
    """Coefficient vector (c_0, ..., c_{L-1}), zero-padded to L = 2**m."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = as_finite_array(np.atleast_1d(self.coefficients), "coefficients")
        if c.size == 0:
            raise ValueError("need at least one coefficient")
        object.__setattr__(self, "coefficients", zero_pad(c))

    @property
    def length(self) -> int:
        return self.coefficients.size

    def padded_to(self, length: int) -> "WalshPolynomial":
        return WalshPolynomial(zero_pad(self.coefficients, 1 << block_exponent(as_int(length, "length", self.length))))

    def evaluate(self, x) -> float:
        """Pointwise value sum_j c_j W(j, x); constant on each dyadic cell."""
        total = 0.0
        for j, c in enumerate(self.coefficients):
            if c != 0.0:
                total += c * walsh(j, x)
        return total

    def grid_values(self) -> np.ndarray:
        """Values (phi(x_0), ..., phi(x_{L-1})) on the dyadic grid, via `fwht`."""
        return fwht(self.coefficients)

    def __eq__(self, other):
        if not isinstance(other, WalshPolynomial):
            return NotImplemented
        return bool(np.array_equal(*_common(self, other)))


def unit(length: int = 1) -> WalshPolynomial:
    """The constant polynomial 1 (coefficient vector e_0), the convolution unit."""
    return WalshPolynomial(zero_pad([1.0], 1 << block_exponent(length)))


def _common(a: WalshPolynomial, b: WalshPolynomial) -> tuple[np.ndarray, np.ndarray]:
    size = max(a.length, b.length)
    return zero_pad(a.coefficients, size), zero_pad(b.coefficients, size)


def xor_convolve(a: WalshPolynomial, b: WalshPolynomial) -> WalshPolynomial:
    """Coefficient product c_h = sum_j a_j b_{j XOR h}.

    Equals the pointwise product of grid values, so it is computed as
    transform -> multiply -> inverse transform.
    """
    ca, cb = _common(a, b)
    size = ca.size
    return WalshPolynomial(fwht(fwht(ca) * fwht(cb)) / size)


def sigma_matrix(poly: WalshPolynomial) -> np.ndarray:
    """XOR-coset matrix with entry [i, j] = c_{i XOR j} (symmetric)."""
    idx = np.arange(poly.length)
    return poly.coefficients[idx[:, None] ^ idx[None, :]]


def sigma_determinant(poly: WalshPolynomial) -> float:
    """det of `sigma_matrix`, computed as the product of the grid values.

    Nonzero exactly when the polynomial has no zero grid value, which is
    the invertibility condition used throughout.
    """
    return float(np.prod(poly.grid_values()))


def grid_ratio(num, den, where=None) -> np.ndarray:
    """Coefficients of the ratio num / den of Walsh polynomials, row by row.

    Both operands hold coefficient vectors along their last axis (any
    leading axes are rows) and are zero-padded to the longer block, whose
    length must be a power of two (the error names ``num`` or ``den``).
    Each row is divided on the dyadic grid: transform, divide, transform back.

    Raises `SingularPolynomialError` when some grid value of a ``den``
    row is within ``SINGULARITY_RTOL`` of that row's largest; for stacked
    rows ``where[i]`` labels row i in the error (e.g. its rescaled time).
    """
    num_size, den_size = np.shape(num)[-1], np.shape(den)[-1]
    size = max(num_size, den_size)  # the longer operand sets the block both are padded to
    block_exponent(size, "den length" if den_size > num_size else "num length")
    num, den = zero_pad(num, size), zero_pad(den, size)
    den_grid = fwht(den)
    scale = np.max(np.abs(den_grid), axis=-1, keepdims=True)
    bad = np.abs(den_grid) <= SINGULARITY_RTOL * np.maximum(scale, 1e-300)
    if np.any(bad):
        first = np.argwhere(bad)[0]
        at = None if where is None else float(where[first[0]])
        raise SingularPolynomialError(int(first[-1]), float(den_grid[tuple(first)]), where=at)
    return fwht(fwht(num) / den_grid) / size


def invert(poly: WalshPolynomial) -> WalshPolynomial:
    """Reciprocal polynomial eta with phi(x) * eta(x) = 1 on [0, 1).

    Computed on the grid by `grid_ratio`, which is the O(L log L) route;
    the dense solve ``sigma_matrix(phi) @ d = e_0`` gives the same
    coefficients and is kept as a test oracle.  Raises
    `SingularPolynomialError` when the polynomial has a zero grid value.
    """
    return WalshPolynomial(grid_ratio(unit(poly.length).coefficients, poly.coefficients))


def to_moving_average(ar: WalshPolynomial, ma: WalshPolynomial) -> WalshPolynomial:
    """Moving-average coefficients K with ar * K = ma (convolution sense).

    Both operands are zero-padded to the larger block before converting.
    Raises `SingularPolynomialError` if the autoregressive polynomial has
    a zero grid value.
    """
    return WalshPolynomial(grid_ratio(ma.coefficients, ar.coefficients))
