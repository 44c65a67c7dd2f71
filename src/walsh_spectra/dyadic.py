"""Dyadic (XOR) arithmetic, Walsh functions, and the fast Walsh-Hadamard transform.

Everything downstream reduces to the conventions fixed here:

* Time indices and lags are non-negative integers added bitwise (XOR).
* Points of the unit interval are dyadic rationals ``j / 2**m``, stored in
  canonical form (trailing zero bits stripped).  All integrals over [0, 1)
  of the functions handled by this package are exact finite sums on such
  grids, because every function involved is piecewise constant on dyadic
  cells.
* ``walsh(n, x)`` follows the Paley/Rademacher-product enumeration: the
  binary digits of ``n`` select which fractional bits of ``x`` contribute
  a sign.  On the grid ``x_j = j / 2**m`` this gives
  ``walsh(n, x_j) = (-1) ** <bits(n), reverse_bits_m(j)>``, so the fast
  transform is m constant-geometry stages (pair sums to the first half,
  differences to the second) followed by a bit reversal of the output
  index.  The sign-product evaluator is the reference; they must agree.

All transforms are unnormalized: applying `fwht` twice multiplies by the
length, which keeps the Hadamard matrix identities exact in integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INDEX_CAP = 1 << 62
GRID_EXPONENT_CAP = 24
MATRIX_EXPONENT_CAP = 12


def as_int(value, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as an int in [lo, hi) (either bound optional; hi only with lo).

    A bool, float, string or any other non-integer raises TypeError, and an
    int outside the bounds ValueError, each naming ``what`` and the value.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    n = int(value)
    if (lo is not None and n < lo) or (hi is not None and n >= hi):
        # a power of two above 2**32 reads 2**k: "[0, 2**64)", not twenty digits
        top = f"2**{hi.bit_length() - 1}" if hi is not None and hi > 1 << 32 and not hi & (hi - 1) else hi
        rule = f"be >= {lo}" if hi is None else f"lie in [{lo}, {top})"
        raise ValueError(f"{what} must {rule}, got {n}")
    return n


def is_real(x) -> bool:
    """An int, float or numpy number that is not a bool: True and "1" are not coerced to 1."""
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def as_real(value, what: str, lo: float | None = None, hi: float | None = None) -> float:
    """``value`` as a finite float in [lo, hi) (both bounds or neither).

    A non-real (a bool or string included) raises TypeError, and anything
    non-finite or outside the bounds ValueError, each naming ``what`` and the value.
    """
    if not is_real(value):
        raise TypeError(f"{what} must be a real number, got {value!r}")
    x = float(value)
    if not (math.isfinite(x) and (lo is None or lo <= x < hi)):
        raise ValueError(f"{what} must be a finite number{'' if lo is None else f' in [{lo}, {hi})'}, got {x}")
    return x


def as_finite_array(values, what: str) -> np.ndarray:
    """``values`` as a 1-D float64 array; any other shape, a NaN or an inf raises ValueError naming ``what``."""
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional, got shape {a.shape}")
    finite = np.isfinite(a)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"{what} must hold only finite values, got {a[i]} at index {i}")
    return a


def check_finite(values: np.ndarray, what: str, *axes: tuple[str, np.ndarray]) -> np.ndarray:
    """``values``, a result the package computed, once it is finite; else a ValueError naming ``what`` and a cell.

    Each axis is a (name, coordinates) pair for one trailing axis of ``values``; leading axes are replicates, so
    the cell named is the first at which any replicate is not finite.
    """
    finite = np.isfinite(values)
    if not finite.all():
        finite = finite.reshape((-1,) + values.shape[values.ndim - len(axes) :]).all(axis=0)
        cell = np.unravel_index(np.argmin(finite), finite.shape)
        at = ", ".join(f"{name}={coords[i].item()!r}" for (name, coords), i in zip(axes, cell))
        raise ValueError(f"{what} overflows float64 at {at}")
    return values


def dyadic_add(a: int, b: int) -> int:
    """Dyadic sum of two non-negative integers: bitwise exclusive-or.

    Commutative, associative, self-inverse (``dyadic_add(n, n) == 0``)
    with identity 0.
    """
    return as_int(a, "a", 0, INDEX_CAP) ^ as_int(b, "b", 0, INDEX_CAP)


@dataclass(frozen=True)
class DyadicPoint:
    """A dyadic rational ``numerator / 2**resolution`` in [0, 1).

    Stored in canonical form: trailing zero bits of the fractional
    expansion are stripped, so 2/4 and 1/2 compare equal.  This realizes
    the finite-expansion convention (expansions ending in all zeros).
    """

    numerator: int
    resolution: int

    def __post_init__(self):
        m = as_int(self.resolution, "resolution", 0)
        j = as_int(self.numerator, "numerator", 0)
        j = as_int(j, "numerator", 0, 1 << min(m, j.bit_length()))  # 2**m where j reaches it: a huge m builds no 2**m
        zeros = (j & -j).bit_length() - 1 if j else m  # trailing zero bits; 0 is 0/2**0
        j, m = j >> zeros, m - zeros
        object.__setattr__(self, "numerator", j)
        object.__setattr__(self, "resolution", m)

    @classmethod
    def from_float(cls, x: float) -> "DyadicPoint":
        """Exact conversion of a binary float in [0, 1)."""
        frac, exp = math.frexp(as_real(x, "point", 0, 1))  # x = frac * 2**exp, frac in [0.5, 1)
        mant = int(frac * (1 << 53))
        res = 53 - exp
        return cls(mant, res)

    @property
    def value(self) -> float:
        return self.numerator / (1 << self.resolution)

    def fractional_bit(self, i: int) -> int:
        """The digit x_i of x = sum_{i>=1} x_i 2**-i (0 beyond the resolution)."""
        i = as_int(i, "i", 1)
        if i > self.resolution:
            return 0
        return (self.numerator >> (self.resolution - i)) & 1

    def __float__(self) -> float:
        return self.value


def _as_point(x, what: str) -> DyadicPoint:
    return x if isinstance(x, DyadicPoint) else DyadicPoint.from_float(as_real(x, what, 0, 1))


def dyadic_add_points(x, y) -> DyadicPoint:
    """Dyadic sum of two points: XOR of fractional expansions at common resolution."""
    x, y = _as_point(x, "x"), _as_point(y, "y")
    m = max(x.resolution, y.resolution)
    jx = x.numerator << (m - x.resolution)
    jy = y.numerator << (m - y.resolution)
    return DyadicPoint(jx ^ jy, m)


def rademacher(k: int, x) -> int:
    """The k-th Rademacher sign of x: negative iff fractional bit k+1 is set."""
    k = as_int(k, "k", 0, INDEX_CAP)
    x = _as_point(x, "x")
    return -1 if x.fractional_bit(k + 1) else 1


def walsh(n: int, x) -> int:
    """Walsh function value W(n, x) in {-1, +1}.

    W(0, .) is identically +1; for n > 0 the value is the product of the
    Rademacher signs selected by the set bits of n.  This sign-product form
    is the reference implementation that the matrix and transform code is
    tested against.
    """
    n = as_int(n, "n", 0, INDEX_CAP)
    x = _as_point(x, "x")
    sign = 1
    i = 0
    while n:
        if n & 1 and x.fractional_bit(i + 1):
            sign = -sign
        n >>= 1
        i += 1
    return sign


def _check_grid_exponent(m) -> int:
    """m as an int in [0, GRID_EXPONENT_CAP]; a non-integer raises TypeError."""
    return as_int(m, "m", 0, GRID_EXPONENT_CAP + 1)


def grid_points(m: int) -> list[DyadicPoint]:
    """The 2**m dyadic grid points j / 2**m in increasing order."""
    m = _check_grid_exponent(m)
    return [DyadicPoint(j, m) for j in range(1 << m)]


def grid_values(m: int) -> np.ndarray:
    """Same grid as `grid_points`, as a float vector (plot/estimator axes)."""
    m = _check_grid_exponent(m)
    return np.arange(1 << m, dtype=np.float64) / (1 << m)


_BIT_REVERSAL: dict[int, np.ndarray] = {}


def bit_reversal_permutation(m: int) -> np.ndarray:
    """Vector r with r[j] = j with its low m bits reversed, read-only.

    Built once per m and then kept for the life of the process, because
    every `fwht` of length 2**m gathers its output through it.
    """
    rev = _BIT_REVERSAL.get(m)
    if rev is None:
        idx = np.arange(1 << m, dtype=np.int64)
        rev = np.zeros_like(idx)
        for k in range(m):
            rev |= ((idx >> k) & 1) << (m - 1 - k)
        rev.flags.writeable = False
        _BIT_REVERSAL[m] = rev
    return rev


def hadamard_matrix(m: int) -> np.ndarray:
    """Walsh-ordered Hadamard matrix: entry [j, n] = walsh(n, x_j), x_j = j/2**m.

    Integer matrix with H @ H.T == 2**m * I exactly.  It is symmetric, so
    it is also its own inverse up to the factor 2**m.  Note det is not
    always positive (m = 1 gives -2); only |det| = (2**m)**(2**(m-1)) is
    asserted by the test suite.
    """
    m = as_int(m, "m", 0, MATRIX_EXPONENT_CAP + 1)
    size = 1 << m
    rev = bit_reversal_permutation(m)
    n = np.arange(size, dtype=np.int64)
    overlap = np.bitwise_and(rev[:, None], n[None, :])
    parity = np.bitwise_count(overlap).astype(np.int64) & 1
    return (1 - 2 * parity).astype(np.int32)


def block_exponent(n: int, what: str = "length") -> int:
    """m for n = 2**m; a non-integer n raises TypeError and any other n ValueError, naming ``what``."""
    n = as_int(n, what)
    if n < 1 or n & (n - 1):
        raise ValueError(f"{what} must be a power of two, got {n}")
    return n.bit_length() - 1


def block_size(n: int) -> int:
    """The smallest power of two >= n (1 for n <= 1)."""
    return 1 << max(n - 1, 0).bit_length()


def zero_pad(a, size: int | None = None) -> np.ndarray:
    """``a`` as float64, last axis zero-padded to ``size`` (default `block_size`); no copy if already that long."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[-1]
    size = block_size(n) if size is None else size
    if size == n:
        return a
    out = np.zeros(a.shape[:-1] + (size,))
    out[..., :n] = a
    return out


def fwht(values) -> np.ndarray:
    """Fast Walsh-Hadamard transform along the last axis (unnormalized).

    Returns ``H @ v`` for the Walsh-ordered matrix of `hadamard_matrix`:
    ``out[..., j] = sum_n v[..., n] * walsh(n, x_j)``.  Each of m constant-
    geometry stages writes the sums of the pairs ``x[2k], x[2k+1]`` of the
    whole batch to the first half of the other buffer and the differences to
    the second: stage s combines the entries that differ in bit s of the
    index, bit-clear first, as an in-place butterfly does, so the bits agree.
    A bit-reversal gather then gives Walsh order.  Applying it twice multiplies by the length.
    """
    a = np.array(values, dtype=np.float64)
    if a.ndim == 0:
        raise ValueError(f"values must be at least one-dimensional, got shape {a.shape}")
    n = a.shape[-1]
    m = block_exponent(n)
    shape = a.shape
    a, b = a.reshape(-1), np.empty(a.size)  # the batch as one vector: each stage is two 1-D ufunc calls
    for _ in range(m):
        np.add(a[0::2], a[1::2], out=b[: a.size // 2])
        np.subtract(a[0::2], a[1::2], out=b[a.size // 2 :])
        a, b = b, a
    del b  # drop the spare buffer, so the gather holds only a and its result
    a = a.reshape(n, -1)  # the stages moved every index bit above the row: row j is output j of each input
    if m > 1:  # a row gather, then .T: the column-major layout that a[:, rev] gives a batch of rows
        return a[bit_reversal_permutation(m)].T.reshape(shape)
    return np.ascontiguousarray(a.T).reshape(shape)
