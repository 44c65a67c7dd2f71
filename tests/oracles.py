"""Independent reference implementations used to check the library.

Everything here is written directly from the defining formulas, without
calling into the package, so the tests compare two separate code paths.
"""

import math

import numpy as np

M64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def oracle_walsh(n: int, j: int, m: int) -> int:
    """Sign W(n, j/2**m) from the Rademacher-product definition.

    Bit i of n selects the (i+1)-th fractional binary digit of x = j/2**m,
    which is bit (m-1-i) of j; each selected set digit flips the sign.
    """
    sign = 1
    i = 0
    while n >> i:
        if (n >> i) & 1 and i < m and (j >> (m - 1 - i)) & 1:
            sign = -sign
        i += 1
    return sign


def oracle_hadamard(m: int) -> np.ndarray:
    size = 1 << m
    return np.array(
        [[oracle_walsh(n, j, m) for n in range(size)] for j in range(size)],
        dtype=np.int64,
    )


def oracle_transform(v) -> np.ndarray:
    """O(N**2) Walsh transform: out[j] = sum_n v[n] W(n, x_j)."""
    v = np.asarray(v, dtype=np.float64)
    m = v.size.bit_length() - 1
    return oracle_hadamard(m).astype(np.float64) @ v


def oracle_natural_butterfly(values) -> np.ndarray:
    """The in-place natural-order butterfly and its bit-reversal gather, along the last axis.

    Each stage h = 1, 2, 4, ... replaces the pair (a[i], a[i + h]), i with
    bit h clear, by (a[i] + a[i + h], a[i] - a[i + h]).  A constant-geometry
    transform does the same additions and subtractions on the same operands
    in the same order, so every non-NaN output agrees bit for bit.  NaN
    payloads need not: numpy's in-place add keeps the second operand's
    payload for some layouts (a single pair, or a (3, 8) batch at h = 2).
    """
    a = np.array(values, dtype=np.float64)
    n = a.shape[-1]
    m = n.bit_length() - 1
    shape = a.shape
    a = a.reshape(-1, n)
    rows = a.shape[0]
    h = 1
    while h < n:
        a = a.reshape(rows, n // (2 * h), 2, h)
        top = a[:, :, 0, :].copy()
        a[:, :, 0, :] += a[:, :, 1, :]
        a[:, :, 1, :] = top - a[:, :, 1, :]
        a = a.reshape(rows, n)
        h *= 2
    if m > 1:
        rev = np.array([int(format(j, f"0{m}b")[::-1], 2) for j in range(n)])
        a = a[:, rev]
    return a.reshape(shape)


def oracle_xor_convolve(a, b) -> np.ndarray:
    """Double-loop coefficient product c_h = sum_j a_j b_{j XOR h}."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    assert a.size == b.size
    out = np.zeros(a.size)
    for h in range(a.size):
        for j in range(a.size):
            out[h] += a[j] * b[j ^ h]
    return out


def oracle_xor_combine(coef, eps) -> np.ndarray:
    """Loop over t and k: out[t] = sum_k coef[t][k] * eps[t XOR k], summed for k = 0, 1, ... from +0.0."""
    coef = np.asarray(coef, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    T, L = coef.shape
    out = np.zeros(T)
    for t in range(T):
        acc = 0.0
        for k in range(L):
            acc += float(coef[t, k]) * float(eps[t ^ k])
        out[t] = acc
    return out


def oracle_window_sup_error(a, b, center: int, radius: int) -> float:
    """max |a[t] - b[t]| over the index window |t - center| <= radius, one index at a time."""
    return max(abs(float(a[t]) - float(b[t])) for t in range(center - radius, center + radius + 1))


def oracle_mix64(z: int) -> int:
    """SplitMix64 finalizer (Steele, Lea & Flood, OOPSLA 2014) on Python integers."""
    z &= M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


def oracle_word(seed: int, counter: int) -> int:
    """Word ``counter`` of the stream keyed by seed: mix((counter + 1) * gamma + mix(seed + gamma))."""
    return oracle_mix64((counter + 1) * GOLDEN_GAMMA + oracle_mix64(seed + GOLDEN_GAMMA))


def oracle_innovation(distribution: str, sigma: float, seed: int, i: int) -> float:
    """Innovation i, one value at a time: Box-Muller on words 2i and 2i+1, or a transform of word i."""
    if distribution == "gaussian":
        u1 = ((oracle_word(seed, 2 * i) >> 11) + 1) * 2.0**-53  # (0, 1]
        u2 = (oracle_word(seed, 2 * i + 1) >> 11) * 2.0**-53  # [0, 1)
        return sigma * (math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2))
    w = oracle_word(seed, i)
    if distribution == "rademacher":
        return sigma * (1.0 - 2.0 * (w >> 63))
    return sigma * math.sqrt(3.0) * (2.0 * ((w >> 11) * 2.0**-53) - 1.0)


def oracle_solve2(a, z) -> tuple[float, float]:
    """Solve the 2 x 2 system a x = z one float at a time, as LAPACK's getf2/getrs do.

    Partial pivoting on the larger |column 0| entry (the first of equal
    magnitudes), the multiplier through the reciprocal pivot, and no fused
    multiply-add: Python rounds every product and sum on its own.
    """
    (p0, p1), (q0, q1) = ((float(v) for v in row) for row in a)
    y0, y1 = (float(v) for v in z)
    if abs(q0) > abs(p0):
        p0, p1, y0, q0, q1, y1 = q0, q1, y1, p0, p1, y0
    l = q0 * (1.0 / p0)
    u11 = q1 - l * p1
    x1 = (y1 - l * y0) / u11
    return (y0 - x1 * p1) / p0, x1


def lapack_block_solve(b_rows, rhs) -> np.ndarray:
    """The XOR recursion sum_k b_rows[t, k] x[t XOR k] = rhs[t] solved by LAPACK on each dense aligned block.

    This is the route the library took for every block length before 2 x 2
    blocks got their closed form; the golden tests swap it in as the reference.
    Leading axes of rhs are replicates sharing the rows, each solved block by block.
    """
    b_rows = np.asarray(b_rows, dtype=np.float64)
    T, L = b_rows.shape
    if L == 1:
        return rhs / b_rows[:, 0]
    r = np.arange(L)
    mats = b_rows.reshape(T // L, L, L)[:, r[:, None], r[:, None] ^ r[None, :]]
    return np.linalg.solve(mats, np.reshape(rhs, np.shape(rhs)[:-1] + (T // L, L, 1))).reshape(np.shape(rhs))


def bareiss_determinant(matrix) -> int:
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    a = [[int(x) for x in row] for row in matrix]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def random_nonsingular_coefficients(rng, size: int, floor: float = 0.05) -> np.ndarray:
    """Draw coefficients whose grid values stay away from zero.

    Grid values are computed by the O(N**2) oracle, so the draw does not
    depend on the code under test.
    """
    while True:
        c = rng.standard_normal(size)
        grid = oracle_transform(c)
        if np.min(np.abs(grid)) > floor * np.max(np.abs(grid)):
            return c
