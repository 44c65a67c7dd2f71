"""Model-implied spectra/covariances and estimation from sample paths.

Model side: the dyadic spectral density of a (locally frozen)
moving-average process is ``g(u, x) = sigma**2 * A(u, x)**2`` with
``A(u, .)`` the Walsh polynomial of the frozen coefficients; for
comparison the classical time-varying density
``f(u, lam) = sigma**2/(2 pi) |sum_k a_k(u) e^{-i lam k}|**2`` is also
provided.  Covariances follow by exact quadrature: finite-order densities
are step functions on dyadic cells, so integrals over [0, 1) are plain
grid averages.

Estimation side: the finite Walsh transform of a data segment, its
periodogram (squared transform over the segment length), optional moving
average smoothing over neighboring bins, and the segmented local
estimator `periodogram_grid` that applies the periodogram on aligned
power-of-two blocks to track a time-varying spectrum as a `SpectralGrid`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .dyadic import as_finite_array, as_int, block_exponent, fwht, grid_values, zero_pad
from .poly import WalshPolynomial
from .processes import MA_KINDS, InnovationSpec, ProcessSpec, SamplePath, dma_coefficient_rows


@dataclass(frozen=True)
class SpectralGrid:
    """Density values on a (rescaled time) x (frequency) grid."""

    u_values: np.ndarray
    x_values: np.ndarray  # dyadic grid points, or angular frequencies (Fourier density)
    values: np.ndarray  # shape (len(u_values), len(x_values))


@dataclass(frozen=True)
class Periodogram:
    """Walsh periodogram of one data segment."""

    segment_start: int
    size: int  # segment length N (power of two)
    u0: float  # rescaled midpoint of the segment
    x_values: np.ndarray
    values: np.ndarray


# --------------------------------------------------------------------------
# model-implied quantities


def tv_dyadic_density(spec: ProcessSpec, u_values, m: int) -> SpectralGrid:
    """Time-varying dyadic spectral density g(u, x) on grid_points(m).

    Each row is the squared Walsh-polynomial amplitude of the frozen
    moving-average coefficients at that u (autoregressive kinds are
    converted first), scaled by the innovation variance.  Values on a
    grid coarser than the coefficient block are exact point evaluations,
    computed at the block resolution and subsampled.
    """
    x = grid_values(m)  # checks that m is an integer in [0, GRID_EXPONENT_CAP] before the grid is allocated
    u = as_finite_array(np.atleast_1d(u_values), "u_values")
    rows = dma_coefficient_rows(spec, u)
    amps = fwht(zero_pad(rows, max(1 << m, rows.shape[1])))
    g = spec.innovations.sigma**2 * amps[:, :: amps.shape[1] >> m] ** 2
    return SpectralGrid(u_values=u, x_values=x, values=g)


def tv_fourier_density(spec: ProcessSpec, u_values, lambda_values) -> SpectralGrid:
    """Classical time-varying spectral density of the same coefficient curves.

    f(u, lam) = sigma**2 / (2 pi) * |sum_k a_k(u) exp(-i lam k)|**2, for
    moving-average kinds only.  The squared modulus is used (the sum is
    complex), which is the standard convention.
    """
    if spec.kind not in MA_KINDS:
        raise ValueError("the Fourier comparison density needs a moving-average kind")
    u = as_finite_array(np.atleast_1d(u_values), "u_values")
    lam = as_finite_array(np.atleast_1d(lambda_values), "lambda_values")
    rows = dma_coefficient_rows(spec, u)
    k = np.arange(rows.shape[1])
    phases = np.exp(-1j * lam[:, None] * k[None, :])  # (len(lam), L)
    transfer = rows @ phases.T  # (len(u), len(lam)) complex
    f = spec.innovations.sigma**2 / (2.0 * np.pi) * np.abs(transfer) ** 2
    return SpectralGrid(u_values=u, x_values=lam, values=f)


def dma_covariance(coeffs, sigma: float, tau: int) -> float:
    """Covariance R(tau) = sigma**2 sum_k a_k a_{k XOR tau} of a moving average.

    Closed form of the spectral integral (orthonormality collapses the
    cross terms).  Lags at or beyond the coefficient block are exactly 0.
    """
    a = (coeffs if isinstance(coeffs, WalshPolynomial) else WalshPolynomial(coeffs)).coefficients
    sigma = InnovationSpec(sigma=sigma).sigma  # the innovations' rule: a finite positive real number
    tau = as_int(tau, "tau", 0)
    if tau >= a.size:
        return 0.0
    idx = np.arange(a.size) ^ tau
    return float(sigma**2 * np.dot(a, a[idx]))


def covariance_from_density(density_row, tau: int) -> float:
    """R(tau) as the exact grid quadrature of W(tau, x) against the density.

    The density of a finite-order process is constant on dyadic cells, so
    the integral over [0, 1) is the plain average over grid_points(m).
    """
    g = as_finite_array(density_row, "density_row")
    block_exponent(g.size, "density row length")
    tau = as_int(tau, "tau", 0, g.size)
    return float(fwht(g)[tau] / g.size)


def empirical_dyadic_covariance(path, tau: int, segment: tuple[int, int] | None = None) -> float:
    """Sample XOR-lag covariance over an aligned segment of the path.

    (1/N) sum over the segment of (X_t - mean)(X_{t XOR tau} - mean);
    alignment (start a multiple of N) keeps t XOR tau inside the segment.
    The whole path is checked to be one-dimensional and finite, not only the segment.
    """
    values = as_finite_array(path.values if isinstance(path, SamplePath) else path, "path")
    if segment is None:
        segment = (0, values.size)
    start, n = (as_int(v, "segment") for v in segment)
    block_exponent(n, "segment length")
    if start % n != 0:
        raise ValueError(f"segment start {start} is not aligned to length {n}")
    if start < 0 or start + n > values.size:
        raise ValueError("segment leaves the path")
    tau = as_int(tau, "tau", 0, n)
    seg = values[start : start + n]
    centered = seg - np.mean(seg)
    return float(np.dot(centered, centered[np.arange(n) ^ tau]) / n)


# --------------------------------------------------------------------------
# estimation from data


def periodogram_grid(values, N: int, step: int | None = None) -> SpectralGrid:
    """Periodograms d*d/N of the N-point segments of a series, one row per segment.

    The segments start at 0, step, 2*step, ... and end inside the series
    of length T; row i sits at the rescaled midpoint (start_i + N/2) / T
    on x = grid_values(log2 N), and one `fwht` call transforms every
    segment.  Default is aligned, non-overlapping segments (step = N),
    for which the XOR indexing of each segment is internally consistent;
    other steps give overlapping segments, useful as a smoother but
    heuristic.
    """
    return _periodograms(as_finite_array(values, "values"), N, step)


def _periodograms(values: np.ndarray, N: int, step: int | None) -> SpectralGrid:
    """`periodogram_grid` of a checked one-dimensional float64 series."""
    T = values.size
    N = as_int(N, "N")
    m = block_exponent(N, "segment length")
    if N > T:
        raise ValueError(f"segment length {N} exceeds the path length {T}")
    step = N if step is None else as_int(step, "step", 1)
    x = grid_values(m)  # built before the transform: allocated after it, it raised the peak memory
    d = fwht(np.lib.stride_tricks.sliding_window_view(values, N)[::step])
    d *= d
    d /= N
    return SpectralGrid(u_values=(np.arange(0, T - N + 1, step) + N / 2) / T, x_values=x, values=d)


def walsh_periodogram(data) -> Periodogram:
    """Periodogram I(x_j) = d(x_j)**2 / N of a whole series of power-of-two length N.

    The series is one segment starting at 0, so its rescaled midpoint u0 is
    1/2; `periodogram_grid` gives the periodograms of sub-segments.
    """
    x = as_finite_array(data, "data")
    block_exponent(x.size, "data length")
    grid = _periodograms(x, x.size, None)
    return Periodogram(segment_start=0, size=x.size, u0=0.5, x_values=grid.x_values, values=grid.values[0])


@functools.lru_cache(maxsize=16)
def _reflection(n: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather index of ``np.pad(row, w, mode="symmetric")`` for rows of length n, and the 2*w+1 box kernel.

    Both are read-only and kept for the 16 most recent (n, w), because a
    segmented estimate smooths thousands of rows of one shape one
    `Periodogram` at a time.
    """
    idx = np.arange(-w, n + w) % (2 * n)
    idx = np.minimum(idx, 2 * n - 1 - idx)
    kernel = np.full(2 * w + 1, 1.0 / (2 * w + 1))
    idx.flags.writeable = kernel.flags.writeable = False
    return idx, kernel


def smooth_periodogram(p: Periodogram | SpectralGrid, half_width: int) -> Periodogram | SpectralGrid:
    """Moving average of each row over 2*half_width+1 adjacent bins, reflecting at the ends.

    Reflection keeps the total mass unchanged; half_width=0 is the identity.
    With w = half_width, each row is padded as ``np.pad(row, w,
    mode="symmetric")`` does (the reflection repeats with period 2n when
    w > n), the padded rows are laid end to end and convolved once, and
    the outputs that overlap a row boundary are dropped.  Each kept output
    is the same dot product over the same 2*w+1 values as a per-row
    ``mode="valid"`` convolution.
    """
    w = as_int(half_width, "half_width", 0)
    if w == 0:
        return p
    values = np.atleast_2d(p.values)
    rows, n = values.shape
    idx, kernel = _reflection(n, w)
    full = np.convolve(values[:, idx].reshape(-1), kernel)  # "full": 2*w partial outputs lead
    return replace(p, values=full[2 * w :].reshape(rows, n + 2 * w)[:, :n].reshape(p.values.shape))


def segmented_local_spectrum(path, N: int, step: int | None = None) -> list[Periodogram]:
    """The rows of `periodogram_grid` over a path, one `Periodogram` per segment."""
    values = path.values if isinstance(path, SamplePath) else np.asarray(path, dtype=np.float64)
    grid = periodogram_grid(values, N, step)
    N = grid.x_values.size
    return [
        # u0 = (start + N/2) / T, so rounding u0*T - N/2 recovers the start exactly
        Periodogram(segment_start=round(u0 * values.size - N / 2), size=N, u0=u0, x_values=grid.x_values, values=row)
        for u0, row in zip(grid.u_values.tolist(), grid.values)
    ]
