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
estimator that applies the periodogram on aligned power-of-two blocks to
track a time-varying spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dyadic import block_exponent, fwht, grid_values, zero_pad
from .poly import WalshPolynomial
from .processes import MA_KINDS, ProcessSpec, SamplePath, dma_coefficient_rows


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


def _coeffs(obj) -> np.ndarray:
    if isinstance(obj, WalshPolynomial):
        return obj.coefficients
    return WalshPolynomial(np.asarray(obj, dtype=np.float64)).coefficients


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
    m = int(m)
    x = grid_values(m)  # checks m against GRID_EXPONENT_CAP before the grid is allocated
    u = np.atleast_1d(np.asarray(u_values, dtype=np.float64))
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
    u = np.atleast_1d(np.asarray(u_values, dtype=np.float64))
    lam = np.atleast_1d(np.asarray(lambda_values, dtype=np.float64))
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
    a = _coeffs(coeffs)
    tau = int(tau)
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if tau >= a.size:
        return 0.0
    idx = np.arange(a.size) ^ tau
    return float(sigma**2 * np.dot(a, a[idx]))


def covariance_from_density(density_row, tau: int) -> float:
    """R(tau) as the exact grid quadrature of W(tau, x) against the density.

    The density of a finite-order process is constant on dyadic cells, so
    the integral over [0, 1) is the plain average over grid_points(m).
    """
    g = np.asarray(density_row, dtype=np.float64)
    if g.ndim != 1:
        raise ValueError(f"density row must be one-dimensional, got shape {g.shape}")
    block_exponent(g.size, "density row length")
    tau = int(tau)
    if not 0 <= tau < g.size:
        raise ValueError(f"tau must lie in [0, {g.size}), got {tau}")
    return float(fwht(g)[tau] / g.size)


def empirical_dyadic_covariance(path, tau: int, segment: tuple[int, int] | None = None) -> float:
    """Sample XOR-lag covariance over an aligned segment of the path.

    (1/N) sum over the segment of (X_t - mean)(X_{t XOR tau} - mean);
    alignment (start a multiple of N) keeps t XOR tau inside the segment.
    """
    values = path.values if isinstance(path, SamplePath) else np.asarray(path, dtype=np.float64)
    if segment is None:
        segment = (0, values.size)
    start, n = map(int, segment)
    block_exponent(n, "segment length")
    if start % n != 0:
        raise ValueError(f"segment start {start} is not aligned to length {n}")
    if start < 0 or start + n > values.size:
        raise ValueError("segment leaves the path")
    tau = int(tau)
    if not 0 <= tau < n:
        raise ValueError(f"tau must lie in [0, {n}), got {tau}")
    seg = values[start : start + n]
    centered = seg - np.mean(seg)
    return float(np.dot(centered, centered[np.arange(n) ^ tau]) / n)


# --------------------------------------------------------------------------
# estimation from data


def _segment_periodograms(values: np.ndarray, N: int, step: int) -> tuple[np.ndarray, np.ndarray]:
    """Starts and the (segments, N) periodogram rows d*d/N of every N-point segment.

    The segments start at 0, step, 2*step, ... and end inside ``values``;
    one `fwht` call transforms all of them.
    """
    d = fwht(np.lib.stride_tricks.sliding_window_view(values, N)[::step])
    d *= d
    d /= N
    return np.arange(0, values.size - N + 1, step), d


def _smooth_rows(values: np.ndarray, w: int) -> np.ndarray:
    """Moving average over 2*w+1 adjacent bins of each row, reflecting at the row ends.

    Each row is padded as ``np.pad(row, w, mode="symmetric")`` does (the
    reflection repeats with period 2n when w > n), the padded rows are
    laid end to end and convolved once, and the outputs that overlap a
    row boundary are dropped.  Each kept output is the same dot product
    over the same 2*w+1 values as a per-row ``mode="valid"`` convolution.
    """
    rows, n = values.shape
    idx = np.arange(-w, n + w) % (2 * n)
    padded = values[:, np.minimum(idx, 2 * n - 1 - idx)]
    kernel = np.full(2 * w + 1, 1.0 / (2 * w + 1))
    full = np.convolve(padded.reshape(-1), kernel)  # "full": 2*w partial outputs lead
    return full[2 * w :].reshape(rows, n + 2 * w)[:, :n]


def walsh_periodogram(data) -> Periodogram:
    """Periodogram I(x_j) = d(x_j)**2 / N of a whole series of power-of-two length N.

    The series is one segment starting at 0, so its rescaled midpoint u0 is
    1/2; `segmented_local_spectrum` gives the periodograms of sub-segments.
    """
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"periodogram needs a one-dimensional segment, got shape {x.shape}")
    n = x.size
    return Periodogram(
        segment_start=0,
        size=n,
        u0=0.5,
        x_values=grid_values(block_exponent(n, "segment length")),
        values=_segment_periodograms(x, n, n)[1][0],
    )


def smooth_periodogram(p: Periodogram, half_width: int) -> Periodogram:
    """Moving average over 2*half_width+1 adjacent bins, reflecting at the ends.

    Reflection keeps the total mass unchanged; half_width=0 is the identity.
    """
    w = int(half_width)
    if w < 0:
        raise ValueError("half_width must be >= 0")
    if w == 0:
        return p
    return replace(p, values=_smooth_rows(p.values[None, :], w)[0])


def segmented_local_spectrum(path, N: int, step: int | None = None) -> list[Periodogram]:
    """Per-segment periodograms of a path, tracking a time-varying spectrum.

    Default is aligned, non-overlapping segments (step = N), for which
    the XOR indexing of each segment is internally consistent; other
    steps give overlapping segments, useful as a smoother but heuristic.
    """
    values = path.values if isinstance(path, SamplePath) else np.asarray(path, dtype=np.float64)
    T = values.size
    N = int(N)
    m = block_exponent(N, "segment length")
    if N > T:
        raise ValueError(f"segment length {N} exceeds the path length {T}")
    if step is None:
        step = N
    step = int(step)
    if step < 1:
        raise ValueError("step must be >= 1")
    starts, rows = _segment_periodograms(values, N, step)
    x = grid_values(m)
    return [
        Periodogram(segment_start=s, size=N, u0=(s + N / 2) / T, x_values=x, values=row)
        for s, row in zip(starts.tolist(), rows)
    ]
