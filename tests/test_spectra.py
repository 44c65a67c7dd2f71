import math
import re
from dataclasses import replace

import numpy as np
import pytest

from walsh_spectra.dyadic import fwht, grid_values
from walsh_spectra.poly import SingularPolynomialError, WalshPolynomial
from walsh_spectra.processes import (
    InnovationSpec,
    SamplePath,
    coefficient_rows,
    defining_equation_residual,
    make_innovations,
    make_process_spec,
    simulate,
)
from walsh_spectra.spectra import (
    SpectralGrid,
    _reflection,
    covariance_from_density,
    dma_covariance,
    empirical_dyadic_covariance,
    periodogram_grid,
    segmented_local_spectrum,
    smooth_periodogram,
    tv_dyadic_density,
    tv_fourier_density,
    walsh_periodogram,
)

from oracles import oracle_transform


def fig1_spec(seed=0):
    return make_process_spec(
        "tvDMA", ma=["-1.8*cos(1.5-cos(4*pi*u))", "0.81"], seed=seed
    )


# ------------------------------------------------------------ model densities


def test_white_noise_density_is_flat():
    spec = make_process_spec("tvDMA", ma=["1"])
    grid = tv_dyadic_density(spec, np.linspace(0, 1, 5), 3)
    assert np.allclose(grid.values, 1.0, atol=1e-14)


def test_density_spot_values_at_u0():
    # hand evaluation: A(0, x) = a0(0) +/- a1 on the two half-cells
    a0 = -1.8 * math.cos(1.5 - math.cos(0.0))
    grid = tv_dyadic_density(fig1_spec(), [0.0], 1)
    assert grid.values[0, 0] == pytest.approx((a0 + 0.81) ** 2, abs=1e-12)
    assert grid.values[0, 1] == pytest.approx((a0 - 0.81) ** 2, abs=1e-12)


def test_density_finer_grid_repeats_cells():
    grid = tv_dyadic_density(fig1_spec(), [0.0, 0.4], 4)
    # an order-1 surface is constant on each half of the x axis
    assert np.ptp(grid.values[:, :8], axis=1) == pytest.approx([0.0, 0.0], abs=1e-14)
    assert np.ptp(grid.values[:, 8:], axis=1) == pytest.approx([0.0, 0.0], abs=1e-14)
    assert grid.x_values.size == 16


def test_density_nonnegative_and_scaled_by_variance():
    spec = make_process_spec("tvDMA", ma=["1.2*cos(2*pi*u)", "2*cos(1.5-cos(8*pi*u))", "u", "0"], sigma=1.7)
    grid = tv_dyadic_density(spec, np.linspace(0, 1, 33), 5)
    assert np.all(grid.values >= 0)
    unit_grid = tv_dyadic_density(
        make_process_spec("tvDMA", ma=["1.2*cos(2*pi*u)", "2*cos(1.5-cos(8*pi*u))", "u", "0"]),
        np.linspace(0, 1, 33),
        5,
    )
    assert np.allclose(grid.values, 1.7**2 * unit_grid.values, atol=1e-12)


def test_darma_density_is_ratio_of_squares():
    spec = make_process_spec("tvDARMA", ar=["1", "0.4"], ma=["1", "0.3"], sigma=1.2)
    grid = tv_dyadic_density(spec, [0.2, 0.9], 1)
    b = WalshPolynomial([1.0, 0.4]).grid_values()
    a = WalshPolynomial([1.0, 0.3]).grid_values()
    expect = 1.2**2 * a**2 / b**2
    assert np.allclose(grid.values, expect[None, :], atol=1e-10)


def test_density_coarse_grid_is_exact_subsample():
    # order-3 MA evaluated on the 2-point grid: values must equal the
    # polynomial evaluated at exactly x = 0 and x = 1/2
    spec = make_process_spec("tvDMA", ma=["1", "0.5*u", "0.25", "u"], sigma=1.1)
    grid = tv_dyadic_density(spec, [0.6], 1)
    from walsh_spectra.dyadic import DyadicPoint

    ma = WalshPolynomial(coefficient_rows(spec, 0.6)[1][0])
    for j, x in enumerate((DyadicPoint(0, 0), DyadicPoint(1, 1))):
        assert grid.values[0, j] == pytest.approx(1.1**2 * ma.evaluate(x) ** 2, abs=1e-12)


def test_spectrum_from_cov_matches_density():
    # g(x_j) = sum_{tau < 2**m} R(tau) W(tau, x_j): the dyadic spectrum is the
    # Walsh transform of the covariance sequence
    spec = make_process_spec("tvDMA", ma=["1", "0.5*u", "0.25", "u"], sigma=1.4)
    m = 3
    density = tv_dyadic_density(spec, [0.6], m).values[0]
    a = coefficient_rows(spec, 0.6)[1][0]
    r = np.array([dma_covariance(a, 1.4, tau) for tau in range(12)])
    f = fwht(r[: 1 << m])
    assert np.allclose(f, density, atol=1e-12)
    assert np.allclose(f, oracle_transform(r[: 1 << m]), atol=1e-12)


def test_density_singular_ar_reports_u():
    spec = make_process_spec("tvDAR", ar=["1", "2*u"])  # b1 crosses 1 at u = 0.5
    with pytest.raises(SingularPolynomialError) as excinfo:
        tv_dyadic_density(spec, [0.0, 0.5], 1)
    assert excinfo.value.where == 0.5


def test_modulated_density_scales_with_amplitude():
    base = make_process_spec("modulated", ma=["1", "0.5"], amplitude="1")
    mod = make_process_spec("modulated", ma=["1", "0.5"], amplitude="2*u+0.5")
    u = np.array([0.0, 0.25, 1.0])
    g_base = tv_dyadic_density(base, u, 1).values
    g_mod = tv_dyadic_density(mod, u, 1).values
    scale = (2 * u + 0.5) ** 2
    assert np.allclose(g_mod, scale[:, None] * g_base, atol=1e-12)


def test_fourier_density_examples():
    spec = make_process_spec("tvDMA", ma=["1"], sigma=1.3)
    grid = tv_fourier_density(spec, [0.1, 0.9], np.linspace(0, np.pi, 9))
    assert np.allclose(grid.values, 1.3**2 / (2 * np.pi), atol=1e-14)
    pair = make_process_spec("tvDMA", ma=["1", "1"])
    grid = tv_fourier_density(pair, [0.5], [0.0, np.pi])
    assert grid.values[0, 0] == pytest.approx(4 / (2 * np.pi), abs=1e-12)
    assert grid.values[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_fourier_density_requires_ma_kind():
    spec = make_process_spec("tvDAR", ar=["1", "0.3"])
    with pytest.raises(ValueError):
        tv_fourier_density(spec, [0.0], [0.0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_densities_that_overflow_name_their_first_cell():
    # finite curves whose density overflows float64: each grid held inf (g on "ma": ["1e200"], checked at the
    # time), and sigma**2 of sigma = 1e300 raised a Python OverflowError
    big = make_process_spec("tvDMA", ma=["1", "1e200*u"])  # A(u, x) = 1 +- 1e200*u
    message = "the dyadic spectral density g overflows float64 at u=0.5, x=0.0"
    with pytest.raises(ValueError, match=re.escape(message)):
        tv_dyadic_density(big, [0.0, 0.5], 1)
    message = "the Fourier spectral density f overflows float64 at u=0.5, lambda=0.0"
    with pytest.raises(ValueError, match=re.escape(message)):
        tv_fourier_density(big, [0.0, 0.5], [0.0, np.pi])
    loud = make_process_spec("tvDMA", ma=["1"], sigma=1e300)
    for density, at in ((tv_dyadic_density, 2), (tv_fourier_density, [0.0, np.pi])):
        with pytest.raises(ValueError, match=re.escape("overflows float64 at u=0.0, ")):
            density(loud, [0.0, 1.0], at)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_periodograms_that_overflow_name_their_first_segment():
    # d*d overflows float64 on finite data: the grid held inf
    values = np.concatenate([np.ones(8), np.full(8, 1e200)])
    with pytest.raises(ValueError, match=re.escape("the periodogram I overflows float64 at segment u0=0.75, x=0.0")):
        periodogram_grid(values, 8)
    with pytest.raises(ValueError, match=re.escape("the periodogram I overflows float64 at segment u0=0.5, x=0.0")):
        walsh_periodogram(values)


# ---------------------------------------------------------------- covariances


def test_dma_covariance_examples():
    assert dma_covariance([1.0, 0.5], 1.0, 0) == pytest.approx(1.25)
    assert dma_covariance([1.0, 0.5], 1.0, 1) == pytest.approx(1.0)
    assert dma_covariance([1.0, 0.5], 1.0, 2) == 0.0
    for tau in range(1, 5):
        assert dma_covariance(WalshPolynomial([1.0]), 2.0, tau) == 0.0
    assert dma_covariance(WalshPolynomial([1.0]), 2.0, 0) == pytest.approx(4.0)


@pytest.mark.parametrize("sigma", [math.nan, -2.0, 0.0, math.inf, True, "a"])
def test_dma_covariance_rejects_a_bad_sigma(sigma):
    # the innovations' rule and message: -2.0 would square to +2.0's value, True to 1.0's
    with pytest.raises(ValueError, match=f"^{re.escape(f'sigma must be a finite positive number, got {sigma!r}')}$"):
        dma_covariance([1.0, 0.5], sigma, 0)


def test_dma_covariance_bounded_by_lag_zero():
    rng = np.random.default_rng(30)
    a = rng.standard_normal(8)
    r0 = dma_covariance(a, 1.0, 0)
    for tau in range(16):
        assert abs(dma_covariance(a, 1.0, tau)) <= r0 + 1e-12


def test_density_row_and_segment_lengths_must_be_powers_of_two():
    # a 2-D array of a power-of-two size is rejected for its shape: see ARRAY_ARGUMENTS in tests/test_arguments.py
    with pytest.raises(ValueError, match="density row length must be a power of two, got 12"):
        covariance_from_density(np.ones(12), 0)
    for n in (0, 12):
        with pytest.raises(ValueError, match=f"data length must be a power of two, got {n}"):
            walsh_periodogram(np.ones(n))


def test_covariance_from_density_examples():
    flat = np.full(8, 2.5)
    assert covariance_from_density(flat, 0) == pytest.approx(2.5)
    for tau in range(1, 8):
        assert covariance_from_density(flat, tau) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        covariance_from_density(flat, 8)


def test_covariance_quadrature_matches_closed_form():
    # density -> covariance quadrature is exact for finite-order processes
    rng = np.random.default_rng(31)
    for size in (2, 4, 8):
        a = rng.standard_normal(size)
        density = oracle_transform(a) ** 2 * 1.3**2
        for tau in range(size):
            assert covariance_from_density(density, tau) == pytest.approx(
                dma_covariance(a, 1.3, tau), abs=1e-12
            )


def test_empirical_covariance_constant_path():
    vals = np.full(64, 3.7)
    for tau in range(1, 8):
        assert empirical_dyadic_covariance(vals, tau) == pytest.approx(0.0, abs=1e-14)


def test_empirical_covariance_white_noise():
    eps = make_innovations(InnovationSpec("gaussian", 1.5, seed=77), 1 << 16)
    r0 = empirical_dyadic_covariance(eps, 0)
    assert abs(r0 - 2.25) < 0.03 * 2.25
    assert abs(empirical_dyadic_covariance(eps, 3)) < 0.05


def test_empirical_covariance_validation():
    vals = np.arange(32, dtype=float)
    with pytest.raises(ValueError):
        empirical_dyadic_covariance(vals, 1, segment=(8, 16))  # misaligned
    with pytest.raises(ValueError):
        empirical_dyadic_covariance(vals, 1, segment=(0, 12))  # not a power of two
    with pytest.raises(ValueError):
        empirical_dyadic_covariance(vals, 16, segment=(0, 16))  # lag out of range
    seg = empirical_dyadic_covariance(vals, 1, segment=(16, 16))
    assert np.isfinite(seg)


# ----------------------------------------------------------------- estimation


def test_finite_walsh_transform_examples():
    e0 = np.zeros(8)
    e0[0] = 1.0
    assert np.array_equal(fwht(e0), np.ones(8))
    assert np.array_equal(fwht([1.0, 1.0]), [2.0, 0.0])
    rng = np.random.default_rng(32)
    a, b = rng.standard_normal((2, 16))
    lhs = fwht(2.0 * a - 3.0 * b)
    rhs = 2.0 * fwht(a) - 3.0 * fwht(b)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_periodogram_examples():
    p = walsh_periodogram([1.0, 0.0])
    assert np.allclose(p.values, [0.5, 0.5])
    assert p.u0 == 0.5
    p = walsh_periodogram([1.0, 1.0])
    assert np.allclose(p.values, [2.0, 0.0])
    p = walsh_periodogram(np.zeros(16))
    assert np.array_equal(p.values, np.zeros(16))
    with pytest.raises(ValueError):
        walsh_periodogram([1.0, 2.0, 3.0])


def test_periodogram_energy_identity():
    rng = np.random.default_rng(33)
    x = rng.standard_normal(256)
    p = walsh_periodogram(x)
    assert np.mean(p.values) == pytest.approx(np.mean(x**2), abs=1e-10)
    assert np.all(p.values >= 0)


def test_smoothing_identity_and_constant():
    p = walsh_periodogram(np.random.default_rng(34).standard_normal(64))
    assert smooth_periodogram(p, 0) is p
    flat = walsh_periodogram(np.zeros(32))
    flat = type(flat)(
        segment_start=0, size=32, u0=0.5, x_values=flat.x_values, values=np.full(32, 1.7)
    )
    for w in (1, 2, 5):
        assert np.allclose(smooth_periodogram(flat, w).values, 1.7, atol=1e-14)


def test_smoothing_spreads_impulse_and_preserves_mass():
    base = walsh_periodogram(np.zeros(16))
    values = np.zeros(16)
    values[7] = 3.0
    p = type(base)(segment_start=0, size=16, u0=0.5, x_values=base.x_values, values=values)
    sm = smooth_periodogram(p, 1)
    assert np.allclose(sm.values[6:9], 1.0, atol=1e-14)
    assert np.sum(sm.values) == pytest.approx(3.0, abs=1e-12)
    # an impulse at the boundary keeps its mass too (reflecting ends)
    values = np.zeros(16)
    values[0] = 3.0
    p = type(base)(segment_start=0, size=16, u0=0.5, x_values=base.x_values, values=values)
    assert np.sum(smooth_periodogram(p, 1).values) == pytest.approx(3.0, abs=1e-12)


def test_segmentation_layout():
    spec = make_process_spec("tvDMA", ma=["1"], seed=40)
    path = simulate(spec, 64)
    single = segmented_local_spectrum(path, 64)
    assert len(single) == 1
    assert single[0].u0 == 0.5
    quarters = segmented_local_spectrum(path, 16)
    assert [p.segment_start for p in quarters] == [0, 16, 32, 48]
    assert [p.u0 for p in quarters] == [0.125, 0.375, 0.625, 0.875]
    overlapping = segmented_local_spectrum(path, 16, step=8)
    assert [p.segment_start for p in overlapping] == list(range(0, 49, 8))
    with pytest.raises(ValueError):
        segmented_local_spectrum(path, 128)
    with pytest.raises(ValueError):
        segmented_local_spectrum(path, 12)
    with pytest.raises(ValueError):
        segmented_local_spectrum(path, 16, step=0)


def test_segment_periodogram_matches_manual():
    spec = fig1_spec(seed=41)
    path = simulate(spec, 1024)
    segs = segmented_local_spectrum(path, 256)
    manual = walsh_periodogram(path.values[256:512])
    assert np.allclose(segs[1].values, manual.values, atol=1e-12)


@pytest.mark.parametrize("T, N, step", [
    (256, 32, 32),  # aligned
    (256, 32, 8),  # overlapping
    (256, 32, 24),  # overlapping, step does not divide T - N
    (64, 1, 1),
    (64, 64, 64),  # one segment spanning the path
    (100, 16, 12),  # path length not a multiple of the step
])
def test_segment_periodograms_match_single_segments(T, N, step):
    values = np.random.default_rng(T + N + step).standard_normal(T)
    grid = periodogram_grid(values, N, step)
    starts = range(0, T - N + 1, step)
    assert grid.u_values.tolist() == [(s + N / 2) / T for s in starts]
    assert np.array_equal(grid.x_values, grid_values(N.bit_length() - 1))
    rows = grid.values
    assert rows.shape == (len(starts), N)
    for s, row in zip(starts, rows):
        seg = values[s : s + N]
        d = fwht(seg)
        assert np.array_equal(row, d * d / N)
        assert np.array_equal(row, walsh_periodogram(seg).values)


@pytest.mark.parametrize("w", [1, 2, 5, 8, 13, 40])
@pytest.mark.parametrize("N", [1, 16, 32])
def test_smooth_rows_match_per_row_convolution(N, w):
    # w = 8 sums 17 values, where the BLAS dot product vectorizes; w = 40 exceeds N
    rows = np.random.default_rng(N * w).exponential(size=(5, N)) * 1e3
    kernel = np.full(2 * w + 1, 1.0 / (2 * w + 1))
    expected = [np.convolve(np.pad(r, w, mode="symmetric"), kernel, mode="valid") for r in rows]
    out = smooth_periodogram(SpectralGrid(u_values=np.arange(5.0), x_values=np.arange(N) / N, values=rows), w).values
    assert out.shape == rows.shape
    assert all(np.array_equal(o, e) for o, e in zip(out, expected))
    p = walsh_periodogram(np.zeros(N))
    assert np.array_equal(smooth_periodogram(replace(p, values=rows[2]), w).values, expected[2])


def test_smoothing_keeps_no_state_between_calls():
    # alternating shapes and widths (w > n and w = 0 too) reuse the cached
    # reflection index and kernel; each result must still be the per-row reference
    rng = np.random.default_rng(3)
    for n, w in [(16, 2), (4, 9), (16, 0), (1, 3), (16, 2), (8, 8), (4, 9), (8, 1), (16, 2)] * 2:
        row = rng.exponential(size=n) * 1e3
        kernel = np.full(2 * w + 1, 1.0 / (2 * w + 1))
        expected = row if w == 0 else np.convolve(np.pad(row, w, mode="symmetric"), kernel, mode="valid")
        out = smooth_periodogram(replace(walsh_periodogram(np.zeros(n)), values=row), w).values
        assert np.array_equal(out, expected)
        out[:] = np.nan  # a caller owns its result: writing to it reaches no later call
        if w:
            for reused in _reflection(n, w):
                with pytest.raises(ValueError, match="read-only"):
                    reused[0] = 0


#: the spec of the benchmark's lib-estimate workload
TVDARMA = make_process_spec("tvDARMA", ar=["1", "-0.2+0.5*u"], ma=["1", "0.25+0.3*u"], seed=7)


@pytest.mark.parametrize("call, error, message", [
    (lambda x: segmented_local_spectrum(x, 16, step=2.5), TypeError, "step must be an integer, got 2.5"),
    (lambda x: segmented_local_spectrum(x, 16.0), TypeError, "N must be an integer, got 16.0"),
    (lambda x: segmented_local_spectrum(x, True), TypeError, "N must be an integer, got True"),
    (lambda x: periodogram_grid(x, "16"), TypeError, "N must be an integer, got '16'"),
    (lambda x: periodogram_grid(x, 16, step=True), TypeError, "step must be an integer, got True"),
    (lambda x: smooth_periodogram(walsh_periodogram(x), 1.5), TypeError, "half_width must be an integer, got 1.5"),
    (lambda x: smooth_periodogram(walsh_periodogram(x), True), TypeError, "half_width must be an integer, got True"),
    (lambda x: smooth_periodogram(walsh_periodogram(x), "2"), TypeError, "half_width must be an integer, got '2'"),
    (lambda x: smooth_periodogram(periodogram_grid(x, 16), -1), ValueError, "half_width must be >= 0, got -1"),
    (lambda x: empirical_dyadic_covariance(x, 1, (128, 8)), ValueError, "segment leaves the path"),
    # the whole path is checked before it is measured or cut to its segment
    (lambda x: empirical_dyadic_covariance(x.reshape(16, 8), 1, (16, 16)), ValueError,
     "path must be one-dimensional, got shape (16, 8)"),
    (lambda x: empirical_dyadic_covariance(np.r_[x[:16], np.nan], 1, (0, 16)), ValueError,
     "path must hold only finite values, got nan at index 16"),
    (lambda x: defining_equation_residual(TVDARMA, SamplePath(x[:12], x[:12])), ValueError,
     "path length must be a power of two, got 12"),
    (lambda x: defining_equation_residual(TVDARMA, SamplePath(x[:1], x[:1])), ValueError,
     "path length=1 is shorter than the coefficient block length 2"),
    (lambda x: defining_equation_residual(TVDARMA, SamplePath(x[:16], x[:8])), ValueError,
     "path.innovations must hold as many values as path.values (16), got 8"),
    (lambda x: segmented_local_spectrum(x.reshape(2, 64), 16), ValueError, "values must be one-dimensional, got shape (2, 64)"),
    (lambda x: periodogram_grid(x.reshape(2, 64), 16), ValueError, "values must be one-dimensional, got shape (2, 64)"),
    (lambda x: walsh_periodogram(x[:0]), ValueError, "data length must be a power of two, got 0"),
    (lambda x: walsh_periodogram(x[:3]), ValueError, "data length must be a power of two, got 3"),
])
def test_periodogram_sizes_are_checked_not_truncated(call, error, message):
    with pytest.raises(error) as info:
        call(np.ones(128))
    assert str(info.value) == message


def test_periodogram_sizes_accept_numpy_integers():
    values = np.random.default_rng(5).standard_normal(128)
    segs = segmented_local_spectrum(values, np.int64(16), step=np.int32(8))
    assert [p.segment_start for p in segs] == list(range(0, 113, 8))
    assert all(type(p.segment_start) is int and type(p.size) is int for p in segs)
    smoothed = smooth_periodogram(segs[3], np.int64(2))
    assert np.array_equal(smoothed.values, smooth_periodogram(segs[3], 2).values)


def test_smoothing_a_grid_smooths_each_row():
    values = np.random.default_rng(6).standard_normal(256)
    grid = periodogram_grid(values, 32, 16)
    smoothed = smooth_periodogram(grid, 3)
    assert smoothed.u_values is grid.u_values and smoothed.x_values is grid.x_values
    segs = segmented_local_spectrum(values, 32, 16)
    assert len(segs) == smoothed.values.shape[0]
    for p, row in zip(segs, smoothed.values):
        assert np.array_equal(smooth_periodogram(p, 3).values, row)
    assert smooth_periodogram(grid, 0) is grid


def test_segmented_local_spectrum_fields():
    values = np.random.default_rng(42).standard_normal(256)
    segs = segmented_local_spectrum(values, 32, step=24)
    assert [p.segment_start for p in segs] == list(range(0, 225, 24))
    for p in segs:
        s = p.segment_start
        assert type(s) is int
        assert p.size == 32
        assert p.u0 == (s + 16) / 256
        assert np.array_equal(p.x_values, grid_values(5))
        assert np.array_equal(p.values, walsh_periodogram(values[s : s + 32]).values)


def test_spectrum_from_covariances():
    flat = fwht(np.array([2.0, 0, 0, 0]))
    assert np.allclose(flat, 2.0, atol=1e-14)
    f = fwht(np.array([1.25, 1.0]))
    assert f[0] == pytest.approx(2.25)
    assert f[1] == pytest.approx(0.25)


def test_spectrum_covariance_round_trip():
    rng = np.random.default_rng(35)
    a = rng.standard_normal(8)
    r = np.array([dma_covariance(a, 1.0, tau) for tau in range(8)])
    f = fwht(r)
    back = np.array([covariance_from_density(f, tau) for tau in range(8)])
    assert np.max(np.abs(back - r)) < 1e-10
