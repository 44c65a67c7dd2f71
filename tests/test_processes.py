import numpy as np
import pytest

from walsh_spectra.curves import parse
from walsh_spectra.poly import SingularPolynomialError
from walsh_spectra.processes import (
    InnovationSpec,
    SingularBlockError,
    approx_error,
    coefficient_rows,
    decay_experiment,
    defining_equation_residual,
    dma_coefficient_rows,
    make_innovations,
    make_process_spec,
    simulate,
    simulate_frozen,
    spawn_seed,
    spec_from_dict,
)

# ---------------------------------------------------------------- innovations


def test_innovations_deterministic():
    spec = InnovationSpec("gaussian", 1.0, seed=42)
    a = make_innovations(spec, 512)
    b = make_innovations(spec, 512)
    assert np.array_equal(a, b)


def test_innovations_windowing_matches_serial():
    # generating any sub-range reproduces the corresponding slice of the
    # full stream: parallel workers can split the index range freely
    spec = InnovationSpec("gaussian", 2.0, seed=9)
    full = make_innovations(spec, 1024)
    pieces = [make_innovations(spec, 256, start=s) for s in (0, 256, 512, 768)]
    assert np.array_equal(np.concatenate(pieces), full)


def test_innovations_window_just_below_the_cap():
    from walsh_spectra.dyadic import INDEX_CAP

    for distribution in ("gaussian", "rademacher", "uniform"):
        spec = InnovationSpec(distribution, seed=12)
        tail = make_innovations(spec, 4, start=INDEX_CAP - 4)
        assert np.array_equal(tail, make_innovations(spec, 16, start=INDEX_CAP - 16)[-4:])
        assert np.array_equal(tail[1:], make_innovations(spec, 3, start=INDEX_CAP - 3))


@pytest.mark.parametrize("start, count", [(-1, 4), (2**62 - 3, 4), (2**63, 3)])
def test_innovations_reject_indices_outside_the_stream(start, count):
    with pytest.raises(ValueError, match=r"innovation indices .* leave \[0, 2\*\*62\)"):
        make_innovations(InnovationSpec(seed=1), count, start=start)


@pytest.mark.parametrize("seed", [-1, 2**64, 5 + 2**64])
def test_seed_outside_64_bits_rejected(seed):
    with pytest.raises(ValueError, match=f"seed must lie in \\[0, 2\\*\\*64\\), got {seed}"):
        InnovationSpec(seed=seed)
    with pytest.raises(ValueError, match="seed must lie"):
        make_process_spec("tvDMA", ma=["1"], seed=seed)
    with pytest.raises(ValueError, match="seed must lie"):
        make_process_spec("tvDMA", ma=["1"]).with_seed(seed)
    assert InnovationSpec(seed=2**64 - 1).seed == 2**64 - 1


def test_innovations_seed_sensitivity():
    base = make_innovations(InnovationSpec(seed=1), 256)
    other = make_innovations(InnovationSpec(seed=2), 256)
    assert not np.array_equal(base, other)
    child = make_innovations(InnovationSpec(seed=spawn_seed(1, 0)), 256)
    assert not np.array_equal(base, child)


def test_rademacher_support():
    vals = make_innovations(InnovationSpec("rademacher", 1.5, seed=3), 4096)
    assert set(np.unique(vals)) == {-1.5, 1.5}


def test_uniform_support():
    sigma = 0.7
    vals = make_innovations(InnovationSpec("uniform", sigma, seed=4), 4096)
    bound = sigma * np.sqrt(3.0)
    assert np.max(np.abs(vals)) <= bound
    assert np.max(np.abs(vals)) > 0.9 * bound


@pytest.mark.parametrize("distribution", ["gaussian", "rademacher", "uniform"])
def test_innovation_moments(distribution):
    sigma = 1.3
    vals = make_innovations(InnovationSpec(distribution, sigma, seed=11), 1 << 16)
    assert abs(np.mean(vals)) < 0.03 * sigma
    assert abs(np.var(vals) - sigma**2) < 0.03 * sigma**2


def test_innovation_spec_validation():
    with pytest.raises(ValueError):
        InnovationSpec("poisson", 1.0, 0)
    with pytest.raises(ValueError):
        InnovationSpec("gaussian", 0.0, 0)
    with pytest.raises(ValueError):
        make_innovations(InnovationSpec(), 0)


# ------------------------------------------------------------- specifications


def test_spec_padding_and_units():
    spec = make_process_spec("tvDMA", ma=["1", "0.5", "0.25"])
    assert len(spec.ma) == 4
    assert len(spec.ar) == 1
    dar = make_process_spec("tvDAR", ar=["1", "0.3"])
    assert len(dar.ma) == 1


def test_spec_requires_curves():
    with pytest.raises(ValueError):
        make_process_spec("tvDMA")
    with pytest.raises(ValueError):
        make_process_spec("tvDARMA", ar=["1", "0.2"])
    with pytest.raises(ValueError):
        make_process_spec("waves", ma=["1"])


def test_degenerate_order_warns():
    with pytest.warns(UserWarning):
        make_process_spec("tvDMA", ma=["1", "0.5", "0", "0"])
    with pytest.warns(UserWarning):
        make_process_spec("tvDAR", ar=["1", "u-u"])


def test_spec_dict_round_trip():
    spec = make_process_spec(
        "tvDARMA",
        ar=["1", "0.2+0.1*u"],
        ma=["1", "0.5*cos(2*pi*u)"],
        trend="u",
        sigma=2.0,
        seed=5,
    )
    again = spec_from_dict(spec.to_dict())
    assert again == spec
    assert again.fingerprint() == spec.fingerprint()
    with pytest.raises(ValueError):
        spec_from_dict({"kind": "tvDMA", "ma": ["1"], "bogus": 1})
    with pytest.raises(ValueError):
        spec_from_dict({"ma": ["1"]})


@pytest.mark.parametrize("kind, field", [("tvDMA", "ma"), ("tvDAR", "ar"), ("tvDARMA", "ar"), ("tvDARMA", "ma")])
@pytest.mark.parametrize("text", ["12", "0.81"])
def test_spec_rejects_a_string_for_a_curve_list(kind, field, text):
    # iterating the string would read "12" as the two curves 1 and 2
    data = {"kind": kind, "ar": ["1", "0.5"], "ma": ["1", "0.5"], field: text}
    message = f"{field} must be a list of curves, got the string {text!r}"
    with pytest.raises(ValueError) as info:
        spec_from_dict(data)
    assert str(info.value) == message
    data.pop("kind")
    with pytest.raises(ValueError) as info:
        make_process_spec(kind, **data)
    assert str(info.value) == message


def test_int_and_float_sigma_share_a_fingerprint():
    as_int = make_process_spec("tvDMA", ma=["1", "0.5"], sigma=2)
    as_float = make_process_spec("tvDMA", ma=["1", "0.5"], sigma=2.0)
    assert as_int.fingerprint() == as_float.fingerprint()


def test_frozen_coefficient_rows_figure2_values():
    spec = make_process_spec(
        "tvDMA", ma=["1.2*cos(2*pi*u)", "2*cos(1.5-cos(8*pi*u))", "u", "0"]
    )
    _, a_rows = coefficient_rows(spec, 0.0)
    expected = [1.2, 2 * np.cos(0.5), 0.0, 0.0]
    assert np.allclose(a_rows[0], expected, atol=1e-12)


# ------------------------------------------------------------------ simulation


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_curve_values_raise():
    from walsh_spectra.curves import CurveDomainError

    spec = make_process_spec("tvDMA", ma=["exp(1000*u)"])
    with pytest.raises(CurveDomainError, match=r"exp\(\(1000\.0\*u\)\) is not finite at u="):
        simulate(spec, 64)
    spec = make_process_spec("tvDMA", ma=["1", "0.5*u"])
    with pytest.raises(CurveDomainError, match=r"\(0\.5\*u\) is not finite at u=nan"):
        simulate_frozen(spec, float("nan"), 64)


def test_white_noise_is_innovations_plus_trend():
    spec = make_process_spec("tvDMA", ma=["1"], trend="2+u")
    path = simulate(spec, 64)
    u = np.arange(64) / 64
    assert np.allclose(path.values, 2 + u + path.innovations, atol=1e-14)


def test_simulate_rejects_bad_horizons():
    spec = make_process_spec("tvDMA", ma=["1", "0.5"])
    with pytest.raises(ValueError):
        simulate(spec, 48)
    with pytest.raises(ValueError):
        simulate(spec, 1)  # block length 2 does not fit


def test_simulate_deterministic_given_seed():
    spec = make_process_spec("tvDARMA", ar=["1", "0.3*u"], ma=["1", "0.4"], seed=21)
    a = simulate(spec, 256)
    b = simulate(spec, 256)
    assert np.array_equal(a.values, b.values)
    assert a.spec_fingerprint == b.spec_fingerprint


def test_constant_dar_satisfies_recursion():
    spec = make_process_spec("tvDAR", ar=["2", "1"], seed=7)
    path = simulate(spec, 128)
    x = path.values
    eps = path.innovations
    t = np.arange(128)
    assert np.max(np.abs(2 * x + x[t ^ 1] - eps)) < 1e-12


def test_constant_dar_equals_converted_dma():
    spec = make_process_spec("tvDAR", ar=["2", "1"], seed=7)
    path = simulate(spec, 256)
    k = dma_coefficient_rows(spec, np.arange(256) / 256)
    assert np.allclose(k[0], [2 / 3, -1 / 3], atol=1e-12)
    t = np.arange(256)
    dma = k[:, 0] * path.innovations + k[:, 1] * path.innovations[t ^ 1]
    assert np.max(np.abs(path.values - dma)) < 1e-10


def test_time_varying_darma_residual():
    spec = make_process_spec(
        "tvDARMA",
        ar=["1", "0.5*sin(2*pi*u)-0.2"],
        ma=["1", "0.25+0.3*u"],
        trend="0.5*u",
        seed=13,
    )
    path = simulate(spec, 1024)
    assert defining_equation_residual(spec, path) < 1e-9


def test_residual_refuses_zero_amplitude():
    spec = make_process_spec("modulated", ma=["1", "0.5"], amplitude="u-0.5", seed=8)
    path = simulate(spec, 64)
    with pytest.raises(ValueError, match=r"amplitude vanishes at u=0\.5"):
        defining_equation_residual(spec, path)


def test_singular_block_reported():
    spec = make_process_spec("tvDAR", ar=["1", "1"], seed=1)
    with pytest.raises(SingularBlockError) as excinfo:
        simulate(spec, 64)
    assert excinfo.value.block_index == 0
    assert excinfo.value.condition > 1e12


def test_singular_block_when_curve_crosses():
    # b1 = exp(u - 33/64 + 1/128) crosses the singular value 1 inside the
    # block at t = 32, 33 (T = 64), placed so that b1(u_32) * b1(u_33) = 1
    # and the 2x2 block matrix [[1, b1(u_32)], [b1(u_33), 1]] degenerates
    spec = make_process_spec("tvDAR", ar=["1", "exp(u-0.5078125)"], seed=2)
    with pytest.raises(SingularBlockError) as excinfo:
        simulate(spec, 64)
    assert excinfo.value.block_index == 16
    assert excinfo.value.condition > 1e9


def test_block_locality():
    # innovations outside an aligned block do not influence the block:
    # scramble everything outside and compare inside
    spec = make_process_spec("tvDARMA", ar=["1", "0.3+0.2*u"], ma=["1", "0.5"], seed=3)
    T, L = 256, 2
    base = simulate(spec, T)
    eps = base.innovations.copy()
    block = 17  # indices 34, 35
    lo, hi = block * L, (block + 1) * L
    outside = np.ones(T, dtype=bool)
    outside[lo:hi] = False
    eps[outside] = eps[outside][::-1]  # permute all other innovations
    scrambled = simulate(spec, T, innovations=eps)
    assert np.allclose(base.values[lo:hi], scrambled.values[lo:hi], atol=1e-12)
    assert not np.allclose(base.values, scrambled.values)


@pytest.mark.parametrize("distribution", ["rademacher", "uniform"])
def test_non_gaussian_innovations_flow_through(distribution):
    spec = make_process_spec(
        "tvDARMA", ar=["1", "0.3"], ma=["1", "0.5"], distribution=distribution, seed=23
    )
    path = simulate(spec, 512)
    assert defining_equation_residual(spec, path) < 1e-9
    if distribution == "rademacher":
        assert set(np.unique(path.innovations)) == {-1.0, 1.0}


def test_modulated_process():
    spec = make_process_spec(
        "modulated", ma=["1", "0.5"], trend="u", amplitude="2+cos(2*pi*u)", seed=6
    )
    path = simulate(spec, 512)
    u = np.arange(512) / 512
    t = np.arange(512)
    y = path.innovations + 0.5 * path.innovations[t ^ 1]
    assert np.allclose(path.values, u + (2 + np.cos(2 * np.pi * u)) * y, atol=1e-12)


def test_modulated_coefficients_frozen_at_zero():
    # the underlying moving average of a modulated process is stationary:
    # its curves are read at u = 0 even when written as functions of u
    spec = make_process_spec("modulated", ma=["1", "0.5+u"], amplitude="1", seed=6)
    rows = dma_coefficient_rows(spec, np.array([0.0, 0.5, 1.0]))
    assert np.allclose(rows, np.tile([1.0, 0.5], (3, 1)), atol=1e-14)


# ------------------------------------------------------------------- freezing


def test_frozen_equals_tv_for_constant_curves():
    spec = make_process_spec("tvDMA", ma=["1", "0.5"], trend="3", seed=8)
    tv = simulate(spec, 128)
    fr = simulate_frozen(spec, 0.7, 128)
    assert np.array_equal(tv.values, fr.values)


def test_frozen_touches_tv_at_center():
    spec = make_process_spec("tvDMA", ma=["-1.8*cos(1.5-cos(4*pi*u))", "0.81"], seed=9)
    T = 256
    tv = simulate(spec, T)
    fr = simulate_frozen(spec, 0.5, T)
    assert approx_error(tv, fr, center=T // 2, radius=0) < 1e-14


def test_approx_error_validation():
    spec = make_process_spec("tvDMA", ma=["1", "0.5*u"], seed=10)
    a = simulate(spec, 128)
    b = simulate(spec.with_seed(11), 128)
    assert approx_error(a, a, 64, 16) == 0.0
    with pytest.raises(ValueError):
        approx_error(a, b, 64, 16)
    with pytest.raises(ValueError):
        approx_error(a, a, 4, 16)  # window leaves the path


def test_frozen_shares_innovations():
    spec = make_process_spec("tvDAR", ar=["1", "0.2+0.3*u"], seed=12)
    tv = simulate(spec, 512)
    fr = simulate_frozen(spec, 0.25, 512)
    assert np.array_equal(tv.innovations, fr.innovations)


# ----------------------------------------------------------- decay experiments


def test_decay_exact_for_constant_curves():
    spec = make_process_spec("tvDARMA", ar=["1", "0.4"], ma=["1", "0.3"], seed=14)
    report = decay_experiment(spec, "frozen", T_values=(64, 128, 256), replicates=3)
    assert report.exact
    assert report.errors == (0.0, 0.0, 0.0)
    report = decay_experiment(spec, "conversion", T_values=(64, 128), replicates=2)
    assert report.exact


def test_decay_first_order_at_generic_point():
    # frozen-approximation error halves when T doubles at a point where
    # the coefficient curve has nonzero slope
    spec = make_process_spec("tvDMA", ma=["-1.8*cos(1.5-cos(4*pi*u))", "0.81"], seed=15)
    report = decay_experiment(
        spec, "frozen", T_values=(128, 256, 512, 1024, 2048, 4096, 8192),
        u0=0.3, radius=16, replicates=8,
    )
    assert report.slope is not None
    assert -1.4 <= report.slope <= -0.6
    assert all(e2 < e1 for e1, e2 in zip(report.errors, report.errors[1:]))


def test_decay_second_order_at_critical_point():
    # the curve -1.8*cos(1.5-cos(4*pi*u)) has zero derivative at u = 0.5,
    # so around that point the frozen-approximation error decays at second
    # order: faster than the generic 1/T, and measurably so
    spec = make_process_spec("tvDMA", ma=["-1.8*cos(1.5-cos(4*pi*u))", "0.81"], seed=16)
    report = decay_experiment(
        spec, "frozen", T_values=(128, 256, 512, 1024, 2048, 4096, 8192),
        u0=0.5, radius=16, replicates=8,
    )
    assert report.slope is not None
    assert report.slope < -1.6


def test_decay_slack_term_is_first_order():
    # with constant curves the frozen approximation is exact, so a bounded
    # coefficient perturbation of size 1/T (the general form the local
    # model allows) is the only error source and decays at first order
    spec = make_process_spec("tvDMA", ma=["1", "0.5"], seed=16)
    report = decay_experiment(
        spec, "frozen", T_values=(128, 256, 512, 1024, 2048, 4096, 8192),
        u0=0.5, radius=16, replicates=8, slack=1.0,
    )
    assert report.slope is not None
    assert -1.4 <= report.slope <= -0.6


def test_decay_conversion_mode():
    spec = make_process_spec(
        "tvDARMA", ar=["1", "-0.2+0.5*u"], ma=["1", "0.25+0.3*u"], seed=17
    )
    report = decay_experiment(
        spec, "conversion", T_values=(128, 256, 512, 1024, 2048), radius=16, replicates=6
    )
    assert report.slope is not None
    assert -1.4 <= report.slope <= -0.6


def test_decay_experiment_validation():
    spec = make_process_spec("tvDMA", ma=["1", "u"], seed=18)
    with pytest.raises(ValueError):
        decay_experiment(spec, "sideways")
    with pytest.raises(ValueError):
        decay_experiment(spec, "conversion")  # needs an AR-kind spec


# ------------------------------------------------------- conversion row errors


def test_dma_coefficient_rows_singular_reports_u():
    spec = make_process_spec("tvDAR", ar=["1", "1"], seed=19)
    with pytest.raises(SingularPolynomialError) as excinfo:
        dma_coefficient_rows(spec, np.array([0.25]))
    assert excinfo.value.where == 0.25


def test_dma_coefficient_rows_match_frozen_conversion():
    from walsh_spectra.poly import WalshPolynomial, to_moving_average

    spec = make_process_spec(
        "tvDARMA", ar=["1", "0.1+0.2*u"], ma=["1", "0.5*cos(2*pi*u)"], seed=20
    )
    for u in (0.0, 0.33, 0.8):
        b_rows, a_rows = coefficient_rows(spec, u)
        expect = to_moving_average(WalshPolynomial(b_rows[0]), WalshPolynomial(a_rows[0])).coefficients
        got = dma_coefficient_rows(spec, np.array([u]))[0]
        assert np.allclose(got, expect, atol=1e-12)
