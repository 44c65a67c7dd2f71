import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import walsh_spectra.processes as processes
from walsh_spectra.curves import CurveSyntaxError, UnknownIdentifierError, eval_curve, parse
from walsh_spectra.dyadic import block_exponent
from walsh_spectra.poly import SingularPolynomialError, grid_ratio
from walsh_spectra.presets import preset_spec
from walsh_spectra.processes import (
    DISTRIBUTIONS,
    KINDS,
    MA_KINDS,
    InnovationSpec,
    SamplePath,
    SingularBlockError,
    _block_solve,
    _dma_combine,
    _dma_rows,
    _draw,
    _frozen,
    _paths,
    _window,
    coefficient_rows,
    decay_experiment,
    defining_equation_residual,
    dma_coefficient_rows,
    make_innovations,
    make_process_spec,
    simulate,
    simulate_frozen,
    simulate_seeds,
    spawn_seed,
    spec_from_dict,
)

from oracles import oracle_window_sup_error

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
    # a negative start is named as an argument; past the cap the window as a whole leaves the stream
    message = r"^start must be >= 0, got -1$" if start < 0 else r"innovation indices .* leave \[0, 2\*\*62\)"
    with pytest.raises(ValueError, match=message):
        make_innovations(InnovationSpec(seed=1), count, start=start)


def first_seed(spec, T):
    """The `simulate_seeds` route: the path of spec's own seed."""
    return next(simulate_seeds(spec, T, [spec.innovations.seed]))


@pytest.mark.parametrize("T", [2**63, 2**64])
@pytest.mark.parametrize(
    "run", [simulate, lambda spec, T: simulate_frozen(spec, 0.5, T), first_seed], ids=["simulate", "frozen", "seeds"]
)
def test_simulate_names_indices_outside_the_stream(run, T):
    # checked before the path is allocated, where numpy would answer first with an error of its own
    with pytest.raises(ValueError) as info:
        run(preset_spec("figure1"), T)
    assert str(info.value) == f"innovation indices [0, {T}) leave [0, 2**62)"


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


@pytest.mark.parametrize("master, index", [(2**64, 0), (-1, 0), (0, -1), (0, -(2**64))])
def test_spawn_seed_rejects_arguments_that_would_alias(master, index):
    # reduced mod 2**64, each of these would repeat the seed of an argument in range
    with pytest.raises(ValueError) as info:
        spawn_seed(master, index)
    expected = f"master must lie in [0, 2**64), got {master}" if master != 0 else f"index must be >= 0, got {index}"
    assert str(info.value) == expected
    assert spawn_seed(2**64 - 1, 2**64) != spawn_seed(0, 0)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_innovations_that_overflow_name_their_first_index():
    # sigma times a gaussian draw above about 1.2 in magnitude, or times sqrt(3) for every uniform draw, overflows
    # float64; a rademacher draw is +-sigma, finite for every valid sigma.  Rows of replicates name the first t at
    # which any of them overflows
    huge = 1.5e308
    assert np.array_equal(np.abs(make_innovations(InnovationSpec("rademacher", huge), 8)), np.full(8, huge))
    cases = (("uniform", 0, 2), ("gaussian", 0, 4), ("gaussian", [6], 6), ("gaussian", [6, 5], 2))
    for distribution, seeds, t in cases:
        with pytest.raises(ValueError, match=f"^the innovations overflows float64 at t={t}$"):
            _draw(InnovationSpec(distribution, huge), seeds, 8, 2)


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


@pytest.mark.parametrize("build", [
    lambda: make_process_spec("tvDMA", ma=["1", "0"]),
    lambda: spec_from_dict({"kind": "tvDMA", "ma": ["1", "0"]}),
], ids=["make_process_spec", "spec_from_dict"])
def test_spec_warning_names_the_callers_line(build):
    with pytest.warns(UserWarning, match="identically zero upper half") as record:
        build()
    assert (record[0].filename, record[0].lineno) == (__file__, build.__code__.co_firstlineno)


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


@pytest.mark.parametrize("field, value, error, message, offset", [
    ("ma", ["1", "u+$"], CurveSyntaxError, "ma[1]: unexpected character '$' at offset 2", 2),
    ("ar", ["1", "tan(u)"], UnknownIdentifierError, "ar[1]: unknown identifier 'tan' at offset 0", 0),
    ("trend", "u^" + "9" * 309, CurveSyntaxError, "trend: integer exponent past the float range at offset 2", 2),
    ("amplitude", "1+", CurveSyntaxError, "amplitude: expected a value, found 'end of input' at offset 2", 2),
])
def test_curve_errors_name_their_field(field, value, error, message, offset):
    with pytest.raises(error) as info:
        spec_from_dict({"kind": "tvDARMA", "ar": ["1", "0.5"], "ma": ["1", "0.5"], field: value})
    assert type(info.value) is error and str(info.value) == message and info.value.offset == offset


@pytest.mark.parametrize("field, value, message", [
    ("ma", [1, True], "ma[1] must be a curve string or a number, got True"),
    ("ma", [1, None], "ma[1] must be a curve string or a number, got None"),
    ("ma", [1, [2]], "ma[1] must be a curve string or a number, got [2]"),
    ("ar", [None, "0.5"], "ar[0] must be a curve string or a number, got None"),
    ("ma", {"a": 1}, "ma must be a list of curves, got {'a': 1}"),
    ("ar", 2, "ar must be a list of curves, got 2"),
    ("ar", [], "tvDARMA needs autoregressive curves"),
    ("trend", None, "trend must be a curve string or a number, got None"),
    ("amplitude", True, "amplitude must be a curve string or a number, got True"),
])
def test_spec_rejects_non_curve_values(field, value, message):
    # a bool or null is rejected, not coerced, and the message names the field and index
    with pytest.raises(ValueError) as info:
        spec_from_dict({"kind": "tvDARMA", "ar": ["1", "0.5"], "ma": ["1", "0.5"], field: value})
    assert str(info.value) == message


def test_spec_accepts_numbers_and_tuples_as_curves():
    spec = spec_from_dict({"kind": "tvDMA", "ma": (1, 0.5, np.int64(2), np.float32(0.25)), "trend": 0, "amplitude": 2.0})
    assert spec.to_dict()["ma"] == ["1.0", "0.5", "2.0", "0.25"]
    assert (spec.to_dict()["trend"], spec.to_dict()["amplitude"]) == ("0.0", "2.0")
    parsed = parse("0.5*u")  # a parsed curve is taken as it is
    assert make_process_spec("tvDMA", ma=["1", parsed], trend=parsed).ma[1] is parsed


def test_unknown_preset_is_named():
    with pytest.raises(ValueError, match="^unknown preset 'nope'; available: figure1, figure2$"):
        preset_spec("nope")


@pytest.mark.parametrize("field, value, error, message", [
    ("seed", 1.5, TypeError, "seed must be an integer, got 1.5"),
    ("seed", "7", TypeError, "seed must be an integer, got '7'"),
    ("seed", True, TypeError, "seed must be an integer, got True"),
    ("sigma", True, ValueError, "sigma must be a finite positive number, got True"),
    ("sigma", "abc", ValueError, "sigma must be a finite positive number, got 'abc'"),
    ("sigma", "inf", ValueError, "sigma must be a finite positive number, got 'inf'"),
    ("sigma", float("inf"), ValueError, "sigma must be a finite positive number, got inf"),
    ("sigma", float("nan"), ValueError, "sigma must be a finite positive number, got nan"),
    ("sigma", 0, ValueError, "sigma must be a finite positive number, got 0"),
])
def test_spec_rejects_bad_noise_fields(field, value, error, message):
    with pytest.raises(error) as info:
        spec_from_dict({"kind": "tvDMA", "ma": ["1"], field: value})
    assert str(info.value) == message
    with pytest.raises(error) as info:
        InnovationSpec(**{field: value})
    assert str(info.value) == message


def test_noise_fields_are_stored_as_float_and_int():
    spec = InnovationSpec(sigma=np.int64(2), seed=np.uint64(7))
    assert type(spec.sigma) is float and type(spec.seed) is int
    assert (spec.sigma, spec.seed) == (2.0, 7)


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
    spec = make_process_spec("tvDMA", ma=["1", "exp(1000*u)"])
    with pytest.raises(CurveDomainError, match=r"exp\(\(1000\.0\*u\)\) is not finite at u=0\.9"):
        simulate_frozen(spec, 0.9, 64)


@pytest.mark.parametrize("u0", [float("nan"), float("inf"), -float("inf"), 2.0, -5.0, 1.0])
def test_simulate_frozen_rejects_u0_outside_the_unit_interval(u0):
    spec = make_process_spec("tvDMA", ma=["1", "0.5*u"])
    with pytest.raises(ValueError, match=rf"^u0 must be a finite number in \[0, 1\), got {u0}$"):
        simulate_frozen(spec, u0, 8)
    with pytest.raises(ValueError, match=rf"^u0 must be a finite number in \[0, 1\), got {u0}$"):
        decay_experiment(spec, "frozen", T_values=(8, 16), u0=u0, radius=0)


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


@pytest.mark.parametrize("spec, T, u", [
    (make_process_spec("modulated", ma=["1", "0.5"], amplitude="u-0.5", seed=8), 64, r"0\.5"),
    # in the fourth window of 2**15 values
    (make_process_spec("tvDMA", ma=["1", "0.5"], amplitude="u-0.75", seed=8), 1 << 17, r"0\.75"),
    # in the first window, before an autoregressive pole in the fourth: as in `simulate`, the first window's defect
    (make_process_spec("tvDARMA", ar=["1", "0.1/(u-0.875)"], ma=["1", "0.5"], amplitude="u-0.125"), 1 << 17, r"0\.125"),
])
def test_residual_refuses_zero_amplitude(spec, T, u):
    path = simulate(make_process_spec("tvDMA", ma=["1", "0.5"]), T)
    with pytest.raises(ValueError, match=rf"^amplitude vanishes at u={u}: the core process is undefined there$"):
        defining_equation_residual(spec, path)


@pytest.mark.parametrize("window", [1 << 16, 8], ids=["one-window", "8-value-windows"])
def test_residual_refuses_an_overflowing_core(monkeypatch, window):
    # an amplitude of 1e-310 divides a finite path past the float range, so the core overflows from u = 0: the
    # residual once returned NaN there after numpy's overflow and invalid-value warnings
    coefficients = {"ar": ["1", "0.5"], "ma": ["1", "0.5"], "seed": 7}
    path = simulate(make_process_spec("tvDARMA", **coefficients), 1 << 16)
    monkeypatch.setattr(processes, "_WINDOW", window)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"^the core \(path - trend\) / amplitude overflows float64 at u=0\.0$"):
            defining_equation_residual(make_process_spec("tvDARMA", amplitude="1e-310", **coefficients), path)


@pytest.mark.parametrize("window", [64, 8], ids=["one-window", "8-value-windows"])
def test_residual_refuses_an_overflowing_defect(monkeypatch, window):
    # from u = 0.75 the core is 1.5e308, finite, but b_0 core_t + b_1 core_{t XOR 1} overflows: the defect is
    # refused there rather than returned as inf
    spec = make_process_spec("tvDARMA", ar=["1", "0.5"], ma=["1"])
    values = np.where(np.arange(64) < 48, 0.0, 1.5e308)
    monkeypatch.setattr(processes, "_WINDOW", window)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"^the defining equation's defect overflows float64 at u=0\.75$"):
            defining_equation_residual(spec, SamplePath(values, np.zeros(64)))


@pytest.mark.parametrize("window", [64, 8], ids=["one-window", "8-value-windows"])
@pytest.mark.parametrize("spec, message", [
    # 1.25e308 + 1e308 * u is finite up to u = 35/64 and overflows from 36/64: the path was written as inf
    (make_process_spec("tvDMA", ma=["1e308*u"], trend="1.25e308"), r"^the path overflows float64 at u=0\.5625$"),
    # 1e308 * (1 + u) overflows from u = 52/64 before the solve, which called it a singular block
    (make_process_spec("tvDARMA", ar=["1", "0.5"], ma=["1e308", "1e308*u"]),
     r"^the core overflows float64 at u=0\.8125$"),
], ids=["path", "core"])
def test_paths_that_overflow_name_their_first_u(monkeypatch, window, spec, message):
    monkeypatch.setattr(processes, "_WINDOW", window)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=message):
            simulate(spec, 64, innovations=np.ones(64))


def test_paths_name_the_first_u_at_which_any_replicate_overflows():
    spec = make_process_spec("tvDMA", ma=["1e308*u"], trend="1.25e308")
    eps = np.zeros((2, 64))
    eps[0, 60:], eps[1, 40:] = 1.0, 1.0  # the second replicate overflows first, from u = 40/64
    with pytest.raises(ValueError, match=r"^the path overflows float64 at u=0\.625$"):
        _paths(spec, 64, 0, 64)(eps)


def test_paths_scan_nothing_when_no_value_overflows(monkeypatch):
    # the check reads numpy's floating-point flags, so a finite run pays no pass over its values
    scans = []
    monkeypatch.setattr(processes, "check_finite", lambda values, what, *axes: scans.append(what))
    for spec in (preset_spec("figure1"), make_process_spec("tvDARMA", ar=["1", "0.5*u"], ma=["1", "0.5"])):
        simulate(spec, 1 << 16)
    assert scans == []
    simulate(make_process_spec("tvDMA", ma=["1e308*u"], trend="1.25e308"), 64, innovations=np.ones(64))
    assert scans == ["the path"]


def block_condition(spec, T, block):
    """np.linalg.cond of one aligned 2 x 2 block matrix [[b0(t), b1(t)], [b1(t+1), b0(t+1)]] of the recursion."""
    b_rows, _ = coefficient_rows(spec, np.arange(2 * block, 2 * block + 2) / T)
    with np.errstate(divide="ignore"):
        return float(np.linalg.cond(np.array([b_rows[0], b_rows[1][::-1]])))


@pytest.mark.filterwarnings("error")
def test_singular_block_reported():
    spec = make_process_spec("tvDAR", ar=["1", "1"], seed=1)
    with pytest.raises(SingularBlockError) as excinfo:
        simulate(spec, 64)
    assert excinfo.value.block_index == 0
    assert excinfo.value.condition > 1e12
    assert excinfo.value.condition == block_condition(spec, 64, 0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ar, condition", [(["u"], np.inf), (["u+1e-12"], np.inf), (["1", "1", "1", "1"], 1e12)])
def test_singular_block_of_one_or_four_coefficients(ar, condition):
    # one coefficient: b0(0) is (near) zero; four equal ones: every 4 x 4 block matrix is all ones
    with pytest.raises(SingularBlockError, match=r"^singular block 0 \(condition estimate ") as excinfo:
        simulate(make_process_spec("tvDAR", ar=ar, seed=1), 16)
    assert excinfo.value.block_index == 0
    assert excinfo.value.condition >= condition


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("window", [processes._WINDOW, 8])
def test_singular_block_when_curve_crosses(monkeypatch, window):
    # b1 = exp(u - 33/64 + 1/128) crosses the singular value 1 inside the
    # block at t = 32, 33 (T = 64), placed so that b1(u_32) * b1(u_33) = 1
    # and the 2x2 block matrix [[1, b1(u_32)], [b1(u_33), 1]] degenerates;
    # in windows of 8 values it lies in the fifth and keeps its number on the path
    monkeypatch.setattr(processes, "_WINDOW", window)
    spec = make_process_spec("tvDAR", ar=["1", "exp(u-0.5078125)"], seed=2)
    with pytest.raises(SingularBlockError) as excinfo:
        simulate(spec, 64)
    assert excinfo.value.block_index == 16
    assert excinfo.value.condition > 1e9
    assert excinfo.value.condition == block_condition(spec, 64, 16)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("run", [simulate, first_seed], ids=["simulate", "seeds"])
def test_simulate_judges_singular_blocks_window_by_window(run):
    # b0 = exp(-40u) falls to 4e-18 near u = 1: below 1e-9 times the largest |b0| of a path that is one
    # window (1), not below 1e-9 times that of the second window of a path of two (exp(-20) = 2e-9)
    spec = make_process_spec("tvDAR", ar=["exp(-40*u)"], seed=1)
    with pytest.raises(SingularBlockError):
        run(spec, processes._WINDOW)
    assert np.max(np.abs(run(spec, 2 * processes._WINDOW).values)) > 1e17


@pytest.mark.filterwarnings("error")
def test_singular_block_with_a_zero_pivot_column():
    # b0 = u - 0.5 vanishes at t = 32 and b1 = u - 33/64 at t = 33: column 0
    # of block 16 is all zero, so the elimination has no pivot at all
    spec = make_process_spec("tvDAR", ar=["u-0.5", "u-0.515625"], seed=3)
    with pytest.raises(SingularBlockError) as excinfo:
        simulate(spec, 64)
    assert excinfo.value.block_index == 16
    assert excinfo.value.condition == np.inf


@pytest.mark.parametrize("window", [processes._WINDOW, 8])
@settings(max_examples=40, deadline=None, database=None)
@given(
    kind=st.sampled_from(KINDS),
    distribution=st.sampled_from(DISTRIBUTIONS),
    b1=st.floats(-0.9, 0.8),
    extra_seeds=st.lists(st.integers(0, 2**64 - 1), max_size=2),
    m=st.integers(2, 6),
)
def test_simulate_seeds_equals_simulate_per_seed(window, kind, distribution, b1, extra_seeds, m):
    spec = make_process_spec(
        kind, ar=["1", f"0.1+{b1}*u"], ma=["1", "0.5*cos(2*pi*u)", "0.2"], trend="u", amplitude="1+u",
        distribution=distribution, sigma=1.5, seed=3,
    )
    T, seeds = 1 << m, [0, 2**64 - 1, *extra_seeds]
    n = min(T, max(window, len(spec.ar), len(spec.ma)))
    # mock.patch, not monkeypatch: Hypothesis rejects function-scoped fixtures
    with mock.patch.object(processes, "_WINDOW", window), mock.patch.object(processes, "_paths", wraps=_paths) as spy:
        paths = list(simulate_seeds(spec, T, iter(seeds)))
        # simulate's windows, each built once for all the seeds
        assert [call.args[2:] for call in spy.call_args_list] == [(lo, lo + n) for lo in range(0, T, n)]
        for seed, path in zip(seeds, paths, strict=True):
            expect = simulate(spec.with_seed(seed), T)
            assert np.array_equal(path.values, expect.values)
            assert np.array_equal(path.innovations, expect.innovations)


@pytest.mark.parametrize("window", [processes._WINDOW, 8])
def test_simulate_seeds_raises_the_singular_block_simulate_raises(monkeypatch, window):
    # the curve of test_singular_block_when_curve_crosses, in one window and in windows of 8
    monkeypatch.setattr(processes, "_WINDOW", window)
    spec = make_process_spec("tvDAR", ar=["1", "exp(u-0.5078125)"], seed=2)
    with pytest.raises(SingularBlockError) as direct:
        simulate(spec.with_seed(7), 64)
    with pytest.raises(SingularBlockError) as batched:
        next(simulate_seeds(spec, 64, [7]))
    assert batched.value.block_index == direct.value.block_index == 16


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("window", [processes._WINDOW, 8])
@pytest.mark.parametrize("run", [simulate, first_seed], ids=["simulate", "seeds"])
def test_singular_block_of_one_coefficient_keeps_its_path_index(monkeypatch, window, run):
    # b0 = u - 0.75 is exactly 0 at t = 48 (T = 64), in one window and in the seventh window of 8 values alike
    monkeypatch.setattr(processes, "_WINDOW", window)
    with pytest.raises(SingularBlockError) as excinfo:
        run(make_process_spec("tvDAR", ar=["u-0.75"], seed=1), 64)
    assert excinfo.value.block_index == 48
    assert excinfo.value.condition == np.inf


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


@pytest.mark.parametrize("innovations, message", [
    (np.zeros((2, 4)), "innovations must be one-dimensional, got shape (2, 4)"),
    (np.zeros(4), "innovations must hold T=8 values, got 4"),
    (np.full(8, np.nan), "innovations must hold only finite values, got nan at index 0"),
    (np.r_[np.zeros(7), np.inf], "innovations must hold only finite values, got inf at index 7"),
], ids=["2-D", "short", "nan", "inf"])
def test_supplied_innovations_must_be_T_finite_values(innovations, message):
    spec = make_process_spec("tvDARMA", ar=["1", "0.3"], ma=["1", "0.5"])
    for run in (lambda: simulate(spec, 8, innovations), lambda: simulate_frozen(spec, 0.5, 8, innovations)):
        with pytest.raises(ValueError) as info:
            run()
        assert str(info.value) == message


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
    assert oracle_window_sup_error(tv.values, fr.values, T // 2, 0) < 1e-14


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


def test_decay_exact_is_decided_from_the_curves():
    # at radius 0 and u0*T an integer the one window point has t/T = u0, so the
    # frozen errors are exactly zero, yet the curves vary: not exact, no slope
    spec = make_process_spec("tvDMA", ma=["1", "0.5*u"], seed=4)
    report = decay_experiment(spec, "frozen", T_values=(64, 128), u0=0.5, radius=0, replicates=2)
    assert report.errors == (0.0, 0.0)
    assert not report.exact and report.slope is None
    # modulated reads its MA curves at u = 0 alone, so those may vary
    spec = make_process_spec("modulated", ma=["1", "0.5*u"], seed=4)
    assert decay_experiment(spec, "frozen", T_values=(64, 128), replicates=2).exact


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


# ------------------------------------------- decay experiments on aligned windows


def _full_path_slack_pattern(T, width, magnitude):
    t = np.arange(T)[:, None]
    k = np.arange(width)[None, :]
    return (magnitude / T) * (1.0 - 2.0 * ((t + k) & 1))


def full_path_errors(spec, mode, T_values, u0, radius, replicates, slack):
    """`decay_experiment`'s mean errors computed the earlier way: every replicate simulates all T points."""
    def core(b_rows, a_rows, eps):  # the moving-average combine, then the block solve
        ma_part = _dma_combine(a_rows, eps)
        return ma_part if spec.kind in MA_KINDS else _block_solve(b_rows, ma_part)

    windows = [_window(round(u0 * T), radius, T) for T in T_values]
    mean_errors = []
    for T, window in zip(T_values, windows):
        u = np.arange(T) / T
        b_rows, a_rows = coefficient_rows(spec, u)
        if slack:
            a_rows = a_rows + _full_path_slack_pattern(T, a_rows.shape[1], slack)
            if spec.kind not in MA_KINDS:
                b_rows = b_rows + _full_path_slack_pattern(T, b_rows.shape[1], slack)
        if mode == "frozen":
            fb_rows, fa_rows = coefficient_rows(spec, np.full(T, float(u0)))
        else:
            k_rows = dma_coefficient_rows(spec, u)  # amplitude folded in
        trend_vals = eval_curve(spec.trend, u)
        amp_vals = eval_curve(spec.amplitude, u)
        errs = []
        for rep in range(replicates):
            eps = make_innovations(
                replace(spec.innovations, seed=spawn_seed(spec.innovations.seed, rep)), T
            )
            core_tv = core(b_rows, a_rows, eps)
            x_tv = trend_vals + amp_vals * core_tv
            if mode == "frozen":
                core_fr = core(fb_rows, fa_rows, eps)
                x_cmp = eval_curve(spec.trend, u0) + eval_curve(spec.amplitude, u0) * core_fr
            else:
                x_cmp = trend_vals + _dma_combine(k_rows, eps)
            errs.append(float(np.max(np.abs(x_tv[window] - x_cmp[window]))))
        mean_errors.append(float(np.mean(errs)))
    return tuple(mean_errors)


# coefficients of size <= 0.2 keep every autoregressive block, slack included,
# strictly diagonally dominant for L <= 4 and T >= 16
_small = st.builds(lambda sign, m: sign * m / 1000, st.sampled_from([-1, 1]), st.integers(10, 100))
_curve = st.builds(lambda a, b: f"({a})+({b})*sin(3*u)", _small, _small)
_block = st.sampled_from([1, 2, 4]).flatmap(
    lambda L: st.lists(_curve, min_size=L - 1, max_size=L - 1).map(lambda rest: ["1", *rest])
)


@st.composite
def _decay_cases(draw):
    kind = draw(st.sampled_from(["tvDMA", "tvDAR", "tvDARMA", "modulated"]))
    spec = make_process_spec(
        kind,
        ar=draw(_block) if kind in ("tvDAR", "tvDARMA") else None,
        ma=draw(_block) if kind != "tvDAR" else None,
        trend=draw(_curve),
        amplitude=f"1+({draw(_small)})*u",
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    T_values = tuple(draw(st.lists(st.sampled_from([16, 32, 64, 128]), min_size=2, max_size=3, unique=True)))
    u0 = draw(st.floats(0.0, 1.0, exclude_max=True))
    radius = draw(st.integers(0, 5))
    assume(all(radius <= round(u0 * T) < T - radius for T in T_values))
    return dict(
        spec=spec,
        mode=draw(st.sampled_from(["frozen"] if kind in MA_KINDS else ["frozen", "conversion"])),
        T_values=T_values,
        u0=u0,
        radius=radius,
        replicates=draw(st.integers(1, 3)),
        slack=draw(st.sampled_from([0.0, 0.5, 1.0])),
    )


@settings(max_examples=40, deadline=None, database=None)
@given(_decay_cases())
def test_windowed_decay_errors_equal_the_full_path_errors(case):
    assert decay_experiment(**case).errors == full_path_errors(**case)


def test_decay_experiment_draws_only_the_aligned_windows(monkeypatch):
    shapes = []
    draw = processes._draw

    def counting(spec, seeds, count, start):
        eps = draw(spec, seeds, count, start)
        shapes.append(eps.shape)
        return eps

    monkeypatch.setattr(processes, "_draw", counting)
    spec = make_process_spec("tvDARMA", ar=["1", "0.2*u"], ma=["1", "0.1", "0.2*u", "0.1"], seed=5)
    T_values = (64, 128, 256, 1024)
    decay_experiment(spec, "conversion", T_values=T_values, u0=0.3, radius=5, replicates=3)
    # L = 4; the windows [14, 25), [33, 44), [72, 83) and [302, 313) have the
    # aligned hulls [12, 28), [32, 44), [72, 84) and [300, 316): one draw per T, a row per replicate
    assert shapes == [(3, 16), (3, 12), (3, 12), (3, 16)]
    assert not {n for _, n in shapes} & set(T_values)


@pytest.mark.parametrize(
    "case",
    [
        dict(spec=preset_spec("figure1", seed=3), mode="frozen", u0=0.3, slack=0.0),
        dict(
            spec=make_process_spec("tvDARMA", ar=["1", "0.2*u"], ma=["1", "0.1", "0.2*u", "0.1"], trend="u", seed=2**64 - 1),
            mode="conversion",
            u0=0.71,
            slack=0.5,
        ),
    ],
)
def test_decay_experiment_chunks_equal_the_full_path_errors(monkeypatch, case):
    # 11 replicates in blocks of one window of 64 values (a power of two, as `simulate`'s windows need): hulls of
    # 12 or 16 values give blocks of 5 or 4 replicates, two full blocks and a partial one
    monkeypatch.setattr(processes, "_WINDOW", 64)
    blocks, draw = [], processes._draw
    args = dict(case, T_values=(64, 128, 256), radius=5, replicates=11)
    with monkeypatch.context() as patch:
        patch.setattr(processes, "_draw", lambda spec, seeds, count, start: (
            blocks.append((count, len(seeds))) or draw(spec, seeds, count, start)))
        errors = decay_experiment(**args).errors
    rows = {12: (5, 5, 1), 16: (4, 4, 3)}  # replicates of each block of a horizon, by hull length
    assert len(blocks) == 9 and all(n == rows[count][i % 3] for i, (count, n) in enumerate(blocks))
    assert errors == full_path_errors(**args)


def test_decay_experiment_memory_is_bounded_by_one_chunk():
    spec = make_process_spec("tvDARMA", ar=["1", "0.2*u", "0.1", "-0.1*u"], ma=["1", "0.1", "0.2*u", "0.1"], seed=5)
    # u0 = 0.3, radius 16: both windows have an aligned hull of 36 values, so a block holds _WINDOW // 36 of them
    hull_floats = processes._WINDOW // 36 * 36

    def peak(replicates):
        tracemalloc.start()
        try:
            decay_experiment(spec, "frozen", T_values=(128, 256), u0=0.3, radius=16, replicates=replicates)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_chunk, many = peak(processes._WINDOW // 36), peak(5000)
    # about 8 block x hull floats; past one block only the seeds and the errors grow, 16 bytes per replicate
    assert many <= 10 * 8 * hull_floats
    assert many <= 1.1 * one_chunk


@pytest.mark.parametrize("mode", ["frozen", "conversion"])
def test_decay_experiment_memory_is_one_window_at_a_large_radius(mode):
    # radius 4096: a hull of 8196 values, so a block holds 3 replicates, not all 64
    spec = make_process_spec("tvDARMA", ar=["1", "0.2*u", "0.1", "-0.1*u"], ma=["1", "0.1", "0.2*u", "0.1"], seed=5)
    args = dict(spec=spec, mode=mode, T_values=(16384, 32768), u0=0.5, radius=4096, replicates=64, slack=0.0)

    def peak(replicates):
        tracemalloc.start()
        try:
            return decay_experiment(**dict(args, replicates=replicates)).errors, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (errors, many), (_, one) = peak(64), peak(1)
    assert errors == full_path_errors(**args)
    # one replicate peaks at 8.5 windows of floats in frozen mode and 12.2 in conversion mode, where a hull's
    # conversion rows set the peak; a block of one window's values adds about 1.5, one block of 64 hulls about 90
    assert many - one <= 2 * 8 * processes._WINDOW
    if mode == "frozen":
        assert many <= 12 * 8 * processes._WINDOW


@pytest.mark.parametrize("ma", [None, ["1", "0.1", "0.2", "0.3"]])
@pytest.mark.parametrize("mode", ["frozen", "conversion"])
def test_decay_experiment_numbers_singular_blocks_on_the_whole_path(mode, ma):
    # the curve of test_singular_block_when_curve_crosses; with four MA curves the
    # window is aligned to 4 while the autoregressive blocks have length 2
    spec = make_process_spec("tvDAR" if ma is None else "tvDARMA", ar=["1", "exp(u-0.5078125)"], ma=ma, seed=2)
    with pytest.raises(SingularBlockError) as on_path:
        simulate(spec, 64)
    with pytest.raises(SingularBlockError) as in_window:
        decay_experiment(spec, mode, T_values=(64, 128), u0=0.5, radius=2)
    assert in_window.value.block_index == on_path.value.block_index == 16


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_decay_experiment_names_the_first_horizon_whose_mean_error_overflows():
    # each path is finite, but a trend that swings between about +-1.5e308 against its frozen value makes the
    # error overflow: the report held inf, and numpy warned
    spec = make_process_spec("tvDMA", ma=["1"], trend="1.5e308*cos(1000*u)")
    with pytest.raises(ValueError, match=r"^the mean error overflows float64 at T=64$"):
        decay_experiment(spec, "frozen", T_values=(64, 128), u0=0.3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_moving_average_rows_that_overflow_name_their_first_cell():
    # finite rows whose frozen conversion K = A / B overflows float64: grid_ratio's transform warned, and the rows
    # held inf (verify's conversion side read them before any check)
    spec = make_process_spec("tvDARMA", ar=["1", "0.5*u"], ma=["1e308", "1e308*u"])
    with pytest.raises(ValueError, match=r"^the moving-average coefficients K overflows float64 at u=0\.25, j=0$"):
        dma_coefficient_rows(spec, [0.25, 0.5])
    with pytest.raises(ValueError, match=r"^the moving-average coefficients K overflows float64 at u=0\.03125, j=0$"):
        decay_experiment(spec, "conversion", T_values=(64, 128), u0=0.3)


def test_decay_experiment_frozen_singular_block_matches_simulate_frozen():
    spec = make_process_spec("tvDAR", ar=["1", "u+0.5"], seed=2)  # b1(0.5) = 1: every frozen block is singular
    with pytest.raises(SingularBlockError) as on_path:
        simulate_frozen(spec, 0.5, 64)
    with pytest.raises(SingularBlockError) as in_window:
        decay_experiment(spec, "frozen", T_values=(64, 128), u0=0.5, radius=2)
    assert in_window.value.block_index == on_path.value.block_index


# ------------------------------------------------------------ windowed paths


@st.composite
def _window_cases(draw):
    kind = draw(st.sampled_from(KINDS))
    spec = make_process_spec(
        kind,
        ar=draw(_block) if kind in ("tvDAR", "tvDARMA") else None,
        ma=draw(_block) if kind != "tvDAR" else None,
        trend=draw(_curve),
        amplitude=f"1+({draw(_small)})*u",
        distribution=draw(st.sampled_from(DISTRIBUTIONS)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    L = max(len(spec.ar), len(spec.ma))
    T = 1 << draw(st.integers(block_exponent(L), 8))
    lo = draw(st.integers(0, T // L - 1))
    hi = draw(st.integers(lo + 1, T // L))
    return spec, T, lo * L, hi * L, draw(st.none() | st.floats(0.0, 1.0, exclude_max=True))


@settings(max_examples=60, deadline=None, database=None)
@given(_window_cases())
def test_windowed_path_equals_the_whole_path_slice(case):
    spec, T, lo, hi, u0 = case
    model = spec if u0 is None else _frozen(spec, u0)
    got = _paths(model, T, lo, hi)(make_innovations(spec.innovations, hi - lo, start=lo))
    want = (simulate(spec, T) if u0 is None else simulate_frozen(spec, u0, T)).values[lo:hi]
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=20, deadline=None, database=None)
@given(ma=st.sampled_from([None, ["1", "0.1", "0.2", "0.3"]]), data=st.data())
def test_windowed_path_numbers_a_singular_block_like_simulate(ma, data):
    # the curve of test_singular_block_when_curve_crosses: block 16 holds t = 32, 33
    spec = make_process_spec("tvDAR" if ma is None else "tvDARMA", ar=["1", "exp(u-0.5078125)"], ma=ma, seed=2)
    with pytest.raises(SingularBlockError) as on_path:
        simulate(spec, 64)
    L = max(len(spec.ar), len(spec.ma))
    lo = L * data.draw(st.integers(0, 32 // L))
    hi = L * data.draw(st.integers(-(-34 // L), 64 // L))
    path = _paths(spec, 64, lo, hi)
    with pytest.raises(SingularBlockError) as in_window:
        path(make_innovations(spec.innovations, hi - lo, start=lo))
    assert in_window.value.block_index == on_path.value.block_index == 16


_CONVERSION_SPECS = [
    make_process_spec("tvDAR", ar=["1", "0.3*sin(2*pi*u)"], trend="2*u-1", amplitude="1+u*u", seed=4),
    make_process_spec("tvDAR", ar=["1", "0.2*u", "-0.1", "0.1*cos(3*u)"], trend="sin(3*u)", amplitude="0.5+u", seed=5),
    make_process_spec("tvDARMA", ar=["1", "0.2*u"], ma=["1", "0.4*cos(2*u)"], trend="u", amplitude="2-u", seed=6),
    make_process_spec(
        "tvDARMA", ar=["1", "0.1*u", "0.1", "-0.2*u"], ma=["1", "0.3", "u/5", "0.1"], trend="exp(u)", amplitude="1+u/3",
        seed=7,
    ),
]


@pytest.mark.parametrize(
    "spec", _CONVERSION_SPECS, ids=[f"{s.kind}-L{max(len(s.ar), len(s.ma))}" for s in _CONVERSION_SPECS]
)
def test_conversion_comparator_is_the_frozen_moving_average_path(spec):
    # verify's conversion side, a `_paths` path read by `_dma_rows`, keeps the bits of the hand-built
    # trend + sum_k (K_k * amplitude)(t/T) eps_{t XOR k} on a hull that does not start at 0, one row per replicate
    T, lo, hi = 64, 8, 40
    u = np.arange(lo, hi) / T
    b_rows, a_rows = coefficient_rows(spec, u)
    k_rows = grid_ratio(a_rows, b_rows, where=u) * eval_curve(spec.amplitude, u)[:, None]
    eps = _draw(spec.innovations, [1, 2, 3], hi - lo, lo)
    want = eval_curve(spec.trend, u) + _dma_combine(k_rows, eps)
    got = _paths(spec, T, lo, hi, read=_dma_rows)(eps)
    assert got.shape == want.shape == (3, hi - lo)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


_SMALL_WINDOW_SPECS = [
    *(make_process_spec(
        kind, ar=["1", "0.2*u", "0.1", "-0.1*sin(3*u)"], ma=["1", "0.3*cos(2*pi*u)"], trend="u", amplitude="1+u",
        distribution=distribution, sigma=1.5, seed=2**64 - 1,
    ) for kind in KINDS for distribution in DISTRIBUTIONS),
    # L = 16 is longer than the window of 8: windows of L values
    make_process_spec("tvDARMA", ar=["1", "0.1*u"], ma=["1", *(f"0.01*({k}-u)" for k in range(15))], seed=7),
]


@pytest.mark.parametrize("supplied", [False, True], ids=["drawn", "supplied"])
@pytest.mark.parametrize(
    "spec",
    _SMALL_WINDOW_SPECS,
    ids=[f"{s.kind}-{s.innovations.distribution}-L{max(len(s.ar), len(s.ma))}" for s in _SMALL_WINDOW_SPECS],
)
def test_simulate_in_small_windows_equals_one_window(monkeypatch, spec, supplied):
    T = 64
    whole = simulate(spec, T)  # _WINDOW >= T: one window
    innovations = whole.innovations.copy() if supplied else None
    monkeypatch.setattr(processes, "_WINDOW", 8)
    got = simulate(spec, T, innovations)
    for a, b in ((got.values, whole.values), (got.innovations, whole.innovations)):
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("name, small, large, floats_per_value", [
    ("figure1", 0, 1 << 15, 8.5),
    ("tvDARMA", 0, 1 << 16, 10.5),
    ("figure1", 0, 1 << 16, 8.5),
    ("tvDARMA", 1 << 17, 1 << 18, 2.25),
    ("figure1", 1 << 17, 1 << 18, 2.25),
])
def test_simulate_frees_its_rows_before_trend_and_amplitude(name, small, large, floats_per_value):
    # the tracemalloc peak grows by at most floats_per_value per value from T = small to T = large.  A core that
    # holds its rows while trend and amplitude are evaluated reads about 12 floats per value on the tvDARMA spec
    # and 9 on figure1; past one window each value adds two floats, its path value and its innovation.  A path of one
    # window is that window's own arrays: copied into preallocated ones, figure1 reads 9.3 at T = 2**15, not 8.3
    if name == "figure1":
        spec = preset_spec("figure1")
    else:
        spec = make_process_spec("tvDARMA", ar=["1", "-0.2+0.5*u"], ma=["1", "0.25+0.3*u"], trend="u", amplitude="1+u")

    def peak(T):
        if not T:
            return 0
        tracemalloc.start()
        try:
            simulate(spec, T)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    simulate(spec, 1 << 10)
    assert peak(large) - peak(small) <= floats_per_value * 8 * (large - small)


@pytest.mark.parametrize("small", [1 << 15, 1 << 16])
def test_residual_memory_is_flat_past_one_window(small):
    # the tracemalloc peak grows by at most 0.5 floats per value from T = small to 2**17: the residual runs window by
    # window, so its rows, trend, amplitude, core and two combines are one window's.  A residual that reads the
    # whole path's rows at once grows by 11 floats per value; one that keeps a window's arrays while it reads the
    # next window's rows grows by 1.9 from one window (2**15)
    spec = make_process_spec("tvDARMA", ar=["1", "-0.2+0.5*u"], ma=["1", "0.25+0.3*u"], trend="u", amplitude="1+u")

    def peak(T):
        path = simulate(spec, T)
        tracemalloc.start()
        try:
            defining_equation_residual(spec, path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(1 << 17) - peak(small) <= 0.5 * 8 * ((1 << 17) - small)


_RESIDUAL_SPECS = {
    "tvdarma": make_process_spec("tvDARMA", ar=["1", "-0.2+0.5*u"], ma=["1", "0.25+0.3*u"], seed=7),
    "trend_amp": make_process_spec(
        "tvDARMA", ar=["1", "0.4*cos(2*pi*u)"], ma=["1", "0.3+0.2*u", "0.1", "-0.2*u"], trend="1+0.5*u",
        amplitude="1.5+0.5*sin(2*pi*u)", distribution="uniform", sigma=0.8, seed=4,
    ),
    "figure1": preset_spec("figure1"),
    "ar4": make_process_spec("tvDAR", ar=["1", "0.3*u", "-0.2", "0.1*cos(2*pi*u)"], trend="-0.5*u", seed=2),
    "modulated": make_process_spec(
        "modulated", ma=["1", "0.5+0.25*u"], trend="u", amplitude="2+cos(2*pi*u)", distribution="rademacher", seed=6,
    ),
}


@pytest.mark.parametrize("name", _RESIDUAL_SPECS)
def test_residual_in_small_windows_equals_one_window(monkeypatch, name):
    spec = _RESIDUAL_SPECS[name]
    path = simulate(spec, 1024)
    whole = defining_equation_residual(spec, path)  # _WINDOW >= T: one window
    monkeypatch.setattr(processes, "_WINDOW", 8)
    assert defining_equation_residual(spec, path).hex() == whole.hex()
    assert whole < 1e-9


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
