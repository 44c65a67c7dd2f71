"""Integer, real-number and array arguments across the package: checked by name, never coerced.

Every integer argument goes through `dyadic.as_int`: a float (even an
integral one), a bool or a string raises TypeError naming the parameter,
and a numpy integer gives exactly what the equal int gives.  Real-number
arguments reject a bool or a string the same way.  A value of the right
type outside its range raises ValueError naming the parameter and the value.
Every array argument goes through `dyadic.as_finite_array`: a value that is
not one-dimensional, or holds a NaN or an infinity, raises ValueError naming
the parameter and the shape, or the value and its index.  Each is checked
once, by the public function that receives it; a grid the package builds is
not checked, but for the operands it hands to the public `grid_ratio`.
"""

import json
import math
import re

import numpy as np
import pytest

from walsh_spectra import poly, processes, spectra
from walsh_spectra.dyadic import (
    DyadicPoint,
    as_finite_array,
    as_int,
    as_real,
    block_exponent,
    dyadic_add,
    dyadic_add_points,
    grid_points,
    grid_values,
    hadamard_matrix,
    rademacher,
    walsh,
)
from walsh_spectra.poly import WalshPolynomial, grid_ratio, unit
from walsh_spectra.processes import (
    InnovationSpec,
    SamplePath,
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
)
from walsh_spectra.spectra import (
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

SPEC = make_process_spec("tvDMA", ma=["1", "0.5*u"], trend="u", seed=3)
PATH = simulate(SPEC, 32)


def decay(**kwargs):
    """A small frozen-mode decay report as JSON text: a numpy integer left in a field would not serialize."""
    args = {"T_values": (8, 16), "radius": 1, "replicates": 2, **kwargs}
    return json.dumps(decay_experiment(SPEC, "frozen", **args).to_dict())


# each row: id, the argument's name, a call, a value in range, and one outside its range
INTEGER_ARGUMENTS = [
    ("dyadic_add a", "a", lambda v: dyadic_add(v, 3), 5, -1),
    ("dyadic_add b", "b", lambda v: dyadic_add(5, v), 3, 2**62),
    ("DyadicPoint numerator", "numerator", lambda v: DyadicPoint(v, 3), 6, 8),
    ("DyadicPoint resolution", "resolution", lambda v: DyadicPoint(1, v), 3, -1),
    ("DyadicPoint.fractional_bit", "i", lambda v: DyadicPoint(1, 2).fractional_bit(v), 2, 0),
    ("rademacher", "k", lambda v: rademacher(v, 0.375), 1, -1),
    ("walsh", "n", lambda v: walsh(v, 0.375), 5, 2**62),
    ("grid_points", "m", grid_points, 2, 25),
    ("grid_values", "m", grid_values, 3, -1),
    ("hadamard_matrix", "m", hadamard_matrix, 2, 13),
    ("block_exponent", "size", lambda v: block_exponent(v, "size"), 8, 12),
    ("InnovationSpec", "seed", lambda v: InnovationSpec(seed=v), 7, 2**64),
    ("spawn_seed master", "master", lambda v: spawn_seed(v, 2), 7, -1),
    ("spawn_seed index", "index", lambda v: spawn_seed(7, v), 2, -1),
    ("make_innovations count", "count", lambda v: make_innovations(SPEC.innovations, v), 4, 0),
    ("make_innovations start", "start", lambda v: make_innovations(SPEC.innovations, 4, start=v), 5, -1),
    ("simulate", "T", lambda v: simulate(SPEC, v).values, 8, 12),
    ("simulate_frozen", "T", lambda v: simulate_frozen(SPEC, 0.25, v).values, 8, 12),
    ("decay_experiment T_values", "T_values[1]", lambda v: decay(T_values=(8, v)), 16, 12),
    ("decay_experiment radius", "radius", lambda v: decay(radius=v), 1, -1),
    ("decay_experiment replicates", "replicates", lambda v: decay(replicates=v), 2, 0),
    ("unit", "length", unit, 4, 3),
    ("unit negative", "length", unit, 4, -2),
    ("padded_to", "length", lambda v: unit(2).padded_to(v), 4, 3),
    ("padded_to shrink", "length", lambda v: unit(2).padded_to(v), 4, 1),
    ("tv_dyadic_density", "m", lambda v: tv_dyadic_density(SPEC, [0.25, 0.5], v).values, 2, 25),
    ("dma_covariance", "tau", lambda v: dma_covariance([1.0, 0.5], 1.0, v), 1, -1),
    ("covariance_from_density", "tau", lambda v: covariance_from_density([1.0, 2.0, 3.0, 4.0], v), 1, 4),
    ("empirical_dyadic_covariance tau", "tau", lambda v: empirical_dyadic_covariance(PATH, v), 1, 32),
    ("empirical_dyadic_covariance start", "segment", lambda v: empirical_dyadic_covariance(PATH, 1, (v, 8)), 8, 4),
    ("empirical_dyadic_covariance length", "segment", lambda v: empirical_dyadic_covariance(PATH, 1, (8, v)), 8, 12),
    ("periodogram_grid N", "N", lambda v: periodogram_grid(PATH.values, v).values, 8, 12),
    ("periodogram_grid step", "step", lambda v: periodogram_grid(PATH.values, 8, v).values, 4, 0),
    ("smooth_periodogram", "half_width", lambda v: smooth_periodogram(walsh_periodogram(PATH.values), v).values, 1, -1),
]
#: rows whose range is checked under another name: N is a segment length
RANGE_NAMES = {
    "periodogram_grid N": "segment length",
}


@pytest.mark.parametrize(
    "name, call, value", [row[1:4] for row in INTEGER_ARGUMENTS], ids=[row[0] for row in INTEGER_ARGUMENTS]
)
def test_integer_arguments_are_checked_by_name(name, call, value):
    for bad in (float(value), True, str(value)):
        with pytest.raises(TypeError, match=f"^{re.escape(f'{name} must be an integer, got {bad!r}')}$"):
            call(bad)
    np.testing.assert_equal(call(np.int64(value)), call(value))


@pytest.mark.parametrize(
    "row_id, name, call, bad", [(row[0], row[1], row[2], row[4]) for row in INTEGER_ARGUMENTS],
    ids=[row[0] for row in INTEGER_ARGUMENTS],
)
def test_integer_arguments_out_of_range_are_named_with_their_value(row_id, name, call, bad):
    # the message opens with the argument's name and holds the value as a whole number
    name = RANGE_NAMES.get(row_id, name)
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} .*(?<![\w.]){re.escape(str(bad))}(?![\w.])"):
        call(bad)


def test_as_int_returns_a_python_int():
    for value in (np.uint64(2**64 - 1), np.int8(-3), 2**70):
        assert type(as_int(value, "x")) is int and as_int(value, "x") == value


@pytest.mark.parametrize("args, message", [
    ((-1, "n", 0), "n must be >= 0, got -1"),
    ((np.int64(7), "n", 8), "n must be >= 8, got 7"),
    ((5, "n", 0, 5), "n must lie in [0, 5), got 5"),
    ((2**64, "seed", 0, 2**64), "seed must lie in [0, 2**64), got 18446744073709551616"),
    ((2**32, "n", 0, 2**32), "n must lie in [0, 4294967296), got 4294967296"),
    ((3**40, "n", 0, 3**40), f"n must lie in [0, {3**40}), got {3**40}"),
])
def test_as_int_range_messages(args, message):
    with pytest.raises(ValueError) as info:
        as_int(*args)
    assert str(info.value) == message
    value, what, *bounds = args
    assert as_int(bounds[0], what, *bounds) == bounds[0]


@pytest.mark.parametrize("args, message", [
    ((math.nan, "slack"), "slack must be a finite number, got nan"),
    ((-math.inf, "slack"), "slack must be a finite number, got -inf"),
    ((1, "u0", 0, 1), "u0 must be a finite number in [0, 1), got 1.0"),
    ((np.float32(-0.5), "u0", 0, 1), "u0 must be a finite number in [0, 1), got -0.5"),
])
def test_as_real_range_messages(args, message):
    with pytest.raises(ValueError) as info:
        as_real(*args)
    assert str(info.value) == message
    assert type(as_real(np.float32(0.5), "x", 0, 1)) is float and as_real(0, "x", 0, 1) == 0.0


# each row: id, the argument's name, a call, a value in range, and values outside its range
REAL_ARGUMENTS = [
    ("simulate_frozen", "u0", lambda v: simulate_frozen(SPEC, v, 8).values, 0.25, (1.0, -0.25, math.nan, math.inf)),
    ("decay_experiment u0", "u0", lambda v: decay(u0=v), 0.25, (1.0, -1e-300, math.nan, -math.inf)),
    ("decay_experiment slack", "slack", lambda v: decay(slack=v), 1.0, (math.nan, math.inf, -math.inf)),
    ("walsh", "x", lambda v: walsh(1, v), 0.5, (1.0, -0.5, math.nan)),
    ("rademacher", "x", lambda v: rademacher(0, v), 0.75, (1.5, math.inf)),
    ("dyadic_add_points x", "x", lambda v: dyadic_add_points(v, 0.25), 0.5, (1.0, -1.0)),
    ("dyadic_add_points y", "y", lambda v: dyadic_add_points(0.5, v), 0.25, (2.0, math.nan)),
    ("DyadicPoint.from_float", "point", lambda v: DyadicPoint.from_float(v).value, 0.375, (1.0, -0.125, math.nan)),
]


@pytest.mark.parametrize(
    "name, call, value", [row[1:4] for row in REAL_ARGUMENTS], ids=[row[0] for row in REAL_ARGUMENTS]
)
def test_real_arguments_reject_bools_and_strings_by_name(name, call, value):
    for bad in (True, str(value)):
        with pytest.raises(TypeError, match=f"^{re.escape(f'{name} must be a real number, got {bad!r}')}$"):
            call(bad)
    np.testing.assert_equal(call(np.float64(value)), call(value))


@pytest.mark.parametrize(
    "name, call, bads", [(row[1], row[2], row[4]) for row in REAL_ARGUMENTS], ids=[row[0] for row in REAL_ARGUMENTS]
)
def test_real_arguments_outside_their_range_are_named_with_their_value(name, call, bads):
    span = "" if name == "slack" else " in [0, 1)"
    for bad in bads:
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be a finite number{span}, got {bad}')}$"):
            call(bad)


# each row: id, the argument's name, a call, and values it rejects: a 2-D one, one holding a NaN and one an infinity
ARRAY_ARGUMENTS = [
    ("WalshPolynomial", "coefficients", WalshPolynomial,
     ([[1.0, 2.0]], [1.0, math.nan], [-math.inf])),
    ("dma_covariance", "coefficients", lambda v: dma_covariance(v, 1.0, 1),
     ([[1.0], [0.5]], [math.nan, 0.5], [1.0, math.inf])),
    ("covariance_from_density", "density_row", lambda v: covariance_from_density(v, 0),
     (np.ones((2, 4)), [1.0, math.nan], [math.inf, 1.0])),
    ("periodogram_grid", "values", lambda v: periodogram_grid(v, 2),
     (np.ones((2, 4)), [1.0, math.nan, 2.0, 3.0], [1.0, -math.inf])),
    ("segmented_local_spectrum", "values", lambda v: segmented_local_spectrum(v, 4),
     (np.ones((2, 4)), np.r_[np.ones(7), -np.inf], [math.nan] * 4)),
    ("walsh_periodogram", "data", walsh_periodogram,
     (np.ones((2, 4)), [1.0, math.inf], [math.nan, 1.0])),
    ("empirical_dyadic_covariance", "path", lambda v: empirical_dyadic_covariance(v, 1),
     (np.ones((4, 8)), [1.0, math.nan], [math.inf, 1.0])),
    ("simulate", "innovations", lambda v: simulate(SPEC, 4, v),
     (np.zeros((1, 4)), [0.0, math.nan, 0.0, 0.0], [0.0, 0.0, 0.0, math.inf])),
    ("defining_equation_residual path.values", "path.values",
     lambda v: defining_equation_residual(SPEC, SamplePath(v, PATH.innovations)),
     (PATH.values.reshape(4, 8), np.r_[PATH.values[:31], math.nan], [math.inf] * 32)),
    ("defining_equation_residual path.innovations", "path.innovations",
     lambda v: defining_equation_residual(SPEC, SamplePath(PATH.values, v)),
     (PATH.innovations.reshape(4, 8), np.r_[math.nan, PATH.innovations[1:]], [1.0] * 31 + [-math.inf])),
    ("coefficient_rows", "u", lambda v: coefficient_rows(SPEC, v),
     ([[0.25, 0.5]], [0.25, math.nan], [math.inf])),
    ("dma_coefficient_rows", "u", lambda v: dma_coefficient_rows(SPEC, v),
     ([[0.25], [0.5]], [math.nan], [0.5, -math.inf])),
    ("tv_dyadic_density", "u_values", lambda v: tv_dyadic_density(SPEC, v, 2),
     ([[0.25, 0.5]], [0.5, math.nan], [math.inf])),
    ("tv_fourier_density u_values", "u_values", lambda v: tv_fourier_density(SPEC, v, [0.0, 1.0]),
     ([[0.25, 0.5]], [math.nan], [0.5, math.inf])),
    ("tv_fourier_density lambda_values", "lambda_values", lambda v: tv_fourier_density(SPEC, [0.5], v),
     ([[0.0, 1.0]], [0.0, math.nan], [-math.inf])),
]


@pytest.mark.parametrize(
    "name, call, bads", [(row[1], row[2], row[3]) for row in ARRAY_ARGUMENTS], ids=[row[0] for row in ARRAY_ARGUMENTS]
)
def test_array_arguments_must_be_one_dimensional_and_finite(name, call, bads):
    kinds = []
    for bad in bads:
        a = np.asarray(bad, dtype=np.float64)
        if a.ndim != 1:
            kinds.append("2-D")
            message = f"{name} must be one-dimensional, got shape {a.shape}"
        else:
            i = int(np.flatnonzero(~np.isfinite(a))[0])
            kinds.append("nan" if math.isnan(a[i]) else "inf")
            message = f"{name} must hold only finite values, got {a[i]} at index {i}"
        with pytest.raises(ValueError) as info:
            call(bad)
        assert str(info.value) == message
    assert sorted(kinds) == ["2-D", "inf", "nan"]


# each row: id, a call with an operand of no length or of one that is not a power of two, and the error naming it
LENGTH_ARGUMENTS = [
    ("grid_ratio num", lambda: grid_ratio([1.0, 0.3, 0.1], [1.0]), "num length must be a power of two, got 3"),
    ("grid_ratio den", lambda: grid_ratio([[1.0], [0.5]], [1.0, 0.3, 0.1]), "den length must be a power of two, got 3"),
    ("grid_ratio tie", lambda: grid_ratio(np.ones(6), np.ones(6)), "num length must be a power of two, got 6"),
    ("grid_ratio 0-d num", lambda: grid_ratio(1.0, [1.0]), "num must be at least one-dimensional, got shape ()"),
    ("grid_ratio 0-d den", lambda: grid_ratio([1.0], np.float64(1)), "den must be at least one-dimensional, got shape ()"),
    ("grid_ratio 0-d both", lambda: grid_ratio(1.0, 1.0), "num must be at least one-dimensional, got shape ()"),
]


@pytest.mark.parametrize(
    "call, message", [row[1:] for row in LENGTH_ARGUMENTS], ids=[row[0] for row in LENGTH_ARGUMENTS]
)
def test_lengths_that_are_not_powers_of_two_name_their_operand(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


AR_SPEC = make_process_spec("tvDARMA", ar=["1", "0.3*u"], ma=["1", "0.5"], seed=3)

# each row: id, one call of a public function, and the name of each check it makes, in order
CHECKS = [
    ("coefficient_rows", lambda: coefficient_rows(SPEC, [0.25, 0.5]), ["u"]),
    ("dma_coefficient_rows", lambda: dma_coefficient_rows(AR_SPEC, [0.25, 0.5]), ["u", "num", "den"]),
    ("periodogram_grid", lambda: periodogram_grid(PATH.values, 8), ["values"]),
    ("walsh_periodogram", lambda: walsh_periodogram(PATH.values), ["data"]),
    ("segmented_local_spectrum", lambda: segmented_local_spectrum(PATH, 8), ["values"]),
    ("tv_dyadic_density", lambda: tv_dyadic_density(AR_SPEC, [0.25, 0.5], 2), ["u_values", "u", "num", "den"]),
    ("tv_fourier_density", lambda: tv_fourier_density(SPEC, [0.25, 0.5], [0.0, 1.0]),
     ["u_values", "lambda_values", "u"]),
    ("simulate", lambda: simulate(AR_SPEC, 32), []),
    ("simulate innovations", lambda: simulate(SPEC, 32, PATH.innovations), ["innovations"]),
    ("simulate_frozen", lambda: simulate_frozen(AR_SPEC, 0.25, 32), []),
    ("simulate_frozen innovations", lambda: simulate_frozen(SPEC, 0.25, 32, PATH.innovations), ["innovations"]),
    ("simulate_seeds", lambda: list(simulate_seeds(AR_SPEC, 32, [1, 2])), []),
    ("decay_experiment frozen", decay, []),
    ("decay_experiment conversion",
     lambda: decay_experiment(AR_SPEC, "conversion", T_values=(8, 16), radius=1, replicates=2), ["num", "den"] * 2),
    ("defining_equation_residual", lambda: defining_equation_residual(SPEC, PATH), ["path.values", "path.innovations"]),
    ("empirical_dyadic_covariance", lambda: empirical_dyadic_covariance(PATH, 1, (8, 8)), ["path"]),
    ("covariance_from_density", lambda: covariance_from_density([1.0, 2.0], 1), ["density_row"]),
    ("dma_covariance", lambda: dma_covariance([1.0, 0.5], 1.0, 1), ["coefficients"]),
    ("WalshPolynomial", lambda: WalshPolynomial([1.0, 0.5]), ["coefficients"]),
    ("grid_ratio", lambda: grid_ratio([[1.0, 0.5]], [[1.0, 0.25]]), ["num", "den"]),
]


@pytest.mark.parametrize("call, names", [row[1:] for row in CHECKS], ids=[row[0] for row in CHECKS])
def test_each_array_argument_is_checked_once_by_the_function_that_receives_it(monkeypatch, call, names):
    seen = []

    def counting(values, what):
        seen.append(what)
        return as_finite_array(values, what)

    for module in (processes, spectra, poly):
        monkeypatch.setattr(module, "as_finite_array", counting)
    call()
    assert seen == names
