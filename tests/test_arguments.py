"""Integer and real-number arguments across the package: checked by name, never coerced.

Every integer argument goes through `dyadic.as_int`: a float (even an
integral one), a bool or a string raises TypeError naming the parameter,
and a numpy integer gives exactly what the equal int gives.  Real-number
arguments reject a bool or a string the same way.
"""

import json
import re

import numpy as np
import pytest

from walsh_spectra.dyadic import (
    DyadicPoint,
    as_int,
    block_exponent,
    dyadic_add,
    grid_points,
    grid_values,
    hadamard_matrix,
    rademacher,
    walsh,
)
from walsh_spectra.poly import unit
from walsh_spectra.processes import (
    InnovationSpec,
    approx_error,
    decay_experiment,
    make_innovations,
    make_process_spec,
    simulate,
    simulate_frozen,
    spawn_seed,
)
from walsh_spectra.spectra import (
    covariance_from_density,
    dma_covariance,
    empirical_dyadic_covariance,
    periodogram_grid,
    smooth_periodogram,
    tv_dyadic_density,
    walsh_periodogram,
)

SPEC = make_process_spec("tvDMA", ma=["1", "0.5*u"], trend="u", seed=3)
PATH = simulate(SPEC, 32)
FROZEN = simulate_frozen(SPEC, 0.5, 32)


def decay(**kwargs):
    """A small frozen-mode decay report as JSON text: a numpy integer left in a field would not serialize."""
    args = {"T_values": (8, 16), "radius": 1, "replicates": 2, **kwargs}
    return json.dumps(decay_experiment(SPEC, "frozen", **args).to_dict())


INTEGER_ARGUMENTS = [
    ("dyadic_add a", "a", lambda v: dyadic_add(v, 3), 5),
    ("dyadic_add b", "b", lambda v: dyadic_add(5, v), 3),
    ("DyadicPoint numerator", "numerator", lambda v: DyadicPoint(v, 3), 6),
    ("DyadicPoint resolution", "resolution", lambda v: DyadicPoint(1, v), 3),
    ("rademacher", "k", lambda v: rademacher(v, 0.375), 1),
    ("walsh", "n", lambda v: walsh(v, 0.375), 5),
    ("grid_points", "m", grid_points, 2),
    ("grid_values", "m", grid_values, 3),
    ("hadamard_matrix", "m", hadamard_matrix, 2),
    ("block_exponent", "size", lambda v: block_exponent(v, "size"), 8),
    ("InnovationSpec", "seed", lambda v: InnovationSpec(seed=v), 7),
    ("spawn_seed master", "master", lambda v: spawn_seed(v, 2), 7),
    ("spawn_seed index", "index", lambda v: spawn_seed(7, v), 2),
    ("make_innovations count", "count", lambda v: make_innovations(SPEC.innovations, v), 4),
    ("make_innovations start", "start", lambda v: make_innovations(SPEC.innovations, 4, start=v), 5),
    ("simulate", "T", lambda v: simulate(SPEC, v).values, 8),
    ("simulate_frozen", "T", lambda v: simulate_frozen(SPEC, 0.25, v).values, 8),
    ("approx_error center", "center", lambda v: approx_error(PATH, FROZEN, v, 2), 16),
    ("approx_error radius", "radius", lambda v: approx_error(PATH, FROZEN, 16, v), 2),
    ("decay_experiment T_values", "T_values[1]", lambda v: decay(T_values=(8, v)), 16),
    ("decay_experiment radius", "radius", lambda v: decay(radius=v), 1),
    ("decay_experiment replicates", "replicates", lambda v: decay(replicates=v), 2),
    ("unit", "length", unit, 4),
    ("padded_to", "length", lambda v: unit().padded_to(v), 4),
    ("tv_dyadic_density", "m", lambda v: tv_dyadic_density(SPEC, [0.25, 0.5], v).values, 2),
    ("dma_covariance", "tau", lambda v: dma_covariance([1.0, 0.5], 1.0, v), 1),
    ("covariance_from_density", "tau", lambda v: covariance_from_density([1.0, 2.0, 3.0, 4.0], v), 1),
    ("empirical_dyadic_covariance tau", "tau", lambda v: empirical_dyadic_covariance(PATH, v), 1),
    ("empirical_dyadic_covariance start", "segment", lambda v: empirical_dyadic_covariance(PATH, 1, (v, 8)), 8),
    ("empirical_dyadic_covariance length", "segment", lambda v: empirical_dyadic_covariance(PATH, 1, (8, v)), 8),
    ("periodogram_grid N", "N", lambda v: periodogram_grid(PATH.values, v).values, 8),
    ("periodogram_grid step", "step", lambda v: periodogram_grid(PATH.values, 8, v).values, 4),
    ("smooth_periodogram", "half_width", lambda v: smooth_periodogram(walsh_periodogram(PATH.values), v).values, 1),
]


@pytest.mark.parametrize(
    "name, call, value", [row[1:] for row in INTEGER_ARGUMENTS], ids=[row[0] for row in INTEGER_ARGUMENTS]
)
def test_integer_arguments_are_checked_by_name(name, call, value):
    for bad in (float(value), True, str(value)):
        with pytest.raises(TypeError, match=f"^{re.escape(f'{name} must be an integer, got {bad!r}')}$"):
            call(bad)
    np.testing.assert_equal(call(np.int64(value)), call(value))


def test_as_int_returns_a_python_int():
    for value in (np.uint64(2**64 - 1), np.int8(-3), 2**70):
        assert type(as_int(value, "x")) is int and as_int(value, "x") == value


REAL_ARGUMENTS = [
    ("simulate_frozen", "u0", lambda v: simulate_frozen(SPEC, v, 8).values, 0.25),
    ("decay_experiment u0", "u0", lambda v: decay(u0=v), 0.25),
    ("decay_experiment slack", "slack", lambda v: decay(slack=v), 1.0),
]


@pytest.mark.parametrize(
    "name, call, value", [row[1:] for row in REAL_ARGUMENTS], ids=[row[0] for row in REAL_ARGUMENTS]
)
def test_real_arguments_reject_bools_and_strings_by_name(name, call, value):
    for bad in (True, str(value)):
        with pytest.raises(TypeError, match=f"^{re.escape(f'{name} must be a real number, got {bad!r}')}$"):
            call(bad)
    np.testing.assert_equal(call(np.float64(value)), call(value))
