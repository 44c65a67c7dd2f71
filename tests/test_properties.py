"""Property tests: laws that hold for every input, not just the worked examples.

Examples are small and drawn single-threaded with a fixed budget, so the
file adds about a second to the suite.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from walsh_spectra.curves import Binary, Call, Literal, Negate, Pi, Variable, parse, serialize
from walsh_spectra.dyadic import INDEX_CAP, fwht
from walsh_spectra.poly import grid_ratio
from walsh_spectra.processes import DISTRIBUTIONS, InnovationSpec, make_innovations

from oracles import oracle_transform, oracle_xor_convolve

SETTINGS = settings(max_examples=60, deadline=None, database=None)

# magnitudes in [1e-3, 1e3] or exactly 0: no subnormal round-off to reason about
finite = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


def pow2_vectors(max_exponent):
    return st.integers(0, max_exponent).flatmap(
        lambda m: st.lists(finite, min_size=1 << m, max_size=1 << m).map(np.array)
    )


@SETTINGS
@given(pow2_vectors(6))
def test_fwht_is_self_inverse_and_matches_oracle(v):
    n = v.size
    scale = max(1.0, float(np.max(np.abs(v))))
    assert np.allclose(fwht(fwht(v)) / n, v, rtol=0, atol=1e-12 * n * scale)
    assert np.allclose(fwht(v), oracle_transform(v), rtol=0, atol=1e-12 * n * scale)


# curve trees exactly as the parser builds them: literals are non-negative
# (a sign is a Negate node) and exponents are integer literals
literals = st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(lambda x: Literal(abs(x)))
exponents = st.recursive(
    st.integers(0, 5).map(lambda k: Literal(float(k))),
    lambda inner: st.one_of(
        inner.map(Negate),
        st.tuples(st.integers(0, 5), inner).map(lambda p: Binary("^", Literal(float(p[0])), p[1])),
    ),
    max_leaves=3,
)
curves = st.recursive(
    st.one_of(literals, st.just(Variable()), st.just(Pi())),
    lambda inner: st.one_of(
        inner.map(Negate),
        st.tuples(st.sampled_from("+-*/"), inner, inner).map(lambda p: Binary(*p)),
        st.tuples(inner, exponents).map(lambda p: Binary("^", *p)),
        st.tuples(st.sampled_from(("cos", "sin", "exp", "abs")), inner).map(lambda p: Call(*p)),
    ),
    max_leaves=12,
)


@SETTINGS
@given(curves)
def test_parse_inverts_serialize(expr):
    assert parse(serialize(expr)) == expr


@SETTINGS
@given(
    st.sampled_from(DISTRIBUTIONS),
    st.integers(0, (1 << 64) - 1),
    st.integers(1, 64),
    st.integers(0, 64),
    st.integers(1, 64),
    st.booleans(),
)
def test_windowed_innovations_equal_the_full_stream(distribution, seed, length, offset, count, near_cap):
    offset = min(offset, length - 1)
    count = min(count, length - offset)
    base = INDEX_CAP - length if near_cap else 0
    spec = InnovationSpec(distribution, seed=seed)
    full = make_innovations(spec, length, start=base)
    assert np.array_equal(make_innovations(spec, count, start=base + offset), full[offset : offset + count])


def nonsingular(c):
    grid = np.abs(oracle_transform(c))
    return grid.min() > 0.05 * grid.max()


@SETTINGS
@given(st.integers(0, 3).flatmap(lambda m: st.tuples(*[st.lists(finite, min_size=1 << m, max_size=1 << m)] * 2)))
def test_grid_ratio_conversions_invert_each_other(pair):
    a, b = map(np.array, pair)
    assume(nonsingular(a) and nonsingular(b))
    k = grid_ratio(a, b)
    g = grid_ratio(b, a)
    unit = np.eye(1, a.size)[0]
    assert np.allclose(oracle_xor_convolve(k, g), unit, rtol=0, atol=1e-9)
    # a / b is the K with K * b == a
    assert np.allclose(oracle_xor_convolve(k, b), a, rtol=0, atol=1e-9 * np.max(np.abs(a)))
