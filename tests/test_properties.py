"""Property tests: laws that hold for every input, not just the worked examples.

Examples are small and drawn single-threaded with a fixed budget, so the
file adds about five seconds to the suite.
"""

import contextlib
import io
import json
import math
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from walsh_spectra.cli import main
from walsh_spectra.curves import (
    Binary,
    Call,
    CurveDomainError,
    Literal,
    Negate,
    Pi,
    Variable,
    _eval,
    eval_curve,
    parse,
    serialize,
)
from walsh_spectra.dyadic import INDEX_CAP, block_exponent, block_size, fwht, zero_pad
from walsh_spectra.poly import grid_ratio
from walsh_spectra.processes import (
    DISTRIBUTIONS,
    InnovationSpec,
    _block_solve,
    _dma_combine,
    _mix64_int,
    _words,
    make_innovations,
)

from oracles import (
    oracle_innovation,
    oracle_mix64,
    oracle_solve2,
    oracle_transform,
    oracle_word,
    oracle_xor_combine,
    oracle_xor_convolve,
)

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


def curve_trees(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            inner.map(Negate),
            st.tuples(st.sampled_from("+-*/"), inner, inner).map(lambda p: Binary(*p)),
            st.tuples(inner, exponents).map(lambda p: Binary("^", *p)),
            st.tuples(st.sampled_from(("cos", "sin", "exp", "abs")), inner).map(lambda p: Call(*p)),
        ),
        max_leaves=12,
    )


curves = curve_trees(st.one_of(literals, st.just(Variable()), st.just(Pi())))
# trees that never read u, with a -0.0 literal the parser does not build
constant_curves = curve_trees(st.one_of(literals, st.just(Pi()), st.just(Literal(-0.0))))


@SETTINGS
@given(curves)
def test_parse_inverts_serialize(expr):
    assert parse(serialize(expr)) == expr


def clip_and_add(expr, u):
    """Every curve's values as eval_curve computed them before constant curves were filled."""
    clamped = np.clip(u, 0.0, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.asarray(_eval(expr, clamped), dtype=np.float64) + np.zeros_like(clamped, dtype=np.float64)


@SETTINGS
@given(
    st.one_of(curves, constant_curves),
    arrays(np.float64, st.integers(0, 6), elements=st.one_of(st.floats(-0.5, 1.5), st.just(-0.0), st.just(np.nan))),
)
def test_eval_curve_equals_clip_and_add_bit_for_bit(expr, u):
    try:
        ref = clip_and_add(expr, u)
    except CurveDomainError:
        ref = None
    for points, want in ((u, ref), *((ui, None if ref is None else ref[i : i + 1]) for i, ui in enumerate(u))):
        if want is None or not np.isfinite(want).all():
            with pytest.raises(CurveDomainError):
                eval_curve(expr, points)
            continue
        got = np.atleast_1d(eval_curve(expr, points))
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


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


@SETTINGS
@given(
    st.integers(0, (1 << 64) - 1),
    st.one_of(st.integers(0, INDEX_CAP - 1), st.integers(INDEX_CAP - 40, INDEX_CAP - 1)),
    st.integers(1, 24),
    st.floats(1e-3, 1e3),
)
def test_innovations_match_the_scalar_splitmix64_reference(seed, start, count, sigma):
    count = min(count, INDEX_CAP - start)
    counters = range(start, start + count)
    assert [int(w) for w in _words(seed, start, start + count)] == [oracle_word(seed, c) for c in counters]
    assert _mix64_int(seed) == oracle_mix64(seed)
    for distribution in DISTRIBUTIONS:
        got = make_innovations(InnovationSpec(distribution, sigma, seed), count, start=start)
        ref = np.array([oracle_innovation(distribution, sigma, seed, i) for i in counters])
        if distribution == "gaussian":
            # numpy's log and cos need not round as libm's do
            assert np.all(np.abs(got - ref) <= 4 * np.spacing(np.abs(ref)))
        else:
            assert np.array_equal(got, ref)


# signed zeros too: the combine must reproduce the sign of every zero sum
signed = st.one_of(st.just(-0.0), finite)


@SETTINGS
@given(
    st.integers(0, 4).flatmap(
        lambda m: st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                arrays(np.float64, (n << m, 1 << m), elements=signed), arrays(np.float64, n << m, elements=signed)
            )
        )
    )
)
def test_xor_combine_equals_the_loop_reference_bit_for_bit(system):
    coef, eps = system
    out, ref = _dma_combine(coef, eps), oracle_xor_combine(coef, eps)
    assert np.array_equal(out, ref) and np.array_equal(np.signbit(out), np.signbit(ref))


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


# (T, L): L in {2, 4, 8} and T a power of two with L <= T <= 64
block_shapes = st.integers(1, 3).flatmap(lambda l: st.integers(l, 6).map(lambda m: (1 << m, 1 << l)))


@SETTINGS
@given(
    block_shapes.flatmap(lambda s: st.tuples(arrays(np.float64, s, elements=finite), arrays(np.float64, s[0], elements=finite))),
    st.floats(1e-3, 1e3),
)
def test_diagonally_dominant_blocks_solve_to_a_small_residual(system, margin):
    b_rows, rhs = system
    T, L = b_rows.shape
    # |b_0(t)| exceeds the sum of the other |b_k(t)|, so every L x L block is non-singular
    b_rows[:, 0] = np.where(b_rows[:, 0] < 0, -1.0, 1.0) * (np.sum(np.abs(b_rows[:, 1:]), axis=1) + margin)
    x = _block_solve(b_rows, rhs)
    # the dense T x T system of the recursion sum_k b_k(t) x[t XOR k] = rhs[t]
    dense = np.zeros((T, T))
    for t in range(T):
        for k in range(L):
            dense[t, t ^ k] = b_rows[t, k]
    assert np.max(np.abs(dense @ x - rhs)) <= 1e-9 * max(1.0, float(np.max(np.abs(rhs))))


@st.composite
def blocks_2x2(draw):
    """A 2 x 2 system ([[a00, a01], [a10, a11]], (z0, z1)) far from singular, scaled by a power of two."""
    a00, a01, a10, a11 = (draw(signed) for _ in range(4))
    if draw(st.booleans()):  # equal |column 0| entries: the pivot stays in row 0
        a10 = math.copysign(a00, draw(st.sampled_from((1.0, -1.0))))
    top = max(abs(a00), abs(a01), abs(a10), abs(a11)) or 1.0
    if abs(Fraction(a00) * Fraction(a11) - Fraction(a01) * Fraction(a10)) <= Fraction(top) ** 2 / 1000:
        # nearly singular: a diagonal shift of 3 * top gives |det| >= 3 top**2 against a largest entry 4 top
        a00, a11 = a00 + 3 * top, a11 + 3 * top
    scale = 2.0 ** draw(st.integers(-60, 60))
    return ((a00 * scale, a01 * scale), (a10 * scale, a11 * scale)), (draw(signed), draw(signed))


def solve_blocks(systems):
    """_block_solve on the L = 2 recursion whose aligned blocks are the given systems."""
    # row i of a block matrix holds b_{i XOR j} at column j: b_rows[2i] = (a00, a01), b_rows[2i+1] = (a11, a10)
    b_rows = np.array([row for a, _ in systems for row in (a[0], a[1][::-1])])
    return _block_solve(b_rows, np.array([v for _, z in systems for v in z])).reshape(-1, 2)


block_systems = st.integers(0, 4).flatmap(lambda m: st.lists(blocks_2x2(), min_size=1 << m, max_size=1 << m))


@SETTINGS
@given(block_systems)
def test_2x2_blocks_solve_as_the_scalar_oracle_bit_for_bit(systems):
    x = solve_blocks(systems)
    ref = np.array([oracle_solve2(a, z) for a, z in systems])
    assert np.array_equal(x, ref) and np.array_equal(np.signbit(x), np.signbit(ref))


@SETTINGS
@given(block_systems)
def test_2x2_blocks_solve_within_the_condition_bound(systems):
    eps = Fraction(np.finfo(float).eps)
    for (a, z), x in zip(systems, solve_blocks(systems)):
        (a00, a01), (a10, a11) = ((Fraction(v) for v in row) for row in a)
        z0, z1 = map(Fraction, z)
        det = a00 * a11 - a01 * a10
        exact = ((a11 * z0 - a01 * z1) / det, (a00 * z1 - a10 * z0) / det)
        # infinity-norm condition number; partial pivoting keeps a 2 x 2 backward error near eps
        kappa = max(abs(a00) + abs(a01), abs(a10) + abs(a11)) * max(abs(a11) + abs(a01), abs(a10) + abs(a00)) / abs(det)
        bound = 16 * eps * kappa * max(map(abs, exact))
        assert all(abs(Fraction(float(xi)) - e) <= bound for xi, e in zip(x, exact))


near_powers = st.tuples(st.integers(0, 80), st.integers(-1, 1)).map(lambda p: (1 << p[0]) + p[1])


@SETTINGS
@given(st.one_of(near_powers, st.integers(-(1 << 70), 1 << 70)))
def test_block_exponent_accepts_exactly_the_powers_of_two(n):
    if n > 0 and bin(n).count("1") == 1:
        assert 1 << block_exponent(n) == n
    else:
        with pytest.raises(ValueError, match=f"length must be a power of two, got {n}"):
            block_exponent(n)


@SETTINGS
@given(
    st.integers(1, 70).flatmap(lambda n: arrays(np.float64, st.tuples(st.integers(1, 3), st.just(n)), elements=finite)),
    st.one_of(st.none(), st.integers(0, 70)),
)
def test_zero_pad_keeps_the_prefix_and_zero_fills_the_tail(a, extra):
    n = a.shape[-1]
    size = block_size(n)
    assert n <= size < 2 * n and bin(size).count("1") == 1
    padded = zero_pad(a) if extra is None else zero_pad(a, n + extra)
    assert padded.shape == (a.shape[0], size if extra is None else n + extra)
    assert np.array_equal(padded[:, :n], a)
    assert not np.any(padded[:, n:])


# ------------------------------------------------------------------ CLI arguments

# files a drawn `--spec` may name, written into each example's temp directory
# ("missing.json" is never written, "broken.json" is not JSON)
SPEC_FILES = {
    "dma.json": {"kind": "tvDMA", "ma": ["1", "0.5*u"], "seed": 1},
    "darma.json": {"kind": "tvDARMA", "ar": ["1", "0.4*u"], "ma": ["1", "0.3"], "seed": 2},
    "singular.json": {"kind": "tvDAR", "ar": ["1", "1"], "seed": 1},
    "inflated.json": {"kind": "tvDMA", "ma": ["1", "0"]},  # warns: zero upper half
    "bad_curve.json": {"kind": "tvDMA", "ma": [1, True]},
    "not_object.json": [1, 2],
}
SPEC_FLAGS = {
    "--preset": ["figure1", "figure2", "nope"],
    "--spec": [*SPEC_FILES, "broken.json", "missing.json"],
    "--seed": [0, 5, -1, 1 << 64, "x"],
}
GRID_FLAGS = {"--u-points": [-1, 0, 1, 5], "--m": [-1, 0, 3, 25, 40, "x"], "--lambda-points": [-1, 0, 1, 5]}
# T <= 2**10, replicates <= 2, and a grid exponent m that is small or over the cap
COMMAND_FLAGS = {
    "simulate": {**SPEC_FLAGS, "--T": [-1, 0, 1, 3, 8, 100, 1024, "x"], "--out": ["out.csv"]},
    "spectrum": {**SPEC_FLAGS, **GRID_FLAGS, "--fourier-out": ["f.csv"], "--out": ["g.csv"]},
    "convert": {**SPEC_FLAGS, "--target": ["dma", "dar", "x"], "--u-points": [-1, 0, 1, 5], "--out": ["k.csv"]},
    "verify": {
        **SPEC_FLAGS,
        "--mode": ["frozen", "conversion", "x"],
        "--T": ["128,256", "8,16,32", "", "abc", "128", "100,128", "-4,8", "1024,512"],
        "--replicates": [-1, 0, 1, 2],
        "--radius": [-1, 0, 2, 3000],
        "--u0": [-0.5, 0, 0.3, 0.99, 1, "nan", "inf"],
        "--slack": [0, 0.5, "nan", -1],
        "--out": ["report.json"],
    },
    "periodogram": {
        **SPEC_FLAGS,
        "--T": [-1, 0, 8, 64, 100, 1024],
        "--segments": [-1, 0, 1, 3, 16, 2048],
        "--step": [-1, 0, 1, 3, 16],
        "--smooth": [-1, 0, 1, 3],
        "--replicates": [-1, 0, 1, 2],
        "--out": ["p.csv"],
    },
    "figures": {"--preset": ["figure1", "nope"], **GRID_FLAGS, "--out": ["figs"]},
}


PATH_FLAGS = ("--spec", "--out", "--fourier-out")


def flag(name, values):
    """Nothing, or ``[name, value]`` for one drawn value; paths point into the example's temp directory."""
    text = (lambda v: f"{{tmp}}/{v}") if name in PATH_FLAGS else str
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [name, text(v)]))


def argument_vectors():
    def command_line(command):
        parts = [flag(name, values) for name, values in COMMAND_FLAGS[command].items()]
        return st.tuples(*parts).map(lambda drawn: [command, *(a for part in drawn for a in part)])

    return st.sampled_from(sorted(COMMAND_FLAGS)).flatmap(command_line)


@SETTINGS
@given(argument_vectors())
def test_cli_ends_every_argument_vector_in_an_exit_code(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        for name, payload in SPEC_FILES.items():
            Path(tmp, name).write_text(json.dumps(payload))
        Path(tmp, "broken.json").write_text("{")
        with warnings.catch_warnings():
            # warnings reach stderr, as they do outside the test runner
            warnings.simplefilter("always")
            warnings.showwarning = lambda *w, **kw: sys.stderr.write(warnings.formatwarning(*w[:4]))
            code = main([a.replace("{tmp}", tmp) for a in argv])
    assert code in (0, 2, 3, 4)
    err = stderr.getvalue()
    if err.startswith("usage:"):
        assert code == 2
    elif code in (2, 3):
        lines = err.splitlines()
        assert len(lines) == 1 and err.endswith("\n"), err
        assert set(json.loads(lines[0])) == {"error", "message"}
