import math
import re

import numpy as np
import pytest

from walsh_spectra.curves import (
    Binary,
    Call,
    CurveDomainError,
    CurveSyntaxError,
    Literal,
    UnknownIdentifierError,
    Variable,
    constant,
    eval_curve,
    is_constant,
    is_constant_zero,
    parse,
    serialize,
)

FIGURE_CURVES = [
    "-1.8*cos(1.5-cos(4*pi*u))",
    "0.81",
    "1.2*cos(2*pi*u)",
    "2*cos(1.5-cos(8*pi*u))",
    "u",
]


def test_parse_figure_curve():
    tree = parse("-1.8*cos(1.5-cos(4*pi*u))")
    assert eval_curve(tree, 0.0) == pytest.approx(-1.8 * math.cos(0.5), abs=1e-15)


def test_parse_constant():
    assert parse("0.81") == Literal(0.81)
    assert parse(" .5 ") == Literal(0.5)
    assert parse("2e-3") == Literal(0.002)


def test_parse_unbalanced_paren():
    with pytest.raises(CurveSyntaxError) as excinfo:
        parse("cos(")
    assert excinfo.value.offset == 4


@pytest.mark.parametrize(
    "text,value",
    [
        ("1+2*3", 7.0),
        ("(1+2)*3", 9.0),
        ("2*3^2", 18.0),
        ("-2^2", -4.0),
        ("2^-2", 0.25),
        ("2^3^2", 512.0),
        ("8/4/2", 1.0),
        ("1-2-3", -4.0),
        ("  1 +  2 ", 3.0),
        ("abs(-3)", 3.0),
        ("exp(0)", 1.0),
        ("sin(pi/2)", 1.0),
    ],
)
def test_precedence_and_functions(text, value):
    assert eval_curve(parse(text), 0.3) == pytest.approx(value, abs=1e-12)


def test_variable_and_clamping():
    u = parse("u")
    assert eval_curve(u, 0.3) == 0.3
    assert eval_curve(u, 1.7) == 1.0
    assert eval_curve(u, -0.4) == 0.0
    curve = parse("cos(2*pi*u)")
    assert eval_curve(curve, 2.0) == pytest.approx(math.cos(2 * math.pi), abs=1e-15)


def test_vectorized_evaluation_matches_scalar():
    curve = parse(FIGURE_CURVES[0])
    us = np.linspace(-0.2, 1.2, 29)
    vec = eval_curve(curve, us)
    assert vec.shape == us.shape
    for i, u in enumerate(us):
        assert vec[i] == eval_curve(curve, float(u))


@pytest.mark.parametrize("text", ["u^3", "u^-2", "abs(u-0.3)^3/(1+u^2)"])
def test_scalar_and_array_evaluation_agree_bit_for_bit(text):
    # numpy rounds integer powers of 0-d values differently from arrays
    curve = parse(text)
    us = np.random.default_rng(7).uniform(0.01, 1.0, 2000)
    scalars = [eval_curve(curve, u) for u in us.tolist()]
    assert all(type(v) is float for v in scalars)
    assert scalars == eval_curve(curve, us).tolist()


def test_scalar_power_matches_array_power():
    u = 0.38042426988653233
    assert eval_curve(parse("u^3"), u) == eval_curve(parse("u^3"), np.array([u]))[0] == 0.05505599899684422


def test_constant_curve_broadcasts():
    vals = eval_curve(parse("0.81"), np.linspace(0, 1, 7))
    assert vals.shape == (7,)
    assert np.all(vals == 0.81)


def test_division_by_zero():
    with pytest.raises(CurveDomainError):
        eval_curve(parse("1/(u-u)"), 0.5)
    with pytest.raises(CurveDomainError):
        eval_curve(parse("1/0"), 0.2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_values_raise():
    with pytest.raises(CurveDomainError, match=r"curve exp\(\(1000\.0\*u\)\) is not finite at u=0\.75"):
        eval_curve(parse("exp(1000*u)"), np.linspace(0, 1, 5))
    with pytest.raises(CurveDomainError, match=r"not finite at u=nan"):
        eval_curve(parse("u"), float("nan"))
    with pytest.raises(CurveDomainError, match=r"not finite at u=nan"):
        eval_curve(parse("2*u"), np.array([0.5, np.nan, np.nan]))
    # a curve that does not depend on u stays defined at any u
    assert eval_curve(parse("0.81"), float("nan")) == 0.81


@pytest.mark.parametrize("text, message", [
    ("1+.", "malformed number '.' at offset 2"),
    ("cos(u", "expected ')' at offset 5"),
])
def test_syntax_errors_name_their_offset(text, message):
    with pytest.raises(CurveSyntaxError, match=f"^{re.escape(message)}$"):
        parse(text)


@pytest.mark.parametrize("text, u, message", [
    ("u^-1", [0.0, 0.5], "zero raised to a negative power"),
    ("2^400^2", 0.5, "overflow in power: "),
])
def test_power_domain_errors(text, u, message):
    with pytest.raises(CurveDomainError, match=f"^{re.escape(message)}"):
        eval_curve(parse(text), u)


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as excinfo:
        parse("tan(u)")
    assert excinfo.value.offset == 0
    with pytest.raises(UnknownIdentifierError):
        parse("2*v")


def test_trailing_garbage_rejected():
    with pytest.raises(CurveSyntaxError):
        parse("1 2")
    with pytest.raises(CurveSyntaxError):
        parse("cos(u))")


def test_exponent_must_be_integer():
    with pytest.raises(CurveSyntaxError):
        parse("u^2.5")
    with pytest.raises(CurveSyntaxError):
        parse("u^u")
    with pytest.raises(CurveSyntaxError):
        parse("u^(2)")


def test_bad_characters_report_offset():
    with pytest.raises(CurveSyntaxError) as excinfo:
        parse("1 + $")
    assert excinfo.value.offset == 4


# str.isalpha and str.isdigit accept these, but identifiers and numbers are ASCII only
@pytest.mark.parametrize("text, offset", [("é", 0), ("u*é", 2), ("\uff55", 0), ("1\u0663", 1)])
def test_non_ascii_characters_report_offset(text, offset):
    with pytest.raises(CurveSyntaxError, match=f"unexpected character {text[offset]!r} at offset {offset}") as excinfo:
        parse(text)
    assert excinfo.value.offset == offset


@pytest.mark.parametrize("text", FIGURE_CURVES + ["u^2", "-(u+1)*exp(-u)", "2^-3*u"])
def test_serialization_round_trip(text):
    tree = parse(text)
    assert parse(serialize(tree)) == tree


def test_serialized_tree_structure():
    tree = parse("1+2*u")
    assert tree == Binary("+", Literal(1.0), Binary("*", Literal(2.0), Variable()))
    assert isinstance(parse("cos(u)"), Call)


@pytest.mark.parametrize("text", FIGURE_CURVES)
def test_corpus_curves_are_continuous(text):
    # sup |f(u+h) - f(u)| over the grid shrinks as the grid refines
    curve = parse(text)
    jumps = []
    for m in (6, 9, 12):
        u = np.linspace(0.0, 1.0, 2**m + 1)
        vals = eval_curve(curve, u)
        jumps.append(np.max(np.abs(np.diff(vals))))
    assert jumps[2] < jumps[0] + 1e-12
    assert jumps[2] < 0.05


def test_is_constant_zero():
    assert is_constant_zero(parse("0"))
    assert is_constant_zero(parse("u-u"))
    assert not is_constant_zero(parse("u"))
    assert not is_constant_zero(constant(0.3))


def test_is_constant_reads_the_tree():
    assert is_constant(parse("0.3*cos(pi)+2^3"))
    assert is_constant(constant(1.0))
    assert not is_constant(parse("u"))
    assert not is_constant(parse("1+0*exp(-u)"))
