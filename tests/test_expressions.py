import cmath
import math

import numpy as np
import pytest

from spps.errors import (
    EvaluationError,
    ExpressionSyntaxError,
    UnknownIdentifierError,
)
from spps.expressions import (
    Bin,
    _Call,
    _is_constant,
    _Neg,
    _Num,
    _Pow,
    _Var,
    const_value,
    evaluate,
    parse,
    to_string,
)

# expression text paired with an independent Python implementation
CORPUS = [
    ("x", lambda x: x),
    ("3+2i", lambda x: 3 + 2j),
    ("7+1i", lambda x: 7 + 1j),
    ("-x", lambda x: -x),
    ("x^2", lambda x: x**2),
    ("-(x^2)/2", lambda x: -(x**2) / 2),
    ("2*x + 1", lambda x: 2 * x + 1),
    ("1 - x - x", lambda x: 1 - x - x),
    ("x/2/4", lambda x: x / 2 / 4),
    ("2^3^2", lambda x: 512.0 + 0j),
    ("-2^2", lambda x: -4.0 + 0j),
    ("2^-1", lambda x: 0.5 + 0j),
    ("cos(sqrt(2)*x)", lambda x: cmath.cos(math.sqrt(2) * x)),
    ("sin(x)*cos(x)", lambda x: cmath.sin(x) * cmath.cos(x)),
    ("tan(x/4)", lambda x: cmath.tan(x / 4)),
    ("sinh(x) + cosh(x)", lambda x: cmath.sinh(x) + cmath.cosh(x)),
    ("tanh(x)", lambda x: cmath.tanh(x)),
    ("exp(-x^2/2)", lambda x: cmath.exp(-(x**2) / 2)),
    ("log(x + 2)", lambda x: cmath.log(x + 2)),
    ("abs(x - 1) + sqrt(x + 3)", lambda x: abs(x - 1) + cmath.sqrt(x + 3)),
    ("(1 + x)*(1 - x)", lambda x: (1 + x) * (1 - x)),
    ("x^0.5", lambda x: complex(x) ** 0.5),
]


def test_corpus_matches_reference_lambdas():
    rng = np.random.default_rng(42)
    xs = rng.uniform(-0.9, 0.9, size=100)
    for text, ref in CORPUS:
        expr = parse(text)
        for x in xs:
            got = evaluate(expr, float(x))
            want = complex(ref(complex(x)))
            assert got == pytest.approx(want, rel=1e-14, abs=1e-14), text


def test_corpus_vectorized_matches_scalar():
    xs = np.linspace(-0.8, 0.8, 17)
    for text, _ in CORPUS:
        expr = parse(text)
        vec = evaluate(expr, xs)
        scal = np.array([evaluate(expr, float(x)) for x in xs])
        assert np.array_equal(vec, scal), text


def test_parse_examples():
    tree = parse("cos(sqrt(2)*x)")
    assert tree == _Call("cos", Bin("*", _Call("sqrt", _Num(2 + 0j)), _Var()))
    assert evaluate(parse("7+1i"), 0.0) == 7 + 1j
    assert evaluate(parse("-(x^2)/2"), 2.0) == -2.0


def test_eval_examples():
    assert evaluate(parse("cos(x)"), 0.0) == 1.0
    assert evaluate(parse("x"), 0.25) == 0.25
    assert evaluate(parse("3+2i"), 123.456) == 3 + 2j


def test_principal_branches():
    assert evaluate(parse("sqrt(x)"), -4.0) == pytest.approx(2j)
    assert evaluate(parse("log(x)"), -1.0) == pytest.approx(1j * math.pi)


def test_imaginary_unit_alone():
    assert evaluate(parse("i"), 0.0) == 1j
    assert evaluate(parse("2*i"), 0.0) == 2j


def test_precedence_unary_minus_vs_power():
    # ^ binds tighter than unary minus on the left, and allows a signed exponent
    assert parse("-x^2") == _Neg(_Pow(_Var(), 2.0))
    assert parse("2^-1") == _Pow(_Num(2 + 0j), -1.0)


def test_power_right_associative():
    assert evaluate(parse("2^3^2"), 0.0) == 512.0


def test_roundtrip_structural_identity():
    for text, _ in CORPUS:
        tree = parse(text)
        again = parse(to_string(tree))
        assert again == tree, f"{text} -> {to_string(tree)}"


def test_syntax_error_reports_offset():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("1 + * 2")
    assert err.value.position == 4


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        parse("sec(x)")


def test_numbers_take_decimal_digits_only():
    # a superscript is a digit to str.isdigit but not to float
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("2²")
    assert err.value.position == 1
    # other scripts' decimal digits read as float reads them
    assert parse("2\u0663") == _Num(23 + 0j)


def test_empty_expression_rejected():
    with pytest.raises(ExpressionSyntaxError):
        parse("   ")


def test_trailing_input_rejected():
    with pytest.raises(ExpressionSyntaxError):
        parse("1 + 2 )")


def test_unbalanced_parens_rejected():
    with pytest.raises(ExpressionSyntaxError):
        parse("cos(x")


def test_exponent_must_be_constant():
    with pytest.raises(ExpressionSyntaxError):
        parse("2^x")
    with pytest.raises(ExpressionSyntaxError):
        parse("2^(1+i)")


def test_division_by_zero_names_location():
    expr = parse("1/x")
    with pytest.raises(EvaluationError) as err:
        evaluate(expr, 0.0)
    assert "1 / x" in str(err.value)
    # vectorized path reports the first offending abscissa
    with pytest.raises(EvaluationError):
        evaluate(expr, np.array([1.0, 0.0, 2.0]))


def test_constant_detection():
    assert _is_constant(parse("3*(2+1i)"))
    assert not _is_constant(parse("3*x"))
    assert const_value(parse("-0.5+2i")) == -0.5 + 2j
    with pytest.raises(EvaluationError):
        const_value(parse("x+1"))


def test_airy_functions_match_scipy():
    from scipy.special import airy

    xs = np.linspace(-1.0, 1.0, 7)
    for name, idx in [("airyai", 0), ("airyaip", 1), ("airybi", 2), ("airybip", 3)]:
        expr = parse(f"{name}(x)")
        got = evaluate(expr, xs)
        want = airy(xs.astype(complex))[idx]
        assert np.allclose(got, want, rtol=1e-14, atol=0)
