"""Exact scalar tower: canonical forms, field laws, specialization."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from lame_reference import common_denominator as euclid_common_denominator
from qeskit.scalars import (
    NEG_INF,
    PARAM,
    PS_ONE,
    PS_ZERO,
    DivisionByZero,
    ParamScalar,
    RF_ONE,
    RF_X,
    RatFunc,
    SingularSpecialization,
    arith,
    common_denominator,
    normalize,
    poly_deg,
    poly_gcd,
    qexp,
    rat,
    specialize,
)

A = PARAM


def test_rational_normalization():
    assert rat("2/4") == F(1, 2)
    assert rat("-6/4") == F(-3, 2)
    assert rat(3) == F(3)
    assert rat(F(1, 2)).denominator == 2


def test_param_scalar_gcd_reduction():
    v = (A * A - 1) / (A - 1)
    assert v == A + 1
    assert v.den == (F(1),)


def test_ratfunc_content_and_gcd():
    num = RatFunc((-2, 0, 2))
    den = RatFunc((-2, 2))
    assert num / den == RF_X + 1


def test_zero_denominator_rejected():
    with pytest.raises(DivisionByZero):
        ParamScalar((1,), ())
    with pytest.raises(DivisionByZero):
        RF_ONE / RatFunc()
    with pytest.raises(DivisionByZero):
        PS_ONE / PS_ZERO


def test_normalize_idempotent():
    v = (A + 2) / (A * A - 1)
    assert normalize(v) == v
    r = (RF_X ** 3 - RF_X) / (RF_X - 1)
    assert normalize(r) == r


def test_arith_examples():
    assert arith("add", F(1, 3), F(1, 6)) == F(1, 2)
    assert arith("mul", A + 1, A - 1) == A * A - 1
    assert arith("div", RF_X * RF_X - 1, RF_X - 1) == RF_X + 1
    with pytest.raises(ValueError):
        arith("pow", A, A)


def test_specialize_examples():
    # 2a + n + 1 with n = 1 at a = 2
    assert specialize(2 * A + 2, 2) == 6
    with pytest.raises(SingularSpecialization):
        specialize(1 / (A - 1), 1)
    # pole removed by canonical form before substitution
    assert specialize((A * A - 4) / (A - 2), 2) == 4


def test_specialize_ratfunc():
    r = RatFunc(((A + 1), PS_ONE)) / RatFunc((A, PS_ONE))
    s = r.specialize(2)
    assert s == RatFunc((3, 1)) / RatFunc((2, 1))


def test_degree_sentinel():
    assert poly_deg(()) is NEG_INF
    assert NEG_INF < 0
    assert NEG_INF < -10
    assert not (NEG_INF > 5)
    assert NEG_INF + 3 is NEG_INF
    assert poly_deg((F(1),)) == 0


def test_printing_round_trip_forms():
    assert str((A * A - 1) / (A - 1)) == "a + 1"
    assert str(2 * A + 1) == "2*a + 1"
    assert str((2 * A + 1) / (A - 1)) == "(2*a + 1)/(a - 1)"
    c = RatFunc((1 - A,), (PS_ZERO, PS_ONE))
    assert str(c) == "(-a + 1)/x"


def test_quasi_exponent_ordering_and_arith():
    e = qexp(2, 1)
    assert str(e) == "a + 2"
    assert e - 3 == qexp(-1, 1)
    assert e.to_param() == A + 2
    assert e.specialize(F(1, 2)) == qexp(F(5, 2))
    # lexicographic in (a_part, offset)
    assert qexp(5, 0) < qexp(0, 1)
    assert qexp(0, 1) < qexp(1, 1)


# -- field laws on randomized inputs -----------------------------------------

fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def param_scalars(draw):
    num = tuple(draw(fractions) for _ in range(draw(st.integers(0, 3))))
    den = tuple(draw(fractions) for _ in range(draw(st.integers(0, 2))))
    if not any(den):
        den = (F(1),)
    return ParamScalar(num, den)


@st.composite
def ratfuncs(draw):
    num = tuple(draw(param_scalars()) for _ in range(draw(st.integers(0, 2))))
    den = tuple(draw(param_scalars()) for _ in range(draw(st.integers(0, 2))))
    if not any(den):
        den = (PS_ONE,)
    return RatFunc(num, den)


@st.composite
def laurent_values(draw):
    """num / x^t with t in 0..3 and a zero numerator allowed."""
    num = tuple(draw(param_scalars()) for _ in range(draw(st.integers(0, 3))))
    return RatFunc(num, (PS_ZERO,) * draw(st.integers(0, 3)) + (PS_ONE,))


@settings(max_examples=60, deadline=None)
@given(st.lists(laurent_values(), max_size=5))
def test_laurent_common_denominator_matches_euclid(vals):
    assert common_denominator(vals) == euclid_common_denominator(vals)


def test_laurent_common_denominator_edges():
    x3 = RatFunc.x_power(-3)
    for vals in ([], [RatFunc()], [RatFunc(), x3], [RF_ONE, x3, RF_X],
                 [RatFunc((1, 2), (0, 0, 1)), RatFunc()]):
        assert common_denominator(vals) == euclid_common_denominator(vals)
    # a zero value contributes a zero numerator, not a shifted one
    assert common_denominator([RatFunc(), x3]) == (
        (PS_ZERO,) * 3 + (PS_ONE,), [(PS_ZERO,), (PS_ONE,)])


@settings(max_examples=60, deadline=None)
@given(param_scalars(), param_scalars(), param_scalars())
def test_param_field_laws(u, v, w):
    assert (u + v) + w == u + (v + w)
    assert u * (v + w) == u * v + u * w
    assert (u * v) * w == u * (v * w)
    if v:
        assert (u / v) * v == u
        assert v * (1 / v) == PS_ONE


@settings(max_examples=40, deadline=None)
@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_ratfunc_field_laws(u, v, w):
    assert (u + v) + w == u + (v + w)
    assert u * (v + w) == u * v + u * w
    if v:
        assert (u / v) * v == u


@settings(max_examples=60, deadline=None)
@given(param_scalars(), param_scalars(), st.sampled_from([F(1, 2), F(7, 3), F(-5, 2)]))
def test_specialize_commutes_with_arith(u, v, a0):
    try:
        lhs = (u * v + u).specialize(a0)
        ru, rv = u.specialize(a0), v.specialize(a0)
    except SingularSpecialization:
        return
    assert lhs == ru * rv + ru


@settings(max_examples=40, deadline=None)
@given(ratfuncs())
def test_ratfunc_deriv_leibniz(u):
    v = u * u
    assert v.deriv() == u.deriv() * u + u * u.deriv()


# -- independent oracle for the normaliser's shortcuts -------------------------
#
# Denominators are drawn from the four classes the normaliser treats
# differently: 1, c*t^k, and anything else; numerators get a random
# t-valuation so monomial denominators cancel partly or fully.

nonzero = fractions.filter(bool)


def _poly(draw, max_len):
    valuation = draw(st.integers(0, 2))
    tail = [draw(fractions) for _ in range(draw(st.integers(0, max_len)))]
    return (F(0),) * valuation + tuple(tail)


def _den(draw, coeff, one, zero):
    kind = draw(st.sampled_from(["one", "const", "monomial", "general"]))
    if kind == "one":
        return (one,)
    if kind == "const":
        return (coeff(),)
    if kind == "monomial":
        return (zero,) * draw(st.integers(1, 3)) + (coeff(),)
    return (coeff(), coeff()) + tuple(coeff() for _ in range(draw(st.integers(0, 1))))


@st.composite
def ps_parts(draw):
    return _poly(draw, 3), _den(draw, lambda: draw(nonzero), F(1), F(0))


@st.composite
def rf_parts(draw):
    def coeff():
        return ParamScalar(*draw(ps_parts())) or PS_ONE

    num = tuple(ParamScalar(*draw(ps_parts())) for _ in range(draw(st.integers(0, 2))))
    num = (PS_ZERO,) * draw(st.integers(0, 2)) + num
    return num, _den(draw, coeff, PS_ONE, PS_ZERO)


def _assert_canonical(v, one):
    assert v.den[-1] == one
    if not v.num:
        assert v.den == (one,)
    else:
        assert poly_deg(poly_gcd(v.num, v.den)) == 0


# each op is applied both to the engine's values and to sympy expressions;
# `s` shares u's canonical denominator, so u + s and u - s take the
# equal-denominator path
_OPS = {
    "u": lambda u, v, s: u,
    "v": lambda u, v, s: v,
    "-u": lambda u, v, s: -u,
    "u+u": lambda u, v, s: u + u,
    "u-u": lambda u, v, s: u - u,
    "u+s": lambda u, v, s: u + s,
    "u-s": lambda u, v, s: u - s,
    "u+v": lambda u, v, s: u + v,
    "u-v": lambda u, v, s: u - v,
    "u*v": lambda u, v, s: u * v,
    "-(u*v)": lambda u, v, s: -(u * v),
    "u/v": lambda u, v, s: u / v,
}


def _check_against_sympy(cls, pu, pv, to_sympy, one):
    sympy = pytest.importorskip("sympy")
    u, v = cls(*pu), cls(*pv)
    s = cls(v.num, u.den)
    exprs = [to_sympy(*p) for p in (pu, pv, (v.num, u.den))]
    for name, op in _OPS.items():
        if name == "u/v" and not v:
            continue
        w = op(u, v, s)
        _assert_canonical(w, one)
        if cls is RatFunc:
            for c in w.num + w.den:
                _assert_canonical(c, F(1))
        assert sympy.cancel(to_sympy(w.num, w.den) - op(*exprs)) == 0, name


def _sympy_ratio(num, den, var, coeff):
    sympy = pytest.importorskip("sympy")

    def poly(cs):
        return sum((coeff(c) * var**i for i, c in enumerate(cs)), sympy.Integer(0))

    return poly(num) / poly(den)


def _sympy_param(num, den):
    sympy = pytest.importorskip("sympy")
    return _sympy_ratio(num, den, sympy.Symbol("a"),
                        lambda q: sympy.Rational(q.numerator, q.denominator))


@settings(max_examples=50, deadline=None)
@given(ps_parts(), ps_parts())
def test_param_scalar_normaliser_against_sympy(pu, pv):
    _check_against_sympy(ParamScalar, pu, pv, _sympy_param, F(1))


@settings(max_examples=25, deadline=None)
@given(rf_parts(), rf_parts())
def test_ratfunc_normaliser_against_sympy(pu, pv):
    sympy = pytest.importorskip("sympy")

    def to_sympy(num, den):
        return _sympy_ratio(num, den, sympy.Symbol("x"),
                            lambda c: _sympy_param(c.num, c.den))

    _check_against_sympy(RatFunc, pu, pv, to_sympy, PS_ONE)


# -- printing and operand rules, pinned value by value -------------------------
#
# Each row: a value, then str(), str("lam") and repr() as canonical reports
# print them.

X = RF_X

_PRINTS = [
    ("ps_const_neg_frac", lambda: ParamScalar((F(-3, 2),)),
     "-3/2", "-3/2", "ParamScalar(-3/2)"),
    ("ps_zero", lambda: PS_ZERO, "0", "0", "ParamScalar(0)"),
    ("ps_unit_powers", lambda: A**2 - 1,
     "a^2 - 1", "lam^2 - 1", "ParamScalar(a^2 - 1)"),
    ("ps_neg_unit_lead", lambda: -A**2 + A,
     "-a^2 + a", "-lam^2 + lam", "ParamScalar(-a^2 + a)"),
    ("ps_frac_coeffs", lambda: F(-1, 3) * A**3 + F(5, 2) * A - 7,
     "-1/3*a^3 + 5/2*a - 7", "-1/3*lam^3 + 5/2*lam - 7",
     "ParamScalar(-1/3*a^3 + 5/2*a - 7)"),
    ("ps_one_term_den", lambda: 1 / A, "1/a", "1/lam", "ParamScalar(1/a)"),
    ("ps_one_term_den_power", lambda: (A + 1) / A**2,
     "(a + 1)/a^2", "(lam + 1)/lam^2", "ParamScalar((a + 1)/a^2)"),
    ("ps_neg_over_monomial", lambda: -3 / (2 * A**3),
     "-3/2/a^3", "-3/2/lam^3", "ParamScalar(-3/2/a^3)"),
    ("ps_many_term_den", lambda: (2 * A + 1) / (A * A - 1),
     "(2*a + 1)/(a^2 - 1)", "(2*lam + 1)/(lam^2 - 1)",
     "ParamScalar((2*a + 1)/(a^2 - 1))"),
    ("ps_neg_over_binomial", lambda: -1 / (A + 1),
     "-1/(a + 1)", "-1/(lam + 1)", "ParamScalar(-1/(a + 1))"),
    ("ps_frac_over_binomial", lambda: F(2, 3) / (3 * A + 1),
     "2/9/(a + 1/3)", "2/9/(lam + 1/3)", "ParamScalar(2/9/(a + 1/3))"),
    ("ps_neg_power", lambda: (A - 2) ** -2,
     "1/(a^2 - 4*a + 4)", "1/(lam^2 - 4*lam + 4)",
     "ParamScalar(1/(a^2 - 4*a + 4))"),
    ("rf_one", lambda: RF_ONE, "1", "1", "RatFunc(1)"),
    ("rf_zero", lambda: RatFunc(), "0", "0", "RatFunc(0)"),
    ("rf_unit_powers", lambda: -X**2 + X, "-x^2 + x", "-x^2 + x", "RatFunc(-x^2 + x)"),
    ("rf_frac_coeffs", lambda: F(-1, 2) * X**3 + F(7, 3),
     "-1/2*x^3 + 7/3", "-1/2*x^3 + 7/3", "RatFunc(-1/2*x^3 + 7/3)"),
    ("rf_param_coeffs", lambda: (A + 1) * X**2 - A * X + F(-1, 2),
     "(a + 1)*x^2 + (-a)*x - 1/2", "(lam + 1)*x^2 + (-lam)*x - 1/2",
     "RatFunc((a + 1)*x^2 + (-a)*x - 1/2)"),
    ("rf_param_const", lambda: RatFunc.const(A - 1),
     "(a - 1)", "(lam - 1)", "RatFunc((a - 1))"),
    ("rf_param_den_coeff", lambda: RatFunc((PS_ZERO, 1 / (A - 1))),
     "(1/(a - 1))*x", "(1/(lam - 1))*x", "RatFunc((1/(a - 1))*x)"),
    ("rf_neg_param_coeff", lambda: -A * X, "(-a)*x", "(-lam)*x", "RatFunc((-a)*x)"),
    ("rf_x_inverse", lambda: RatFunc.x_power(-1), "1/x", "1/x", "RatFunc(1/x)"),
    ("rf_x_neg_power", lambda: RatFunc.x_power(-3), "1/x^3", "1/x^3", "RatFunc(1/x^3)"),
    ("rf_laurent", lambda: (X + A) / X**3,
     "(x + (a))/x^3", "(x + (lam))/x^3", "RatFunc((x + (a))/x^3)"),
    ("rf_neg_laurent", lambda: (1 - A) / X,
     "(-a + 1)/x", "(-lam + 1)/x", "RatFunc((-a + 1)/x)"),
    ("rf_one_term_den", lambda: 2 / (A * X**2),
     "(2/a)/x^2", "(2/lam)/x^2", "RatFunc((2/a)/x^2)"),
    ("rf_many_term_den", lambda: 1 / (X**2 + A),
     "1/(x^2 + (a))", "1/(x^2 + (lam))", "RatFunc(1/(x^2 + (a)))"),
    ("rf_many_over_many", lambda: (X**2 - A) / (2 * X**2 + X - A),
     "(1/2*x^2 + (-1/2*a))/(x^2 + 1/2*x + (-1/2*a))",
     "(1/2*x^2 + (-1/2*lam))/(x^2 + 1/2*x + (-1/2*lam))",
     "RatFunc((1/2*x^2 + (-1/2*a))/(x^2 + 1/2*x + (-1/2*a)))"),
    ("rf_param_over_linear", lambda: (A * X) / (X - A),
     "(a)*x/(x + (-a))", "(lam)*x/(x + (-lam))", "RatFunc((a)*x/(x + (-a)))"),
    ("qe_zero", lambda: qexp(0), "0", "0",
     "QuasiExponent(a_part=Fraction(0, 1), offset=Fraction(0, 1))"),
    ("qe_neg_frac", lambda: qexp(F(-1, 2)), "-1/2", "-1/2",
     "QuasiExponent(a_part=Fraction(0, 1), offset=Fraction(-1, 2))"),
    ("qe_param", lambda: qexp(0, 1), "a", "lam",
     "QuasiExponent(a_part=Fraction(1, 1), offset=Fraction(0, 1))"),
    ("qe_neg_param", lambda: qexp(2, -1), "-a + 2", "-lam + 2",
     "QuasiExponent(a_part=Fraction(-1, 1), offset=Fraction(2, 1))"),
    ("qe_frac_both", lambda: qexp(F(1, 3), F(-5, 2)), "-5/2*a + 1/3", "-5/2*lam + 1/3",
     "QuasiExponent(a_part=Fraction(-5, 2), offset=Fraction(1, 3))"),
    ("qe_unit_offset", lambda: qexp(-1, 1), "a - 1", "lam - 1",
     "QuasiExponent(a_part=Fraction(1, 1), offset=Fraction(-1, 1))"),
]


@pytest.mark.parametrize("build, plain, lam, rep", [row[1:] for row in _PRINTS],
                         ids=[row[0] for row in _PRINTS])
def test_print_table(build, plain, lam, rep):
    v = build()
    assert (str(v), v.str(), v.str("lam"), repr(v)) == (plain, plain, lam, rep)


def test_singular_specialization_messages():
    with pytest.raises(SingularSpecialization,
                       match=r"^singular specialization: denominator a - 1 vanishes$"):
        (1 / (A - 1)).specialize(1)
    with pytest.raises(SingularSpecialization) as err:
        ((A + 2) / (A * A - F(1, 4))).specialize(F(-1, 2))
    assert str(err.value) == "singular specialization: denominator a^2 - 1/4 vanishes"
    assert err.value.factor == "a^2 - 1/4"
    # a RatFunc fails on the coefficient that becomes singular
    r = RatFunc((PS_ONE,), (1 / (A - 2), PS_ONE))
    with pytest.raises(SingularSpecialization,
                       match=r"^singular specialization: denominator a - 2 vanishes$"):
        r.specialize(2)


@pytest.mark.parametrize("op, expect", [
    (lambda: A + X, "x + (a)"),
    (lambda: X + A, "x + (a)"),
    (lambda: A - X, "-x + (a)"),
    (lambda: X - A, "x + (-a)"),
    (lambda: A * X, "(a)*x"),
    (lambda: X * A, "(a)*x"),
    (lambda: A / X, "(a)/x"),
    (lambda: X / A, "(1/a)*x"),
    (lambda: 2 + X, "x + 2"),
    (lambda: F(1, 2) * X, "1/2*x"),
    (lambda: 1 - X, "-x + 1"),
    (lambda: 3 / X, "3/x"),
], ids=["ps+rf", "rf+ps", "ps-rf", "rf-ps", "ps*rf", "rf*ps", "ps/rf", "rf/ps",
        "int+rf", "frac*rf", "int-rf", "int/rf"])
def test_mixed_operands_give_ratfunc(op, expect):
    v = op()
    assert type(v) is RatFunc
    assert str(v) == expect


def test_mixed_operand_equality_and_rejections():
    assert RatFunc.const(A) == A and A == RatFunc.const(A)
    assert PS_ONE == RF_ONE and RF_ONE == PS_ONE and RF_ONE == 1 and 1 == PS_ONE
    assert A != RF_X and RF_X != A and A != 1 and F(1, 2) == PS_ONE / 2
    assert hash(A + 1) == hash(1 + A) and hash(RF_X + 1) == hash(1 + RF_X)
    for c in (3, 0, F(1, 2), F(-7, 3)):
        for v in (ParamScalar.const(c), RatFunc.const(c)):
            assert v == c and hash(v) == hash(c) and len({v, c}) == 1
    assert (A == 1.5) is False and (RF_X == "x") is False
    for v in (A, RF_X):
        for bad in (1.5, "x"):
            for op in (lambda u, w: u + w, lambda u, w: w + u, lambda u, w: u - w,
                       lambda u, w: w - u, lambda u, w: u * w, lambda u, w: w * u,
                       lambda u, w: u / w, lambda u, w: w / u):
                with pytest.raises(TypeError):
                    op(v, bad)
        with pytest.raises(TypeError):
            v ** F(1, 2)
    with pytest.raises(AttributeError, match=r"^ParamScalar is immutable$"):
        A.num = ()
    with pytest.raises(AttributeError, match=r"^RatFunc is immutable$"):
        RF_X.den = (PS_ONE,)
    assert A.num == (F(0), F(1)) and RF_X.num == (PS_ZERO, PS_ONE)
