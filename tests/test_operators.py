"""Operator calculus: composition, conjugation, exact actions.

The independent oracle for composition is the action on a generic monomial
x^s (s carried symbolically through the parameter slot): two operators are
equal iff their actions on x^s agree for the generic exponent, and
composition must match acting twice.
"""

import random
from fractions import Fraction as F

import pytest

from leibniz_reference import LeibnizQuasiOp, act_quasi, conjugate_by_power
from qeskit.operators import (
    DiffOp,
    NonLaurentCoefficient,
    QuasiDiffOp,
    QuasiPoly,
    act,
    act_poly,
    act_rat,
    commutator,
    compose,
)
from qeskit.scalars import PARAM, RatFunc, qexp

A = PARAM
D = DiffOp.d()
X = DiffOp.mult(RatFunc.x())
EULER = DiffOp.euler()
GENERIC = QuasiPoly.monomial(qexp(0, 1))  # x^s with s symbolic


def mono(offset, a_part=0):
    return QuasiPoly.monomial(qexp(offset, a_part))


def test_weyl_relation():
    assert commutator(D, X) == DiffOp.identity()


def test_compose_euler_squared():
    # oracle: (x d/dx)^2 x^s = s^2 x^s, while x^2 d^2 x^s = s(s-1) x^s
    got = compose(EULER, EULER)
    assert got == DiffOp({2: RatFunc((0, 0, 1)), 1: RatFunc.x()})
    twice = act_quasi(EULER, act_quasi(EULER, GENERIC))
    assert act_quasi(got, GENERIC) == twice


def test_compose_already_normal_ordered():
    x2 = DiffOp.mult(RatFunc.x_power(2))
    assert compose(x2, D) == DiffOp({1: RatFunc.x_power(2)})


def test_commutator_euler_with_x_cubed():
    x3 = DiffOp.mult(RatFunc.x_power(3))
    assert commutator(EULER, x3) == x3.scale(3)


def test_conjugation_examples():
    assert conjugate_by_power(D, A) == D - DiffOp.mult(
        RatFunc((A,), (0, 1))
    )
    assert conjugate_by_power(EULER, A) == EULER - DiffOp.mult(RatFunc.const(A))


def test_conjugated_raising_action():
    # x^a j_+(n) x^-a applied to x^(a+j) gives (j-n) x^(a+j+1)
    n = 3
    jp = compose(X, EULER - n)
    kp = conjugate_by_power(jp, A)
    for j in range(5):
        out = act_quasi(kp, mono(j, 1))
        assert out == QuasiPoly.monomial(qexp(j + 1, 1), j - n)


def test_conjugation_involution():
    op = compose(compose(EULER, EULER), D) + DiffOp.mult(RatFunc.x_power(2))
    assert conjugate_by_power(conjugate_by_power(op, A), -A) == op


def test_act_quasi_power_rule():
    out = act_quasi(D, mono(2, 1))
    assert out == QuasiPoly.monomial(qexp(1, 1), A + 2)


def test_act_quasi_needs_laurent_coefficients():
    bad = DiffOp.mult(RF_bad := RatFunc((1,), (1, 1)))  # 1/(x+1)
    with pytest.raises(NonLaurentCoefficient):
        act_quasi(bad, mono(0))


def test_act_poly_examples():
    assert act_poly(D, RatFunc.x_power(3)) == RatFunc((0, 0, 3))
    xinv_D = compose(DiffOp.x_power(-1), EULER)
    assert act_poly(xinv_D, RatFunc.const(1)) == RatFunc()
    op = D - DiffOp.mult(RatFunc((A,), (0, 1)))
    assert act_poly(op, RatFunc.x_power(2)) == RatFunc((0, 2)) - RatFunc((0, A))


def test_act_rat_matches_act_poly():
    op = compose(EULER, D) + DiffOp.mult(RatFunc.x_power(2))
    p = RatFunc((1, 2, 3))
    assert act_rat(op, p) == act_poly(op, p)
    # and extends to rational arguments
    v = RatFunc.x_power(-1)
    assert act_rat(D, v) == -RatFunc.x_power(-2)


def _random_diffop(rng, max_order=2, laurent=False):
    terms = {}
    for j in range(rng.randrange(1, max_order + 2)):
        num = tuple(F(rng.randrange(-3, 4)) for _ in range(rng.randrange(1, 4)))
        if not any(num):
            num = (F(1),)
        if laurent and rng.random() < 0.4:
            c = RatFunc(num, (0,) * rng.randrange(1, 3) + (1,))
        else:
            c = RatFunc(num)
        terms[rng.randrange(0, max_order + 1)] = c
    return DiffOp(terms)


def test_associativity_and_jacobi_random():
    rng = random.Random(20250810)
    ops = [_random_diffop(rng) for _ in range(24)]
    for i in range(0, 24, 3):
        a, b, c = ops[i], ops[i + 1], ops[i + 2]
        assert compose(a, compose(b, c)) == compose(compose(a, b), c)
        jac = (
            commutator(a, commutator(b, c))
            + commutator(b, commutator(c, a))
            + commutator(c, commutator(a, b))
        )
        assert not jac


def test_action_homomorphism():
    rng = random.Random(7)
    for _ in range(10):
        a = _random_diffop(rng, laurent=True)
        b = _random_diffop(rng, laurent=True)
        v = QuasiPoly(
            [(qexp(rng.randrange(0, 3), rng.randrange(0, 2)), F(rng.randrange(1, 5)))]
        )
        assert act_quasi(compose(a, b), v) == act_quasi(a, act_quasi(b, v))


def test_normal_form_idempotent():
    op = compose(EULER, compose(D, X))
    assert DiffOp(dict(op.terms)) == op


def test_quasi_diffop_shift_algebra():
    shift = QuasiDiffOp.power_shift(qexp(0, -1))
    K = compose(EULER - 1, EULER)
    Q = shift * K
    # composition collected the shift on the right
    assert len(Q.parts) == 1
    E, L = Q.parts[0]
    assert E == qexp(0, -1)
    # action: Q x^a = a(a-1) x^0
    out = Q.act(mono(0, 1))
    assert out == QuasiPoly.monomial(qexp(0), A * (A - 1))
    # integer parts of shifts get folded into the plain operator
    plain = QuasiDiffOp.power_shift(qexp(2)) * K
    assert plain.is_plain()
    assert plain.plain() == compose(DiffOp.x_power(2), K)


def test_quasi_diffop_specialize():
    shift = QuasiDiffOp.power_shift(qexp(0, -1))
    K = compose(EULER - 1, EULER)
    Q = (shift * K).specialize(3)
    assert Q.is_plain()
    out = Q.act(mono(3))
    assert out == QuasiPoly.monomial(qexp(0), 6)


def test_canonical_print_examples():
    op = DiffOp({2: RatFunc.x_power(2), 1: RatFunc((1 - A,), (0, 1))})
    assert str(op) == "(x^2)*d^2 + ((-a + 1)/x)*d"


# -- property tests over generated operators ----------------------------------

from hypothesis import given, settings, strategies as st


@st.composite
def diffops(draw, max_order=2):
    terms = {}
    for _ in range(draw(st.integers(1, 2))):
        num = tuple(
            F(draw(st.integers(-2, 2))) for _ in range(draw(st.integers(1, 3)))
        )
        if not any(num):
            num = (F(1),)
        shift = draw(st.integers(0, 1))
        terms[draw(st.integers(0, max_order))] = RatFunc(num, (0,) * shift + (1,))
    return DiffOp(terms)


@settings(max_examples=40, deadline=None)
@given(diffops(), diffops())
def test_compose_matches_generic_action(a, b):
    lhs = act_quasi(compose(a, b), GENERIC)
    rhs = act_quasi(a, act_quasi(b, GENERIC))
    assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(diffops())
def test_conjugation_involution_property(op):
    assert conjugate_by_power(conjugate_by_power(op, A), -A) == op


@settings(max_examples=30, deadline=None)
@given(diffops(), diffops())
def test_commutator_antisymmetry(a, b):
    assert commutator(a, b) == -commutator(b, a)


# -- graded Euler form against the Leibniz reference ------------------------
#
# The reference (tests/leibniz_reference.py) is the calculus ladder
# operators used before the graded form: sum_E L_E ∘ x^E composed by
# Leibniz over RatFunc.  Both forms are built from the same random pieces
# and must agree in normal form after every operation.

# the symbolic parameter, two rational values, and two integers that make
# the a-grades collide with the integer ones
A_VALUES = (None, F(1, 2), F(7, 3), F(1), F(2))


@st.composite
def laurent_diffops(draw, symbolic):
    terms = {}
    for _ in range(draw(st.integers(1, 2))):
        num = []
        for _ in range(draw(st.integers(1, 3))):
            c = F(draw(st.integers(-2, 2)))
            if symbolic and draw(st.booleans()):
                c = c + draw(st.integers(-1, 1)) * A
            num.append(c)
        if not any(num):
            num = [F(1)]
        den = (0,) * draw(st.integers(0, 2)) + (1,)
        terms[draw(st.integers(0, 2))] = RatFunc(num, den)
    return DiffOp(terms)


@st.composite
def ladder_pairs(draw, a0):
    """(graded, reference) for one random sum of pieces L ∘ x^E, with E of
    the form t*a + k (t in -1..1) and a = a0 substituted when a0 is
    rational."""
    graded, pieces = QuasiDiffOp.zero(), []
    for _ in range(draw(st.integers(1, 3))):
        t, k = draw(st.integers(-1, 1)), draw(st.integers(-2, 2))
        E = qexp(k, t) if a0 is None else qexp(k + t * a0)
        L = draw(laurent_diffops(a0 is None))
        graded = graded + QuasiDiffOp.coerce(L) * QuasiDiffOp.power_shift(E)
        pieces.append((E, L))
    return graded, LeibnizQuasiOp(pieces)


def _normal_reading(ref):
    """dsl's caps read order and x-degree off the normal form like this."""
    ops = [L for _, L in ref.parts]
    order = max((L.order() or 0 for L in ops), default=0)
    degree = max((max(len(c.num), len(c.den)) - 1
                  for L in ops for _, c in L.terms), default=0)
    return order, degree


@st.composite
def graded_cases(draw):
    a0 = draw(st.sampled_from(A_VALUES))
    (g1, r1), (g2, r2) = draw(ladder_pairs(a0)), draw(ladder_pairs(a0))
    e = A if a0 is None else a0
    v = QuasiPoly([(qexp(draw(st.integers(-2, 3)), draw(st.integers(-1, 1)))
                    if a0 is None else qexp(draw(st.integers(-2, 3))),
                    F(draw(st.integers(1, 3)))) for _ in range(2)])
    return g1, r1, g2, r2, e + draw(st.integers(-1, 1)), v


@settings(max_examples=60, deadline=None)
@given(graded_cases())
def test_graded_form_matches_leibniz_reference(case):
    g1, r1, g2, r2, e, v = case
    assert g1.normal_parts() == list(r1.parts)
    assert g1.str() == r1.str()
    assert g1.size() == _normal_reading(r1)
    assert (g1 * g2).normal_parts() == list((r1 * r2).parts)
    assert g1.conjugate(e).normal_parts() == list(r1.conjugate(e).parts)
    assert g1.act(v) == r1.act(v)
    if g1.is_plain():
        assert QuasiDiffOp.coerce(g1.plain()) == g1


@st.composite
def graded_actions(draw):
    """(op, v): a graded product of two random Laurent operators and a
    Laurent rational function num / x^t (zero allowed)."""
    symbolic = draw(st.booleans())
    op = (QuasiDiffOp.coerce(draw(laurent_diffops(symbolic)))
          * QuasiDiffOp.coerce(draw(laurent_diffops(symbolic))))
    num = []
    for _ in range(draw(st.integers(0, 4))):
        c = F(draw(st.integers(-2, 2)))
        if symbolic and draw(st.booleans()):
            c = c + A * draw(st.integers(-1, 1))
        num.append(c)
    return op, RatFunc(num, (0,) * draw(st.integers(0, 3)) + (1,))


@settings(max_examples=40, deadline=None)
@given(graded_actions())
def test_graded_act_rat_matches_quotient_rule(case):
    op, v = case
    assert act_rat(op, v) == act_rat(op.plain(), v)
    assert op.plain() == op and hash(op.plain()) == hash(op)


def test_equal_operators_hash_equal_across_forms():
    from qeskit.quadext import MatOp

    for L in (EULER, D, X, DiffOp.identity(), DiffOp.zero(),
              DiffOp({2: RatFunc((1, A), (0, 1))})):
        G = QuasiDiffOp.coerce(L)
        assert L == G and hash(L) == hash(G)
        assert len({L, G}) == 1 and {L: 1}[G] == 1
    bad = DiffOp.mult(RatFunc((1,), (1, 1)))  # 1/(x+1): no graded form
    assert len({bad, QuasiDiffOp.coerce(D), D}) == 2
    M = MatOp(EULER, D, X, DiffOp.zero())
    G = M.graded()
    assert M == G and hash(M) == hash(G) and len({M, G}) == 1
    for c in (3, 0, F(1, 2)):
        G = QuasiDiffOp.coerce(c)
        assert G == c and hash(G) == hash(c) and len({G, c}) == 1


def test_non_laurent_diffop_has_no_graded_form():
    bad = DiffOp.mult(RatFunc((1,), (1, 1)))  # 1/(x+1)
    with pytest.raises(NonLaurentCoefficient):
        QuasiDiffOp.coerce(bad)
    with pytest.raises(NonLaurentCoefficient):
        act(bad, mono(0))
    assert QuasiDiffOp.coerce(D) != bad and bad != QuasiDiffOp.coerce(D)
