"""Reference Lamé path by Leibniz composition and Euclid denominators.

This is how qeskit built the half-odd-integer pullback and its module
matrix before the pullback's entries moved to graded Euler form: A is
squared by `compose` over RatFunc, the module images come from the
quotient-rule chain of `act_rat`, every common denominator is an lcm by
Euclid over the coefficient field, and coordinates and characteristic
polynomial are computed over ParamScalar.  It shares no code with the
graded path apart from the lifts, DiffOp and linalg, so the tests use it as
an independent oracle.
"""

from __future__ import annotations

from fractions import Fraction

from qeskit import linalg
from qeskit.quadext import MatOp, act, lame_preset, lift_d, lift_f
from qeskit.scalars import PS_ONE, PS_ZERO, RatFunc, param_or_const, poly_divmod, \
    poly_gcd, poly_mul


def common_denominator(vals):
    """(lcd, numerators) with the lcd an lcm by Euclid; numerators padded
    with zeros to one length."""
    lcd = (PS_ONE,)
    for v in vals:
        lcd = poly_mul(poly_divmod(lcd, poly_gcd(lcd, v.den))[0], v.den)
    nums = [poly_mul(v.num, poly_divmod(lcd, v.den)[0]) for v in vals]
    width = max((len(p) for p in nums), default=0)
    return lcd, [p + (PS_ZERO,) * (width - len(p)) for p in nums]


def lame_pullback(n: int, k2=None) -> MatOp:
    """-(A*A) + potential with A = LF*LD + gauge, all over DiffOp."""
    s = lame_preset(n, k2)
    k2_s = param_or_const(k2)
    LF, LD = lift_f(s), lift_d(s)
    half_inv_x = RatFunc.const(Fraction(1, 2)) / RatFunc.x()
    gauge = MatOp.scalar(-half_inv_x) + LF * MatOp.scalar(half_inv_x)
    A = LF * LD + gauge
    N = Fraction(2 * n + 1, 2)
    potential = MatOp.scalar(RatFunc.x_power(2) * (k2_s * N * (N + 1)))
    return -(A * A) + potential


def module_matrix(M: MatOp, module):
    """The matrix of M on a PairModule, solved over ParamScalar."""
    pairs = list(module.basis) + [act(M, v) for v in module.basis]
    vecs = [[] for _ in pairs]
    for comp in (0, 1):
        _, nums = common_denominator([pr[comp] for pr in pairs])
        for vec, p in zip(vecs, nums):
            vec.extend(p)
    d = module.dim()
    cols = linalg.in_span_many(vecs[:d], vecs[d:], PS_ZERO, PS_ONE)
    if any(col is None for col in cols):
        return None
    return [list(row) for row in zip(*cols)]


def char_poly(A):
    return linalg.char_poly(A, PS_ZERO, PS_ONE)
