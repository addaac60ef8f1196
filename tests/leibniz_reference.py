"""Reference ladder calculus by Leibniz composition over RatFunc.

This is the calculus qeskit used before ladder operators moved to graded
Euler form: a quasi-operator is sum_E L_E ∘ x^E with L_E a normal-ordered
DiffOp and E a QuasiExponent with zero integer part, products conjugate
the x^E factors through by `compose`, and the action uses falling
factorials.  It shares no code with the graded form apart from DiffOp and
`compose`, so the tests use it as an independent oracle.
"""

from __future__ import annotations

from qeskit.operators import DiffOp, NonLaurentCoefficient, QuasiPoly, _join_sum, \
    _wrap, compose
from qeskit.scalars import PS_ONE, PS_ZERO, ParamScalar, QE_ZERO, QuasiExponent, \
    RF_ONE, RatFunc


def conjugate_by_power(A: DiffOp, e) -> DiffOp:
    """x^e ∘ A ∘ x^(-e) with e a parameter-field constant, by substituting
    d -> d - e/x into the normal form."""
    if isinstance(e, QuasiExponent):
        e = e.to_param()
    e = ParamScalar.coerce(e)
    L = DiffOp({1: RF_ONE, 0: RatFunc((-e,), (PS_ZERO, PS_ONE))})
    powers = [DiffOp.identity()]
    for _ in range(A.order() or 0):
        powers.append(compose(powers[-1], L))
    out = DiffOp.zero()
    for j, c in A.terms:
        out = out + compose(DiffOp.mult(c), powers[j])
    return out


def _falling(e: ParamScalar, j: int) -> ParamScalar:
    """e (e-1) ... (e-j+1), exact in the parameter field."""
    out = PS_ONE
    for i in range(j):
        out = out * (e - i)
    return out


def act_quasi(A: DiffOp, v: QuasiPoly) -> QuasiPoly:
    """Apply a Laurent-effective operator to a quasi-polynomial, with
    d^j x^e = e(e-1)...(e-j+1) x^(e-j) and the Laurent split of each
    coefficient."""
    out: dict[QuasiExponent, ParamScalar] = {}
    for j, c in A.terms:
        if not c.is_laurent():
            raise NonLaurentCoefficient(f"non-Laurent coefficient: {c}")
        t, num = c.laurent_parts()
        for e, ce in v.terms:
            base = ce * _falling(e.to_param(), j)
            if not base:
                continue
            e1 = e - j
            for i, ni in enumerate(num):
                if not ni:
                    continue
                key = e1 + (i - t)
                val = base * ni
                out[key] = out[key] + val if key in out else val
    return QuasiPoly(out)


class LeibnizQuasiOp:
    """sum over E of L_E ∘ x^E, canonical: E has zero integer part (the
    integer power of x is folded into L_E through `compose`)."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        acc: dict[QuasiExponent, DiffOp] = {}
        for E, L in parts:
            if not L:
                continue
            w = E.offset - (E.offset % 1)
            if w:
                L = compose(L, DiffOp.x_power(int(w)))
                E = QuasiExponent(E.a_part, E.offset - w)
            acc[E] = acc[E] + L if E in acc else L
        self.parts = tuple(sorted(((E, L) for E, L in acc.items() if L),
                                  key=lambda t: t[0]))

    def __mul__(self, other):
        """(L1∘x^E1)(L2∘x^E2) = (L1 ∘ x^E1 L2 x^-E1) ∘ x^(E1+E2)."""
        acc = []
        for E1, L1 in self.parts:
            for E2, L2 in other.parts:
                mid = conjugate_by_power(L2, E1) if E1 != QE_ZERO else L2
                acc.append((E1 + E2, compose(L1, mid)))
        return LeibnizQuasiOp(acc)

    def conjugate(self, e) -> "LeibnizQuasiOp":
        """x^e ∘ self ∘ x^-e: each L_E is conjugated, x^E commutes with x^e."""
        return LeibnizQuasiOp([(E, conjugate_by_power(L, e)) for E, L in self.parts])

    def act(self, v: QuasiPoly) -> QuasiPoly:
        out = QuasiPoly()
        for E, L in self.parts:
            out = out + act_quasi(L, QuasiPoly([(e + E, c) for e, c in v.terms]))
        return out

    def str(self, name: str = "a") -> str:
        if not self.parts:
            return "0"
        return _join_sum([L.str(name) if E == QE_ZERO
                          else f"{_wrap(L.str(name))}*x^({E.str(name)})"
                          for E, L in self.parts])
