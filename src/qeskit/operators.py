"""Normal-ordered linear differential operators and their exact actions.

A DiffOp is a finite sum sum_j c_j(x) d^j with RatFunc coefficients, kept
in normal order: coefficient functions on the left, derivative powers on
the right.  Composition uses the rewrite d∘c(x) = c(x)d + c'(x) (Leibniz),
so products, commutators and conjugations stay exact and canonical.

Operators act on two carriers:

  * plain polynomials in x        -> act_poly, result a RatFunc
  * quasi-polynomials sum c_e x^e -> act_quasi, exponents e = offset + t*a

Quasi-monomial action needs Laurent-effective coefficients (denominators
that are pure powers of x); anything else raises NonLaurentCoefficient
rather than silently coercing.

A QuasiDiffOp extends DiffOp with trailing multiplications by non-integer
powers x^E (E a QuasiExponent).  Every word in {rational-coefficient
operators, x^E multipliers} normalizes to sum_E L_E ∘ x^E by conjugating
the x^E factors to the right; integer parts of E are absorbed back into
the DiffOp so the form is unique.  This is what the subspace-exchanging
generators live in.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Mapping, Union

from .scalars import (
    ExactError,
    PS_ONE,
    PS_ZERO,
    ParamScalar,
    QE_ZERO,
    QuasiExponent,
    RF_ONE,
    RF_ZERO,
    RatFunc,
    poly_deriv,
    poly_trim,
    pow_by_squaring,
    rat,
)


class NonLaurentCoefficient(ExactError):
    """A coefficient denominator has a non-monomial factor."""


def _join_sum(parts: list[str]) -> str:
    """Concatenate term strings with sign-aware separators."""
    out = [parts[0]]
    for p in parts[1:]:
        out.append(f" - {p[1:]}" if p.startswith("-") else f" + {p}")
    return "".join(out)


def _wrap(s: str) -> str:
    """Parenthesize unless already wrapped by one matching pair."""
    if s.startswith("(") and s.endswith(")"):
        depth = 0
        for i, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and i != len(s) - 1:
                    break
        else:
            return s
    return f"({s})"


Scalar = Union[int, Fraction, ParamScalar]


def _scalar(v) -> ParamScalar:
    return ParamScalar.coerce(v)


class DiffOp:
    """sum_j c_j(x) * d^j in canonical normal order; immutable."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, RatFunc] | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, RatFunc] = {}
        for j, c in items:
            if j < 0:
                raise ValueError("derivative order must be nonnegative")
            c = RatFunc.coerce(c)
            if not c:
                continue
            acc[j] = acc[j] + c if j in acc else c
        object.__setattr__(
            self, "terms", tuple(sorted((j, c) for j, c in acc.items() if c))
        )

    def __setattr__(self, *a):
        raise AttributeError("DiffOp is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "DiffOp":
        return cls()

    @classmethod
    def identity(cls) -> "DiffOp":
        return cls({0: RF_ONE})

    @classmethod
    def mult(cls, c) -> "DiffOp":
        """Multiplication operator by a rational function."""
        return cls({0: RatFunc.coerce(c)})

    @classmethod
    def d(cls, order: int = 1) -> "DiffOp":
        return cls({order: RF_ONE})

    @classmethod
    def x_power(cls, k: int) -> "DiffOp":
        return cls({0: RatFunc.x_power(k)})

    @classmethod
    def euler(cls) -> "DiffOp":
        """x d/dx, diagonal on monomials."""
        return cls({1: RatFunc.x()})

    # -- structure -----------------------------------------------------------

    def as_dict(self) -> dict[int, RatFunc]:
        return dict(self.terms)

    def coeff(self, j: int) -> RatFunc:
        for k, c in self.terms:
            if k == j:
                return c
        return RF_ZERO

    def order(self):
        return self.terms[-1][0] if self.terms else None

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, QuasiDiffOp):
            return QuasiDiffOp.coerce(self) == other
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def is_laurent(self) -> bool:
        return all(c.is_laurent() for _, c in self.terms)

    def as_monomial_mult(self):
        """Return (k, c) if this is multiplication by c*x^k, else None."""
        if not self.terms:
            return None
        if len(self.terms) != 1 or self.terms[0][0] != 0:
            return None
        c = self.terms[0][1]
        if not c.is_laurent():
            return None
        t, num = c.laurent_parts()
        nz = [(i, v) for i, v in enumerate(num) if v]
        if len(nz) != 1:
            return None
        return nz[0][0] - t, nz[0][1]

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        o = _as_diffop(other)
        if o is NotImplemented:
            return NotImplemented
        return DiffOp(list(self.terms) + list(o.terms))

    __radd__ = __add__

    def __neg__(self):
        return DiffOp([(j, -c) for j, c in self.terms])

    def __sub__(self, other):
        o = _as_diffop(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = _as_diffop(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def scale(self, c) -> "DiffOp":
        c = RatFunc.coerce(c)
        return DiffOp([(j, v * c) for j, v in self.terms])

    def __mul__(self, other):
        """Operator composition (self applied after other); scalars scale."""
        if isinstance(other, (int, Fraction, ParamScalar)):
            return self.scale(other)
        if isinstance(other, QuasiDiffOp):
            return QuasiDiffOp.coerce(self) * other
        o = _as_diffop(other)
        if o is NotImplemented:
            return NotImplemented
        return compose(self, o)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, ParamScalar)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        return pow_by_squaring(self, k, DiffOp.identity())

    # -- printing ------------------------------------------------------------

    def __str__(self):
        return self.str()

    def str(self, name: str = "a") -> str:
        if not self.terms:
            return "0"
        parts = []
        for j, c in sorted(self.terms, reverse=True):
            cs = c.str(name)
            if j == 0:
                parts.append(cs)
                continue
            ds = "d" if j == 1 else f"d^{j}"
            if cs == "1":
                parts.append(ds)
            elif cs == "-1":
                parts.append(f"-{ds}")
            else:
                parts.append(f"{_wrap(cs)}*{ds}")
        return _join_sum(parts)

    def __repr__(self):
        return f"DiffOp({self.str()})"


def _as_diffop(v):
    if isinstance(v, DiffOp):
        return v
    if isinstance(v, (int, Fraction, ParamScalar)):
        return DiffOp({0: RatFunc.const(v)})
    return NotImplemented


D = DiffOp.d
X_OP = DiffOp({0: RatFunc.x()})


def compose(A: DiffOp, B: DiffOp) -> DiffOp:
    """Normal-ordered product A∘B (apply B first)."""
    out: dict[int, RatFunc] = {}
    for j, cj in A.terms:
        for k, dk in B.terms:
            der = dk
            for i in range(j + 1):
                if i > 0:
                    der = der.deriv()
                    if not der:
                        break
                c = cj * der * comb(j, i)
                key = j - i + k
                out[key] = out[key] + c if key in out else c
    return DiffOp(out)


def commutator(A, B):
    """A∘B - B∘A (works for DiffOp and QuasiDiffOp alike)."""
    return A * B - B * A


def conjugate_by_power(A: DiffOp, e) -> DiffOp:
    """x^e ∘ A ∘ x^(-e) with e a parameter-field constant.

    Realized by substituting d -> d - e/x into the normal form; the result
    picks up at most x powers in denominators.
    """
    if isinstance(e, QuasiExponent):
        e = e.to_param()
    e = _scalar(e)
    L = DiffOp({1: RF_ONE, 0: RatFunc((-e,), (PS_ZERO, PS_ONE))})
    powers = [DiffOp.identity()]
    max_order = A.order() or 0
    for _ in range(max_order):
        powers.append(compose(powers[-1], L))
    out = DiffOp.zero()
    for j, c in A.terms:
        out = out + compose(DiffOp.mult(c), powers[j])
    return out


def act_poly(A: DiffOp, p) -> RatFunc:
    """Apply to a plain polynomial (RatFunc or coefficient sequence)."""
    if isinstance(p, RatFunc):
        coeffs = p.as_poly()
    else:
        coeffs = poly_trim([ParamScalar.coerce(c) for c in p])
    out = RF_ZERO
    der = coeffs
    prev = 0
    for j, c in A.terms:
        for _ in range(j - prev):
            der = poly_deriv(der)
        prev = j
        if der:
            out = out + c * RatFunc.from_poly(der)
    return out


def act_rat(A: DiffOp, v: RatFunc) -> RatFunc:
    """Apply to an arbitrary rational function (exact quotient-rule chain)."""
    v = RatFunc.coerce(v)
    out = RF_ZERO
    der = v
    prev = 0
    for j, c in A.terms:
        for _ in range(j - prev):
            der = der.deriv()
        prev = j
        if der:
            out = out + c * der
    return out


class QuasiPoly:
    """Finite sum of c_e * x^e with ParamScalar coefficients and
    QuasiExponent exponents; canonical, immutable."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[QuasiExponent, ParamScalar] = {}
        for e, c in items:
            c = ParamScalar.coerce(c)
            if not c:
                continue
            acc[e] = acc[e] + c if e in acc else c
        object.__setattr__(
            self, "terms", tuple(sorted((e, c) for e, c in acc.items() if c))
        )

    def __setattr__(self, *a):
        raise AttributeError("QuasiPoly is immutable")

    @classmethod
    def monomial(cls, e: QuasiExponent, c=1) -> "QuasiPoly":
        return cls([(e, ParamScalar.coerce(c))])

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, QuasiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __add__(self, other):
        return QuasiPoly(list(self.terms) + list(other.terms))

    def __neg__(self):
        return QuasiPoly([(e, -c) for e, c in self.terms])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "QuasiPoly":
        c = ParamScalar.coerce(c)
        return QuasiPoly([(e, v * c) for e, v in self.terms])

    def shift(self, E: QuasiExponent) -> "QuasiPoly":
        """Multiply by x^E."""
        return QuasiPoly([(e + E, c) for e, c in self.terms])

    def coeff(self, e: QuasiExponent) -> ParamScalar:
        for f, c in self.terms:
            if f == e:
                return c
        return PS_ZERO

    def specialize(self, a0) -> "QuasiPoly":
        return QuasiPoly(
            [(e.specialize(a0), ParamScalar.const(c.specialize(a0)))
             for e, c in self.terms]
        )

    def __str__(self):
        return self.str()

    def str(self, name: str = "a") -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            es = e.str(name)
            if es == "0":
                parts.append(f"({c.str(name)})")
            elif es == "1":
                parts.append(f"({c.str(name)})*x")
            else:
                parts.append(f"({c.str(name)})*x^({es})")
        return _join_sum(parts)

    def __repr__(self):
        return f"QuasiPoly({self.str()})"


def _falling(e: ParamScalar, j: int) -> ParamScalar:
    """e (e-1) ... (e-j+1), exact in the parameter field."""
    out = PS_ONE
    for i in range(j):
        out = out * (e - i)
    return out


def act_quasi(A: DiffOp, v: QuasiPoly) -> QuasiPoly:
    """Apply a Laurent-effective operator to a quasi-polynomial.

    Uses d^j x^e = e(e-1)...(e-j+1) x^(e-j) with the exponent carried
    exactly as offset + t*a.
    """
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


_QDVal = Union[DiffOp, "QuasiDiffOp", int, Fraction, ParamScalar]


class QuasiDiffOp:
    """sum over E of L_E ∘ x^E: differential operators with trailing
    quasi-power multipliers; canonical and immutable.

    Canonical form: E has zero integer part (the integer power of x is
    folded into L_E) and the E = 0 slot is a plain DiffOp.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        items = parts.items() if isinstance(parts, Mapping) else parts
        acc: dict[QuasiExponent, DiffOp] = {}
        for E, L in items:
            if not L:
                continue
            w = E.offset - (E.offset % 1)  # integer part (floor for rationals)
            if w:
                L = compose(L, DiffOp.x_power(int(w)))
                E = QuasiExponent(E.a_part, E.offset - w)
            cur = acc.get(E)
            acc[E] = cur + L if cur is not None else L
        object.__setattr__(
            self,
            "parts",
            tuple(sorted(((E, L) for E, L in acc.items() if L),
                         key=lambda t: t[0])),
        )

    def __setattr__(self, *a):
        raise AttributeError("QuasiDiffOp is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def coerce(cls, v: _QDVal) -> "QuasiDiffOp":
        if isinstance(v, QuasiDiffOp):
            return v
        if isinstance(v, DiffOp):
            return cls([(QE_ZERO, v)])
        return cls([(QE_ZERO, _as_diffop(v))])

    @classmethod
    def power_shift(cls, E: QuasiExponent) -> "QuasiDiffOp":
        """Multiplication by x^E."""
        return cls([(E, DiffOp.identity())])

    @classmethod
    def zero(cls) -> "QuasiDiffOp":
        return cls()

    # -- structure -----------------------------------------------------------

    def __bool__(self):
        return bool(self.parts)

    def __eq__(self, other):
        if isinstance(other, (DiffOp, int, Fraction, ParamScalar)):
            other = QuasiDiffOp.coerce(other)
        if not isinstance(other, QuasiDiffOp):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def is_plain(self) -> bool:
        """True iff no genuine quasi-power multiplier remains."""
        return all(E == QE_ZERO for E, _ in self.parts)

    def plain(self) -> DiffOp:
        if not self.parts:
            return DiffOp.zero()
        if not self.is_plain():
            raise ExactError(f"{self} carries quasi-power shifts")
        return self.parts[0][1]

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other):
        o = QuasiDiffOp.coerce(other) if not isinstance(other, QuasiDiffOp) else other
        return QuasiDiffOp(list(self.parts) + list(o.parts))

    __radd__ = __add__

    def __neg__(self):
        return QuasiDiffOp([(E, -L) for E, L in self.parts])

    def __sub__(self, other):
        o = QuasiDiffOp.coerce(other) if not isinstance(other, QuasiDiffOp) else other
        return self + (-o)

    def __rsub__(self, other):
        return QuasiDiffOp.coerce(other) - self

    def scale(self, c) -> "QuasiDiffOp":
        return QuasiDiffOp([(E, L.scale(c)) for E, L in self.parts])

    def __mul__(self, other):
        """Composition: (L1∘x^E1)(L2∘x^E2) = (L1 ∘ x^E1 L2 x^-E1) ∘ x^(E1+E2)."""
        if isinstance(other, (int, Fraction, ParamScalar)):
            return self.scale(other)
        o = QuasiDiffOp.coerce(other) if not isinstance(other, QuasiDiffOp) else other
        acc: list = []
        for E1, L1 in self.parts:
            for E2, L2 in o.parts:
                mid = conjugate_by_power(L2, E1) if (E1.a_part or E1.offset) else L2
                acc.append((E1 + E2, compose(L1, mid)))
        return QuasiDiffOp(acc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, ParamScalar)):
            return self.scale(other)
        if isinstance(other, DiffOp):
            return QuasiDiffOp.coerce(other) * self
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        return pow_by_squaring(self, k, QuasiDiffOp.coerce(DiffOp.identity()))

    def as_monomial_mult(self):
        """Return (E, c) if this is multiplication by c*x^E, else None."""
        if len(self.parts) != 1:
            return None
        E, L = self.parts[0]
        mono = L.as_monomial_mult()
        if mono is None:
            return None
        k, c = mono
        return E + k, c

    # -- action ---------------------------------------------------------------

    def act(self, v: QuasiPoly) -> QuasiPoly:
        out = QuasiPoly()
        for E, L in self.parts:
            w = v.shift(E) if (E.a_part or E.offset) else v
            out = out + act_quasi(L, w)
        return out

    def specialize(self, a0) -> "QuasiDiffOp":
        """Evaluate the parameter everywhere (shifts become rational)."""
        a0 = rat(a0)
        acc = []
        for E, L in self.parts:
            E2 = E.specialize(a0)
            L2 = DiffOp([(j, c.specialize(a0)) for j, c in L.terms])
            acc.append((E2, L2))
        return QuasiDiffOp(acc)

    # -- printing ---------------------------------------------------------------

    def __str__(self):
        return self.str()

    def str(self, name: str = "a") -> str:
        if not self.parts:
            return "0"
        parts = []
        for E, L in self.parts:
            if E == QE_ZERO:
                parts.append(L.str(name))
            else:
                parts.append(f"{_wrap(L.str(name))}*x^({E.str(name)})")
        return _join_sum(parts)

    def __repr__(self):
        return f"QuasiDiffOp({self.str()})"


def act(A, v: QuasiPoly) -> QuasiPoly:
    """Uniform action for DiffOp and QuasiDiffOp."""
    if isinstance(A, DiffOp):
        return act_quasi(A, v)
    return A.act(v)
