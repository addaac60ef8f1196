"""Exact scalar tower: rationals, rational functions of a formal parameter,
and rational functions of x over that parameter field.

Three layers, each built on the one below:

  Fraction     -- arbitrary-precision rationals (stdlib)
  ParamScalar  -- p(a)/q(a) with Fraction coefficients, `a` a formal symbol
  RatFunc      -- P(x)/Q(x) with ParamScalar coefficients

ParamScalar and RatFunc are one construction instantiated twice: the
class `_Fraction` holds a canonical num/den over a coefficient field and
writes the field arithmetic, equality, hashing and printing once; each
subclass gives its coefficient coercion, its printed variable, its unit
and the few methods only it has.  All values are immutable and kept in a
unique canonical form: denominators are monic and never zero, numerator
and denominator share no factor, and the zero value is ()/(1).  Equality
is structural, so two values are equal iff their canonical coefficient
tuples agree.

Polynomials are dense coefficient tuples, low index = low degree.  The zero
polynomial is the empty tuple; its degree is the NEG_INF sentinel, which
compares below every integer and absorbs addition, keeping degree
arithmetic total.

There is exactly one formal parameter.  It is written `a` by default; code
working with a differently named constant (lam, k2, ...) passes the display
name to str() methods.  No floating point appears anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import FunctionType
from typing import Sequence, Union


class ExactError(ValueError):
    """Base class for exact-arithmetic failures."""


class DivisionByZero(ExactError, ZeroDivisionError):
    """Raised when a denominator is identically zero."""


class SingularSpecialization(ExactError):
    """Substituting the parameter would zero a denominator.

    Carries the offending denominator factor so a report can show exactly
    which expression became singular.
    """

    def __init__(self, factor):
        self.factor = factor
        super().__init__(f"singular specialization: denominator {factor} vanishes")


class _NegInf:
    """Degree of the zero polynomial; below every int, absorbs addition."""

    __slots__ = ()

    def __lt__(self, other):
        return not isinstance(other, _NegInf)

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return isinstance(other, _NegInf)

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __neg__(self):
        raise ArithmeticError("cannot negate -inf degree")

    def __repr__(self):
        return "-inf"


NEG_INF = _NegInf()

Degree = Union[int, _NegInf]


def rat(v) -> Fraction:
    """Coerce an int, string 'p/q', or Fraction to an exact rational."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v.strip())
    raise TypeError(f"cannot build exact rational from {v!r}")


# ---------------------------------------------------------------------------
# Dense univariate polynomial helpers, generic over an exact field.
#
# Coefficients may be Fraction or ParamScalar (anything with field dunders
# and truthiness-as-nonzero).  Tuples only; zero polynomial is ().
# ---------------------------------------------------------------------------


def poly_trim(cs: Sequence) -> tuple:
    """Drop trailing zero coefficients."""
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return tuple(cs[:n])


def poly_deg(p: Sequence) -> Degree:
    return len(p) - 1 if p else NEG_INF


def poly_add(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] = out[i] + c
    return poly_trim(out)


def poly_neg(p):
    return tuple(-c for c in p)


def poly_sub(p, q):
    return poly_add(p, poly_neg(q))


def poly_mul(p, q):
    if not p or not q:
        return ()
    out = [None] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            t = a * b
            out[i + j] = t if out[i + j] is None else out[i + j] + t
    zero = p[0] - p[0]
    return poly_trim([zero if c is None else c for c in out])


def poly_divmod(p, q):
    """Exact long division over the coefficient field; q must be nonzero."""
    if not q:
        raise DivisionByZero("division by zero")
    if len(p) < len(q):
        return (), tuple(p)
    rem = list(p)
    lead = q[-1]
    qd = len(q) - 1
    quot = [p[0] - p[0]] * (len(p) - qd)
    for i in range(len(p) - 1, qd - 1, -1):
        c = rem[i]
        if not c:
            continue
        f = c / lead
        quot[i - qd] = f
        for j, b in enumerate(q):
            rem[i - qd + j] = rem[i - qd + j] - f * b
    return poly_trim(quot), poly_trim(rem)


def poly_mod(p, q):
    return poly_divmod(p, q)[1]


def poly_monic(p):
    """Scale to leading coefficient 1 (zero polynomial stays zero)."""
    if not p:
        return ()
    lead = p[-1]
    return tuple(c / lead for c in p)


def poly_gcd(p, q):
    """Monic gcd by the Euclidean algorithm over the coefficient field."""
    p, q = poly_trim(p), poly_trim(q)
    while q:
        p, q = q, poly_mod(p, q)
        q = poly_monic(q)  # keep remainders tame
    return poly_monic(p)


def _reduce(num, den, one):
    """Canonical (num, den) for trimmed polynomials over a field with unit
    `one`: den monic, gcd(num, den) = 1, zero as ()/(one).

    The gcd is known in advance for a constant denominator (it is 1) and for
    a monomial one c*t^k (it is t^min(k, v), v the t-valuation of num), so
    only other denominators run Euclid.
    """
    if not den:
        raise DivisionByZero("division by zero")
    if not num:
        return (), (one,)
    if len(den) > 1:
        if any(den[:-1]):
            g = poly_gcd(num, den)
            if len(g) > 1:
                num = poly_divmod(num, g)[0]
                den = poly_divmod(den, g)[0]
        else:
            v = 0
            while not num[v]:
                v += 1
            s = min(v, len(den) - 1)
            num, den = num[s:], den[s:]
    lead = den[-1]
    if lead == one:
        return num, den
    return tuple(c / lead for c in num), tuple(c / lead for c in den)


def pow_by_squaring(x, k: int, one):
    """x**k for an integer k >= 0 by square-and-multiply; `one` for k = 0.

    Only powers of x are multiplied, so the product need not commute.
    """
    out = None
    while k:
        if k & 1:
            out = x if out is None else out * x
        k >>= 1
        if k:
            x = x * x
    return one if out is None else out


def poly_deriv(p):
    return poly_trim([c * i for i, c in enumerate(p)][1:])


def poly_eval(p, v, zero):
    """Horner evaluation; `zero` supplies the result for the zero poly."""
    if not p:
        return zero
    acc = zero
    for c in reversed(p):
        acc = acc * v + c
    return acc


def _poly_str(p: Sequence, var: str, name: str = "a") -> str:
    """Print a polynomial in `var`, highest degree first.

    Coefficients are Fractions or ParamScalars printed in `name`.  A
    non-constant ParamScalar coefficient is parenthesized and keeps its own
    sign, so canonical prints stay parseable by the expression grammar.
    """
    out = ""
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if not c:
            continue
        xs = "" if i == 0 else var if i == 1 else f"{var}^{i}"
        if not isinstance(c, Fraction) and c.is_constant():
            c = c.as_fraction()
        if isinstance(c, Fraction):
            neg, c = c < 0, abs(c)
            txt = str(c) if not xs else xs if c == 1 else f"{c}*{xs}"
        else:
            neg, txt = False, f"({c.str(name)})" + (f"*{xs}" if xs else "")
        if out:
            out += " - " if neg else " + "
        elif neg:
            out = "-"
        out += txt
    return out or "0"


_Q_ONE = Fraction(1)


class _Fraction:
    """num/den over a coefficient field, in canonical form: num and den are
    trimmed coefficient tuples, den monic, gcd(num, den) = 1, zero stored
    as ()/(1).  Immutable; equality is structural.

    The field arithmetic is written here once.  A subclass gives its own
    `__init__` (the coefficient coercion, then `_reduce`), `_coef` (one
    coefficient's coercion), `_operand` (an operand of another type as a
    value of the subclass, or NotImplemented), `_var` (the printed variable,
    None for the parameter's own name) and `_one` (the field's unit, set
    once the class exists).  Every result is built through the subclass's
    `__init__`, so it is canonical; that `__init__` lives in the subclass
    body because perfbench's tracer wraps it there to count constructions.
    """

    __slots__ = ("num", "den")

    def __init_subclass__(cls, **kw):
        # Each subclass runs its own copy of every method written here.
        # CPython's inline caches live in the code object and each holds
        # one type, so a code object shared by both subclasses would miss
        # on every switch between them.
        super().__init_subclass__(**kw)
        for name, f in vars(_Fraction).items():
            if isinstance(f, FunctionType) and name not in vars(cls):
                setattr(cls, name, FunctionType(f.__code__.replace(), f.__globals__,
                                                name, f.__defaults__))

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def const(cls, v):
        return cls((cls._coef(v),))

    @classmethod
    def coerce(cls, v):
        return v if isinstance(v, cls) else cls.const(v)

    # -- predicates ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_polynomial(self) -> bool:
        return len(self.den) == 1

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and len(self.den) == 1

    # -- arithmetic ----------------------------------------------------------
    #
    # An operand of the same class is used as it is; only other operands go
    # through `_operand`, so the common case makes no extra call.

    def __add__(self, other):
        cls = type(self)
        if type(other) is not cls:
            other = self._operand(other)
            if other is NotImplemented:
                return NotImplemented
        if self.den == other.den:
            return cls(poly_add(self.num, other.num), self.den)
        return cls(
            poly_add(poly_mul(self.num, other.den), poly_mul(other.num, self.den)),
            poly_mul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(type(self))  # negation keeps the canonical form
        object.__setattr__(out, "num", poly_neg(self.num))
        object.__setattr__(out, "den", self.den)
        return out

    def __sub__(self, other):
        if type(other) is not type(self):
            other = self._operand(other)
            if other is NotImplemented:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        o = self._operand(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        cls = type(self)
        if type(other) is not cls:
            other = self._operand(other)
            if other is NotImplemented:
                return NotImplemented
        return cls(poly_mul(self.num, other.num), poly_mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        cls = type(self)
        if type(other) is not cls:
            other = self._operand(other)
            if other is NotImplemented:
                return NotImplemented
        if not other:
            raise DivisionByZero("division by zero")
        return cls(poly_mul(self.num, other.den), poly_mul(self.den, other.num))

    def __rtruediv__(self, other):
        o = self._operand(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self._one / self ** (-k)
        return pow_by_squaring(self, k, self._one)

    def __eq__(self, other):
        if type(other) is not type(self):
            other = self._operand(other)
            if other is NotImplemented:
                return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a constant equals its Fraction (or int), so it hashes as that
        if len(self.num) <= 1 and len(self.den) == 1:
            return hash(self.num[0]) if self.num else 0
        return hash((self.num, self.den))

    # -- printing ------------------------------------------------------------

    def __str__(self):
        return self.str()

    def str(self, name: str = "a") -> str:
        var = self._var or name
        ns = _poly_str(self.num, var, name)
        if len(self.den) == 1:
            return ns
        ds = _poly_str(self.den, var, name)
        if sum(map(bool, self.num)) > 1:
            ns = f"({ns})"
        if sum(map(bool, self.den)) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"{type(self).__name__}({self.str()})"


class ParamScalar(_Fraction):
    """A rational function p(a)/q(a) of the formal parameter with Fraction
    coefficients; adds exact specialization of the parameter."""

    __slots__ = ()
    _coef = staticmethod(rat)
    _var = None

    def __init__(self, num=(), den=(_Q_ONE,)):
        num, den = _reduce(poly_trim([rat(c) for c in num]),
                           poly_trim([rat(c) for c in den]), _Q_ONE)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def _operand(v):
        if isinstance(v, ParamScalar):
            return v
        if isinstance(v, (int, Fraction)):
            return ParamScalar.const(v)
        return NotImplemented

    @classmethod
    def sym(cls) -> "ParamScalar":
        """The formal parameter itself."""
        return cls((Fraction(0), Fraction(1)))

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ExactError(f"{self} is not a constant")
        return self.num[0] if self.num else Fraction(0)

    def specialize(self, a0) -> Fraction:
        """Exact value at parameter = a0; singular if the denominator dies."""
        a0 = rat(a0)
        dv = poly_eval(self.den, a0, Fraction(0))
        if dv == 0:
            raise SingularSpecialization(_poly_str(self.den, "a"))
        return poly_eval(self.num, a0, Fraction(0)) / dv


PS_ZERO = ParamScalar()
PS_ONE = ParamScalar._one = ParamScalar.const(1)
PARAM = ParamScalar.sym()


def param_or_const(v) -> ParamScalar:
    """The formal parameter for None, else the rational constant v."""
    return PARAM if v is None else ParamScalar.const(v)


class RatFunc(_Fraction):
    """A rational function P(x)/Q(x) with ParamScalar coefficients; content
    sits in the numerator.  Adds d/dx, Laurent parts and specialization."""

    __slots__ = ()
    _coef = staticmethod(ParamScalar.coerce)
    _var = "x"

    def __init__(self, num=(), den=(PS_ONE,)):
        num, den = _reduce(poly_trim([ParamScalar.coerce(c) for c in num]),
                           poly_trim([ParamScalar.coerce(c) for c in den]), PS_ONE)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def _operand(v):
        if isinstance(v, RatFunc):
            return v
        if isinstance(v, (int, Fraction, ParamScalar)):
            return RatFunc.const(v)
        return NotImplemented

    @classmethod
    def x(cls) -> "RatFunc":
        return cls((PS_ZERO, PS_ONE))

    @classmethod
    def x_power(cls, k: int) -> "RatFunc":
        """x^k for any integer k (negative k puts the power below)."""
        if k >= 0:
            return cls((PS_ZERO,) * k + (PS_ONE,))
        return cls((PS_ONE,), (PS_ZERO,) * (-k) + (PS_ONE,))

    def as_poly(self) -> tuple[ParamScalar, ...]:
        if not self.is_polynomial():
            raise ExactError(f"{self} is not a polynomial in x")
        return self.num

    def is_laurent(self) -> bool:
        """True iff the denominator is a pure power of x."""
        return all(not c for c in self.den[:-1])

    def laurent_parts(self) -> tuple[int, tuple[ParamScalar, ...]]:
        """Return (t, numerator) with self = numerator / x^t."""
        if not self.is_laurent():
            raise ExactError(f"non-Laurent coefficient: {self}")
        return len(self.den) - 1, self.num

    def degree(self) -> Degree:
        """Degree of the numerator (use with is_polynomial for bounds)."""
        return poly_deg(self.num)

    def deriv(self) -> "RatFunc":
        """Exact d/dx by the quotient rule."""
        n, d = self.num, self.den
        if len(d) == 1:
            return RatFunc(poly_deriv(n), d)
        return RatFunc(
            poly_sub(poly_mul(poly_deriv(n), d), poly_mul(n, poly_deriv(d))),
            poly_mul(d, d),
        )

    def specialize(self, a0) -> "RatFunc":
        """Substitute the parameter; result has constant coefficients.  The
        denominator is monic, so only a coefficient can become singular."""
        return RatFunc(tuple(ParamScalar.const(c.specialize(a0)) for c in self.num),
                       tuple(ParamScalar.const(c.specialize(a0)) for c in self.den))


RF_ZERO = RatFunc()
RF_ONE = RatFunc._one = RatFunc.const(1)
RF_X = RatFunc.x()


def common_denominator(vals: Sequence[RatFunc]):
    """(lcd, numerators): each value of vals written as numerator / lcd,
    the numerators padded with zeros to one length, so linear relations
    among the values are linear relations among the padded coefficients.

    When every denominator is a power x^t (as in `_reduce`, the gcd is then
    known), the lcd is x^max(t) and each numerator is shifted up."""
    if all(v.is_laurent() for v in vals):
        top = max((len(v.den) for v in vals), default=1)
        lcd = (PS_ZERO,) * (top - 1) + (PS_ONE,)
        nums = [(PS_ZERO,) * (top - len(v.den)) + v.num if v else () for v in vals]
    else:
        lcd = (PS_ONE,)
        for v in vals:
            lcd = poly_mul(poly_divmod(lcd, poly_gcd(lcd, v.den))[0], v.den)
        nums = [poly_mul(v.num, poly_divmod(lcd, v.den)[0]) for v in vals]
    width = max((len(p) for p in nums), default=0)
    return lcd, [p + (PS_ZERO,) * (width - len(p)) for p in nums]


@dataclass(frozen=True, order=True)
class QuasiExponent:
    """An exponent offset + a_part * a; sort order is (a_part, offset)."""

    a_part: Fraction
    offset: Fraction

    def shift(self, k) -> "QuasiExponent":
        return QuasiExponent(self.a_part, self.offset + rat(k))

    def __add__(self, other):
        if isinstance(other, QuasiExponent):
            return QuasiExponent(self.a_part + other.a_part, self.offset + other.offset)
        return self.shift(other)

    def __sub__(self, other):
        if isinstance(other, QuasiExponent):
            return QuasiExponent(self.a_part - other.a_part, self.offset - other.offset)
        return self.shift(-rat(other))

    def __neg__(self):
        return QuasiExponent(-self.a_part, -self.offset)

    def is_plain(self) -> bool:
        return self.a_part == 0

    def to_param(self) -> ParamScalar:
        """offset + a_part * a as an element of the parameter field."""
        return ParamScalar((self.offset, self.a_part))

    def specialize(self, a0) -> "QuasiExponent":
        return QuasiExponent(Fraction(0), self.offset + self.a_part * rat(a0))

    def __str__(self):
        return self.str()

    def str(self, name: str = "a") -> str:
        return _poly_str((self.offset, self.a_part), name)


QE_ZERO = QuasiExponent(Fraction(0), Fraction(0))
QE_A = QuasiExponent(Fraction(1), Fraction(0))


def qexp(offset, a_part=0) -> QuasiExponent:
    return QuasiExponent(rat(a_part), rat(offset))


# ---------------------------------------------------------------------------
# Named entry points: explicit normalize / arith / specialize functions.
# Constructors normalize eagerly, so normalize is the identity on values
# already built through this module; it exists for round-trip checking.
# ---------------------------------------------------------------------------


def normalize(v):
    """Rebuild a scalar value; idempotent by construction."""
    if isinstance(v, Fraction):
        return Fraction(v.numerator, v.denominator)
    if isinstance(v, ParamScalar):
        return ParamScalar(v.num, v.den)
    if isinstance(v, RatFunc):
        return RatFunc(v.num, v.den)
    raise TypeError(f"cannot normalize {v!r}")


_ARITH = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": lambda x, y: x / y,
}


def arith(op: str, lhs, rhs):
    """Field arithmetic by name: add, sub, mul, div (exact, canonical)."""
    try:
        f = _ARITH[op]
    except KeyError:
        raise ValueError(f"unknown arith op {op!r}") from None
    return f(lhs, rhs)


def specialize(v, a0):
    """Evaluate the formal parameter at a0 (exact; singular poles raise)."""
    if isinstance(v, (ParamScalar, RatFunc, QuasiExponent)):
        return v.specialize(a0)
    raise TypeError(f"cannot specialize {v!r}")
