"""Linear differential operators and their exact actions, in two forms.

A DiffOp is a finite sum sum_j c_j(x) d^j with RatFunc coefficients, kept
in normal order: coefficient functions on the left, derivative powers on
the right.  Composition uses the rewrite d∘c(x) = c(x)d + c'(x) (Leibniz).
This is the calculus of the quadratic-extension and Lamé paths, whose
coefficients are general rational functions of x; act_poly and act_rat
apply it to polynomials and rational functions.

A QuasiDiffOp is a ladder operator in graded Euler form

    sum_g x^g p_g(D),    D = x d,

with the grade g a QuasiExponent (in Z + Z*a) and p_g a polynomial in D
over the parameter field.  A quasi-monomial goes x^e -> p_g(e) x^(e+g),
so every ladder operation is a polynomial operation:

    composition   x^g p(D) ∘ x^h q(D) = x^(g+h) p(D+h) q(D)
    action        x^g p(D) x^e = p(e) x^(e+g)
    conjugation   x^e ∘ x^g p(D) ∘ x^-e = x^g p(D-e)

An operator with Laurent coefficients (denominators pure powers of x) has
a graded form: x^i d^j is x^(i-j) D(D-1)...(D-j+1).  Any other DiffOp
raises NonLaurentCoefficient rather than being coerced.  The graded form
is converted back to normal order, sum_E L_E ∘ x^E with L_E a DiffOp and
E the non-integer part of the grades, only to print an operator or hand
out a DiffOp; that form is unique, so a print does not depend on how the
operator was built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, floor
from typing import Iterable, Mapping

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
    poly_add,
    poly_deriv,
    poly_eval,
    poly_mul,
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

    def order(self):
        return self.terms[-1][0] if self.terms else None

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, QuasiDiffOp):
            return other == self
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def is_laurent(self) -> bool:
        return all(c.is_laurent() for _, c in self.terms)

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
    """Normal-ordered product A∘B (apply B first), by Leibniz; the graded
    product when either factor is a QuasiDiffOp."""
    if isinstance(A, QuasiDiffOp) or isinstance(B, QuasiDiffOp):
        return QuasiDiffOp.coerce(A) * B
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
    """A∘B - B∘A for any operators with * and - (DiffOp, QuasiDiffOp and
    quadext.MatOp alike)."""
    return A * B - B * A


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
            out = out + c * RatFunc(der)
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


@cache
def _falling(j: int) -> tuple[ParamScalar, ...]:
    """Coefficients of D(D-1)...(D-j+1) = x^j d^j in powers of D (signed
    Stirling numbers of the first kind)."""
    out = (1,)
    for k in range(j):
        out = tuple((out[i - 1] if i else 0) - (k * out[i] if i <= k else 0)
                    for i in range(k + 2))
    return tuple(ParamScalar.const(c) for c in out)


@cache
def _stirling2(i: int) -> tuple[ParamScalar, ...]:
    """S(i, j) for j = 0..i: D^i = sum_j S(i, j) x^j d^j (Stirling numbers
    of the second kind)."""
    out = (1,)
    for k in range(i):
        out = tuple((out[j - 1] if j else 0) + (j * out[j] if j <= k else 0)
                    for j in range(k + 2))
    return tuple(ParamScalar.const(c) for c in out)


def _taylor_shift(p: tuple, h: ParamScalar) -> tuple:
    """p(D + h), one synthetic-division sweep per degree."""
    if not h or len(p) < 2:
        return p
    c = list(p)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] = c[j] + h * c[j + 1]
    return tuple(c)  # the leading coefficient is unchanged


def _roots_poly(roots) -> tuple[ParamScalar, ...]:
    """prod (D - r) over roots, as coefficients in D."""
    out = [PS_ONE]
    for r in roots:
        r = ParamScalar.coerce(r)
        out = ([-(r * out[0])] + [out[i - 1] - r * out[i] for i in range(1, len(out))]
               + [out[-1]])
    return tuple(out)


class QuasiDiffOp:
    """sum_g x^g p_g(D) in graded Euler form; canonical and immutable.

    `parts` is a tuple of (g, p) sorted by grade, with g a QuasiExponent
    and p a trimmed, nonzero tuple of ParamScalar coefficients in D (low
    degree first).  Pieces of different grades send x^e to different
    exponents, so the form is unique and equality is structural.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        items = parts.items() if isinstance(parts, Mapping) else parts
        acc: dict[QuasiExponent, tuple] = {}
        for g, p in items:
            acc[g] = poly_add(acc[g], p) if g in acc else poly_trim(p)
        object.__setattr__(
            self, "parts",
            tuple(sorted(((g, p) for g, p in acc.items() if p),
                         key=lambda t: t[0])),
        )

    def __setattr__(self, *a):
        raise AttributeError("QuasiDiffOp is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def coerce(cls, v) -> "QuasiDiffOp":
        """A QuasiDiffOp as it is, a Laurent DiffOp in graded form, or a
        scalar as a multiple of the identity."""
        if isinstance(v, QuasiDiffOp):
            return v
        if isinstance(v, DiffOp):
            cells = []
            for j, c in v.terms:
                if not c.is_laurent():
                    raise NonLaurentCoefficient(f"non-Laurent coefficient: {c}")
                t, num = c.laurent_parts()
                cells.extend((i - t, j, ci) for i, ci in enumerate(num) if ci)
            return cls.from_cells(cells)
        return cls({QE_ZERO: (ParamScalar.coerce(v),)})

    @classmethod
    def from_cells(cls, cells: Iterable) -> "QuasiDiffOp":
        """sum c x^i d^j over (i, j, c), i any integer: x^i d^j is the
        piece of grade i - j with p = D(D-1)...(D-j+1)."""
        acc: dict[QuasiExponent, tuple] = {}
        for i, j, c in cells:
            g = QuasiExponent(Fraction(0), Fraction(i - j))
            r = tuple(c * f for f in _falling(j))
            acc[g] = poly_add(acc[g], r) if g in acc else r
        return cls(acc)

    @classmethod
    def euler_poly(cls, roots, grade: QuasiExponent = QE_ZERO) -> "QuasiDiffOp":
        """x^grade prod (D - r) over roots."""
        return cls({grade: _roots_poly(roots)})

    @classmethod
    def power_shift(cls, E: QuasiExponent) -> "QuasiDiffOp":
        """Multiplication by x^E."""
        return cls({E: (PS_ONE,)})

    @classmethod
    def zero(cls) -> "QuasiDiffOp":
        return cls()

    # -- structure -----------------------------------------------------------

    def __bool__(self):
        return bool(self.parts)

    def __eq__(self, other):
        if isinstance(other, (DiffOp, int, Fraction, ParamScalar)):
            try:
                other = QuasiDiffOp.coerce(other)
            except NonLaurentCoefficient:
                return False  # every graded operator is Laurent
        if not isinstance(other, QuasiDiffOp):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def is_plain(self) -> bool:
        """True iff every grade is an integer: no quasi-power remains."""
        return all(g.a_part == 0 and g.offset.denominator == 1
                   for g, _ in self.parts)

    def plain(self) -> DiffOp:
        if not self.is_plain():
            raise ExactError(f"{self} carries quasi-power shifts")
        parts = self.normal_parts()
        return parts[0][1] if parts else DiffOp.zero()

    def as_monomial_mult(self):
        """Return (E, c) if this is multiplication by c*x^E, else None."""
        if len(self.parts) != 1 or len(self.parts[0][1]) != 1:
            return None
        E, p = self.parts[0]
        return E, p[0]

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other):
        o = other if isinstance(other, QuasiDiffOp) else QuasiDiffOp.coerce(other)
        return QuasiDiffOp(self.parts + o.parts)

    __radd__ = __add__

    def __neg__(self):
        return QuasiDiffOp([(g, tuple(-c for c in p)) for g, p in self.parts])

    def __sub__(self, other):
        o = other if isinstance(other, QuasiDiffOp) else QuasiDiffOp.coerce(other)
        return self + (-o)

    def __rsub__(self, other):
        return QuasiDiffOp.coerce(other) - self

    def scale(self, c) -> "QuasiDiffOp":
        c = ParamScalar.coerce(c)
        return QuasiDiffOp([(g, tuple(v * c for v in p)) for g, p in self.parts])

    def __mul__(self, other):
        """Composition: x^g p(D) ∘ x^h q(D) = x^(g+h) p(D+h) q(D)."""
        if isinstance(other, (int, Fraction, ParamScalar)):
            return self.scale(other)
        o = other if isinstance(other, QuasiDiffOp) else QuasiDiffOp.coerce(other)
        acc: dict[QuasiExponent, tuple] = {}
        for h, q in o.parts:
            hs = h.to_param()
            for g, p in self.parts:
                r = poly_mul(_taylor_shift(p, hs), q)
                k = g + h
                acc[k] = poly_add(acc[k], r) if k in acc else r
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
        return pow_by_squaring(self, k, QuasiDiffOp.coerce(1))

    def conjugate(self, e) -> "QuasiDiffOp":
        """x^e ∘ self ∘ x^-e for e in the parameter field: p(D) -> p(D-e)."""
        h = -ParamScalar.coerce(e)
        return QuasiDiffOp([(g, _taylor_shift(p, h)) for g, p in self.parts])

    # -- action ---------------------------------------------------------------

    def images(self, exponents, where=None) -> list[dict[QuasiExponent, ParamScalar]]:
        """The image of x^e for each e in exponents, as {e + g: p_g(e)}
        in increasing order of e + g, zero values left out:
        x^g p(D) x^e = p(e) x^(e+g).  With `where`, only the exponents
        e + g for which where(e + g) holds are evaluated and kept.

        An exponent is e = t*a + k with k rational.  p(e) is evaluated as
        p(D + t*a) at k, with one Taylor shift per piece and per t, so the
        parameter is substituted once and not once per exponent.
        """
        shifted: dict = {}
        out = []
        for e in exponents:
            k = ParamScalar.const(e.offset)
            img = {}
            for i, (g, p) in enumerate(self.parts):
                f = e + g
                if where is not None and not where(f):
                    continue
                q = shifted.get((i, e.a_part))
                if q is None:
                    q = shifted[(i, e.a_part)] = _taylor_shift(
                        p, ParamScalar((0, e.a_part)))
                val = poly_eval(q, k, PS_ZERO)
                if val:
                    img[f] = val
            out.append(img)
        return out

    def act(self, v: QuasiPoly) -> QuasiPoly:
        """Action on a quasi-polynomial, term by term through images."""
        out: dict[QuasiExponent, ParamScalar] = {}
        for (_, c), img in zip(v.terms, self.images([e for e, _ in v.terms])):
            for f, val in img.items():
                out[f] = out[f] + c * val if f in out else c * val
        return QuasiPoly(out)

    def specialize(self, a0) -> "QuasiDiffOp":
        """Evaluate the parameter everywhere (grades become rational)."""
        a0 = rat(a0)
        return QuasiDiffOp([
            (g.specialize(a0), tuple(ParamScalar.const(c.specialize(a0)) for c in p))
            for g, p in self.parts
        ])

    # -- normal form ------------------------------------------------------------

    def _normal_terms(self):
        """The normal form as (E, j, k, c), one per term c x^k d^j ∘ x^E.

        x^g p(D) = x^w p(D-E) ∘ x^E with E the non-integer part of g and w
        its integer part, and D^i = sum_j S(i, j) x^j d^j.  Pieces with one
        E differ in w, so no two of them give the same (E, j, k).
        """
        for g, p in self.parts:
            w = floor(g.offset)
            E = QuasiExponent(g.a_part, g.offset - w)
            p = _taylor_shift(p, -E.to_param())
            for j in range(len(p)):
                s = PS_ZERO
                for i in range(j, len(p)):
                    if p[i]:
                        s = s + p[i] * _stirling2(i)[j]
                if s:
                    yield E, j, w + j, s

    def normal_parts(self) -> list[tuple[QuasiExponent, DiffOp]]:
        """[(E, L_E)] sorted by E, with self = sum_E L_E ∘ x^E and E the
        non-integer parts of the grades."""
        slots: dict = {}
        for E, j, k, c in self._normal_terms():
            slots.setdefault(E, {}).setdefault(j, {})[k] = c
        out = []
        for E in sorted(slots):
            terms = {}
            for j, cs in slots[E].items():
                lo = min(min(cs), 0)
                num = [PS_ZERO] * (max(cs) - lo + 1)
                for k, c in cs.items():
                    num[k - lo] = c
                terms[j] = RatFunc(num, (PS_ZERO,) * -lo + (PS_ONE,))
            out.append((E, DiffOp(terms)))
        return out

    def size(self) -> tuple[int, int]:
        """Order and x-degree of the normal form: the largest j of a term
        x^k d^j, and the largest numerator or denominator degree in x among
        the coefficients."""
        span: dict = {}
        for E, j, k, _ in self._normal_terms():
            lo, hi = span.get((E, j), (k, k))
            span[(E, j)] = (min(lo, k), max(hi, k))
        order = max((j for _, j in span), default=0)
        degree = max((max(hi, 0) - min(lo, 0) for lo, hi in span.values()),
                     default=0)
        return order, degree

    # -- printing ---------------------------------------------------------------

    def __str__(self):
        return self.str()

    def str(self, name: str = "a") -> str:
        parts = []
        for E, L in self.normal_parts():
            if E == QE_ZERO:
                parts.append(L.str(name))
            else:
                parts.append(f"{_wrap(L.str(name))}*x^({E.str(name)})")
        return _join_sum(parts) if parts else "0"

    def __repr__(self):
        return f"QuasiDiffOp({self.str()})"


def act(A, v: QuasiPoly) -> QuasiPoly:
    """Action of a QuasiDiffOp, or of a Laurent DiffOp, on a quasi-polynomial."""
    return QuasiDiffOp.coerce(A).act(v)
