"""Spaces P_n + f P_m with f^2 = r(x) rational, realized through 2x2
matrices of differential operators acting on coefficient pairs (p, q).

All handling of the irrational function f funnels through three lifted
atoms acting on the pair (p, q) representing p + f q:

    lift(x) = [[x, 0], [0, x]]
    lift(d) = [[d, 0], [0, d + r'/(2r)]]      (product rule on f q)
    lift(f) = [[0, r], [1, 0]]                (f * (p + f q) = r q + f p)

so the rewrite rules f^2 = r and f' = r'/(2f) become testable matrix
identities instead of a symbolic function-field tower.

The module also hosts the first-order generator search for the preset
spaces, commutator-closure analysis with exact Killing-form
classification, the half-odd-integer second-order pullback onto the
quartic-extension space, and exact algebraic spectra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional, Sequence, Union

from . import linalg, sturm
from .operators import DiffOp, QuasiDiffOp, act_rat, compose
from .scalars import (
    ExactError,
    PS_ONE,
    PS_ZERO,
    ParamScalar,
    RF_ONE,
    RatFunc,
    common_denominator,
    param_or_const,
    poly_divmod,
    poly_mul,
    poly_trim,
    pow_by_squaring,
    rat,
)
from .spaces import FiniteSpace

ParamValue = Union[None, int, Fraction]  # None = the formal symbol

# ---------------------------------------------------------------------------
# Exact square detection (degenerate extensions are rejected)
# ---------------------------------------------------------------------------


def fraction_sqrt(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    a, b = q.numerator, q.denominator
    ra, rb = isqrt(a), isqrt(b)
    if ra * ra == a and rb * rb == b:
        return Fraction(ra, rb)
    return None


def poly_sqrt(p, coeff_sqrt, zero):
    """Exact square root of a dense polynomial, or None.

    Determines the candidate from the top coefficients, then verifies by
    squaring, so it is sound for any exact coefficient field.
    """
    p = poly_trim(p)
    if not p:
        return ()
    if (len(p) - 1) % 2:
        return None
    d = (len(p) - 1) // 2
    lead = coeff_sqrt(p[-1])
    if lead is None or not lead:
        return None
    s = [zero] * (d + 1)
    s[d] = lead
    for t in range(1, d + 1):
        acc = zero
        for i in range(d - t + 1, d + 1):
            j = 2 * d - t - i
            if 0 <= j <= d:
                acc = acc + s[i] * s[j]
        s[d - t] = (p[2 * d - t] - acc) / (2 * lead)
    s = poly_trim(s)
    return s if poly_mul(s, s) == p else None


def param_sqrt(v: ParamScalar) -> Optional[ParamScalar]:
    num = poly_sqrt(v.num, fraction_sqrt, Fraction(0))
    if num is None:
        return None
    den = poly_sqrt(v.den, fraction_sqrt, Fraction(0))
    if den is None:
        return None
    return ParamScalar(num, den)


def ratfunc_sqrt(r: RatFunc) -> Optional[RatFunc]:
    num = poly_sqrt(r.num, param_sqrt, PS_ZERO)
    if num is None:
        return None
    den = poly_sqrt(r.den, param_sqrt, PS_ZERO)
    if den is None:
        return None
    return RatFunc(num, den)


# ---------------------------------------------------------------------------
# Spaces and matrix operators
# ---------------------------------------------------------------------------


class QuadSpace(FiniteSpace):
    """P_n + f P_m with f^2 = r; rejects r = 0 and perfect squares (a
    rational f would collapse the extension)."""

    __slots__ = ("r", "n", "m", "preset", "param_name")

    def __init__(self, r: RatFunc, n: int, m: int, preset: str = "custom",
                 param_name: str = "lam"):
        r = RatFunc.coerce(r)
        if not r:
            raise ValueError("r must be nonzero")
        if ratfunc_sqrt(r) is not None:
            raise ValueError(
                f"degenerate extension: r = {r.str(param_name)} is a perfect square"
            )
        if n < 0 or m < 0:
            raise ValueError("degrees must be nonnegative")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "preset", preset)
        object.__setattr__(self, "param_name", param_name)

    def __setattr__(self, *_):
        raise AttributeError("QuadSpace is immutable")

    def basis_pairs(self) -> list[tuple[RatFunc, RatFunc]]:
        out = [(RatFunc.x_power(i), RatFunc()) for i in range(self.n + 1)]
        out += [(RatFunc(), RatFunc.x_power(j)) for j in range(self.m + 1)]
        return out

    def basis_labels(self) -> list[str]:
        xs = lambda i: "1" if i == 0 else ("x" if i == 1 else f"x^{i}")
        out = [xs(i) for i in range(self.n + 1)]
        out += [f"f*{xs(j)}" if j else "f" for j in range(self.m + 1)]
        return out

    def _terms(self) -> list[dict]:
        return ([{(0, i): PS_ONE} for i in range(self.n + 1)]
                + [{(1, j): PS_ONE} for j in range(self.m + 1)])

    def _images(self, M: MatOp):
        return (_pair_terms(act(M, v)) for v in self.basis_pairs())

    def __str__(self):
        return (f"Quad(r = {self.r.str(self.param_name)}, n = {self.n}, "
                f"m = {self.m})")

    __repr__ = __str__


def sqrt_quadratic_preset(n: int, lam: ParamValue = None) -> QuadSpace:
    """f^2 = (1-x)(1-lam*x), companion degree n-1."""
    if n < 1:
        raise ValueError("preset needs n >= 1")
    lam_s = param_or_const(lam)
    r = (RF_ONE - RatFunc.x()) * (RF_ONE - RatFunc.x() * lam_s)
    return QuadSpace(r, n, n - 1, preset="sqrt_p2", param_name="lam")


def ratio_sqrt_preset(n: int, lam: ParamValue = None) -> QuadSpace:
    """f^2 = (1-x)/(1-lam*x), companion degree n."""
    lam_s = param_or_const(lam)
    r = (RF_ONE - RatFunc.x()) / (RF_ONE - RatFunc.x() * lam_s)
    return QuadSpace(r, n, n, preset="ratio_sqrt", param_name="lam")


def lame_preset(n: int, k2: ParamValue = None) -> QuadSpace:
    """f^2 = (1-x^2)(1-k2*x^2), companion degree n-1; 0 < k2 < 1.

    Both endpoint moduli are excluded: k2 = 1 makes r the perfect square
    (1-x^2)^2, and k2 = 0 degenerates the double periodicity the space is
    built for.
    """
    if n < 1:
        raise ValueError("preset needs n >= 1")
    if k2 is not None:
        k2 = rat(k2)
        if not 0 < k2 < 1:
            raise ValueError("modulus k2 must satisfy 0 < k2 < 1")
    k2_s = param_or_const(k2)
    x2 = RatFunc.x() * RatFunc.x()
    r = (RF_ONE - x2) * (RF_ONE - x2 * k2_s)
    return QuadSpace(r, n, n - 1, preset="lame", param_name="k2")


class MatOp:
    """2x2 matrix of differential operators acting on the pair (p, q)."""

    __slots__ = ("a11", "a12", "a21", "a22")

    def __init__(self, a11, a12, a21, a22):
        for name, v in zip(("a11", "a12", "a21", "a22"), (a11, a12, a21, a22)):
            object.__setattr__(self, name, v)

    def __setattr__(self, *_):
        raise AttributeError("MatOp is immutable")

    @classmethod
    def zero(cls) -> "MatOp":
        z = DiffOp.zero()
        return cls(z, z, z, z)

    @classmethod
    def identity(cls) -> "MatOp":
        one, z = DiffOp.identity(), DiffOp.zero()
        return cls(one, z, z, one)

    @classmethod
    def scalar(cls, c) -> "MatOp":
        m = DiffOp.mult(c)
        z = DiffOp.zero()
        return cls(m, z, z, m)

    @classmethod
    def diag(cls, top: DiffOp, bottom: DiffOp) -> "MatOp":
        z = DiffOp.zero()
        return cls(top, z, z, bottom)

    def rows(self):
        return ((self.a11, self.a12), (self.a21, self.a22))

    def graded(self) -> "MatOp":
        """The same operator with every entry in graded Euler form; raises
        NonLaurentCoefficient unless every entry is Laurent."""
        return MatOp(*map(QuasiDiffOp.coerce, (self.a11, self.a12, self.a21, self.a22)))

    def __eq__(self, other):
        if not isinstance(other, MatOp):
            return NotImplemented
        return (self.a11, self.a12, self.a21, self.a22) == (
            other.a11, other.a12, other.a21, other.a22)

    def __hash__(self):
        return hash((self.a11, self.a12, self.a21, self.a22))

    def __add__(self, other):
        return MatOp(self.a11 + other.a11, self.a12 + other.a12,
                     self.a21 + other.a21, self.a22 + other.a22)

    def __neg__(self):
        return MatOp(-self.a11, -self.a12, -self.a21, -self.a22)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "MatOp":
        return MatOp(self.a11.scale(c), self.a12.scale(c),
                     self.a21.scale(c), self.a22.scale(c))

    def __mul__(self, other):
        """Matrix product with operator composition (self after other)."""
        if isinstance(other, (int, Fraction, ParamScalar)):
            return self.scale(other)
        if not isinstance(other, MatOp):
            return NotImplemented
        return MatOp(
            compose(self.a11, other.a11) + compose(self.a12, other.a21),
            compose(self.a11, other.a12) + compose(self.a12, other.a22),
            compose(self.a21, other.a11) + compose(self.a22, other.a21),
            compose(self.a21, other.a12) + compose(self.a22, other.a22),
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, ParamScalar)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        return pow_by_squaring(self, k, MatOp.identity())

    def __bool__(self):
        return bool(self.a11) or bool(self.a12) or bool(self.a21) or bool(self.a22)

    def str(self, name: str = "lam") -> str:
        e = [self.a11.str(name), self.a12.str(name),
             self.a21.str(name), self.a22.str(name)]
        return f"[[{e[0]}, {e[1]}], [{e[2]}, {e[3]}]]"

    def __str__(self):
        return self.str()

    def __repr__(self):
        return f"MatOp({self.str()})"


def lift_x() -> MatOp:
    m = DiffOp.mult(RatFunc.x())
    return MatOp.diag(m, m)


def lift_d(s: QuadSpace) -> MatOp:
    corr = s.r.deriv() / (s.r * 2)
    return MatOp.diag(DiffOp.d(), DiffOp.d() + DiffOp.mult(corr))


def lift_f(s: QuadSpace) -> MatOp:
    z = DiffOp.zero()
    return MatOp(z, DiffOp.mult(s.r), DiffOp.identity(), z)


def lift_word(s: QuadSpace, word: Sequence[str]) -> MatOp:
    """Homomorphic lift of a composition word over the atoms x, d, f.

    The word is in application order: lift_word(s, "fd") applies d first,
    then multiplies by f.
    """
    atoms = {"x": lift_x(), "d": lift_d(s), "f": lift_f(s)}
    out = MatOp.identity()
    for ch in word:
        out = out * atoms[ch]
    return out


def apply_word_direct(s: QuadSpace, word: Sequence[str],
                      v: tuple[RatFunc, RatFunc]) -> tuple[RatFunc, RatFunc]:
    """Independent action oracle: apply the word atoms right-to-left to the
    pair (p, q) using the calculus rules directly."""
    p, q = v
    corr = s.r.deriv() / (s.r * 2)
    for ch in reversed(word):
        if ch == "x":
            p, q = p * RatFunc.x(), q * RatFunc.x()
        elif ch == "f":
            p, q = s.r * q, p
        elif ch == "d":
            p, q = p.deriv(), q.deriv() + corr * q
        else:
            raise ValueError(f"unknown atom {ch!r}")
    return p, q


def act(M: MatOp, v: tuple[RatFunc, RatFunc]) -> tuple[RatFunc, RatFunc]:
    """Componentwise action on (p, q); rational inputs are fine."""
    p, q = RatFunc.coerce(v[0]), RatFunc.coerce(v[1])
    return (
        act_rat(M.a11, p) + act_rat(M.a12, q),
        act_rat(M.a21, p) + act_rat(M.a22, q),
    )


@dataclass(frozen=True)
class QuadWitness:
    basis_label: str
    component: str  # "poly" or "f"
    value: str
    reason: str

    def to_json(self) -> dict:
        return {
            "basis": self.basis_label,
            "component": self.component,
            "value": self.value,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class QuadInvarianceReport:
    verdict: bool
    witnesses: tuple[QuadWitness, ...]

    def to_json(self) -> dict:
        return {"verdict": self.verdict,
                "witnesses": [w.to_json() for w in self.witnesses]}


def check_invariance_quad(M: MatOp, s: QuadSpace) -> QuadInvarianceReport:
    """Each basis image must be a polynomial pair within degrees (n, m)."""
    witnesses = []
    name = s.param_name
    for label, v in zip(s.basis_labels(), s.basis_pairs()):
        u, w = act(M, v)
        for comp, val, bound in (("poly", u, s.n), ("f", w, s.m)):
            if not val.is_polynomial():
                witnesses.append(QuadWitness(
                    label, comp, val.str(name), "denominator does not divide"))
            elif val and val.degree() > bound:
                witnesses.append(QuadWitness(
                    label, comp, val.str(name),
                    f"degree {val.degree()} exceeds {bound}"))
    return QuadInvarianceReport(not witnesses, tuple(witnesses))


# ---------------------------------------------------------------------------
# First-order generator search and printed-form cross-reference
# ---------------------------------------------------------------------------


class FamilyNotFound(ExactError):
    """The preset search found fewer than three independent generators."""


@dataclass(frozen=True)
class ReferenceCheck:
    label: str
    formula: str
    invariant: bool
    in_family_span: bool
    note: str

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "formula": self.formula,
            "invariant": self.invariant,
            "in_family_span": self.in_family_span,
            "note": self.note,
        }


@dataclass(frozen=True)
class SGenResult:
    family: tuple[MatOp, ...]
    reference_checks: tuple[ReferenceCheck, ...]
    discrepancies: tuple[str, ...]

    def to_json(self, name: str = "lam") -> dict:
        return {
            "family": [m.str(name) for m in self.family],
            "reference_checks": [c.to_json() for c in self.reference_checks],
            "discrepancies": list(self.discrepancies),
        }


def _membership_rows(vals: Sequence[RatFunc], max_deg: int):
    """Linear conditions on c for sum c_i vals_i to be a polynomial of
    degree <= max_deg: remainder coefficients over the common denominator
    vanish, and quotient coefficients above max_deg vanish."""
    lcd, nums = common_denominator(vals)
    quots, rems = zip(*(poly_divmod(num, lcd) for num in nums))
    rows = []
    for parts, low in ((rems, 0), (quots, max_deg + 1)):
        width = max(len(p) for p in parts)
        for k in range(low, width):
            row = [p[k] if k < len(p) else PS_ZERO for p in parts]
            if any(row):
                rows.append(row)
    return rows


def _first_order_cells(s: QuadSpace, degrees: tuple[int, int, int, int]):
    """Ansatz alpha + beta d + f(gamma + delta d) with polynomial windows."""
    da, db, dg, dd = degrees
    LD, LF = lift_d(s), lift_f(s)
    cells: list[tuple[str, int, MatOp]] = []
    for i in range(da + 1):
        cells.append(("alpha", i, MatOp.scalar(RatFunc.x_power(i))))
    for i in range(db + 1):
        cells.append(("beta", i, MatOp.scalar(RatFunc.x_power(i)) * LD))
    for i in range(dg + 1):
        cells.append(("gamma", i, LF * MatOp.scalar(RatFunc.x_power(i))))
    for i in range(dd + 1):
        cells.append(("delta", i, LF * MatOp.scalar(RatFunc.x_power(i)) * LD))
    return cells


def s_generators(
    s: QuadSpace, degrees: tuple[int, int, int, int] = (2, 2, 2, 2)
) -> SGenResult:
    """Exact basis of the nonconstant first-order operators preserving s,
    from the ansatz alpha(x) + beta(x) d + f (gamma(x) + delta(x) d).

    Printed catalogue forms are cross-referenced: each is reported as
    verifying or not, and failures come with the invariant corrections the
    search actually found.  Fewer than three independent nonconstant
    solutions raises FamilyNotFound (wrong preset or windows).
    """
    cells = _first_order_cells(s, degrees)
    rows = []
    for v in s.basis_pairs():
        outs = [act(M, v) for _, _, M in cells]
        rows.extend(_membership_rows([u for u, _ in outs], s.n))
        rows.extend(_membership_rows([w for _, w in outs], s.m))
    sols = linalg.nullspace(rows, PS_ZERO, PS_ONE)

    # project out the identity direction (alpha, 0) and re-reduce
    id_idx = next(i for i, (kind, deg, _) in enumerate(cells)
                  if kind == "alpha" and deg == 0)
    projected = []
    for vec in sols:
        w = list(vec)
        w[id_idx] = PS_ZERO
        projected.append(w)
    reduced = []
    for w in projected:
        trial = reduced + [w]
        cols = list(zip(*trial))
        if len(linalg.nullspace(cols, PS_ZERO, PS_ONE)) == 0:
            reduced.append(w)
    family = []
    for vec in reduced:
        M = MatOp.zero()
        for c, (_, _, cell) in zip(vec, cells):
            if c:
                M = M + cell.scale(c)
        rep = check_invariance_quad(M, s)
        if not rep.verdict:
            raise AssertionError("search produced a non-invariant operator")
        family.append(M)
    if len(family) < 3:
        raise FamilyNotFound(
            f"no three-dimensional family found (got {len(family)})"
        )

    checks, discrepancies = _cross_reference(s, family)
    return SGenResult(tuple(family), tuple(checks), tuple(discrepancies))


def _cross_reference(s: QuadSpace, family: Sequence[MatOp]):
    """Compare the catalogue's printed first-order forms with the family."""
    if s.preset not in ("sqrt_p2", "ratio_sqrt"):
        return [], []
    lam_s = _lam_of(s)
    x = RatFunc.x()
    p2 = (RF_ONE - x) * (RF_ONE - x * lam_s)
    # sqrt(p2) = f * g with g depending on the preset
    g = RF_ONE if s.preset == "sqrt_p2" else (RF_ONE - x * lam_s)
    n = s.n
    LD, LF = lift_d(s), lift_f(s)

    def mk(alpha: RatFunc, beta: RatFunc, gamma: RatFunc, delta: RatFunc) -> MatOp:
        M = MatOp.scalar(alpha)
        M = M + MatOp.scalar(beta) * LD
        M = M + LF * MatOp.scalar(gamma)
        M = M + LF * MatOp.scalar(delta) * LD
        return M

    printed = [
        ("S1", "n*x + p2*d", mk(x * n, p2, RatFunc(), RatFunc())),
        ("S2", "sqrt(p2)*(n*x - x*d)", mk(RatFunc(), RatFunc(), g * x * n, -(g * x))),
        ("S3", "sqrt(p2)*d", mk(RatFunc(), RatFunc(), RatFunc(), g)),
    ]
    corrected = []
    if s.preset == "sqrt_p2":
        corrected = [
            ("S1'", "p2*d - n*lam*x", mk(-(x * n * lam_s), p2, RatFunc(), RatFunc())),
            ("S2'", "sqrt(p2)*(x*d - n)", mk(RatFunc(), RatFunc(),
                                            -(g * n), g * x)),
        ]
    checks, discrepancies = [], []
    for label, formula, M in printed + corrected:
        rep = check_invariance_quad(M, s)
        in_span = rep.verdict and s.span_coords(M, family) is not None
        note = "verifies" if rep.verdict else (
            rep.witnesses[0].reason + " on " + rep.witnesses[0].basis_label)
        checks.append(ReferenceCheck(label, formula, rep.verdict, in_span, note))
        if label in ("S1", "S2") and not rep.verdict:
            discrepancies.append(
                f"printed {label} = {formula} fails invariance "
                f"(witness: {rep.witnesses[0].to_json()})"
            )
    return checks, discrepancies


def _lam_of(s: QuadSpace) -> ParamScalar:
    """Recover the preset parameter from r (symbol or rational constant)."""
    if s.preset == "sqrt_p2":
        # r = lam x^2 - (1+lam) x + 1 (degree drops to 1 at lam = 0)
        return s.r.num[2] if len(s.r.num) > 2 else PS_ZERO
    if s.preset == "ratio_sqrt":
        # den = x - 1/lam (monic) after normalization; lam = -1/den[0]
        den = s.r.den
        if len(den) == 2:
            return -1 / den[0]
        return PS_ZERO
    raise ExactError("no catalogue parameter for this space")


# ---------------------------------------------------------------------------
# Closure analysis with exact Killing classification
# ---------------------------------------------------------------------------


class ClosureError(ExactError):
    """A commutator leaves span(generators + identity)."""


@dataclass(frozen=True)
class QuadClosureReport:
    names: tuple[str, ...]
    table: dict  # (i, j) -> coords over generators + identity
    recentered: bool
    shifts: Optional[tuple[ParamScalar, ...]]
    structure_constants: dict  # (i, j) -> coords over generators only
    jacobi_ok: bool
    killing: tuple[tuple[ParamScalar, ...], ...]
    signature: Optional[tuple[int, int, int]]  # (pos, neg, zero) eigenvalue counts
    classification: Optional[str]

    def to_json(self, name: str = "lam") -> dict:
        return {
            "generators": list(self.names),
            "closes": True,
            "table": {
                f"[{i},{j}]": [c.str(name) for c in coords]
                for (i, j), coords in sorted(self.table.items())
            },
            "recentered": self.recentered,
            "shifts": [c.str(name) for c in self.shifts] if self.shifts else None,
            "structure_constants": {
                f"[{i},{j}]": [c.str(name) for c in coords]
                for (i, j), coords in sorted(self.structure_constants.items())
            },
            "jacobi_ok": self.jacobi_ok,
            "killing": [[c.str(name) for c in row] for row in self.killing],
            "signature": list(self.signature) if self.signature else None,
            "classification": self.classification,
        }


def closure_check(gens: Sequence[MatOp], s: QuadSpace,
                  names: Optional[Sequence[str]] = None) -> QuadClosureReport:
    """Commutator table of the generators, exact linear expression in
    span(gens + identity), Jacobi verification, and Killing-form
    classification (signature only when the space parameter is rational).
    """
    names = tuple(names) if names else tuple(f"S{i+1}" for i in range(len(gens)))
    span_table = s.commutator_coords(gens)
    if span_table is None:
        raise ValueError("generator does not preserve the space")
    k = len(gens)
    table: dict = {}
    for (i, j), (_, coords) in span_table.items():
        if coords is None:
            raise ClosureError(
                f"does not close linearly: [{names[i]},{names[j]}]")
        table[(i, j)] = tuple(coords)

    # absorb central parts: find shifts t with [T_i,T_j] central-free for
    # T_i = S_i + t_i (possible whenever the linear system below solves)
    rows, rhs = [], []
    for (i, j), coords in table.items():
        if i < j:
            rows.append([coords[t] for t in range(k)])
            rhs.append(coords[k])
    shifts = linalg.solve_exact(rows, rhs, PS_ZERO, PS_ONE)
    recentered = shifts is not None
    structure: dict = {}
    for (i, j), coords in table.items():
        structure[(i, j)] = tuple(coords[:k])

    # Jacobi on the recentered constants
    def c(i, j, t):
        if i == j:
            return PS_ZERO
        return structure[(i, j)][t]

    jacobi_ok = True
    for i in range(k):
        for j in range(k):
            for t in range(k):
                for l in range(k):
                    acc = PS_ZERO
                    for m_ in range(k):
                        acc = acc + c(j, t, m_) * c(i, m_, l)
                        acc = acc + c(t, i, m_) * c(j, m_, l)
                        acc = acc + c(i, j, m_) * c(t, m_, l)
                    if acc:
                        jacobi_ok = False

    # Killing form from the adjoint matrices
    ads = []
    for i in range(k):
        M = [[c(i, j, t) for j in range(k)] for t in range(k)]
        ads.append(M)
    killing = tuple(
        tuple(linalg.trace(linalg.mat_mul(ads[i], ads[j], PS_ZERO), PS_ZERO)
              for j in range(k))
        for i in range(k)
    )

    signature = classification = None
    K = _constant_matrix(killing)
    if K is not None:
        cp = linalg.char_poly(K, Fraction(0), Fraction(1))
        signature = _symmetric_signature(cp)
        npos, nneg, zero_roots = signature
        if zero_roots:
            classification = "degenerate Killing form (non-semisimple)"
        elif nneg == k:
            classification = "compact so(3) signature"
        else:
            classification = "split so(2,1) ~ sl(2,R) signature"
    return QuadClosureReport(
        names, table, recentered, tuple(shifts) if shifts else None,
        structure, jacobi_ok, killing, signature, classification,
    )


def _constant_matrix(A) -> Optional[list[list[Fraction]]]:
    """A over Fraction when every entry is a constant, else None.  Exact
    linear algebra on a Fraction matrix skips ParamScalar normalisation."""
    if all(v.is_constant() for row in A for v in row):
        return [[v.as_fraction() for v in row] for row in A]
    return None


def _symmetric_signature(cp) -> tuple[int, int, int]:
    """(positive, negative, zero) root counts with multiplicity for a
    characteristic polynomial known to have only real roots; Descartes'
    rule is exact in that case."""
    cs = list(cp)
    nzero = 0
    while cs and cs[0] == 0:
        cs.pop(0)
        nzero += 1

    def variations(seq):
        signs = [(c > 0) - (c < 0) for c in seq if c != 0]
        return sum(1 for u, v in zip(signs, signs[1:]) if u != v)

    npos = variations(cs)
    nneg = variations([c if i % 2 == 0 else -c for i, c in enumerate(cs)])
    return npos, nneg, nzero


# ---------------------------------------------------------------------------
# Half-odd-integer pullback and algebraic spectra
# ---------------------------------------------------------------------------


def lame_pullback(n: int, k2: ParamValue = None) -> tuple[MatOp, QuadSpace]:
    """Second-order operator obtained from -d^2/dz^2 + N(N+1) k2 sn^2(z)
    at N = (2n+1)/2 by the substitution x = sn(z) and the gauge
    sqrt(cn + dn); it acts on the quartic-extension space and is returned
    with that space.

    With F the function with F^2 = r = (1-x^2)(1-k2 x^2), the chain rule
    gives d/dz = F d/dx and the gauge derivative is -(1 - F)/(2x) in the
    z-variable, so the whole operator assembles inside the matrix calculus.

    dz = LF*LD = [[0, r d + r'/2], [d, 0]] and the gauge adds only -1/(2x)
    and r/(2x), so A = dz + gauge has Laurent entries for every n and k2
    (r is a polynomial).  A is put in graded form once and squared by the
    graded product; H then acts on the module by evaluation.

    The plain truncated space P_n + F P_(n-1) is NOT preserved: acting on
    F x^j produces a polynomial part of degree j + 2, so the second ladder
    always overshoots the first (see lame_module_basis for the module that
    is preserved, and check_invariance_quad for the exact witnesses).
    """
    s = lame_preset(n, k2)
    k2_s = param_or_const(k2)
    LF, LD = lift_f(s), lift_d(s)
    dz = LF * LD
    half_inv_x = RatFunc.const(Fraction(1, 2)) / RatFunc.x()
    gauge = MatOp.scalar(-half_inv_x) + LF * MatOp.scalar(half_inv_x)
    A = (dz + gauge).graded()
    N = Fraction(2 * n + 1, 2)
    potential = MatOp.scalar(RatFunc.x_power(2) * (k2_s * N * (N + 1)))
    H = -(A * A) + potential
    return H, s


def _pair_terms(pair) -> Optional[dict]:
    """{(component, power of x): coefficient} of a pair (p, q), zero
    coefficients left out, or None when a component is not Laurent."""
    out = {}
    for comp, val in enumerate(pair):
        if not val.is_laurent():
            return None
        t, num = val.laurent_parts()
        out.update(((comp, k - t), c) for k, c in enumerate(num) if c)
    return out


@dataclass(frozen=True)
class PairModule(FiniteSpace):
    """A finite space of pairs (p, q), meaning p + f q, with p and q
    allowed negative powers of x; the carrier of exact matrix/spectrum
    computations for operators that preserve it.  The basis must be in
    echelon form in the keys (component, power of x): the largest key of
    each pair occurs in no earlier pair."""

    basis: tuple[tuple[RatFunc, RatFunc], ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        seen: set = set()
        for v in self._terms():
            if not v or max(v) in seen:
                raise ValueError("PairModule basis must be nonzero Laurent "
                                 "pairs in echelon form")
            seen.update(v)

    def _terms(self) -> list[Optional[dict]]:
        return [_pair_terms(v) for v in self.basis]

    def _images(self, M: MatOp):
        return (_pair_terms(act(M, v)) for v in self.basis)


def lame_module_basis(n: int) -> PairModule:
    """The exact invariant module of the half-odd-integer pullback.

    At N = (2n+1)/2 the preserved space in the sqrt(cn+dn) gauge has
    dimension n+1 and mixes monomials of n's parity with the twisted
    vectors (1 - f) x^j:

        span{ x^j : j = n mod 2, j <= n }
        + span{ (1-f) x^j : j = n mod 2, j0 <= j <= n-2 },  j0 = -(n mod 2)

    The twist is what cancels the x^(j-2) boundary terms; the plain
    ladders close only through these combinations.  Exactness of the
    closure is checked by module_invariance.
    """
    if n < 1:
        raise ValueError("needs n >= 1")
    pairs: list[tuple[RatFunc, RatFunc]] = []
    labels: list[str] = []
    for j in range(n % 2, n + 1, 2):
        pairs.append((RatFunc.x_power(j), RatFunc()))
        labels.append("1" if j == 0 else ("x" if j == 1 else f"x^{j}"))
    j0 = -1 if n % 2 else 0
    for j in range(j0, n - 1, 2):
        pairs.append((RatFunc.x_power(j), -RatFunc.x_power(j)))
        labels.append(f"(1-f)*x^{j}" if j != 0 else "(1-f)")
    return PairModule(tuple(pairs), tuple(labels))


def module_invariance(M: MatOp, module: FiniteSpace):
    """Exact matrix of M on the module, or None when some image escapes."""
    return module.matrix(M)


def module_spectrum(M: MatOp, module: FiniteSpace) -> tuple[ParamScalar, ...]:
    """Monic characteristic polynomial of M on the basis of the module (a
    PairModule or a QuadSpace), low degree first, exact in the space
    parameter; raises if the module is not preserved."""
    A = module_invariance(M, module)
    if A is None:
        raise ValueError("operator does not preserve the module")
    return matrix_spectrum(A)


def matrix_spectrum(A) -> tuple[ParamScalar, ...]:
    """Monic characteristic polynomial of an exact matrix, low degree first;
    over Fraction when every entry is a constant."""
    K = _constant_matrix(A)
    if K is None:
        return linalg.char_poly(A, PS_ZERO, PS_ONE)
    return tuple(ParamScalar.const(c)
                 for c in linalg.char_poly(K, Fraction(0), Fraction(1)))


def spectrum_all_real_distinct(charpoly: Sequence[ParamScalar]) -> bool:
    """Exact Sturm verdict for a spectrum with rational coefficients."""
    coeffs = [c.as_fraction() for c in charpoly]
    return sturm.all_roots_real_and_distinct(coeffs)
