"""Invariant spaces spanned by {1..x^n} plus x^a{1..x^m}, their generator
catalogue, invariance checking, and bounded-ansatz classification of all
preserving operators.

The space parameter a is either the formal symbol (generic) or an explicit
rational.  Generic-a membership compares the plain and the x^a exponent
ladders separately; a rational a collapses everything to one merged ladder
of plain exponents.

The degree of an ansatz monomial x^i d^j is the exponent shift i - j it
induces on monomials; search windows are expressed in that grading (the
raising generator has degree +1, the pure derivative -1, the downward jump
operator -k).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import linalg
from .operators import QuasiDiffOp, commutator
from .scalars import (
    ExactError,
    PS_ONE,
    PS_ZERO,
    ParamScalar,
    QuasiExponent,
    param_or_const,
    qexp,
    rat,
)

AValue = Union[None, int, Fraction]  # None means the generic symbol


class FiniteSpace:
    """A finite space with a fixed basis.  Each kind of space gives
    _terms(), its basis as term maps {key: coefficient} in echelon order
    (the largest key of each vector, its pivot, occurs in no earlier
    vector), and _images(op), the image of each basis vector as a term map
    or None.  matrix(op) is read off from them once for every kind, and
    span questions about operators are answered from those matrices."""

    __slots__ = ()

    def dim(self) -> int:
        return len(self._terms())

    def matrix(self, op) -> Optional[list[list[ParamScalar]]]:
        """The exact matrix of op on the basis (rows indexed by output
        coordinate, columns by basis vector), or None when an image leaves
        the space.  Back-substitution from the last basis vector pops the
        image's coefficient at the pivot; only a vector other than one term
        with coefficient 1 costs a division and a subtraction.  A nonzero
        remainder is a term outside the space."""
        basis = self._terms()
        steps = [(k, max(v), v) for k, v in reversed(list(enumerate(basis)))]
        steps = [(k, p, v if len(v) > 1 or v[p] != PS_ONE else None)
                 for k, p, v in steps]
        A = [[PS_ZERO] * len(basis) for _ in basis]
        for col, img in enumerate(self._images(op)):
            if img is None:
                return None
            for k, p, v in steps:
                c = img.pop(p, PS_ZERO)
                if v is not None and c:
                    c = c / v[p]
                    for key in v.keys() - {p}:
                        img[key] = img.get(key, PS_ZERO) - c * v[key]
                A[k][col] = c
            if any(img.values()):
                return None
        return A

    def _span(self, ops):
        """Flattened matrices of ops and of the identity, or None."""
        mats = [self.matrix(op) for op in ops]
        if any(A is None for A in mats):
            return None
        mats.append(linalg.identity(self.dim(), PS_ZERO, PS_ONE))
        return [[v for row in A for v in row] for A in mats]

    def _coords(self, span, ops):
        """Coordinates of each of ops in span, None for an op that leaves
        the space or the span; one elimination serves all of them."""
        mats = [self.matrix(op) for op in ops]
        targets = [[v for row in A for v in row] for A in mats if A is not None]
        sols = iter(linalg.in_span_many(span, targets, PS_ZERO, PS_ONE))
        return [None if A is None else next(sols) for A in mats]

    def span_coords(self, op, ops):
        """Coordinates of op in span(ops + identity) as maps on the space,
        or None (also when op or one of ops leaves the space)."""
        span = self._span(ops)
        return None if span is None else self._coords(span, [op])[0]

    def commutator_coords(self, ops) -> Optional[dict]:
        """{(i, j): (C, coords)} for every ordered pair i != j, where
        C = [ops[i], ops[j]] and coords are its coordinates in
        span(ops + identity) as maps on the space, None when C leaves that
        span.  None when one of ops does not preserve the space."""
        span = self._span(ops)
        if span is None:
            return None
        pairs = [(i, j) for i in range(len(ops)) for j in range(len(ops)) if i != j]
        comms = [commutator(ops[i], ops[j]) for i, j in pairs]
        return dict(zip(pairs, zip(comms, self._coords(span, comms))))


def _in_range(q: Fraction, top: int) -> bool:
    return q.denominator == 1 and 0 <= q <= top


@dataclass(frozen=True, slots=True)
class V1Space(FiniteSpace):
    """The direct-sum space P_n + x^a P_m (P_m part absent when m is None).

    For rational a the two exponent ladders may collide; the merged basis
    drops duplicates and the collision flag records whether that happened.
    """

    n: int
    m: Optional[int] = None
    a: AValue = None
    _basis: Optional[tuple] = field(default=None, init=False, compare=False)

    def __post_init__(self):
        if self.n < 0 or (self.m is not None and self.m < 0):
            raise ValueError("degrees must be nonnegative")
        if self.a is not None:
            object.__setattr__(self, "a", rat(self.a))

    # -- derived quantities ---------------------------------------------------

    @property
    def delta(self) -> int:
        """|m - n|, the width of the exchange-operator family."""
        if self.m is None:
            raise ExactError("delta undefined without the x^a part")
        return abs(self.m - self.n)

    @property
    def p_max(self) -> int:
        """max(m, n)."""
        if self.m is None:
            return self.n
        return max(self.m, self.n)

    def is_generic(self) -> bool:
        return self.a is None

    def has_collision(self) -> bool:
        """Rational a landing in {-m, ..., n} merges the two ladders."""
        if self.a is None or self.m is None:
            return False
        a = self.a
        return a.denominator == 1 and -self.m <= a <= self.n

    # -- basis and membership ---------------------------------------------------

    def basis(self) -> list[QuasiExponent]:
        """Exponents 0..n then a..a+m; merged regime drops duplicates.
        Built on the first call and kept, as the space is immutable."""
        if self._basis is None:
            out = [qexp(i) for i in range(self.n + 1)]
            if self.m is not None and self.a is None:
                out += [qexp(j, 1) for j in range(self.m + 1)]
            elif self.m is not None:
                out += [qexp(self.a + j) for j in range(self.m + 1)
                        if not _in_range(self.a + j, self.n)]
            object.__setattr__(self, "_basis", tuple(out))
        return list(self._basis)

    def _terms(self) -> list[dict]:
        return [{e: PS_ONE} for e in self.basis()]

    def _images(self, op) -> list[dict]:
        return QuasiDiffOp.coerce(op).images(self.basis())

    def in_ladder(self, e: QuasiExponent, part: str) -> bool:
        """e lies on the "poly" ladder 0..n or the "quasi" ladder a..a+m."""
        if part == "poly":
            return e.a_part == 0 and _in_range(e.offset, self.n)
        if self.m is None:
            return False
        if self.a is None:
            return e.a_part == 1 and _in_range(e.offset, self.m)
        return e.a_part == 0 and _in_range(e.offset - self.a, self.m)

    def contains_exponent(self, e: QuasiExponent) -> bool:
        return self.in_ladder(e, "poly") or self.in_ladder(e, "quasi")

    def __str__(self):
        a = "a" if self.a is None else str(self.a)
        if self.m is None:
            return f"V1({self.n})"
        return f"V1({self.n}, {self.m}, {a})"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Generator catalogue
#
# Every generator is built in graded Euler form: x^g times a polynomial in
# D = x d, written by its roots.  d is x^-1 D.
# ---------------------------------------------------------------------------

_UP, _DOWN = qexp(1), qexp(-1)


def make_sl2(n: int, a: AValue = None) -> dict[str, QuasiDiffOp]:
    """The classical triple preserving P_n: raising, diagonal, lowering."""
    return {
        "jp": QuasiDiffOp.euler_poly([n], _UP),
        "j0": QuasiDiffOp.euler_poly([Fraction(n, 2)]),
        "jm": QuasiDiffOp.euler_poly([0], _DOWN),
    }


def make_k(n: int, a: AValue = None) -> dict[str, QuasiDiffOp]:
    """The sl2 triple conjugated by x^a (acts on the x^a ladder)."""
    a_s = param_or_const(a)
    js = make_sl2(n)
    return {"kp": js["jp"].conjugate(a_s), "k0": js["j0"].conjugate(a_s),
            "km": js["jm"].conjugate(a_s)}


def make_bosonic(n: int, m: int, a: AValue = None) -> dict[str, QuasiDiffOp]:
    """The second-order triple preserving both ladders at once:
    x (D - n)(D - m - a), D - (m+n+1)/2 and (D + 1 - a) d = x^-1 D (D - a)."""
    a_s = param_or_const(a)
    return {
        "Jp": QuasiDiffOp.euler_poly([n, m + a_s], _UP),
        "J0": QuasiDiffOp.euler_poly([Fraction(m + n + 1, 2)]),
        "Jm": QuasiDiffOp.euler_poly([0, a_s], _DOWN),
    }


def make_kernels(n: int, m: int, a: AValue = None) -> dict[str, QuasiDiffOp]:
    """K kills the polynomial ladder; Kprime kills the x^a ladder."""
    a_s = param_or_const(a)
    return {"K": QuasiDiffOp.euler_poly(range(n + 1)),
            "Kprime": QuasiDiffOp.euler_poly(range(m + 1)).conjugate(a_s)}


class MappingContractError(ExactError):
    """Neither orientation of the exchange formulas maps as promised."""


@dataclass(frozen=True)
class MixingOps:
    """Exchange operators for one alpha, plus which orientation verified."""

    Q: QuasiDiffOp
    Qbar: QuasiDiffOp
    alpha: int
    orientation: str  # "n>=m", "n<=m", "either (n=m)" or "either (colliding a)"


def _qbar_factor(s: V1Space, alpha: int) -> QuasiDiffOp:
    """prod_{i<alpha} (D - (p+1-delta) - i) ∘ d^(delta-alpha)."""
    k = s.delta - alpha
    shift = s.p_max + 1 - s.delta + k  # (D - r) x^-k = x^-k (D - k - r)
    return QuasiDiffOp.euler_poly(
        [shift + i for i in range(alpha)] + list(range(k)), qexp(-k))


def _maps_into(op: QuasiDiffOp, s: V1Space, part: str) -> bool:
    """Check op sends every basis vector into the named ladder (or to 0)."""
    return not any(op.images(s.basis(), lambda f: not s.in_ladder(f, part)))


def make_mixing(n: int, m: int, a: AValue = None, alpha: int = 0) -> MixingOps:
    """Exchange operators Q (into the polynomial ladder) and Qbar (into the
    x^a ladder) for 0 <= alpha <= |m-n|.

    The constructor self-verifies the mapping contract on the basis and
    reports which orientation of the defining formulas holds; rejecting
    both would indicate an implementation bug, not bad input.
    """
    s = V1Space(n, m, a)
    if not 0 <= alpha <= s.delta:
        raise ValueError(f"alpha must lie in 0..{s.delta}")
    a_s = param_or_const(a)
    ker = make_kernels(n, m, a)
    if a is None:
        down, up = qexp(0, -1), qexp(0, 1)
    else:
        down, up = qexp(-rat(a)), qexp(rat(a))
    shift_dn = QuasiDiffOp.power_shift(down)
    shift_up = QuasiDiffOp.power_shift(up)
    x_alpha = QuasiDiffOp.power_shift(qexp(alpha))
    qbar = _qbar_factor(s, alpha)

    candidates = {
        "n>=m": (
            x_alpha * shift_dn * ker["K"],
            shift_up * qbar * ker["Kprime"],
        ),
        "n<=m": (
            qbar * shift_dn * ker["K"],
            shift_up * x_alpha * ker["Kprime"],
        ),
    }
    passing = []
    for name, (Q, Qbar) in candidates.items():
        if _maps_into(Q, s, "poly") and _maps_into(Qbar, s, "quasi"):
            passing.append((name, Q, Qbar))
    if not passing:
        raise MappingContractError(
            "mapping contract violated in both orientations"
        )
    name, Q, Qbar = passing[0]
    if len(passing) == 2:
        # for n != m both pass only when a rational a makes the ladders overlap
        name = "either (n=m)" if n == m else "either (colliding a)"
    return MixingOps(Q, Qbar, alpha, name)


def make_jumps(n: int, m: int, k: int) -> dict[str, QuasiDiffOp]:
    """Ladder-exchanging operators for integer a = k, order k, degrees +/-k.

    Requires k >= 1, n <= k and m - k >= n.
    """
    if k < 1 or n > k or m - k < n:
        raise ValueError("need k >= 1, n <= k and m - k >= n")
    return {
        "Wp": QuasiDiffOp.euler_poly([k + m - j for j in range(k)], qexp(k)),
        "Wm": QuasiDiffOp.euler_poly(
            list(range(n + 1)) + [k + n + i for i in range(1, k - n)], qexp(-k)),
    }


# ---------------------------------------------------------------------------
# Invariance checking and classification search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvarianceWitness:
    basis_exponent: QuasiExponent
    output_exponent: QuasiExponent
    coefficient: ParamScalar

    def to_json(self, name: str = "a") -> dict:
        return {
            "basis_exponent": self.basis_exponent.str(name),
            "output_exponent": self.output_exponent.str(name),
            "coefficient": self.coefficient.str(name),
        }


@dataclass(frozen=True)
class InvarianceReport:
    verdict: bool
    witnesses: tuple[InvarianceWitness, ...]

    def to_json(self, name: str = "a") -> dict:
        return {
            "verdict": self.verdict,
            "witnesses": [w.to_json(name) for w in self.witnesses],
        }


def check_invariance(A, s: V1Space) -> InvarianceReport:
    """Apply A to each basis quasi-monomial; collect out-of-space terms."""
    basis = s.basis()
    witnesses = []
    outside = QuasiDiffOp.coerce(A).images(
        basis, lambda f: not s.contains_exponent(f))
    for e, img in zip(basis, outside):
        witnesses.extend(InvarianceWitness(e, f, c) for f, c in img.items())
    return InvarianceReport(not witnesses, tuple(witnesses))


def _ansatz_cells(max_order: int, deg_lo: int, deg_hi: int) -> list[tuple[int, int]]:
    """(i, j) pairs with 0 <= j <= max_order and deg_lo <= i - j <= deg_hi."""
    return [
        (d + j, j)
        for j in range(max_order + 1)
        for d in range(deg_lo, deg_hi + 1)
    ]


def search_preserving(
    s: V1Space, max_order: int, deg_lo: int, deg_hi: int
) -> list[QuasiDiffOp]:
    """Exact basis of {sum c_ij x^i d^j : the sum preserves s} within the
    given order and degree windows.

    The linear system is solved over the parameter field when a is generic
    and over the rationals otherwise; generic results are re-verified at two
    non-resonant rational specializations as a guard against spurious rank
    drops, and every returned operator is re-checked against
    check_invariance.
    """
    cells = _ansatz_cells(max_order, deg_lo, deg_hi)
    basis_exps = s.basis()
    rows_by_target: dict = {}
    for e in basis_exps:
        e_param = e.to_param()
        for col, (i, j) in enumerate(cells):
            coeff = PS_ONE
            for t in range(j):
                coeff = coeff * (e_param - t)
            if not coeff:
                continue
            f = e + (i - j)
            if s.contains_exponent(f):
                continue
            key = (e, f)
            row = rows_by_target.setdefault(key, [PS_ZERO] * len(cells))
            row[col] = row[col] + coeff
    matrix = [r for r in rows_by_target.values() if any(r)]
    sols = linalg.nullspace(matrix, PS_ZERO, PS_ONE) if matrix else [
        [PS_ONE if i == j else PS_ZERO for j in range(len(cells))]
        for i in range(len(cells))
    ]

    ops = []
    for vec in sols:
        op = QuasiDiffOp.from_cells(
            (i, j, c) for c, (i, j) in zip(vec, cells) if c)
        rep = check_invariance(op, s)
        if not rep.verdict:
            raise AssertionError(f"search produced non-invariant operator {op}")
        ops.append(op)

    if s.is_generic() and s.m is not None:
        span = s.m + s.n + 2
        for a0 in (Fraction(2 * span + 1, 2), Fraction(3 * span + 1, 3)):
            s0 = V1Space(s.n, s.m, a0)
            if len(search_preserving(s0, max_order, deg_lo, deg_hi)) != len(ops):
                raise AssertionError(
                    f"solution dimension changes at specialization a={a0}"
                )
    return ops


def operator_in_span(op, basis_ops: Sequence):
    """Exact coordinates of op in span(basis_ops) as canonical forms, or
    None.  Coordinates live in the parameter field.

    The operators x^g D^k are linearly independent, so the graded
    coefficients of an operator are its coordinates in them.
    """
    everyone = [dict(QuasiDiffOp.coerce(B).parts) for B in list(basis_ops) + [op]]
    keys = sorted({(g, k) for B in everyone for g, p in B.items()
                   for k in range(len(p))})
    rows = [[B[g][k] if k < len(B.get(g, ())) else PS_ZERO for g, k in keys]
            for B in everyone]
    return linalg.in_span(rows[:-1], rows[-1], PS_ZERO, PS_ONE)


# ---------------------------------------------------------------------------
# Exponent-set transforms (relating spaces under x -> x^b)
# ---------------------------------------------------------------------------


def v1_exponents(n: int, m: int, a_expr: ParamScalar) -> list[ParamScalar]:
    """Exponent set {0..n} union {a_expr + j : j in 0..m} in the parameter
    field; a_expr may be any rational expression of the parameter."""
    out = [ParamScalar.const(i) for i in range(n + 1)]
    out += [a_expr + j for j in range(m + 1)]
    return out


def ladder_pattern_exponents(beta: ParamScalar, s: int, m: int) -> list[ParamScalar]:
    """{j*beta : j <= s} union {1 + j*beta : j <= m}: the exponent set of a
    polynomial ladder in x^beta plus x times another such ladder."""
    out = [beta * j for j in range(s + 1)]
    out += [1 + beta * j for j in range(m + 1)]
    return out


def exponent_set_equiv(
    lhs_exponents: Sequence[ParamScalar],
    substitution_power: ParamScalar,
    rhs_exponents: Sequence[ParamScalar],
) -> bool:
    """True iff {e * b : e in lhs} equals rhs as sets, exactly."""
    lhs = {e * substitution_power for e in lhs_exponents}
    return lhs == set(rhs_exponents)
