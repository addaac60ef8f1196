"""Commutator-table construction and exact relation checking on a space.

The relations this engine verifies are representation statements: products
of generators agree as maps on the invariant space, not necessarily as
canonical normal forms.  Every check here therefore acts on the basis and
compares exactly; canonical-form equality is attempted as well and
reported as a bonus flag when it happens to hold.

Failure objects always carry a specific basis vector and the exact
residual, so a reported failure can be reproduced by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import linalg
from .operators import DiffOp, QuasiDiffOp, QuasiPoly
from .scalars import PS_ONE, PS_ZERO, ParamScalar, QuasiExponent
from .spaces import V1Space


@dataclass(frozen=True)
class FitWitness:
    """A basis vector on which the attempted identity misses, and by what."""

    basis_exponent: QuasiExponent
    residual: object  # ParamScalar or QuasiPoly
    reason: str

    def to_json(self, name: str = "a") -> dict:
        return {
            "basis_exponent": self.basis_exponent.str(name),
            "residual": self.residual.str(name),
            "reason": self.reason,
        }


@dataclass(frozen=True)
class FitResult:
    """Outcome of expressing an operator as a polynomial in a diagonal one."""

    ok: bool
    coeffs: Optional[tuple[ParamScalar, ...]]  # low degree first
    degree_used: int
    raised: bool
    canonical: bool
    witness: Optional[FitWitness]

    def to_json(self, name: str = "a") -> dict:
        return {
            "ok": self.ok,
            "coeffs": [c.str(name) for c in self.coeffs] if self.coeffs else None,
            "degree_used": self.degree_used,
            "auto_raised": self.raised,
            "canonical": self.canonical,
            "witness": self.witness.to_json(name) if self.witness else None,
        }


def _diagonal_eigenvalue(out: QuasiPoly, e: QuasiExponent):
    """Eigenvalue if out is a multiple of x^e (zero counts), else None."""
    if not out.terms:
        return PS_ZERO
    if len(out.terms) == 1 and out.terms[0][0] == e:
        return out.terms[0][1]
    return None


def fit_poly_in_J0(
    A,
    J0,
    s: V1Space,
    max_deg: int = 3,
    auto_raise: bool = True,
) -> FitResult:
    """Solve A = sum_k c_k J0^k as maps on the basis of s, exactly.

    J0 must act diagonally on the basis.  If the requested degree cannot
    interpolate, the degree is raised (once, with a flag) to dim-1, which
    always suffices for a diagonal A with distinct eigenvalues.  An
    off-diagonal A fails with the offending basis vector.
    """
    A = QuasiDiffOp.coerce(A)
    J0q = QuasiDiffOp.coerce(J0)
    basis = s.basis()
    mus, lams = [], []
    for e in basis:
        v = QuasiPoly.monomial(e)
        mu = _diagonal_eigenvalue(J0q.act(v), e)
        if mu is None:
            raise ValueError(f"reference operator is not diagonal on x^{e}")
        lam = _diagonal_eigenvalue(A.act(v), e)
        if lam is None:
            return FitResult(
                False, None, max_deg, False, False,
                FitWitness(e, A.act(v), "operator is not diagonal on this vector"),
            )
        mus.append(mu)
        lams.append(lam)

    def attempt(deg: int):
        rows = [[mu ** k for k in range(deg + 1)] for mu in mus]
        sol = linalg.solve_exact(rows, lams, PS_ZERO, PS_ONE)
        if sol is None:
            # report the first basis vector whose eigenvalue is missed by the
            # best-solving subsystem
            sub_rows, sub_rhs, picked = [], [], []
            for row, lam, e in zip(rows, lams, basis):
                trial = linalg.solve_exact(sub_rows + [row], sub_rhs + [lam],
                                           PS_ZERO, PS_ONE)
                if trial is not None:
                    sub_rows.append(row)
                    sub_rhs.append(lam)
                    picked = trial
            for row, lam, e in zip(rows, lams, basis):
                val = PS_ZERO
                for c, r in zip(picked, row):
                    val = val + c * r
                if val != lam:
                    return None, FitWitness(e, lam - val, "inconsistent eigenvalue")
            return None, None
        return tuple(sol), None

    coeffs, witness = attempt(max_deg)
    raised = False
    deg = max_deg
    if coeffs is None and auto_raise and len(basis) - 1 > max_deg:
        deg = len(basis) - 1
        coeffs, witness = attempt(deg)
        raised = True
    if coeffs is None:
        return FitResult(False, None, deg, raised, False, witness)

    canonical = False
    if J0q.is_plain() and A.is_plain():
        J0_plain = J0q.plain()
        poly_op = DiffOp.zero()
        power = DiffOp.identity()
        for k, c in enumerate(coeffs):
            poly_op = poly_op + power.scale(c)
            power = power * J0_plain
        canonical = poly_op == A.plain()
    return FitResult(True, coeffs, deg, raised, canonical, None)


@dataclass(frozen=True)
class RelationResult:
    """Verdict of lhs == rhs in the requested scope."""

    scope: str  # "on-space" or "canonical"
    ok: bool
    canonical_bonus: Optional[bool]
    witness: Optional[FitWitness]

    def to_json(self, name: str = "a") -> dict:
        return {
            "scope": self.scope,
            "ok": self.ok,
            "canonical_bonus": self.canonical_bonus,
            "witness": self.witness.to_json(name) if self.witness else None,
        }


def verify_relation(lhs, rhs, s: Optional[V1Space], scope: str = "on-space") -> RelationResult:
    """Compare two operators as maps on s's basis or as canonical forms."""
    lhs = QuasiDiffOp.coerce(lhs)
    rhs = QuasiDiffOp.coerce(rhs)
    canonical = lhs == rhs
    if scope == "canonical":
        return RelationResult("canonical", canonical, canonical, None)
    if scope != "on-space":
        raise ValueError(f"unknown scope {scope!r}")
    if s is None:
        raise ValueError("on-space scope needs a space")
    for e in s.basis():
        v = QuasiPoly.monomial(e)
        diff = lhs.act(v) - rhs.act(v)
        if diff:
            return RelationResult(
                "on-space", False, canonical,
                FitWitness(e, diff, "actions differ on this vector"),
            )
    return RelationResult("on-space", True, canonical, None)


@dataclass(frozen=True)
class NilpotencyResult:
    ok: bool
    witness: Optional[tuple[int, int, QuasiExponent]]

    def to_json(self, name: str = "a") -> dict:
        if self.witness is None:
            return {"ok": self.ok, "witness": None}
        i, j, e = self.witness
        return {"ok": self.ok,
                "witness": {"left": i, "right": j, "basis_exponent": e.str(name)}}


def nilpotency_check(ops: Sequence, s: V1Space) -> NilpotencyResult:
    """All pairwise products (both orders, including squares) must kill
    every basis vector of s."""
    qops = [QuasiDiffOp.coerce(op) for op in ops]
    for i, P in enumerate(qops):
        for j, Q in enumerate(qops):
            for e in s.basis():
                if P.act(Q.act(QuasiPoly.monomial(e))):
                    return NilpotencyResult(False, (i, j, e))
    return NilpotencyResult(True, None)


# ---------------------------------------------------------------------------
# Commutator tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableEntry:
    """[g_i, g_j] expressed over the declared generators plus identity, or
    flagged outside the span with the residual action left over."""

    i: int
    j: int
    in_span: bool
    coords: Optional[tuple[ParamScalar, ...]]  # per generator, then identity
    canonical: Optional[bool]
    residual: Optional[str]

    def to_json(self, name: str = "a") -> dict:
        return {
            "pair": [self.i, self.j],
            "in_span": self.in_span,
            "coords": [c.str(name) for c in self.coords] if self.coords else None,
            "canonical": self.canonical,
            "residual": self.residual,
        }


@dataclass(frozen=True)
class ClosureReport:
    names: tuple[str, ...]
    entries: tuple[TableEntry, ...]
    closes: bool

    def entry(self, i: int, j: int) -> TableEntry:
        for e in self.entries:
            if (e.i, e.j) == (i, j):
                return e
        raise KeyError((i, j))

    def to_json(self, name: str = "a") -> dict:
        return {
            "generators": list(self.names),
            "closes": self.closes,
            "table": [e.to_json(name) for e in self.entries],
        }


def commutator_table(
    ops: Sequence, s: V1Space, names: Optional[Sequence[str]] = None
) -> ClosureReport:
    """All pairwise commutators, each solved for an exact expression in
    span(generators + identity) via action on the basis."""
    qops = [QuasiDiffOp.coerce(op) for op in ops]
    names = tuple(names) if names else tuple(f"g{i}" for i in range(len(qops)))
    table = s.commutator_coords(qops)
    if table is None:
        raise ValueError("a generator does not preserve the space")
    span_ops = qops + [QuasiDiffOp.coerce(DiffOp.identity())]

    entries = []
    for (i, j), (C, sol) in table.items():
        if sol is None:
            entries.append(TableEntry(i, j, False, None, None,
                                      f"[{names[i]},{names[j]}] leaves the span"))
            continue
        combo = QuasiDiffOp.zero()
        for c, op in zip(sol, span_ops):
            if c:
                combo = combo + op.scale(c)
        entries.append(TableEntry(i, j, True, tuple(sol), C == combo, None))
    return ClosureReport(names, tuple(entries), all(e.in_span for e in entries))
