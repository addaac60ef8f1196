"""Shared exact machinery: nullspace, span solves, char poly, Sturm."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from qeskit import linalg
from qeskit.scalars import PARAM, PS_ONE, PS_ZERO, ParamScalar
from qeskit.sturm import (
    all_roots_real_and_distinct,
    count_real_roots,
    is_squarefree,
    sturm_chain,
)

A = PARAM
Z, O = F(0), F(1)


def test_nullspace_rational():
    # x + y + z = 0, x - z = 0 -> one free direction (1, -2, 1)
    basis = linalg.nullspace([[O, O, O], [O, Z, -O]], Z, O)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] + v[2] == 0 and v[0] - v[2] == 0


def test_nullspace_over_parameter_field():
    rows = [[A, -PS_ONE, PS_ZERO], [PS_ZERO, A, -PS_ONE]]
    basis = linalg.nullspace(rows, PS_ZERO, PS_ONE)
    assert len(basis) == 1
    v = basis[0]
    assert A * v[0] - v[1] == PS_ZERO
    assert A * v[1] - v[2] == PS_ZERO


def test_solve_exact_detects_inconsistency():
    assert linalg.solve_exact([[O, Z], [O, Z]], [O, F(2)], Z, O) is None
    sol = linalg.solve_exact([[O, O], [Z, O]], [F(3), F(1)], Z, O)
    assert sol == [F(2), F(1)]


def test_in_span():
    vs = [[O, Z, O], [Z, O, O]]
    assert linalg.in_span(vs, [O, O, F(2)], Z, O) == [O, O]
    assert linalg.in_span(vs, [O, O, F(3)], Z, O) is None


def test_char_poly_known_matrix():
    M = [[F(2), F(1)], [F(1), F(2)]]
    # (E-1)(E-3) = E^2 - 4E + 3
    assert linalg.char_poly(M, Z, O) == (F(3), F(-4), F(1))
    tr = linalg.trace(M, Z)
    cp = linalg.char_poly(M, Z, O)
    assert cp[-2] == -tr  # subleading coefficient is minus the trace


def test_char_poly_parameter_entries():
    M = [[A, PS_ONE], [PS_ZERO, A]]
    cp = linalg.char_poly(M, PS_ZERO, PS_ONE)
    assert cp == (A * A, -2 * A, PS_ONE)


# ---------------------------------------------------------------------------
# char_poly (Berkowitz) against Faddeev-LeVerrier and sympy
# ---------------------------------------------------------------------------


def faddeev_leverrier(A, zero, one):
    """Reference oracle: det(E*I - A), low degree first, by the
    Faddeev-LeVerrier recursion (matrix products and traces, then division
    by k), independent of the Berkowitz code under test."""
    n = len(A)
    coeffs = [zero] * n + [one]
    N = linalg.identity(n, zero, one)
    for k in range(1, n + 1):
        M = linalg.mat_mul(A, N, zero)
        ck = -(linalg.trace(M, zero) / (one * k))
        coeffs[n - k] = ck
        N = [[M[i][j] + (ck if i == j else zero) for j in range(n)]
             for i in range(n)]
    return tuple(coeffs)


SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=3)


# denominators 1 and a keep the oracle's n = 8 cost low; a + 1 and a - 2
# make sympy's check run the general gcd path
MONOMIAL_DENS = ((F(1),), (F(0), F(1)))
GENERAL_DENS = ((F(1),), (F(1), F(1)), (F(-2), F(1)))


@st.composite
def param_entries(draw, dens=MONOMIAL_DENS):
    """Entries of Q(a): a polynomial of degree <= 1 in a over one of dens."""
    num = [draw(SMALL) for _ in range(draw(st.integers(0, 2)))]
    return ParamScalar(num, draw(st.sampled_from(dens)))


@st.composite
def matrices(draw, entry, zero, one, max_n=8):
    """Square matrices of size 0..max_n: dense, sparse, singular (one row a
    multiple of another, or zero) or nilpotent (strictly upper triangular,
    conjugated by an elementary matrix so the zeros are not all in place)."""
    n = draw(st.integers(0, max_n))
    kind = draw(st.sampled_from(["dense", "sparse", "singular", "nilpotent"]))
    if kind == "nilpotent":
        A = [[draw(entry) if j > i else zero for j in range(n)] for i in range(n)]
        if n >= 2:
            i, j = draw(st.permutations(range(n)))[:2]
            c = draw(entry)
            # S A S^-1 with S = I + c e_i e_j^T: add c*row j to row i, then
            # subtract c*column i from column j
            A[i] = [x + c * y for x, y in zip(A[i], A[j])]
            for row in A:
                row[j] = row[j] - c * row[i]
        return A, kind
    sparse = kind == "sparse"
    A = [[zero if sparse and draw(st.integers(0, 3)) else draw(entry)
          for _ in range(n)] for _ in range(n)]
    if kind == "singular" and n:
        c = draw(entry) if n >= 2 else zero
        A[-1] = [c * x for x in A[0]] if n >= 2 else [zero]
    return A, kind


@settings(max_examples=80, deadline=None)
@given(matrices(SMALL, F(0), F(1)))
def test_char_poly_matches_faddeev_leverrier_over_q(case):
    A, kind = case
    cp = linalg.char_poly(A, F(0), F(1))
    assert cp == faddeev_leverrier(A, F(0), F(1))
    if kind in ("singular", "nilpotent") and A:
        assert cp[0] == 0
    if kind == "nilpotent":
        assert all(c == 0 for c in cp[:-1])


@settings(max_examples=25, deadline=None)
@given(matrices(param_entries(), PS_ZERO, PS_ONE))
def test_char_poly_matches_faddeev_leverrier_over_param_field(case):
    A, _ = case
    assert linalg.char_poly(A, PS_ZERO, PS_ONE) == \
        faddeev_leverrier(A, PS_ZERO, PS_ONE)


@settings(max_examples=40, deadline=None)
@given(st.one_of(matrices(SMALL, F(0), F(1)),
                 matrices(param_entries(GENERAL_DENS), PS_ZERO, PS_ONE, max_n=5)))
def test_char_poly_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    a, E = sympy.symbols("a E")

    def to_sympy(v):
        if isinstance(v, F):
            return sympy.Rational(v.numerator, v.denominator)
        return (sum(to_sympy(c) * a**i for i, c in enumerate(v.num))
                / sum(to_sympy(c) * a**i for i, c in enumerate(v.den)))

    A, _ = case
    one = F(1) if not A or isinstance(A[0][0], F) else PS_ONE
    cp = linalg.char_poly(A, 0 * one, one)
    ref = sympy.Matrix(len(A), len(A), [to_sympy(v) for row in A for v in row]) \
        .charpoly(E).all_coeffs()[::-1]
    assert len(cp) == len(ref)
    assert all(sympy.cancel(to_sympy(c) - r) == 0 for c, r in zip(cp, ref))


# ---------------------------------------------------------------------------
# The batched solve against one-column solves
# ---------------------------------------------------------------------------


@st.composite
def systems(draw):
    """M (rows x cols, possibly rank-deficient or empty) and right-hand
    sides, some in the column space of M and some not."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    M = [[draw(SMALL) for _ in range(cols)] for _ in range(rows)]
    if rows >= 2 and draw(st.booleans()):
        M[-1] = [2 * x for x in M[0]]  # rank-deficient
    rhss = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):  # consistent: M times a random x
            x = [draw(SMALL) for _ in range(cols)]
            rhss.append([sum((u * v for u, v in zip(r, x)), F(0)) for r in M])
        else:  # arbitrary, often inconsistent
            rhss.append([draw(SMALL) for _ in range(rows)])
    return M, rhss


@settings(max_examples=100, deadline=None)
@given(systems())
def test_solve_many_equals_one_column_solves(case):
    M, rhss = case
    sols = linalg.solve_many(M, rhss, F(0), F(1))
    assert len(sols) == len(rhss)
    for b, sol in zip(rhss, sols):
        assert sol == linalg.solve_exact(M, b, F(0), F(1))
        if sol is None:  # b must raise the rank
            cols = len(M[0])
            aug = [r + [v] for r, v in zip(M, b)]
            assert (cols + 1 - len(linalg.nullspace(aug, F(0), F(1)))
                    > cols - len(linalg.nullspace(M, F(0), F(1))))
        else:
            assert all(sum((u * v for u, v in zip(r, sol)), F(0)) == bi
                       for r, bi in zip(M, b))


def test_solve_many_mixes_inconsistent_and_consistent_targets():
    M = [[O, Z], [O, Z], [Z, O]]  # rank 2, rows 0 and 1 equal
    rhss = [[F(1), F(1), F(5)], [F(1), F(2), F(0)], [Z, Z, Z], [F(3), F(3), F(1)]]
    assert linalg.solve_many(M, rhss, Z, O) == [[F(1), F(5)], None, [Z, Z], [F(3), F(1)]]
    assert linalg.solve_many([], [[], [Z], [O]], Z, O) == [[], [], None]
    assert linalg.in_span_many([], [[Z, Z], [Z, O]], Z, O) == [[], None]
    assert linalg.in_span_many([[O, O]], [], Z, O) == []


def test_sturm_counts():
    # (x-1)(x-2)(x-3)
    p = (F(-6), F(11), F(-6), F(1))
    assert count_real_roots(p) == 3
    assert count_real_roots(p, F(0), F(2)) == 2  # roots in (0, 2]
    assert count_real_roots(p, F(1), F(3)) == 2  # (1, 3] excludes 1
    assert all_roots_real_and_distinct(p)
    # x^2 + 1: no real roots
    q = (F(1), F(0), F(1))
    assert count_real_roots(q) == 0
    assert not all_roots_real_and_distinct(q)
    # (x-1)^2: real but repeated
    r = (F(1), F(-2), F(1))
    assert not is_squarefree(r)
    assert not all_roots_real_and_distinct(r)
    assert count_real_roots(r) == 1  # distinct real roots of the squarefree part
    assert len(sturm_chain(p)) >= 3
