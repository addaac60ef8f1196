"""Exact linear algebra over any field with Python arithmetic dunders.

Works uniformly for Fraction and ParamScalar entries.  Matrices are lists
of lists (rows); vectors are lists.  Everything here is pure and exact —
no pivot thresholds, no floating point.
"""

from __future__ import annotations

from typing import Sequence


def _rref(rows, ncols, one):
    """Reduced row echelon form in place; returns pivot column list."""
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = one / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def nullspace(matrix: Sequence[Sequence], zero, one) -> list[list]:
    """Basis of {v : M v = 0}, exact, over the entry field.

    Free variables are set to one in turn, pivot variables solved; the
    basis is deterministic for a given row/column order.
    """
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows = [list(r) for r in matrix if any(r)]
    if not rows:
        return [[one if j == i else zero for j in range(ncols)] for i in range(ncols)]
    pivots = _rref(rows, ncols, one)
    rows = [r for r in rows if any(r)]
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for r, pc in zip(rows, pivots):
            v[pc] = -r[f]
        basis.append(v)
    return basis


def solve_exact(matrix: Sequence[Sequence], rhs: Sequence, zero, one):
    """One exact solution of M x = b, or None if inconsistent.

    Overdetermined systems are fine; free variables are set to zero, so the
    answer is deterministic.
    """
    if not matrix:
        return [] if not any(rhs) else None
    ncols = len(matrix[0])
    rows = [list(r) + [b] for r, b in zip(matrix, rhs)]
    pivots = _rref(rows, ncols, one)
    sol = [zero] * ncols
    for r, pc in zip(rows, pivots):
        sol[pc] = r[-1]
    for r in rows[len(pivots):]:
        if r[-1]:
            return None
    # rows beyond the pivot count have zero coefficients; rhs there must be 0
    return sol


def in_span(vectors: Sequence[Sequence], target: Sequence, zero, one):
    """Coordinates of target in span(vectors), or None.

    vectors are given as rows; returns c with sum(c_i * vectors[i]) = target.
    """
    if not vectors:
        return [] if not any(target) else None
    cols = list(zip(*vectors))  # matrix with vectors as columns
    return solve_exact(cols, list(target), zero, one)


def mat_mul(A, B, zero):
    n, k, m = len(A), len(B), len(B[0])
    out = [[zero] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            c = Ai[t]
            if not c:
                continue
            Bt = B[t]
            row = out[i]
            for j in range(m):
                row[j] = row[j] + c * Bt[j]
    return out


def identity(n, zero, one):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def trace(A, zero):
    t = zero
    for i in range(len(A)):
        t = t + A[i][i]
    return t


def char_poly(A: Sequence[Sequence], zero, one) -> tuple:
    """Monic characteristic polynomial det(E*I - A), low degree first.

    Faddeev-LeVerrier recursion; needs only field ops and division by
    small integers, both exact here.
    """
    n = len(A)
    if n == 0:
        return (one,)
    coeffs = [zero] * n + [one]
    N = identity(n, zero, one)
    for k in range(1, n + 1):
        M = mat_mul(A, N, zero)
        ck = -(trace(M, zero) / (one * k))
        coeffs[n - k] = ck
        N = [[M[i][j] + (ck if i == j else zero) for j in range(n)] for i in range(n)]
    return tuple(coeffs)
