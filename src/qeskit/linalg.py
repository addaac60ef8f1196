"""Exact linear algebra over any field with Python arithmetic dunders.

Works uniformly for Fraction and ParamScalar entries.  Matrices are lists
of lists (rows); vectors are lists.  Everything here is pure and exact —
no pivot thresholds, no floating point.  One Gauss-Jordan elimination
(_rref) serves nullspace and every solve, many right-hand sides at a
time; the characteristic polynomial is Berkowitz's division-free
recursion.
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


def solve_many(matrix: Sequence[Sequence], rhss: Sequence[Sequence], zero, one):
    """One exact solution of M x = b for each b in rhss, or None for each
    inconsistent b.  M is reduced once, with every b as an extra column.

    Overdetermined systems are fine; free variables are set to zero, so each
    answer is deterministic and equals the one-column solve of that b.
    """
    if not matrix:
        return [[] if not any(b) else None for b in rhss]
    ncols = len(matrix[0])
    rows = [list(r) + [b[i] for b in rhss] for i, r in enumerate(matrix)]
    pivots = _rref(rows, ncols, one)
    rank = len(pivots)
    sols = []
    for k in range(ncols, ncols + len(rhss)):
        # rows beyond the rank have zero coefficients; b there must be 0
        if any(r[k] for r in rows[rank:]):
            sols.append(None)
            continue
        sol = [zero] * ncols
        for r, pc in zip(rows, pivots):
            sol[pc] = r[k]
        sols.append(sol)
    return sols


def solve_exact(matrix: Sequence[Sequence], rhs: Sequence, zero, one):
    """One exact solution of M x = b, or None if inconsistent."""
    return solve_many(matrix, [rhs], zero, one)[0]


def in_span_many(vectors: Sequence[Sequence], targets: Sequence[Sequence],
                 zero, one):
    """Coordinates of each target in span(vectors), or None for each target
    outside it; one elimination serves every target.

    vectors are given as rows; returns c with sum(c_i * vectors[i]) = target.
    """
    cols = [list(c) for c in zip(*vectors)]  # matrix with vectors as columns
    return solve_many(cols, targets, zero, one)


def in_span(vectors: Sequence[Sequence], target: Sequence, zero, one):
    """Coordinates of target in span(vectors), or None."""
    return in_span_many(vectors, [target], zero, one)[0]


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


def _dot(u, v, zero):
    """sum(u_i * v_i) over the shorter of u and v, skipping zero factors."""
    acc = zero
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


def char_poly(A: Sequence[Sequence], zero, one) -> tuple:
    """Monic characteristic polynomial det(E*I - A), low degree first.

    Berkowitz's recursion over the leading principal submatrices A_k
    (S. J. Berkowitz, Inf. Proc. Letters 18, 1984).  Bordering A_k with the
    row R = A[k][:k], the column C = A[:k][k] and the corner a = A[k][k]
    multiplies the coefficient vector (high degree first) of A_k's
    polynomial by the lower-triangular Toeplitz matrix whose first column
    is 1, -a, -R C, -R A_k C, ..., -R A_k^(k-1) C.  Only ring operations
    are used, so no parameter-field division happens; zero entries are
    skipped.
    """
    n = len(A)
    v = [one]
    for k in range(n):
        row = A[k]
        t = [one, -row[k]]
        w = [A[i][k] for i in range(k)]
        for j in range(k):
            if j:  # w = A_k w
                w = [_dot(A[i], w, zero) for i in range(k)]
            t.append(-_dot(row, w, zero))
        v = [_dot(t[i::-1], v, zero) for i in range(k + 2)]
    return tuple(reversed(v))
