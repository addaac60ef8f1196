"""Ladder spaces: bases, generator catalogue, invariance, classification."""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from qeskit import linalg
from qeskit.operators import DiffOp, QuasiDiffOp, QuasiPoly, act, commutator, compose
from qeskit.quadext import s_generators, sqrt_quadratic_preset
from qeskit.scalars import PARAM, PS_ONE, PS_ZERO, ParamScalar, RatFunc, qexp
from qeskit.spaces import (
    FiniteSpace,
    V1Space,
    check_invariance,
    exponent_set_equiv,
    ladder_pattern_exponents,
    make_bosonic,
    make_jumps,
    make_k,
    make_kernels,
    make_mixing,
    make_sl2,
    operator_in_span,
    search_preserving,
    v1_exponents,
)

A = PARAM


def mono(offset, a_part=0):
    return QuasiPoly.monomial(qexp(offset, a_part))


def exps(space):
    return [str(e) for e in space.basis()]


def test_basis_examples():
    assert exps(V1Space(2, 1)) == ["0", "1", "2", "a", "a + 1"]
    assert exps(V1Space(0, 0)) == ["0", "a"]
    # merged regime: union of {0,1} and {2..5}
    assert exps(V1Space(1, 3, 2)) == ["0", "1", "2", "3", "4", "5"]
    # overlap only when a lands in {-m, ..., n}
    assert V1Space(1, 3, 1).has_collision()
    assert exps(V1Space(1, 3, 1)) == ["0", "1", "2", "3", "4"]
    assert not V1Space(1, 3, 2).has_collision()
    assert not V1Space(1, 3, F(1, 2)).has_collision()
    assert exps(V1Space(3)) == ["0", "1", "2", "3"]


def test_sl2_structure_constants():
    js = make_sl2(4)
    assert act(js["jm"], mono(3)) == QuasiPoly.monomial(qexp(2), 3)
    assert commutator(js["j0"], js["jp"]) == js["jp"]
    assert commutator(js["j0"], js["jm"]) == -js["jm"]
    assert commutator(js["jp"], js["jm"]) == js["j0"].scale(-2)
    assert not act(js["jp"], mono(4))  # top annihilation


def test_bosonic_triple_actions():
    B = make_bosonic(2, 3)
    # J0 diagonal with eigenvalue a + j - (m+n+1)/2 on the upper ladder
    out = act(B["J0"], mono(1, 1))
    assert out == QuasiPoly.monomial(qexp(1, 1), A + 1 - F(6, 2))
    assert not act(B["Jp"], mono(3, 1))
    assert act(B["Jp"], mono(0)) == QuasiPoly.monomial(qexp(1), 2 * (3 + A))


def test_kernels():
    ker = make_kernels(1, 2)
    for j in (0, 1):
        assert not act(ker["K"], mono(j))
    for j in (0, 1, 2):
        assert not act(ker["Kprime"], mono(j, 1))
    assert act(make_kernels(1, 0)["K"], mono(0, 1)) == QuasiPoly.monomial(
        qexp(0, 1), A * (A - 1)
    )


def test_kernel_products_preserve():
    s = V1Space(2, 3)
    js = make_sl2(2)
    ks = make_k(3, None)
    ker = make_kernels(2, 3)
    for j in js.values():
        assert check_invariance(compose(j, ker["Kprime"]), s).verdict
    for k in ks.values():
        assert check_invariance(
            QuasiDiffOp.coerce(k) * QuasiDiffOp.coerce(ker["K"]), s
        ).verdict


def test_mixing_contract_and_orientation():
    mix = make_mixing(1, 0, None, 1)
    assert mix.orientation == "n>=m"
    out = mix.Q.act(mono(0, 1))
    assert out == QuasiPoly.monomial(qexp(1), A * (A - 1))
    assert make_mixing(1, 2, None, 1).orientation == "n<=m"
    assert make_mixing(2, 2, None, 0).orientation == "either (n=m)"
    assert make_mixing(2, 2, 1, 0).orientation == "either (n=m)"
    for alpha in (0, 1):
        assert make_mixing(3, 2, 1, alpha).orientation == "either (colliding a)"


def test_mixing_kills_its_target_ladder():
    s = V1Space(2, 1)
    for alpha in range(s.delta + 1):
        mix = make_mixing(2, 1, None, alpha)
        for j in range(3):
            assert not mix.Q.act(mono(j))
        for j in range(2):
            assert not mix.Qbar.act(mono(j, 1))


def test_mixing_rational_a():
    mix = make_mixing(1, 1, F(7, 2), 0)
    s = V1Space(1, 1, F(7, 2))
    assert check_invariance(mix.Q, s).verdict
    out = mix.Q.act(QuasiPoly.monomial(qexp(F(7, 2))))
    assert out == QuasiPoly.monomial(qexp(0), F(7, 2) * F(5, 2))


def test_jump_forms_k2_n0():
    W = make_jumps(0, 3, 2)
    Dv = DiffOp.euler()
    assert W["Wp"] == compose(
        DiffOp.x_power(2), compose(Dv - 5, Dv - 4)
    )
    assert W["Wm"] == compose(DiffOp.x_power(-2), compose(Dv, Dv - 3))
    assert act(W["Wp"], mono(0)) == QuasiPoly.monomial(qexp(2), 4 * 5)
    assert act(W["Wm"], mono(2)) == QuasiPoly.monomial(qexp(0), -2)


def test_jump_behavior_matches_prose():
    # W+ shifts the lower ladder up by k and kills the top k of the upper;
    # W- kills the lower ladder and shifts the k lowest upper monomials down.
    for k in (1, 2, 3, 4):
        for n in range(0, min(2, k) + 1):
            for m in (n + k, n + k + 1):
                W = make_jumps(n, m, k)
                s = V1Space(n, m, k)
                assert check_invariance(W["Wp"], s).verdict
                assert check_invariance(W["Wm"], s).verdict
                for j in range(n + 1):
                    out = act(W["Wp"], mono(j))
                    assert out.terms and out.terms[0][0] == qexp(k + j)
                for j in range(m - k + 1, m + 1):
                    assert not act(W["Wp"], mono(k + j))
                for j in range(n + 1):
                    assert not act(W["Wm"], mono(j))
                for j in range(n + 1):
                    out = act(W["Wm"], mono(k + j))
                    if k > n or j > 0:
                        assert out.terms and out.terms[0][0] == qexp(j)
                    else:
                        # merged edge k = n: the bottom upper monomial is
                        # annihilated instead of shifted
                        assert not out


def test_jump_degeneration_k_eq_n_plus_1():
    for n in (0, 1, 2):
        k = n + 1
        m = n + k + 1
        W = make_jumps(n, m, k)
        js = make_sl2(m + n + 1)
        jm_pow = DiffOp.d(1)
        assert W["Wm"] == DiffOp.d() ** (n + 1)
        assert W["Wp"] == js["jp"] ** (n + 1)


def test_jump_commutators_k2_n0():
    m = 4
    W = make_jumps(0, m, 2)
    B = make_bosonic(0, m, 2)
    Dv = DiffOp.euler()
    lhs = commutator(W["Wp"], B["Jp"])
    rhs = compose(
        DiffOp.x_power(3),
        compose(Dv - (m + 2), compose(Dv - (m + 1), Dv - m)),
    ).scale(-2)
    assert lhs == rhs
    lhs2 = commutator(W["Wp"], B["Jm"])
    rhs2 = compose(
        DiffOp.mult(RatFunc.x()),
        compose(Dv, compose(Dv - (m + 2), Dv - F(2 * (m + 2), 3))),
    ).scale(-6)
    assert lhs2 == rhs2


def test_check_invariance_examples():
    for n in range(3):
        for m in range(3):
            B = make_bosonic(n, m)
            s = V1Space(n, m)
            for op in B.values():
                assert check_invariance(op, s).verdict
    rep = check_invariance(DiffOp.d(), V1Space(1, 1))
    assert not rep.verdict
    w = rep.witnesses[0]
    assert w.output_exponent == qexp(-1, 1)
    assert w.coefficient == A


def test_search_identity_only():
    ops = search_preserving(V1Space(1, 1), 0, 0, 0)
    assert len(ops) == 1 and ops[0] == DiffOp.identity()


def test_search_v1_22_contains_catalogue():
    s = V1Space(2, 2)
    sols = search_preserving(s, 2, -1, 1)
    assert len(sols) == 5
    B = make_bosonic(2, 2)
    for op in (DiffOp.identity(), B["J0"], B["Jp"], B["Jm"]):
        assert operator_in_span(op, sols) is not None
    for op in sols:
        assert check_invariance(op, s).verdict


def test_search_rational_specialization_dimension():
    sols = search_preserving(V1Space(2, 2), 2, -1, 1)
    for a0 in (F(1, 2), F(7, 3)):
        spec = search_preserving(V1Space(2, 2, a0), 2, -1, 1)
        assert len(spec) == len(sols)


def test_search_classical_polynomial_space():
    # P_n alone: the first-order family is spanned by 1, d, xd, x^2 d - n x
    s = V1Space(3)
    sols = search_preserving(s, 1, -1, 2)
    assert len(sols) == 4
    js = make_sl2(3)
    for op in (DiffOp.identity(), js["jm"], js["j0"], js["jp"]):
        assert operator_in_span(op, sols) is not None


def test_search_finds_jump_operators():
    # with a = k integer the search discovers the down-jump at degree -k
    s = V1Space(0, 3, 2)
    sols = search_preserving(s, 2, -2, -2)
    W = make_jumps(0, 3, 2)
    assert operator_in_span(W["Wm"], sols) is not None


def test_exponent_set_equivalences():
    # identity substitution: equality of spaces as exponent sets
    lhs = v1_exponents(1, 1, A)
    assert exponent_set_equiv(lhs, ParamScalar.const(1), lhs)
    assert not exponent_set_equiv(
        lhs, ParamScalar.const(1), v1_exponents(1, 1, A + 1)
    )
    # ladder relation: V1(N, s=0, 1/(a-1)) under x -> x^(a-1)
    for N in (2, 3, 4):
        m = N - 2
        lhs = v1_exponents(0, m, 1 / (A - 1))
        rhs = ladder_pattern_exponents(A - 1, 0, m)
        assert exponent_set_equiv(lhs, A - 1, rhs)
    # ladder relation: V1(N, s, 1/a) under x -> x^a
    for N, s_deg in ((3, 0), (3, 1), (4, 2)):
        m = N - s_deg - 2
        lhs = v1_exponents(s_deg, m, 1 / A)
        rhs = ladder_pattern_exponents(A, s_deg, m)
        assert exponent_set_equiv(lhs, A, rhs)


def _catalogue(s: V1Space) -> list:
    """Every catalogue generator for s, plus a few plain monomials."""
    n, m, a = s.n, s.m, s.a
    ops = [DiffOp.d(), DiffOp.x_power(1), compose(DiffOp.x_power(2), DiffOp.d())]
    for family in (make_sl2(n), make_k(n, a), make_bosonic(n, m, a),
                   make_kernels(n, m, a)):
        ops.extend(family.values())
    for alpha in range(s.delta + 1):
        mix = make_mixing(n, m, a, alpha)
        ops.extend((mix.Q, mix.Qbar))
    if a is not None and a.denominator == 1 and a >= 1 and n <= a <= m - n:
        ops.extend(make_jumps(n, m, int(a)).values())
    return ops


def test_matrix_is_none_exactly_when_not_invariant():
    # generic a, a non-colliding rational a, and two colliding integer a
    for s in (V1Space(2, 3), V1Space(2, 3, F(1, 2)), V1Space(1, 3, 1),
              V1Space(3, 2, 1)):
        verdicts = set()
        basis = s.basis()
        for op in _catalogue(s):
            verdict = check_invariance(op, s).verdict
            A = s.matrix(op)
            assert (A is None) == (not verdict), (s, op)
            verdicts.add(verdict)
            if A is None:
                continue
            # column j holds the coordinates of the image of basis[j]
            q = QuasiDiffOp.coerce(op)
            for j, e in enumerate(basis):
                image = QuasiPoly()
                for i, f in enumerate(basis):
                    image = image + QuasiPoly.monomial(f, A[i][j])
                assert image == q.act(QuasiPoly.monomial(e))
        assert verdicts == {True, False}, s


def _per_pair_table(s, ops):
    """commutator_coords written out: one in_span solve per commutator."""
    def flat(A):
        return [v for row in A for v in row]

    span = [flat(s.matrix(op)) for op in ops]
    span.append(flat(linalg.identity(s.dim(), PS_ZERO, PS_ONE)))
    table = {}
    for i, A in enumerate(ops):
        for j, B in enumerate(ops):
            if i != j:
                C = commutator(A, B)
                M = s.matrix(C)
                table[(i, j)] = (C, None if M is None else
                                 linalg.in_span(span, flat(M), PS_ZERO, PS_ONE))
    return table


def test_commutator_coords_equals_per_pair_in_span():
    cases = [
        (V1Space(3), list(make_sl2(3).values())),
        (V1Space(2, 3), list(make_bosonic(2, 3).values())),
        (V1Space(2, 3, F(1, 2)), list(make_bosonic(2, 3, F(1, 2)).values())),
        (V1Space(1, 3, 1), list(make_bosonic(1, 3, 1).values())),
        # d^2 preserves P_3 but [Jp, d^2] leaves the span: None entries
        (V1Space(3), list(make_sl2(3).values()) + [DiffOp.d(2)]),
        (sqrt_quadratic_preset(1, F(1, 2)),
         list(s_generators(sqrt_quadratic_preset(1, F(1, 2))).family)),
    ]
    saw_none = False
    for s, ops in cases:
        table = s.commutator_coords(ops)
        assert table == _per_pair_table(s, ops), s
        saw_none |= any(coords is None for _, coords in table.values())
    assert saw_none


# ---------------------------------------------------------------------------
# The matrix read-off of FiniteSpace against a dense elimination
# ---------------------------------------------------------------------------


class _TermSpace(FiniteSpace):
    """A space given directly by its basis and images as term maps."""

    def __init__(self, basis, images):
        self.basis, self.images = basis, images

    def _terms(self):
        return [dict(v) for v in self.basis]

    def _images(self, op):
        return [dict(w) for w in self.images]


_KEYS = 6
_POOLS = {
    "Q": (F(0), F(1), [F(-2), F(-1), F(1, 2), F(1), F(3)]),
    "Q(a)": (PS_ZERO, PS_ONE, [A, A + 1, 1 / A, A * A - 2, PS_ONE * 2, -A / 3]),
}


@st.composite
def echelon_cases(draw):
    """A basis in echelon order (each pivot, the largest key of its vector,
    occurs in no earlier vector), and images that are combinations of it,
    one of them pushed off by an extra term half of the time."""
    zero, one, pool = _POOLS[draw(st.sampled_from(sorted(_POOLS)))]
    nonzero = st.sampled_from(pool)
    d = draw(st.integers(1, 4))
    pivots = draw(st.permutations(range(_KEYS)))[:d]
    basis = []
    for k, p in enumerate(pivots):
        v = {p: draw(nonzero)}
        for key in set(range(p)) - set(pivots[k + 1:]):
            if draw(st.booleans()):
                v[key] = draw(nonzero)
        basis.append(v)
    images = []
    for _ in range(d):
        w = {}
        for v in basis:
            c = draw(st.sampled_from([zero] + pool))
            for key, t in v.items():
                w[key] = w.get(key, zero) + c * t
        images.append(w)
    if draw(st.booleans()):
        w = images[draw(st.integers(0, d - 1))]
        key = draw(st.integers(0, _KEYS - 1))
        w[key] = w.get(key, zero) + draw(nonzero)
    return zero, one, basis, [{k: c for k, c in w.items() if c} for w in images]


@settings(max_examples=60, deadline=None)
@given(echelon_cases())
def test_matrix_read_off_matches_elimination(case):
    zero, one, basis, images = case
    dense = lambda v: [v.get(key, zero) for key in range(_KEYS)]
    cols = linalg.in_span_many([dense(v) for v in basis],
                               [dense(w) for w in images], zero, one)
    expected = None if None in cols else [list(r) for r in zip(*cols)]
    assert _TermSpace(basis, images).matrix(None) == expected
