"""Quadratic-extension calculus: lifts, searches, closure, pullback.

Two independent oracles appear here: apply_word_direct re-derives every
lifted word's action from the raw rewrite rules (validating matrix
composition), and mpmath's Jacobi elliptic functions check the pullback's
eigenfunctions against the genuine transcendental equation.
"""

import random
from fractions import Fraction as F

import pytest

from lame_reference import char_poly as reference_char_poly
from lame_reference import lame_pullback as leibniz_lame_pullback
from lame_reference import module_matrix as reference_module_matrix
from qeskit.operators import QuasiDiffOp
from qeskit.quadext import (
    ClosureError,
    FamilyNotFound,
    MatOp,
    PairModule,
    QuadSpace,
    act,
    apply_word_direct,
    check_invariance_quad,
    closure_check,
    fraction_sqrt,
    lame_module_basis,
    lame_preset,
    lame_pullback,
    lift_d,
    lift_f,
    lift_word,
    module_invariance,
    module_spectrum,
    param_sqrt,
    ratfunc_sqrt,
    ratio_sqrt_preset,
    s_generators,
    spectrum_all_real_distinct,
    sqrt_quadratic_preset,
)
from qeskit.scalars import PARAM, PS_ONE, RF_ONE, RatFunc

A = PARAM
X = RatFunc.x()


def test_square_detection():
    assert fraction_sqrt(F(9, 4)) == F(3, 2)
    assert fraction_sqrt(F(2)) is None
    assert param_sqrt((A + 1) * (A + 1)) == A + 1 or param_sqrt(
        (A + 1) * (A + 1)
    ) == -(A + 1)
    assert param_sqrt(A) is None
    sq = (RF_ONE - X) ** 2
    assert ratfunc_sqrt(sq) is not None
    assert ratfunc_sqrt((RF_ONE - X) * (RF_ONE - X * 2)) is None
    r = (RF_ONE - X) / (RF_ONE - X * 2)
    assert ratfunc_sqrt(r * r) is not None


def test_quad_space_rejects_degenerate():
    with pytest.raises(ValueError):
        QuadSpace((RF_ONE - X * X) ** 2, 1, 0)
    with pytest.raises(ValueError):
        QuadSpace(RatFunc(), 1, 0)
    with pytest.raises(ValueError):
        lame_preset(1, 1)  # r becomes (1-x^2)^2
    with pytest.raises(ValueError):
        lame_preset(1, 0)  # degenerate modulus
    with pytest.raises(ValueError):
        lame_preset(1, 2)


def test_lift_rewrite_rules():
    s = sqrt_quadratic_preset(2)
    LF, LD = lift_f(s), lift_d(s)
    assert LF * LF == MatOp.scalar(s.r)
    corr = s.r.deriv() / (s.r * 2)
    assert LD * LF - LF * LD == MatOp.scalar(corr) * LF


def test_lift_action_examples():
    s = sqrt_quadratic_preset(2)
    fd = lift_word(s, "fd")
    assert act(fd, (X, RatFunc())) == (RatFunc(), RF_ONE)
    assert act(fd, (RF_ONE, RatFunc())) == (RatFunc(), RatFunc())
    LF = lift_f(s)
    p, q = X + 1, X * X
    assert act(LF, (p, q)) == (s.r * q, p)
    LD = lift_d(s)
    assert act(LD, (RatFunc(), RF_ONE)) == (RatFunc(), s.r.deriv() / (s.r * 2))


def test_lift_homomorphism_against_direct_oracle():
    rng = random.Random(20250810)
    s_rat = sqrt_quadratic_preset(2, F(1, 2))
    s_sym = ratio_sqrt_preset(1)
    for trial in range(60):
        s = s_rat if trial % 2 else s_sym
        word = "".join(rng.choice("xdf") for _ in range(rng.randrange(1, 6)))
        M = lift_word(s, word)
        cut = rng.randrange(0, len(word) + 1)
        assert lift_word(s, word[:cut]) * lift_word(s, word[cut:]) == M
        v = (
            RatFunc(tuple(F(rng.randrange(-2, 3)) for _ in range(3))),
            RatFunc(tuple(F(rng.randrange(-2, 3)) for _ in range(2))),
        )
        assert act(M, v) == apply_word_direct(s, word, v)


def test_fd_squared_identity():
    s = lame_preset(1)
    LF, LD = lift_f(s), lift_d(s)
    dz = LF * LD
    rhs = MatOp.scalar(s.r) * LD * LD + MatOp.scalar(s.r.deriv() * F(1, 2)) * LD
    assert dz * dz == rhs


def test_invariance_quad_examples():
    for n in (1, 2, 3):
        s = sqrt_quadratic_preset(n)
        assert check_invariance_quad(lift_word(s, "fd"), s).verdict
        rep = check_invariance_quad(lift_d(s), s)
        assert not rep.verdict
        assert rep.witnesses[0].component == "f"


def test_s_generators_families_and_discrepancy():
    for n in (1, 2, 3):
        res = s_generators(sqrt_quadratic_preset(n))
        assert len(res.family) == 3
        by_label = {c.label: c for c in res.reference_checks}
        assert by_label["S3"].invariant and by_label["S3"].in_family_span
        assert not by_label["S1"].invariant
        assert not by_label["S2"].invariant
        assert by_label["S1'"].invariant and by_label["S1'"].in_family_span
        assert by_label["S2'"].invariant and by_label["S2'"].in_family_span
        assert len(res.discrepancies) == 2
    for n in (0, 1, 2):
        res = s_generators(ratio_sqrt_preset(n))
        assert len(res.family) == 3


def test_s_generators_printed_forms_agree_at_lambda_minus_one():
    # at lam = -1 the corrected first operator coincides with the printed one
    res = s_generators(sqrt_quadratic_preset(2, F(-1)))
    by_label = {c.label: c for c in res.reference_checks}
    assert by_label["S1"].invariant
    assert by_label["S3"].invariant


def test_wrong_preset_raises():
    s = QuadSpace((RF_ONE - X) * (RF_ONE - X * 3) * (RF_ONE + X), 1, 0)
    with pytest.raises(FamilyNotFound):
        s_generators(s, degrees=(1, 1, 1, 1))


def test_closure_so3_family():
    for lam in (F(1, 4), F(1, 2), F(3, 4)):
        s = sqrt_quadratic_preset(2, lam)
        res = s_generators(s)
        rep = closure_check(res.family, s)
        assert rep.jacobi_ok
        assert rep.recentered
        assert rep.signature == (2, 1, 0)
        assert "split" in rep.classification
    # symbolic lambda: closure and Jacobi still verified exactly
    s = sqrt_quadratic_preset(1)
    res = s_generators(s)
    rep = closure_check(res.family, s)
    assert rep.jacobi_ok
    assert rep.signature is None


def test_closure_ratio_family():
    s = ratio_sqrt_preset(1, F(1, 2))
    res = s_generators(s)
    rep = closure_check(res.family, s)
    assert rep.jacobi_ok


def test_closure_error_for_nonclosing_set():
    s = sqrt_quadratic_preset(2, F(1, 2))
    fam = s_generators(s).family
    # a second-order product leaves the linear span
    bad = list(fam) + [fam[0] * fam[1]]
    with pytest.raises(ClosureError):
        closure_check(bad, s)


def test_lame_pullback_plain_truncation_fails():
    H, s = lame_pullback(1)
    rep = check_invariance_quad(H, s)
    assert not rep.verdict
    # the polynomial part of the image of 1 has degree 2: exact witness
    w = rep.witnesses[0]
    assert w.basis_label == "1" and w.component == "poly"


def test_lame_module_invariance_symbolic():
    for n in (1, 2, 3):
        H, s = lame_pullback(n)
        mod = lame_module_basis(n)
        assert mod.dim() == n + 1
        assert module_invariance(H, mod) is not None


def test_lame_spectrum_reality():
    for n in (1, 2, 3):
        for k2 in (F(1, 4), F(1, 2), F(3, 4)):
            H, s = lame_pullback(n, k2)
            cp = module_spectrum(H, lame_module_basis(n))
            assert len(cp) - 1 == n + 1
            assert cp[-1] == PS_ONE
            assert spectrum_all_real_distinct(cp)


def test_lame_ground_state_eigenvalue():
    # the gauge function itself: n = 1 module matrix has trace/eigenvalues
    # consistent with the closed form (1+k2)/4 at the module's lowest state
    # only for n = 0; for n = 1 check the exact matrix entries instead
    H, s = lame_pullback(1, F(1, 2))
    mod = lame_module_basis(1)
    M = module_invariance(H, mod)
    vals = [[c.as_fraction() for c in row] for row in M]
    # entries derived by hand: H(x) = 9/4(1+k2) x - t, H(t) = 3 k2 x + (1+k2)/4 t
    assert vals[0][0] == F(9, 4) * F(3, 2)
    assert vals[1][0] == -1
    assert vals[0][1] == 3 * F(1, 2)
    assert vals[1][1] == F(3, 2) / 4


def test_lame_eigenfunctions_against_elliptic_oracle():
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    mp.dps = 30
    m = mpmath.mpf(9) / 25  # k^2 = 9/25
    H, s = lame_pullback(1, F(9, 25))
    mod = lame_module_basis(1)
    M = module_invariance(H, mod)
    vals = [[c.as_fraction() for c in row] for row in M]
    tr = vals[0][0] + vals[1][1]
    det = vals[0][0] * vals[1][1] - vals[0][1] * vals[1][0]
    disc = tr * tr - 4 * det
    sq = mpmath.sqrt(mpmath.mpf(disc.numerator) / disc.denominator)
    for sign in (1, -1):
        E = (mpmath.mpf(tr.numerator) / tr.denominator + sign * sq) / 2
        c1 = mpmath.mpf(vals[0][1].numerator) / vals[0][1].denominator
        c2 = E - mpmath.mpf(vals[0][0].numerator) / vals[0][0].denominator

        def psi(z):
            sn = mpmath.ellipfun("sn", z, m)
            cn = mpmath.ellipfun("cn", z, m)
            dn = mpmath.ellipfun("dn", z, m)
            f = cn * dn
            return mpmath.sqrt(cn + dn) * (c1 * sn + c2 * (1 - f) / sn)

        NN1 = mpmath.mpf(15) / 4  # N(N+1) at N = 3/2
        for z0 in (mpmath.mpf("0.5"), mpmath.mpf("1.1")):
            sn = mpmath.ellipfun("sn", z0, m)
            lhs = -mpmath.diff(psi, z0, 2) + NN1 * m * sn ** 2 * psi(z0)
            assert abs(lhs - E * psi(z0)) < mpmath.mpf(10) ** (-20)


def test_module_spectrum_on_preset_space():
    s = sqrt_quadratic_preset(2, F(1, 2))
    fam = s_generators(s).family
    cp = module_spectrum(fam[0], s)
    assert len(cp) - 1 == s.dim() == 5
    assert cp[-1] == PS_ONE
    with pytest.raises(ValueError):
        module_spectrum(lift_d(s), s)


def test_quad_space_matrix_equals_pair_module_matrix():
    # the read-off against the common-denominator solve it replaced
    s = sqrt_quadratic_preset(2, F(1, 2))
    module = PairModule(tuple(s.basis_pairs()), tuple(s.basis_labels()))
    for M in s_generators(s).family:
        A = s.matrix(M)
        assert A is not None
        assert A == reference_module_matrix(M, module) == module.matrix(M)
    assert s.matrix(lift_d(s)) is None
    assert reference_module_matrix(lift_d(s), module) is None


def test_pair_module_rejects_a_basis_not_in_echelon_form():
    x, one, zero = RatFunc.x(), RatFunc.const(1), RatFunc()
    plain, twisted = (x, zero), (x, -x)
    PairModule((plain, twisted), ("x", "(1-f)*x"))
    bad = [
        (twisted, plain),               # plain's pivot (0, 1) is in twisted
        (plain, plain),
        (plain, (zero, zero)),          # a zero pair has no pivot
        (plain, (one / (x + 1), zero)),  # not Laurent
    ]
    for basis in bad:
        with pytest.raises(ValueError, match="echelon"):
            PairModule(basis, ("u", "v"))


@pytest.mark.parametrize("n, k2", [(n, F(n, 13)) for n in range(1, 13)]
                         + [(n, None) for n in range(1, 5)])
def test_lame_path_matches_leibniz_reference(n, k2):
    """Graded pullback, evaluation action, Laurent denominators and the
    Fraction solve against Leibniz, quotient rule, Euclid and ParamScalar."""
    H, _ = lame_pullback(n, k2)
    ref = leibniz_lame_pullback(n, k2)
    assert all(isinstance(e, QuasiDiffOp) for row in H.rows() for e in row)
    assert H == ref and hash(H) == hash(ref)
    assert H.str("k2") == ref.str("k2")
    module = lame_module_basis(n)
    A = module.matrix(H)
    assert A is not None and A == reference_module_matrix(ref, module)
    assert module_spectrum(H, module) == tuple(reference_char_poly(A))
