import itertools
import os
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import X0_71_COEFFS, run_python
from oracles import canonical_divisor, even_infinity_valuation, from_x_poly, poly
from primpoints import hyperell, numfield, pipeline
from primpoints.arith import (
    Factorization,
    UniPoly,
    _valuation_at,
    factor_over_Q,
    hensel_sqrt,
    rational_sqrt,
)
from primpoints.errors import (
    BadInput,
    DegreeTooSmall,
    InfinitePlace,
    IrrationalInfinitePlaces,
    NotInLinearSeries,
    NotSquarefree,
    UnsupportedDivisorShape,
    VerificationFailed,
    ZeroFunction,
)
from primpoints.formats import parse_coeff_text, parse_divisor, parse_mw_file, parse_poly
from primpoints.hyperell import (
    INERT,
    OO,
    OO_MINUS,
    OO_PLUS,
    RAM,
    SPLIT,
    ClosedPoint,
    CurveFunction,
    Divisor,
    HyperCurve,
    _assert_in_space,
    _infinity_orders,
    classify_place,
    curve_new,
    decompose_effective,
    divisor_of_function,
    point_field,
    rr_space,
    rr_space_infty,
)
from primpoints.linalg import kernel_basis

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

X0_71 = curve_new(UniPoly.make(X0_71_COEFFS))
C_X6 = curve_new(poly(1, 0, 0, 0, 0, 0, 1))  # y^2 = x^6 + 1, genus 2 even
C_X8 = curve_new(poly(1, 0, 0, 0, 0, 0, 0, 0, 1))  # y^2 = x^8 + 1, genus 3 even
C_X5 = curve_new(poly(1, 0, 0, 0, 0, 1))  # y^2 = x^5 + 1, genus 2 odd


def test_curve_new_examples():
    assert X0_71.genus == 6 and X0_71.parity == "even"
    assert len(X0_71.infinite_places) == 2
    assert C_X5.genus == 2 and C_X5.parity == "odd"
    assert C_X6.genus == 2 and C_X6.parity == "even"


def test_curve_new_errors():
    with pytest.raises(NotSquarefree):
        curve_new(poly(0, 0, 1) * poly(1, 1) ** 2 * poly(1, 0, 1))
    with pytest.raises(DegreeTooSmall):
        curve_new(poly(1, 0, 0, 0, 1))
    with pytest.raises(IrrationalInfinitePlaces):
        curve_new(poly(1, 0, 0, 0, 0, 0, 2))  # lc 2 is not a square


def _series_sqrt(coeffs, nterms, s0):
    """Power series sqrt of sum coeffs[i] t^i with constant term s0^2.

    Test-only copy of the Fraction recurrence that `_y_series_scaled` used
    before it ran in integers; `_fraction_y_series` is its old body.
    """
    out = [Fraction(s0)]
    inv2s = 1 / (2 * Fraction(s0))
    for n in range(1, nterms):
        acc = coeffs[n] if n < len(coeffs) else Fraction(0)
        for i in range(1, n):
            acc -= out[i] * out[n - i]
        out.append(acc * inv2s)
    return out


def _fraction_y_series(curve, nterms):
    """(L, N) of `_y_series_scaled` from the Fraction series and one lcm pass."""
    n = curve.f.degree
    reversed_f = [curve.f.coeff(n - i) for i in range(n + 1)]
    series = _series_sqrt(reversed_f, nterms, rational_sqrt(curve.f.lc))
    den = lcm(*(c.denominator for c in series))
    return den, tuple(c.numerator * (den // c.denominator) for c in series)


def test_series_sqrt_binomial_oracle():
    # sqrt(1 + t^2) = 1 + t^2/2 - t^4/8 + t^6/16 - ...
    s = _series_sqrt([Fraction(1), Fraction(0), Fraction(1)], 8, 1)
    assert s[0] == 1 and s[2] == Fraction(1, 2)
    assert s[4] == Fraction(-1, 8) and s[6] == Fraction(1, 16)
    assert all(s[i] == 0 for i in (1, 3, 5, 7))
    # binomial(1/2, k) oracle
    from math import comb

    def binom_half(k):
        # C(1/2, k) = (-1)^(k-1) * C(2k, k) / (4^k * (2k - 1))
        if k == 0:
            return Fraction(1)
        return Fraction((-1) ** (k - 1) * comb(2 * k, k), 4**k * (2 * k - 1))

    for k in range(4):
        assert s[2 * k] == binom_half(k)


def test_x0_71_leading_expansion():
    # y = +-(sqrt(lc) t^-(g+1) + ...) at oo+-, t = 1/x: pole order g + 1 = 7
    L, N = hyperell._y_series_scaled(X0_71, hyperell._series_length(4))
    assert Fraction(N[0], L) == 1  # the leading coefficient of X0(71) is 1
    one, x7 = UniPoly.one(), UniPoly.make([0] * 7 + [1])

    def orders(u, v):
        return _infinity_orders(X0_71, u, v, u * u - v * v * X0_71.f)

    for place in (OO_PLUS, OO_MINUS):
        assert orders(UniPoly.zero(), one)[place] == -7
    # y - x^7 loses the pole at oo+ only, y + x^7 at oo- only
    assert orders(-x7, one)[OO_PLUS] > -7
    assert orders(-x7, one)[OO_MINUS] == -7
    assert orders(x7, one)[OO_MINUS] > -7
    assert orders(x7, one)[OO_PLUS] == -7


@st.composite
def even_models_with_square_lc(draw):
    """Even models with rational coefficients and a square lc other than 1."""
    n = draw(st.sampled_from([6, 8]))
    fracs = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    root = draw(st.fractions(min_value=1, max_value=20, max_denominator=15).filter(lambda r: r != 1))
    return _curve_or_reject(UniPoly.make(draw(st.lists(fracs, min_size=n, max_size=n)) + [root * root]))


@given(curve=even_models_with_square_lc(), nterms=st.sampled_from([64, 128]))
@example(curve=curve_new(parse_poly("4/9*x^6+7/5*x+1")), nterms=64)
@example(curve=curve_new(UniPoly.make([1, 1] + [0] * 4 + [123456789**2])), nterms=128)
@settings(max_examples=20, deadline=None)
def test_integer_series_matches_the_fraction_series(curve, nterms):
    assert hyperell._y_series_scaled.__wrapped__(curve, nterms) == _fraction_y_series(curve, nterms)


def fraction_polys(max_degree):
    fracs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    return st.lists(fracs, max_size=max_degree + 1).map(UniPoly.make)


@given(
    curve=even_models_with_square_lc(),
    u=fraction_polys(12),
    v=fraction_polys(6),
    cancel=st.booleans(),
    sign=st.sampled_from([1, -1]),
)
@example(curve=X0_71, u=poly(0, 0, 0, 0, 0, 0, 0, 1), v=poly(1), cancel=True, sign=1)
@example(curve=X0_71, u=poly(0, 0, 0, 0, 0, 0, 0, 1), v=poly(1), cancel=True, sign=-1)
@settings(max_examples=40, deadline=None)
def test_infinity_orders_match_the_series_of_y(curve, u, v, cancel, sign):
    # with cancel set, u's top coefficient is -sign * a * lc(v), a = sqrt(lc f),
    # at the degree of v*y, so that u + v*y loses its leading term at oo+
    # (sign 1) or at oo- (sign -1)
    if cancel and not v.is_zero:
        top = v.degree + curve.genus + 1
        coeffs = [u.coeff(i) for i in range(top)]
        u = UniPoly.make(coeffs + [-sign * rational_sqrt(curve.f.lc) * v.lc])
    assume(not (u.is_zero and v.is_zero))
    expected = {pl: even_infinity_valuation(curve, u, v, pl) for pl in (OO_PLUS, OO_MINUS)}
    assert _infinity_orders(curve, u, v, u * u - v * v * curve.f) == expected


def test_divisor_of_x_on_odd_curve():
    w = from_x_poly(poly(0, 1))
    div = divisor_of_function(C_X5, w)
    assert div.degree == 0
    inf = ClosedPoint.infinite(OO)
    assert div.multiplicity(inf) == -2
    affine = div.affine_terms()
    assert len(affine) == 2
    for pt, mult in affine:
        assert pt.branch == SPLIT and mult == 1 and pt.p == poly(0, 1)
    qs = sorted(str(pt.q) for pt, _ in affine)
    assert qs == ["-1", "1"]


def test_divisor_of_y_on_odd_curve():
    w = CurveFunction.make(UniPoly.zero(), UniPoly.one())
    div = divisor_of_function(C_X5, w)
    assert div.degree == 0
    assert div.multiplicity(ClosedPoint.infinite(OO)) == -5
    for pt, mult in div.affine_terms():
        assert pt.branch == RAM and mult == 1
    assert sum(pt.degree for pt, _ in div.affine_terms()) == 5


def test_divisor_of_constant():
    w = CurveFunction.constant(5)
    assert divisor_of_function(C_X5, w) == Divisor.zero()
    with pytest.raises(ZeroFunction):
        divisor_of_function(C_X5, CurveFunction.constant(0))


def test_divisor_with_denominator():
    # w = 1/x on y^2 = x^5 + 1
    w = CurveFunction.make(UniPoly.one(), UniPoly.zero(), poly(0, 1))
    div = divisor_of_function(C_X5, w)
    assert div.degree == 0
    assert div.multiplicity(ClosedPoint.infinite(OO)) == 2


def small_polys(max_degree):
    return st.lists(
        st.integers(min_value=-4, max_value=4), min_size=0, max_size=max_degree + 1
    ).map(UniPoly.make)


@given(small_polys(4), small_polys(2), small_polys(2))
@settings(max_examples=25, deadline=None)
def test_principal_divisor_degree_zero(u, v, den):
    if (u.is_zero and v.is_zero) or den.is_zero:
        return
    for curve in (C_X6, C_X5):
        w = CurveFunction.make(u, v, den.monic())
        if w.is_zero:
            return
        assert divisor_of_function(curve, w).degree == 0


@given(small_polys(3), small_polys(2), small_polys(2), small_polys(3), small_polys(2))
@settings(max_examples=25, deadline=None)
def test_adding_a_function_with_denominator_1_keeps_the_sum_reduced(u, v, den, a, b):
    assume(not den.is_zero)
    w = CurveFunction.make(u, v, den)
    polynomial = CurveFunction.make(a, b)
    for total in (w + polynomial, polynomial + w, w - polynomial, polynomial - w):
        assert total == CurveFunction.make(total.u, total.v, total.den)
    assert w + polynomial == CurveFunction.make(w.u + a * w.den, w.v + b * w.den, w.den)


def test_a_sum_of_two_fractions_is_still_reduced():
    # 1/x + (x - 1)/x = 1: both denominators are x, so the sum needs its gcd
    one_over_x = CurveFunction.make(poly(1), poly(), poly(0, 1))
    rest = CurveFunction.make(poly(-1, 1), poly(), poly(0, 1))
    assert one_over_x + rest == CurveFunction.constant(1)


def test_one_fiber_shift_runs_no_poly_gcd(monkeypatch):
    curve, witness, _ = pipeline.construct_primitive_curve(parse_poly("x^3-2"), 0)
    w = next(b for b in rr_space(curve, Divisor.make([(witness, 1)])).basis if not b.is_constant)
    assert w.den.degree > 0
    calls = []
    monkeypatch.setattr(hyperell, "poly_gcd", lambda a, b: calls.append((a, b)))
    shifted = w - CurveFunction.constant(Fraction(-37, 29))
    assert calls == []
    assert shifted.den == w.den and shifted.u == w.u + w.den.scale(Fraction(37, 29))


def test_rr_space_infty_basis_claims():
    # genus 2 even model: l(oo+ + oo- twice) = 3 with basis 1, x, x^2
    space = rr_space_infty(C_X6, 2, 2)
    assert space.dim == 3
    monomials = sorted(w.u.literal() for w in space.basis)
    assert monomials == ["1", "x", "x^2"]
    assert all(w.v.is_zero for w in space.basis)

    # genus 3 even model: Clifford equality case, still dimension 3
    space8 = rr_space_infty(C_X8, 2, 2)
    assert space8.dim == 3

    # only constants at bound zero
    space0 = rr_space_infty(C_X6, 0, 0)
    assert space0.dim == 1
    assert space0.basis[0].u == UniPoly.one()


def test_rr_space_infty_negative_bounds():
    assert rr_space_infty(C_X6, -1, 0).dim == 0
    assert rr_space_infty(C_X6, 3, -3).dim == 1  # divisor class of 3(oo+ - oo-)
    assert rr_space_infty(C_X5, -2).dim == 0


def test_rr_odd_closed_form():
    # genus 2 odd: l((g+1) oo) = g/2 + 1 = 2 with basis 1, x
    space = rr_space_infty(C_X5, 3)
    assert space.dim == 2
    assert sorted(w.u.literal() for w in space.basis) == ["1", "x"]
    # y enters once the bound reaches 2g+1 = 5
    assert rr_space_infty(C_X5, 5).dim == 4  # 1, x, x^2, y


def test_rr_odd_infinity_basis_is_monomial_staircase():
    # genus 2, 3 and 4 odd models of the Riemann-Roch sweep
    curves = [
        C_X5,
        curve_new(poly(2, 0, 0, 0, 0, 0, 0, 1)),
        curve_new(poly(1, 1, 0, 0, 0, 0, 0, 0, 0, 1)),
    ]
    for curve in curves:
        g = curve.genus
        for n in range(-3, 4 * g + 3):
            expected = [
                from_x_poly(UniPoly.x() ** i) for i in range(n + 1) if 2 * i <= n
            ] + [
                CurveFunction.make(UniPoly.zero(), UniPoly.x() ** j)
                for j in range(n + 1)
                if 2 * j + 2 * g + 1 <= n
            ]
            space = rr_space_infty(curve, n)
            assert space.basis == tuple(expected), (g, n)
            assert space.dim == len(expected)


def test_rr_space_infty_rejects_wrong_parity_arguments():
    with pytest.raises(UnsupportedDivisorShape):
        rr_space_infty(C_X5, 2, 2)
    with pytest.raises(UnsupportedDivisorShape):
        rr_space_infty(C_X6, 2)


def riemann_roch_check(curve, coeffs):
    if curve.parity == "even":
        n_plus, n_minus = coeffs
        D = Divisor.make(
            [
                (ClosedPoint.infinite(OO_PLUS), n_plus),
                (ClosedPoint.infinite(OO_MINUS), n_minus),
            ]
        )
        ell = rr_space_infty(curve, n_plus, n_minus).dim
        K = canonical_divisor(curve)
        kd = K - D
        ell_K = rr_space_infty(
            curve,
            kd.infinite_coefficient(OO_PLUS),
            kd.infinite_coefficient(OO_MINUS),
        ).dim
    else:
        (n,) = coeffs
        D = Divisor.make([(ClosedPoint.infinite(OO), n)])
        ell = rr_space_infty(curve, n).dim
        K = canonical_divisor(curve)
        ell_K = rr_space_infty(curve, (K - D).infinite_coefficient(OO)).dim
    return ell - ell_K == D.degree - curve.genus + 1


def test_riemann_roch_identity_spot_checks():
    for np_, nm in [(0, 0), (2, 2), (3, -1), (-2, 5), (4, 4), (1, 0)]:
        assert riemann_roch_check(C_X6, (np_, nm))
        assert riemann_roch_check(C_X8, (np_, nm))
    for n in [-1, 0, 1, 3, 5, 7, 8]:
        assert riemann_roch_check(C_X5, (n,))


def test_clifford_bound_spot_checks():
    g = C_X8.genus
    K = canonical_divisor(C_X8)
    for np_ in range(0, 2 * g - 1):
        for nm in range(0, 2 * g - 1 - np_):
            D = Divisor.make(
                [
                    (ClosedPoint.infinite(OO_PLUS), np_),
                    (ClosedPoint.infinite(OO_MINUS), nm),
                ]
            )
            kd = K - D
            ell_K = rr_space_infty(
                C_X8,
                kd.infinite_coefficient(OO_PLUS),
                kd.infinite_coefficient(OO_MINUS),
            ).dim
            if ell_K == 0:
                continue  # not special
            ell = rr_space_infty(C_X8, np_, nm).dim
            assert 2 * (ell - 1) <= D.degree


def test_canonical_divisor():
    K71 = canonical_divisor(X0_71)
    assert K71.degree == 10
    assert K71.infinite_coefficient(OO_PLUS) == 5
    assert K71.infinite_coefficient(OO_MINUS) == 5
    K5 = canonical_divisor(C_X5)
    assert K5.degree == 2 and K5.infinite_coefficient(OO) == 2


def test_basis_membership_via_divisor_recheck():
    # independent cross-check of the two code paths
    space = rr_space_infty(C_X6, 3, 1)
    D = space.divisor
    for w in space.basis:
        total = divisor_of_function(C_X6, w) + D
        assert total.is_effective


def test_failed_rechecks_raise_verification_failed():
    # x has simple poles at oo+ and oo-, so it is not in L(0)
    x = from_x_poly(poly(0, 1))
    with pytest.raises(VerificationFailed):
        _assert_in_space(C_X6, x, Divisor.zero())
    oo_both = Divisor.make((ClosedPoint.infinite(pl), 1) for pl in (OO_PLUS, OO_MINUS))
    _assert_in_space(C_X6, x, oo_both)
    # 1/x has poles at the two points over x = 0
    inv = CurveFunction.make(UniPoly.one(), UniPoly.zero(), poly(0, 1))
    with pytest.raises(VerificationFailed):
        _assert_in_space(C_X6, inv, Divisor.zero())


def test_rr_space_affine_pole_permission():
    # y^2 = x^6 - 4 = (x^3-2)(x^3+2); L(P) for P the ramified point over x^3-2
    curve = curve_new(poly(-4, 0, 0, 0, 0, 0, 1))
    p = poly(-2, 0, 0, 1)
    assert classify_place(curve, p)[0] == RAM
    P = ClosedPoint.affine(p, RAM)
    D = Divisor.make([(P, 1)])
    space = rr_space(curve, D)
    # deg D = 3 = g + 1 on genus 2: Riemann-Roch forces dim 2
    assert space.dim == 2
    nonconst = [w for w in space.basis if not w.is_constant]
    assert nonconst
    w = nonconst[0]
    div = divisor_of_function(curve, w)
    assert (div + D).is_effective


# one place of each kind per model: the split pair over x (y = +-1), a
# ramified place (degree 1 on the odd model, degree 2 on the even one) and
# the inert place over x - 1 (y^2 = 2)
RR_MODELS = {
    "odd": (C_X5, poly(1, 1)),
    "even": (C_X6, poly(1, 0, 1)),
}


# a divisor with one place of each kind, an optional tilt between oo+ and
# oo-, and degree at least 2g - 1
AFFINE_DIVISORS = dict(
    model=st.sampled_from(sorted(RR_MODELS)),
    split_q=st.integers(0, 2),
    split_conj=st.integers(0, 2),
    ram=st.integers(0, 4),
    inert=st.integers(0, 1),
    extra=st.integers(0, 2),
    tilt=st.integers(-2, 2),
)


def affine_divisor(model, split_q, split_conj, ram, inert, extra, tilt):
    curve, ram_p = RR_MODELS[model]
    g = curve.genus
    branch, q = classify_place(curve, poly(0, 1))
    assert branch == SPLIT
    split = ClosedPoint.affine(poly(0, 1), SPLIT, q)
    assert classify_place(curve, ram_p)[0] == RAM
    assert classify_place(curve, poly(-1, 1))[0] == INERT
    affine = Divisor.make(
        [
            (split, split_q),
            (split.conjugate(), split_conj),
            (ClosedPoint.affine(ram_p, RAM), ram),
            (ClosedPoint.affine(poly(-1, 1), INERT), inert),
        ]
    )
    n = 2 * g - 1 - affine.degree + extra  # may be negative: zeros at infinity
    if curve.parity == "even":
        infinity = [(ClosedPoint.infinite(OO_PLUS), tilt), (ClosedPoint.infinite(OO_MINUS), n - tilt)]
    else:
        infinity = [(ClosedPoint.infinite(OO), n)]
    return curve, affine + Divisor.make(infinity)


@given(**AFFINE_DIVISORS)
@example(model="odd", split_q=1, split_conj=0, ram=0, inert=0, extra=0, tilt=0)
@example(model="even", split_q=2, split_conj=1, ram=0, inert=0, extra=0, tilt=0)
@example(model="odd", split_q=0, split_conj=0, ram=1, inert=0, extra=0, tilt=0)
@example(model="odd", split_q=0, split_conj=0, ram=2, inert=0, extra=1, tilt=0)
@example(model="odd", split_q=0, split_conj=0, ram=3, inert=0, extra=0, tilt=0)
@example(model="even", split_q=0, split_conj=0, ram=4, inert=0, extra=0, tilt=1)
@example(model="even", split_q=0, split_conj=0, ram=0, inert=1, extra=0, tilt=-2)
@example(model="odd", split_q=1, split_conj=1, ram=2, inert=1, extra=2, tilt=0)
def test_riemann_roch_with_affine_parts(model, split_q, split_conj, ram, inert, extra, tilt):
    curve, D = affine_divisor(model, split_q, split_conj, ram, inert, extra, tilt)
    g = curve.genus
    assert D.degree >= 2 * g - 1
    assert rr_space(curve, D).dim == D.degree - g + 1


# ---------------------------------------------------------------------------
# rr_space against one kernel over every U and V column


@given(
    degree=st.sampled_from([5, 6, 7]),
    coeffs=st.lists(st.integers(-5, 5), min_size=7, max_size=7),
    lc=st.integers(1, 3),
    u=small_polys(4),
    v=small_polys(2),
    den=small_polys(2),
)
@settings(max_examples=30, deadline=None)
def test_the_involution_commutes_with_the_principal_divisor(degree, coeffs, lc, u, v, den):
    # iota: y -> -y is defined over Q, so div(iota*w) = iota*div(w)
    assume(not (u.is_zero and v.is_zero) and not den.is_zero)
    curve = _curve_or_reject(UniPoly.make(coeffs[:degree] + [lc ** (2 - degree % 2)]))
    w = CurveFunction.make(u, v, den)
    assert w.conjugate() == CurveFunction.make(u, -v, den)
    div = divisor_of_function(curve, w)
    assert divisor_of_function(curve, w.conjugate()) == div.conjugate()
    assert div.conjugate().conjugate() == div


@given(**dict(AFFINE_DIVISORS, extra=st.integers(-5, 2)))
@example(model="odd", split_q=2, split_conj=0, ram=1, inert=0, extra=-5, tilt=0)
@example(model="even", split_q=1, split_conj=0, ram=0, inert=0, extra=-3, tilt=2)
@settings(max_examples=30, deadline=None)
def test_the_involution_maps_l_of_d_onto_l_of_its_conjugate(
    model, split_q, split_conj, ram, inert, extra, tilt
):
    # L(iota*D) = iota*L(D), also below degree 2g - 1, where l(D) is not
    # fixed by the degree
    curve, D = affine_divisor(model, split_q, split_conj, ram, inert, extra, tilt)
    space = rr_space(curve, D)
    assert rr_space(curve, D.conjugate()).dim == space.dim
    for w in space.basis:
        _assert_in_space(curve, w.conjugate(), D.conjugate())


def _infinity_rows(curve, bound_plus, bound_minus, B):
    """Integer rows of the pole conditions at oo+ and oo- on U + V y.

    The candidate span is {x^i} + {x^j y} with i, j <= B (columns 0..B carry
    U, columns B+1.. carry V).  One row per Laurent coefficient below the
    allowed pole order at oo+ and at oo- forbids it.
    """
    if B < 0:
        return []
    g = curve.genus
    ncols = 2 * (B + 1)
    low = -(B + g + 1)
    nterms = B + g + 2 + max(0, -bound_plus, -bound_minus) + 2
    den, nums = hyperell._y_series_scaled(curve, hyperell._series_length(nterms))
    rows = []
    for sign, bound in ((1, bound_plus), (-1, bound_minus)):
        for e in range(low, -bound):
            # the coefficient of t^e in x^j y is +-S[e + j + g + 1]
            row = [0] * ncols
            if e <= 0 and -e <= B:
                row[-e] = den
            start = max(0, -(e + g + 1))
            window = nums[e + g + 1 + start : e + g + 2 + B]
            row[B + 1 + start :] = window if sign == 1 else [-v for v in window]
            rows.append(row)
    return rows


def full_kernel_basis(curve, D):
    """The basis of L(D) from every pole condition as a row and one kernel
    over all U and V columns, as rr_space built it before it solved the
    conditions at infinity for U.  On even models it keeps the wide span
    deg U, deg V <= M + g + 2, M = max(n+, n-) + deg h, so it does not rest
    on the tight bounds deg U <= M and deg V <= M - g - 1 of rr_space."""
    h, congruences = hyperell._affine_conditions(curve, D.affine_terms())
    dh = h.degree
    if curve.parity == "even":
        n_plus = D.infinite_coefficient(OO_PLUS)
        n_minus = D.infinite_coefficient(OO_MINUS)
        Bu = Bv = max(max(n_plus, n_minus) + dh + curve.genus + 2, -1)
        rows = _infinity_rows(curve, n_plus + dh, n_minus + dh, Bu)
    else:
        n_eff = D.infinite_coefficient(OO) + 2 * dh
        Bu = max(n_eff // 2, -1)
        Bv = max((n_eff - (2 * curve.genus + 1)) // 2, -1)
        rows = []
    rows += hyperell._congruence_rows(congruences, Bu, Bv)
    return tuple(
        CurveFunction.make(UniPoly.make(vec[: Bu + 1]), UniPoly.make(vec[Bu + 1 :]), h)
        for vec in kernel_basis(rows, Bu + Bv + 2)
    )


def test_rr_space_matches_the_full_kernel_over_the_sweep_window():
    # every D of the Riemann-Roch criterion's window -2g <= n <= 2g + 4 on
    # the sweep curves: one-sided ranges, and B < 0 from genus 3 on
    with open(os.path.join(FIXTURES, "rr_sweep_curves.txt")) as fh:
        lines = [line.split(":") for line in fh if line.strip() and not line.startswith("#")]
    assert len(lines) == 8
    for label, coeffs in lines:
        curve = curve_new(parse_coeff_text(coeffs))
        g = curve.genus
        span = range(-2 * g, 2 * g + 5)
        places = [ClosedPoint.infinite(place) for place in curve.infinite_places]
        for bounds in itertools.product(span, repeat=len(places)):
            D = Divisor.make(zip(places, bounds))
            assert rr_space(curve, D).basis == full_kernel_basis(curve, D), (label, bounds)


@given(**AFFINE_DIVISORS)
@settings(max_examples=15, deadline=None)
@example(model="even", split_q=2, split_conj=1, ram=0, inert=0, extra=0, tilt=-2)
@example(model="even", split_q=0, split_conj=1, ram=3, inert=1, extra=2, tilt=2)
@example(model="odd", split_q=1, split_conj=1, ram=2, inert=1, extra=2, tilt=0)
# the clamps of the tight span on y^2 = x^6 + 1 (g = 2), each with a
# negative part at infinity offset by deg h: M = -1 (no column), M = 0,
# M = g (Bv = -1 while Bu = g, so the V rows are empty) and M = g + 1 (Bv = 0)
@example(model="even", split_q=0, split_conj=0, ram=0, inert=1, extra=-5, tilt=-2)
@example(model="even", split_q=0, split_conj=0, ram=0, inert=1, extra=-3, tilt=-1)
@example(model="even", split_q=0, split_conj=0, ram=2, inert=0, extra=0, tilt=-1)
@example(model="even", split_q=0, split_conj=0, ram=2, inert=1, extra=2, tilt=-1)
def test_rr_space_matches_the_full_kernel_with_affine_parts(
    model, split_q, split_conj, ram, inert, extra, tilt
):
    curve, D = affine_divisor(model, split_q, split_conj, ram, inert, extra, tilt)
    assert rr_space(curve, D).basis == full_kernel_basis(curve, D)


def test_rr_space_matches_the_full_kernel_on_the_x0_71_classes():
    # every class divisor of the shipped Mordell-Weil file at d = 2..12: the
    # positive-dimensional ones have basis elements with v != 0
    with open(os.path.join(FIXTURES, "x0_71.mw")) as fh:
        mw = parse_mw_file(fh.read(), X0_71)
    [(order, gen)] = mw.cyclic_factors
    with_v = 0
    for d in range(2, 13):
        shift = pipeline._shift_divisor(X0_71, mw, d)
        for k in pipeline._coefficient_range(order):
            D = shift + gen.scale(k)
            basis = rr_space(X0_71, D).basis
            assert basis == full_kernel_basis(X0_71, D), (d, k)
            with_v += any(not w.v.is_zero for w in basis)
    assert with_v > 0


def test_rr_space_on_a_multiple_of_a_degree_6_split_point():
    # 4P - 2*oo+ - 2*oo- on X0(71), with P the split witness of class 12 at
    # d = 6: its branch roots invert b modulo a degree-20 factor of the norm.
    # l = deg D - g + 1 = 20 - 6 + 1, and the basis is the one the
    # extended Euclid inverses gave, kept in the fixture.
    P = "x^6+2x^5+x^4-x^3-x^2-x+1; split; -2x^5-6x^4-4x^3+3x^2+3x-1"
    D = parse_divisor(f"4*({P}) + -2*oo+ + -2*oo-", X0_71)
    space = rr_space(X0_71, D)
    with open(os.path.join(FIXTURES, "x0_71_split4_rr.txt"), encoding="utf-8") as fh:
        ell, *basis = fh.read().splitlines()
    assert space.dim == 15 == D.degree - X0_71.genus + 1
    assert ell == "ell=15"
    assert [f"basis: {w.literal()}" for w in space.basis] == basis


# Mutants of the linear algebra whose basis keeps a pole that D forbids;
# the recheck must make `rr` exit 5.  Flipped: the U coefficient fixed last
# by one place alone, with its sign flipped.  Widened: a kernel taken over
# one more V column than the span, so one vector too many (on y^2 = x^5 + 1
# and 5*oo it adds x*y, of order -7 at oo).
RR_MUTANTS = {
    "flipped": """
conditions = hyperell._infinity_conditions

def flipped(*args):
    L, fixed, rows = conditions(*args)
    k = max(k for k, c in fixed.items() if c)
    fixed[k] = [-w for w in fixed[k]]
    return L, fixed, rows

hyperell._infinity_conditions = flipped
""",
    "widened": """
kernel = hyperell.kernel_basis
hyperell.kernel_basis = lambda rows, ncols: kernel([row + [0] for row in rows], ncols + 1)
""",
}
RUN_RR = """
import sys
from primpoints import cli, hyperell
{mutant}
print(cli.main(["rr", sys.argv[1], sys.argv[2]]))
"""


@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize("mutant, coeffs, divisor", [
    ("flipped", "1 0 0 0 0 0 1", "4*oo+ + 0*oo-"),  # y^2 = x^6 + 1
    ("widened", "1 0 0 0 0 1", "5*oo"),  # y^2 = x^5 + 1
    ("widened", "2 0 0 0 0 0 0 1", "9*oo"),  # y^2 = x^7 + 2
], ids=["flipped x^6+1", "widened x^5+1", "widened x^7+2"])
def test_a_flipped_fixed_column_fails_the_pole_recheck(
    tmp_path, optimize, mutant, coeffs, divisor
):
    curve = tmp_path / "c.curve"
    curve.write_text(f"f: {coeffs}\n")
    code = RUN_RR.format(mutant=RR_MUTANTS[mutant])
    done = run_python(["-c", code, str(curve), divisor], optimize)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "5\n"
    assert "basis element violates pole bounds" in done.stderr
    assert "Traceback" not in done.stderr


def test_rr_space_rejects_places_not_on_the_curve():
    curve = curve_new(poly(2, 0, 0, 0, 0, 0, 0, 1))  # y^2 = x^7 + 2
    oo = (ClosedPoint.infinite(OO), 1)
    for pt in (
        ClosedPoint.affine(poly(0, 1), RAM),  # x is inert
        ClosedPoint.affine(poly(-1, 1), SPLIT, poly(5)),  # x-1 is inert
        ClosedPoint.affine(poly(1, 1), SPLIT, poly(5)),  # x+1 splits with y = +-1
    ):
        with pytest.raises(BadInput):
            rr_space(curve, Divisor.make([(pt, 1), oo]))
    for q in (poly(1), poly(-1)):
        pt = ClosedPoint.affine(poly(1, 1), SPLIT, q)
        assert rr_space(curve, Divisor.make([(pt, 1), oo])).dim == 1


def test_divisor_checks_raise_verification_failed(monkeypatch):
    # u + v y with u^2 = v^2 f only exists on a model with square f
    square = HyperCurve(poly(0, 0, 0, 0, 0, 0, 1), 2, "even")
    with pytest.raises(VerificationFailed):
        divisor_of_function(square, CurveFunction.make(poly(0, 0, 0, 1), poly(-1)))

    # a norm that claims x - 1 once; x - 1 is inert on y^2 = x^5 + 1 (f(1) = 2)
    x1 = poly(-1, 1)
    monkeypatch.setattr(
        hyperell, "factor_over_Q", lambda a: Factorization(Fraction(1), ((x1, 1),))
    )
    # an odd norm valuation at the inert place: 1 + y would vanish on y = -1
    with pytest.raises(VerificationFailed, match="fails q"):
        divisor_of_function(C_X5, CurveFunction.make(poly(1), poly(1)))
    # mult < 2k: x - 1 divides u once, so the norm (x - 1)^2 has valuation 2
    with pytest.raises(VerificationFailed, match="norm valuation disagrees"):
        divisor_of_function(C_X5, from_x_poly(x1))
    # mult > 2k = 0 but p | v': no branch root to read off
    with pytest.raises(VerificationFailed, match="b = 0 mod p"):
        divisor_of_function(C_X5, CurveFunction.make(poly(1), x1))


def test_rr_space_rejects_negative_affine():
    p = poly(-2, 0, 0, 1)
    P = ClosedPoint.affine(p, RAM)
    curve = curve_new(poly(-4, 0, 0, 0, 0, 0, 1))
    with pytest.raises(UnsupportedDivisorShape):
        rr_space(curve, Divisor.make([(P, -1)]))


def test_decompose_effective():
    base = Divisor.make([(ClosedPoint.infinite(OO_PLUS), 2)])
    assert decompose_effective(C_X6, CurveFunction.constant(1), base) == base
    w = from_x_poly(poly(0, 1))
    with pytest.raises(NotInLinearSeries):
        decompose_effective(C_X6, w, Divisor.zero())


def test_point_field():
    # split rational point: x = 0 on y^2 = x^6 + 1 has y = +-1
    branch, q = classify_place(C_X6, poly(0, 1))
    assert branch == SPLIT
    pt = ClosedPoint.affine(poly(0, 1), SPLIT, q)
    assert point_field(C_X6, pt).min_poly == poly(0, 1)

    # inert quadratic point: x = 1 on y^2 = x^5 + 1 gives y^2 = 2
    branch1, _ = classify_place(C_X5, poly(-1, 1))
    assert branch1 == INERT
    pt1 = ClosedPoint.affine(poly(-1, 1), INERT)
    assert point_field(C_X5, pt1).min_poly == poly(-2, 0, 1)
    assert pt1.degree == 2

    with pytest.raises(InfinitePlace):
        point_field(C_X5, ClosedPoint.infinite(OO))


def test_classified_point_equals_and_hashes_like_its_parsed_literal():
    # p and q with denominators: the root q comes out of integer divisions,
    # the parsed one out of the literal's Fractions
    p, q0 = poly(Fraction(-1, 3), 0, 1), poly(Fraction(1, 2), Fraction(1, 3))
    curve = curve_new(p * poly(1, 0, 0, 0, 1) + q0 * q0)
    branch, q = classify_place(curve, p)
    assert branch == SPLIT and q in (q0, -q0)
    point = ClosedPoint.affine(p, SPLIT, q)
    [(parsed, mult)] = parse_divisor(f"2*{point.literal()}", curve).terms
    assert parsed == point and hash(parsed) == hash(point) and mult == 2
    assert Divisor.make([(point, 1), (parsed, 1)]).terms == ((point, 2),)


def test_x0_71_ell_profile_head():
    # the first few dimensions of the golden run, checked at module level
    assert rr_space_infty(X0_71, 3, 3).dim == 4
    assert rr_space_infty(X0_71, 4, 2).dim == 3
    assert rr_space_infty(X0_71, 5, 1).dim == 2
    assert rr_space_infty(X0_71, 6, 0).dim == 1
    assert rr_space_infty(X0_71, 7, -1).dim == 1


# ---------------------------------------------------------------------------
# classify_place against the Trager factorization of z^2 - f over Q[x]/(p)


def _trager_classify_place(curve, p):
    """The split/inert test as it was before the quadratic norm replaced it."""
    p = p.monic()
    if (curve.f % p).is_zero:
        return (RAM, None)
    K = numfield.nf_new(p)
    fbar = numfield.NfElement(K, curve.f % K.min_poly)
    zsq = numfield.NfPoly.make(K, [-fbar, K.zero(), K.one()])
    _, factors = numfield.factor_over_nf(K, zsq)
    roots = [(-h.coeff(0)).repr for h, _ in factors if h.degree == 1]
    if not roots:
        return (INERT, None)
    return (SPLIT, hyperell.canonical_sqrt_rep(roots[0], p))


@st.composite
def irreducible_point_polys(draw):
    d = draw(st.integers(2, 5))
    p = UniPoly.make(draw(st.lists(st.integers(-5, 5), min_size=d, max_size=d)) + [1])
    assume(factor_over_Q(p).is_irreducible())
    return p


def _curve_or_reject(f):
    try:
        return curve_new(f)
    except NotSquarefree:
        assume(False)


@given(
    p=irreducible_point_polys(),
    degree=st.sampled_from([5, 7]),
    coeffs=st.lists(st.integers(-5, 5), min_size=7, max_size=7),
    lc=st.integers(1, 3),
)
def test_classify_place_matches_trager_on_random_models(p, degree, coeffs, lc):
    # odd degree, so the model needs no square leading coefficient
    curve = _curve_or_reject(UniPoly.make(coeffs[:degree] + [lc]))
    assert classify_place.__wrapped__(curve, p) == _trager_classify_place(curve, p)


@given(
    p=irreducible_point_polys(),
    degree=st.sampled_from([5, 6, 7]),
    coeffs=st.lists(st.integers(-5, 5), min_size=7, max_size=7),
    lc=st.integers(1, 3),
)
@settings(max_examples=30, deadline=None)
def test_point_field_of_an_inert_place_is_the_absolute_minpoly(p, degree, coeffs, lc):
    # an even degree takes lc^2, so the model has rational places at infinity
    curve = _curve_or_reject(UniPoly.make(coeffs[:degree] + [lc ** (2 - degree % 2)]))
    assume(classify_place(curve, p)[0] == INERT)
    field = point_field(curve, ClosedPoint.affine(p, INERT))
    assert field.min_poly == numfield.absolute_minpoly(p, curve.f)


@given(
    degree=st.sampled_from([5, 7, 9]),
    coeffs=st.lists(st.integers(-5, 5), min_size=9, max_size=9),
    lc=st.integers(-3, 3).filter(bool),
    u=small_polys(5),
    v=small_polys(3),
)
def test_the_odd_order_at_infinity_is_minus_the_degree_of_the_norm(degree, coeffs, lc, u, v):
    # u and v*y never cancel at oo, so the norm has twice the order there
    assume(not (u.is_zero and v.is_zero))
    curve = _curve_or_reject(UniPoly.make(coeffs[:degree] + [lc]))
    norm = u * u - v * v * curve.f
    assert _infinity_orders(curve, u, v, norm) == {OO: _odd_infinity_valuation(u, v, curve.genus)}


@given(
    p=irreducible_point_polys(),
    k=st.lists(st.integers(-3, 3), min_size=1, max_size=5),
    r=st.lists(st.integers(-3, 3), min_size=4, max_size=4),
)
@example(p=poly(-2, 0, 1), k=[3], r=[1, 0, 0, 0])  # f = 9 mod p: no root at c = 0
def test_classify_place_matches_trager_on_square_residues(p, k, r):
    # f = k^2 + p*r is a nonzero square mod p; a constant k forces a shift c >= 1
    d = p.degree
    k = UniPoly.make(k[:d])
    assume(not k.is_zero)
    r = UniPoly.make(r[: max(5, 2 * d - 1) - d] + [1])  # deg f odd, above deg k^2
    curve = _curve_or_reject(k * k + p * r)
    branch, q = classify_place.__wrapped__(curve, p)
    assert branch == SPLIT
    assert (branch, q) == _trager_classify_place(curve, p)
    if k.degree == 0:
        assert numfield.shifted_norm(p, curve.f)[0] >= 1


def _linear_classify_place(curve, p):
    """Test-only copy of the degree-1 route `classify_place` took before
    the quadratic norm decided every p: f(r) a rational square or not."""
    if (curve.f % p).is_zero:
        return (RAM, None)
    root = rational_sqrt(curve.f(-p.coeff(0)))
    if root is None:
        return (INERT, None)
    return (SPLIT, hyperell.canonical_sqrt_rep(UniPoly.const(root), p))


@given(
    r=st.fractions(min_value=-6, max_value=6, max_denominator=4),
    k=st.fractions(min_value=-6, max_value=6, max_denominator=4),
    coeffs=st.lists(st.integers(-5, 5), min_size=5, max_size=5),
    square=st.booleans(),
)
@example(r=Fraction(0), k=Fraction(3), coeffs=[0] * 5, square=False)
def test_classify_place_on_linear_points_matches_the_rational_root(r, k, coeffs, square):
    # with square set, f = k^2 + (x - r) g, so f(r) = k^2 and x - r splits or ramifies
    p = poly(-r, 1)
    g = UniPoly.make(coeffs + [1])
    f = UniPoly.const(k * k) + p * g if square else UniPoly.const(k) + p * g
    curve = _curve_or_reject(f)
    assert classify_place.__wrapped__(curve, p) == _linear_classify_place(curve, p)


SQRT2 = poly(-2, 0, 1)
SPLIT_OVER_SQRT2 = curve_new(poly(1, -2, 1) + SQRT2 * poly(1, 0, 0, 1))  # f = (x-1)^2 mod p


def test_classify_place_builds_no_number_field(monkeypatch):
    def no_trager(*args):
        raise AssertionError("classify_place went through the number field")

    monkeypatch.setattr(numfield, "nf_new", no_trager)
    monkeypatch.setattr(numfield, "factor_over_nf", no_trager)
    assert classify_place.__wrapped__(SPLIT_OVER_SQRT2, SQRT2) == (SPLIT, poly(-1, 1))
    assert classify_place.__wrapped__(C_X5, SQRT2) == (INERT, None)  # f = 4x + 1 mod p


@pytest.mark.parametrize("optimize", [False, True])
def test_classify_place_rejects_a_corrupted_root(optimize):
    # twice b^-1 reads off 2q, and (2q)^2 = 4f is not f mod p
    code = (
        "from oracles import poly\n"
        "from primpoints import arith, hyperell\n"
        "from primpoints.errors import VerificationFailed\n"
        "hyperell._poly_inverse_mod = lambda b, m: arith._poly_inverse_mod(b, m).scale(2)\n"
        "p = poly(-2, 0, 1)\n"
        "curve = hyperell.curve_new(poly(1, -2, 1) + p * poly(1, 0, 0, 1))\n"
        "try:\n"
        "    hyperell.classify_place(curve, p)\n"
        "except VerificationFailed:\n"
        "    print('VerificationFailed')\n"
    )
    done = run_python(["-c", code], optimize)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "VerificationFailed\n"


# ---------------------------------------------------------------------------
# divisor_of_function against the route that classified every factor


def _hensel_split_valuations(curve, p, q, u, v, mult_norm):
    """ord of u + v y at the two split places (q-branch first), by a lift."""
    if u.is_zero or v.is_zero:
        val = _valuation_at(p, v if u.is_zero else u)[0]
        assert 2 * val == mult_norm
        return val, val
    k = mult_norm + 1
    qk = hensel_sqrt(curve.f, p, q, k)
    plus, minus = u + v * qk, u - v * qk
    val_plus = _valuation_at(p, plus)[0] if not plus.is_zero else k
    val_minus = _valuation_at(p, minus)[0] if not minus.is_zero else k
    if val_plus >= k:
        val_plus = mult_norm - min(val_minus, mult_norm)
    elif val_minus >= k:
        val_minus = mult_norm - val_plus
    assert val_plus + val_minus == mult_norm
    return val_plus, val_minus


def _classified_divisor(curve, w):
    """div(w) with every norm factor classified and split orders Hensel-lifted.

    The numerator route of `divisor_of_function` before it read places off
    u + v y; the pole and infinity parts are as in `divisor_of_function`.
    """
    u, v, den = w.u, w.v, w.den
    pairs = []
    norm = u * u - v * v * curve.f
    for p, mult in factor_over_Q(norm).factors if norm.degree > 0 else ():
        branch, q = classify_place(curve, p)
        if branch == RAM:
            vals = [2 * _valuation_at(p, u)[0]] if not u.is_zero else []
            vals += [2 * _valuation_at(p, v)[0] + 1] if not v.is_zero else []
            pairs.append((ClosedPoint.affine(p, RAM), min(vals)))
        elif branch == INERT:
            assert mult % 2 == 0
            pairs.append((ClosedPoint.affine(p, INERT), mult // 2))
        else:
            vp, vm = _hensel_split_valuations(curve, p, q, u, v, mult)
            pairs += [(ClosedPoint.affine(p, SPLIT, q), vp)]
            pairs += [(ClosedPoint.affine(p, SPLIT, (-q) % p), vm)]
    for p, mult in factor_over_Q(den).factors if den.degree > 0 else ():
        branch, q = classify_place(curve, p)
        if branch == SPLIT:
            pairs += [(ClosedPoint.affine(p, SPLIT, q), -mult)]
            pairs += [(ClosedPoint.affine(p, SPLIT, (-q) % p), -mult)]
        else:
            pairs.append((ClosedPoint.affine(p, branch), -mult * (2 if branch == RAM else 1)))
    if curve.parity == "even":
        for place in (OO_PLUS, OO_MINUS):
            val = even_infinity_valuation(curve, u, v, place) + den.degree
            pairs.append((ClosedPoint.infinite(place), val))
    else:
        val = _odd_infinity_valuation(u, v, curve.genus) + 2 * den.degree
        pairs.append((ClosedPoint.infinite(OO), val))
    return Divisor.make(pairs)


def _odd_infinity_valuation(u, v, genus) -> int:
    """ord at oo of u + v y on an odd model: parities never cancel.

    Test-only copy of the helper `divisor_of_function` used before it read
    the order off the degree of the norm.
    """
    vals = []
    if not u.is_zero:
        vals.append(-2 * u.degree)
    if not v.is_zero:
        vals.append(-2 * v.degree - (2 * genus + 1))
    if not vals:
        raise ZeroFunction("valuation of the zero function")
    return min(vals)


# both parities; each f has factors, so ramified places of degree 1-4 occur
READOFF_MODELS = [
    C_X5,  # (x + 1)(x^4 - x^3 + x^2 - x + 1)
    C_X6,  # (x^2 + 1)(x^4 - x^2 + 1)
    curve_new(poly(-4, 0, 0, 0, 0, 0, 1)),  # (x^3 - 2)(x^3 + 2)
    curve_new(poly(0, -1, 0, 0, 0, 1)),  # x (x - 1)(x + 1)(x^2 + 1)
]
COMMON_FACTORS = [poly(0, 1), poly(-1, 1), poly(2, 1), poly(-2, 0, 1), poly(1, 1, 1)]


@st.composite
def functions_on_models(draw):
    curve = draw(st.sampled_from(READOFF_MODELS))
    f = curve.f
    # a product of powers of a + b y: zeros of high order on one branch, and
    # through b = c*h zeros where v vanishes to a higher order than u
    u, v = UniPoly.one(), UniPoly.zero()
    for _ in range(draw(st.integers(1, 2))):
        a = draw(small_polys(1))
        b = draw(st.sampled_from([UniPoly.one()] + COMMON_FACTORS)).scale(draw(st.integers(-3, 3)))
        assume(not (a.is_zero and b.is_zero))
        for _ in range(draw(st.integers(1, 3))):
            u, v = u * a + v * b * f, u * b + v * a
    # a common factor g^k of u and v: g a factor of f, a small polynomial,
    # or a factor of the norm, which makes u + v y vanish to order > k
    norm = u * u - v * v * f
    g = draw(
        st.sampled_from(
            [p for p, _ in factor_over_Q(f).factors]
            + COMMON_FACTORS
            + ([p for p, _ in factor_over_Q(norm).factors] if norm.degree > 0 else [])
        )
    )
    k = draw(st.integers(0, 2))
    # the Hensel lift of the oracle works modulo p^(mult + 1): keep it small
    mults = dict(factor_over_Q(norm).factors) if norm.degree > 0 else {}
    mults[g] = mults.get(g, 0) + 2 * k
    assume(max(p.degree * (m + 1) for p, m in mults.items()) <= 30)
    den = draw(small_polys(2))
    assume(not den.is_zero)
    return curve, CurveFunction.make(u * g**k, v * g**k, den)


@given(functions_on_models())
@example((C_X5, CurveFunction.make(poly(1), poly(1))))  # 1 + y: order 5 at (0, -1)
@example((C_X5, CurveFunction.make(poly(0, 0, 1), poly(0, 0, 1))))  # x^2 (1 + y): 7 and 2
@example((SPLIT_OVER_SQRT2, CurveFunction.make(poly(2, -2, -1, 1), poly(2, 0, -1))))  # 2 and 1
@example((SPLIT_OVER_SQRT2, CurveFunction.make(poly(-1, 1), poly(-1))))  # degree-2 read-off
# poles: a repeated split factor, an inert factor, a ramified square, and a
# mixed den on the odd model
@example((C_X6, CurveFunction.make(poly(1, 1), poly(1), poly(0, 0, 1))))
@example((C_X6, CurveFunction.make(poly(2, 1), poly(0, 1), poly(-1, 1))))
@example((C_X6, CurveFunction.make(poly(1, 1), poly(1), poly(1, 0, 1) ** 2)))
@example((C_X5, CurveFunction.make(poly(3, 0, 1), poly(1), poly(0, 1) * poly(1, 1) ** 2)))
# the x^3 - 2 fiber map y/(x^3 - 2) minus 1: den shares x^3 - 2 with the norm
@example((READOFF_MODELS[2], CurveFunction.make(poly(2, 0, 0, -1), poly(1), poly(-2, 0, 0, 1))))
def test_divisor_of_function_matches_the_classified_route(curve_and_function):
    curve, w = curve_and_function
    assert divisor_of_function(curve, w) == _classified_divisor(curve, w)


FIBER_REFERENCE = os.path.join(FIXTURES, "..", "perfbench", "reference", "fiber-sample.txt")


def test_principal_divisors_and_fibers_need_no_series_of_y(monkeypatch):
    # the three fiber-sample maps, each the nonconstant element of L(P) for
    # the ramified witness P of its constructed curve; the series of y is
    # read while they are built, and never after
    maps = {}
    for lit in ("x^3-2", "x^5-x-1", "x^7-x-1"):
        curve, witness, _ = pipeline.construct_primitive_curve(parse_poly(lit), 0)
        basis = rr_space(curve, Divisor.make([(witness, 1)])).basis
        w = next(b for b in basis if not b.is_constant)
        maps[lit] = curve, w, _classified_divisor(curve, w)
    with open(FIBER_REFERENCE, encoding="utf-8") as fh:
        blocks = fh.read().split("## ")[1:]
    expected = [block.split() for block in blocks]  # [lit, "beta=...", outcome]

    def no_series(curve, nterms):
        raise AssertionError("the series of y was read")

    monkeypatch.setattr(hyperell, "_y_series_scaled", no_series)
    hyperell._den_divisor.cache_clear()
    for curve, w, div in maps.values():
        assert divisor_of_function(curve, w) == div
    assert len(expected) == 120
    for lit, beta, outcome in expected:
        curve, w, _ = maps[lit]
        assert pipeline.specialize_fiber(curve, w, Fraction(beta.removeprefix("beta="))) == outcome


@pytest.mark.parametrize("optimize", [False, True])
def test_divisor_of_function_rejects_a_corrupted_root(optimize):
    # twice v'^-1 reads off 2q, and (2q)^2 = 4f is not f mod p
    code = (
        "from oracles import poly\n"
        "from primpoints import arith, hyperell\n"
        "from primpoints.errors import VerificationFailed\n"
        "hyperell._poly_inverse_mod = lambda b, m: arith._poly_inverse_mod(b, m).scale(2)\n"
        "p = poly(-2, 0, 1)\n"
        "for f, u, v in [\n"
        "    (poly(1, 0, 0, 0, 0, 1), poly(1), poly(1)),\n"
        "    (poly(1, -2, 1) + p * poly(1, 0, 0, 1), poly(-1, 1), poly(-1)),\n"
        "]:\n"
        "    w = hyperell.CurveFunction.make(u, v)\n"
        "    try:\n"
        "        hyperell.divisor_of_function(hyperell.curve_new(f), w)\n"
        "    except VerificationFailed:\n"
        "        print('VerificationFailed')\n"
    )
    done = run_python(["-c", code], optimize)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "VerificationFailed\n" * 2


# ---------------------------------------------------------------------------
# the norm of u + v*y is factored with den's factors split off first

X3_MINUS_2 = READOFF_MODELS[2]  # y^2 = x^6 - 4, the curve of the x^3 - 2 fiber map
COPRIME_DEN_FACTORS = [poly(0, 1), poly(-5, 1), poly(1, 0, 1), poly(1, 1, 1)]


def _split_matches_factor_over_q(curve, w):
    norm = w.u * w.u - w.v * w.v * curve.f
    assume(norm.degree and norm.degree > 0)
    known = [p for p, _ in factor_over_Q(w.den).factors] if w.den.degree > 0 else []
    assert hyperell._norm_factors(norm, known) == list(factor_over_Q(norm).factors)


@st.composite
def functions_with_known_den(draw):
    f = X3_MINUS_2.f
    u, v = UniPoly.one(), UniPoly.zero()
    for _ in range(draw(st.integers(1, 2))):
        a, b = draw(small_polys(2)), draw(small_polys(1))
        assume(not (a.is_zero and b.is_zero))
        for _ in range(draw(st.integers(1, 2))):
            u, v = u * a + v * b * f, u * b + v * a
    norm = u * u - v * v * f
    assume(not norm.is_zero)
    # den factors from the norm (they divide it), from f (ramified) and
    # coprime ones, each once or twice
    pool = ([p for p, _ in factor_over_Q(norm).factors] if norm.degree > 0 else []) + [
        p for p, _ in factor_over_Q(f).factors
    ] + COPRIME_DEN_FACTORS
    den = UniPoly.one()
    for _ in range(draw(st.integers(1, 3))):
        den = den * draw(st.sampled_from(pool)) ** draw(st.integers(1, 2))
    return CurveFunction.make(u, v, den)


@given(functions_with_known_den())
@example(CurveFunction.make(poly(0, 1), poly(1), poly(-5, 1)))  # den coprime to N
@example(CurveFunction.make(poly(-2, 0, 0, 1), poly(1), poly(-2, 0, 0, 1) ** 2))  # v_p(N) = 1
@example(CurveFunction.make(poly(-2, 0, 0, 1), poly(1), poly(-2, 0, 0, 1) * poly(1, 0, 1) ** 2))
# (x^3 + x + y)^2 over den = its norm 2x^4 + x^2 + 4: v_p(N) = 2 at each factor
@example(
    CurveFunction.make(poly(0, 1, 0, 1) ** 2 + X3_MINUS_2.f, poly(0, 2, 0, 2), poly(4, 0, 1, 0, 2))
)
@settings(max_examples=40, deadline=None)
def test_norm_factors_with_den_split_off_match_factor_over_q(w):
    _split_matches_factor_over_q(X3_MINUS_2, w)


# the three maps of the fiber-sample benchmark: y/p(x) on y^2 = -p(x)p(-x)
FIBER_MAPS = {}


def _fiber_map(lit):
    if lit not in FIBER_MAPS:
        curve, witness, _ = pipeline.construct_primitive_curve(parse_poly(lit), 0)
        space = rr_space(curve, Divisor.make([(witness, 1)]))
        FIBER_MAPS[lit] = curve, next(b for b in space.basis if not b.is_constant)
    return FIBER_MAPS[lit]


@given(
    st.sampled_from(["x^3-2", "x^5-x-1", "x^7-x-1"]),
    st.fractions(min_value=-50, max_value=50, max_denominator=50),
)
@settings(max_examples=30, deadline=None)
def test_fiber_norm_factors_with_den_split_off_match_factor_over_q(lit, beta):
    curve, w = _fiber_map(lit)
    fiber = w - CurveFunction.constant(beta)
    assert fiber.den == w.den and w.den.degree == curve.genus + 1
    _split_matches_factor_over_q(curve, fiber)
