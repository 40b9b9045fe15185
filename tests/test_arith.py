from collections import Counter
from fractions import Fraction
from functools import reduce
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import X0_71_COEFFS
from primpoints import arith
from primpoints.arith import (
    Factorization,
    UniPoly,
    _fp_mul,
    _fp_reduce,
    _good_primes,
    _hensel_tree,
    factor_over_Q,
    hensel_sqrt,
    is_squarefree,
    lagrange_interpolate,
    poly,
    poly_gcd,
    resultant,
    squarefree_decomposition,
    squarefree_part,
)
from primpoints.errors import BadInput, RamifiedBranch, ZeroPolynomial
from primpoints.formats import parse_poly

X = UniPoly.x()


def small_rationals():
    return st.fractions(min_value=-8, max_value=8, max_denominator=6)


def polys(max_degree=6, nonzero=False):
    base = st.lists(small_rationals(), min_size=0, max_size=max_degree + 1).map(
        UniPoly.make
    )
    if nonzero:
        return base.filter(lambda p: not p.is_zero)
    return base


# --- base ring sanity ------------------------------------------------------


def test_poly_basics():
    p = poly(-1, 0, 1)  # x^2 - 1
    assert p.degree == 2
    assert p(2) == 3
    assert (p * p).degree == 4
    assert UniPoly.zero().degree is None
    q, r = divmod(p, poly(-1, 1))
    assert q == poly(1, 1) and r.is_zero
    assert str(poly(Fraction(1, 2), -2, 1)) == "x^2-2x+1/2"


def test_compose_and_shift():
    p = poly(0, 0, 1)  # x^2
    assert p.shift_x(1) == poly(1, 2, 1)
    assert poly(1, 1).compose(poly(0, 0, 1)) == poly(1, 0, 1)


# --- gcd -------------------------------------------------------------------


def test_gcd_examples():
    assert poly_gcd(poly(-1, 0, 1), poly(-1, 1)) == poly(-1, 1)
    assert poly_gcd(poly(0, 1), UniPoly.zero()) == poly(0, 1)
    assert poly_gcd(UniPoly.zero(), UniPoly.zero()).is_zero
    # derived case: checked against the division oracle below
    g = poly_gcd(poly(1, 0, 1, 0, 1), poly(1, 1, 1))
    assert g == poly(1, 1, 1)
    assert (poly(1, 0, 1, 0, 1) % g).is_zero and (poly(1, 1, 1) % g).is_zero


@given(polys(4), polys(4), polys(3, nonzero=True))
def test_gcd_divides_and_contains(a, b, c):
    a, b = a * c, b * c
    if a.is_zero and b.is_zero:
        return
    g = poly_gcd(a, b)
    assert (a % g).is_zero and (b % g).is_zero
    assert (g % poly_gcd(c, g)).is_zero  # any common divisor divides g
    assert (g % c).is_zero or poly_gcd(a // c if not a.is_zero else b, b).degree >= 0


# --- squarefree part -------------------------------------------------------


def test_squarefree_part_examples():
    p = poly(-1, 1) ** 2 * poly(2, 1)
    assert squarefree_part(p) == poly(-1, 1) * poly(2, 1)
    assert squarefree_part(poly(0, 0, 1)) == poly(0, 1)
    with pytest.raises(ZeroPolynomial):
        squarefree_part(UniPoly.zero())


def test_x0_71_model_is_squarefree():
    f = UniPoly.make(X0_71_COEFFS)
    assert squarefree_part(f) == f
    assert is_squarefree(f)


def test_squarefree_decomposition_roundtrip():
    p = poly(-1, 1) ** 3 * poly(1, 1) ** 2 * poly(1, 0, 1)
    parts = squarefree_decomposition(p)
    rebuilt = UniPoly.one()
    for q, m in parts:
        rebuilt = rebuilt * q**m
    assert rebuilt == p.monic()


# --- resultant -------------------------------------------------------------


def sylvester_det(a, b):
    """Independent oracle: determinant of the Sylvester matrix."""
    from primpoints.linalg import det

    m, n = a.degree, b.degree
    if m + n == 0:
        return Fraction(1)
    rows = []
    ra = list(reversed(a.coeffs))
    rb = list(reversed(b.coeffs))
    for i in range(n):
        rows.append([Fraction(0)] * i + ra + [Fraction(0)] * (n - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + rb + [Fraction(0)] * (m - 1 - i))
    return det(rows)


def test_resultant_examples():
    assert resultant(poly(-2, 1), poly(-3, 1)) == -1
    assert sylvester_det(poly(-2, 1), poly(-3, 1)) == -1
    assert resultant(poly(-1, 0, 1), poly(-1, 1)) == 0
    assert resultant(poly(1, 0, 1), poly(1, 0, 1)) == 0
    with pytest.raises(ZeroPolynomial):
        resultant(UniPoly.zero(), poly(1, 1))


@given(polys(4, nonzero=True), polys(4, nonzero=True))
def test_resultant_matches_sylvester(a, b):
    if a.degree + b.degree == 0:
        return
    assert resultant(a, b) == sylvester_det(a, b)


@given(polys(8, nonzero=True), polys(8, nonzero=True))
def test_resultant_zero_iff_common_factor(a, b):
    common = poly_gcd(a, b).degree >= 1
    assert (resultant(a, b) == 0) == common


# --- factorization ---------------------------------------------------------


def rational_roots(a: UniPoly) -> list:
    """All rational roots with multiplicity, via the linear factors."""
    if a.is_zero:
        raise ZeroPolynomial("roots of the zero polynomial")
    roots = []
    for f, mult in factor_over_Q(a).factors:
        if f.degree == 1:
            roots.extend([-f.coeffs[0]] * mult)
    roots.sort()
    return roots


def quadratic_factor_exists(p):
    """Oracle for quartics: exhaust monic quadratic factors by coefficient solving.

    p = (x^2+ax+b)(x^2+cx+d) forces c = p3-a, and then two linear conditions
    on b, d for each rational root a of the resulting system; instead of full
    elimination we simply scan rational-root candidates for the cubic/quartic
    resolvents with small search via rational_roots on the resolvent cubic.
    """
    assert p.degree == 4 and p.lc == 1
    p3, p2, p1, p0 = (p.coeff(3), p.coeff(2), p.coeff(1), p.coeff(0))
    # depressed quartic resolvent cubic for y = b + d
    resolvent = poly(
        4 * p2 * p0 - p1 * p1 - p3 * p3 * p0,
        p1 * p3 - 4 * p0,
        -p2,
        1,
    )
    for y in rational_roots(resolvent):
        # b + d = y, b*d = p0, a + c = p3, a*c = p2 - y, a*d + b*c = p1
        disc_bd = y * y - 4 * p0
        disc_ac = p3 * p3 - 4 * (p2 - y)
        from primpoints.arith import rational_sqrt

        s_bd = rational_sqrt(disc_bd)
        s_ac = rational_sqrt(disc_ac)
        if s_bd is None or s_ac is None:
            continue
        for b in {(y + s_bd) / 2, (y - s_bd) / 2}:
            for a in {(p3 + s_ac) / 2, (p3 - s_ac) / 2}:
                c, d = p3 - a, y - b
                if a * d + b * c == p1 and a * c + b + d == p2 and b * d == p0:
                    return True
    return False


def test_factor_examples():
    f = factor_over_Q(poly(-1, 0, 1))
    assert f.unit == 1
    assert f.factors == ((poly(-1, 1), 1), (poly(1, 1), 1))

    quartic = poly(1, 0, 0, 0, 1)  # x^4 + 1
    assert factor_over_Q(quartic).is_irreducible()
    assert not rational_roots(quartic)
    assert not quadratic_factor_exists(quartic)

    quartic2 = poly(-2, 0, 0, 0, 1)  # x^4 - 2
    assert factor_over_Q(quartic2).is_irreducible()
    assert not rational_roots(quartic2)
    assert not quadratic_factor_exists(quartic2)


def test_factor_with_unit_and_multiplicity():
    p = poly(-1, 1) ** 2 * poly(3, 2) * 5
    f = factor_over_Q(p)
    assert f.expand() == p
    assert f.unit == 10  # 5 * lc(3+2x)
    degrees = sorted((g.degree, m) for g, m in f.factors)
    assert degrees == [(1, 1), (1, 2)]


def test_factor_degree_36_norm_shape():
    # product of two irreducibles of degree 6, coefficients of medium size;
    # exercises the Hensel lift + recombination path used by field norms
    a = poly(-2, 0, 0, 0, 0, 0, 1)  # x^6 - 2
    b = poly(3, 1, 0, 0, 0, 0, 1)  # x^6 + x + 3
    f = factor_over_Q(a * b)
    assert sorted(g.degree for g, _ in f.factors) == [6, 6]
    assert f.expand() == a * b


@given(st.lists(polys(3, nonzero=True), min_size=1, max_size=3))
@settings(max_examples=30)
def test_factor_remultiplication(parts):
    product = UniPoly.one()
    for p in parts:
        product = product * p
    if product.degree == 0:
        return
    f = factor_over_Q(product)
    assert f.expand() == product
    for g, _ in f.factors:
        assert g.lc == 1
        if g.degree <= 3:
            # independent audit: irreducible low-degree factors have no
            # rational roots unless linear
            assert g.degree == 1 or not rational_roots(g)


@given(st.lists(polys(4, nonzero=True), min_size=2, max_size=4))
@settings(max_examples=30)
def test_factor_matches_sympy(parts):
    # products of several factors reach Hensel lifting and recombination
    sympy = pytest.importorskip("sympy")
    product = UniPoly.one()
    for p in parts:
        product = product * p
    if product.degree == 0:
        return
    x = sympy.Symbol("x")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(product.coeffs)]
    _, ref_factors = sympy.Poly(coeffs, x, domain="QQ").factor_list()
    expected = sorted(
        (tuple(Fraction(int(c.p), int(c.q)) for c in reversed(g.monic().all_coeffs())), mult)
        for g, mult in ref_factors
    )
    got = sorted((g.coeffs, mult) for g, mult in factor_over_Q(product).factors)
    assert got == expected


@given(st.lists(st.lists(st.integers(-6, 6), min_size=1, max_size=3), min_size=2, max_size=4),
       st.integers(2, 5))
@settings(max_examples=40)
def test_hensel_tree_lifts_a_monic_factorization(lows, k):
    # monic integer factors g_i, lifted from their first good prime p to p^k:
    # division by the monic g_i modulo p^k runs through _fp_divmod
    factors = [low + [1] for low in lows]
    product = reduce(lambda a, g: a * UniPoly.make(g), factors, UniPoly.one())
    assume(is_squarefree(product))
    _, P = product.to_int_primitive()
    p, _ = next(_good_primes(P))
    modulus = p ** k
    modular = [_fp_reduce(g, p) for g in factors]
    lifts = _hensel_tree(_fp_reduce(P, modulus), modular, p, k)
    assert len(lifts) == len(factors)
    for lift, g in zip(lifts, modular):
        assert len(lift) == len(g) and lift[-1] == 1
        assert _fp_reduce(lift, p) == g
    assert reduce(lambda a, b: _fp_mul(a, b, modulus), lifts, [1]) == _fp_reduce(P, modulus)


def _count_splitting_stages(monkeypatch):
    calls = Counter()
    for name in ("_fp_distinct_degree", "_fp_equal_degree"):
        original = getattr(arith, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(arith, name, counting)
    return calls


def test_equal_degree_stage_runs_once_at_the_kept_prime(monkeypatch):
    calls = _count_splitting_stages(monkeypatch)
    # squarefree and reducible: three distinct-degree splits, one equal-degree
    f = factor_over_Q(poly(-2, 0, 0, 0, 0, 0, 1) * poly(3, 1, 0, 0, 0, 0, 1))
    assert len(f.factors) == 2
    assert calls == {"_fp_distinct_degree": 3, "_fp_equal_degree": 1}
    calls.clear()
    # x^2 + 1 is irreducible mod 23, its first good prime: no equal-degree run
    assert factor_over_Q(poly(1, 0, 1)).is_irreducible()
    assert calls == {"_fp_distinct_degree": 1}


def test_degree_sets_that_share_no_degree_prove_irreducibility(monkeypatch):
    calls = _count_splitting_stages(monkeypatch)
    monkeypatch.setattr(arith, "_hensel_tree", None)  # any lift would fail
    m = poly(9, -6, 0, 0, 0, 1)  # x^5 - 6x + 9
    patterns = [(p, pattern) for p, pattern, _ in arith.degree_patterns(m, 3)]
    assert patterns == [(23, (1, 4)), (31, (2, 3)), (41, (1, 4))]
    calls.clear()
    # a factor of degree 1 or 4 at 23, of degree 2 or 3 at 31: none over Q,
    # so the split stops at 31, with no equal-degree stage and no lift
    assert factor_over_Q(m).is_irreducible()
    assert calls == {"_fp_distinct_degree": 2}


@given(st.lists(polys(4, nonzero=True), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_degree_set_intersection_leaves_factorizations_unchanged(parts):
    product = reduce(lambda a, b: a * b, parts)
    assume(product.degree and product.degree > 0)
    fact = factor_over_Q(product)
    # the reference: without the intersection, only a single factor at
    # some prime proves irreducibility
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(
            arith, "_subset_sums",
            lambda pattern: set(range(sum(pattern) + 1)) if len(pattern) > 1 else set(),
        )
        assert factor_over_Q(product) == fact


@pytest.mark.parametrize("a", [poly(-1, 0, 1) ** 2, poly(3), UniPoly.zero()])
def test_degree_patterns_rejects_models_without_good_primes(a):
    # no prime keeps these squarefree with full degree: the scan never ends
    with pytest.raises(BadInput):
        arith.degree_patterns(a, 1)


# --- squarefreeness certified mod one prime ---------------------------------

# squarefree over Q, but (x - 1)^2 mod 23, 29 and 31, the primes the fast
# path tries
COLLIDING = poly(-1, 1) * poly(-1 - 23 * 29 * 31, 1)


def _count_poly_gcd(monkeypatch):
    calls = []
    original = arith.poly_gcd

    def counting(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(arith, "poly_gcd", counting)
    return calls


@given(
    st.lists(st.tuples(polys(3, nonzero=True), st.integers(1, 3)), min_size=1, max_size=3),
    st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_squarefree_decomposition_matches_sympy_sqf_list(parts, collide):
    sympy = pytest.importorskip("sympy")
    a = reduce(lambda acc, part: acc * part[0] ** part[1], parts, UniPoly.one())
    if collide:
        a = a * COLLIDING
    assume(a.degree and a.degree > 0)
    x = sympy.Symbol("x")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(a.coeffs)]
    _, ref = sympy.Poly(coeffs, x, domain="QQ").sqf_list()
    expected = sorted(
        (mult, tuple(Fraction(int(c.p), int(c.q)) for c in reversed(g.monic().all_coeffs())))
        for g, mult in ref
    )
    got = sorted((mult, g.coeffs) for g, mult in squarefree_decomposition(a))
    assert got == expected
    assert is_squarefree(a) == all(mult == 1 for mult, _ in expected)


def test_squarefree_mod_a_prime_runs_no_gcd_over_Q(monkeypatch):
    calls = _count_poly_gcd(monkeypatch)
    f = UniPoly.make(X0_71_COEFFS)
    assert is_squarefree(f) and squarefree_decomposition(f) == [(f.monic(), 1)]
    assert calls == []
    # 23 | lc, and (x - 1)(x - 24) is (x - 1)^2 mod 23 only: the fast path
    # goes on to 29
    assert is_squarefree(poly(-1, 0, 23 * 2)) and is_squarefree(poly(24, -25, 1))
    assert calls == []
    # not squarefree mod 23, 29 or 31: today's exact path decides
    assert is_squarefree(COLLIDING) and len(calls) == 1
    assert squarefree_decomposition(COLLIDING) == [(COLLIDING, 1)]
    assert not is_squarefree(poly(-1, 1) ** 2 * poly(2, 1))


# --- roots in F_{p^e} --------------------------------------------------------


def _residue_value(a, r):
    acc = 0
    for c in reversed(a.to_int_primitive()[1]):
        acc = acc * r + c
    return acc


@pytest.mark.parametrize(
    "lit", ["x^4-2", "x^6-2", "x^6+x^3+1", "x^6+5/2*x^5+5/2*x^4-1/2*x^3-3/2*x^2-1/2*x+1/2"]
)
def test_fpe_roots_are_the_roots_of_m_closed_under_frobenius(lit):
    m = parse_poly(lit)
    orders = [(p, parts, lcm(*pattern)) for p, pattern, parts in arith.degree_patterns(m, 20)
              if lcm(*pattern) in pattern]
    assert len({e for _, _, e in orders}) >= 2
    for p, parts, e in orders:
        roots = arith.fpe_roots(p, parts, e)
        field = roots[0].field
        assert field.p == p and len(field.G) == e + 1
        assert len(set(roots)) == m.degree
        assert all(not _residue_value(m, r) for r in roots)
        assert {r ** p for r in roots} == set(roots)


def test_fq_elements_run_through_the_fp_kit():
    # F_23[t]/(t^2 + 1): t * (-t) = 1, and x^2 + 1 = (x - t)(x + t) over it
    field = arith._Fq(23, [1, 0, 1])
    t = field([0, 1])
    assert t * -t == 1 and t ** -1 == -t and t ** 23 == -t
    one = field((1,))
    assert arith._fp_divmod([one, field(()), one], [-t, one], field) == ([t, one], [])
    assert arith._fq_root([one, field(()), one], field, arith._DetRng(23)) in (t, -t)


def test_rational_roots_examples():
    assert rational_roots(poly(-1, 0, 1)) == [-1, 1]
    assert rational_roots(poly(1, 0, 1)) == []
    assert rational_roots(poly(-3, 2)) == [Fraction(3, 2)]
    assert rational_roots(poly(-1, 1) ** 2 * poly(0, 1)) == [0, 1, 1]


# --- hensel sqrt -----------------------------------------------------------


def test_hensel_sqrt_hand_example():
    f = poly(0, 1)  # f = x
    p = poly(-1, 1)
    q = hensel_sqrt(f, p, UniPoly.one(), 2)
    assert q == poly(Fraction(1, 2), Fraction(1, 2))  # (x+1)/2
    assert ((q * q - f) % (p**2)).is_zero


def test_hensel_sqrt_exact_square():
    f = poly(0, 0, 1)  # x^2
    p = poly(-1, 1)
    q = hensel_sqrt(f, p, UniPoly.one(), 3)
    assert q == poly(0, 1)


def test_hensel_sqrt_errors():
    with pytest.raises(BadInput):
        hensel_sqrt(poly(2, 1), poly(-1, 1), UniPoly.one(), 2)  # 1 != 3 mod (x-1)
    with pytest.raises(RamifiedBranch):
        hensel_sqrt(poly(0, 0, 1), poly(0, 1), UniPoly.zero(), 2)


@given(
    polys(5, nonzero=True),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=40)
def test_hensel_sqrt_congruence(f, r, k):
    p = poly(-r, 1)
    v = f(Fraction(r))
    from primpoints.arith import rational_sqrt

    root = rational_sqrt(v)
    if root is None or root == 0:
        return
    q = hensel_sqrt(f, p, UniPoly.const(root), k)
    assert ((q * q - f) % (p**k)).is_zero
    assert ((q - UniPoly.const(root)) % p).is_zero
    assert q.degree is None or q.degree < k


# --- interpolation helper --------------------------------------------------


def test_lagrange_interpolation():
    pts = [(0, 1), (1, 2), (2, 5), (-1, 2)]
    p = lagrange_interpolate(pts)
    for x, y in pts:
        assert p(Fraction(x)) == y


def test_factorization_dataclass_roundtrip():
    f = Factorization(Fraction(2), ((poly(-1, 1), 2),))
    assert f.expand() == poly(-1, 1) ** 2 * 2
