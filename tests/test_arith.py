from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import islice, zip_longest
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import X0_71_COEFFS
from oracles import euclid_inverse_mod, fraction_divmod, poly
from primpoints import arith
from primpoints.arith import (
    Factorization,
    UniPoly,
    _fp_mul,
    _fp_reduce,
    _fp_split,
    _good_primes,
    _hensel_tree,
    _valuation_at,
    factor_over_Q,
    hensel_sqrt,
    is_squarefree,
    lagrange_interpolate,
    poly_gcd,
    resultant,
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


@given(polys(), polys(), st.integers(0, 3))
def test_product_matches_the_term_by_term_fraction_sum(a, b, exponent):
    # the product runs in integers over the common denominators; the sum of
    # every ca * cb in Fractions is the definition it must meet, also for
    # denominators as large as those of a Riemann-Roch basis
    a = a.scale(Fraction(1, 10**exponent + 7))
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs))
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] += ca * cb
    assert a * b == UniPoly.make(out)


@given(polys(8), polys(5, nonzero=True), st.integers(1, 2**70), st.integers(1, 12),
       st.booleans(), st.integers(0, 3))
@example(UniPoly.zero(), poly(1, 3), 2**70, 1, False, 0)
@example(poly(Fraction(1, 3), 2), poly(1, 2, 3), 2**70 - 1, 7, True, 2)
def test_division_matches_fraction_long_division(a, b, top, den, negative, exponent):
    # divisors rescaled to a leading coefficient of up to 2^70 over a small
    # denominator, dividends of any degree, lower than the divisor's and
    # zero included: divmod, // and % in integers over the common
    # denominators give the long division in Fractions, each coefficient a
    # normalized Fraction
    a = a.scale(Fraction(1, 10**exponent + 7))
    b = b.scale(Fraction(-top if negative else top, den) / b.lc)
    got = [*divmod(a, b), a // b, a % b]
    assert got == [*fraction_divmod(a, b)] * 2
    for c in (c for p in got for c in p.coeffs):
        assert type(c) is Fraction and c.denominator > 0 and gcd(c.numerator, c.denominator) == 1


# --- the num/den representation against plain Fraction tuples -------------


def big_rationals():
    # numerators and denominators up to 2^70, either sign
    return st.builds(
        lambda n, d, negative: Fraction(n, -d if negative else d),
        st.integers(-(2**70), 2**70), st.integers(1, 2**70), st.booleans())


def fraction_lists(max_size=6):
    return st.lists(big_rationals() | small_rationals(), max_size=max_size)


def strip(cs) -> tuple:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def fraction_sum(a, b, sign=1) -> tuple:
    return strip(x + sign * y for x, y in zip_longest(a, b, fillvalue=Fraction(0)))


def fraction_product(a, b) -> tuple:
    out = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return strip(out)


def fraction_literal(a) -> str:
    terms = []
    for i in range(len(a) - 1, -1, -1):
        if a[i]:
            mag, xs = abs(a[i]), "x" if i == 1 else f"x^{i}"
            body = (str(mag) if i == 0 else xs if mag == 1
                    else f"{mag}{xs}" if mag.denominator == 1 else f"{mag}*{xs}")
            terms.append(("-" if a[i] < 0 else "+") + body)
    return "".join(terms).removeprefix("+") or "0"


def assert_canonical(p):
    assert type(p.num) is tuple and all(type(v) is int for v in p.num)
    assert type(p.den) is int and p.den > 0 and gcd(p.den, *p.num) == 1
    assert not p.num or p.num[-1] != 0
    assert p.coeffs == tuple(Fraction(v, p.den) for v in p.num)
    assert all(type(c) is Fraction for c in p.coeffs)


@given(fraction_lists(), fraction_lists(), big_rationals(), st.integers(0, 2))
@example([], [], Fraction(1), 0)
@example([Fraction(0), Fraction(0)], [Fraction(-3, 2**70)], Fraction(-(2**70), 3), 1)
def test_num_den_representation_matches_fraction_tuples(xs, ys, c, pad):
    a, b = strip(xs), strip(ys)
    p, q = UniPoly.make([*xs, *[0] * pad]), UniPoly.make(ys)
    assert_canonical(p)
    assert p.coeffs == a and UniPoly.make(p.coeffs) == p
    if not a:
        assert (p.num, p.den) == ((), 1) and p == UniPoly.zero()
    results = {
        "+": (p + q, fraction_sum(a, b)),
        "-": (p - q, fraction_sum(a, b, -1)),
        "*": (p * q, fraction_product(a, b)),
        "scale": (p.scale(c), tuple(x * c for x in a) if c else ()),
        "derivative": (p.derivative(), strip(i * x for i, x in enumerate(a))[1:]),
        "monic": (p.monic(), tuple(x / a[-1] for x in a) if a else ()),
    }
    if b:
        quot, rem = divmod(p, q)
        results["//"] = (quot, fraction_divmod(p, q)[0].coeffs)
        results["%"] = (rem, fraction_divmod(p, q)[1].coeffs)
        assert (p // q, p % q) == (quot, rem)
    for name, (got, want) in results.items():
        assert_canonical(got)
        assert got.coeffs == want, name
    for i in range(-1, len(a) + 2):
        assert p.coeff(i) == (a[i] if 0 <= i < len(a) else 0)
    assert p.sort_key() == (len(a) - 1, tuple((x.numerator, x.denominator) for x in a))
    assert p.literal() == fraction_literal(a)
    assert parse_poly(p.literal()) == p
    if a:
        assert p.lc == a[-1]
        den = lcm(*(x.denominator for x in a))
        ints = [int(x * den) for x in a]
        content = gcd(*ints) * (1 if ints[-1] > 0 else -1)
        assert p.to_int_primitive() == (Fraction(content, den), [v // content for v in ints])
        # one polynomial reached by different routes: equal, with equal hashes
        routes = [UniPoly.make(a), -(-p), p.monic().scale(a[-1]), (p - q) + q]
        if c:
            routes.append(p.scale(c).scale(1 / c))
        if b:
            routes.append((p * q) // q)
        for r in routes:
            assert r == p and hash(r) == hash(p) and (r.num, r.den) == (p.num, p.den)
    else:
        assert p.to_int_primitive() == (0, [])
        with pytest.raises(ZeroPolynomial):
            p.lc


def residues(m, max_size=8):
    return st.lists(st.integers(-3 * m, 3 * m), max_size=max_size)


@given(residues(29, 12), residues(29, 6), st.integers(2, 28))
def test_fp_rem_matches_the_divmod_remainder_mod_a_prime(a, low, lead):
    # a non-monic divisor mod 29, an unreduced dividend
    b = [v % 29 for v in low] + [lead]
    assert arith._fp_rem(a, b, 29) == arith._fp_divmod(a, b, 29)[1]


@given(residues(23**3, 12), residues(23**3, 5), st.integers(1, 3))
def test_fp_rem_matches_the_divmod_remainder_mod_a_prime_power(a, low, k):
    # a monic divisor mod 23^k, as in a Hensel step
    m = 23**k
    b = [v % m for v in low] + [1]
    assert arith._fp_rem(a, b, m) == arith._fp_divmod(a, b, m)[1]


@given(st.lists(st.tuples(st.booleans(), st.integers(-50, 50), st.integers(0, 22)), max_size=8),
       st.lists(st.integers(0, 22), min_size=1, max_size=4), st.integers(1, 22))
def test_fp_rem_matches_the_divmod_remainder_over_fq(entries, low, lead):
    # coefficients in F_23[t]/(t^2 + 1), the dividend with integers the kit
    # has not reduced mixed in, the divisor non-monic
    field = arith._Fq(23, [1, 0, 1])
    a = [v if raw else field([v, w]) for raw, v, w in entries]
    b = [field([v, 1]) for v in low] + [field([lead])]
    assert arith._fp_rem(a, b, field) == arith._fp_divmod(a, b, field)[1]


@given(residues(31, 8), residues(31, 6), st.integers(0, 40))
def test_fp_powmod_matches_repeated_multiplication(base, low, e):
    f = [v % 31 for v in low] + [1]
    power = [1]
    for _ in range(e):
        power = arith._fp_divmod(_fp_mul(power, base, 31), f, 31)[1]
    assert arith._fp_powmod(base, e, f, 31) == power


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
    fact = factor_over_Q(p)
    assert dict(fact.factors) == {poly(-1, 1): 3, poly(1, 1): 2, poly(1, 0, 1): 1}
    assert fact.expand() == p


@given(polys(3, nonzero=True), polys(3, nonzero=True), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_valuation_at_divides_out_the_exact_power(p, q, k):
    assume(p.degree and p.degree > 0 and poly_gcd(p, q).degree == 0)
    assert _valuation_at(p, p**k * q) == (k, q)


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
    patterns = [(p, pattern) for p, pattern, _ in islice(arith.degree_patterns(m), 3)]
    assert patterns == [(23, (1, 4)), (31, (2, 3)), (41, (1, 4))]
    calls.clear()
    arith._fp_split.cache_clear()  # the patterns filled the memo at 23, 31, 41
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
        arith.degree_patterns(a)


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
    # the irreducibles of factor_over_Q grouped by multiplicity: the
    # squarefree decomposition
    grouped = {}
    for g, mult in factor_over_Q(a).factors:
        grouped[mult] = grouped.get(mult, UniPoly.one()) * g
    got = sorted((mult, g.coeffs) for mult, g in grouped.items())
    assert got == expected
    assert is_squarefree(a) == all(mult == 1 for mult, _ in expected)


def test_squarefree_mod_a_prime_runs_no_gcd_over_Q(monkeypatch):
    calls = _count_poly_gcd(monkeypatch)
    f = UniPoly.make(X0_71_COEFFS)
    assert is_squarefree(f) and {mult for _, mult in factor_over_Q(f).factors} == {1}
    assert calls == []
    # 23 | lc, and (x - 1)(x - 24) is (x - 1)^2 mod 23 only: the fast path
    # goes on to 29
    assert is_squarefree(poly(-1, 0, 23 * 2)) and is_squarefree(poly(24, -25, 1))
    assert calls == []
    # not squarefree mod 23, 29 or 31: the gcd over Q decides
    assert is_squarefree(COLLIDING) and len(calls) == 1
    assert dict(factor_over_Q(COLLIDING).factors) == {poly(-1, 1): 1, poly(-20678, 1): 1}
    assert len(calls) == 2
    assert not is_squarefree(poly(-1, 1) ** 2 * poly(2, 1))


@given(
    st.sampled_from([23, 29, 31]),
    st.lists(st.integers(0, 30), min_size=1, max_size=6),
    st.lists(st.integers(0, 30), min_size=1, max_size=3),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
@example(23, [1] + [0] * 22, [0], False)  # (x + 1)^23 mod 23: f' = 0
def test_fp_split_is_none_exactly_off_the_squarefree_residues(p, low, square_low, square):
    sympy = pytest.importorskip("sympy")
    f = _fp_reduce(low + [1], p)
    if square:
        h = _fp_reduce(square_low + [1], p)
        f = _fp_mul(f, _fp_mul(h, h, p), p)
    # sympy's is_sqf reads (x + 1)^23 mod 23 as squarefree; its sqf_list does not
    _, ref = sympy.Poly(list(reversed(f)), sympy.Symbol("x"), modulus=p).sqf_list()
    assert (_fp_split(tuple(f), p) is not None) == all(mult == 1 for _, mult in ref)


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
    patterns = islice(arith.degree_patterns(m), 20)
    orders = [(p, parts, lcm(*pattern)) for p, pattern, parts in patterns
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


# --- inverses modulo a polynomial ------------------------------------------


def check_inverse_matches_euclid(a, m):
    """The kernel-solved inverse agrees with extended Euclid: both raise
    BadInput, or both give the t with a*t = 1 mod m and deg t < deg m."""
    try:
        expected = euclid_inverse_mod(a, m)
    except BadInput:
        with pytest.raises(BadInput):
            arith._poly_inverse_mod(a, m)
        return
    t = arith._poly_inverse_mod(a, m)
    assert t == expected
    assert ((a * t - UniPoly.one()) % m).is_zero
    assert t.degree is None or t.degree < m.degree


@given(polys(10), polys(8, nonzero=True).filter(lambda m: m.degree >= 1))
@settings(max_examples=80)
def test_inverse_mod_matches_euclid(a, m):
    check_inverse_matches_euclid(a, m)


@given(
    polys(9, nonzero=True),
    st.lists(small_rationals(), min_size=1, max_size=3).map(lambda low: UniPoly.make([*low, 1])),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=40)
def test_inverse_mod_matches_euclid_on_prime_powers(a, p, k):
    # hensel_sqrt inverts modulo p^prec for a monic p, here of degree 1-3
    check_inverse_matches_euclid(a, p**k)


def test_inverse_mod_edge_cases():
    check_inverse_matches_euclid(poly(0, 1), poly(0, 0, 1))  # x shares x with x^2
    check_inverse_matches_euclid(UniPoly.zero(), poly(1, 1))
    check_inverse_matches_euclid(poly(2), poly(1, 0, 3))  # a constant, m not monic
    check_inverse_matches_euclid(poly(1, 2, 3), poly(5))  # a constant modulus
    # constants, inverted without the kernel
    for m in (parse_poly("x^3-2"), parse_poly("x^5-x-1"), parse_poly("x^7-x-1")):
        for c in (Fraction(1), Fraction(-3, 7)):
            check_inverse_matches_euclid(UniPoly.const(c), m)
            check_inverse_matches_euclid(UniPoly.const(c) + m, m)  # a constant residue
    with pytest.raises(BadInput):
        arith._poly_inverse_mod(poly(-1, 1), poly(-1, 0, 1))


# --- interpolation helper --------------------------------------------------


def test_lagrange_interpolation():
    pts = [(0, 1), (1, 2), (2, 5), (-1, 2)]
    p = lagrange_interpolate(pts)
    for x, y in pts:
        assert p(Fraction(x)) == y


def test_factorization_dataclass_roundtrip():
    f = Factorization(Fraction(2), ((poly(-1, 1), 2),))
    assert f.expand() == poly(-1, 1) ** 2 * 2
