import dataclasses
import itertools
import os
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import run_python
from oracles import poly
from primpoints import arith, linalg, numfield
from primpoints.arith import (
    UniPoly,
    _DetRng,
    _fp_distinct_degree,
    _fp_equal_degree,
    factor_over_Q,
    interpolate_values,
    is_prime,
    resultant,
)
from primpoints.errors import (
    Degenerate,
    NotInert,
    ReduciblePolynomial,
    VerificationFailed,
    ZeroPolynomial,
)
from primpoints.formats import parse_poly
from primpoints.numfield import (
    NfPoly,
    absolute_minpoly,
    factor_over_nf,
    field_report,
    frobenius_certificate,
    is_primitive_field,
    nf_minpoly,
    nf_new,
    pair_norm,
    principal_subfields,
)
from primpoints.permact import cycle_type_fits_blocks

CORPUS_FILE = os.path.join(
    os.path.dirname(__file__), "..", "fixtures", "primitivity_corpus.txt"
)


def subfields_of(K):
    """principal_subfields on K's own endless stream of degree patterns."""
    return principal_subfields(K, numfield.degree_patterns(K.min_poly))


def certificate_of(m):
    """frobenius_certificate on m's own stream of degree patterns."""
    return frobenius_certificate(m, numfield.degree_patterns(m))


def test_nf_new():
    K = nf_new(poly(-2, 0, 1))
    assert K.degree == 2
    with pytest.raises(ReduciblePolynomial):
        nf_new(poly(-1, 0, 1))
    with pytest.raises(ZeroPolynomial):
        nf_new(UniPoly.zero())
    assert nf_new(poly(-2, 0, 0, 0, 1)).degree == 4
    # non-monic input is normalized
    assert nf_new(poly(-4, 0, 2)).min_poly == poly(-2, 0, 1)


def test_nf_element_arithmetic():
    K = nf_new(poly(-2, 0, 1))  # Q(sqrt 2)
    t = K.gen()
    assert (t * t).repr == poly(2)
    inv = t.inverse()
    assert (t * inv).repr == poly(1)
    assert (t + K.one()).coords() == [1, 1]
    assert t.norm() == -2  # Norm(sqrt2) = -2


def test_nf_minpoly_examples():
    K = nf_new(poly(-2, 0, 1))
    assert nf_minpoly(K.gen()) == poly(-2, 0, 1)
    K4 = nf_new(poly(-2, 0, 0, 0, 1))
    theta2 = K4.gen() * K4.gen()
    assert nf_minpoly(theta2) == poly(-2, 0, 1)  # (theta^2)^2 = 2
    assert nf_minpoly(K4.const(3)) == poly(-3, 1)


def test_factor_over_nf_quadratic_field():
    K = nf_new(poly(-2, 0, 1))
    t = K.gen()
    a = NfPoly.from_rational(K, poly(-2, 0, 1))
    unit, factors = factor_over_nf(K, a)
    assert unit.repr == poly(1)
    assert [f.degree for f, _ in factors] == [1, 1]
    roots = sorted(str((-f.coeff(0)).repr) for f, _ in factors)
    assert roots == sorted([str(t.repr), str((-t).repr)])

    b = NfPoly.from_rational(K, poly(-3, 0, 1))
    _, factors_b = factor_over_nf(K, b)
    assert [f.degree for f, _ in factors_b] == [2]  # x^2-3 stays irreducible


def test_factor_over_nf_cubic_field():
    K = nf_new(poly(-2, 0, 0, 1))
    a = NfPoly.from_rational(K, poly(-2, 0, 0, 1))
    _, factors = factor_over_nf(K, a)
    assert sorted(f.degree for f, _ in factors) == [1, 2]
    # the quadratic factor has no root in K: else x^3-2 would split completely
    quad = next(f for f, _ in factors if f.degree == 2)
    lin = next(f for f, _ in factors if f.degree == 1)
    assert (-lin.coeff(0)).repr == UniPoly.x()  # root is theta itself


def test_factor_over_nf_with_multiplicity():
    K = nf_new(poly(-2, 0, 1))
    base = NfPoly.from_rational(K, poly(-2, 0, 1))
    sq = base * base
    _, factors = factor_over_nf(K, sq)
    assert sorted(m for _, m in factors) == [2, 2]


# ---------------------------------------------------------------------------
# brute-force subfield oracle: enumerate small power combinations of theta,
# take minimal polynomials, and record any proper intermediate degree


def brute_force_proper_subfield_degrees(K, coeff_range=(-2, 3), max_support=2):
    d = K.degree
    found = set()
    gen = K.gen()
    powers = [gen**i for i in range(1, d)]
    indices = range(len(powers))
    for support in range(1, max_support + 1):
        for combo in itertools.combinations(indices, support):
            for coefs in itertools.product(
                range(coeff_range[0], coeff_range[1]), repeat=support
            ):
                if all(c == 0 for c in coefs):
                    continue
                e = K.zero()
                for idx, c in zip(combo, coefs):
                    if c:
                        e = e + powers[idx] * Fraction(c)
                if e.is_zero:
                    continue
                k = nf_minpoly(e).degree
                if 1 < k < d:
                    found.add(k)
    return found


CORPUS = [
    # (defining polynomial, expected primitive?)
    (poly(-2, 0, 1), True),  # quadratic: no intermediate field possible
    (poly(-2, 0, 0, 1), True),  # prime degree 3
    (poly(-2, 0, 0, 0, 1), False),  # Q(2^(1/4)) contains Q(sqrt2)
    (poly(1, 0, 0, 0, 1), False),  # 8th cyclotomic: three quadratic subfields
    (poly(1, 1, 0, 0, 1), True),  # x^4+x+1, Galois group S4
    (poly(1, -1, 0, 0, 1), True),  # x^4-x+1
    (poly(1, 0, 1, 0, 1), False),  # x^4+x^2+1 = (x^2+x+1)(x^2-x+1): reducible guard
    (poly(-2, 0, 0, 0, 0, 0, 1), False),  # x^6-2: subfields of degree 2 and 3
    (poly(-1, -1, 0, 0, 0, 1), True),  # x^5-x-1 prime degree
    (poly(-1, -1, 0, 0, 0, 0, 1), True),  # x^6-x-1: Galois group S6
]


def test_principal_subfields_examples():
    report = subfields_of(nf_new(poly(-2, 0, 0, 0, 1)))
    assert not report.is_primitive
    assert 2 in report.principal_subfield_degrees
    assert all(k in (1, 2, 4) for k in report.principal_subfield_degrees)

    report3 = subfields_of(nf_new(poly(-2, 0, 0, 1)))
    assert report3.is_primitive

    report41 = subfields_of(nf_new(poly(1, 1, 0, 0, 1)))
    assert report41.is_primitive


def test_squarefree_norm_search_raises_degenerate_when_the_shifts_run_out(monkeypatch):
    monkeypatch.setattr(numfield, "PAIR_NORM_SHIFTS", ())
    with pytest.raises(Degenerate):
        subfields_of(nf_new(poly(-2, 0, 0, 0, 1)))
    # no shift of the quadratic norm passes the squarefreeness test
    monkeypatch.setattr(numfield, "is_squarefree", lambda norm: False)
    with pytest.raises(Degenerate):
        numfield.shifted_norm(poly(1, 0, 1), poly(1, 0, 0, 0, 0, 1))


def test_is_primitive_field_examples():
    assert is_primitive_field(poly(-1, -1, 0, 0, 0, 1))  # x^5-x-1
    assert not is_primitive_field(poly(-2, 0, 0, 0, 1))  # x^4-2
    assert not is_primitive_field(poly(-2, 0, 0, 0, 0, 0, 1))  # x^6-2
    with pytest.raises(ReduciblePolynomial):
        is_primitive_field(poly(-1, 0, 0, 0, 1))  # x^4-1 reducible
    with pytest.warns(UserWarning):
        assert not is_primitive_field(poly(-5, 1))


def test_field_report_routes():
    # imprimitive: the proper principal subfield degrees, sorted, duplicates kept
    report = field_report(poly(1, 0, 0, 0, 1))  # x^4+1
    assert not report.is_primitive
    assert report.proper_subfield_degrees == (2, 2, 2)
    assert report.principal_subfield_degrees == (2, 2, 2, 4)
    assert report.route == numfield.PRINCIPAL_SUBFIELDS
    assert report.frobenius_cycle_types == ()
    assert field_report(poly(-2, 0, 0, 0, 0, 0, 1)).proper_subfield_degrees == (2, 3)
    # primitive through a Frobenius certificate: a 3-cycle at p = 43 fits no
    # pair of blocks of size 2
    report = field_report(poly(1, 1, 0, 0, 1))  # x^4+x+1
    assert report.is_primitive and report.proper_subfield_degrees == ()
    assert report.route == numfield.FROBENIUS
    assert report.frobenius_cycle_types == ((43, (1, 3)),)
    # primitive through the subfield search
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numfield, "FROBENIUS_PRIME_BUDGET", 0)
        report = field_report(poly(1, 1, 0, 0, 1))  # x^4+x+1
    assert report.is_primitive and report.proper_subfield_degrees == ()
    assert report.route == numfield.PRINCIPAL_SUBFIELDS
    assert report.principal_subfield_degrees == (1, 4)
    # prime degree: primitive without a subfield search, but still validated
    report = field_report(poly(-1, -1, 0, 0, 0, 1))
    assert report == numfield.SubfieldReport((), True, route=numfield.PRIME_DEGREE)
    with pytest.raises(ReduciblePolynomial):
        field_report(poly(-1, 0, 0, 1))  # x^3-1
    with pytest.raises(ReduciblePolynomial):
        field_report(poly(-1, 0, 0, 0, 1))  # x^4-1: validated before the Frobenius route
    # degree 1: not primitive by convention, with a warning
    with pytest.warns(UserWarning):
        assert field_report(poly(-5, 1)) == numfield.SubfieldReport(
            (), False, route=numfield.DEGREE_ONE
        )
    with pytest.raises(ReduciblePolynomial):
        field_report(poly(3))
    with pytest.raises(ZeroPolynomial):
        field_report(UniPoly.zero())


@pytest.mark.parametrize("lit", ["x^4+1", "x^6-2", "x^4+x+1", "x^5-x-1", "x^8-2", "x^12-x-1"])
def test_field_report_takes_a_proven_field_without_re_proving_it(lit, monkeypatch):
    m = parse_poly(lit)
    expected = field_report(m)

    def no_proof(m):
        raise AssertionError("a NumberField needs no second irreducibility proof")

    monkeypatch.setattr(numfield, "nf_new", no_proof)
    assert field_report(numfield.NumberField(m)) == expected
    assert is_primitive_field(numfield.NumberField(m)) == expected.is_primitive


def test_trager_degree_sum_is_verified(monkeypatch):
    def lossy(a):
        fact = factor_over_Q(a)
        return dataclasses.replace(fact, factors=fact.factors[:-1])

    K = nf_new(poly(-2, 0, 1))
    monkeypatch.setattr(numfield, "factor_over_Q", lossy)
    with pytest.raises(VerificationFailed):
        factor_over_nf(K, NfPoly.from_rational(K, poly(-2, 0, 1)))


# ---------------------------------------------------------------------------
# Frobenius certificates of primitivity


def _composite_degree_corpus():
    out = []
    with open(CORPUS_FILE) as fh:
        for line in fh:
            if line.strip() and not line.startswith("#"):
                lit, tag, _ = line.strip().split(",")
                m = parse_poly(lit)
                if not is_prime(m.degree):
                    out.append((lit, m, tag))
    return out


def test_frobenius_route_never_certifies_an_imprimitive_corpus_field():
    imprimitive = 0
    for lit, m, tag in _composite_degree_corpus():
        K = nf_new(m)
        exact = subfields_of(K).is_primitive
        assert exact == (tag == "primitive"), lit
        certificate = certificate_of(K.min_poly)
        if exact:
            assert certificate, lit
        else:
            imprimitive += 1
            assert certificate is None, lit
    assert imprimitive == 22


@pytest.mark.parametrize("lit", ["x^8-2", "x^9-2", "x^10-3", "x^12-5"])
def test_frobenius_route_never_certifies_power_subfields(lit):
    # Eisenstein, so irreducible; theta^k generates a proper subfield for k | d
    m = parse_poly(lit)
    assert factor_over_Q(m).is_irreducible()
    assert certificate_of(m) is None


@given(st.sampled_from([4, 6]).flatmap(
    lambda d: st.lists(st.integers(min_value=-3, max_value=3), min_size=d, max_size=d)
))
@settings(max_examples=20, deadline=None)
def test_frobenius_route_is_sound_on_quartics_and_sextics(low):
    m = UniPoly.make(low + [1])
    assume(factor_over_Q(m).is_irreducible())
    if certificate_of(m) is not None:
        assert subfields_of(nf_new(m)).is_primitive, str(m)


@given(
    st.sampled_from([(2, 3), (3, 2)]),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=5, max_size=5),
)
@settings(max_examples=6, deadline=None)
def test_frobenius_route_never_certifies_composed_sextics(degrees, low):
    # m = g(h(x)) irreducible: Q(h(theta)) is a subfield of degree deg g
    dg, dh = degrees
    g = UniPoly.make(low[:dg] + [1])
    h = UniPoly.make(low[dg:dg + dh] + [1])
    m = g.compose(h)
    assume(factor_over_Q(m).is_irreducible())
    assert certificate_of(m) is None, str(m)
    assert dg in subfields_of(nf_new(m)).proper_subfield_degrees, str(m)


def test_frobenius_certificate_is_checkable():
    """Each (p, cycle type) is the degree pattern of the full factorization
    mod p, and together they rule out every block size."""
    m = parse_poly("x^12-x-1")
    certificate = certificate_of(m)
    _, P = m.to_int_primitive()
    sizes = {2, 3, 4, 6}
    for p, ct in certificate:
        fp = [c % p for c in P]
        factors = _fp_equal_degree(_fp_distinct_degree(fp, p), p, _DetRng(p))
        assert tuple(sorted(len(f) - 1 for f in factors)) == ct
        sizes -= {b for b in sizes if not cycle_type_fits_blocks(ct, b)}
    assert not sizes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numfield, "FROBENIUS_PRIME_BUDGET", 1)
        assert certificate_of(m) is None  # (1, 3, 4, 4) at p = 23 leaves size 4
    assert certificate_of(parse_poly("x^7-x-1")) == ()


def _sympy_is_primitive(m):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.numberfields.galoisgroups import galois_group

    x = sympy.symbols("x")
    group, _ = galois_group(sympy.Poly([c for c in reversed(m.coeffs)], x, domain="QQ"))
    return group.is_primitive()


def test_primitivity_matches_sympy_galois_group_on_corpus():
    pytest.importorskip("sympy")
    literals = [
        line.split(",")[0]
        for line in open(CORPUS_FILE)
        if line.strip() and not line.startswith("#")
    ]
    assert len(literals) == 42
    for lit in literals:
        m = parse_poly(lit)
        assert field_report(m).is_primitive == _sympy_is_primitive(m), lit


@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4))
@settings(max_examples=25, deadline=None)
def test_quartic_primitivity_matches_sympy_galois_group(low):
    pytest.importorskip("sympy")
    m = UniPoly.make(low + [1])
    assume(factor_over_Q(m).is_irreducible())
    assert field_report(m).is_primitive == _sympy_is_primitive(m), str(m)


def test_primitivity_matches_brute_force_oracle():
    for m, expected in CORPUS:
        if not factor_over_Q(m).is_irreducible():
            continue
        assert is_primitive_field(m) == expected, str(m)
        if m.degree in (4, 6):
            K = nf_new(m)
            oracle = brute_force_proper_subfield_degrees(K)
            assert (not oracle) == expected, str(m)
            report = subfields_of(K)
            for k in oracle:
                assert k in report.principal_subfield_degrees


def test_x6_subfield_degrees():
    report = subfields_of(nf_new(poly(-2, 0, 0, 0, 0, 0, 1)))
    ks = set(report.principal_subfield_degrees)
    assert 2 in ks and 3 in ks


# ---------------------------------------------------------------------------
# Principal subfields from orbital graphs, against the route through Trager

# the fields of the imprimitive degree-6 classes a = +-12, +-5, +-7 on X0(71)
X0_71_IMPRIMITIVE_FIELDS = (
    "x^6+2x^5+x^4-x^3-x^2-x+1",
    "x^6+5/2*x^5+5/2*x^4-1/2*x^3-3/2*x^2-1/2*x+1/2",
    "x^6+5x^5+7x^4-2x^3-9x^2-2x+4",
)


def _trager_principal_subfield_degrees(K):
    """Test-only copy of the earlier route: factor m over K by Trager, then
    per factor h the Q-dimension of the kernel of g(theta) -> (g(x) mod h) -
    g(theta), which is the degree of its principal subfield."""
    d = K.degree
    _, factors = factor_over_nf(K, NfPoly.from_rational(K, K.min_poly))
    degrees = []
    for h, mult in factors:
        assert mult == 1
        x_pow = NfPoly.make(K, [K.one()])
        x_poly = NfPoly.make(K, [K.zero(), K.one()])
        theta_pow = K.one()
        columns = []
        for _ in range(d):
            diff = x_pow % h - NfPoly.make(K, [theta_pow])
            columns.append([c for j in range(h.degree) for c in diff.coeff(j).coords()])
            x_pow = x_pow * x_poly
            theta_pow = theta_pow * K.gen()
        matrix = [[col[r] for col in columns] for r in range(d * h.degree)]
        degrees.append(d - linalg.rank(matrix))
    return tuple(sorted(degrees))


@pytest.mark.parametrize(
    "lit", [lit for lit, _, _ in _composite_degree_corpus()] + list(X0_71_IMPRIMITIVE_FIELDS)
)
def test_orbital_degrees_match_the_trager_route(lit):
    K = nf_new(parse_poly(lit))
    report = subfields_of(K)
    assert report.principal_subfield_degrees == _trager_principal_subfield_degrees(K)


@given(
    st.sampled_from([(2, 3), (3, 2), (2, 2)]),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=5, max_size=5),
)
@settings(max_examples=12, deadline=None)
def test_orbital_degrees_match_the_trager_route_on_composed_fields(degrees, low):
    # m = g(h(x)) irreducible: Q(h(theta)) is a subfield of degree deg g
    dg, dh = degrees
    m = UniPoly.make(low[:dg] + [1]).compose(UniPoly.make(low[dg:dg + dh] + [1]))
    assume(factor_over_Q(m).is_irreducible())
    K = nf_new(m)
    report = subfields_of(K)
    assert dg in report.proper_subfield_degrees, str(m)
    assert report.principal_subfield_degrees == _trager_principal_subfield_degrees(K), str(m)


@given(
    st.sampled_from([(2, 4), (4, 2), (3, 3)]),
    st.lists(st.integers(min_value=-2, max_value=2), min_size=7, max_size=7),
)
@settings(max_examples=4, deadline=None)
def test_composed_fields_of_degree_8_and_9_list_deg_g(degrees, low):
    dg, dh = degrees
    m = UniPoly.make(low[:dg] + [1]).compose(UniPoly.make(low[dg:dg + dh] + [1]))
    assume(factor_over_Q(m).is_irreducible())
    assert dg in subfields_of(nf_new(m)).proper_subfield_degrees, str(m)


def _interpolated_pair_norm(m, s):
    """Test-only copy of the earlier construction of N_s: d^2 + 1 resultants
    Res_t(m(t), m(x0 - s*t)), then interpolation."""
    return interpolate_values(
        m.degree ** 2 + 1, lambda x0: resultant(m, m.compose(UniPoly.make([x0, -s])))
    )


@given(
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=1, max_size=4),
    st.sampled_from([1, 2, -2, 3, -5, 25]),
)
@settings(max_examples=20, deadline=None)
def test_pair_norm_composed_sum_is_the_resultant_norm(low, s):
    m = UniPoly.make(low + [1])
    assert pair_norm(m, s) == _interpolated_pair_norm(m, s)


def test_pair_roots_skip_fields_smaller_than_the_pair_count(monkeypatch):
    m = parse_poly("x^6-2")
    # p = 31 splits m (e = 1), but F_31 cannot hold 36 distinct pair values
    patterns = itertools.islice(numfield.degree_patterns(m), 20)
    split = [rec for rec in patterns if rec[1] == (1,) * 6]
    assert split[0][0] == 31
    roots_at_31 = numfield.fpe_roots(31, split[0][2], 1)
    assert numfield._distinct_shift(roots_at_31, numfield.PAIR_NORM_SHIFTS) is None
    calls = []
    original = numfield.fpe_roots

    def counted(p, parts, e):
        calls.append((p, e))
        return original(p, parts, e)

    monkeypatch.setattr(numfield, "fpe_roots", counted)
    # the serving primes are tried by fewest Frobenius orbits on ordered
    # pairs, and pattern (6) has 6, the fewest.  The first such prime,
    # p = 37, does not serve: 6 | 36 puts the sixth roots of unity z^k in
    # F_37, so the pair values r*(z^j + s*z^i) of the roots r*z^i lie on
    # the line r*F_37, and every shift makes two of them collide.  The
    # next prime of pattern (6), p = 61, keeps them apart at s = 3
    roots, s = numfield._pair_roots(m, numfield.degree_patterns(m))
    assert calls == [(37, 6), (61, 6)]
    assert (roots[0].field.p, len(roots[0].field.G) - 1, s) == (61, 6, 3)
    # a budget of such primes only: s is fixed over Q, where s = 2 collides,
    # and the stream is read on to a prime that keeps the pair values apart
    budget = split[:1] * numfield.FROBENIUS_PRIME_BUDGET
    roots, s = numfield._pair_roots(m, itertools.chain(budget, numfield.degree_patterns(m)))
    assert s == 3 and roots[0].field.p == 23
    assert len({rj + s * ri for ri in roots for rj in roots}) == 36
    # a stream that ends first is a Degenerate, not a failed unpacking
    with pytest.raises(Degenerate):
        numfield._pair_roots(m, budget)


def test_field_report_splits_by_degree_once(monkeypatch):
    calls = []
    original = numfield.degree_patterns

    def counting(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(numfield, "degree_patterns", counting)
    assert field_report(poly(-2, 0, 0, 0, 0, 0, 1)).proper_subfield_degrees == (2, 3)
    assert field_report(poly(-1, -1, 0, 0, 0, 0, 1)).route == numfield.FROBENIUS  # x^6-x-1
    assert len(calls) == 2


@pytest.mark.parametrize("lit", ["x^6-2", "x^6+5x^5+7x^4-2x^3-9x^2-2x+4"])
def test_field_report_splits_each_prime_of_m_once(monkeypatch, lit):
    # a NumberField, as `points` and `fiber` pass it: m is not factored again
    K = nf_new(parse_poly(lit))
    _, P = K.min_poly.to_int_primitive()
    splits = Counter()
    original = arith._fp_distinct_degree

    def counting(f, p):
        if f == arith._fp_monic(arith._fp_reduce(P, p), p):
            splits[p] += 1
        return original(f, p)

    monkeypatch.setattr(arith, "_fp_distinct_degree", counting)
    arith._fp_split.cache_clear()  # nf_new split m at its first primes
    # imprimitive, so the stream serves both routes, which both read p = 23
    assert field_report(K).proper_subfield_degrees
    assert splits[23] == 1 and max(splits.values()) == 1
    # a polynomial, counted from before `nf_new`: its factorization proves m
    # irreducible at 23, 29, ... and the degree-pattern stream reads the
    # same primes again, from the memo
    arith._fp_split.cache_clear()
    splits.clear()
    assert field_report(parse_poly(lit)).proper_subfield_degrees
    assert splits[23] == 1 and max(splits.values()) == 1


# one pair label flipped, two labels swapped (the counts still fit, the
# orbital graph does not), one lifted Q-factor of N_s / diag shifted by 1,
# one pair-norm factor shifted by 1 on its way to the labels, one root in
# F_{p^e} moved by 1, then one orbit product shifted by 1 on its way to the
# labels: each must make `field` exit 5 with the message of the check that
# caught it, and no traceback
CORRUPTED_ORBITALS = """
from oracles import poly
from primpoints import cli, numfield

labels, lift = numfield._pair_labels, numfield._lift_and_recombine
roots_in_fpe = numfield.fpe_roots

def one_label_flipped(factors, *rest):
    out = labels(factors, *rest)
    out[0, 0] = (out[0, 0] + 1) % len(factors)
    return out

def two_labels_swapped(*args):
    out = labels(*args)
    out[0, 0], out[0, 1] = out[0, 1], out[0, 0]
    return out

def one_lifted_factor_shifted(*args):
    h, *others = lift(*args)
    return [h + poly(1), *others]

def one_labelled_factor_shifted(factors, *rest):
    h, *others = factors
    return labels([h + poly(1), *others], *rest)

def one_root_moved(*args):
    roots = roots_in_fpe(*args)
    return [roots[0] + 1, *roots[1:]]

def one_orbit_product_shifted(factors, table, p):
    (orbit, g), *others = table
    return labels(factors, [(orbit, [(g[0] + 1) % p, *g[1:]]), *others], p)

for name, corrupted in (
    ("_pair_labels", one_label_flipped),
    ("_pair_labels", two_labels_swapped),
    ("_lift_and_recombine", one_lifted_factor_shifted),
    ("_pair_labels", one_labelled_factor_shifted),
    ("fpe_roots", one_root_moved),
    ("_pair_labels", one_orbit_product_shifted),
):
    original = getattr(numfield, name)
    setattr(numfield, name, corrupted)
    print(cli.main(["field", "x^4-2"]))
    setattr(numfield, name, original)
"""


@pytest.mark.parametrize("optimize", [False, True])
def test_corrupted_orbitals_raise_verification_failed(optimize):
    done = run_python(["-c", CORRUPTED_ORBITALS], optimize)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "5\n5\n5\n5\n5\n5\n"
    assert "Traceback" not in done.stderr
    assert done.stderr.count("internal verification failed") == 6
    assert "does not get deg h root pairs" in done.stderr
    assert "orbital graph components differ in size" in done.stderr
    assert done.stderr.count("lies on no pair-norm factor or on several") == 2
    assert "do not multiply back to N_s" in done.stderr


# the composed fields g(h(x)) of scripts/report_digest.py, degrees 8 to 12
DIGEST_COMPOSED_FIELDS = tuple(
    parse_poly(g).compose(parse_poly(h)).literal()
    for g, h in (
        ("x^2+x+3", "x^4+x^3-x+1"),
        ("x^4+x^3-x+1", "x^2+x+2"),
        ("x^3-x-1", "x^3+x+1"),
        ("x^2+x+3", "x^5-x-1"),
        ("x^5-x-1", "x^2+x+2"),
        ("x^3-x-1", "x^4+x^3-x+1"),
        ("x^2+x+3", "x^6+x+1"),
    )
)
# fields whose Frobenius elements all have small order
SMALL_ORDER_FIELDS = ("x^8+1", "x^8-40x^6+352x^4-960x^2+576", "x^9-3x^3+1", "x^6+x^3+1")


def _labels_of_every_pair(factors, roots, s):
    """{(i, j): the factors vanishing at r_j + s*r_i}, every pair evaluated."""
    p = roots[0].field.p
    residues = [[c.numerator * pow(c.denominator, -1, p) % p for c in h.coeffs] for h in factors]
    out = {}
    for i, ri in enumerate(roots):
        for j, rj in enumerate(roots):
            v = rj + s * ri
            hits = []
            for k, hp in enumerate(residues):
                acc = 0
                for c in reversed(hp):
                    acc = acc * v + c
                if not acc:
                    hits.append(k)
            out[i, j] = hits
    return out


@pytest.mark.parametrize(
    "lit",
    ["x^4-2", "x^6-2", "x^6+2x^5+x^4-x^3-x^2-x+1"]
    + list(DIGEST_COMPOSED_FIELDS) + list(SMALL_ORDER_FIELDS),
)
def test_pair_labels_per_frobenius_orbit_match_every_pair(lit):
    # the labels come from exact division mod p; the oracle evaluates every
    # factor at every pair value in F_{p^e}
    m = nf_new(parse_poly(lit)).min_poly
    roots, s = numfield._pair_roots(m, numfield.degree_patterns(m))
    factors = [h for h, _ in factor_over_Q(pair_norm(m, s)).factors]
    labels = numfield._pair_labels(factors, numfield._orbit_factors(roots, s), roots[0].field.p)
    assert {pair: [k] for pair, k in labels.items()} == _labels_of_every_pair(factors, roots, s)


def test_pair_labels_reject_roots_not_closed_under_frobenius():
    m = parse_poly("x^6-2")  # its roots lie in F_{61^6}, none of them in F_61
    roots, s = numfield._pair_roots(m, numfield.degree_patterns(m))
    p = roots[0].field.p
    k = next(i for i, r in enumerate(roots) if r ** p != r)
    roots[k] = roots[k] + 1
    with pytest.raises(VerificationFailed, match="p-th power of a root"):
        numfield._orbit_factors(roots, s)


def test_principal_subfields_walks_the_pair_orbits_once(monkeypatch):
    calls = []
    original = numfield._pair_orbits

    def counting(roots):
        calls.append(roots)
        return original(roots)

    monkeypatch.setattr(numfield, "_pair_orbits", counting)
    for lit in (*X0_71_IMPRIMITIVE_FIELDS, *SMALL_ORDER_FIELDS):
        calls.clear()
        subfields_of(nf_new(parse_poly(lit)))
        assert len(calls) == 1, lit


def _distinct_shift_by_counting(roots, shifts):
    """Test-only copy of the earlier `_distinct_shift`: all d^2 pair values
    per shift, counted."""
    for s in shifts:
        if len({rj + s * ri for ri in roots for rj in roots}) == len(roots) ** 2:
            return s
    return None


@pytest.mark.parametrize("lit", ["x^6-2", "x^6+3", "x^4+1", "x^8+1", X0_71_IMPRIMITIVE_FIELDS[0]])
def test_distinct_shift_reads_the_collisions_off_root_differences(lit):
    m = parse_poly(lit)
    for p, pattern, parts in itertools.islice(numfield.degree_patterns(m), 8):
        e = lcm(*pattern)
        if e not in pattern:
            continue
        roots = numfield.fpe_roots(p, parts, e)
        # 0 and +-p collide wherever d >= 2, +-1 always
        for s in (*range(-25, 26), p, -p):
            assert numfield._distinct_shift(roots, (s,)) == _distinct_shift_by_counting(
                roots, (s,)
            ), (lit, p, s)


def _assert_orbit_route_matches_factor_over_Q(m):
    roots, s = numfield._pair_roots(m, numfield.degree_patterns(m))
    oracle = [h for h, _ in factor_over_Q(pair_norm(m, s)).factors]
    table = numfield._orbit_factors(roots, s)
    assert numfield._pair_norm_factors(m, s, table, roots[0].field.p) == oracle, str(m)


@pytest.mark.parametrize(
    "lit",
    [lit for lit, _, tag in _composite_degree_corpus() if tag != "primitive"]
    + list(X0_71_IMPRIMITIVE_FIELDS) + list(DIGEST_COMPOSED_FIELDS) + list(SMALL_ORDER_FIELDS),
)
def test_pair_norm_factors_from_the_pair_roots_match_factor_over_Q(lit):
    _assert_orbit_route_matches_factor_over_Q(nf_new(parse_poly(lit)).min_poly)


@given(
    st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=6, max_size=6),
)
@settings(max_examples=6, deadline=None)
def test_pair_norm_factors_match_factor_over_Q_on_composed_fields(degrees, low):
    dg, dh = degrees
    m = UniPoly.make(low[:dg] + [1]).compose(UniPoly.make(low[dg:dg + dh] + [1]))
    try:
        K = nf_new(m)
    except ReduciblePolynomial:
        assume(False)
    _assert_orbit_route_matches_factor_over_Q(K.min_poly)


@pytest.mark.parametrize("lit", ["x^4-2", "x^6-2", "x^6+3", X0_71_IMPRIMITIVE_FIELDS[0]])
def test_orbit_factors_are_the_split_of_the_pair_norm_mod_p(lit):
    m = parse_poly(lit)
    roots, s = numfield._pair_roots(m, numfield.degree_patterns(m))
    p = roots[0].field.p
    d = m.degree
    diag = UniPoly.make([c * (1 + s) ** (d - i) for i, c in enumerate(m.coeffs)])
    table = numfield._orbit_factors(roots, s)
    for on_diagonal, target in ((False, pair_norm(m, s) // diag), (True, diag)):
        _, P = target.to_int_primitive()
        rest = arith._fp_monic(arith._fp_reduce(P, p), p)
        split = _fp_equal_degree(_fp_distinct_degree(rest, p), p, _DetRng(0))
        products = [g for orbit, g in table if (orbit[0][0] == orbit[0][1]) == on_diagonal]
        assert sorted(products, key=lambda c: (len(c), c)) == split, on_diagonal


def test_pair_norm_factors_reject_pair_values_off_the_pair_norm():
    # x^6-2 splits mod 23 as (1, 1, 2, 2): roots[0] lies in F_23, so moved by
    # 1 it is still closed under Frobenius and its orbit products lie in
    # F_23[x], but they no longer multiply to N_s / diag mod 23
    m = parse_poly("x^6-2")
    p, pattern, parts = next(iter(numfield.degree_patterns(m)))
    assert (p, pattern) == (23, (1, 1, 2, 2))
    roots = numfield.fpe_roots(p, parts, 2)
    roots[0] = roots[0] + 1
    s = numfield._distinct_shift(roots, numfield.PAIR_NORM_SHIFTS)
    with pytest.raises(VerificationFailed, match="do not multiply to N_s / diag mod p"):
        numfield._pair_norm_factors(m, s, numfield._orbit_factors(roots, s), p)


@pytest.mark.parametrize("lit", X0_71_IMPRIMITIVE_FIELDS)
def test_principal_subfields_split_nothing_of_degree_above_d(monkeypatch, lit):
    # the factors of the degree-36 pair norm mod p are read off the roots of
    # m in F_{p^e}: no split by degree sees more than m, and m's roots are
    # found at one prime
    m = parse_poly(lit)
    degrees, roots_at = [], []
    distinct, equal, roots_in_fpe = (
        arith._fp_distinct_degree, arith._fp_equal_degree, numfield.fpe_roots
    )

    def counting_distinct(f, p):
        degrees.append(len(f) - 1)
        return distinct(f, p)

    def counting_equal(parts, p, rng):
        degrees.extend(len(g) - 1 for g, _ in parts)
        return equal(parts, p, rng)

    def counting_roots(p, parts, e):
        roots_at.append(p)
        return roots_in_fpe(p, parts, e)

    monkeypatch.setattr(arith, "_fp_distinct_degree", counting_distinct)
    monkeypatch.setattr(arith, "_fp_equal_degree", counting_equal)
    monkeypatch.setattr(numfield, "fpe_roots", counting_roots)
    assert field_report(m).proper_subfield_degrees
    assert degrees and max(degrees) <= m.degree
    assert len(roots_at) == 1


# ---------------------------------------------------------------------------
# absolute minimal polynomial of (x, y) with p(x)=0, y^2=f(x)


def test_absolute_minpoly_quadratic_point():
    # p = x-2, f = x+1: y^2 = 3
    out = absolute_minpoly(poly(-2, 1), poly(1, 1))
    assert out == poly(-3, 0, 1)


def test_absolute_minpoly_degree4():
    # p = x^2-2, f = x: y^2 = sqrt(2), so y^4 = 2
    out = absolute_minpoly(poly(-2, 0, 1), poly(0, 1))
    assert out == poly(-2, 0, 0, 0, 1)


def test_absolute_minpoly_not_inert():
    with pytest.raises(NotInert):
        absolute_minpoly(poly(-1, 1), poly(0, 1))  # y^2 = 1 splits
    with pytest.raises(NotInert):
        absolute_minpoly(poly(0, 1), poly(0, 1))  # f = 0 mod p: ramified


def test_absolute_minpoly_leaves_the_branch_test_to_classify_place(monkeypatch):
    def no_trager(*args):
        raise AssertionError("absolute_minpoly called factor_over_nf")

    monkeypatch.setattr(numfield, "factor_over_nf", no_trager)
    assert absolute_minpoly(poly(-2, 0, 1), poly(0, 1)) == poly(-2, 0, 0, 0, 1)
    with pytest.raises(NotInert):
        absolute_minpoly(poly(-1, 1), poly(0, 1))  # split: y^2 = 1
    with pytest.raises(NotInert):
        absolute_minpoly(poly(-2, 0, 1), poly(-2, 0, 0, 0, 1))  # split: y = +-x
    with pytest.raises(NotInert):
        absolute_minpoly(poly(0, 1), poly(0, 1))  # ramified


@pytest.mark.parametrize("optimize", [False, True])
def test_absolute_minpoly_not_inert_under_optimize(optimize):
    code = (
        "from oracles import poly\n"
        "from primpoints.errors import NotInert\n"
        "from primpoints.numfield import absolute_minpoly\n"
        "for p, f in ((poly(-2, 0, 1), poly(-2, 0, 0, 0, 1)), (poly(0, 1), poly(0, 1))):\n"
        "    try:\n"
        "        absolute_minpoly(p, f)\n"
        "    except NotInert:\n"
        "        print('NotInert')\n"
    )
    done = run_python(["-c", code], optimize)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "NotInert\nNotInert\n"


def test_absolute_minpoly_degree_and_irreducibility():
    # cubic point: p = x^3-2, f = x+3 (f(2^(1/3)) is not a square in the field)
    out = absolute_minpoly(poly(-2, 0, 0, 1), poly(3, 1))
    assert out.degree == 6
    assert factor_over_Q(out).is_irreducible()
