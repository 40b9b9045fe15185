"""Number fields K = Q[t]/(m), factorization over K, and primitivity.

`factor_over_nf` factors over K by Trager's norm method: push a squarefree
polynomial down to Q by the norm of a generic shift, factor over Q, and
pull the factors back with gcds over K.  Nothing else in the package uses
it: points y^2 = f over an x-polynomial p need just the quadratic norm of
`shifted_norm`, for `hyperell.classify_place` and `hyperell.point_field`,
and principal subfields come from one norm over Q, with no arithmetic
over K.

This module is the only one that decides primitivity.  `field_report`
validates m and tries four routes in order:

1. degree 1: not primitive by convention, with a warning;
2. prime degree (m proven irreducible, by `nf_new` or, for the field of
   a place, already by the factorization that found it): primitive, since
   no degree strictly between 1 and d divides d;
3. Frobenius cycle types: K is primitive iff Gal(m) acts primitively on
   the roots of m (the stabilizer lemma).  At a good prime p the degrees
   of the factors of m mod p are the cycle type of a Frobenius element
   (Dedekind), and a cycle type that fits no system of blocks of size b
   rules b out (`permact.cycle_type_fits_blocks`).  Once every block size
   b | d, 1 < b < d, is ruled out within `FROBENIUS_PRIME_BUDGET` good
   primes, K is primitive.  The route never proves imprimitivity;
4. principal subfields: the exact fallback.  A proper nontrivial subfield
   exists iff some principal subfield, attached to an irreducible factor
   of m over K, has degree strictly between 1 and [K:Q], because every
   maximal subfield is principal.  Their degrees are read off the orbital
   graphs of Gal(m): the Q-factors of the squarefree norm of the root pairs
   theta_j + s*theta_i, at one prime p where all roots of m lie in F_{p^e},
   picked for the fewest Frobenius orbits on ordered pairs.  One table of
   those orbits and their products mod p serves all the work mod p: each
   orbit off the diagonal is one irreducible factor of the norm, lifted
   and recombined with no splitting; the diagonal gives the Q-factor
   (1+s)^d * m(x/(1+s)), m rescaled; and an orbit's label is the one
   Q-factor its product divides mod p.  Routes 3 and 4 read one lazy stream
   of degree patterns with their distinct-degree splits, and `fpe_roots`
   takes the split at the prime route 4 picks, so no prime of m is split
   twice there.  A polynomial m is first proven irreducible by the
   factorization in `nf_new`, and the stream reads that factorization's
   splits at the same first primes from `arith`'s memo of splits, so no
   prime of m is split twice across both either.

`is_primitive_field` is its bool view.

The pair norm is a composed sum, built from power sums by Newton's
identities.  The other norms and characteristic polynomials (Trager's, the
quadratic norm of `shifted_norm`, `nf_minpoly`) are computed by exact
evaluation / interpolation instead of symbolic bivariate resultants; with
m monic the two agree pointwise.
"""

from __future__ import annotations

import itertools
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm

from . import linalg
from .arith import (
    UniPoly,
    _fp_monic,
    _fp_mul,
    _fp_reduce,
    _fp_rem,
    _lift_and_recombine,
    _poly_inverse_mod,
    degree_patterns,
    factor_over_Q,
    fpe_roots,
    interpolate_values,
    is_prime,
    is_squarefree,
    poly_gcd,
    resultant,
    squarefree_part,
)
from .errors import (
    Degenerate,
    NotInert,
    ReduciblePolynomial,
    VerificationFailed,
    ZeroPolynomial,
)
from .permact import cycle_type_fits_blocks


@dataclass(frozen=True)
class NumberField:
    """K = Q[t]/(min_poly), min_poly monic irreducible."""

    min_poly: UniPoly

    @property
    def degree(self) -> int:
        return self.min_poly.degree

    def const(self, c) -> "NfElement":
        return NfElement(self, UniPoly.const(c) if c else UniPoly.zero())

    def gen(self) -> "NfElement":
        return NfElement(self, UniPoly.x() % self.min_poly)

    def zero(self) -> "NfElement":
        return NfElement(self, UniPoly.zero())

    def one(self) -> "NfElement":
        return NfElement(self, UniPoly.one())


@dataclass(frozen=True)
class NfElement:
    """Element of a NumberField, represented by a polynomial of degree < d."""

    parent: NumberField
    repr: UniPoly

    @property
    def is_zero(self) -> bool:
        return self.repr.is_zero

    def __add__(self, other):
        return NfElement(self.parent, self.repr + other.repr)

    def __sub__(self, other):
        return NfElement(self.parent, self.repr - other.repr)

    def __neg__(self):
        return NfElement(self.parent, -self.repr)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return NfElement(self.parent, self.repr.scale(other))
        return NfElement(self.parent, (self.repr * other.repr) % self.parent.min_poly)

    __rmul__ = __mul__

    def inverse(self) -> "NfElement":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero field element")
        return NfElement(self.parent, _poly_inverse_mod(self.repr, self.parent.min_poly))

    def __pow__(self, n: int):
        result = self.parent.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def coords(self) -> list:
        """Coordinates in the power basis 1, t, ..., t^(d-1)."""
        d = self.parent.degree
        return [self.repr.coeff(i) for i in range(d)]

    def norm(self) -> Fraction:
        """Product of the conjugates, as a resultant against min_poly."""
        if self.is_zero:
            return Fraction(0)
        return resultant(self.parent.min_poly, self.repr)


def nf_new(m: UniPoly) -> NumberField:
    """Build Q[t]/(m) after monic normalization; rejects reducible m."""
    if m.is_zero:
        raise ZeroPolynomial("number field needs a nonzero defining polynomial")
    m = m.monic()
    if m.degree < 1:
        raise ReduciblePolynomial("constant polynomial defines no field")
    fact = factor_over_Q(m)
    if not fact.is_irreducible():
        raise ReduciblePolynomial(
            f"defining polynomial factors as {[str(f) for f, _ in fact.factors]}",
            factors=fact,
        )
    return NumberField(m)


def nf_minpoly(e: NfElement) -> UniPoly:
    """Monic minimal polynomial of e over Q.

    Characteristic polynomial of multiplication-by-e (degree d), then the
    squarefree part; the characteristic polynomial is a power of the
    irreducible minimal polynomial, so this extracts it exactly.
    """
    d = e.parent.degree
    theta_pows = [e.parent.one()]
    gen = e.parent.gen()
    for _ in range(d - 1):
        theta_pows.append(theta_pows[-1] * gen)
    columns = [(e * basis).coords() for basis in theta_pows]
    # char(x) = det(x*I - M) with M the multiplication matrix; interpolate
    # from d+1 exact evaluations.
    char = interpolate_values(
        d + 1,
        lambda x0: linalg.det(
            [[(x0 if i == j else 0) - columns[j][i] for j in range(d)] for i in range(d)]
        ),
    )
    assert char.degree == d and char.lc == 1
    return squarefree_part(char)


# ---------------------------------------------------------------------------
# Polynomials over K


@dataclass(frozen=True)
class NfPoly:
    """Dense polynomial with NfElement coefficients, lowest degree first."""

    parent: NumberField
    coeffs: tuple  # of NfElement, no trailing zeros

    @staticmethod
    def make(parent: NumberField, coeffs) -> "NfPoly":
        out = list(coeffs)
        while out and out[-1].is_zero:
            out.pop()
        return NfPoly(parent, tuple(out))

    @staticmethod
    def from_rational(parent: NumberField, p: UniPoly) -> "NfPoly":
        return NfPoly.make(parent, [parent.const(c) for c in p.coeffs])

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> NfElement:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial over K")
        return self.coeffs[-1]

    def coeff(self, i: int) -> NfElement:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.parent.zero()

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return NfPoly.make(self.parent, out)

    def __neg__(self):
        return NfPoly(self.parent, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, NfElement):
            return NfPoly.make(self.parent, [c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return NfPoly(self.parent, ())
        out = [self.parent.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ca in enumerate(self.coeffs):
            if not ca.is_zero:
                for j, cb in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + ca * cb
        return NfPoly.make(self.parent, out)

    def __divmod__(self, divisor):
        if divisor.is_zero:
            raise ZeroPolynomial("division by zero over K")
        inv = divisor.lc.inverse()
        rem = list(self.coeffs)
        dd = divisor.degree
        if len(rem) - 1 < dd:
            return NfPoly(self.parent, ()), self
        quot = [self.parent.zero()] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c.is_zero:
                continue
            q = c * inv
            quot[i - dd] = q
            for j, dc in enumerate(divisor.coeffs):
                rem[i - dd + j] = rem[i - dd + j] - q * dc
        return NfPoly.make(self.parent, quot), NfPoly.make(self.parent, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def monic(self) -> "NfPoly":
        if self.is_zero:
            return self
        return self * self.lc.inverse()

    def derivative(self) -> "NfPoly":
        return NfPoly.make(
            self.parent,
            [c * i for i, c in enumerate(self.coeffs) if i],
        )

    def evaluate(self, value: NfElement) -> NfElement:
        result = self.parent.zero()
        for c in reversed(self.coeffs):
            result = result * value + c
        return result

    def shift_by(self, s: int) -> "NfPoly":
        """Substitute x -> x - s*theta."""
        theta = self.parent.gen()
        shift = NfPoly.make(self.parent, [theta * Fraction(-s), self.parent.one()])
        result = NfPoly(self.parent, ())
        for c in reversed(self.coeffs):
            result = result * shift + NfPoly.make(self.parent, [c])
        return result


def nfp_gcd(a: NfPoly, b: NfPoly) -> NfPoly:
    """Monic gcd over K by the Euclidean algorithm."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else a


def _nf_norm_poly(a: NfPoly) -> UniPoly:
    """Norm of a down to Q[x]: the product of the conjugates of a.

    Computed by evaluation at deg(a)*d + 1 rational points followed by
    interpolation; each value is Norm(a(x0)) = Res(min_poly, a(x0)-repr).
    """
    K = a.parent
    return interpolate_values(
        a.degree * K.degree + 1, lambda x0: a.evaluate(K.const(x0)).norm()
    )


def factor_over_nf(K: NumberField, a: NfPoly):
    """Complete factorization over K: (unit, [(monic irreducible, mult)]).

    Verified by exact re-multiplication before returning.
    """
    if a.is_zero:
        raise ZeroPolynomial("factorization of the zero polynomial over K")
    unit = a.lc
    work = a.monic()
    if work.degree == 0:
        return unit, []
    factors = []
    # squarefree split first so Trager always sees separable input
    deriv = work.derivative()
    if deriv.is_zero:
        sqfree = work
    else:
        g = nfp_gcd(work, deriv)
        sqfree = (work // g).monic() if g.degree and g.degree > 0 else work
    for irr in _trager_squarefree(K, sqfree):
        mult = 0
        while True:
            q, r = divmod(work, irr)
            if r.is_zero:
                work = q
                mult += 1
            else:
                break
        assert mult >= 1
        factors.append((irr, mult))
    assert work.degree == 0
    factors.sort(key=lambda fm: (fm[0].degree, [c.repr.sort_key() for c in fm[0].coeffs]))
    check = NfPoly.make(K, [unit])
    for f, m in factors:
        for _ in range(m):
            check = check * f
    if not _nfp_eq(check, a):
        raise VerificationFailed("factorization over K failed re-multiplication")
    return unit, factors


def _nfp_eq(a: NfPoly, b: NfPoly) -> bool:
    if len(a.coeffs) != len(b.coeffs):
        return False
    return all(x.repr == y.repr for x, y in zip(a.coeffs, b.coeffs))


def _trager_squarefree(K: NumberField, a: NfPoly):
    """Irreducible monic factors over K of a monic squarefree polynomial."""
    if a.degree == 1:
        return [a]
    shifts = [0]
    for k in range(1, 26):
        shifts.extend([k, -k])
    for s in shifts:
        shifted = a.shift_by(s)
        norm = _nf_norm_poly(shifted)
        if poly_gcd(norm, norm.derivative()).degree != 0:
            continue
        out = []
        fact = factor_over_Q(norm)
        for h, mult in fact.factors:
            assert mult == 1
            h_shift_back = NfPoly.from_rational(K, h).shift_by(-s)
            g = nfp_gcd(a, h_shift_back)
            if g.degree and g.degree > 0:
                out.append(g)
        if sum(g.degree for g in out) != a.degree:
            raise VerificationFailed("Trager factor degrees do not sum to the degree")
        return out
    raise Degenerate("no squarefree Trager shift found within the search cap")


# ---------------------------------------------------------------------------
# Principal subfields and primitivity


DEGREE_ONE, PRIME_DEGREE, FROBENIUS, PRINCIPAL_SUBFIELDS = (
    "degree-1",
    "prime-degree",
    "frobenius",
    "principal-subfields",
)

# good primes tried by the Frobenius route before the exact fallback
FROBENIUS_PRIME_BUDGET = 20


@dataclass(frozen=True)
class SubfieldReport:
    """Principal subfield degrees, the proper ones among them, and the verdict.

    `proper_subfield_degrees` lists the principal subfield degrees strictly
    between 1 and [K:Q], sorted, duplicates kept; it is empty whenever the
    verdict did not need the subfield search.  `route` names the route of
    `field_report` that decided the verdict; on the Frobenius route
    `frobenius_cycle_types` holds the certificate: (p, cycle type) pairs,
    each ruling out at least one block size the earlier ones left open.
    """

    principal_subfield_degrees: tuple
    is_primitive: bool
    proper_subfield_degrees: tuple = ()
    route: str = PRINCIPAL_SUBFIELDS
    frobenius_cycle_types: tuple = ()


# shifts s of the pair norm; 0 and +-1 never give a squarefree norm of a
# rational m, since the diagonal pairs or the pairs (i, j), (j, i) collide
PAIR_NORM_SHIFTS = tuple(s for k in range(2, 26) for s in (k, -k))


def _pair_orbits(roots) -> list:
    """The orbits of Frobenius on the ordered pairs (i, j) of `roots`, each a
    list of pairs in the order (i, j), (sigma i, sigma j), ...

    The roots are those of `fpe_roots`; sigma is read off r^p, and a root
    whose p-th power is not a root raises VerificationFailed.  Diagonal
    pairs (i, i) form orbits of their own.
    """
    p = roots[0].field.p
    index = {r: i for i, r in enumerate(roots)}
    sigma = [index.get(r ** p) for r in roots]
    if None in sigma:
        raise VerificationFailed("the p-th power of a root in F_{p^e} is not a root")
    seen, orbits = set(), []
    for a, b in itertools.product(range(len(roots)), repeat=2):
        orbit = []
        while (a, b) not in seen:
            seen.add((a, b))
            orbit.append((a, b))
            a, b = sigma[a], sigma[b]
        if orbit:
            orbits.append(orbit)
    return orbits


def _orbit_factors(roots, s: int) -> list:
    """The Frobenius-orbit table of one `principal_subfields` call: (orbit,
    g) for each orbit of `_pair_orbits`, diagonal ones included, with g the
    monic product of x - (r_j + s*r_i) over the orbit as residues mod p.

    The d^2 pair values must be distinct.  Frobenius maps r_j + s*r_i to
    r_(sigma j) + s*r_(sigma i), since s lies in F_p, so it permutes the
    roots of each product: its coefficients lie in F_p, where a product
    outside F_p[x] raises VerificationFailed, and it permutes them
    transitively, so the product is irreducible mod p.  The products off
    the diagonal are the irreducible factors of N_s / diag mod p.
    """
    F = roots[0].field
    one = F((1,))
    table = []
    for orbit in _pair_orbits(roots):
        g = [one]
        for i, j in orbit:
            g = _fp_mul(g, [-(roots[j] + s * roots[i]), one], F)
        if any(len(c.c) > 1 for c in g):
            raise VerificationFailed("an orbit of pair values has a factor outside F_p[x]")
        table.append((orbit, [c.c[0] if c.c else 0 for c in g]))
    return table


def _pair_labels(factors, table, p: int) -> dict:
    """{(i, j): index of the one factor h that g, the product of the orbit
    of (i, j) in `table` (`_orbit_factors`), divides exactly mod p}.

    g has the orbit's pair values as simple roots, and h(v^p) = h(v)^p for
    h mod p, reduced from its primitive integer model: g divides h exactly
    when h vanishes at one pair of the orbit, and then at every pair of it.
    An orbit on no factor or on several raises VerificationFailed.
    """
    residues = [_fp_reduce(h.to_int_primitive()[1], p) for h in factors]
    labels = {}
    for orbit, g in table:
        hits = [k for k, h in enumerate(residues) if not _fp_rem(h, g, p)]
        if len(hits) != 1:
            raise VerificationFailed("a root pair lies on no pair-norm factor or on several")
        labels.update(dict.fromkeys(orbit, hits[0]))
    return labels


def _block_size(d: int, edges) -> int:
    """Common size of the connected components of a graph on d vertices.

    The components of an orbital graph are the blocks of one system, so
    they all have one size; anything else raises VerificationFailed.
    """
    parent = list(range(d))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in edges:
        parent[find(i)] = find(j)
    sizes = set(Counter(find(i) for i in range(d)).values())
    if len(sizes) != 1:
        raise VerificationFailed("orbital graph components differ in size")
    return sizes.pop()


def pair_norm(m: UniPoly, s: int) -> UniPoly:
    """N_s(x) = Res_t(m(t), m(x - s*t)), the product of x - (theta_j + s*theta_i)
    over all ordered pairs (i, j) of roots of the monic m.

    A composed sum (Bostan, Flajolet, Salvy and Schost, JSC 2006): N_s has
    the power sums Q_k = sum_a C(k, a) s^a P_a P_(k-a), P_a those of m, and
    Newton's identities turn power sums into coefficients and back.  Runs
    on the monic integer model D^d m(x/D), whose roots D*theta are
    algebraic integers, so every division is exact.
    """
    d, n = m.degree, m.degree ** 2
    D = m.den
    model = [c * D ** (d - i) // D for i, c in enumerate(m.num)]
    P = _newton(model, n)
    Q = [sum(comb(k, a) * s ** a * P[a] * P[k - a] for a in range(k + 1)) for k in range(n + 1)]
    # back from the power sums: k*c_(n-k) = -sum_(i<k) c_(n-i) Q_(k-i), c_n = 1
    coeffs = [1]
    for k in range(1, n + 1):
        coeffs.append(-sum(coeffs[i] * Q[k - i] for i in range(k)) // k)
    return UniPoly.from_ints([c * D ** i for i, c in enumerate(reversed(coeffs))], D ** n)


def _newton(model: list, count: int) -> list:
    """Power sums P_0..P_count of the roots of a monic integer polynomial."""
    d = len(model) - 1
    c = model[::-1]  # c[i] is the coefficient of x^(d-i)
    P = [d]
    for k in range(1, count + 1):
        P.append(-(k * c[k] if k <= d else 0)
                 - sum(c[i] * P[k - i] for i in range(1, min(k, d + 1))))
    return P


def _distinct_shift(roots, shifts):
    """The first s in `shifts` whose d^2 pair values r_j + s*r_i are distinct.

    r_j + s*r_i = r_l + s*r_k with (i, j) != (k, l) forces i != k and
    r_j - r_l = s*(r_k - r_i): s = 0 mod p, or s is the ratio of two
    differences of roots that span one F_p-line.  Scaling the residue of a
    difference monic names its line, so every colliding s is read off the
    d(d-1) differences once, not off d^2 values per shift.
    """
    p = roots[0].field.p
    lines = {}
    for a, b in itertools.permutations(roots, 2):
        c = (a - b).c
        if not c:
            return None  # a repeated root: every shift collides
        inv = pow(c[-1], -1, p)
        lines.setdefault(tuple(v * inv % p for v in c), []).append(c[-1])
    ratios = {a * pow(b, -1, p) % p for leads in lines.values() for a in leads for b in leads}
    return next((s for s in shifts if s % p and s % p not in ratios), None)


def _pair_roots(m: UniPoly, patterns):
    """(roots, s): the roots of m in F_{p^e} at one good prime p (`fpe_roots`),
    and a shift s whose d^2 pair values are distinct there.

    A prime serves if its pattern has a part of degree e = lcm(pattern),
    so that the roots lie in F_{p^e}, and p^e >= d^2, since a smaller field
    cannot hold d^2 distinct values.  The serving primes among the first
    `FROBENIUS_PRIME_BUDGET` of `patterns` are tried by fewest Frobenius
    orbits on ordered pairs of roots, the sum of gcd(a, b) over the parts
    a, b of the pattern, then by smallest e and smallest p, each with every
    shift.  Each orbit off the diagonal gives one irreducible factor of
    N_s / diag mod p, since Frobenius permutes its pair values transitively
    (`_orbit_factors`), so this order leaves the fewest modular factors to
    recombine over Q.  If every shift collides at all of them, s is fixed
    as the first shift with N_s squarefree over Q (else Degenerate), which
    only the primes dividing its discriminant break, and the stream, which
    must be endless, is read on.
    """
    d2 = m.degree ** 2

    def serving(stream):
        for p, pattern, parts in stream:
            e = lcm(*pattern)
            if e in pattern and p ** e >= d2:
                orbits = sum(gcd(a, b) for a in pattern for b in pattern)
                yield orbits, e, p, parts

    patterns = iter(patterns)
    for _, e, p, parts in sorted(serving(itertools.islice(patterns, FROBENIUS_PRIME_BUDGET))):
        roots = fpe_roots(p, parts, e)
        s = _distinct_shift(roots, PAIR_NORM_SHIFTS)
        if s is not None:
            return roots, s
    s = next((s for s in PAIR_NORM_SHIFTS if is_squarefree(pair_norm(m, s))), None)
    if s is None:
        raise Degenerate("no squarefree pair norm within the shift cap")
    for _, e, p, parts in serving(patterns):
        roots = fpe_roots(p, parts, e)
        if _distinct_shift(roots, (s,)) is not None:
            return roots, s
    raise Degenerate("the degree patterns ran out before a prime kept the pair values apart")


def _pair_norm_factors(m: UniPoly, s: int, table, p: int) -> list:
    """The monic irreducible factors over Q of N_s, sorted as `factor_over_Q`
    sorts them, with s and p from `_pair_roots`, `table` of `_orbit_factors`.

    The diagonal pairs (i, i) give diag = prod (x - (1+s)*theta_i) =
    (1+s)^d * m(x/(1+s)), a Q-factor since it is the irreducible m
    rescaled, and it is divided out exactly.  p, a good prime of m, divides
    no denominator of m, so N_s / diag reduces mod p, and its irreducible
    factors there are the table's products over the Frobenius orbits of
    the other pairs: they are lifted and recombined
    (`arith._lift_and_recombine`) with no splitting mod p at all.  Checked:
    the exact division, p against the leading coefficient of the integer
    model, the orbit products against N_s / diag mod p, and the Q-factors
    by re-multiplication.
    """
    d = m.degree
    norm = pair_norm(m, s)
    diag = UniPoly.from_ints([c * (1 + s) ** (d - i) for i, c in enumerate(m.num)], m.den)
    rest, remainder = divmod(norm, diag)
    if remainder:
        raise VerificationFailed("the diagonal factor does not divide the pair norm")
    _, P = rest.to_int_primitive()
    if P[-1] % p == 0:
        raise VerificationFailed("p divides the leading coefficient of N_s / diag")
    modular = [g for orbit, g in table if orbit[0][0] != orbit[0][1]]
    product = [1]
    for g in modular:
        product = _fp_mul(product, g, p)
    if product != _fp_monic(_fp_reduce(P, p), p):
        raise VerificationFailed("the orbit products do not multiply to N_s / diag mod p")
    lifted = _lift_and_recombine(P, p, modular)
    check = diag
    for h in lifted:
        check = check * h
    if check != norm:
        raise VerificationFailed("the pair-norm factors do not multiply back to N_s")
    return sorted([diag, *lifted], key=UniPoly.sort_key)


def principal_subfields(K: NumberField, patterns) -> SubfieldReport:
    """Principal subfield degrees of K, one per factor of min_poly over K.

    Orbital graphs (Higman 1967; van Hoeij, Klueners and Novocin 2013): the
    Q-factors of a squarefree pair norm N_s are the orbitals of Gal(m) on
    ordered pairs of roots, one per factor of m over K, and the principal
    subfield of that factor is fixed by the block its orbital graph
    connects, so its degree is d / |component|.

    The graph is read at one good prime p, among the first
    `FROBENIUS_PRIME_BUDGET` of `patterns` (m's endless stream of degree
    patterns, `degree_patterns(m)`) the one with the fewest Frobenius
    orbits on ordered pairs whose pattern has a part e = lcm(pattern) and
    with p^e >= d^2, ties to the smaller e, then p.  All roots of m lie in
    F_{p^e} there (`fpe_roots`), and e = 1 is the totally split case.  s is
    the first shift whose d^2 pair values r_j + s*r_i are distinct in
    F_{p^e}; that proves N_s squarefree mod p, hence over Q, and no smaller
    field could hold them.  Where every shift collides, the next prime in
    that order is tried, and past the budget the stream is read on
    (`_pair_roots`); a Frobenius element of order 1 has density 1/|Gal(m)|
    (Chebotarev), so the scan ends.

    N_s itself is a composed sum (`pair_norm`), and one table of the
    Frobenius orbits of root pairs with their products mod p
    (`_orbit_factors`) factors it (`_pair_norm_factors`): the diagonal
    pairs give the Q-factor (1+s)^d * m(x/(1+s)), m rescaled and so
    irreducible, and each other orbit one irreducible factor mod p, lifted
    and recombined, so nothing of degree above d is split mod p.  The same
    table labels the pairs (`_pair_labels`).  Checked: the Q-factors
    multiply back to N_s, each orbit's product divides exactly one factor
    h mod p, h gets exactly deg h pairs, and the components of each graph
    have one size.  No arithmetic over K and no resultant is needed.
    """
    m, d = K.min_poly, K.degree
    roots, s = _pair_roots(m, patterns)
    p = roots[0].field.p
    table = _orbit_factors(roots, s)
    factors = _pair_norm_factors(m, s, table, p)
    labels = _pair_labels(factors, table, p)
    degrees = []
    for k, h in enumerate(factors):
        edges = [pair for pair, label in labels.items() if label == k]
        if len(edges) != h.degree:
            raise VerificationFailed("a pair-norm factor does not get deg h root pairs")
        degrees.append(d // _block_size(d, edges))
    degrees.sort()
    proper = tuple(k for k in degrees if 1 < k < d)
    return SubfieldReport(tuple(degrees), not proper, proper)


def frobenius_certificate(m: UniPoly, patterns):
    """(p, cycle type) pairs proving Q[t]/(m) primitive, or None.

    m must be irreducible of degree d.  A prime d leaves no block size
    to rule out, so the certificate is empty.  Otherwise reads the first
    `FROBENIUS_PRIME_BUDGET` of `patterns` (m's stream of degree patterns,
    `degree_patterns`) and keeps each one whose cycle type rules out a
    block size b | d, 1 < b < d, still open; returns once none is open.  No
    Frobenius element of an imprimitive field rules out the size of its
    Galois-invariant blocks, so None is the only answer there.
    """
    d = m.degree
    open_sizes = {b for b in range(2, d) if d % b == 0}
    if not open_sizes:
        return ()
    used = []
    for p, cycle_type, _ in itertools.islice(patterns, FROBENIUS_PRIME_BUDGET):
        ruled_out = {b for b in open_sizes if not cycle_type_fits_blocks(cycle_type, b)}
        if ruled_out:
            used.append((p, cycle_type))
            open_sizes -= ruled_out
            if not open_sizes:
                return tuple(used)
    return None


def field_report(m: UniPoly | NumberField) -> SubfieldReport:
    """Primitivity verdict for Q[t]/(m): the one place that decides it.

    m is a polynomial, which `nf_new` validates (a zero, constant or
    reducible m raises), or a NumberField whose min_poly is already proven
    irreducible, as `hyperell.point_field` builds for a place.  The routes,
    in order: degree 1 is not primitive by convention and warns (the notion
    presupposes a nontrivial extension); prime degree is primitive without
    a subfield search; a Frobenius certificate (`frobenius_certificate`)
    proves the field primitive; every other field, imprimitive ones
    included, goes through `principal_subfields`.
    """
    if isinstance(m, NumberField):
        K = m
    elif m.is_zero:
        raise ZeroPolynomial("empty defining polynomial")
    else:
        K = nf_new(m)
    d = K.degree
    if d == 1:
        warnings.warn("degree-1 field treated as not primitive by convention")
        return SubfieldReport((), False, route=DEGREE_ONE)
    if is_prime(d):
        # no degree strictly between 1 and a prime divides it
        return SubfieldReport((), True, route=PRIME_DEGREE)
    # one lazy stream of degree patterns for both routes, split only as far
    # as the routes read
    for_certificate, for_subfields = itertools.tee(degree_patterns(K.min_poly))
    certificate = frobenius_certificate(K.min_poly, for_certificate)
    if certificate is not None:
        return SubfieldReport((), True, route=FROBENIUS, frobenius_cycle_types=certificate)
    return principal_subfields(K, for_subfields)


def is_primitive_field(m: UniPoly | NumberField) -> bool:
    """True iff Q[t]/(m) has no subfield strictly between Q and itself."""
    return field_report(m).is_primitive


# ---------------------------------------------------------------------------
# The quadratic norm of a point (x, y) with p(x) = 0, y^2 = f(x)


def shifted_norm(p: UniPoly, f: UniPoly):
    """(c, N) for the first shift c = 0, 1, ..., 49 with N squarefree, else
    Degenerate.

    N(z) = Res_x(p, (z - c*x)^2 - f) is the characteristic polynomial of
    y + c*x on Q[x, y]/(p, y^2 - f), for p monic irreducible and f a unit
    mod p.  Squarefree, it is irreducible iff f is a non-square mod p.  As p
    is monic, Res(p, g) depends on g mod p only, so f is reduced once; an
    integrand that vanishes identically has resultant 0.
    """
    f = f % p
    for c in range(50):
        def value(z0):
            g = UniPoly.make([z0, -c]) ** 2 - f
            return Fraction(0) if g.is_zero else resultant(p, g)

        norm = interpolate_values(2 * p.degree + 1, value)
        if is_squarefree(norm):
            return c, norm
    raise Degenerate("no squarefree norm found within the shift cap")


def absolute_minpoly(p: UniPoly, f: UniPoly) -> UniPoly:
    """Minimal polynomial over Q of y + c*x, c the shift of `shifted_norm`.

    For the inert case that `hyperell.classify_place` decides: p irreducible
    and f a non-square unit mod p; the result has degree 2*deg(p).  A split
    (reducible norm) or ramified (f = 0 mod p) point raises NotInert.  No
    route calls it: `hyperell.point_field` takes the norm without proving
    both again, and the tests check it against this.
    """
    p = nf_new(p).min_poly  # rejects a reducible p
    if (f % p).is_zero:
        raise NotInert("f vanishes modulo p: ramified, use p itself")
    _, norm = shifted_norm(p, f)
    if not factor_over_Q(norm).is_irreducible():
        raise NotInert("f is a square modulo p: split case, use p itself")
    return norm
