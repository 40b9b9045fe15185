"""Exact rational scalars and dense univariate polynomial algebra.

Coefficients are `fractions.Fraction` throughout; nothing in this module
(or the package) touches floating point.  Polynomials are dense lists of
coefficients, lowest degree first, with no trailing zeros.  The zero
polynomial has an empty coefficient list and its degree is the sentinel
``None``, never a number.

Factorization over Q takes the classical modular route.  A primitive
integer model is reduced once at each of up to three small primes avoiding
the leading coefficient and the discriminant, and split there by degree
(the distinct-degree stage of Cantor-Zassenhaus).  Degree patterns that
admit no common factor degree prove it irreducible (Musser's degree-set
intersection); otherwise only the first prime with the fewest factors runs
the equal-degree stage (deterministic generator sequence).
Its factors are Hensel-lifted to a Landau-Mignotte style coefficient bound
and recombined by subsets (`_lift_and_recombine`, which `numfield` also
calls on pair norms whose factors mod p it reads off known roots); degrees
in scope stay small enough (norms of degree-6 fields give degree 36) that
this needs no lattice reduction.  The distinct-degree split alone gives the
degree pattern mod p (`degree_patterns`), which `numfield` reads as a
Frobenius cycle type.

Squarefreeness is certified mod one prime first: a polynomial that stays
squarefree mod a prime not dividing its leading coefficient is squarefree
over Q, so `is_squarefree` and `squarefree_decomposition` run a gcd over Q
only when that check fails.  The same modular kit also computes in
F_{p^e} = F_p[t]/(G), with residues mod G as coefficients (`fpe_roots`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, isqrt, lcm

from .errors import BadInput, RamifiedBranch, VerificationFailed, ZeroPolynomial


def rational_sqrt(a: Fraction):
    """Exact square root of a rational, or None if it is not a square."""
    if a < 0:
        return None
    n, d = a.numerator, a.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def is_prime(n: int) -> bool:
    """Primality by trial division; n < 2 is not prime."""
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


# ---------------------------------------------------------------------------
# Dense univariate polynomials over Q


def _strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


@dataclass(frozen=True)
class UniPoly:
    """Dense polynomial over Q, lowest degree first, no trailing zeros."""

    coeffs: tuple

    @staticmethod
    def make(coeffs) -> "UniPoly":
        return UniPoly(tuple(Fraction(c) for c in _strip(coeffs)))

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly(())

    @staticmethod
    def one() -> "UniPoly":
        return UniPoly((Fraction(1),))

    @staticmethod
    def x() -> "UniPoly":
        return UniPoly((Fraction(0), Fraction(1)))

    @staticmethod
    def const(c) -> "UniPoly":
        return UniPoly.make([c])

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> Fraction:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(tuple(_strip(out)))

    def __neg__(self):
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly.zero()
        # in integers over the common denominators: one Fraction per
        # coefficient of the product, not one per pair of terms
        da, db = lcm(*(c.denominator for c in a)), lcm(*(c.denominator for c in b))
        ai = [c.numerator * (da // c.denominator) for c in a]
        bi = [c.numerator * (db // c.denominator) for c in b]
        out, den = [0] * (len(a) + len(b) - 1), da * db
        for i, ca in enumerate(ai):
            if ca:
                for j, cb in enumerate(bi):
                    out[i + j] += ca * cb
        return UniPoly(tuple(Fraction(c, den) for c in out))

    __rmul__ = __mul__

    def scale(self, c) -> "UniPoly":
        c = Fraction(c)
        if c == 0:
            return UniPoly.zero()
        return UniPoly(tuple(co * c for co in self.coeffs))

    def __divmod__(self, divisor):
        if divisor.is_zero:
            raise ZeroPolynomial("polynomial division by zero")
        rem = list(self.coeffs)
        dd = divisor.degree
        dl = divisor.lc
        if len(rem) - 1 < dd:
            return UniPoly.zero(), self
        quot = [Fraction(0)] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if not c:
                continue
            q = c / dl
            quot[i - dd] = q
            for j, dc in enumerate(divisor.coeffs):
                rem[i - dd + j] -= q * dc
        return UniPoly(tuple(_strip(quot))), UniPoly(tuple(_strip(rem)))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = UniPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        return self.scale(1 / self.lc)

    def derivative(self) -> "UniPoly":
        return UniPoly(tuple(_strip(i * c for i, c in enumerate(self.coeffs) if i)))

    def __call__(self, value):
        """Evaluate by Horner; accepts anything with +,* against Fractions."""
        result = None
        for c in reversed(self.coeffs):
            result = c if result is None else result * value + c
        if result is None:
            return Fraction(0) if isinstance(value, (int, Fraction)) else value * 0
        return result

    def compose(self, inner: "UniPoly") -> "UniPoly":
        """self(inner(x)), by Horner over UniPoly."""
        result = UniPoly.zero()
        for c in reversed(self.coeffs):
            result = result * inner + UniPoly.const(c)
        return result

    def shift_x(self, a) -> "UniPoly":
        """self(x + a)."""
        return self.compose(UniPoly.make([a, 1]))

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def to_int_primitive(self):
        """Return (scale, P) with self = scale * P, P primitive in Z[x], lc(P) > 0."""
        if self.is_zero:
            return Fraction(0), []
        den = reduce(lambda a, c: a * c.denominator // gcd(a, c.denominator),
                     self.coeffs, 1)
        ints = [int(c * den) for c in self.coeffs]
        content = reduce(gcd, (abs(v) for v in ints))
        sign = -1 if ints[-1] < 0 else 1
        ints = [v // (sign * content) for v in ints]
        return Fraction(sign * content, den), ints

    def sort_key(self):
        deg = self.degree if self.degree is not None else -1
        return (deg, tuple((c.numerator, c.denominator) for c in self.coeffs))

    def literal(self) -> str:
        """Render as a literal like 'x^3-2x+1/2', highest degree first."""
        if self.is_zero:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            if i == 0:
                body = str(mag)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                if mag == 1:
                    body = xs
                elif mag.denominator == 1:
                    body = f"{mag}{xs}"
                else:
                    body = f"{mag}*{xs}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += sign + body
        return text

    def __str__(self):
        return self.literal()


# ---------------------------------------------------------------------------
# GCD, squarefree structure, resultants


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over Q; gcd(0, 0) = 0.

    Runs a primitive remainder sequence over Z to keep the coefficient
    growth of the Euclidean algorithm in check.
    """
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    _, fa = a.to_int_primitive()
    _, fb = b.to_int_primitive()
    while fb:
        fa, fb = fb, _int_prem(fa, fb)
        if fb:
            content = reduce(gcd, (abs(v) for v in fb))
            fb = [v // content for v in fb]
    return UniPoly.make(fa).monic()


def _int_prem(a: list, b: list) -> list:
    """Pseudo-remainder of integer coefficient lists (lc(b)^k * a mod b)."""
    rem = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(rem) - 1 >= db and rem:
        c = rem[-1]
        rem = [lb * v for v in rem]
        shift = len(rem) - 1 - db
        for j, bv in enumerate(b):
            rem[shift + j] -= c * bv
        while rem and rem[-1] == 0:
            rem.pop()
    return rem


def squarefree_part(a: UniPoly) -> UniPoly:
    """Monic a / gcd(a, a'); the result has no repeated roots."""
    if a.is_zero:
        raise ZeroPolynomial("squarefree part of the zero polynomial")
    g = poly_gcd(a, a.derivative())
    return (a // g).monic()


def _squarefree_mod_a_prime(a: UniPoly) -> bool:
    """True if a, of degree >= 1, is squarefree mod one of the first three
    primes p > 20 that do not divide the leading coefficient of its integer
    model.

    Then a is squarefree over Q: a repeated factor over Q stays a repeated
    factor of positive degree mod such a p.  False proves nothing.
    """
    _, P = a.to_int_primitive()
    primes = (p for p in filter(is_prime, itertools.count(21)) if P[-1] % p)
    return any(_fp_squarefree(P, p) is not None for p in itertools.islice(primes, 3))


def is_squarefree(a: UniPoly) -> bool:
    if a.is_zero:
        return False
    if a.degree == 0:
        return True
    return _squarefree_mod_a_prime(a) or poly_gcd(a, a.derivative()).degree == 0


def squarefree_decomposition(a: UniPoly):
    """Yun's algorithm: list of (monic squarefree g_i, i) with a = lc * prod g_i^i.

    An a that is squarefree mod a prime is its own decomposition, with no
    gcd over Q.
    """
    a = a.monic()
    if a.degree and _squarefree_mod_a_prime(a):
        return [(a, 1)]
    out = []
    g = poly_gcd(a, a.derivative())
    if g.degree == 0:
        return [(a, 1)]
    w = a // g
    i = 1
    while w.degree and w.degree > 0:
        y = poly_gcd(w, g)
        factor = w // y
        if factor.degree and factor.degree > 0:
            out.append((factor.monic(), i))
        w, g = y, g // y
        i += 1
    return out


def resultant(a: UniPoly, b: UniPoly) -> Fraction:
    """Sylvester resultant via the Euclidean recursion.

    Convention: Res(a, b) = lc(a)^deg(b) * prod b(alpha_i) over the roots
    of a, so Res(x-2, x-3) = -1.
    """
    if a.is_zero or b.is_zero:
        raise ZeroPolynomial("resultant of the zero polynomial")
    acc = Fraction(1)
    while True:
        da, db = a.degree, b.degree
        if db == 0:
            return acc * b.lc ** da
        r = a % b
        if r.is_zero:
            return Fraction(0)
        acc *= Fraction(-1) ** (da * db) * b.lc ** (da - r.degree)
        a, b = b, r


def lagrange_interpolate(points) -> UniPoly:
    """Exact polynomial through the given (x, y) pairs with distinct x."""
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    result = UniPoly.zero()
    basis = UniPoly.one()
    # Newton form: incremental divided differences.
    coefs = list(ys)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            coefs[i] = (coefs[i] - coefs[i - 1]) / (xs[i] - xs[i - j])
    for j, c in enumerate(coefs):
        result = result + basis.scale(c)
        if j < len(xs) - 1:
            basis = basis * UniPoly.make([-xs[j], 1])
    return result


def interpolate_values(npoints: int, value) -> UniPoly:
    """Polynomial through (x0, value(x0)) for the first npoints integers x0.

    The points are taken in the order 0, 1, -1, 2, -2, ..., so they stay
    small in absolute value.
    """
    points = []
    x0 = 0
    while len(points) < npoints:
        points.append((x0, value(x0)))
        x0 = -x0 if x0 > 0 else -x0 + 1
    return lagrange_interpolate(points)


# ---------------------------------------------------------------------------
# Polynomials modulo an integer m: a prime p, or a prime power p^k during
# Hensel lifting.  `_fp_reduce`, `_fp_add`, `_fp_sub` and `_fp_mul` work for
# any m, and `_fp_divmod` whenever lc(b) is a unit mod m, as for the monic
# divisors of the lifting; `_fp_monic`, `_fp_gcd`, `_fp_bezout` and the
# splitting stages need m prime.  `_fp_mul` and `_fp_divmod` reduce mod m
# once per coefficient, not after every product.


def _fp_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _fp_reduce(a, m):
    return _fp_trim([v % m for v in a])


def _fp_add(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] = (out[i] + v) % p
    return _fp_trim(out)


def _fp_sub(a, b, p):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, v in enumerate(b):
        out[i] = (out[i] - v) % p
    return _fp_trim(out)


def _fp_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, va in enumerate(a):
        if va:
            for j, vb in enumerate(b):
                out[i + j] += va * vb
    return _fp_reduce(out, p)


def _fp_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("division by zero polynomial mod p")
    rem = list(a)
    db = len(b) - 1
    inv = None if b[-1] == 1 else pow(b[-1], -1, p)  # no inverse for a monic b
    if len(rem) - 1 < db:
        return [], _fp_trim(rem)
    quot = [0] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] % p
        if c:
            q = c if inv is None else c * inv % p
            quot[i - db] = q
            for j, bv in enumerate(b):
                rem[i - db + j] -= q * bv
    return _fp_trim(quot), _fp_reduce(rem, p)


def _fp_monic(a, p):
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return [v * inv % p for v in a]


def _fp_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    return _fp_monic(a, p)


def _fp_powmod(base, e, mod, p):
    result = [1]
    base = _fp_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _fp_divmod(_fp_mul(result, base, p), mod, p)[1]
        e >>= 1
        if e:
            base = _fp_divmod(_fp_mul(base, base, p), mod, p)[1]
    return result


class _DetRng:
    """Tiny deterministic LCG so factorization is reproducible everywhere."""

    def __init__(self, seed: int):
        self.state = (seed * 6364136223846793005 + 1442695040888963407) % (1 << 63)

    def next_below(self, n: int) -> int:
        self.state = (self.state * 6364136223846793005 + 1442695040888963407) % (1 << 63)
        return self.state % n


def _fp_distinct_degree(f, p) -> list:
    """Distinct-degree split of a monic squarefree f over F_p.

    Returns [(g, d)] with g the product of all irreducible factors of f of
    degree d, so g has (deg g)/d factors; d increases along the list.
    """
    dd_parts = []
    h = [0, 1]
    d = 0
    rem = list(f)
    while rem and len(rem) - 1 >= 2 * (d + 1):
        d += 1
        h = _fp_powmod(h, p, rem, p)
        g = _fp_gcd(_fp_sub(h, [0, 1], p), rem, p)
        if len(g) > 1:
            dd_parts.append((g, d))
            rem = _fp_divmod(rem, g, p)[0]
            if len(rem) > 1:
                h = _fp_divmod(h, rem, p)[1]
    if len(rem) > 1:
        dd_parts.append((rem, len(rem) - 1))
    return dd_parts


def _degree_pattern(parts) -> tuple:
    """Sorted degrees of the irreducible factors behind a distinct-degree split."""
    return tuple(d for g, d in parts for _ in range((len(g) - 1) // d))


def _fp_equal_degree(parts, p, rng) -> list:
    """Monic irreducible factors over F_p behind a distinct-degree split.

    Cantor-Zassenhaus (p odd) on each (g, d) of `parts`, g a monic product
    of distinct irreducibles of degree d; sorted by degree, then coefficients.
    """
    factors = []
    for g, d in parts:
        work = [g]
        while work:
            cur = work.pop()
            if len(cur) - 1 == d:
                factors.append(_fp_monic(cur, p))
                continue
            e = (pow(p, d) - 1) // 2
            while True:
                r = [rng.next_below(p) for _ in range(len(cur) - 1)] + [1]
                s = _fp_powmod(r, e, cur, p)
                s = _fp_sub(s, [1], p)
                if not s:
                    continue
                split = _fp_gcd(s, cur, p)
                if 0 < len(split) - 1 < len(cur) - 1:
                    work.append(split)
                    work.append(_fp_divmod(cur, split, p)[0])
                    break
    factors.sort(key=lambda c: (len(c), c))
    return factors


# ---------------------------------------------------------------------------
# F_q = F_p[t]/(G), q = p^e, on the same kit: an element is its residue mod
# G, and the field takes the place of the modulus p, so `_fp_mul`,
# `_fp_divmod`, `_fp_gcd` and `_fp_powmod` run unchanged on polynomials with
# `_FqElement` coefficients.


class _Fq:
    """F_p[t]/(G) for p an odd prime and G monic irreducible mod p."""

    def __init__(self, p: int, G: list):
        self.p, self.G = p, G

    def __call__(self, residue) -> "_FqElement":
        return _FqElement(self, tuple(_fp_divmod(_fp_reduce(residue, self.p), self.G, self.p)[1]))

    def __rmod__(self, v: int) -> "_FqElement":
        return self((v,))  # an integer the kit left in a coefficient


class _FqElement:
    __slots__ = ("field", "c")

    def __init__(self, field: _Fq, c: tuple):
        self.field, self.c = field, c  # c: the residue mod G, lowest first

    def _lift(self, other) -> "_FqElement":
        if isinstance(other, _FqElement):
            return other
        other %= self.field.p  # an integer: already reduced mod G once mod p
        return _FqElement(self.field, (other,) if other else ())

    def __add__(self, other):
        return _FqElement(self.field, tuple(_fp_add(self.c, self._lift(other).c, self.field.p)))

    __radd__ = __add__

    def __sub__(self, other):
        return _FqElement(self.field, tuple(_fp_sub(self.c, self._lift(other).c, self.field.p)))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __neg__(self):
        return 0 - self

    def __mul__(self, other):
        F = self.field
        product = _fp_mul(self.c, self._lift(other).c, F.p)
        return _FqElement(F, tuple(_fp_divmod(product, F.G, F.p)[1]))

    __rmul__ = __mul__

    def __mod__(self, field):
        return self  # already reduced; the kit reduces "mod p" after each step

    def __pow__(self, n: int, field=None):
        F = self.field
        if n < 0:
            return _FqElement(F, tuple(_fp_bezout(self.c, F.G, F.p)[0])) ** -n
        return _FqElement(F, tuple(_fp_powmod(self.c, n, F.G, F.p)))

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        return self.c == self._lift(other).c

    def __hash__(self):
        return hash(self.c)


def _fq_root(g: list, F: _Fq, rng: _DetRng) -> _FqElement:
    """One root of the monic g over F, a product of distinct linear factors
    there: Cantor-Zassenhaus, keeping the smaller side of each split."""
    half = (F.p ** (len(F.G) - 1) - 1) // 2
    one = F((1,))
    while len(g) > 2:
        a = F([rng.next_below(F.p) for _ in range(len(F.G) - 1)])
        s = _fp_sub(_fp_powmod([a, one], half, g, F), [one], F)
        split = _fp_gcd(s, g, F)
        if 0 < len(split) - 1 < len(g) - 1:
            g = min(split, _fp_divmod(g, split, F)[0], key=len)
    return -g[0]


def fpe_roots(p: int, parts, e: int) -> list:
    """The roots of a in F_{p^e} = F_p[t]/(G), G the first monic irreducible
    factor of degree e of a mod p, from `parts`, the split of a mod p at a
    good prime p that `degree_patterns` yields with its pattern.

    The pattern must have lcm e and a part e; then every factor g of a mod
    p splits over F_{p^e}.  Each g gives one root r, by t itself for G, by
    its constant for a linear g and by `_fq_root` otherwise, and with it
    its Frobenius orbit r, r^p, ..., so the deg(a) roots come out grouped
    by factor and closed under x -> x^p.
    """
    rng = _DetRng(p)
    factors = _fp_equal_degree(parts, p, rng)
    G = next(g for g in factors if len(g) - 1 == e)
    F = _Fq(p, G)
    roots = []
    for g in factors:
        if g == G:
            r = F([0, 1])
        else:
            r = _fq_root([F((c,)) for c in g], F, rng)
        for _ in range(len(g) - 1):
            roots.append(r)
            r = r ** p
    return roots


# ---------------------------------------------------------------------------
# Hensel lifting (integer coefficients modulo p^k)


def _fp_bezout(g, h, p):
    """s, t with s*g + t*h = 1 mod p for coprime g, h."""
    r0, r1 = list(g), list(h)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _fp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _fp_sub(s0, _fp_mul(q, s1, p), p)
        t0, t1 = t1, _fp_sub(t0, _fp_mul(q, t1, p), p)
    inv = pow(r0[0], -1, p)
    return [v * inv % p for v in s0], [v * inv % p for v in t0]


def _hensel_pair(f, g, h, s, t, p, target_exp):
    """Lift f = g*h (mod p), s*g + t*h = 1 (mod p) to modulus p^target_exp.

    Quadratic lifting with both g and h monic, so every division below is
    by a monic polynomial: `_fp_divmod` inverts lc = 1 and stays valid over
    Z/p^k.
    """
    k = 1
    while k < target_exp:
        k = min(2 * k, target_exp)
        m = p ** k
        fm = _fp_reduce(f, m)
        e = _fp_sub(fm, _fp_mul(g, h, m), m)
        _, corr = _fp_divmod(_fp_mul(t, e, m), g, m)
        g = _fp_add(g, corr, m)
        h, rem = _fp_divmod(fm, g, m)
        if rem:
            raise VerificationFailed("hensel pair step lost exact divisibility")
        b = _fp_sub(_fp_add(_fp_mul(s, g, m), _fp_mul(t, h, m), m), [1], m)
        c, d = _fp_divmod(_fp_mul(s, b, m), h, m)
        s = _fp_sub(s, d, m)
        t = _fp_sub(_fp_sub(t, _fp_mul(t, b, m), m), _fp_mul(c, g, m), m)
    return g, h


def _hensel_tree(f, factors, p, target_exp):
    """Lift the monic factorization of monic f mod p to modulus p^target_exp."""
    if len(factors) == 1:
        return [_fp_reduce(f, p ** target_exp)]
    mid = len(factors) // 2
    left, right = factors[:mid], factors[mid:]
    g = [1]
    for fac in left:
        g = _fp_mul(g, fac, p)
    h = [1]
    for fac in right:
        h = _fp_mul(h, fac, p)
    s, t = _fp_bezout(g, h, p)
    G, H = _hensel_pair(f, g, h, s, t, p, target_exp)
    return _hensel_tree(G, left, p, target_exp) + _hensel_tree(H, right, p, target_exp)


def _symmetric(v, m):
    v %= m
    return v - m if v > m // 2 else v


def _divides(a: int, b: int) -> bool:
    return b % a == 0 if a else b == 0


# ---------------------------------------------------------------------------
# Factorization over Q


@dataclass(frozen=True)
class Factorization:
    """unit * prod(factor_i ^ mult_i), factors monic irreducible over Q."""

    unit: Fraction
    factors: tuple  # of (UniPoly, int)

    def expand(self) -> UniPoly:
        out = UniPoly.const(self.unit)
        for f, mult in self.factors:
            out = out * f ** mult
        return out

    def is_irreducible(self) -> bool:
        return len(self.factors) == 1 and self.factors[0][1] == 1


def _fp_squarefree(P, p):
    """P mod p made monic if it is squarefree there, else None; p must not
    divide the leading coefficient of the integer list P.

    The one place that reduces a model mod p.
    """
    fp = _fp_reduce(P, p)
    dp = _fp_reduce([i * c for i, c in enumerate(P)][1:], p)
    return _fp_monic(fp, p) if dp and len(_fp_gcd(fp, dp, p)) == 1 else None


def _good_primes(P):
    """Yield (p, parts) for the primes p > 20 that keep the integer model P
    squarefree with full degree, in order; parts is the distinct-degree
    split of P mod p.  Lazy and endless; callers take a prefix with
    `itertools.islice`.
    """
    for p in filter(is_prime, itertools.count(21)):
        if P[-1] % p:
            fp = _fp_squarefree(P, p)
            if fp is not None:
                yield p, _fp_distinct_degree(fp, p)


def _squarefree_model(a: UniPoly) -> list:
    """The integer model of a, which must be squarefree of degree >= 1:
    `_good_primes` finds no prime for any other model and would scan forever."""
    if a.is_zero or a.degree < 1 or not is_squarefree(a):
        raise BadInput("need a squarefree polynomial of degree at least 1")
    return a.to_int_primitive()[1]


def degree_patterns(a: UniPoly):
    """(p, degrees, parts) at each good prime of a's model in turn, lazily.

    `parts` is the distinct-degree split of a mod p, as `fpe_roots` takes
    it, and `degrees` the sorted degrees of the irreducible factors behind
    it: for an irreducible a, by Dedekind's theorem, the cycle type of a
    Frobenius element of the Galois group acting on the roots.  The stream
    never ends; callers take a prefix with `itertools.islice`.  BadInput,
    at once, unless a is squarefree of degree >= 1.
    """
    P = _squarefree_model(a)
    return ((p, _degree_pattern(parts), parts) for p, parts in _good_primes(P))


def _subset_sums(degrees) -> set:
    """Sums of the sub-multisets of `degrees`, 0 and the total included."""
    sums = {0}
    for d in degrees:
        sums |= {s + d for s in sums}
    return sums


def _zassenhaus_irreducibles(s: UniPoly) -> list:
    """Monic irreducible factors over Q of a monic squarefree polynomial."""
    if s.degree <= 1:
        return [s]
    _, P = s.to_int_primitive()
    n = len(P) - 1
    seed = reduce(lambda a, c: (a * 1000003 + c) % (1 << 61), P, n)

    # the distinct-degree split alone picks the prime.  A factor over Q of
    # degree 0 < e < n reduces to a product of factors mod every p, so e is
    # a subset sum of each degree pattern; once no e is left, s is
    # irreducible (Musser, JACM 1978).  A single factor at any prime leaves none.
    allowed = set(range(1, n))
    best = None
    for p, parts in itertools.islice(_good_primes(P), 3):
        pattern = _degree_pattern(parts)
        allowed &= _subset_sums(pattern)
        if not allowed:
            return [s]
        if best is None or len(pattern) < best[0]:
            best = (len(pattern), p, parts)
    _, p, parts = best
    return _lift_and_recombine(P, p, _fp_equal_degree(parts, p, _DetRng(seed + p)))


def _lift_and_recombine(P: list, p: int, modular: list) -> list:
    """Monic irreducible factors over Q of the squarefree integer model P,
    sorted, from `modular`: the monic irreducible factors of P mod p, for a
    prime p that divides neither lc(P) nor the discriminant.

    The one lifting and recombination path: `factor_over_Q` splits P mod p
    by degree to get `modular`; `numfield._pair_norm_factors` passes, for
    P the pair norm N_s over its diagonal factor (1+s)^d * m(x/(1+s)), a
    Q-factor as m rescaled, the products of x - (r_j + s*r_i) over the
    Frobenius orbits of the other root pairs, each irreducible mod p since
    Frobenius permutes its roots transitively.  The factors are
    Hensel-lifted to a Landau-Mignotte style coefficient bound and
    recombined by subsets.
    """
    n = len(P) - 1
    height = max(abs(c) for c in P)
    lc = P[-1]
    bound = 2 * (n + 1) * (1 << n) * height * abs(lc) + 1
    target_exp = 1
    while p ** target_exp < bound:
        target_exp += 1
    modulus = p ** target_exp

    fhat = [c * pow(lc, -1, modulus) % modulus for c in P]
    lifted = _hensel_tree(fhat, modular, p, target_exp)

    # subsets by size (von zur Gathen-Gerhard, Alg. 15.22): after a factor
    # is removed the search stays at its size, since a smaller subset that
    # divides the cofactor divided the old one too and was already tried
    result = []
    pool = list(range(len(lifted)))
    current = list(P)
    size = 1
    while 2 * size <= len(pool):
        lc_cur = current[-1]
        for combo in itertools.combinations(pool, size):
            # a true factor g makes the candidate c = lc(current)/lc(g) * g,
            # and c(a) divides lc(current) * current(a) at every integer a:
            # a = 0 is tested on the constant terms alone, a = 1 once c is
            # built, both before the trial division
            const = lc_cur
            for idx in combo:
                const = const * lifted[idx][0] % modulus
            if not _divides(_symmetric(const, modulus), lc_cur * current[0]):
                continue
            cand = [lc_cur % modulus]
            for idx in combo:
                cand = _fp_mul(cand, lifted[idx], modulus)
            cand = [_symmetric(v, modulus) for v in cand]
            if not _divides(sum(cand), lc_cur * sum(current)):
                continue
            content = reduce(gcd, (abs(v) for v in cand if v), 0)
            if content == 0:
                continue
            cand = [v // content for v in cand]
            q, r = divmod(UniPoly.make(current), UniPoly.make(cand))
            if r.is_zero:
                result.append(UniPoly.make(cand).monic())
                _, current = q.to_int_primitive()
                pool = [i for i in pool if i not in combo]
                break
        else:
            size += 1
    if len(current) > 1:
        result.append(UniPoly.make(current).monic())
    result.sort(key=UniPoly.sort_key)
    return result


def factor_over_Q(a: UniPoly) -> Factorization:
    """Complete factorization into monic irreducibles over Q.

    Deterministic: factors ordered by degree, then by coefficient sequence.
    The expanded product reproduces the input exactly.
    """
    if a.is_zero:
        raise ZeroPolynomial("factorization of the zero polynomial")
    unit = a.lc
    if a.degree == 0:
        return Factorization(unit, ())
    # Yun's parts are pairwise coprime, so no irreducible occurs twice
    factors = sorted(
        ((irr, mult) for part, mult in squarefree_decomposition(a)
         for irr in _zassenhaus_irreducibles(part)),
        key=lambda fm: fm[0].sort_key(),
    )
    fact = Factorization(unit, tuple(factors))
    if fact.expand() != a:
        raise VerificationFailed("factorization failed exact re-multiplication")
    return fact


# ---------------------------------------------------------------------------
# Hensel square-root lifting modulo powers of an irreducible polynomial


def hensel_sqrt(f: UniPoly, p: UniPoly, q0: UniPoly, k: int) -> UniPoly:
    """Lift q0 with q0^2 = f (mod p) to q with q^2 = f (mod p^k).

    p must be monic irreducible and the branch unramified: gcd(2*q0, p) = 1.
    The result satisfies q = q0 (mod p) and deg q < k * deg p.
    """
    if k < 1:
        raise BadInput("precision must be at least 1")
    q0 = q0 % p
    if poly_gcd(q0.scale(2), p).degree != 0:
        raise RamifiedBranch("branch is ramified: 2*q0 = 0 mod p")
    if not ((q0 * q0 - f) % p).is_zero:
        raise BadInput("q0^2 != f mod p")
    prec = 1
    q = q0
    while prec < k:
        prec = min(2 * prec, k)
        modulus = p ** prec
        inv = _poly_inverse_mod(q, modulus)
        q = ((q + (f % modulus) * inv).scale(Fraction(1, 2))) % modulus
    return q % p ** k


def _poly_inverse_mod(a: UniPoly, modulus: UniPoly) -> UniPoly:
    """Inverse of a modulo a polynomial it is coprime to."""
    r0, r1 = modulus, a % modulus
    t0, t1 = UniPoly.zero(), UniPoly.one()
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, t0 - q * t1
    if r0.degree != 0:
        raise BadInput("element not invertible modulo the given polynomial")
    return (t0.scale(1 / r0.lc)) % modulus
