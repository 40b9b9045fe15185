"""Exact rational scalars and dense univariate polynomial algebra.

Nothing in this module (or the package) touches floating point.  A
polynomial is its integer numerators over one common denominator: `num`, a
tuple of ints, lowest degree first, with no trailing zeros, and `den`, a
positive int with gcd(den, *num) = 1.  Of the split into content and
primitive part (von zur Gathen and Gerhard, Modern Computer Algebra, 6.2)
only the denominator is kept apart; `to_int_primitive` takes the rest of
the content with one gcd.  The form is unique, so equality, hashing and
`sort_key` run on ints.  The zero polynomial is ((), 1) and its degree
is the sentinel ``None``, never a number.  `coeffs`, the coefficients as
`fractions.Fraction`s, is derived from num/den once per object, for the
edges that print or evaluate; scalars such as `lc` are Fractions.

Sums, products and divisions run on the numerators, with no conversion in
or out, and divide the gcd with the denominator out once at the end.
Division scales the integer remainder by lc/gcd(c, lc), for its leading
coefficient c and the divisor's leading numerator lc, only at the steps
where lc does not divide c, so a monic integer divisor never scales it; the
quotient terms are kept as integer pairs, which `%` never combines.

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
Frobenius cycle type.  One memo (`_fp_split`) holds the split of each
monic residue mod p, so a residue is split once per interpreter: a field's
m when `nf_new` factors it and again when its degree patterns are read,
and the cofactors of fibers over values that agree mod p.

Squarefreeness has one test per ring: mod p the memo `_fp_split`, which
returns None off the squarefree residues, and over Q, only where none of
three primes not dividing the leading coefficient keeps a squarefree, the
gcd of `squarefree_part`; `factor_over_Q` then factors that part and reads
each multiplicity off a by exact division.  The same modular kit also
computes in F_{p^e} = F_p[t]/(G), with residues mod G as coefficients
(`fpe_roots`).  Where only a remainder is wanted (gcds, powers mod f,
products in F_{p^e}, the Hensel correction, the pair labels of
`numfield`), `_fp_rem` builds no quotient, and a product goes into it
unreduced, so that it is reduced mod p once per coefficient.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from math import gcd, isqrt, lcm

from .errors import BadInput, RamifiedBranch, VerificationFailed, ZeroPolynomial
from .linalg import _kernel


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


def _convolve(a, b) -> list:
    """The product of two coefficient lists, unreduced: for integers, and
    for the residues of the modular kit before they are reduced."""
    out = [0] * (len(a) + len(b) - 1)
    for i, va in enumerate(a):
        if va:
            for j, vb in enumerate(b):
                out[i + j] += va * vb
    return out


def _from_ints(num, den: int = 1) -> "UniPoly":
    """sum num[i]/den x^i, for a sequence of ints num and an int den != 0,
    in the canonical form of `UniPoly`."""
    top = len(num)
    while top and not num[top - 1]:
        top -= 1
    if not top:
        return UniPoly(())
    if top < len(num):
        num = num[:top]
    if den != 1:
        g = gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num, den = [v // g for v in num], den // g
    return UniPoly(tuple(num), den)


@dataclass(frozen=True)
class UniPoly:
    """Dense polynomial over Q: sum num[i]/den x^i, lowest degree first.

    `num` is a tuple of ints with no trailing zeros and `den` a positive int
    with gcd(den, *num) = 1; zero is ((), 1).  The form is unique, so `==`
    and `hash` compare ints.  `coeffs` is derived from it, once per object.
    """

    num: tuple
    den: int = 1

    from_ints = staticmethod(_from_ints)

    @staticmethod
    def make(coeffs) -> "UniPoly":
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        return _from_ints([c.numerator * (den // c.denominator) for c in cs], den)

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly(())

    @staticmethod
    def one() -> "UniPoly":
        return UniPoly((1,))

    @staticmethod
    def x() -> "UniPoly":
        return UniPoly((0, 1))

    @staticmethod
    def const(c) -> "UniPoly":
        return UniPoly.make([c])

    @cached_property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, lowest degree first."""
        return tuple(Fraction(v, self.den) for v in self.num)

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.num) - 1 if self.num else None

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def lc(self) -> Fraction:
        if not self.num:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return Fraction(self.num[-1], self.den)

    def __bool__(self):
        return bool(self.num)

    def _combine(self, other, sign):
        """self + sign*other over the common denominator."""
        da, db = self.den, other.den
        den = da if da == db else lcm(da, db)
        out = list(self.num) if den == da else [v * (den // da) for v in self.num]
        out += [0] * (len(other.num) - len(out))
        t = sign * (den // db)
        for i, v in enumerate(other.num):
            out[i] += t * v
        return _from_ints(out, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return UniPoly(tuple(-v for v in self.num), self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not self.num or not other.num:
            return UniPoly.zero()
        return _from_ints(_convolve(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def scale(self, c) -> "UniPoly":
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        return _from_ints([v * c.numerator for v in self.num], self.den * c.denominator)

    def _divide(self, divisor):
        """(quotient terms, s, remainder) of self by divisor.

        On the numerators A and B, the loop keeps R/s as the remainder of A
        so far, scaling R and s by lc(B)/gcd(c, lc(B)) only when lc(B) does
        not divide the leading c, and takes k*x^i*B off R.  Quotient term i
        is the pair (k, s at that step), k*den(B)/(s*den(A)); the remainder
        is R/(s*den(A)).
        """
        if divisor.is_zero:
            raise ZeroPolynomial("polynomial division by zero")
        a = self.num
        n = len(divisor.num) - 1
        if len(a) <= n:
            return [], 1, self
        rem, low = list(a), list(divisor.num)
        lead = low.pop()
        scale = 1
        quot = [(0, 1)] * (len(a) - n)
        for i in range(len(a) - 1, n - 1, -1):
            c = rem[i]
            if not c:
                continue
            if c % lead:
                g = gcd(c, lead)
                t = lead // g
                rem[:i] = [v * t for v in rem[:i]]
                scale *= t
                k = c // g
            else:
                k = c // lead
            quot[i - n] = (k, scale)
            for j, v in enumerate(low, i - n):
                rem[j] -= k * v
        return quot, scale, _from_ints(rem[:n], scale * self.den)

    def __divmod__(self, divisor):
        quot, scale, rem = self._divide(divisor)
        db = divisor.den
        return _from_ints([k * (scale // s) * db for k, s in quot], scale * self.den), rem

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return self._divide(other)[2]

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
        """self / lc: the numerators over their content, den the leading one."""
        num = self.num
        if not num or num[-1] == self.den:
            return self
        g = gcd(*num)
        if num[-1] < 0:
            g = -g
        return UniPoly(tuple(v // g for v in num), num[-1] // g)

    def derivative(self) -> "UniPoly":
        return _from_ints([i * v for i, v in enumerate(self.num) if i], self.den)

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
        return Fraction(self.num[i], self.den) if 0 <= i < len(self.num) else Fraction(0)

    def to_int_primitive(self):
        """Return (scale, P) with self = scale * P, P primitive in Z[x], lc(P) > 0."""
        if not self.num:
            return Fraction(0), []
        content = gcd(*self.num)
        if self.num[-1] < 0:
            content = -content
        return Fraction(content, self.den), [v // content for v in self.num]

    def sort_key(self):
        """(degree, the (numerator, denominator) pair of each coefficient)."""
        den = self.den
        pairs = tuple((v // g, den // g) for v in self.num for g in (gcd(v, den),))
        return (len(self.num) - 1, pairs)

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
    return UniPoly.from_ints(fa).monic()


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


def _valuation_at(p: UniPoly, a: UniPoly) -> tuple:
    """(k, a / p^k) with k the exponent of p in a; a nonzero."""
    k = 0
    while True:
        q, r = divmod(a, p)
        if not r.is_zero:
            return k, a
        a, k = q, k + 1


def _squarefree_mod_a_prime(a: UniPoly) -> bool:
    """True if a, of degree >= 1, is squarefree mod one of the first three
    primes p > 20 that do not divide the leading coefficient of its integer
    model.

    Then a is squarefree over Q: a repeated factor over Q stays a repeated
    factor of positive degree mod such a p.  False proves nothing.
    """
    _, P = a.to_int_primitive()
    return any(parts is not None for _, parts in itertools.islice(_prime_splits(P), 3))


def is_squarefree(a: UniPoly) -> bool:
    if a.is_zero:
        return False
    if a.degree == 0:
        return True
    return _squarefree_mod_a_prime(a) or squarefree_part(a).degree == a.degree


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
# any m, and `_fp_divmod` and `_fp_rem` whenever lc(b) is a unit mod m, as
# for the monic divisors of the lifting; `_fp_monic`, `_fp_gcd`,
# `_fp_bezout` and the splitting stages need m prime.  `_fp_mul`,
# `_fp_divmod` and `_fp_rem` reduce mod m once per coefficient, not after
# every product.


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
    return _fp_reduce(_convolve(a, b), p) if a and b else []


def _fp_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("division by zero polynomial mod p")
    rem = list(a)
    db = len(b) - 1
    inv = None if b[-1] == 1 else pow(b[-1], -1, p)  # no inverse for a monic b
    if len(rem) - 1 < db:
        return [], _fp_reduce(rem, p)
    quot = [0] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] % p
        if c:
            q = c if inv is None else c * inv % p
            quot[i - db] = q
            for j, bv in enumerate(b):
                rem[i - db + j] -= q * bv
    return _fp_trim(quot), _fp_reduce(rem, p)


def _fp_rem(a, b, m):
    """`_fp_divmod(a, b, m)[1]` with no quotient: the loop updates only the
    coefficients below deg b and keeps only those.

    a may hold unreduced values, as a product straight from `_convolve`
    does, so a multiplication and its reduction mod b reduce mod m once.
    """
    if not b:
        raise ZeroDivisionError("division by zero polynomial mod p")
    n = len(b) - 1
    rem, low = list(a), b[:-1]
    inv = None if b[-1] == 1 else pow(b[-1], -1, m)  # no inverse for a monic b
    for i in range(len(rem) - 1, n - 1, -1):
        c = rem[i] % m
        if c:
            if inv is not None:
                c = c * inv % m
            for j, v in enumerate(low, i - n):
                rem[j] -= c * v
    return _fp_reduce(rem[:n], m)


def _fp_monic(a, p):
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return [v * inv % p for v in a]


def _fp_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _fp_rem(a, b, p)
    return _fp_monic(a, p)


def _fp_powmod(base, e, mod, p):
    """base^e mod `mod` by squaring; each product is reduced mod p only
    within its reduction mod `mod`."""
    result = [1]
    base = _fp_rem(base, mod, p)
    while e:
        if e & 1:
            result = _fp_rem(_convolve(result, base), mod, p)
        e >>= 1
        if e:
            base = _fp_rem(_convolve(base, base), mod, p)
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
                h = _fp_rem(h, rem, p)
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
# `_fp_divmod`, `_fp_rem`, `_fp_gcd` and `_fp_powmod` run unchanged on
# polynomials with `_FqElement` coefficients.


class _Fq:
    """F_p[t]/(G) for p an odd prime and G monic irreducible mod p."""

    def __init__(self, p: int, G: list):
        self.p, self.G = p, G

    def __call__(self, residue) -> "_FqElement":
        return _FqElement(self, tuple(_fp_rem(residue, self.G, self.p)))

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
        return _FqElement(F, tuple(_fp_rem(_convolve(self.c, self._lift(other).c), F.G, F.p)))

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
    by a monic polynomial: `_fp_divmod` and `_fp_rem` need no inverse of
    lc = 1 and stay valid over Z/p^k.
    """
    k = 1
    while k < target_exp:
        k = min(2 * k, target_exp)
        m = p ** k
        fm = _fp_reduce(f, m)
        e = _fp_sub(fm, _fp_mul(g, h, m), m)
        corr = _fp_rem(_convolve(t, e), g, m)
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


@lru_cache(maxsize=256)
def _fp_split(f: tuple, p: int):
    """The distinct-degree split of the monic residue f mod p, as a tuple of
    (tuple g, d) that no caller can change, or None when f is not
    squarefree mod p (f' = 0 or gcd(f, f') != 1): the one squarefree test
    mod p and the one memo of the splitting stage, so that the certificate,
    `factor_over_Q` and `degree_patterns` test and split a residue once."""
    df = _fp_reduce([i * c for i, c in enumerate(f)][1:], p)
    if not df or len(_fp_gcd(f, df, p)) != 1:
        return None
    return tuple((tuple(g), d) for g, d in _fp_distinct_degree(list(f), p))


def _prime_splits(P):
    """Yield (p, parts) for the primes p > 20 that do not divide the leading
    coefficient of the integer model P, in order; parts is `_fp_split` of
    the monic residue of P mod p, None where P is not squarefree mod p.
    The one place that reduces a model mod p.  Lazy and endless."""
    for p in filter(is_prime, itertools.count(21)):
        if P[-1] % p:
            yield p, _fp_split(tuple(_fp_monic(_fp_reduce(P, p), p)), p)


def _good_primes(P):
    """Yield (p, parts) for the primes of `_prime_splits` that keep P
    squarefree with full degree, in order, with parts the distinct-degree
    split of P mod p.  Lazy and endless; callers take a prefix with
    `itertools.islice`.
    """
    return ((p, parts) for p, parts in _prime_splits(P) if parts is not None)


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
    """Monic irreducible factors over Q of a monic squarefree polynomial,
    sorted by `UniPoly.sort_key`."""
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
            q, r = divmod(UniPoly.from_ints(current), UniPoly.from_ints(cand))
            if r.is_zero:
                result.append(UniPoly.from_ints(cand).monic())
                _, current = q.to_int_primitive()
                pool = [i for i in pool if i not in combo]
                break
        else:
            size += 1
    if len(current) > 1:
        result.append(UniPoly.from_ints(current).monic())
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
    if _squarefree_mod_a_prime(a):
        factors = [(irr, 1) for irr in _zassenhaus_irreducibles(a.monic())]
    else:
        factors, rest = [], a
        for irr in _zassenhaus_irreducibles(squarefree_part(a)):
            mult, rest = _valuation_at(irr, rest)
            factors.append((irr, mult))
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
    """Inverse t of a modulo a polynomial it is coprime to.

    With n = deg modulus, (t, 1) spans the kernel of [A | -e_0], where
    column j of A holds a * x^j mod modulus: A t = e_0 says a * t = 1.  A is
    invertible exactly when a is, and else the kernel has another vector.
    A nonzero constant residue is inverted directly.
    """
    n, a = modulus.degree, a % modulus
    if a.degree == 0:
        return UniPoly.const(1 / a.lc)
    col = [*a.coeffs, *[0] * n][:n]
    columns = [col]
    for _ in range(n - 1):
        top, col = col[-1], [0, *col[:-1]]
        if top:
            q = top / modulus.lc
            col = [c - q * m for c, m in zip(col, modulus.coeffs)]
        columns.append(col)
    rows = [[*row, -int(i == 0)] for i, row in enumerate(zip(*columns))]
    basis = _kernel(rows, n + 1)
    if len(basis) != 1 or not basis[0][n]:
        raise BadInput("element not invertible modulo the given polynomial")
    return UniPoly.make(basis[0][:n])
