"""Hyperelliptic models y^2 = f(x) over Q: places, divisors, Riemann-Roch.

Closed points (Galois orbits) on the affine part sit over monic irreducible
x-polynomials p and are classified by how y^2 = f behaves modulo p:

* Split: f is a nonzero square mod p; two places, residue y = +-q mod p,
  keyed by the lexicographically least of the two square roots.
* Ramified: p divides f; one place, y a uniformizer.
* Inert: f is a non-square unit mod p; one place of degree 2 deg p.

`classify_place` reads the branch off one quadratic norm over Q; p must be
irreducible, which `rr_space` checks for the points of D.  The zeros of a
function u + v*y need no such test: `divisor_of_function` reads each place
and order off u + v*y and its norm, and asks `classify_place` only where
u + v*y is a unit times a power of p.  Both read a split root as -a/b from
some a + b*y vanishing on the branch (`_branch_root`).

Models of even degree 2g+2 carry two rational places at infinity (the
leading coefficient must be a rational square, which all shipped fixtures
satisfy); odd-degree models carry a single ramified place.  Valuations at
infinity come from an exact truncated expansion of y in t = 1/x, in
integers, for even models and from the degree of the norm for odd ones.

Riemann-Roch spaces are cut out of the candidate span {x^i} + {x^j y} by
exact linear algebra on expansion coefficients (pole conditions at
infinity) and congruence conditions modulo powers of defining polynomials
(pole permissions at affine points).  Every returned basis element is
re-checked against its divisor conditions before the space is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import mul

from . import numfield
from .arith import (
    UniPoly,
    _poly_inverse_mod,
    factor_over_Q,
    hensel_sqrt,
    is_squarefree,
    poly_gcd,
    rational_sqrt,
)
from .errors import (
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
from .linalg import kernel_basis

ODD, EVEN = "odd", "even"
OO_PLUS, OO_MINUS, OO = "oo+", "oo-", "oo"


@dataclass(frozen=True)
class HyperCurve:
    f: UniPoly
    genus: int
    parity: str

    @property
    def infinite_places(self):
        return (OO_PLUS, OO_MINUS) if self.parity == EVEN else (OO,)


def curve_new(f: UniPoly) -> HyperCurve:
    """Validate a model y^2 = f(x) and compute genus and infinite places."""
    if f.is_zero or f.degree < 5:
        raise DegreeTooSmall("need deg f >= 5 for a genus >= 2 model")
    if not is_squarefree(f):
        raise NotSquarefree("model polynomial has repeated roots")
    n = f.degree
    genus = (n + 1) // 2 - 1
    parity = ODD if n % 2 else EVEN
    if parity == EVEN and rational_sqrt(f.lc) is None:
        raise IrrationalInfinitePlaces("even-degree model needs a square leading coefficient")
    return HyperCurve(f, genus, parity)


# ---------------------------------------------------------------------------
# Closed points and divisors

SPLIT, RAM, INERT = "split", "ram", "inert"
_BRANCH_RANK = {SPLIT: 0, RAM: 1, INERT: 2}


@dataclass(frozen=True)
class ClosedPoint:
    kind: str  # 'affine' | 'inf'
    p: UniPoly = None
    branch: str = None  # split | ram | inert
    q: UniPoly = None  # split branch residue, canonical representative
    place: str = None  # oo+ | oo- | oo

    @staticmethod
    def affine(p: UniPoly, branch: str, q: UniPoly = None) -> "ClosedPoint":
        return ClosedPoint("affine", p=p.monic(), branch=branch, q=q)

    @staticmethod
    def infinite(place: str) -> "ClosedPoint":
        return ClosedPoint("inf", place=place)

    @property
    def degree(self) -> int:
        if self.kind == "inf":
            return 1
        return 2 * self.p.degree if self.branch == INERT else self.p.degree

    def conjugate(self) -> "ClosedPoint":
        if self.kind == "inf":
            flip = {OO_PLUS: OO_MINUS, OO_MINUS: OO_PLUS, OO: OO}
            return ClosedPoint.infinite(flip[self.place])
        if self.branch != SPLIT:
            return self
        return ClosedPoint.affine(self.p, SPLIT, (-self.q) % self.p)

    def sort_key(self):
        if self.kind == "inf":
            return (1, 0, {OO_PLUS: 0, OO_MINUS: 1, OO: 2}[self.place], (), ())
        qkey = self.q.sort_key() if self.q is not None else ()
        return (0, self.p.degree, _BRANCH_RANK[self.branch], self.p.sort_key(), qkey)

    def literal(self) -> str:
        if self.kind == "inf":
            return self.place
        if self.branch == SPLIT:
            return f"({self.p.literal()}; split; {self.q.literal()})"
        return f"({self.p.literal()}; {self.branch})"


def canonical_sqrt_rep(q: UniPoly, p: UniPoly) -> UniPoly:
    """Deterministic representative among the two square roots +-q mod p."""
    q = q % p
    neg = (-q) % p
    return q if q.sort_key() <= neg.sort_key() else neg


@dataclass(frozen=True)
class Divisor:
    terms: tuple  # sorted tuple of (ClosedPoint, nonzero int)

    @staticmethod
    def make(pairs) -> "Divisor":
        acc = {}
        for pt, mult in pairs:
            if mult:
                acc[pt] = acc.get(pt, 0) + mult
        items = [(pt, m) for pt, m in acc.items() if m]
        items.sort(key=lambda im: im[0].sort_key())
        return Divisor(tuple(items))

    @staticmethod
    def zero() -> "Divisor":
        return Divisor(())

    def __add__(self, other):
        return Divisor.make(list(self.terms) + list(other.terms))

    def __neg__(self):
        return Divisor(tuple((pt, -m) for pt, m in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k: int) -> "Divisor":
        if k == 0:
            return Divisor.zero()
        return Divisor(tuple((pt, k * m) for pt, m in self.terms))

    @property
    def degree(self) -> int:
        return sum(m * pt.degree for pt, m in self.terms)

    @property
    def is_effective(self) -> bool:
        return all(m > 0 for _, m in self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def multiplicity(self, pt: ClosedPoint) -> int:
        for cand, m in self.terms:
            if cand == pt:
                return m
        return 0

    def infinite_coefficient(self, place: str) -> int:
        return self.multiplicity(ClosedPoint.infinite(place))

    def affine_terms(self):
        return [(pt, m) for pt, m in self.terms if pt.kind == "affine"]

    def is_infinity_supported(self) -> bool:
        return all(pt.kind == "inf" for pt, _ in self.terms)

    def negative_part(self) -> "Divisor":
        """The poles, as an effective divisor."""
        return Divisor(tuple((pt, -m) for pt, m in self.terms if m < 0))

    def literal(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{m}*{pt.literal()}" for pt, m in self.terms)


@dataclass(frozen=True)
class CurveFunction:
    """(u(x) + v(x)*y) / den(x) with den monic and gcd(u, v, den) = 1."""

    u: UniPoly
    v: UniPoly
    den: UniPoly

    @staticmethod
    def make(u: UniPoly, v: UniPoly, den: UniPoly = None) -> "CurveFunction":
        den = UniPoly.one() if den is None else den
        if den.is_zero:
            raise ZeroFunction("zero denominator")
        u = u.scale(1 / den.lc)
        v = v.scale(1 / den.lc)
        den = den.monic()
        if den.degree == 0:
            return CurveFunction(u, v, den)
        g = poly_gcd(poly_gcd(u, v), den)
        if g.degree and g.degree > 0:
            u, v, den = u // g, v // g, den // g
        return CurveFunction(u, v, den)

    @staticmethod
    def constant(c) -> "CurveFunction":
        return CurveFunction.make(UniPoly.const(c), UniPoly.zero())

    @staticmethod
    def from_x_poly(p: UniPoly) -> "CurveFunction":
        return CurveFunction.make(p, UniPoly.zero())

    @property
    def is_zero(self) -> bool:
        return self.u.is_zero and self.v.is_zero

    @property
    def is_constant(self) -> bool:
        deg_u = self.u.degree if not self.u.is_zero else -1
        return self.v.is_zero and deg_u <= 0 and self.den.degree == 0

    def __add__(self, other):
        den = self.den * other.den
        u = self.u * other.den + other.u * self.den
        v = self.v * other.den + other.v * self.den
        if self.den.degree == 0 or other.den.degree == 0:
            # (a + a'y)/1 + (b + b'y)/den is reduced as it stands:
            # gcd(a*den + b, a'*den + b', den) = gcd(b, b', den) = 1
            return CurveFunction(u, v, den)
        return CurveFunction.make(u, v, den)

    def __sub__(self, other):
        return self + CurveFunction(-other.u, -other.v, other.den)

    def scale(self, c) -> "CurveFunction":
        return CurveFunction(self.u.scale(c), self.v.scale(c), self.den)

    def invert(self, curve: HyperCurve) -> "CurveFunction":
        """1 / self, using the conjugate: den*(u - v*y) / (u^2 - v^2 f)."""
        if self.is_zero:
            raise ZeroFunction("cannot invert the zero function")
        norm = self.u * self.u - self.v * self.v * curve.f
        return CurveFunction.make(self.den * self.u, -(self.den * self.v), norm)

    def literal(self) -> str:
        num = []
        if not self.u.is_zero:
            num.append(f"({self.u.literal()})")
        if not self.v.is_zero:
            num.append(f"({self.v.literal()})*y")
        body = " + ".join(num) if num else "0"
        if self.den.degree == 0:
            return body
        return f"[{body}] / ({self.den.literal()})"


# ---------------------------------------------------------------------------
# Expansions at infinity


def _series_length(nterms: int) -> int:
    """Requests are rounded up so repeated valuations share one cached series."""
    return ((max(nterms, 1) + 63) // 64) * 64


@lru_cache(maxsize=64)
def _y_series_scaled(curve: HyperCurve, nterms: int):
    """(L, N) with integers N[i], y = +- t^{-(g+1)} * sum (N[i] / L) t^i at
    oo+-, even models; callers round nterms with `_series_length`.

    With k the lcm of the denominators of f, A = k^2 t^n f(1/t) is integral
    with A_0 = a^2, and sqrt(A) = a + sum_{j>0} S_j t^j / (2a)^(2j-1) for the
    integers S_j = A_j (2a)^(2j-2) - sum_{0<i<j} S_i S_{j-i}.  Over the
    common denominator k (2a)^(2m), m = nterms - 1, the gcd is divided out,
    so L is the least common denominator.
    """
    assert curve.parity == EVEN
    n = curve.f.degree
    k = lcm(*(c.denominator for c in curve.f.coeffs))
    A = [int(curve.f.coeff(n - i) * k * k) for i in range(n + 1)]
    a2 = 2 * isqrt(A[0])
    S = [0]
    for j in range(1, nterms):
        head = A[j] * a2 ** (2 * j - 2) if j <= n else 0
        S.append(head - sum(map(mul, S[1:j], S[j - 1 : 0 : -1])))
    m = nterms - 1
    N = [a2 ** (2 * m + 1) // 2] + [S[j] * a2 ** (2 * (m - j) + 1) for j in range(1, nterms)]
    g = gcd(k * a2 ** (2 * m), *N)
    return k * a2 ** (2 * m) // g, tuple(c // g for c in N)


def _even_infinity_valuation(curve, u, v, place) -> int:
    """ord at oo+/oo- of u(x) + v(x) y on an even model (den excluded).

    u and v are scaled once to integers by their common denominator, with
    the place's sign folded into v; a positive scale leaves the first
    nonzero coefficient where it was.
    """
    if u.is_zero and v.is_zero:
        raise ZeroFunction("valuation of the zero function")
    g = curve.genus
    s = lcm(*(c.denominator for c in u.coeffs + v.coeffs))
    ui = [c.numerator * (s // c.denominator) for c in u.coeffs]
    sign = s if place == OO_PLUS else -s
    vi = [c.numerator * (sign // c.denominator) for c in v.coeffs]
    dv = len(vi) - 1
    M = max(len(ui) - 1, dv + g + 1 if vi else -1)
    nterms = 2 * M + 2 + (dv + g + 2 if vi else 0)
    # L times the coefficient of t^e, so the series stays in integers
    L, N = _y_series_scaled(curve, _series_length(nterms)) if vi else (1, ())
    for e in range(-M, M + 1):
        coeff = L * ui[-e] if -len(ui) < e <= 0 else 0
        lo = max(0, -(e + g + 1))
        coeff += sum(map(mul, vi[lo:], N[e + g + 1 + lo : e + g + 2 + dv]))
        if coeff:
            return e
    raise VerificationFailed("valuation window exhausted; function unexpectedly zero")


# ---------------------------------------------------------------------------
# Branch classification and principal divisors


@lru_cache(maxsize=4096)
def classify_place(curve: HyperCurve, p: UniPoly):
    """Branch behaviour of y^2 = f over the monic irreducible p.

    Returns (SPLIT, q) with q the canonical square root of f mod p,
    (RAM, None), or (INERT, None).  An irreducible norm N of y + c*x means
    inert (for p = x - r, c = 0 and N = z^2 - f(r)); else a factor h of N
    vanishes on one branch only, so h(y + c*x) = a + b*y mod (p, y^2 - f)
    gives the root q = -a/b, accepted only after the exact check q^2 = f
    (mod p).
    """
    p = p.monic()
    f = curve.f % p
    if f.is_zero:
        return (RAM, None)
    c, norm = numfield.shifted_norm(p, curve.f)
    factors = factor_over_Q(norm).factors
    if len(factors) == 1:
        return (INERT, None)
    # Horner on a + b*y: (a + b*y)(c*x + y) = (a*c*x + b*f) + (a + b*c*x)*y
    cx = UniPoly.make([0, c])
    a = b = UniPoly.zero()
    for coeff in reversed(factors[0][0].coeffs):
        a, b = (a * cx + b * f + UniPoly.const(coeff)) % p, (a + b * cx) % p
    return (SPLIT, canonical_sqrt_rep(_branch_root(a, b, p, f), p))


def _branch_root(a: UniPoly, b: UniPoly, p: UniPoly, f: UniPoly) -> UniPoly:
    """The root q = -a/b mod p of a + b*y, checked exactly: q^2 = f (mod p).

    a + b*y vanishing on the branch y = q over p forces q to be a square
    root of f there; b = 0 mod p or a failed check is an internal fault.
    """
    if (b % p).is_zero:
        raise VerificationFailed("a + b*y has b = 0 mod p: no branch root to read off")
    q = (-a * _poly_inverse_mod(b, p)) % p
    if not ((q * q - f) % p).is_zero:
        raise VerificationFailed("root read off the function fails q^2 = f (mod p)")
    return q


def _valuation_at(p: UniPoly, a: UniPoly) -> tuple:
    """(k, a / p^k) with k the exponent of p in a; a nonzero."""
    k = 0
    while True:
        q, r = divmod(a, p)
        if not r.is_zero:
            return k, a
        a, k = q, k + 1


def _zeros_over(curve, p, mult, u, v):
    """(place, ord) of u + v*y over a factor p of its norm N, mult = v_p(N).

    Ramified (p | f): ord = min(2 v_p(u), 2 v_p(v) + 1) = v_p(N).  Else with
    k = min(v_p(u), v_p(v)), N = p^(2k) N' and u' + v'y = (u + v*y) / p^k:
    mult = 2k makes u' + v'y a unit at every place over p, so each gets k
    (`classify_place` says whether that is two split places or one inert).
    mult > 2k makes u' + v'y vanish on the branch y = -u'/v' mod p only:
    that branch gets mult - k and the other k.
    """
    if (curve.f % p).is_zero:
        return [(ClosedPoint.affine(p, RAM), mult)]
    sides = [_valuation_at(p, a) if not a.is_zero else (None, a) for a in (u, v)]
    k = min(val for val, _ in sides if val is not None)
    if mult < 2 * k:
        raise VerificationFailed("norm valuation disagrees with the function")
    if mult == 2 * k:
        branch, q = classify_place(curve, p)
        if branch == INERT:
            return [(ClosedPoint.affine(p, INERT), k)]
    else:
        # a side of order above k is 0 mod p once divided by p^k
        a, b = (cof if val == k else UniPoly.zero() for val, cof in sides)
        q = _branch_root(a, b, p, curve.f)
    place = ClosedPoint.affine(p, SPLIT, q)
    return [(place, mult - k), (place.conjugate(), k)]


@lru_cache(maxsize=256)
def _poles_along(curve: HyperCurve, den: UniPoly):
    """(place, -order) of 1/den(x) at every place over a factor of den.

    Cached per (curve, den), as `classify_place` is per (curve, p): every
    fiber of one map shares its den.  The polynomials of these places are
    the irreducible factors of den, the one factorization of den.
    """
    out = []
    for p, mult in factor_over_Q(den).factors:
        branch, q = classify_place(curve, p)
        place = ClosedPoint.affine(p, branch, q)
        if branch == SPLIT:
            out += [(place, -mult), (place.conjugate(), -mult)]
        else:
            out.append((place, -2 * mult if branch == RAM else -mult))
    return tuple(out)


def _norm_factors(norm: UniPoly, known) -> list:
    """factor_over_Q(norm).factors, factoring only what `known` leaves.

    Each monic irreducible of `known` is divided out of norm exactly, with
    its valuation; only the cofactor goes to `factor_over_Q`.
    """
    out = []
    for p in known:
        k, norm = _valuation_at(p, norm)
        if k:
            out.append((p, k))
    if norm.degree > 0:
        out.extend(factor_over_Q(norm).factors)
    out.sort(key=lambda fm: fm[0].sort_key())
    return out


def divisor_of_function(curve: HyperCurve, w: CurveFunction) -> Divisor:
    """The full principal divisor of w; total degree always 0.

    Zeros come from the factors p of the norm N = u^2 - v^2 f, each place
    and order read off u + v*y itself (`_zeros_over`); `classify_place` is
    asked only where u + v*y is a unit times a power of p, and for the poles
    along den (`_poles_along`, once per den).  The factors of den are divided
    out of N first, so only the cofactor is factored.  A factor p of den
    divides N wherever w has a pole of lower order than den at a place over
    p, since u + v*y vanishes there: along the ramified point of a fiber map
    of `specialize_fiber`, for every w - beta.  Orders at infinity come from
    the expansion of y on an even model and from deg N on an odd one.
    """
    if w.is_zero:
        raise ZeroFunction("divisor of the zero function")
    u, v, den = w.u, w.v, w.den
    poles = _poles_along(curve, den) if den.degree > 0 else ()
    terms = {}

    def bump(pt, mult):
        if mult:
            terms[pt] = terms.get(pt, 0) + mult

    # numerator part: zeros of u + v y via the norm u^2 - v^2 f
    norm = u * u - v * v * curve.f
    if norm.is_zero:
        raise VerificationFailed("u + v y vanished identically on the curve")
    if norm.degree > 0:
        for p, mult in _norm_factors(norm, dict.fromkeys(pt.p for pt, _ in poles)):
            for pt, val in _zeros_over(curve, p, mult, u, v):
                bump(pt, val)

    # denominator part: poles along den(x)
    for pt, val in poles:
        bump(pt, val)

    # infinite places
    dden = den.degree
    if curve.parity == EVEN:
        for place in (OO_PLUS, OO_MINUS):
            val = _even_infinity_valuation(curve, u, v, place) + dden
            bump(ClosedPoint.infinite(place), val)
    else:
        # u and v*y have orders of unlike parity at oo, and u - v*y has the
        # order of u + v*y there, so the norm has twice it
        bump(ClosedPoint.infinite(OO), 2 * dden - norm.degree)

    out = Divisor.make(terms.items())
    if out.degree != 0:
        raise VerificationFailed(f"principal divisor degree {out.degree} != 0")
    return out


def canonical_divisor(curve: HyperCurve) -> Divisor:
    """Divisor of dx/y: degree 2g - 2, shared equally by the places at
    infinity."""
    places = curve.infinite_places
    mult = (2 * curve.genus - 2) // len(places)
    return Divisor.make([(ClosedPoint.infinite(place), mult) for place in places])


# ---------------------------------------------------------------------------
# Riemann-Roch spaces


@dataclass(frozen=True)
class RRSpace:
    divisor: Divisor
    basis: tuple  # of CurveFunction
    dim: int


def rr_space_infty(curve: HyperCurve, n_plus: int, n_minus: int = None) -> RRSpace:
    """L(n+ * oo+ + n- * oo-) for even models, L(n * oo) for odd models.

    Negative bounds demand vanishing to that order at the place.
    """
    bounds = (n_plus,) if n_minus is None else (n_plus, n_minus)
    if len(bounds) != len(curve.infinite_places):
        names = ", ".join(curve.infinite_places)
        raise UnsupportedDivisorShape(f"one bound per place at infinity: {names}")
    pairs = zip(map(ClosedPoint.infinite, curve.infinite_places), bounds)
    return rr_space(curve, Divisor.make(pairs))


def _assert_infinity_bounds(curve, w, n_plus, n_minus):
    """Exact recheck that w honours the pole bounds at infinity."""
    dden = w.den.degree
    vp = _even_infinity_valuation(curve, w.u, w.v, OO_PLUS) + dden
    vm = _even_infinity_valuation(curve, w.u, w.v, OO_MINUS) + dden
    if vp < -n_plus or vm < -n_minus:
        raise VerificationFailed("basis element violates pole bounds")


def require_infinite_places(curve: HyperCurve, places) -> None:
    """Raise InfinitePlace for the first of oo+, oo-, oo in places that the
    model does not have."""
    for place in (OO_PLUS, OO_MINUS, OO):
        if place in places and place not in curve.infinite_places:
            names = ", ".join(curve.infinite_places)
            raise InfinitePlace(f"{place} is not a place of the curve: its places at infinity are {names}")


def rr_space(curve: HyperCurve, D: Divisor) -> RRSpace:
    """L(D) for divisors whose negative part is supported at infinity.

    The effective affine part grants pole permissions, realized by a
    denominator h built from the defining polynomials and linear
    conditions modulo their powers (`_affine_conditions`); a negative
    affine part raises UnsupportedDivisorShape.  Each basis element is
    (U + V y) / h for a kernel vector (U, V) of the pole and congruence
    conditions.

    The pole conditions at infinity are solved for U first
    (`_infinity_conditions`); the U coefficients they fix are substituted
    into the congruence rows, and the kernel is taken over the free U
    columns and V.  A fixed column is a pivot of the full system, written
    in terms of V, which comes after it, so the free columns are those of
    the full system, in the same order, and the expanded vectors are the
    reduced-echelon basis the full system gives.  A place at infinity that
    the model does not have raises InfinitePlace.
    """
    require_infinite_places(curve, {pt.place for pt, _ in D.terms if pt.kind == "inf"})
    affine = D.affine_terms()
    h, congruences = _affine_conditions(curve, affine)
    dh = h.degree
    if curve.parity == EVEN:
        n_plus = D.infinite_coefficient(OO_PLUS)
        n_minus = D.infinite_coefficient(OO_MINUS)
        Bu = Bv = max(max(n_plus, n_minus) + dh + curve.genus + 2, -1)
        L, fixed, v_rows = _infinity_conditions(curve, n_plus + dh, n_minus + dh, Bu)
    else:
        # odd model: infinity bounds are pure degree caps
        n_eff = D.infinite_coefficient(OO) + 2 * dh
        Bu = max(n_eff // 2, -1)
        Bv = max((n_eff - (2 * curve.genus + 1)) // 2, -1)
        L, fixed, v_rows = 1, {}, []
    free = [k for k in range(Bu + 1) if k not in fixed]
    rows = [[0] * len(free) + row for row in v_rows]
    for row in _congruence_rows(congruences, Bu, Bv):
        # U_k = (c . V) / L for a fixed k: the row times L, over (free U, V)
        v_part = [L * a for a in row[Bu + 1 :]]
        for k, c in fixed.items():
            if row[k] and c:
                v_part = [a + row[k] * w for a, w in zip(v_part, c)]
        rows.append([L * row[k] for k in free] + v_part)
    basis = []
    for vec in kernel_basis(rows, len(free) + Bv + 1):
        V = vec[len(free) :]
        den = lcm(*(a.denominator for a in V))
        scaled = [a.numerator * (den // a.denominator) for a in V]
        U = dict(zip(free, vec))
        U.update((k, Fraction(sum(map(mul, c, scaled)), L * den)) for k, c in fixed.items())
        w = CurveFunction.make(UniPoly.make([U[k] for k in range(Bu + 1)]), UniPoly.make(V), h)
        if curve.parity == EVEN:
            _assert_infinity_bounds(curve, w, n_plus, n_minus)
        basis.append(w)
    if affine:
        for w in basis:
            _assert_affine_membership(curve, w, D)
    return RRSpace(D, tuple(basis), len(basis))


def _affine_conditions(curve, affine):
    """(h, congruences): the denominator and the conditions U + b*V = 0
    mod m, at most one (m, b) per point polynomial, that grant the affine
    pole permissions: a split pair gets one of order |a+ - a-| on the side
    of the smaller multiplicity, a ramified point of odd multiplicity
    U = 0 mod p, and an inert point none."""
    if any(m < 0 for _, m in affine):
        raise UnsupportedDivisorShape("negative affine divisor part")

    # group pole permissions by defining polynomial
    by_p = {}
    for pt, mult in affine:
        by_p.setdefault(pt.p, []).append((pt, mult))
    h = UniPoly.one()
    congruences = []
    for p, pts in sorted(by_p.items(), key=lambda kv: kv[0].sort_key()):
        numfield.nf_new(p)  # rejects a constant or reducible point polynomial
        branch, q = classify_place(curve, p)
        place = ClosedPoint.affine(p, branch, q)
        for pt, _ in pts:
            if pt not in (place, place.conjugate()):
                residue = f" with y = +-({q.literal()})" if q is not None else ""
                raise BadInput(
                    f"{pt.literal()} is not a place of the curve: "
                    f"{p.literal()} is {branch}{residue} there"
                )
        if branch == SPLIT:
            a_plus = sum(mult for pt, mult in pts if pt.q == q)
            a_minus = sum(mult for pt, mult in pts if pt.q != q)
            h = h * p ** max(a_plus, a_minus)
            r = abs(a_plus - a_minus)
            if r:
                qr = hensel_sqrt(curve.f, p, q, r)
                congruences.append((p**r, qr if a_plus < a_minus else -qr))
        elif branch == INERT:
            h = h * p ** pts[0][1]
        else:
            a = pts[0][1]
            h = h * p ** ((a + 1) // 2)
            if a % 2:
                congruences.append((p, UniPoly.zero()))
    return h, congruences


def _infinity_conditions(curve, bound_plus, bound_minus, B):
    """(L, fixed, rows): the pole conditions at oo+ and oo- on U + V y,
    i, j <= B in the span {x^i} + {x^j y}, solved for U where they fix it.

    With y from `_y_series_scaled`, L times the coefficient of t^e at oo+-
    is L U_{-e} +- W_e . V, W_e = (N[e + j + g + 1])_j.  Where both places
    forbid t^e, U_{-e} = 0 and W_e . V = 0; where only the place of sign
    s does, U_{-e} = -s (W_e . V) / L and V is left free; where column -e
    does not exist, W_e . V = 0.  `fixed` maps each fixed k to c with
    U_k = (c . V) / L, c empty for U_k = 0; `rows` are the conditions on
    V alone.
    """
    if B < 0:
        return 1, {}, []
    g = curve.genus
    nterms = B + g + 2 + max(0, -bound_plus, -bound_minus) + 2
    L, N = _y_series_scaled(curve, _series_length(nterms))
    fixed, rows = {}, []
    for e in range(-(B + g + 1), max(-bound_plus, -bound_minus)):
        start = max(0, -(e + g + 1))
        W = [0] * start + list(N[e + g + 1 + start : e + g + 2 + B])
        plus, minus = e < -bound_plus, e < -bound_minus
        if not 0 <= -e <= B:
            rows.append(W)
        elif plus and minus:
            fixed[-e] = ()
            rows.append(W)
        else:
            fixed[-e] = [-w for w in W] if plus else W
    return L, fixed, rows


def _congruence_rows(congruences, Bu, Bv):
    """Rows forcing U + b*V = 0 mod m for each condition (m, b).

    U fills columns 0..Bu and V columns Bu+1..; b is +-q_r or 0.  Each
    condition gives one row per coefficient of the residue.
    """
    rows = []
    for modulus, b in congruences:
        x_pows = [UniPoly.one()]
        for _ in range(max(Bu, Bv)):
            x_pows.append((x_pows[-1] * UniPoly.x()) % modulus)
        residues = x_pows[: Bu + 1] + [(b * xp) % modulus for xp in x_pows[: Bv + 1]]
        rows.extend([res.coeff(r) for res in residues] for r in range(modulus.degree))
    return rows


def _assert_affine_membership(curve, w, D):
    """Exact recheck of div(w) + D >= 0 at the affine support of D and w.den."""
    div = divisor_of_function(curve, w)
    for pt, mult in (div + D).terms:
        if pt.kind != "inf" and mult < 0:
            raise VerificationFailed("affine membership recheck failed")


def decompose_effective(curve: HyperCurve, w: CurveFunction, base: Divisor) -> Divisor:
    """base + div(w), which must be effective (w in L(base))."""
    out = divisor_of_function(curve, w) + base
    if not out.is_effective:
        raise NotInLinearSeries("div(w) + base is not effective")
    return out


def point_field(curve: HyperCurve, pt: ClosedPoint) -> numfield.NumberField:
    """The residue field Q(P).

    A split or ramified place has Q(P) = Q[x]/(p), with no second proof
    that p is irreducible: it is for every place the package builds, a
    factor from `factor_over_Q` or a point of D that `rr_space` checked.
    An inert place has the field of `absolute_minpoly`, which proves both
    again: it factors p (`nf_new`), and rebuilds and factors the quadratic
    norm that `classify_place` already factored.
    """
    if pt.kind == "inf":
        raise InfinitePlace("infinite places are rational points")
    if pt.branch in (SPLIT, RAM):
        return numfield.NumberField(pt.p)
    return numfield.NumberField(numfield.absolute_minpoly(pt.p, curve.f))
