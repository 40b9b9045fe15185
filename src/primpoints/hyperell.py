"""Hyperelliptic models y^2 = f(x) over Q: places, divisors, Riemann-Roch.

Closed points (Galois orbits) on the affine part sit over monic irreducible
x-polynomials p and are classified by how y^2 = f behaves modulo p:

* Split: f is a nonzero square mod p; two places, residue y = +-q mod p,
  keyed by the lexicographically least of the two square roots.
* Ramified: p divides f; one place, y a uniformizer.
* Inert: f is a non-square unit mod p; one place of degree 2 deg p.

`classify_place` reads the branch off one quadratic norm over Q; p must be
irreducible, which `rr_space` checks for the points of D.  A principal
divisor needs no such test: div(w) = div(u + v*y) - div(den), and one
reader takes both halves off the numerator and its norm, asking
`classify_place` only where it is a unit times a power of p; div(den) is
cached per denominator.  Both read a split root as -a/b from some a + b*y
vanishing on the branch (`_branch_root`).

Models of even degree 2g+2 carry two rational places at infinity (the
leading coefficient must be a rational square, which all shipped fixtures
satisfy); odd-degree models carry a single ramified place.  Orders at
infinity are read off the norm u^2 - v^2 f, whose degree is minus their
sum, and on even models off the leading coefficients of u + v*y at oo+-,
of which at most one cancels (`_infinity_orders`).  The expansion of y in
t = 1/x, in integers, serves only the pole conditions of `rr_space`.

Riemann-Roch spaces are cut out of the candidate span {x^i : i <= Bu} +
{x^j y : j <= Bv} by exact linear algebra on expansion coefficients (pole
conditions at infinity) and congruence conditions modulo powers of defining
polynomials (pole permissions at affine points).  The span is the tight
one: for w = (U + V y) / h in L(D), w and its conjugate bound the poles of
2U and 2V y at infinity by M = max(n+, n-) + deg h on even models, so
Bu = M and Bv = M - g - 1; on odd models M = n + 2 deg h, and x and y have
pole orders 2 and 2g + 1 at oo, so Bu = M // 2 and Bv = (M - 2g - 1) // 2;
each is clamped at -1.  Every basis element w is rechecked against
div(w) + D >= 0 at every place, on both parities.
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
    _valuation_at,
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

    def conjugate(self) -> "Divisor":
        """The image under the involution y -> -y, point by point."""
        return Divisor.make((pt.conjugate(), m) for pt, m in self.terms)

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

    def conjugate(self) -> "CurveFunction":
        """The image under the involution y -> -y: (u - v*y) / den."""
        return CurveFunction(self.u, -self.v, self.den)

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
    """Requests are rounded up so the pole conditions of many `rr_space`
    calls share one cached series."""
    return ((max(nterms, 1) + 63) // 64) * 64


@lru_cache(maxsize=64)
def _y_series_scaled(curve: HyperCurve, nterms: int):
    """(L, N) with integers N[i], y = +- t^{-(g+1)} * sum (N[i] / L) t^i at
    oo+-, even models; `_infinity_conditions` rounds nterms with
    `_series_length` and is the only caller.

    With k the lcm of the denominators of f, A = k^2 t^n f(1/t) is integral
    with A_0 = a^2, and sqrt(A) = a + sum_{j>0} S_j t^j / (2a)^(2j-1) for the
    integers S_j = A_j (2a)^(2j-2) - sum_{0<i<j} S_i S_{j-i}.  Over the
    common denominator k (2a)^(2m), m = nterms - 1, the gcd is divided out,
    so L is the least common denominator.
    """
    assert curve.parity == EVEN
    n, k = curve.f.degree, curve.f.den
    A = [c * k for c in reversed(curve.f.num)]
    a2 = 2 * isqrt(A[0])
    S = [0]
    for j in range(1, nterms):
        head = A[j] * a2 ** (2 * j - 2) if j <= n else 0
        S.append(head - sum(map(mul, S[1:j], S[j - 1 : 0 : -1])))
    m = nterms - 1
    N = [a2 ** (2 * m + 1) // 2] + [S[j] * a2 ** (2 * (m - j) + 1) for j in range(1, nterms)]
    g = gcd(k * a2 ** (2 * m), *N)
    return k * a2 ** (2 * m) // g, tuple(c // g for c in N)


def _infinity_orders(curve, u, v, norm) -> dict:
    """{place: ord of u + v*y} at infinity, read off its norm N = u^2 - v^2 f.

    N = (u + v*y)(u - v*y), and y -> -y carries the order of u + v*y at a
    place at infinity to that of u - v*y at the conjugate place; x has a
    pole of order 1 at oo+- and 2 at oo, so the orders of u + v*y at
    infinity add up to -deg N, all of it at the one place of an odd model.
    At oo+- of an even model y = +-a x^(g+1) (1 + O(1/x)), a = sqrt(lc f) >
    0, so u + v*y has the coefficient u_M +- a v_(M-g-1) at x^M, M =
    max(deg u, deg v + g + 1).  Both vanish only for u = v = 0: a place
    where it is nonzero has order -M, and the one where it cancels M -
    deg N.  N = 0 means u + v*y = 0, which only a fault upstream passes.
    """
    if norm.is_zero:
        raise VerificationFailed("u + v y vanished identically on the curve")
    if curve.parity == ODD:
        return {OO: -norm.degree}
    g = curve.genus
    M = max(len(u.num) - 1, len(v.num) + g if v.num else -1)
    lead_u, lead_v = u.coeff(M), rational_sqrt(curve.f.lc) * v.coeff(M - g - 1)
    return {OO_PLUS: -M if lead_u + lead_v else M - norm.degree,
            OO_MINUS: -M if lead_u - lead_v else M - norm.degree}


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


def _zeros_over(curve, p, mult, u, v):
    """(place, ord) of u + v*y over a factor p of its norm N, mult = v_p(N).

    With k = min(v_p(u), v_p(v)), N = p^(2k) N' and u' + v'y = (u + v*y) /
    p^k: mult = 2k makes u' + v'y a unit at every place over p, so
    `classify_place` says whether that is two split places or one inert
    place, each of order k, or one ramified place of order 2k.  Else
    mult > 2k: a ramified p (p | f) has one place, of order mult =
    2 v_p(v) + 1; any other p has u' + v'y vanish on the branch
    y = -u'/v' mod p only, which gets mult - k and the other k.
    """
    sides = [_valuation_at(p, a) if not a.is_zero else (None, a) for a in (u, v)]
    k = min(val for val, _ in sides if val is not None)
    if mult < 2 * k:
        raise VerificationFailed("norm valuation disagrees with the function")
    if mult == 2 * k:
        branch, q = classify_place(curve, p)
        if branch != SPLIT:
            return [(ClosedPoint.affine(p, branch), k if branch == INERT else mult)]
    elif (curve.f % p).is_zero:
        return [(ClosedPoint.affine(p, RAM), mult)]
    else:
        # the sides over p^k, reduced mod p; one of order above k is 0 there
        a, b = (cof % p if val == k else UniPoly.zero() for val, cof in sides)
        q = _branch_root(a, b, p, curve.f)
    place = ClosedPoint.affine(p, SPLIT, q)
    return [(place, mult - k), (place.conjugate(), k)]


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


def _numerator_divisor(curve: HyperCurve, u: UniPoly, v: UniPoly, known) -> Divisor:
    """div(u + v*y): `_zeros_over` at each factor of the norm N = u^2 - v^2 f,
    with the polynomials of `known` divided out of N first; `_infinity_orders`
    at infinity."""
    norm = u * u - v * v * curve.f
    pairs = [(ClosedPoint.infinite(pl), val) for pl, val in _infinity_orders(curve, u, v, norm).items()]
    pairs += [term for p, mult in _norm_factors(norm, known)
              for term in _zeros_over(curve, p, mult, u, v)]
    return Divisor.make(pairs)


@lru_cache(maxsize=256)
def _den_divisor(curve: HyperCurve, den: UniPoly) -> Divisor:
    """div(den(x)): `_numerator_divisor` at v = 0, whose norm den^2 the
    factors of den split off whole.  Cached per (curve, den), as
    `classify_place` is per (curve, p): every fiber of one map shares its
    den."""
    known = [p for p, _ in factor_over_Q(den).factors]
    return _numerator_divisor(curve, den, UniPoly.zero(), known)


def divisor_of_function(curve: HyperCurve, w: CurveFunction) -> Divisor:
    """The full principal divisor of w; total degree always 0.

    div(w) = div(u + v*y) - div(den), both halves read by
    `_numerator_divisor`; div(den) is cached per den, and its polynomials
    are divided out of the norm N of u + v*y, so only the cofactor is
    factored.  A factor p of den divides N wherever w has a pole of lower
    order than den at a place over p, since u + v*y vanishes there: along
    the ramified point of a fiber map of `specialize_fiber`, for every
    w - beta.
    """
    if w.is_zero:
        raise ZeroFunction("divisor of the zero function")
    poles = _den_divisor(curve, w.den)
    known = dict.fromkeys(pt.p for pt, _ in poles.affine_terms())
    out = _numerator_divisor(curve, w.u, w.v, known) - poles
    if out.degree != 0:
        raise VerificationFailed(f"principal divisor degree {out.degree} != 0")
    return out


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
    conditions, with deg U <= Bu and deg V <= Bv: the tight span, derived
    below, outside which every element of L(D) has zero coefficients.

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
    # The span: h has a pole of order dh at oo+ and oo- (2 dh at oo), so
    # U + V y = w h has poles of order <= n + dh at each place at infinity
    # (n + 2 dh at oo), and its conjugate U - V y the same at the conjugate
    # place: y -> -y swaps oo+ and oo- and fixes oo.  So 2U and 2V y have
    # poles of order <= M at every place at infinity, M = max(n+, n-) + dh
    # (n + 2 dh at oo).  There x and y have poles of order 1 and g + 1 (2
    # and 2g + 1 at oo), so deg U <= M and deg V <= M - g - 1 (M // 2 and
    # (M - 2g - 1) // 2 at oo), each clamped at -1.
    if curve.parity == EVEN:
        n_plus = D.infinite_coefficient(OO_PLUS)
        n_minus = D.infinite_coefficient(OO_MINUS)
        Bu = max(max(n_plus, n_minus) + dh, -1)
        Bv = max(Bu - curve.genus - 1, -1)
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
        w = CurveFunction.make(
            UniPoly.make([U[k] for k in range(Bu + 1)]), UniPoly.from_ints(scaled, den), h)
        _assert_in_space(curve, w, D)
        basis.append(w)
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
    i <= B and j <= Bv = max(B - g - 1, -1) in the span {x^i} + {x^j y},
    solved for U where they fix it.  Both x^B and x^Bv y have a pole of
    order at most B, so the orders run from t^-B; with Bv = -1 each W_e is
    empty.

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
    Bv = max(B - g - 1, -1)
    nterms = B + 2 + max(0, -bound_plus, -bound_minus)
    L, N = _y_series_scaled(curve, _series_length(nterms))
    fixed, rows = {}, []
    for e in range(-B, max(-bound_plus, -bound_minus)):
        start = max(0, -(e + g + 1))
        W = [0] * start + list(N[e + g + 1 + start : e + g + 2 + Bv])
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


def _assert_in_space(curve, w, D):
    """Exact recheck that w is in L(D): div(w) + D >= 0 at every place.  D's
    affine part is effective (`_affine_conditions`), so a w with constant
    den, which has no affine pole, is checked at infinity alone."""
    if w.den.degree:
        ok = (divisor_of_function(curve, w) + D).is_effective
    else:
        norm = w.u * w.u - w.v * w.v * curve.f
        ok = all(val + D.infinite_coefficient(pl) >= 0
                 for pl, val in _infinity_orders(curve, w.u, w.v, norm).items())
    if not ok:
        raise VerificationFailed("basis element violates pole bounds")


def decompose_effective(curve: HyperCurve, w: CurveFunction, base: Divisor) -> Divisor:
    """base + div(w), which must be effective (w in L(base))."""
    out = divisor_of_function(curve, w) + base
    if not out.is_effective:
        raise NotInLinearSeries("div(w) + base is not effective")
    return out


def point_field(curve: HyperCurve, pt: ClosedPoint) -> numfield.NumberField:
    """The residue field Q(P).

    A split or ramified place has Q(P) = Q[x]/(p), an inert one the field
    of the quadratic norm of `shifted_norm`, with no second proof that
    either is irreducible: p is a factor from `factor_over_Q` or a point of
    D that `rr_space` checked, and `classify_place` read that same norm as
    irreducible when it called the place inert.
    """
    if pt.kind == "inf":
        raise InfinitePlace("infinite places are rational points")
    if pt.branch in (SPLIT, RAM):
        return numfield.NumberField(pt.p)
    return numfield.NumberField(numfield.shifted_norm(pt.p, curve.f)[1])
