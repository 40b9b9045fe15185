"""Top-level procedures: finiteness classification and point enumeration.

The finiteness classifier applies genus inequalities for a curve carrying
a low-degree cover (gonal map to the line, or a relative cover of positive
genus) together with arithmetic side conditions (finite Mordell-Weil
group, simple Jacobian, coprime or prime degree) and returns a structured
verdict per degree.

The point pipeline enumerates one divisor-class representative per element
of a user-supplied finite Mordell-Weil group, computes the dimension of
each complete linear series, and classifies the unique effective divisor
of every rigid (dimension 1) class as reducible, imprimitive, or
primitive.  The hyperelliptic involution iota: y -> -y is defined over Q,
so the class of iota*D is read off the class of D: L(iota*D) = iota*L(D),
div(iota*w) = iota*div(w) and Q(iota*P) = Q(P).  Each pair of
representatives D and iota*D, matched by exact divisor identity, is
computed once.  Classes of positive dimension (ell >= 2) are skipped with a
recorded tag.  For 3 <= d <= g that loses no primitive point: every such
series is r*g^1_2 + F (Arbarello, Cornalba, Griffiths and Harris, ch. I),
so a member is reducible (F != 0) or a pullback under x, whose field
contains Q(x(P)) of degree r >= 2.  Outside that range a skipped class can
hold primitive points: at d = 2 the g^1_2 class holds infinitely many
quadratic points, and, beyond g, X0(71) has primitive members at d = 8,
9, 10 and 12.

Mordell-Weil data is always an input, never computed here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, isqrt

from . import hyperell
from .arith import UniPoly, is_prime, is_squarefree
from .errors import (
    BadInput,
    ConstantFunction,
    DegreeTooSmall,
    NotPrimitive,
    NotSquarefree,
    UnsupportedDivisorShape,
    VerificationFailed,
)
from .hyperell import (
    ClosedPoint,
    CurveFunction,
    Divisor,
    HyperCurve,
    curve_new,
    decompose_effective,
    divisor_of_function,
    point_field,
    rr_space,
)
from .numfield import field_report, is_primitive_field

# ---------------------------------------------------------------------------
# Finiteness classification


@dataclass(frozen=True)
class Cover:
    """A degree-m map to the line (gonal) or to a curve of genus gprime."""

    kind: str  # 'gonal' | 'relative'
    m: int
    gprime: int = None

    def __post_init__(self):
        if self.kind not in ("gonal", "relative"):
            raise BadInput(f"cover_kind must be gonal|relative, got {self.kind!r}")
        if self.m < 2:
            raise BadInput("m must be >= 2")
        if self.kind == "relative" and (self.gprime or 0) < 1:
            raise BadInput("relative cover needs gprime >= 1")


@dataclass(frozen=True)
class FinitenessInput:
    g: int
    cover: Cover
    d: int
    jq_finite: bool
    j_simple: bool

    def __post_init__(self):
        if self.d < 2:
            raise BadInput("point degree d must be at least 2")


YES, PRIMITIVE_ONLY, UNKNOWN = "Yes", "PrimitiveOnly", "Unknown"


@dataclass(frozen=True)
class FinitenessVerdict:
    degree_d_finite: str
    reason: tuple  # structured trace of the hypotheses that fired


def classify_finiteness(inp: FinitenessInput) -> FinitenessVerdict:
    """Verdict for one (curve, degree) pair from the cover inequalities.

    The genus bound is Castelnuovo-Severi, m*gY + n*gZ + (m-1)(n-1), for
    the degree-m cover to a curve of genus gY (base genus 0 for a gonal
    cover) and the degree-d map to the line (n = d, gZ = 0).
    """
    m, d, g = inp.cover.m, inp.d, inp.g
    gonal = inp.cover.kind == "gonal"
    if gonal and d == m:
        return FinitenessVerdict(UNKNOWN, ("degree equals gonality",))
    bound = m * (0 if gonal else inp.cover.gprime) + (m - 1) * (d - 1)
    if g <= bound:
        return FinitenessVerdict(UNKNOWN, (f"genus bound fails: {g} <= {bound}",))
    trace = [f"{'gonality' if gonal else 'relative cover'} bound holds: {g} > {bound}"]
    if inp.jq_finite:
        trace.append("mordell-weil group finite")
    elif gonal and d <= g - 1 and inp.j_simple:
        trace.append(f"jacobian simple and d <= g-1 ({d} <= {g - 1})")
    else:
        missing = "no arithmetic hypothesis applies" if gonal else "needs finite mordell-weil group"
        return FinitenessVerdict(UNKNOWN, (*trace, missing))
    if gcd(d, m) == 1:
        trace.append(f"gcd({d},{m}) = 1")
        return FinitenessVerdict(YES, tuple(trace))
    if is_prime(d):
        trace.append(f"degree {d} prime")
        return FinitenessVerdict(YES, tuple(trace))
    trace.append(f"gcd({d},{m}) > 1 and {d} composite")
    return FinitenessVerdict(PRIMITIVE_ONLY, tuple(trace))


@dataclass(frozen=True)
class CoverRow:
    """One row of the cover-table driver (CSV interface)."""

    label: str
    g: int
    cover: Cover
    jq_finite: bool
    j_simple: bool
    d_range: tuple  # inclusive (lo, hi)

    def __post_init__(self):
        if self.g < 1 or self.d_range[0] < 2 or self.d_range[1] < self.d_range[0]:
            raise BadInput("bad genus or degree range")


def classify_row(row: CoverRow):
    """(finite degrees, primitive-only degrees) over the row's d range."""
    finite, primitive_only = [], []
    for d in range(row.d_range[0], row.d_range[1] + 1):
        verdict = classify_finiteness(
            FinitenessInput(row.g, row.cover, d, row.jq_finite, row.j_simple)
        )
        if verdict.degree_d_finite == YES:
            finite.append(d)
        elif verdict.degree_d_finite == PRIMITIVE_ONLY:
            primitive_only.append(d)
    return finite, primitive_only


# ---------------------------------------------------------------------------
# Mordell-Weil input and class enumeration


@dataclass(frozen=True)
class MWSpec:
    """Finite Mordell-Weil description: cyclic factors plus a base divisor.

    Each factor is (order, generator) with the generator a degree-0 divisor
    supported at the infinite places; the base divisor, effective of degree
    at least 1 at infinity, shifts classes into degree d.  Every shape is
    checked here, so an MWSpec is valid once it exists.
    """

    cyclic_factors: tuple  # of (order, Divisor)
    base: Divisor

    def __post_init__(self):
        for order, gen in self.cyclic_factors:
            if order < 1:
                raise BadInput(f"cyclic factor order must be at least 1, got {order}")
            if gen.degree != 0:
                raise UnsupportedDivisorShape("generators must have degree 0")
        for _, gen in self.cyclic_factors:
            if not gen.is_infinity_supported():
                raise UnsupportedDivisorShape("generators must live at infinity")
        if self.base.degree <= 0 or not self.base.is_effective:
            raise UnsupportedDivisorShape("base divisor must be effective of degree >= 1")
        if not self.base.is_infinity_supported():
            raise UnsupportedDivisorShape("base divisor must live at infinity")


def _coefficient_range(order: int):
    """Symmetric range centered at 0 covering Z/order exactly once."""
    half = order // 2
    return range(-((order - 1) // 2), half + 1)


def _shift_divisor(curve: HyperCurve, mw: MWSpec, d: int) -> Divisor:
    """Degree-d effective shift divisor at infinity.

    Uses floor(d / deg base) copies of the base plus a remainder at the
    first place at infinity (oo+, or oo for odd models), so odd degrees work
    on even models too.
    """
    q, r = divmod(d, mw.base.degree)
    shift = mw.base.scale(q)
    if r:
        shift = shift + Divisor.make([(ClosedPoint.infinite(curve.infinite_places[0]), r)])
    assert shift.degree == d
    return shift


@dataclass(frozen=True)
class ClassEntry:
    label: tuple  # coefficient vector, one per cyclic factor
    divisor: Divisor
    ell: int
    basis: tuple  # basis of L(divisor)
    source: int = None  # index of the entry it is read off; None if computed


def enumerate_classes(curve: HyperCurve, mw: MWSpec, d: int):
    """One representative divisor per group element, with its dimension.

    Classes are ordered lexicographically by coefficient vector over
    symmetric ranges centered at 0.  L(D) is computed once per distinct
    divisor up to the involution y -> -y: an entry whose divisor equals an
    earlier one, or its conjugate, records that entry as its `source` and
    takes its basis, conjugated in the second case, as L(iota*D) =
    iota*L(D).  Pairs are matched by exact divisor identity, not by group
    arithmetic, so no relation in the group is assumed.
    """
    if d < 2:
        raise UnsupportedDivisorShape("degree must be at least 2")
    shift = _shift_divisor(curve, mw, d)
    ranges = [_coefficient_range(order) for order, _ in mw.cyclic_factors]
    entries, computed = [], {}  # computed: divisor -> index of its entry
    for label in itertools.product(*ranges):
        D = shift
        for coeff, (_, gen) in zip(label, mw.cyclic_factors):
            if coeff:
                D = D + gen.scale(coeff)
        src = computed.get(D, computed.get(D.conjugate()))
        if src is None:
            space = rr_space(curve, D)
            computed[D] = len(entries)
            entries.append(ClassEntry(label, D, space.dim, space.basis))
        else:
            twin = entries[src]
            basis = twin.basis if twin.divisor == D else tuple(w.conjugate() for w in twin.basis)
            entries.append(ClassEntry(label, D, twin.ell, basis, src))
    return entries


# ---------------------------------------------------------------------------
# Orbit classification


SKIPPED, REDUCIBLE, IMPRIMITIVE, PRIMITIVE, NO_EFFECTIVE = (
    "SkippedPositiveDim",
    "Reducible",
    "Imprimitive",
    "Primitive",
    "NoEffective",
)


@dataclass(frozen=True)
class OrbitVerdict:
    label: tuple
    ell: int
    outcome: str
    subfield_degree: int = None  # for Imprimitive
    witness_divisor: Divisor = None
    witness_minpoly: UniPoly = None


def _class_verdict(curve: HyperCurve, d: int, entry: ClassEntry, reports: dict) -> OrbitVerdict:
    """The finished verdict of one computed class: skipped (ell >= 2), no
    effective member (ell = 0), or, for a rigid class, reducible unless its
    effective divisor is one affine point P of multiplicity 1 (of degree d,
    as div(w) has degree 0), and then primitive or imprimitive as Q(P) is.
    `reports` maps each point field to its `field_report`, so that each
    field is decided once."""
    if entry.ell >= 2:
        return OrbitVerdict(entry.label, entry.ell, SKIPPED)
    if entry.ell == 0:
        return OrbitVerdict(entry.label, 0, NO_EFFECTIVE)
    eff = decompose_effective(curve, entry.basis[0], entry.divisor)
    assert eff.degree == d
    terms = eff.terms
    if len(terms) != 1 or terms[0][1] != 1 or terms[0][0].kind != "affine":
        return OrbitVerdict(entry.label, 1, REDUCIBLE, witness_divisor=eff)
    K = point_field(curve, terms[0][0])
    assert K.degree == d
    if K not in reports:
        reports[K] = field_report(K)
    proper = reports[K].proper_subfield_degrees
    outcome = PRIMITIVE if reports[K].is_primitive else IMPRIMITIVE
    return OrbitVerdict(entry.label, 1, outcome, proper[0] if proper else None, eff, K.min_poly)


@dataclass(frozen=True)
class ClassificationReport:
    degree: int
    group_order: int
    verdicts: tuple

    def summary(self) -> dict:
        out = {
            SKIPPED: 0,
            REDUCIBLE: 0,
            IMPRIMITIVE: 0,
            PRIMITIVE: 0,
            NO_EFFECTIVE: 0,
        }
        for v in self.verdicts:
            out[v.outcome] += 1
        return out


def classify_points(curve: HyperCurve, mw: MWSpec, d: int):
    """Classify every divisor class of degree d over the finite group.

    Each representative D and its conjugate iota*D are classified once,
    paired by exact divisor identity (`enumerate_classes`): the partner
    takes its source's verdict under its own label, with the witness
    conjugated when its divisor is the conjugate, as Q(iota*P) = Q(P).
    Every other class is decided by `_class_verdict`, through one field
    report per distinct point field of the run.  Verdicts come in the
    label order of `enumerate_classes`.
    """
    entries = enumerate_classes(curve, mw, d)
    verdicts, reports = [], {}  # reports: point field -> its field_report
    for entry in entries:
        if entry.source is None:
            v = _class_verdict(curve, d, entry, reports)
        else:
            v = verdicts[entry.source]
            witness = v.witness_divisor
            if witness is not None and entry.divisor != entries[entry.source].divisor:
                witness = witness.conjugate()
            v = replace(v, label=entry.label, witness_divisor=witness)
        verdicts.append(v)
    return ClassificationReport(d, len(entries), tuple(verdicts))


# ---------------------------------------------------------------------------
# Curves with a prescribed primitive point (genus d-1 construction)


def construct_primitive_curve(m: UniPoly, alpha_seed=0):
    """Build y^2 = h(x) of genus d-1 with a ramified degree-d point.

    Given a primitive degree-d field Q[t]/(m), sets phi = theta - a with
    a = alpha_seed and returns the curve with model h(X) = minpoly(phi^2)(X^2)
    = (-1)^d p(X) p(-X), p = m(X + a) the minimal polynomial of phi, together
    with the ramified witness point over p.  Any rational a works: phi_i^2 =
    phi_j^2 for i != j would mean theta_i + theta_j = 2a, and the pairing
    i -> j would be a Galois-stable system of blocks of size 2, which a
    primitive field of degree d >= 3 does not have.  So h is squarefree.
    """
    d = m.degree
    if d is None or d < 3:
        raise NotPrimitive("need an irreducible polynomial of degree >= 3")
    if not is_primitive_field(m):
        raise NotPrimitive("defining polynomial generates an imprimitive field")
    alpha = Fraction(alpha_seed)
    p_phi = m.monic().shift_x(alpha)  # minimal polynomial of phi = theta - alpha
    h = (p_phi * p_phi.compose(UniPoly.make([0, -1]))).scale((-1) ** d)
    curve = curve_new(h)
    witness = ClosedPoint.affine(p_phi, hyperell.RAM)
    return curve, witness, alpha


# ---------------------------------------------------------------------------
# Fiber specialization


IRRED_PRIMITIVE, IRRED_IMPRIMITIVE, FIBER_REDUCIBLE, DEGENERATE = (
    "irreducible-primitive",
    "irreducible-imprimitive",
    "reducible",
    "degenerate",
)


def specialize_fiber(curve: HyperCurve, w: CurveFunction, beta) -> str:
    """Classify the fiber of the map w over the rational value beta.

    The fiber divisor is the zero divisor of w - beta: div(w - beta) plus
    its own negative part, since w - beta has exactly the poles of w.  A
    fiber with a repeated place (branch value) reports 'degenerate'.
    """
    if w.is_constant or w.is_zero:
        raise ConstantFunction("fiber of a constant map")
    div = divisor_of_function(curve, w - CurveFunction.constant(Fraction(beta)))
    fiber = div + div.negative_part()
    if any(mult >= 2 for _, mult in fiber.terms):
        return DEGENERATE
    terms = fiber.terms
    if len(terms) == 1 and terms[0][0].kind == "affine":
        K = point_field(curve, terms[0][0])
        return IRRED_PRIMITIVE if is_primitive_field(K) else IRRED_IMPRIMITIVE
    return FIBER_REDUCIBLE


def fiber_sample_report(curve: HyperCurve, w: CurveFunction, betas):
    """Outcome of specialize_fiber over a list of sample values."""
    outcomes = []
    for beta in betas:
        outcomes.append((Fraction(beta), specialize_fiber(curve, w, beta)))
    total = len(outcomes)
    primitive = sum(1 for _, o in outcomes if o == IRRED_PRIMITIVE)
    return {
        "outcomes": outcomes,
        "total": total,
        "primitive": primitive,
        "primitive_fraction": Fraction(primitive, total) if total else Fraction(0),
    }


# ---------------------------------------------------------------------------
# Quadratic twist census


@dataclass(frozen=True)
class TwistHit:
    r: int
    x: Fraction
    y: Fraction


@dataclass(frozen=True)
class TwistCensusResult:
    M: int
    height_bound: int
    hits: tuple  # of TwistHit, ordered by (|r|, r)


def twist_census(f: UniPoly, M: int, height_bound: int) -> TwistCensusResult:
    """Search r*y^2 = f(x) for non-Weierstrass rational points.

    One pass over x = p/q with |p|, |q| bounded by the height bound, q
    first.  With f(x) = a/b != 0, y = isqrt(r*a*b) / (|r|*b) solves
    r*y^2 = f(x) iff r*a*b is a nonzero square.  Exactly one squarefree r
    makes it one, the squarefree part of a*b with its sign: two such r
    have a square product.  If |r| <= M, its primes are at most M, so x is
    a hit when dividing those primes out of |a*b| (odd powers into r)
    leaves a square, |r| <= M, and no earlier x found r.  Memory is O(M).
    Every witness y != 0 is verified exactly; hits are ordered by (|r|, r).
    Points at infinity on odd models are Weierstrass and never found by
    the affine scan.
    """
    if M < 1 or height_bound < 1:
        raise BadInput("twist bound and height bound must be at least 1")
    if f.is_zero or f.degree < 6:
        raise DegreeTooSmall("twist census needs deg f >= 6")
    if not is_squarefree(f):
        raise NotSquarefree("twist census needs a squarefree model")
    primes = [ell for ell in range(2, M + 1) if is_prime(ell)]
    hits = {}
    for q in range(1, height_bound + 1):
        for p in range(-height_bound, height_bound + 1):
            if gcd(p, q) != 1:
                continue
            x = Fraction(p, q)
            v = f(x)
            ab = v.numerator * v.denominator
            if ab == 0:
                continue
            r, rest = (1 if ab > 0 else -1), abs(ab)
            for ell in primes:
                while rest % (ell * ell) == 0:
                    rest //= ell * ell
                if rest % ell == 0:
                    r, rest = r * ell, rest // ell
            if isqrt(rest) ** 2 != rest or abs(r) > M or r in hits:
                continue
            hit = TwistHit(r, x, Fraction(isqrt(r * ab), abs(r) * v.denominator))
            if r * hit.y * hit.y != f(hit.x):
                raise VerificationFailed(f"twist witness fails r*y^2 = f(x) at r={r}, x={x}")
            hits[r] = hit
    ordered = sorted(hits.values(), key=lambda hit: (abs(hit.r), hit.r))
    return TwistCensusResult(M, height_bound, tuple(ordered))
