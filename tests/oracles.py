"""Test-only constructions: what the tests build on and no route of the
package runs.

* permutation groups: the cyclic, dihedral, symmetric and alternating
  groups, wreath products on blocks, the transitive groups of degree 2..7
  and the machine check of the stabilizer lemma;
* writers of the text formats, the inverses of the `formats` parsers;
* curve helpers: the canonical divisor, 1/w, x-polynomials as functions
  on the curve, and the order of u + v*y at oo+ or oo- read off the series
  of y, which `hyperell._infinity_orders` replaced;
* a search for points by their x-coordinate, with no Riemann-Roch space,
  divisor class or effective divisor, to check `classify_points` against;
* the Castelnuovo-Severi inequality, and `poly`, the shorthand for a
  polynomial from its coefficients;
* the certified multi-modular kernel that `linalg` ran before its
  fraction-free Gauss-Jordan core, and the extended Euclid inverse that
  `arith._poly_inverse_mod` ran before it solved on that core;
* the long division in `Fraction`s that `UniPoly.__divmod__` ran before
  it divided in integers over the common denominators.

`scripts/report_digest.py` reads `transitive_corpus` and `cycles_literal`
from here to build its `perm` runs.
"""

from __future__ import annotations

import itertools
from bisect import bisect
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

from primpoints import hyperell
from primpoints.arith import UniPoly, factor_over_Q, is_prime
from primpoints.errors import (
    BadInput,
    NotTransitive,
    VerificationFailed,
    ZeroFunction,
    ZeroPolynomial,
)
from primpoints.linalg import _int_rows
from primpoints.hyperell import ClosedPoint, CurveFunction, Divisor, HyperCurve
from primpoints.permact import (
    PermGroup,
    minimal_blocks,
    orbit_transversal,
    parse_cycles,
    schreier_generators,
)
from primpoints.pipeline import MWSpec


def poly(*coeffs) -> UniPoly:
    """Shorthand constructor, lowest degree first: poly(-1, 0, 1) is x^2 - 1."""
    return UniPoly.make(coeffs)


# ---------------------------------------------------------------------------
# Permutation groups


def cycles_literal(perm) -> str:
    """Inverse of parse_cycles, with fixed points omitted."""
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        out.append("(" + " ".join(str(p) for p in cyc) + ")")
    return "".join(out) or "()"


def is_primitive_action(G: PermGroup) -> bool:
    """True iff the transitive action admits no nontrivial block system."""
    return minimal_blocks(G) is None


def verify_stabilizer_lemma(G: PermGroup) -> bool:
    """Machine check: imprimitive iff the point stabilizer is non-maximal.

    Every subgroup above Stab(0) is a union of its cosets, and <Stab(0), g>
    depends only on the coset of g, that is on g(0); so one coset
    representative t_b per point b of the orbit of 0 stands for all of G,
    and the Schreier generators generate Stab(0).  H = <Stab(0), t_b> has
    |H| = |Stab(0)| * |orbit_H(0)|, so it is a proper intermediate subgroup
    exactly when 1 < |orbit_H(0)| < degree.  The outcome is compared with
    the independent block-system computation.
    """
    n = G.degree
    transversal = orbit_transversal(G.generators, 0, n)
    if len(transversal) != n:
        raise NotTransitive("the stabilizer lemma concerns transitive actions")
    stab_gens = schreier_generators(G.generators, transversal)
    exists_intermediate = any(
        1 < len(orbit_transversal(stab_gens + (t,), 0, n)) < n for t in transversal.values()
    )
    return exists_intermediate == (not is_primitive_action(G))


def cyclic_group(n: int) -> PermGroup:
    return PermGroup.make(n, [tuple((i + 1) % n for i in range(n))])


def dihedral_group(n: int) -> PermGroup:
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((n - i) % n for i in range(n))
    return PermGroup.make(n, [rot, ref])


def symmetric_group(n: int) -> PermGroup:
    if n == 1:
        return PermGroup.make(1, [])
    if n == 2:
        return PermGroup.make(2, [(1, 0)])
    rot = tuple((i + 1) % n for i in range(n))
    swap = (1, 0) + tuple(range(2, n))
    return PermGroup.make(n, [rot, swap])


def alternating_group(n: int) -> PermGroup:
    if n <= 2:
        return PermGroup.make(max(n, 1), [])
    three = (1, 2, 0) + tuple(range(3, n))
    if n % 2:
        rot = tuple((i + 1) % n for i in range(n))
    else:
        rot = (0,) + tuple(1 + ((i + 1) % (n - 1)) for i in range(n - 1))
    return PermGroup.make(n, [three, rot])


def wreath_on_blocks(inner_gens, block_count: int, block_size: int, top_gens):
    """Generators of (inner wr top) acting on block_count*block_size points."""
    n = block_count * block_size
    gens = []
    for g in inner_gens:
        for b in range(block_count):
            perm = list(range(n))
            for i in range(block_size):
                perm[b * block_size + i] = b * block_size + g[i]
            gens.append(tuple(perm))
    for t in top_gens:
        perm = list(range(n))
        for b in range(block_count):
            for i in range(block_size):
                perm[b * block_size + i] = t[b] * block_size + i
        gens.append(tuple(perm))
    return gens


# Transitive groups of degree 2..7, one per conjugacy class, after Butler
# and McKay, "The transitive groups of degree up to eleven", Comm. Algebra
# 11 (1983): (name, degree, order, generators in cycle notation).

TRANSITIVE_GROUPS = (
    ("S2", 2, 2, ("(0 1)",)),
    ("C3", 3, 3, ("(0 1 2)",)),
    ("S3", 3, 6, ("(0 1 2)", "(0 1)")),
    ("C4", 4, 4, ("(0 1 2 3)",)),
    ("V4", 4, 4, ("(0 1)(2 3)", "(0 2)(1 3)")),
    ("D4", 4, 8, ("(0 1 2 3)", "(1 3)")),
    ("A4", 4, 12, ("(0 1 2)", "(1 2 3)")),
    ("S4", 4, 24, ("(0 1 2 3)", "(0 1)")),
    ("C5", 5, 5, ("(0 1 2 3 4)",)),
    ("D5", 5, 10, ("(0 1 2 3 4)", "(1 4)(2 3)")),
    ("F20", 5, 20, ("(0 1 2 3 4)", "(1 2 4 3)")),
    ("A5", 5, 60, ("(0 1 2)", "(0 1 2 3 4)")),
    ("S5", 5, 120, ("(0 1 2 3 4)", "(0 1)")),
    ("C6", 6, 6, ("(0 1 2 3 4 5)",)),
    ("S3(regular)", 6, 6, ("(0 3 4)(1 5 2)", "(0 2)(1 4)(3 5)")),
    ("D6", 6, 12, ("(0 1 2 3 4 5)", "(1 5)(2 4)")),
    ("A4(6)", 6, 12, ("(0 2 3)(1 5 4)", "(0 1 2)(3 4 5)")),
    ("C3wrC2", 6, 18, ("(0 1 2)", "(3 4 5)", "(0 3)(1 4)(2 5)")),
    ("C2wrC3", 6, 24, ("(0 1)", "(2 3)", "(4 5)", "(0 2 4)(1 3 5)")),
    ("S4(6c)", 6, 24, ("(1 2 4 3)", "(0 4)(1 5)(2 3)")),
    ("S4(6d)", 6, 24, ("(0 2 5 3)(1 4)", "(1 3)(2 4)")),
    ("(S3xS3):2 half A", 6, 36,
     ("(3 4 5)", "(1 2)(4 5)", "(0 1)(4 5)", "(0 3)(1 4)(2 5)")),
    ("(S3xS3):2 half B", 6, 36,
     ("(3 4 5)", "(1 2)(4 5)", "(0 1)(4 5)", "(0 3)(1 4 2 5)")),
    ("C2wrS3", 6, 48, ("(0 1)", "(2 3)", "(4 5)", "(0 2 4)(1 3 5)", "(0 2)(1 3)")),
    ("PSL(2,5)", 6, 60, ("(0 1 2 3 4)", "(0 5)(1 4)")),
    ("S3wrC2", 6, 72, ("(0 1 2)", "(3 4 5)", "(0 1)", "(3 4)", "(0 3)(1 4)(2 5)")),
    ("PGL(2,5)", 6, 120, ("(0 1 2 3 4)", "(0 5)(1 4)", "(1 2 4 3)")),
    ("A6", 6, 360, ("(0 1 2)", "(1 2 3 4 5)")),
    ("S6", 6, 720, ("(0 1 2 3 4 5)", "(0 1)")),
    ("C7", 7, 7, ("(0 1 2 3 4 5 6)",)),
    ("D7", 7, 14, ("(0 1 2 3 4 5 6)", "(1 6)(2 5)(3 4)")),
    ("F21", 7, 21, ("(0 1 2 3 4 5 6)", "(1 2 4)(3 6 5)")),
    ("F42", 7, 42, ("(0 1 2 3 4 5 6)", "(1 3 2 6 4 5)")),
    ("GL(3,2)", 7, 168, ("(1 2)(5 6)", "(0 1 3)(2 5 4)")),
    ("A7", 7, 2520, ("(0 1 2)", "(0 1 2 3 4 5 6)")),
    ("S7", 7, 5040, ("(0 1 2 3 4 5 6)", "(0 1)")),
)


def transitive_corpus(max_degree: int = 7):
    """(name, group, order) for every entry of degree at most max_degree.

    Complete up to conjugacy for every degree covered; the tests check
    each entry's transitivity and order, and completeness up to degree 5
    by exhaustion.
    """
    return [
        (name, PermGroup.make(degree, [parse_cycles(g, degree) for g in gens]), order)
        for name, degree, order, gens in TRANSITIVE_GROUPS
        if degree <= max_degree
    ]


# ---------------------------------------------------------------------------
# Writers of the text formats


def poly_coeff_text(p: UniPoly) -> str:
    if p.is_zero:
        return "0"
    return " ".join(str(c) for c in p.coeffs)


def curve_file_text(f: UniPoly, label=None) -> str:
    lines = [f"f: {poly_coeff_text(f)}"]
    if label:
        lines.append(f"label: {label}")
    return "\n".join(lines) + "\n"


def mw_file_text(mw: MWSpec) -> str:
    lines = []
    for order, gen in mw.cyclic_factors:
        lines.append(f"order {order}")
        lines.append(f"gen {gen.literal()}")
    lines.append(f"base {mw.base.literal()}")
    return "\n".join(lines) + "\n"


def mw_order(mw: MWSpec) -> int:
    """The order of the group, the product of its cyclic factors' orders."""
    total = 1
    for order, _ in mw.cyclic_factors:
        total *= order
    return total


# ---------------------------------------------------------------------------
# Curves and covers


def canonical_divisor(curve: HyperCurve) -> Divisor:
    """Divisor of dx/y: degree 2g - 2, shared equally by the places at
    infinity."""
    places = curve.infinite_places
    mult = (2 * curve.genus - 2) // len(places)
    return Divisor.make([(ClosedPoint.infinite(place), mult) for place in places])


def from_x_poly(p: UniPoly) -> CurveFunction:
    """p(x) as a function on the curve."""
    return CurveFunction.make(p, UniPoly.zero())


def invert(w: CurveFunction, curve: HyperCurve) -> CurveFunction:
    """1 / w, using the conjugate: den*(u - v*y) / (u^2 - v^2 f)."""
    if w.is_zero:
        raise ZeroFunction("cannot invert the zero function")
    norm = w.u * w.u - w.v * w.v * curve.f
    return CurveFunction.make(w.den * w.u, -(w.den * w.v), norm)


def even_infinity_valuation(curve: HyperCurve, u: UniPoly, v: UniPoly, place: str) -> int:
    """ord at oo+ or oo- of u(x) + v(x) y on an even model, from the series of
    y: the first nonzero coefficient in a window of t = 1/x.

    u and v are scaled once to integers by their common denominator, with
    the place's sign folded into v; a positive scale leaves the first
    nonzero coefficient where it was.
    """
    if u.is_zero and v.is_zero:
        raise ZeroFunction("valuation of the zero function")
    g = curve.genus
    s = lcm(*(c.denominator for c in u.coeffs + v.coeffs))
    ui = [c.numerator * (s // c.denominator) for c in u.coeffs]
    sign = s if place == hyperell.OO_PLUS else -s
    vi = [c.numerator * (sign // c.denominator) for c in v.coeffs]
    dv = len(vi) - 1
    M = max(len(ui) - 1, dv + g + 1 if vi else -1)
    nterms = 2 * M + 2 + (dv + g + 2 if vi else 0)
    # L times the coefficient of t^e, so the series stays in integers
    L, N = hyperell._y_series_scaled(curve, hyperell._series_length(nterms)) if vi else (1, ())
    for e in range(-M, M + 1):
        coeff = L * ui[-e] if -len(ui) < e <= 0 else 0
        lo = max(0, -(e + g + 1))
        coeff += sum(map(mul, vi[lo:], N[e + g + 1 + lo : e + g + 2 + dv]))
        if coeff:
            return e
    raise AssertionError("valuation window exhausted; function unexpectedly zero")


SIEVE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def x_coordinate_search(curve: HyperCurve, d: int, B: int):
    """The points over split and ramified places of degree d whose
    x-coordinate polynomial is monic integral with coefficients in [-B, B],
    two for a split place and one for a ramified one, in the order of the
    enumeration.

    The model must be integral.  A point over an irreducible a makes f a
    square q^2 mod a over Q.  A simple root r of a mod an odd prime p lifts
    by Hensel's lemma to a root R of a in Z_p, so f(R) = q(R)^2 is a square
    in Q_p, and f(r) = f(R) mod p is no non-square mod p.  So a is rejected
    when some simple root of a mod p makes f a non-square, whether or not a
    is squarefree mod p.  Survivors that `factor_over_Q` proves
    irreducible go to `classify_place`.
    """
    f = [int(c) for c in curve.f.coeffs]
    if list(curve.f.coeffs) != f:
        raise BadInput("the sieve needs an integral model")
    sieve = []  # (p, the powers of each r mod p with f(r) a non-square)
    for p in SIEVE_PRIMES:
        powers = [[pow(r, i, p) for i in range(max(d + 1, len(f)))] for r in range(p)]
        bad = [pw for pw in powers if pow(sum(map(mul, f, pw)) % p, (p - 1) // 2, p) == p - 1]
        sieve.append((p, bad))
    points = []
    for low in itertools.product(range(-B, B + 1), repeat=d):
        coeffs = (*low, 1)
        if any(_has_simple_root_at(coeffs, p, bad) for p, bad in sieve):
            continue
        a = UniPoly.make(coeffs)
        if factor_over_Q(a).factors != ((a, 1),):
            continue
        branch, q = hyperell.classify_place(curve, a)
        if branch != hyperell.INERT:
            P = ClosedPoint.affine(a, branch, q)
            points += [P, P.conjugate()] if branch == hyperell.SPLIT else [P]
    return points


def _has_simple_root_at(coeffs, p: int, roots) -> bool:
    """True iff some r, given by its powers r^0, r^1, ..., is a simple root
    of the polynomial with these coefficients mod p."""
    for pw in roots:
        if sum(map(mul, coeffs, pw)) % p == 0 and sum(
            i * c * pw[i - 1] for i, c in enumerate(coeffs) if i
        ) % p:
            return True
    return False


def cs_bound(gX: int, gY: int, gZ: int, m: int, n: int) -> bool:
    """True iff gX > m*gY + n*gZ + (m-1)(n-1), forcing a common factorization
    of any pair of independent covers of those degrees."""
    if m < 1 or n < 1 or min(gX, gY, gZ) < 0:
        raise BadInput("cover degrees must be positive and genera non-negative")
    return gX > m * gY + n * gZ + (m - 1) * (n - 1)


# ---------------------------------------------------------------------------
# The certified multi-modular kernel
#
# Each row is scaled to a primitive integer row, the matrix is brought to
# row-echelon form modulo primes below 2^31, each free column's kernel
# vector is read off by back substitution, and the basis is rebuilt from the
# residues by Chinese remaindering and rational reconstruction.  Nothing is
# returned unproved:
#
# * full rank mod p proves the kernel is {0}, since rank mod p <= rank over Q;
# * k = ncols - rank mod p vectors that the exact integer product M v sends
#   to 0, each with 1 at its own free column, 0 at the other free columns
#   and nothing after its free column, prove the kernel has dimension k and
#   that each free column depends on the columns before it.  So the free
#   columns are those of the reduced row-echelon form over Q, and the basis
#   is exactly the one Gauss-Jordan elimination over Q would return.
#
# A prime whose rank profile is beaten by another prime's divides a nonzero
# minor, so it is dropped.  Those bad primes multiply to at most H, the
# Hadamard bound of the rows, and reconstruction succeeds once the good
# primes multiply past 2 H^2.  So when the primes tried multiply past 2 H^3
# and no candidate has passed its check, the modular results are wrong:
# VerificationFailed is raised instead of looping.

# The largest primes below 2^31, in decreasing order.  One suffices unless
# the kernel has entries beyond about 2^15 or the prime divides a minor.
PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579,
    2147483563, 2147483549, 2147483543, 2147483497,
)
P0 = PRIMES[0]


def primes():
    """Primes below 2^31 in decreasing order: the table, then found on demand."""
    yield from PRIMES
    n = PRIMES[-1]
    while True:
        n -= 2
        if is_prime(n):
            yield n


def echelon_mod(rows, ncols, p):
    """(pivot columns, pivot rows) of a row-echelon form mod p: each pivot
    scaled to 1, zeros below it."""
    work = [[v % p for v in row] for row in rows]
    nrows = len(work)
    pivots = []
    for col in range(ncols):
        rk = len(pivots)
        pivot = next((i for i in range(rk, nrows) if work[i][col]), None)
        if pivot is None:
            continue
        prow = work[pivot]
        work[pivot] = work[rk]
        inv = pow(prow[col], -1, p)
        work[rk] = prow = [v * inv % p for v in prow]
        for i in range(rk + 1, nrows):
            f = work[i][col]
            if f:
                work[i] = [(a - f * b) % p for a, b in zip(work[i], prow)]
        pivots.append(col)
        if rk + 1 == nrows:
            break
    return pivots, work[:len(pivots)]


def back_substitute(pivots, echelon, ncols, p):
    """Per free column fc, the residues at the pivot columns of the kernel
    vector with 1 at fc, 0 at the other free columns: x_pc = -sum over
    c > pc of row[c] * x_c, walking the pivot rows bottom-up, and x_pc = 0
    for pc > fc.  These are the entries -row[fc] of the reduced form."""
    taken = set(pivots)
    out = []
    for fc in range(ncols):
        if fc in taken:
            continue
        x = [0] * (fc + 1)
        x[fc] = 1
        column = [0] * len(pivots)
        for r in range(bisect(pivots, fc) - 1, -1, -1):
            pc = pivots[r]
            x[pc] = column[r] = -sum(map(mul, echelon[r][pc + 1 : fc + 1], x[pc + 1 :])) % p
        out.append(column)
    return out


def _beats(pivots, other):
    """True when pivot list `pivots` proves the prime behind `other` bad."""
    return len(pivots) > len(other) or (len(pivots) == len(other) and pivots < other)


def _ratrec(u, m, bound):
    """(n, d) with n = d * u mod m, |n| <= bound, 0 < d <= bound; else None."""
    r0, r1, t0, t1 = m, u % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _certified_basis(rows, ncols, pivots, residues, modulus):
    """The kernel basis the residues stand for, if it passes M v = 0 exactly."""
    bound = isqrt(modulus // 2)
    taken = set(pivots)
    free = [c for c in range(ncols) if c not in taken]
    basis = []
    for fc, column in zip(free, residues):
        entries = {fc: (1, 1)}
        for pc, u in zip(pivots, column):
            if u:
                frac = _ratrec(u, modulus, bound)
                if frac is None:
                    return None
                entries[pc] = frac
        den = lcm(*(d for _, d in entries.values()))
        support = [(j, n * (den // d)) for j, (n, d) in entries.items()]
        if any(sum(row[j] * w for j, w in support) for row in rows):
            return None
        vec = [Fraction(0)] * ncols
        for j, (n, d) in entries.items():
            vec[j] = Fraction(n, d)
        basis.append(vec)
    return basis


def _hadamard(rows):
    """An integer bound on the absolute value of every minor of rows."""
    out = 1
    for row in rows:
        out *= isqrt(sum(v * v for v in row)) + 1
    return out


def modular_kernel(rows, ncols):
    """Certified kernel basis of rational rows, as Fraction vectors, with the
    contract of `linalg.kernel_basis`."""
    rows = _int_rows(rows)
    if not rows:
        return [[Fraction(int(i == k)) for i in range(ncols)] for k in range(ncols)]
    pivots = limit = None
    tried = 1
    for p in primes():
        pivots_p, echelon = echelon_mod(rows, ncols, p)
        if len(pivots_p) == ncols:
            return []
        tried *= p
        residues_p = back_substitute(pivots_p, echelon, ncols, p)
        if pivots is None or _beats(pivots_p, pivots):
            pivots, residues, modulus = pivots_p, residues_p, p
        elif pivots_p == pivots:
            step = pow(modulus, -1, p)
            residues = [
                [a + modulus * ((b - a) * step % p) for a, b in zip(col, col_p)]
                for col, col_p in zip(residues, residues_p)
            ]
            modulus *= p
        if pivots_p == pivots:  # else p divides a minor the kept primes do not
            basis = _certified_basis(rows, ncols, pivots, residues, modulus)
            if basis is not None:
                return basis
        if limit is None:
            limit = 2 * _hadamard(rows) ** 3
        if tried > limit:
            raise VerificationFailed(
                "modular kernel failed its exact check beyond the Hadamard bound"
            )


# ---------------------------------------------------------------------------
# The extended Euclid inverse


def euclid_inverse_mod(a: UniPoly, modulus: UniPoly) -> UniPoly:
    """Inverse of a modulo a polynomial it is coprime to, by extended Euclid
    over Q."""
    r0, r1 = modulus, a % modulus
    t0, t1 = UniPoly.zero(), UniPoly.one()
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, t0 - q * t1
    if r0.degree != 0:
        raise BadInput("element not invertible modulo the given polynomial")
    return (t0.scale(1 / r0.lc)) % modulus


# ---------------------------------------------------------------------------
# Long division in Fractions


def fraction_divmod(a: UniPoly, divisor: UniPoly):
    """(quotient, remainder) of a by divisor, one Fraction operation per
    term of the long division."""
    if divisor.is_zero:
        raise ZeroPolynomial("polynomial division by zero")
    rem = list(a.coeffs)
    dd = divisor.degree
    dl = divisor.lc
    if len(rem) - 1 < dd:
        return UniPoly.zero(), a
    quot = [Fraction(0)] * (len(rem) - dd)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if not c:
            continue
        q = c / dl
        quot[i - dd] = q
        for j, dc in enumerate(divisor.coeffs):
            rem[i - dd + j] -= q * dc
    return UniPoly.make(quot), UniPoly.make(rem)
