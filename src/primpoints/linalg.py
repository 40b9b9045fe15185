"""Exact linear algebra over Q: certified modular kernels, Bareiss determinants.

Matrices are lists of rows of rationals (Fractions or ints).  Kernels are
the cost centre of divisor-class enumeration (every l(D) is one), so they
never run Fraction elimination.  Each row is scaled to a primitive integer
row, the matrix is brought to row-echelon form modulo primes below 2^31,
each free column's kernel vector is read off by back substitution, and the
basis is rebuilt from the residues by Chinese remaindering and rational
reconstruction.  Nothing leaves this module unproved:

* full rank mod p proves the kernel is {0}, since rank mod p <= rank over Q;
* k = ncols - rank mod p vectors that the exact integer product M v sends
  to 0, each with 1 at its own free column, 0 at the other free columns
  and nothing after its free column, prove the kernel has dimension k and
  that each free column depends on the columns before it.  So the free
  columns are those of the reduced row-echelon form over Q, and the basis
  is exactly the one Gauss-Jordan elimination over Q would return.

A prime whose rank profile is beaten by another prime's divides a nonzero
minor, so it is dropped.  Those bad primes multiply to at most H, the
Hadamard bound of the rows, and reconstruction succeeds once the good
primes multiply past 2 H^2.  So when the primes tried multiply past 2 H^3
and no candidate has passed its check, the modular results are wrong:
VerificationFailed is raised instead of looping.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from functools import reduce
from math import gcd, isqrt, lcm
from operator import mul

from .arith import is_prime
from .errors import VerificationFailed

# The largest primes below 2^31, in decreasing order.  One suffices unless
# the kernel has entries beyond about 2^15 or the prime divides a minor.
_PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579,
    2147483563, 2147483549, 2147483543, 2147483497,
)


def _primes():
    """Primes below 2^31 in decreasing order: the table, then found on demand."""
    yield from _PRIMES
    n = _PRIMES[-1]
    while True:
        n -= 2
        if is_prime(n):
            yield n


# Row gcds and lcms use reduce rather than gcd(*row): one argument tuple per
# row raised the peak RSS of a Riemann-Roch sweep by about 1.5 MB.


def _scaled(row):
    """(s, integers) with integers = s * row and s the lcm of the denominators."""
    s = reduce(lcm, (c.denominator for c in row), 1)
    if s == 1:
        return 1, [c.numerator for c in row]
    return s, [c.numerator * (s // c.denominator) for c in row]


def _int_rows(rows):
    """The nonzero rows as primitive integer rows; the kernel is unchanged."""
    out = []
    for row in rows:
        ints = _scaled(row)[1]
        content = reduce(gcd, ints, 0)
        if content > 1:
            ints = [v // content for v in ints]
        if content:
            out.append(ints)
    return out


def _echelon_mod(rows, ncols, p):
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


def _back_substitute(pivots, echelon, ncols, p):
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


def _kernel(rows, ncols):
    """Certified kernel basis of nonzero integer rows, as Fraction vectors."""
    if not rows:
        return [[Fraction(int(i == k)) for i in range(ncols)] for k in range(ncols)]
    pivots = limit = None
    tried = 1
    for p in _primes():
        pivots_p, echelon = _echelon_mod(rows, ncols, p)
        if len(pivots_p) == ncols:
            return []
        tried *= p
        residues_p = _back_substitute(pivots_p, echelon, ncols, p)
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


def kernel_basis(rows, ncols):
    """Basis of {v : M v = 0} as Fraction vectors, reduced-echelon shaped.

    There is one vector per free column f of the reduced row-echelon form
    of M, in increasing order of f: it holds 1 at f, 0 at every other free
    column and 0 at every column after f.  This makes downstream output
    deterministic.  With no nonzero rows the basis is the standard one.
    """
    return _kernel(_int_rows(rows), ncols)


def rank(rows) -> int:
    """Rank over Q of a matrix given as a list of equal-length rows."""
    work = _int_rows(rows)
    if not work:
        return 0
    ncols = len(work[0])
    return ncols - len(_kernel(work, ncols))


def det(matrix) -> Fraction:
    """Determinant over Q by Bareiss elimination on integer-scaled rows."""
    scale = 1
    work = []
    for row in matrix:
        s, ints = _scaled(row)
        scale *= s
        work.append(ints)
    n = len(work)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if work[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            work[k], work[pivot] = work[pivot], work[k]
            sign = -sign
        prow = work[k]
        pk = prow[k]
        for i in range(k + 1, n):
            row = work[i]
            a = row[k]
            row[k + 1:] = [(pk * x - a * y) // prev for x, y in zip(row[k + 1:], prow[k + 1:])]
        prev = pk
    return Fraction(sign * prev, scale)
